//! Host-speed calibration: how much slower than its reference speed
//! this host is running right now.
//!
//! On the shared 2-core sandbox the same run takes 15–30 % longer for
//! minutes at a time, and a pure ALU loop barely notices: the slowdown
//! is contention in the memory system (neighbours on the same socket),
//! not frequency or stolen CPU. A fixed memory-touching kernel run
//! right before and after each timed call slows down with it, so wall
//! time divided by the kernel's slowdown — time in *reference seconds*
//! — repeats 3–5× better than wall time (measured: 10-run medians
//! drifted 30 % raw, 1–6 % scaled; see README).
//!
//! The kernel runs in a child process of its own, so its ~100 MiB of
//! tables are not in the measured process's resident set and its
//! allocations cannot perturb the measured allocator.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// What one kernel pass takes on this class of host when it is quiet.
/// Only fixes the scale of a reference second; comparisons between two
/// commits on one host do not depend on it.
pub const REF_MS: f64 = 125.0;

/// `wall_s` in reference seconds, given the slowdown readings taken
/// right before and right after the interval.
pub fn reference_seconds(wall_s: f64, before: f64, after: f64) -> f64 {
    wall_s / ((before + after) / 2.0)
}

/// The argument that puts `bench` into calibrator-child mode.
pub const CHILD_ARG: &str = "calibrate";

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The calibration kernel: hash-map updates over three working sets
/// (about 1, 10 and 50 MiB: L2, L3 and DRAM) plus a dependent pointer
/// chase through 16 MiB (memory latency). The four parts together
/// tracked the workloads' slowdown best of every subset tried.
struct Kernel {
    maps: [(HashMap<u64, f64>, u64, u64); 3],
    next: Vec<u32>,
    steps: u64,
}

impl Kernel {
    /// Builds the kernel at `scale` × full size; only the full size
    /// means anything as a calibration, smaller ones keep `--scale`
    /// smoke runs quick.
    fn new(scale: f64) -> Self {
        let scaled = |n: u64| ((n as f64 * scale) as u64).max(16);
        // A random single-cycle permutation (Sattolo), so the chase
        // visits the whole table and prefetchers cannot follow it.
        let n = scaled(1 << 22) as usize;
        let mut next: Vec<u32> = (0..n as u32).collect();
        let mut x = 12_345u64;
        for i in (1..n).rev() {
            next.swap(i, (xorshift(&mut x) % i as u64) as usize);
        }
        // Every key is present from the start, so no pass ever inserts
        // or rehashes and every pass does the same work.
        let part = |keys: u64, updates: u64| {
            let keys = scaled(keys);
            let full: HashMap<u64, f64> = (0..keys).map(|k| (k, 0.0)).collect();
            (full, keys, scaled(updates))
        };
        let mut k = Self {
            maps: [
                part(50_000, 1_000_000),
                part(400_000, 500_000),
                part(2_000_000, 300_000),
            ],
            next,
            steps: scaled(300_000),
        };
        k.pass();
        k
    }

    /// One pass of all four parts.
    fn pass(&mut self) {
        for (map, keys, updates) in &mut self.maps {
            let mut x = 88_172_645_463_325_252u64;
            let mut sum = 0.0;
            for _ in 0..*updates {
                let r = xorshift(&mut x);
                let slot = map.entry(r % *keys).or_insert(0.0);
                *slot += ((r >> 40) as f64 * 1e-7).exp();
                sum += *slot;
            }
            black_box(sum);
        }
        let mut i = 0u32;
        for _ in 0..self.steps {
            i = self.next[i as usize];
        }
        black_box(i);
    }
}

/// Calibrator-child mode: build the kernel at `scale`, say `ready`,
/// then answer every input line with the nanoseconds one pass took;
/// exit at end of input.
pub fn child_main(scale: f64) {
    let mut kernel = Kernel::new(scale);
    let stdin = std::io::stdin();
    let mut out = std::io::stdout().lock();
    if writeln!(out, "ready").and_then(|()| out.flush()).is_err() {
        return;
    }
    for line in stdin.lock().lines() {
        if line.is_err() {
            return;
        }
        let t0 = Instant::now();
        kernel.pass();
        let ns = t0.elapsed().as_nanos();
        if writeln!(out, "{ns}").and_then(|()| out.flush()).is_err() {
            return;
        }
    }
}

/// Handle on the calibrator child.
pub struct Calibrator {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Calibrator {
    /// Starts the child (this same binary in [`CHILD_ARG`] mode, its
    /// kernel at `scale` × full size) and waits until its tables are
    /// built.
    pub fn spawn(scale: f64) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
        let mut child = Command::new(exe)
            .arg(CHILD_ARG)
            .arg(scale.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the calibrator: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut me = Self {
            child,
            stdin,
            stdout,
        };
        match me.read_line()?.as_str() {
            "ready" => Ok(me),
            other => Err(format!("calibrator said `{other}`, not `ready`")),
        }
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(n) if n > 0 => Ok(line.trim().to_string()),
            Ok(_) => Err("calibrator exited early".into()),
            Err(e) => Err(format!("calibrator pipe: {e}")),
        }
    }

    /// Runs one kernel pass now and returns the host's slowdown: pass
    /// time over [`REF_MS`]; above 1 means slower than the reference.
    pub fn slowdown(&mut self) -> Result<f64, String> {
        let stdin = self.stdin.as_mut().expect("stdin is open until drop");
        stdin
            .write_all(b"\n")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("calibrator pipe: {e}"))?;
        let ns: f64 = self
            .read_line()?
            .parse()
            .map_err(|_| "calibrator answered with a non-number".to_string())?;
        Ok(ns / 1e6 / REF_MS)
    }
}

impl Drop for Calibrator {
    fn drop(&mut self) {
        // End of input is the child's signal to exit; then reap it.
        drop(self.stdin.take());
        let _ = self.child.wait();
    }
}
