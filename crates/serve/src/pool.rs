//! Serve workers kept between sessions.
//!
//! A session takes its workers from an idle pool and starts threads
//! only for the ones missing; when its jobs end, the workers park in the
//! pool again, so a process runs at most as many workers as it ever had
//! sessions' workers at once. Workers are never joined.
//!
//! Every new thread allocates at start, which binds it to a glibc malloc
//! arena, and a thread that ends frees its arena for the next new one.
//! With a worker started and joined per session, the benchmark's
//! `serve-paced` worker and the generator thread it starts per session
//! traded arenas every session, and both grew to the worker's working
//! set: per-session peaks read 8.5 MiB in the first session and
//! 10.1–10.5 MiB in every later one, where a kept worker reads flat.
//! The bid sampler's helpers are kept for the same reason.
//!
//! A job is `'static`: it owns what it shares with the session's caller
//! (an `Arc`), so a kept thread borrows nothing from the caller's stack.
//! A job's panic is caught on the worker, which stays usable, and handed
//! back to the caller by [`Crew::join`].

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

type Job = Box<dyn FnOnce() + Send>;

/// Where one worker is in its job.
enum Task {
    /// Parked in a pool, or in a crew without a job.
    Idle,
    /// Handed a job it has not picked up yet.
    Queued(Job),
    /// Running its job.
    Busy,
    /// Its job ended; `Err` holds the panic's payload.
    Done(thread::Result<()>),
}

struct Worker {
    task: Mutex<Task>,
    /// Signals a change of `task`.
    changed: Condvar,
}

/// Idle serve workers, each parked until a session takes it.
pub(crate) struct Pool(Mutex<Vec<Arc<Worker>>>);

/// The process's serve workers.
pub(crate) static POOL: Pool = Pool::new();

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Every update under these locks is one push, append, split or
    // store, so a panic elsewhere cannot leave the data half-changed;
    // and a crew waits for its jobs from a drop guard, during unwinding.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn wait<'a>(worker: &Worker, task: MutexGuard<'a, Task>) -> MutexGuard<'a, Task> {
    worker
        .changed
        .wait(task)
        .unwrap_or_else(PoisonError::into_inner)
}

impl Pool {
    pub(crate) const fn new() -> Self {
        Self(Mutex::new(Vec::new()))
    }

    /// A crew of `n` workers: idle ones first, then new threads for the
    /// rest. An error if a thread cannot be started; the workers taken
    /// by then park again.
    pub(crate) fn crew(&self, n: usize) -> std::io::Result<Crew<'_>> {
        let workers = {
            let mut idle = lock(&self.0);
            let keep = idle.len().saturating_sub(n);
            idle.split_off(keep)
        };
        let mut crew = Crew {
            pool: self,
            workers,
            started: 0,
        };
        while crew.workers.len() < n {
            let worker = Arc::new(Worker {
                task: Mutex::new(Task::Idle),
                changed: Condvar::new(),
            });
            let kept = Arc::clone(&worker);
            thread::Builder::new()
                .name("serve-worker".into())
                .spawn(move || work(&kept))?;
            crew.workers.push(worker);
            crew.started += 1;
        }
        Ok(crew)
    }
}

/// A worker thread's life: run each job handed to it, catching its
/// panic, and report how it ended.
fn work(worker: &Worker) {
    loop {
        let mut task = lock(&worker.task);
        while !matches!(*task, Task::Queued(_)) {
            task = wait(worker, task);
        }
        let Task::Queued(job) = std::mem::replace(&mut *task, Task::Busy) else {
            unreachable!("the loop above waited for a queued job");
        };
        drop(task);
        // The job owns everything it touches; a panic leaves nothing of
        // it for the next job to see.
        let ended = panic::catch_unwind(AssertUnwindSafe(job));
        *lock(&worker.task) = Task::Done(ended);
        worker.changed.notify_all();
    }
}

/// One session's workers. Dropping it, like [`Crew::join`], waits for
/// every job handed out and parks the workers in their pool.
pub(crate) struct Crew<'p> {
    pool: &'p Pool,
    workers: Vec<Arc<Worker>>,
    started: usize,
}

impl Crew<'_> {
    /// How many of the crew's threads were started for it.
    pub(crate) fn started(&self) -> usize {
        self.started
    }

    /// Hands worker `w` its job.
    pub(crate) fn run(&self, w: usize, job: impl FnOnce() + Send + 'static) {
        let worker = &self.workers[w];
        *lock(&worker.task) = Task::Queued(Box::new(job));
        worker.changed.notify_all();
    }

    /// Waits for every job to end and parks the workers. `Err` carries
    /// the first panicked job's payload, for the caller to resume.
    pub(crate) fn join(mut self) -> thread::Result<()> {
        self.finish()
    }

    fn finish(&mut self) -> thread::Result<()> {
        let mut ended = Ok(());
        for worker in &self.workers {
            let mut task = lock(&worker.task);
            while matches!(*task, Task::Queued(_) | Task::Busy) {
                task = wait(worker, task);
            }
            if let Task::Done(Err(payload)) = std::mem::replace(&mut *task, Task::Idle) {
                ended = ended.and(Err(payload));
            }
        }
        lock(&self.pool.0).append(&mut self.workers);
        ended
    }
}

impl Drop for Crew<'_> {
    fn drop(&mut self) {
        // A crew dropped unjoined, by a failed start or an unwinding
        // caller, still waits out its jobs; the caller's own error or
        // panic is the one that propagates.
        let _ = self.finish();
    }
}
