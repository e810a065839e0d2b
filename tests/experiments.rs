//! Every experiment table holds its own checks: the claims its rows must
//! show (`Table::failed` names each one it fails). The `experiments`
//! binary exits non-zero on the same failures at any scale; here they run
//! at micro scale, on two worker threads.
//!
//! No table reads the host, so each is also pinned whole: one digest per
//! table id in [`PINNED`]. A change that moves any cell of any table, in
//! a column no check reads, fails here and prints the new table.

use std::sync::OnceLock;

use adpf_bench::{all_ids, run_experiment_threads, Cell, Format, Scale, Table};

/// `(table id, digest)` of every table at micro scale; see [`digest`].
/// A change that means to move a table updates its row here and shows
/// the new table (printed on a mismatch) in its review.
const PINNED: &[(&str, u64)] = &[
    ("E1", 0x06fc0f254d975b8b),
    ("E2a", 0x615f65694fb32a90),
    ("E2b", 0xc06ec7d3191fc515),
    ("E3", 0x56b2edbf6084ec00),
    ("E4a", 0xce72454d2a271dc5),
    ("E4b", 0x51fb12058433b076),
    ("E4c", 0x913389f88ff02b19),
    ("E5", 0x5ec257a315d71cb2),
    ("E6", 0xac40404fc811c1ab),
    ("E7", 0xf4c24ab87e3f880e),
    ("E7b", 0xc377f92a90dd5036),
    ("E8", 0xfe9469601e42e3e9),
    ("E9", 0xb7c552fad1adff14),
    ("E10", 0xb49a2083eb26561d),
    ("E11", 0x6f06ad4a03da5cde),
    ("E12", 0xac76c9dd86a44aaf),
    ("E13", 0x0fec9191e0bd62e6),
    ("E14a", 0x09f0334535135006),
    ("E15", 0x3e53676685769a8e),
    ("E16", 0xe20745330a7603fc),
    ("E18", 0xd0e122c771138f1c),
    ("E19", 0xe41de056a81f062d),
    ("E21", 0xb51b3f053898d23f),
    ("E22", 0x2c0e7b4a063179ee),
];

/// Every table of every experiment at micro scale on two workers, built
/// once for both tests. `e9` is skipped, as the `experiments` binary
/// skips it: E8 and E9 are two views of one sweep, and `e8` returns both.
fn tables() -> &'static [Table] {
    static TABLES: OnceLock<Vec<Table>> = OnceLock::new();
    TABLES.get_or_init(|| {
        all_ids()
            .into_iter()
            .filter(|&id| id != "e9")
            .flat_map(|id| run_experiment_threads(id, Scale::Micro, 2).expect("a known id"))
            .collect()
    })
}

/// FNV-1a 64 over a table's id, its header and every cell: a text cell's
/// bytes, a numeric cell's `f64` bits and its format. Strings and rows
/// are length-prefixed, so no two tables share a byte stream.
fn digest(table: &Table) -> u64 {
    struct Fnv(u64);
    impl Fnv {
        fn bytes(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        fn len(&mut self, n: usize) {
            self.bytes(&(n as u64).to_le_bytes());
        }
        fn str(&mut self, s: &str) {
            self.len(s.len());
            self.bytes(s.as_bytes());
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.str(&table.id);
    h.len(table.header.len());
    for name in &table.header {
        h.str(name);
    }
    for row in &table.rows {
        h.len(row.len());
        for cell in row {
            match *cell {
                Cell::Text(ref s) => {
                    h.bytes(&[0]);
                    h.str(s);
                }
                Cell::Num(x, format) => {
                    h.bytes(&[1]);
                    h.bytes(&x.to_bits().to_le_bytes());
                    match format {
                        Format::Fixed(decimals) => {
                            h.bytes(&[0]);
                            h.len(decimals);
                        }
                        Format::Pct => h.bytes(&[1]),
                    }
                }
            }
        }
    }
    h.0
}

#[test]
fn every_experiment_holds_its_checks_at_micro_scale() {
    let failed: Vec<String> = tables()
        .iter()
        .flat_map(|table| {
            table
                .failed
                .iter()
                .map(move |check| format!("{}: {check}", table.id))
        })
        .collect();
    assert!(failed.is_empty(), "failed checks: {failed:#?}");
}

#[test]
fn every_table_matches_its_pinned_digest() {
    let mut moved = Vec::new();
    let mut seen = Vec::new();
    for table in tables() {
        let new = digest(table);
        let pinned = PINNED.iter().find(|(id, _)| *id == table.id).map(|p| p.1);
        if pinned != Some(new) {
            let old = pinned.map_or("none".into(), |d| format!("{d:#018x}"));
            moved.push(format!(
                "{}: pinned {old}, now {new:#018x}\n{table}",
                table.id
            ));
        }
        if seen.contains(&table.id.as_str()) {
            moved.push(format!("{}: built twice", table.id));
        }
        seen.push(table.id.as_str());
    }
    for (id, _) in PINNED {
        if !seen.contains(id) {
            moved.push(format!("{id}: pinned, but no experiment prints it"));
        }
    }
    assert!(
        moved.is_empty(),
        "{} tables moved:\n{}",
        moved.len(),
        moved.join("\n")
    );
}
