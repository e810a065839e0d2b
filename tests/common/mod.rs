//! The tier-1 slice of `adpf_bench::baseline::ROWS`, shared by the root
//! suites.

use adpf_bench::baseline::{select, Row};

/// The rows tier 1 drives through `baseline::check`: every default row
/// of at most a hundred users, each run a fraction of a second in a
/// debug build.
pub fn smoke_scale_rows() -> Vec<Row> {
    let mut rows = select(&[]).expect("no names, so none unknown");
    rows.retain(|r| r.population().num_users <= 100);
    rows
}

/// Panics unless every named row is a smoke-scale row, and no two of them
/// pin one report hash.
pub fn assert_smoke_scale(names: &[&str]) {
    let rows = smoke_scale_rows();
    let mut hashes = Vec::new();
    for name in names {
        let row = rows.iter().find(|r| r.name == *name);
        let row = row.unwrap_or_else(|| panic!("`{name}` is not a smoke-scale row"));
        hashes.push(row.hash);
    }
    let distinct = hashes
        .iter()
        .enumerate()
        .all(|(i, h)| !hashes[..i].contains(h));
    assert!(distinct, "{names:?} pin one hash twice");
}

/// Tests kept by name after rows of `ROWS` took over their assertions,
/// one `name: "row", …;` each. A test holds that its rows stay in the set
/// `every_smoke_scale_row_holds` (tests/determinism.rs) drives, where
/// `check` holds them to their hashes, the books, serve's contract and
/// one set of deterministic metrics, under every driver at one and eight
/// workers.
macro_rules! pinned_by {
    ($($test:ident: $($row:literal),+;)+) => {
        $(
            #[test]
            fn $test() {
                common::assert_smoke_scale(&[$($row),+]);
            }
        )+
    };
}
