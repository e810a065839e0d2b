//! Source rules for every library crate, checked by scanning the tree.
//!
//! - **The public surface is what is used.** A `pub` item in
//!   `crates/*/src` must be named, as an identifier outside `//` comments,
//!   by some `.rs` file outside its own library: another crate, any
//!   crate's `src/bin/`, `tests/` or `benches/`, the root `src/`, `tests/`
//!   and `examples/`, or `benchmark/src/`. The benchmark is a separate
//!   workspace bound to the crates' public API, so the names it calls count
//!   as callers and need no list of their own. A type also passes when
//!   another public signature of its crate names it (a `pub` item or field,
//!   or a variant or method of a `pub enum` or `pub trait`): callers
//!   outside then use it through that signature. Anything else is
//!   `pub(crate)`, private or gone. What the scan cannot see sits in
//!   [`ALLOWLIST`], with its reason.
//! - **Libraries do not print.** Human-facing output belongs to the
//!   binaries under `src/bin/`; libraries speak through return values and
//!   the metric registry.
//!
//! An item is a line declaring `pub fn`, `pub const fn`, `pub struct`,
//! `pub enum`, `pub trait`, `pub type`, `pub const`, `pub static` or
//! `pub mod`; everything after a file's first `#[cfg(test)]` is test code
//! and declares none. Run with
//! `cargo test -p adpf-bench --test public_surface`.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Items the scan cannot see a caller for, one reason each.
const ALLOWLIST: &[(&str, &str)] = &[(
    "ks_statistic",
    "kept for the statistical-equivalence bound of a rebaselining change",
)];

/// Item keywords after `pub `, longest first where one prefixes another.
const KEYWORDS: &[&str] = &[
    "const fn", "fn", "struct", "enum", "trait", "type", "const", "static", "mod",
];

/// Keywords that declare a type.
const TYPE_KEYWORDS: &[&str] = &["struct", "enum", "trait", "type"];

const PRINT_MACROS: &[&str] = &["print", "println", "eprint", "eprintln"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("the bench crate sits two levels below the repository root")
}

/// Every `.rs` file under `dir`, in path order; none when `dir` is absent.
fn rs_files(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut entries: Vec<PathBuf> = entries.map(|e| e.expect("readable dir").path()).collect();
    entries.sort();
    let mut out = Vec::new();
    for path in entries {
        if path.is_dir() {
            out.extend(rs_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The part of a line before any `//` comment.
fn code(line: &str) -> &str {
    line.find("//").map_or(line, |i| &line[..i])
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

fn idents(line: &str) -> impl Iterator<Item = &str> {
    code(line)
        .split(|c: char| !is_ident_char(c))
        .filter(|w| w.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
}

/// `(line number, line)` for the lines of a library file that declare
/// items: those before its first `#[cfg(test)]`.
fn item_lines(text: &str) -> Vec<(usize, &str)> {
    text.lines()
        .enumerate()
        .take_while(|(_, l)| l.trim() != "#[cfg(test)]")
        .map(|(i, l)| (i + 1, l))
        .collect()
}

/// `(keyword, name)` when the line declares a plain-`pub` item.
fn pub_item(line: &str) -> Option<(&'static str, &str)> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    KEYWORDS.iter().find_map(|&kw| {
        let name = rest.strip_prefix(kw)?.strip_prefix(' ')?;
        let name = name.strip_prefix("mut ").unwrap_or(name);
        let end = name.find(|c: char| !is_ident_char(c)).unwrap_or(name.len());
        (end > 0).then(|| (kw, &name[..end]))
    })
}

/// The public signatures in a library file, as `(first line, names)`:
/// each `pub` item or field (re-exports aside), read on to the `{` or `;`
/// that ends a multi-line signature, or, for a `pub enum` or `pub trait`,
/// to the brace closing its body, whose variants and methods are public
/// too.
fn signatures<'a>(lines: &[(usize, &'a str)]) -> Vec<(usize, HashSet<&'a str>)> {
    let mut out = Vec::new();
    for (i, &(n, line)) in lines.iter().enumerate() {
        let t = line.trim_start();
        if !t.starts_with("pub ") || t.starts_with("pub use ") {
            continue;
        }
        let whole_body = matches!(pub_item(line), Some(("enum" | "trait", _)));
        let mut names = HashSet::new();
        let mut depth = 0i32;
        for (j, &(_, l)) in lines[i..].iter().enumerate() {
            names.extend(idents(l));
            let c = code(l).trim_end();
            depth += c.matches('{').count() as i32 - c.matches('}').count() as i32;
            let ends = if whole_body {
                depth <= 0 && (c.contains('}') || c.ends_with(';'))
            } else {
                // A field is one line; an item runs to its body or `;`.
                (j == 0 && c.ends_with(',')) || c.contains('{') || c.ends_with(';')
            };
            if ends {
                break;
            }
        }
        out.push((n, names));
    }
    out
}

/// One library crate: `crates/<dir>/src` without its `bin/`.
struct Library {
    name: String,
    files: Vec<PathBuf>,
}

fn libraries(root: &Path) -> Vec<Library> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/ exists")
        .map(|e| e.expect("readable dir").path())
        .filter(|p| p.join("src").is_dir())
        .collect();
    dirs.sort();
    dirs.into_iter()
        .map(|dir| {
            let bin = dir.join("src/bin");
            let files = rs_files(&dir.join("src"))
                .into_iter()
                .filter(|f| !f.starts_with(&bin))
                .collect();
            let name = format!("adpf-{}", dir.file_name().unwrap().to_string_lossy());
            Library { name, files }
        })
        .collect()
}

/// A `pub` item the rule flags.
struct Flagged {
    /// `path:line`, relative to the repository root.
    location: String,
    /// The item as declared, e.g. `pub fn claim`.
    item: String,
    name: String,
    library: String,
}

/// Every `pub` item that fails the rule, allowlist not applied.
fn unnamed_pub_items(root: &Path) -> Vec<Flagged> {
    let libs = libraries(root);
    let this_file = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/public_surface.rs")
        .canonicalize()
        .expect("this test exists");

    // Identifier -> the libraries (by index, `usize::MAX` for any file
    // outside them) whose files name it.
    let mut named_by: HashMap<String, HashSet<usize>> = HashMap::new();
    let callers = ["crates", "src", "tests", "examples", "benchmark/src"];
    for file in callers.iter().flat_map(|d| rs_files(&root.join(d))) {
        if file == this_file {
            continue;
        }
        let owner = libs
            .iter()
            .position(|l| l.files.contains(&file))
            .unwrap_or(usize::MAX);
        for line in read(&file).lines() {
            for id in idents(line) {
                named_by.entry(id.to_string()).or_default().insert(owner);
            }
        }
    }

    let mut flagged = Vec::new();
    for (li, lib) in libs.iter().enumerate() {
        let texts: Vec<(&Path, String)> =
            lib.files.iter().map(|f| (f.as_path(), read(f))).collect();
        let items: Vec<(&Path, Vec<(usize, &str)>)> =
            texts.iter().map(|(f, t)| (*f, item_lines(t))).collect();
        let sigs: Vec<(&Path, usize, HashSet<&str>)> = items
            .iter()
            .flat_map(|(f, lines)| signatures(lines).into_iter().map(move |(n, s)| (*f, n, s)))
            .collect();
        for (file, lines) in &items {
            for &(n, line) in lines {
                let Some((kw, name)) = pub_item(line) else {
                    continue;
                };
                let outside = named_by
                    .get(name)
                    .is_some_and(|o| o.iter().any(|&o| o != li));
                let in_signature = TYPE_KEYWORDS.contains(&kw)
                    && sigs
                        .iter()
                        .any(|(f, m, names)| (*f, *m) != (*file, n) && names.contains(name));
                if !outside && !in_signature {
                    let rel = file.strip_prefix(root).unwrap_or(file);
                    flagged.push(Flagged {
                        location: format!("{}:{n}", rel.display()),
                        item: format!("pub {kw} {name}"),
                        name: name.to_string(),
                        library: lib.name.clone(),
                    });
                }
            }
        }
    }
    flagged
}

#[test]
fn every_pub_item_is_named_outside_its_library() {
    let flagged = unnamed_pub_items(&repo_root());
    let failures: Vec<String> = flagged
        .iter()
        .filter(|f| !ALLOWLIST.iter().any(|(n, _)| *n == f.name))
        .map(|f| {
            format!(
                "{}: `{}` is named nowhere outside {}",
                f.location, f.item, f.library
            )
        })
        .collect();
    assert!(
        failures.is_empty(),
        "{} pub items have no caller outside their library; make them \
         pub(crate) or private, or delete them:\n{}",
        failures.len(),
        failures.join("\n")
    );
    let stale: Vec<&str> = ALLOWLIST
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| !flagged.iter().any(|f| f.name == *n))
        .collect();
    assert!(
        stale.is_empty(),
        "allowlist entries the scan no longer flags: {stale:?}"
    );
}

#[test]
fn libraries_do_not_print() {
    let root = repo_root();
    let mut failures = Vec::new();
    for file in libraries(&root).iter().flat_map(|l| &l.files) {
        for (n, line) in read(file).lines().enumerate() {
            let code = code(line);
            for m in PRINT_MACROS {
                let call = format!("{m}!(");
                let hit = code
                    .match_indices(&call)
                    .any(|(i, _)| !code[..i].ends_with(is_ident_char));
                if hit {
                    let rel = file.strip_prefix(&root).unwrap_or(file);
                    failures.push(format!("{}:{}: `{m}!`", rel.display(), n + 1));
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "library crates must not print; return values, record metrics, or \
         print from a src/bin/ binary:\n{}",
        failures.join("\n")
    );
}
