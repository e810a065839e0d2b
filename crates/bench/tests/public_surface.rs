//! Source rules for every library crate, checked by scanning the tree.
//!
//! - **The public surface is what is used.** A `pub` item in
//!   `crates/*/src` must be reached by some `.rs` file outside its own
//!   library: another crate, any crate's `src/bin/`, `tests/` or
//!   `benches/`, the root `src/`, `tests/` and `examples/`, or
//!   `benchmark/src/`. The benchmark is a separate workspace bound to the
//!   crates' public API, so the names it calls count as callers and need
//!   no list of their own. A shared name is not a reach:
//!   - a module-level item (type, function, constant, module) is reached
//!     only through its crate: a path or `use` tree under `adpf_<crate>::`
//!     or `adprefetch::<crate>::` (or under a name such a `use` imported),
//!     or through another crate's `pub use` of it that is itself reached;
//!   - a `pub fn` or `pub const` in an inherent `impl Type` is reached
//!     only by `Type::name`, or, for a `fn`, by a `.name(` call.
//!
//!   A type also passes when another public signature of its crate names
//!   it (a `pub` item or field, or a variant or method of a `pub enum` or
//!   `pub trait`): callers outside then use it through that signature.
//!   Anything else is `pub(crate)`, private or gone. What the scan cannot
//!   see sits in [`ALLOWLIST`], with its reason.
//! - **Libraries do not print.** Human-facing output belongs to the
//!   binaries under `src/bin/`; libraries speak through return values and
//!   the metric registry.
//!
//! An item is a line declaring `pub fn`, `pub const fn`, `pub struct`,
//! `pub enum`, `pub trait`, `pub type`, `pub const`, `pub static` or
//! `pub mod`; the item after each `#[cfg(test)]` line (a test module,
//! inline or `#[path]`-ed, a test helper, or a test-only field) is test
//! code, stripped to its closing brace, its `;` or a field's comma, and
//! declares none. Run with
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

/// Length of the string or char literal opening `rest`, if one does, or
/// 1 for a lifetime's quote (its name is read as an identifier).
fn literal_len(rest: &str) -> Option<usize> {
    if let Some(raw) = rest.strip_prefix('r') {
        let hashes = raw.len() - raw.trim_start_matches('#').len();
        let text = raw[hashes..].strip_prefix('"')?;
        let close = format!("\"{}", "#".repeat(hashes));
        return Some(2 + hashes + text.find(&close)? + close.len());
    }
    let quote = rest.chars().next().filter(|&c| c == '"' || c == '\'')?;
    let inner = &rest[1..];
    if quote == '\'' && !inner.starts_with('\\') && inner.chars().nth(1) != Some('\'') {
        return Some(1);
    }
    let mut chars = inner.char_indices();
    while let Some((i, c)) = chars.next() {
        if c == '\\' {
            chars.next();
        } else if c == quote {
            return Some(i + 2);
        }
    }
    Some(rest.len())
}

/// The identifiers, `::` separators and other punctuation of Rust source,
/// in order; comments, literals and whitespace are dropped.
fn tokens(src: &str) -> Vec<&str> {
    tokens_of(src, false)
}

/// [`tokens`], with string, char and number literals kept as tokens of
/// their own when `literals` is set (the census compares values).
fn tokens_of(src: &str, literals: bool) -> Vec<&str> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < src.len() {
        let rest = &src[i..];
        let word = rest.find(|c: char| !is_ident_char(c)).unwrap_or(rest.len());
        let first = rest.chars().next().unwrap_or(' ');
        i += if rest.starts_with("//") {
            rest.find('\n').unwrap_or(rest.len())
        } else if rest.starts_with("/*") {
            rest.find("*/").map_or(rest.len(), |e| e + 2)
        } else if let Some(n) = literal_len(rest) {
            // A lifetime's quote (`n == 1`) is no literal.
            if literals && n > 1 {
                out.push(&rest[..n]);
            }
            n
        } else if rest.starts_with("::") {
            out.push("::");
            2
        } else if word > 0 {
            if literals || !first.is_ascii_digit() {
                out.push(&rest[..word]);
            }
            word
        } else {
            if !first.is_whitespace() {
                out.push(&rest[..first.len_utf8()]);
            }
            first.len_utf8()
        };
    }
    out
}

fn is_ident(tok: &str) -> bool {
    tok.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
}

/// What the files outside each library reach, keyed `adpf_<dir>::name`
/// (a path through that crate), `Type::name` (the text) or `.name` (a
/// method call), each to the set of owners of the files that reach it (a
/// library's index, `usize::MAX` for a file outside every library).
#[derive(Default)]
struct Reached {
    keys: HashMap<String, HashSet<usize>>,
    /// `(re-exported key, key it re-exports)`, one per library `pub use`.
    reexports: Vec<(String, String)>,
}

impl Reached {
    fn add(&mut self, key: String, owner: usize) {
        self.keys.entry(key).or_default().insert(owner);
    }

    /// Whether a file outside library `lib` reaches `key`.
    fn by_other(&self, key: &str, lib: usize) -> bool {
        self.keys
            .get(key)
            .is_some_and(|s| s.iter().any(|&o| o != lib))
    }

    /// Records the paths, `use` trees and method calls of one file owned
    /// by `owner`; `dirs` are the library directory names, by index.
    fn scan(&mut self, toks: &[&str], owner: usize, dirs: &[String]) {
        let lib_of = |name: &str| dirs.iter().position(|d| d == name);
        // Names a `use` imported through a library, to that library.
        let mut imports: HashMap<&str, usize> = HashMap::new();
        // The library a path goes through, and its segments past the root.
        let root = |segs: &[&str], imports: &HashMap<&str, usize>| -> Option<(usize, usize)> {
            if let Some(lib) = segs[0].strip_prefix("adpf_").and_then(lib_of) {
                return Some((lib, 1));
            }
            if segs[0] == "adprefetch" {
                return Some((lib_of(segs.get(1)?)?, 2));
            }
            imports.get(segs[0]).map(|&lib| (lib, 1))
        };
        let mut i = 0;
        while i < toks.len() {
            let start = i;
            i += 1;
            if toks[start] == "use" {
                let end = toks[start..]
                    .iter()
                    .position(|&t| t == ";")
                    .map_or(toks.len(), |e| start + e);
                let reexport = owner != usize::MAX && start > 0 && toks[start - 1] == "pub";
                let names: Vec<&str> = toks[i..end]
                    .iter()
                    .copied()
                    .filter(|&t| is_ident(t) && t != "self" && t != "as")
                    .collect();
                if let Some((lib, skip)) = names.first().and_then(|_| root(&names, &imports)) {
                    for &name in &names[skip..] {
                        let key = format!("adpf_{}::{name}", dirs[lib]);
                        if reexport {
                            let from = format!("adpf_{}::{name}", dirs[owner]);
                            self.reexports.push((from, key));
                        } else {
                            self.add(key, owner);
                        }
                        imports.insert(name, lib);
                    }
                }
                i = end;
            } else if is_ident(toks[start]) {
                let mut segs = vec![toks[start]];
                while toks.get(i) == Some(&"::") && toks.get(i + 1).is_some_and(|t| is_ident(t)) {
                    segs.push(toks[i + 1]);
                    i += 2;
                }
                for w in segs.windows(2) {
                    self.add(format!("{}::{}", w[0], w[1]), owner);
                }
                if let Some((lib, skip)) = root(&segs, &imports) {
                    for name in &segs[skip..] {
                        self.add(format!("adpf_{}::{name}", dirs[lib]), owner);
                    }
                }
            } else if toks[start] == "."
                && (start == 0 || toks[start - 1] != ".")
                && toks.get(i).is_some_and(|t| is_ident(t))
                && matches!(toks.get(i + 1), Some(&"(" | &"::"))
            {
                self.add(format!(".{}", toks[i]), owner);
            }
        }
    }
}

/// The byte offset just past the item that starts at `src[from..]`: its
/// first `;`, the brace closing its first `{`, or, for a field or a
/// struct-literal entry, its comma, the first outside every brace, paren
/// and bracket, angle brackets included (so the one in `HashMap<K, V>`
/// does not end it).
fn item_end(src: &str, from: usize) -> usize {
    let (mut braces, mut nested) = (0, 0);
    let toks = tokens(&src[from..]);
    for (i, &tok) in toks.iter().enumerate() {
        match tok {
            "{" => braces += 1,
            "}" => braces -= 1,
            "(" | "[" | "<" => nested += 1,
            ")" | "]" => nested -= 1,
            // Not the `>` of `->` or `=>`.
            ">" if !matches!(toks[..i].last(), Some(&"-" | &"=")) => nested -= 1,
            ";" if braces == 0 => {}
            "," if braces == 0 && nested == 0 => {}
            _ => continue,
        }
        if braces == 0 && matches!(tok, "}" | ";" | ",") {
            return tok.as_ptr() as usize - src.as_ptr() as usize + 1;
        }
    }
    src.len()
}

/// `(line number, line)` for the lines of a library file that declare
/// items: all but the lines of its `#[cfg(test)]` items.
fn item_lines(text: &str) -> Vec<(usize, &str)> {
    let at = |line: &str| line.as_ptr() as usize - text.as_ptr() as usize;
    // Lines starting before this offset belong to a test item.
    let mut test_until = 0;
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if at(line) < test_until {
            continue;
        } else if line.trim() == "#[cfg(test)]" {
            test_until = item_end(text, at(line) + line.len());
        } else {
            out.push((i + 1, line));
        }
    }
    out
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

fn indent(line: &str) -> usize {
    line.len() - line.trim_start().len()
}

/// The type of the inherent `impl` enclosing `lines[at]`, or `None` at
/// module level: the nearest less-indented line that opens a block
/// decides (`where` clauses and braces aside).
fn impl_type(lines: &[(usize, &str)], at: usize) -> Option<String> {
    let own = indent(lines[at].1);
    let opens = |l: &&str| {
        let t = l.trim_start();
        indent(l) < own && t.starts_with(char::is_alphabetic) && !t.starts_with("where")
    };
    let header = lines[..at].iter().map(|&(_, l)| l).rev().find(opens)?;
    // Drop generics: `impl<T: Ord> Queue<T>` is `impl Queue`.
    let mut depth = 0;
    let flat: String = header
        .trim_start()
        .chars()
        .filter(|&c| {
            depth += (c == '<') as i32 - (c == '>') as i32;
            depth == 0 && c != '>'
        })
        .collect();
    let path = flat.strip_prefix("impl ")?.split([' ', '{']).next()?;
    path.rsplit("::").next().map(str::to_string)
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
    /// `<dir>`: the crate is `adpf_<dir>`, and `adprefetch::<dir>`.
    dir: String,
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
            let dir = dir.file_name().unwrap().to_string_lossy().into_owned();
            Library { dir, files }
        })
        .collect()
}

/// Scans every caller file, then follows reached re-exports to what
/// they re-export.
fn reached(root: &Path, libs: &[Library]) -> Reached {
    let dirs: Vec<String> = libs.iter().map(|l| l.dir.clone()).collect();
    let mut r = Reached::default();
    let callers = ["crates", "src", "tests", "examples", "benchmark/src"];
    for file in callers.iter().flat_map(|d| rs_files(&root.join(d))) {
        if !file.ends_with("crates/bench/tests/public_surface.rs") {
            let owner = libs
                .iter()
                .position(|l| l.files.contains(&file))
                .unwrap_or(usize::MAX);
            r.scan(&tokens(&read(&file)), owner, &dirs);
        }
    }
    loop {
        let mut grew = false;
        for (from, to) in &r.reexports {
            let owners = r.keys.get(from).cloned().unwrap_or_default();
            let set = r.keys.entry(to.clone()).or_default();
            for o in owners {
                grew |= set.insert(o);
            }
        }
        if !grew {
            return r;
        }
    }
}

/// A `pub` item the rule flags.
/// Every `pub` item that fails the rule, allowlist not applied, as its
/// name and a report line naming its place and declaration (e.g.
/// `pub fn Table::new`).
fn unnamed_pub_items(root: &Path) -> Vec<(String, String)> {
    let libs = libraries(root);
    let r = reached(root, &libs);

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
            for (at, &(n, line)) in lines.iter().enumerate() {
                let Some((kw, name)) = pub_item(line) else {
                    continue;
                };
                let assoc = impl_type(lines, at);
                let reached = match &assoc {
                    Some(ty) => {
                        r.by_other(&format!("{ty}::{name}"), li)
                            || (kw.ends_with("fn") && r.by_other(&format!(".{name}"), li))
                    }
                    None => r.by_other(&format!("adpf_{}::{name}", lib.dir), li),
                };
                let in_signature = TYPE_KEYWORDS.contains(&kw)
                    && sigs
                        .iter()
                        .any(|(f, m, names)| (*f, *m) != (*file, n) && names.contains(name));
                if !reached && !in_signature {
                    let rel = file.strip_prefix(root).unwrap_or(file);
                    let item = match &assoc {
                        Some(ty) => format!("{ty}::{name}"),
                        None => name.to_string(),
                    };
                    let line = format!(
                        "{}:{n}: `pub {kw} {item}` is reached nowhere outside adpf-{}",
                        rel.display(),
                        lib.dir
                    );
                    flagged.push((name.to_string(), line));
                }
            }
        }
    }
    flagged
}

#[test]
fn every_pub_item_is_named_outside_its_library() {
    let flagged = unnamed_pub_items(&repo_root());
    let failures: Vec<&str> = flagged
        .iter()
        .filter(|(name, _)| !ALLOWLIST.iter().any(|(n, _)| n == name))
        .map(|(_, line)| line.as_str())
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
        .filter(|n| !flagged.iter().any(|(name, _)| name == n))
        .collect();
    assert!(
        stale.is_empty(),
        "allowlist entries the scan no longer flags: {stale:?}"
    );
}

/// The scanner on hand-written source: shared names are not reaches, and
/// test items declare nothing.
#[test]
fn reaches_go_through_the_crate_or_the_type() {
    let src = r##"
        use adpf_stats::{hist::{self, Bins}, Summary as S}; // adpf_stats::Commented
        let s = ("adpf_stats::Quoted", r#"adpf_stats::Raw"#, '"', b'x');
        fn f<'a>(x: &'a u8) -> Queue { Queue::with_capacity(hist::make(S::cv(), x.median())) }
        let r = 1..len();
        adprefetch::desim::SimTime::ZERO;
    "##;
    let dirs = ["desim".to_string(), "stats".to_string()];
    let mut r = Reached::default();
    r.scan(&tokens(src), usize::MAX, &dirs);
    let mut keys: Vec<&str> = r.keys.keys().map(String::as_str).collect();
    keys.sort();
    assert_eq!(
        keys,
        [
            ".median",
            "Queue::with_capacity",
            "S::cv",
            "SimTime::ZERO",
            "adpf_desim::SimTime",
            "adpf_desim::ZERO",
            "adpf_stats::Bins",
            "adpf_stats::S",
            "adpf_stats::Summary",
            "adpf_stats::cv",
            "adpf_stats::hist",
            "adpf_stats::make",
            "adprefetch::desim",
            "desim::SimTime",
            "hist::make",
        ]
    );

    let lines = item_lines("impl<T: Ord> Queue<T> {\n    pub fn new() {}\n}\npub fn free() {}\n");
    assert_eq!(impl_type(&lines, 1).as_deref(), Some("Queue"));
    assert_eq!(impl_type(&lines, 3), None);

    // Test items are stripped to their end, and the scan goes on past them.
    let src = r##"pub fn before() {}
#[cfg(test)]
#[path = "x_tests.rs"]
mod x_tests;
pub fn between() {}
#[cfg(test)]
mod tests {
    pub fn helper() { let s = "}"; let c = '{'; }
    // } a brace in a comment
    pub struct Inner { x: u8 }
}
pub fn after() {}
pub struct Table {
    #[cfg(test)]
    pub(crate) plant: HashMap<u32, Vec<f64>>,
}
impl Table {
    pub fn len() {}
}
"##;
    let lines = item_lines(src);
    let items: Vec<(usize, &str)> = lines
        .iter()
        .filter_map(|&(n, l)| Some((n, pub_item(l)?.1)))
        .collect();
    assert_eq!(
        items,
        [
            (1, "before"),
            (5, "between"),
            (12, "after"),
            (13, "Table"),
            (18, "len")
        ]
    );
    // A test-only field ends at its comma, not at the `impl` after it.
    assert_eq!(impl_type(&lines, lines.len() - 2).as_deref(), Some("Table"));
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

// ---------------------------------------------------------------------
// Knob census
// ---------------------------------------------------------------------

/// The configuration types the census covers.
const CENSUS_TYPES: &[&str] = &[
    "SystemConfig",
    "NetemConfig",
    "RetryPolicy",
    "LinkProfile",
    "OutageWindow",
    "MarketplaceConfig",
    "PriceFloors",
    "ScenarioConfig",
    "ScenarioSpec",
    "CellCapacity",
    "ChurnSpec",
    "BurstSpec",
    "DeviceClass",
    "PopulationConfig",
    "ServeOptions",
];

/// Why a configuration field exists.
#[derive(Debug, Clone, Copy)]
enum Class {
    /// This non-test file under `crates/` gives the field a value, and
    /// some non-test code gives it a different one.
    Varied(&'static str),
    /// This function sets the field from other values (a shard's share,
    /// a scenario's engine half, a preset's label or switch).
    Derived(&'static str),
    /// One value everywhere, but named by `benchmark/src`, which only a
    /// benchmark change may rebind.
    Benchmark,
    /// A field of an element type: a collection holds one per entry.
    Element,
}

/// One `pub` field of a census type, as declared.
struct Field {
    ty: &'static str,
    name: String,
    /// The declared type's text (`Option<BurstSpec>`).
    decl: String,
}

/// One value given to a field (see [`census_assigns`]).
struct Assign {
    ty: &'static str,
    field: String,
    /// The value as source text ([`render`]).
    value: String,
    /// The file that gives the value: a parameter's caller.
    file: PathBuf,
    /// The `fn` whose body sets the field.
    func: Option<String>,
}

/// The non-test text of a file: its lines outside `#[cfg(test)]` items.
fn non_test(text: &str) -> String {
    item_lines(text)
        .into_iter()
        .map(|(_, l)| l)
        .collect::<Vec<_>>()
        .join("\n")
}

/// The source files under `crates/*/src`, binaries included, each
/// relative to `root` with its non-test text.
fn census_sources(root: &Path) -> Vec<(PathBuf, String)> {
    rs_files(&root.join("crates"))
        .into_iter()
        .map(|f| f.strip_prefix(root).unwrap_or(&f).to_path_buf())
        .filter(|f| {
            let parts: Vec<_> = f.iter().collect();
            parts.get(2).is_some_and(|p| *p == "src") && !f.to_string_lossy().ends_with("_tests.rs")
        })
        .map(|f| {
            let text = non_test(&read(&root.join(&f)));
            (f, text)
        })
        .collect()
}

/// The `pub` fields of every census type, in declaration order.
fn census_fields(sources: &[(PathBuf, String)]) -> Vec<Field> {
    let mut out = Vec::new();
    for (_, text) in sources {
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            let Some(("struct", name)) = pub_item(line) else {
                continue;
            };
            let Some(&ty) = CENSUS_TYPES.iter().find(|&&t| t == name) else {
                continue;
            };
            for l in &lines[i + 1..] {
                let t = code(l).trim();
                if t.starts_with('}') {
                    break;
                }
                let Some((name, decl)) = t.strip_prefix("pub ").and_then(|r| r.split_once(':'))
                else {
                    continue;
                };
                out.push(Field {
                    ty,
                    name: name.trim().to_string(),
                    decl: decl.trim().trim_end_matches(',').to_string(),
                });
            }
        }
    }
    out
}

/// The index of the bracket matching the one at `toks[at]`, scanning
/// forward from an opener or back from a closer.
fn matching(toks: &[&str], at: usize) -> Option<usize> {
    let pair = |t: &str| match t {
        "(" => Some((")", true)),
        "[" => Some(("]", true)),
        "{" => Some(("}", true)),
        ")" => Some(("(", false)),
        "]" => Some(("[", false)),
        "}" => Some(("{", false)),
        _ => None,
    };
    let (other, forward) = pair(toks[at])?;
    let mut depth = 0usize;
    let mut i = at;
    loop {
        if toks[i] == toks[at] {
            depth += 1;
        } else if toks[i] == other {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
        if forward {
            i += 1;
            if i == toks.len() {
                return None;
            }
        } else {
            i = i.checked_sub(1)?;
        }
    }
}

/// The tokens of `toks[from..]` up to the first `;` or `,` outside
/// brackets, or the first unmatched closer.
fn expr_end(toks: &[&str], from: usize) -> usize {
    let mut depth = 0i32;
    for (i, &t) in toks.iter().enumerate().skip(from) {
        match t {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" if depth == 0 => return i,
            ")" | "]" | "}" => depth -= 1,
            ";" | "," if depth == 0 => return i,
            _ => {}
        }
    }
    toks.len()
}

/// Tokens as source text: a space between two tokens unless one of them
/// is a path, call or field punctuation (`SimDuration::from_hours(2)`,
/// `0.5`).
fn render(toks: &[&str]) -> String {
    let mut out = String::new();
    for (i, &t) in toks.iter().enumerate() {
        let tight_before = matches!(t, "." | "::" | "(" | ")" | "[" | "]" | "," | ";");
        let tight_after = i > 0 && matches!(toks[i - 1], "." | "::" | "(" | "[" | "!" | "&");
        if i > 0 && !tight_before && !tight_after {
            out.push(' ');
        }
        out.push_str(t);
    }
    out
}

/// One `fn` of a census file: where its body lies and what it takes.
struct Func<'a> {
    name: &'a str,
    /// The census type of its `impl`, if any.
    owner: Option<&'static str>,
    /// Its parameters' names, `self` left out.
    params: Vec<&'a str>,
    /// The token indices of its `fn` and of its body's closing brace.
    span: (usize, usize),
}

/// A value given to a field before parameters are resolved.
struct RawAssign<'a> {
    ty: &'static str,
    field: &'a str,
    value: Vec<&'a str>,
    /// The enclosing `fn`, an index into the file's [`Func`]s.
    func: Option<usize>,
}

/// The `{` opening the body of the item at `toks[from]`: the first one
/// outside parentheses and brackets, or `None` when a `;` ends it first.
fn block_open(toks: &[&str], from: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (i, &t) in toks.iter().enumerate().skip(from) {
        match t {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth == 0 => return Some(i),
            ";" if depth == 0 => return None,
            _ => {}
        }
    }
    None
}

/// The parameter names of the parameter list `toks` (inside its parens).
fn param_names<'a>(toks: &[&'a str]) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut at = 0;
    while at < toks.len() {
        let end = expr_end(toks, at).min(toks.len());
        let param = &toks[at..end];
        if let Some(c) = param.iter().position(|&t| t == ":") {
            if let Some(&name) = param[..c].iter().rev().find(|t| is_ident(t)) {
                out.push(name);
            }
        }
        at = end + 1;
    }
    out
}

/// The census type a receiver `name` holds at `toks[at]`, inside `func`:
/// a census field's type, or the type its `let` or parameter names.
/// `Err` when `name` is a binding of some other type.
fn receiver_type(
    toks: &[&str],
    at: usize,
    name: &str,
    field: &str,
    func: Option<&Func>,
    fields: &[Field],
) -> Result<Option<&'static str>, ()> {
    let has = |t: &&str| fields.iter().any(|g| g.ty == *t && g.name == field);
    let census_in = |span: &[&str]| {
        span.iter()
            .map(|&t| {
                if t == "Self" {
                    func.and_then(|f| f.owner).unwrap_or(t)
                } else {
                    t
                }
            })
            .find_map(|t| CENSUS_TYPES.iter().copied().find(|c| *c == t))
    };
    if name == "self" {
        return match func.and_then(|f| f.owner) {
            Some(t) if has(&t) => Ok(Some(t)),
            _ => Err(()),
        };
    }
    for f in fields.iter().filter(|f| f.name == name) {
        if let Some(t) = census_in(&tokens(&f.decl)).filter(has) {
            return Ok(Some(t));
        }
    }
    let Some(func) = func else { return Ok(None) };
    for j in (func.span.0 + 1..at).rev() {
        let bound = toks[j] == name
            && (toks[j - 1] == "let"
                || toks[j - 1] == "mut" && toks[j - 2] == "let"
                || toks.get(j + 1) == Some(&":"));
        if bound {
            let end = (j + 8).min(at);
            let span = &toks[j + 1..end];
            let span = &span[..span.iter().position(|&t| t == ";").unwrap_or(span.len())];
            if let Some(t) = census_in(span) {
                return if has(&t) { Ok(Some(t)) } else { Err(()) };
            }
            // `let c = config.clone()`: the type of the binding it copies.
            return match span {
                ["=", from, ".", ..] if is_ident(from) && *from != name => {
                    receiver_type(toks, j, from, field, Some(func), fields)
                }
                _ => Err(()),
            };
        }
    }
    Ok(None)
}

/// Every value the non-test code under `crates/*/src` gives a census
/// field:
/// - each entry of a `Type { .. }` or `Self { .. }` literal (a shorthand
///   `f` gives the value `f`);
/// - each `recv.f = v`, `recv.f[i] = v` and `recv.f.push(v)`, its
///   receiver typed through a census field (`c.marketplace.gain`), its
///   `let` or parameter, or `self`'s `impl`; an untyped receiver (a
///   closure's argument) gives the value to every census type with a
///   field of that name.
///
/// A value that is a parameter of its `fn` stands for the arguments every
/// `Type::f(..)` or `Self::f(..)` call passes it, so a constructor that
/// is only ever called with one value gives one value.
fn census_assigns<'a>(sources: &'a [(PathBuf, String)], fields: &[Field]) -> Vec<Assign> {
    let census_type = |name: &str| CENSUS_TYPES.iter().copied().find(|&t| t == name);
    let mut raws: Vec<(usize, Vec<Func>, Vec<RawAssign>)> = Vec::new();
    // `(type, fn) -> (calling file, argument texts)` for every call.
    type Calls<'a> = HashMap<(&'a str, &'a str), Vec<(usize, Vec<String>)>>;
    let mut calls: Calls = HashMap::new();
    for (fi, (_, text)) in sources.iter().enumerate() {
        let toks = tokens_of(text, true);
        let mut funcs: Vec<Func> = Vec::new();
        let mut assigns: Vec<RawAssign> = Vec::new();
        // `(closing brace, type)` of the enclosing `impl` blocks, and
        // the enclosing `fn`s as indices into `funcs`.
        let mut impls: Vec<(usize, Option<&'static str>)> = Vec::new();
        let mut open_fns: Vec<usize> = Vec::new();
        for i in 0..toks.len() {
            impls.retain(|&(end, _)| end > i);
            open_fns.retain(|&f| funcs[f].span.1 > i);
            let func = open_fns.last().copied();
            let self_ty = impls.last().and_then(|&(_, t)| t);
            let mut give = |ty, field: &'a str, value: &[&'a str]| {
                let value = value.to_vec();
                assigns.push(RawAssign {
                    ty,
                    field,
                    value,
                    func,
                });
            };
            let tok = toks[i];
            if tok == "impl" || tok == "fn" {
                // The block opens at the first `{` outside brackets, unless
                // a `;` ends the item first.
                let Some(open) = block_open(&toks, i) else {
                    continue;
                };
                let close = matching(&toks, open).unwrap_or(toks.len());
                if tok == "fn" {
                    let Some(lp) = (i..open).find(|&j| toks[j] == "(") else {
                        continue;
                    };
                    let rp = matching(&toks, lp).unwrap_or(open);
                    funcs.push(Func {
                        name: toks[i + 1],
                        owner: self_ty,
                        params: param_names(&toks[lp + 1..rp]),
                        span: (i, close),
                    });
                    open_fns.push(funcs.len() - 1);
                } else {
                    // `impl<T> Trait for Type<U> {`: the last name outside
                    // angle brackets.
                    let mut angle = 0i32;
                    let mut name = None;
                    for &t in &toks[i + 1..open] {
                        match t {
                            "<" => angle += 1,
                            ">" => angle -= 1,
                            _ if angle == 0 && is_ident(t) => name = Some(t),
                            _ => {}
                        }
                    }
                    impls.push((close, name.and_then(census_type)));
                }
            } else if tok == "::" && i > 0 && toks.get(i + 2) == Some(&"(") {
                let ty = match toks[i - 1] {
                    "Self" => self_ty,
                    name => census_type(name),
                };
                if let Some(ty) = ty {
                    let close = matching(&toks, i + 2).unwrap_or(toks.len());
                    let mut args = Vec::new();
                    let mut at = i + 3;
                    while at < close {
                        let end = expr_end(&toks, at).min(close);
                        args.push(render(&toks[at..end]));
                        at = end + 1;
                    }
                    calls.entry((ty, toks[i + 1])).or_default().push((fi, args));
                }
            } else if tok == "{" && i > 0 {
                // A struct literal: a census type's path, or `Self` in its
                // `impl`, not declared, implemented or returned here.
                let ty = match toks[i - 1] {
                    "Self" => self_ty,
                    name => census_type(name),
                };
                let Some(ty) = ty else { continue };
                let mut start = i - 1;
                while start >= 2 && toks[start - 1] == "::" {
                    start -= 2;
                }
                let before = start.checked_sub(1).map(|j| toks[j]);
                if matches!(
                    before,
                    Some("struct" | "enum" | "impl" | "for" | ">" | "trait")
                ) {
                    continue;
                }
                let close = matching(&toks, i).unwrap_or(toks.len());
                let mut at = i + 1;
                while at < close {
                    let end = expr_end(&toks, at).min(close);
                    match &toks[at..end] {
                        [f, ":", value @ ..] if is_ident(f) => give(ty, f, value),
                        whole @ [f] if is_ident(f) => give(ty, f, whole),
                        _ => {}
                    }
                    at = end + 1;
                }
            } else if tok == "." && i > 0 && toks.get(i + 1).is_some_and(|t| is_ident(t)) {
                // `.f = v`, `.f[i] = v` or `.f.push(v)`.
                let field = toks[i + 1];
                let value_at = match toks.get(i + 2) {
                    Some(&"=") if toks.get(i + 3) != Some(&"=") => i + 3,
                    Some(&"[") => match matching(&toks, i + 2) {
                        Some(e)
                            if toks.get(e + 1) == Some(&"=") && toks.get(e + 2) != Some(&"=") =>
                        {
                            i + 2
                        }
                        _ => continue,
                    },
                    Some(&".") if toks.get(i + 3) == Some(&"push") => i + 4,
                    _ => continue,
                };
                // Walk the receiver back over indexing and method calls.
                let mut r = i - 1;
                let name = loop {
                    match toks[r] {
                        ")" | "]" => {
                            let Some(open) = matching(&toks, r) else {
                                break None;
                            };
                            r = open.saturating_sub(1);
                            if toks[open] == "(" && r >= 1 && toks[r - 1] == "." {
                                r -= 2;
                            }
                        }
                        t if is_ident(t) => break Some(t),
                        _ => break None,
                    }
                };
                let Some(name) = name else { continue };
                let value = if toks[value_at] == "(" {
                    let close = matching(&toks, value_at).unwrap_or(toks.len() - 1);
                    &toks[value_at..=close]
                } else {
                    &toks[value_at..expr_end(&toks, value_at)]
                };
                let f = func.map(|f| &funcs[f]);
                match receiver_type(&toks, r, name, field, f, fields) {
                    Ok(Some(ty)) => give(ty, field, value),
                    Ok(None) => {
                        for g in fields.iter().filter(|g| g.name == field) {
                            give(g.ty, field, value);
                        }
                    }
                    Err(()) => {}
                }
            }
        }
        raws.push((fi, funcs, assigns));
    }

    let mut out = Vec::new();
    for (fi, funcs, assigns) in &raws {
        for a in assigns {
            let func = a.func.map(|f| &funcs[f]);
            // A bare parameter stands for what its callers pass, where
            // they pass it.
            let passed = func.and_then(|f| {
                let [v] = a.value[..] else { return None };
                let k = f.params.iter().position(|&p| p == v)?;
                let calls = calls.get(&(f.owner?, f.name))?;
                Some(
                    calls
                        .iter()
                        .filter_map(|(at, args)| Some((*at, args.get(k)?.clone())))
                        .collect(),
                )
            });
            for (at, value) in passed.unwrap_or_else(|| vec![(*fi, render(&a.value))]) {
                out.push(Assign {
                    ty: a.ty,
                    field: a.field.to_string(),
                    value,
                    file: sources[at].0.clone(),
                    func: func.map(|f| f.name.to_string()),
                });
            }
        }
    }
    out
}

/// Every `pub` field of [`CENSUS_TYPES`] and why it exists. A field with
/// one value in all the code that builds configurations is a constant of
/// its type, not a field.
const CENSUS: &[(&str, &str, Class)] = {
    use Class::*;
    const SWEEPS: &str = "crates/bench/src/experiments/sweeps.rs";
    const CLI: &str = "crates/bench/src/cli.rs";
    const ROWS: &str = "crates/bench/src/baseline.rs";
    const NETEM: &str = "crates/netem/src/config.rs";
    const SPEC: &str = "crates/core/src/scenario/spec.rs";
    const GEN: &str = "crates/traces/src/gen.rs";
    &[
        ("SystemConfig", "mode", Varied("crates/core/src/config.rs")),
        ("SystemConfig", "predictor", Varied(SWEEPS)),
        ("SystemConfig", "planner", Varied(SWEEPS)),
        ("SystemConfig", "prefetch_interval", Varied(SWEEPS)),
        ("SystemConfig", "sla_target", Varied(SWEEPS)),
        ("SystemConfig", "deadline", Varied(SWEEPS)),
        ("SystemConfig", "max_replicas", Benchmark),
        ("SystemConfig", "replica_window", Varied(SWEEPS)),
        ("SystemConfig", "candidate_pool", Benchmark),
        ("SystemConfig", "availability_dispersion", Varied(SWEEPS)),
        ("SystemConfig", "ad_refresh", Benchmark),
        ("SystemConfig", "radio", Varied(CLI)),
        ("SystemConfig", "ad_bytes_down", Benchmark),
        ("SystemConfig", "ad_bytes_up", Benchmark),
        ("SystemConfig", "defer_report_syncs", Varied(SWEEPS)),
        ("SystemConfig", "piggyback_on_fallback", Varied(ROWS)),
        ("SystemConfig", "sell_margin", Varied(SWEEPS)),
        ("SystemConfig", "campaigns", Benchmark),
        ("SystemConfig", "contextual_fraction", Benchmark),
        ("SystemConfig", "contextual_premium", Benchmark),
        ("SystemConfig", "advance_discount", Benchmark),
        ("SystemConfig", "sync_dropout", Varied(ROWS)),
        ("SystemConfig", "netem", Varied(CLI)),
        ("SystemConfig", "marketplace", Varied(ROWS)),
        ("SystemConfig", "scenario", Derived("apply_to")),
        ("SystemConfig", "seed", Varied(ROWS)),
        ("SystemConfig", "rng_stream", Derived("shard_configs")),
        ("SystemConfig", "budget_fraction", Derived("shard_configs")),
        ("NetemConfig", "enabled", Derived("flaky_cellular")),
        ("NetemConfig", "name", Derived("with_outage")),
        ("NetemConfig", "profiles", Varied(NETEM)),
        ("NetemConfig", "outages", Varied(NETEM)),
        ("NetemConfig", "retry", Varied(SWEEPS)),
        ("RetryPolicy", "max_retries", Varied(CLI)),
        ("RetryPolicy", "base", Varied(NETEM)),
        ("RetryPolicy", "cap", Varied(NETEM)),
        ("LinkProfile", "dwell_mean", Element),
        ("LinkProfile", "latency", Element),
        ("LinkProfile", "failure_prob", Element),
        ("LinkProfile", "weight", Element),
        ("OutageWindow", "start", Element),
        ("OutageWindow", "end", Element),
        ("OutageWindow", "affected_fraction", Element),
        ("MarketplaceConfig", "enabled", Derived("static_exchange")),
        ("MarketplaceConfig", "name", Derived("paced")),
        ("MarketplaceConfig", "paced", Derived("paced")),
        ("MarketplaceConfig", "pricing", Varied(CLI)),
        ("MarketplaceConfig", "floors", Varied(CLI)),
        ("PriceFloors", "realtime", Varied(CLI)),
        ("PriceFloors", "advance", Varied(CLI)),
        ("ScenarioConfig", "enabled", Derived("apply_to")),
        ("ScenarioConfig", "name", Derived("apply_to")),
        ("ScenarioConfig", "assign_seed", Derived("apply_to")),
        ("ScenarioConfig", "classes", Derived("apply_to")),
        ("ScenarioConfig", "cell", Derived("apply_to")),
        ("ScenarioConfig", "user_offset", Derived("shard_configs")),
        ("ScenarioSpec", "name", Derived("churn")),
        ("ScenarioSpec", "classes", Varied(SWEEPS)),
        ("ScenarioSpec", "churn", Varied(SPEC)),
        ("ScenarioSpec", "burst", Varied(SPEC)),
        ("ScenarioSpec", "cell", Varied(ROWS)),
        ("ScenarioSpec", "netem", Varied(SPEC)),
        ("CellCapacity", "enabled", Derived("capped")),
        ("CellCapacity", "fetches_per_window", Varied(SWEEPS)),
        ("CellCapacity", "policy", Varied(ROWS)),
        ("ChurnSpec", "arrival_fraction", Varied(SPEC)),
        ("ChurnSpec", "departure_fraction", Varied(SPEC)),
        ("BurstSpec", "intensity", Varied(SWEEPS)),
        ("DeviceClass", "name", Element),
        ("DeviceClass", "radio", Element),
        ("DeviceClass", "metered", Element),
        ("DeviceClass", "monthly_cap_bytes", Element),
        ("DeviceClass", "weight", Element),
        ("DeviceClass", "session_scale", Element),
        ("PopulationConfig", "num_users", Varied(CLI)),
        ("PopulationConfig", "days", Varied(CLI)),
        ("PopulationConfig", "num_apps", Varied(GEN)),
        ("PopulationConfig", "app_zipf_exponent", Varied(GEN)),
        ("PopulationConfig", "mean_sessions_per_day", Varied(GEN)),
        ("PopulationConfig", "user_rate_cv", Varied(GEN)),
        ("PopulationConfig", "mean_session_secs", Varied(GEN)),
        ("PopulationConfig", "session_cv", Varied(GEN)),
        ("PopulationConfig", "weekend_factor", Varied(GEN)),
        ("PopulationConfig", "user_hour_jitter_cv", Varied(GEN)),
        ("PopulationConfig", "seed", Derived("iphone_like")),
        ("ServeOptions", "config", Varied(CLI)),
        ("ServeOptions", "threads", Varied(CLI)),
        ("ServeOptions", "shards", Varied(CLI)),
        ("ServeOptions", "error_sample", Varied(ROWS)),
    ]
};

/// Whether `toks` name `field` as a field: `.field` or `field:`.
fn names_field(toks: &[&str], field: &str) -> bool {
    toks.windows(2)
        .any(|w| (w[0] == "." && w[1] == field) || (w[0] == field && w[1] == ":"))
}

/// Why each census field fails its class, or is unclassed, or why a
/// class names no field.
fn census_failures(root: &Path) -> Vec<String> {
    let sources = census_sources(root);
    let fields = census_fields(&sources);
    let assigns = census_assigns(&sources, &fields);
    let bench: Vec<String> = rs_files(&root.join("benchmark/src"))
        .iter()
        .map(|f| read(f))
        .collect();
    let bench_toks: Vec<&str> = bench.iter().flat_map(|t| tokens(t)).collect();
    let mut failures = Vec::new();
    for f in &fields {
        let given: Vec<&Assign> = assigns
            .iter()
            .filter(|a| a.ty == f.ty && a.field == f.name)
            .collect();
        let mut values: Vec<&str> = given.iter().map(|a| a.value.as_str()).collect();
        values.sort();
        values.dedup();
        let what = format!("`{}::{}`", f.ty, f.name);
        let Some(&(_, _, class)) = CENSUS.iter().find(|(t, n, _)| *t == f.ty && *n == f.name)
        else {
            failures.push(format!(
                "{what} is unclassed; its values: {}. One value is a constant of its type, \
                 not a field",
                values.join(" | ")
            ));
            continue;
        };
        let fails = match class {
            Class::Varied(file) => {
                let here = given.iter().any(|a| a.file == Path::new(file));
                (values.len() < 2 || !here).then(|| {
                    format!(
                        "{what} is classed varied by {file}, which {} it; its values: {}",
                        if here { "sets" } else { "never sets" },
                        values.join(" | ")
                    )
                })
            }
            Class::Derived(func) => (!given.iter().any(|a| a.func.as_deref() == Some(func)))
                .then(|| format!("{what} is classed derived by `fn {func}`, which never sets it")),
            Class::Benchmark => (!names_field(&bench_toks, &f.name)).then(|| {
                format!("{what} is classed benchmark-bound, but benchmark/src never names it")
            }),
            Class::Element => {
                let holds = |decl: &str| {
                    let t = tokens(decl);
                    t.windows(2)
                        .any(|w| w == ["[", f.ty] || w == ["Vec", "<"] && t.contains(&f.ty))
                };
                (!fields.iter().any(|g| holds(&g.decl)))
                    .then(|| format!("{what} is classed per-element, but no census field holds a collection of {}", f.ty))
            }
        };
        failures.extend(fails);
    }
    for (ty, name, _) in CENSUS {
        if !fields.iter().any(|f| f.ty == *ty && f.name == *name) {
            failures.push(format!("census entry `{ty}::{name}` names no pub field"));
        }
    }
    failures
}

/// The census scanner on hand-written source: literals, shorthands,
/// typed and untyped receivers, and parameters resolved to their callers.
#[test]
fn census_reads_literals_statements_and_callers() {
    let lib = r#"
        impl BurstSpec {
            fn make(intensity: f64) -> Self {
                Self { intensity, start: SimTime::from_days(3) }
            }
        }
        fn tune(c: &mut SystemConfig, n: usize) {
            let mut x = Exchange::new();
            x.seed = 9; // Not a census type: no value.
            c.seed = 5;
            c.marketplace.floors = PriceFloors::uniform(0.5);
        }
    "#;
    let caller = "fn run() { let b = BurstSpec::make(6.0); let s = |q| q.intensity = 0.0; }";
    let sources = [
        (PathBuf::from("lib.rs"), lib.to_string()),
        (PathBuf::from("caller.rs"), caller.to_string()),
    ];
    let field = |ty, name: &str, decl: &str| Field {
        ty,
        name: name.to_string(),
        decl: decl.to_string(),
    };
    let fields = [
        field("BurstSpec", "intensity", "f64"),
        field("BurstSpec", "start", "SimTime"),
        field("SystemConfig", "seed", "u64"),
        field("SystemConfig", "marketplace", "MarketplaceConfig"),
        field("MarketplaceConfig", "floors", "PriceFloors"),
    ];
    let mut got: Vec<String> = census_assigns(&sources, &fields)
        .iter()
        .map(|a| format!("{}::{} = {} @{}", a.ty, a.field, a.value, a.file.display()))
        .collect();
    got.sort();
    assert_eq!(
        got,
        [
            "BurstSpec::intensity = 0.0 @caller.rs",
            "BurstSpec::intensity = 6.0 @caller.rs",
            "BurstSpec::start = SimTime::from_days(3) @lib.rs",
            "MarketplaceConfig::floors = PriceFloors::uniform(0.5) @lib.rs",
            "SystemConfig::seed = 5 @lib.rs",
        ]
    );
}

/// The knob census: every `pub` field of a configuration type is varied
/// (a named file gives it a value other code does not), derived (a named
/// function sets it from other values), benchmark-bound (one value, but
/// `benchmark/src` names it) or per-element data of a collection.
#[test]
fn every_config_field_is_varied_derived_benchmark_bound_or_an_element() {
    let failures = census_failures(&repo_root());
    assert!(
        failures.is_empty(),
        "{} configuration fields fail the census:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
