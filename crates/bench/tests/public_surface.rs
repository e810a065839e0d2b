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
            n
        } else if rest.starts_with("::") {
            out.push("::");
            2
        } else if word > 0 {
            if !first.is_ascii_digit() {
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
