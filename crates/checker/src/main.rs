//! Repo-wide determinism and unsafe-concurrency invariant lint.
//!
//! A deliberately dependency-free line/token scanner (no `syn`, no
//! crates.io): the rules below are structural enough that stripping
//! comments and string literals from each line gives a reliable token
//! stream, and keeping the checker trivial means it can gate CI without
//! itself needing review infrastructure.
//!
//! # Rules
//!
//! | id | rule |
//! |----|------|
//! | `U1` | `unsafe` only in allowlisted files |
//! | `U2` | every `unsafe` is annotated with a `// SAFETY:` comment |
//! | `D1` | no `Instant::now` / `SystemTime` in scheduling paths (`crates/simcore/src`, `crates/engine/src`, `crates/core/src`) — wall-clock reads break replay determinism |
//! | `D2` | no std `HashMap`/`HashSet` in scheduling paths outside the allowlist — their iteration order is seeded per-process |
//! | `A1` | no direct `std::sync::atomic` outside the facade allowlist — concurrency primitives must go through `simcore::sync` so the interleave checker can see them |
//! | `A2` | non-`SeqCst` memory orderings only in allowlisted (reviewed, model-checked) files |
//! | `H1` | no allocation (`Vec::new`, `vec![]`, `Box::new`, `String::new`, `format!`, `.to_vec()`, `.to_string()`) inside functions marked `// checker:hot-path` |
//!
//! # Usage
//!
//! * `cargo run -p checker` — scan the repository; exit 1 on findings.
//! * `cargo run -p checker -- --scan <path>` — scan a specific tree with
//!   scopes and allowlists disabled (every rule applies everywhere).
//! * `cargo run -p checker -- --self-test` — scan the committed fixture
//!   of seeded violations and require **every** rule to fire: proves the
//!   checker still detects what it claims to.

use std::fs;
use std::path::{Path, PathBuf};

/// One rule violation at a file:line.
#[derive(Debug, Clone, PartialEq)]
struct Finding {
    rule: &'static str,
    file: String,
    line: usize,
    msg: String,
}

/// All rule ids, in report order. `--self-test` requires each to fire.
const ALL_RULES: &[&str] = &["U1", "U2", "D1", "D2", "A1", "A2", "H1"];

/// Files allowed to contain `unsafe` (each use still needs `SAFETY:`).
const UNSAFE_ALLOW: &[&str] = &[
    "crates/simcore/src/spsc.rs",
    "crates/simcore/tests/interleave.rs",
    "crates/simcore/tests/ring_model.rs",
    "crates/shims/interleave/src/",
    "crates/shims/interleave/tests/",
];

/// Files allowed to use `std::sync::atomic` directly instead of the
/// `simcore::sync` facade: the facade's two personalities themselves,
/// and the measurement harness (not engine concurrency).
const ATOMIC_ALLOW: &[&str] = &[
    "crates/shims/interleave/src/",
    "crates/simcore/src/sync.rs",
    "crates/bench/",
];

/// Files allowed to use non-SeqCst orderings: the model runtime, the
/// facade, the model-checked lock-free code and its checker suites, and
/// the measurement harness.
const ORDERING_ALLOW: &[&str] = &[
    "crates/shims/interleave/",
    "crates/simcore/src/sync.rs",
    "crates/simcore/src/spsc.rs",
    "crates/simcore/tests/interleave.rs",
    "crates/bench/",
];

/// Scheduling-path files allowed to hold a std HashMap/HashSet: keyed
/// *state* (never iterated on an ordering-sensitive path), the
/// deterministic-hasher wrappers themselves, and one pinned signature.
const HASH_ALLOW: &[&str] = &[
    "crates/simcore/src/hash.rs",
    "crates/engine/src/state.rs",
    "crates/engine/src/semantics.rs",
    "crates/engine/src/keygroup.rs",
    "crates/engine/src/ids.rs",
    // public `greedy_pick` signature pinned by
    // `benchmarks/drrs_bench/src/kernels.rs`
    "crates/core/src/planner.rs",
];

/// Deterministic-scheduling scope for the D-rules: the simulator kernel,
/// the engine, and the mechanism that runs on every record while a plan is
/// active.
const SCHED_SCOPE: &[&str] = &[
    "crates/simcore/src/",
    "crates/engine/src/",
    "crates/core/src/",
];

/// Allocation tokens banned inside `checker:hot-path` functions.
const HOT_BANNED: &[&str] = &[
    "Vec::new",
    "vec!",
    "Box::new",
    "String::new",
    "format!",
    ".to_vec()",
    ".to_string()",
];

/// The hot-path marker. Built by concatenation so this source file never
/// contains the literal marker and cannot mark its own functions.
const MARKER: &str = concat!("checker:", "hot-path");

fn path_matches(rel: &str, list: &[&str]) -> bool {
    list.iter()
        .any(|a| rel == *a || (a.ends_with('/') && rel.starts_with(a)))
}

/// Whether `code` contains `ident` as a standalone identifier (not as a
/// substring of a longer identifier like `FxHashMap`).
fn has_ident(code: &str, ident: &str) -> bool {
    let bytes = code.as_bytes();
    let mut start = 0;
    while let Some(pos) = code[start..].find(ident) {
        let i = start + pos;
        let before_ok = i == 0 || {
            let c = bytes[i - 1] as char;
            !c.is_ascii_alphanumeric() && c != '_'
        };
        let end = i + ident.len();
        let after_ok = end >= bytes.len() || {
            let c = bytes[end] as char;
            !c.is_ascii_alphanumeric() && c != '_'
        };
        if before_ok && after_ok {
            return true;
        }
        start = i + 1;
    }
    false
}

/// Strip comments and string/char-literal *contents* from source lines,
/// leaving everything else (including the quotes) in place. Tracks block
/// comments across lines. Lifetimes (`'a`) are distinguished from char
/// literals by a lookahead for the closing quote.
fn strip_lines(src: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_block = 0usize;
    for line in src.lines() {
        let chars: Vec<char> = line.chars().collect();
        let mut code = String::with_capacity(line.len());
        let mut i = 0;
        while i < chars.len() {
            if in_block > 0 {
                if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    in_block -= 1;
                    i += 2;
                } else if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    in_block += 1;
                    i += 2;
                } else {
                    i += 1;
                }
                continue;
            }
            match chars[i] {
                '/' if chars.get(i + 1) == Some(&'/') => break,
                '/' if chars.get(i + 1) == Some(&'*') => {
                    in_block += 1;
                    i += 2;
                }
                '"' => {
                    code.push('"');
                    i += 1;
                    while i < chars.len() {
                        if chars[i] == '\\' {
                            i += 2;
                        } else if chars[i] == '"' {
                            code.push('"');
                            i += 1;
                            break;
                        } else {
                            i += 1;
                        }
                    }
                }
                '\'' => {
                    // Char literal iff a closing quote follows within the
                    // escape window; otherwise it is a lifetime.
                    let is_char = match chars.get(i + 1) {
                        Some('\\') => true,
                        Some(_) => chars.get(i + 2) == Some(&'\''),
                        None => false,
                    };
                    if is_char {
                        code.push('\'');
                        i += 1;
                        if chars.get(i) == Some(&'\\') {
                            i += 2;
                        }
                        while i < chars.len() && chars[i] != '\'' {
                            i += 1;
                        }
                        code.push('\'');
                        i += 1;
                    } else {
                        code.push('\'');
                        i += 1;
                    }
                }
                c => {
                    code.push(c);
                    i += 1;
                }
            }
        }
        out.push(code);
    }
    out
}

/// Scan one file. `rel` uses forward slashes relative to the repo root.
/// With `all_scope`, every rule applies to every file and allowlists are
/// ignored (used for `--scan` / `--self-test` on fixtures).
fn scan_file(rel: &str, src: &str, all_scope: bool) -> Vec<Finding> {
    let raw: Vec<&str> = src.lines().collect();
    let code = strip_lines(src);
    let mut findings = Vec::new();
    let mut push = |rule: &'static str, line: usize, msg: String| {
        findings.push(Finding {
            rule,
            file: rel.to_string(),
            line: line + 1,
            msg,
        });
    };

    let in_sched = all_scope || SCHED_SCOPE.iter().any(|p| rel.starts_with(p));
    // Hot-path tracking state: Some(depth) while inside a marked fn body.
    let mut hot_depth: Option<i64> = None;
    let mut hot_pending = false;

    for (i, code_line) in code.iter().enumerate() {
        // U1/U2 — unsafe allowlist + SAFETY annotation.
        if has_ident(code_line, "unsafe") {
            if all_scope || !path_matches(rel, UNSAFE_ALLOW) {
                push(
                    "U1",
                    i,
                    "`unsafe` outside the allowlist; extend UNSAFE_ALLOW only with review"
                        .to_string(),
                );
            }
            let window = raw[i.saturating_sub(5)..=i].join("\n");
            if !window.contains("SAFETY:") {
                push(
                    "U2",
                    i,
                    "`unsafe` without a `// SAFETY:` comment in the 5 lines above".to_string(),
                );
            }
        }

        // D1/D2 — wall-clock and unordered-map determinism hazards.
        if in_sched {
            for tok in ["Instant::now", "SystemTime"] {
                if code_line.contains(tok) {
                    push(
                        "D1",
                        i,
                        format!("`{tok}` in a scheduling path breaks replay determinism"),
                    );
                }
            }
            if all_scope || !path_matches(rel, HASH_ALLOW) {
                for tok in ["HashMap", "HashSet"] {
                    if has_ident(code_line, tok) {
                        push(
                            "D2",
                            i,
                            format!(
                                "std `{tok}` in a scheduling path: iteration order is \
                                 per-process; use simcore::hash::Fx{tok} or allowlist"
                            ),
                        );
                    }
                }
            }
        }

        // A1 — atomics must go through the facade.
        if code_line.contains("std::sync::atomic")
            && (all_scope || !path_matches(rel, ATOMIC_ALLOW))
        {
            push(
                "A1",
                i,
                "direct std::sync::atomic use: go through simcore::sync so the \
                 interleave checker can model it"
                    .to_string(),
            );
        }

        // A2 — weak orderings only where model-checked.
        if all_scope || !path_matches(rel, ORDERING_ALLOW) {
            for ord in ["Relaxed", "Acquire", "Release", "AcqRel"] {
                if code_line.contains("Ordering::") && has_ident(code_line, ord) {
                    push(
                        "A2",
                        i,
                        format!(
                            "Ordering::{ord} outside the model-checked allowlist; \
                             use SeqCst or add the file to ORDERING_ALLOW with a \
                             checker test"
                        ),
                    );
                }
            }
        }

        // H1 — allocation in hot paths.
        if raw[i].contains(MARKER) {
            hot_pending = true;
        }
        if let Some(depth) = hot_depth.as_mut() {
            for tok in HOT_BANNED {
                if code_line.contains(tok) {
                    push(
                        "H1",
                        i,
                        format!("allocation `{tok}` inside a `{MARKER}` function"),
                    );
                }
            }
            *depth += braces(code_line);
            if *depth <= 0 {
                hot_depth = None;
            }
        } else if hot_pending && code_line.contains('{') {
            // First `{` after the marker opens the marked function's
            // body (signatures may span several lines).
            hot_pending = false;
            for tok in HOT_BANNED {
                if code_line.contains(tok) {
                    push(
                        "H1",
                        i,
                        format!("allocation `{tok}` inside a `{MARKER}` function"),
                    );
                }
            }
            let d = braces(code_line);
            if d > 0 {
                hot_depth = Some(d);
            }
        }
    }
    findings
}

/// Net brace depth contribution of a comment/string-stripped line.
fn braces(code: &str) -> i64 {
    code.chars().fold(0, |d, c| match c {
        '{' => d + 1,
        '}' => d - 1,
        _ => d,
    })
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let p = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if p.is_dir() {
            if name == "target" || name == ".git" || name == "fixtures" {
                continue;
            }
            collect_rs(&p, out);
        } else if name.ends_with(".rs") {
            out.push(p);
        }
    }
    out.sort();
}

fn repo_root() -> PathBuf {
    // crates/checker -> crates -> repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("checker sits two levels under the repo root")
        .to_path_buf()
}

fn scan_tree(root: &Path, all_scope: bool) -> Vec<Finding> {
    let mut files = Vec::new();
    if root.is_file() {
        files.push(root.to_path_buf());
    } else {
        collect_rs(root, &mut files);
    }
    let mut findings = Vec::new();
    let rel_base = repo_root();
    for f in &files {
        let rel = f
            .strip_prefix(&rel_base)
            .unwrap_or(f)
            .to_string_lossy()
            .replace('\\', "/");
        let src = match fs::read_to_string(f) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("checker: cannot read {}: {e}", f.display());
                continue;
            }
        };
        findings.extend(scan_file(&rel, &src, all_scope));
    }
    findings
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (target, all_scope, self_test) = match args.first().map(String::as_str) {
        Some("--self-test") => (repo_root().join("crates/checker/fixtures"), true, true),
        Some("--scan") => {
            let p = args.get(1).expect("--scan needs a path");
            (PathBuf::from(p), true, false)
        }
        None => (repo_root(), false, false),
        Some(other) => {
            eprintln!("checker: unknown argument {other}");
            std::process::exit(2);
        }
    };

    let findings = scan_tree(&target, all_scope);
    for f in &findings {
        println!("[{}] {}:{}: {}", f.rule, f.file, f.line, f.msg);
    }

    if self_test {
        let fired: Vec<&str> = ALL_RULES
            .iter()
            .copied()
            .filter(|r| findings.iter().any(|f| f.rule == *r))
            .collect();
        let missing: Vec<&str> = ALL_RULES
            .iter()
            .copied()
            .filter(|r| !fired.contains(r))
            .collect();
        if missing.is_empty() {
            println!(
                "checker self-test OK: all {} rules fired on the fixture",
                ALL_RULES.len()
            );
        } else {
            eprintln!("checker self-test FAILED: rules {missing:?} did not fire on the fixture");
            std::process::exit(1);
        }
        return;
    }

    if findings.is_empty() {
        println!("checker OK: no determinism or unsafe-concurrency violations");
    } else {
        eprintln!("checker: {} violation(s)", findings.len());
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(rel: &str, src: &str, all: bool) -> Vec<&'static str> {
        scan_file(rel, src, all)
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn stripping_removes_comments_and_string_contents() {
        let s = strip_lines("let x = \"unsafe\"; // unsafe\nlet y = 'a';");
        assert_eq!(s[0], "let x = \"\"; ");
        assert_eq!(s[1], "let y = '';");
    }

    #[test]
    fn stripping_tracks_block_comments_and_lifetimes() {
        let s = strip_lines("a /* unsafe\nstill comment */ b\nfn f<'a>(x: &'a str) {}");
        assert_eq!(s[0], "a ");
        assert_eq!(s[1], " b");
        assert_eq!(s[2], "fn f<'a>(x: &'a str) {}");
    }

    #[test]
    fn ident_matching_respects_boundaries() {
        assert!(has_ident("use std::collections::HashMap;", "HashMap"));
        assert!(!has_ident("use simcore::hash::FxHashMap;", "HashMap"));
        assert!(!has_ident("HashMapLike", "HashMap"));
    }

    #[test]
    fn unsafe_needs_allowlist_and_safety() {
        let src = "// SAFETY: fine\nunsafe { x() }\n";
        assert_eq!(
            rules("crates/simcore/src/spsc.rs", src, false),
            Vec::<&str>::new()
        );
        assert_eq!(
            rules("crates/engine/src/world/data_plane.rs", src, false),
            vec!["U1"]
        );
        let bare = "unsafe { x() }\n";
        assert_eq!(rules("crates/simcore/src/spsc.rs", bare, false), vec!["U2"]);
    }

    #[test]
    fn commented_unsafe_does_not_fire() {
        let src = "// this mentions unsafe in prose\nlet s = \"unsafe\";\n";
        assert_eq!(
            rules("crates/engine/src/world/data_plane.rs", src, false),
            Vec::<&str>::new()
        );
    }

    #[test]
    fn wall_clock_fires_only_in_scheduling_scope() {
        let src = "let t = std::time::Instant::now();\n";
        assert_eq!(rules("crates/simcore/src/queue.rs", src, false), vec!["D1"]);
        assert_eq!(
            rules("crates/bench/src/lib.rs", src, false),
            Vec::<&str>::new()
        );
    }

    #[test]
    fn hashmap_fires_outside_allowlist() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(
            rules("crates/engine/src/world/data_plane.rs", src, false),
            vec!["D2"]
        );
        assert_eq!(
            rules("crates/engine/src/state.rs", src, false),
            Vec::<&str>::new()
        );
        let fx = "use simcore::hash::FxHashMap;\n";
        assert_eq!(
            rules("crates/engine/src/world/data_plane.rs", fx, false),
            Vec::<&str>::new()
        );
    }

    #[test]
    fn mechanism_crate_is_in_scheduling_scope() {
        let src = "use std::collections::HashSet;\n";
        assert_eq!(rules("crates/core/src/plugin.rs", src, false), vec!["D2"]);
        // The planner keeps the std map its pinned public signature takes.
        assert_eq!(
            rules("crates/core/src/planner.rs", src, false),
            Vec::<&str>::new()
        );
    }

    #[test]
    fn raw_atomics_and_weak_orderings_fire() {
        let src = "use std::sync::atomic::AtomicU64;\nx.store(1, Ordering::Relaxed);\n";
        assert_eq!(
            rules("crates/engine/src/parallel.rs", src, false),
            vec!["A1", "A2"]
        );
        assert_eq!(
            rules("crates/simcore/src/sync.rs", src, false),
            Vec::<&str>::new()
        );
        let seqcst = "x.store(1, Ordering::SeqCst);\n";
        assert_eq!(
            rules("crates/engine/src/parallel.rs", seqcst, false),
            Vec::<&str>::new()
        );
    }

    #[test]
    fn hot_path_allocation_is_flagged() {
        let src = format!(
            "// {MARKER}\nfn hot(&mut self) -> u64 {{\n    let v = Vec::new();\n    0\n}}\n\
             fn cold() {{ let _ = Vec::new(); }}\n"
        );
        let f = scan_file("crates/simcore/src/queue.rs", &src, false);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "H1");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn hot_path_multiline_signature_is_tracked() {
        let src = format!(
            "// {MARKER}\nfn hot(\n    a: u64,\n) -> u64 {{\n    a.to_string();\n    0\n}}\n"
        );
        let f = scan_file("crates/simcore/src/queue.rs", &src, false);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "H1");
    }

    #[test]
    fn all_scope_ignores_allowlists() {
        let src = "unsafe { x() }\n";
        let r = rules("crates/checker/fixtures/x.rs", src, true);
        assert!(r.contains(&"U1") && r.contains(&"U2"));
    }
}
