//! `cargo xtask` — repo-local developer tasks.
//!
//! Two tasks: `lint`, a static pass over the workspace source enforcing
//! repo-specific rules that clippy cannot express, and `fuzz`, the
//! driver loop of the `ftfuzz` seeded crash-recovery fuzzer.
//!
//! ```text
//! cargo xtask lint            # lint the workspace (CI runs this)
//! cargo xtask fuzz --seeds 64 # fuzz 64 seeded campaigns (see fuzz.rs)
//! ```
//!
//! # Rules
//!
//! * **instant-now** — no direct `Instant::now()` calls outside the
//!   files allowlisted in `crates/xtask/lint-allow.txt`. The repo's
//!   observability contract is *zero cost when off*: timing reads are
//!   only allowed behind the c3obs sampling mask or in the transport's
//!   explicitly time-based pacing paths.
//! * **hot-path-unwrap** — `unwrap()` / `expect()` in protocol hot-path
//!   files is budgeted per file (a ratchet): the allowlist records the
//!   current count, the lint fails when a file grows beyond it, and the
//!   budget is lowered as call sites are converted to typed errors.
//! * **trace-pairing** — the trace vocabulary stays analyzable: every
//!   `TraceEvent` variant declared in `crates/core/src/trace.rs` must be
//!   matched somewhere in `crates/c3verify/src/analyzer.rs` (an emitted
//!   event the analyzer ignores is an invariant hole), and any file that
//!   emits one side of a send/recv event pair (`ControlSent` /
//!   `ControlRecv`, `SuppressSent` / `SuppressRecv`) must emit the
//!   other (a component that records sends but not receipts produces
//!   traces the happens-before checker cannot order).
//! * **no-poll** — no `thread::sleep` or `recv_timeout` in the runtime
//!   crates (`simmpi`, `core`, `ckptpipe`, `ckptstore`): a wait there
//!   blocks on an event (a frame, a wake, a deadline). The allowlist
//!   budgets the few sleeps that model time rather than wait for an
//!   event, per file, each with its reason.
//!
//! Test modules are exempt: each file is scanned only up to its first
//! `#[cfg(test)]` marker, and `tests/` / `benches/` directories are not
//! scanned at all. Exit status: 0 clean, 1 findings, 2 usage/IO errors.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod fuzz;

/// Event pairs whose emitters must record both sides (rule
/// trace-pairing).
const EVENT_PAIRS: &[(&str, &str)] = &[
    ("ControlSent", "ControlRecv"),
    ("SuppressSent", "SuppressRecv"),
    ("TierDrained", "TierRecovered"),
];

/// Source trees where sleeping or timed polling is budgeted (rule
/// no-poll).
const NO_POLL_DIRS: &[&str] = &[
    "crates/simmpi/src/",
    "crates/core/src/",
    "crates/ckptpipe/src/",
    "crates/ckptstore/src/",
];

/// Files whose unwrap/expect count is budgeted (rule hot-path-unwrap).
/// Directories (trailing `/`) cover every file beneath them.
const HOT_PATHS: &[&str] = &[
    "crates/core/src/process.rs",
    "crates/core/src/job.rs",
    "crates/simmpi/src/rank.rs",
    "crates/simmpi/src/netsim.rs",
    "crates/ckptpipe/src/",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {}
        Some("fuzz") => return fuzz::fuzz_cmd(&args[1..]),
        Some("--help") | Some("-h") | None => {
            eprintln!("usage: cargo xtask <lint|fuzz> [args]");
            return ExitCode::from(if args.is_empty() { 2 } else { 0 });
        }
        Some(other) => {
            eprintln!("xtask: unknown task {other}");
            return ExitCode::from(2);
        }
    }
    let root = workspace_root();
    let allow_path = root.join("crates/xtask/lint-allow.txt");
    let allow = match std::fs::read_to_string(&allow_path) {
        Ok(text) => match Allow::parse(&text) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("xtask lint: {}: {e}", allow_path.display());
                return ExitCode::from(2);
            }
        },
        Err(e) => {
            eprintln!("xtask lint: {}: {e}", allow_path.display());
            return ExitCode::from(2);
        }
    };
    match lint(&root, &allow) {
        Err(e) => {
            eprintln!("xtask lint: {e}");
            ExitCode::from(2)
        }
        Ok(findings) if findings.is_empty() => {
            println!("xtask lint: OK");
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            println!("xtask lint: {} finding(s)", findings.len());
            ExitCode::FAILURE
        }
    }
}

/// The workspace root: xtask always lives at `<root>/crates/xtask`.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask has a workspace root two levels up")
        .to_path_buf()
}

/// Parsed `lint-allow.txt`.
#[derive(Debug, Default)]
struct Allow {
    /// Files allowed to call `Instant::now()`.
    instant: BTreeSet<String>,
    /// Per-file unwrap/expect budget.
    unwrap_budget: BTreeMap<String, usize>,
    /// Per-file sleep/timed-poll budget.
    poll_budget: BTreeMap<String, usize>,
}

impl Allow {
    fn parse(text: &str) -> Result<Allow, String> {
        let mut allow = Allow::default();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let rule = parts.next().unwrap_or_default();
            let path = parts
                .next()
                .ok_or_else(|| format!("line {}: missing path", lineno + 1))?;
            match rule {
                "instant-now" => {
                    allow.instant.insert(path.to_string());
                }
                "hot-path-unwrap" | "no-poll" => {
                    let budget: usize = parts
                        .next()
                        .ok_or_else(|| {
                            format!("line {}: missing budget", lineno + 1)
                        })?
                        .parse()
                        .map_err(|e| format!("line {}: {e}", lineno + 1))?;
                    let budgets = if rule == "no-poll" {
                        &mut allow.poll_budget
                    } else {
                        &mut allow.unwrap_budget
                    };
                    budgets.insert(path.to_string(), budget);
                }
                other => {
                    return Err(format!(
                        "line {}: unknown rule {other}",
                        lineno + 1
                    ));
                }
            }
        }
        Ok(allow)
    }
}

/// Run every rule over the workspace at `root`. Returns one line per
/// finding (empty = clean).
fn lint(root: &Path, allow: &Allow) -> Result<Vec<String>, String> {
    let mut findings = Vec::new();
    let files = source_files(root)?;
    // The pattern is assembled at runtime so this file never contains
    // the literal it hunts for.
    let instant_needle = format!("Instant::{}()", "now");
    for (rel, content) in &files {
        let scanned = non_test_region(content);
        check_instant_now(rel, scanned, &instant_needle, allow, &mut findings);
        check_hot_path_unwrap(rel, scanned, allow, &mut findings);
        check_no_poll(rel, scanned, allow, &mut findings);
        check_pair_emission(rel, scanned, &mut findings);
    }
    check_analyzer_coverage(root, &mut findings)?;
    Ok(findings)
}

/// All `.rs` files under `crates/*/src`, as (workspace-relative path,
/// content). `tests/`, `benches/`, generated `target/` trees, and xtask
/// itself are out of scope.
fn source_files(root: &Path) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    let entries = std::fs::read_dir(&crates)
        .map_err(|e| format!("{}: {e}", crates.display()))?;
    for entry in entries {
        let dir = entry.map_err(|e| e.to_string())?.path();
        if dir.file_name().is_some_and(|n| n == "xtask") {
            continue;
        }
        let src = dir.join("src");
        if src.is_dir() {
            walk(&src, root, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(
    dir: &Path,
    root: &Path,
    out: &mut Vec<(String, String)>,
) -> Result<(), String> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_dir() {
            walk(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| e.to_string())?
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            let content = std::fs::read_to_string(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            out.push((rel, content));
        }
    }
    Ok(())
}

/// The part of a file before its first `#[cfg(test)]` marker.
fn non_test_region(content: &str) -> &str {
    match content.find("#[cfg(test)]") {
        Some(pos) => &content[..pos],
        None => content,
    }
}

fn check_instant_now(
    rel: &str,
    scanned: &str,
    needle: &str,
    allow: &Allow,
    findings: &mut Vec<String>,
) {
    if allow.instant.contains(rel) {
        return;
    }
    for (lineno, line) in scanned.lines().enumerate() {
        if line.contains(needle) && !line.trim_start().starts_with("//") {
            findings.push(format!(
                "{rel}:{}: [instant-now] direct {needle} outside a sampled \
                 obs path (allowlist: crates/xtask/lint-allow.txt)",
                lineno + 1
            ));
        }
    }
}

fn check_hot_path_unwrap(
    rel: &str,
    scanned: &str,
    allow: &Allow,
    findings: &mut Vec<String>,
) {
    let hot = HOT_PATHS.iter().any(|h| {
        if let Some(dir) = h.strip_suffix('/') {
            rel.starts_with(dir)
        } else {
            rel == *h
        }
    });
    if !hot {
        return;
    }
    let count = scanned
        .lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .map(|l| {
            l.matches(".unwrap()").count() + l.matches(".expect(").count()
        })
        .sum::<usize>();
    let budget = allow.unwrap_budget.get(rel).copied().unwrap_or(0);
    if count > budget {
        findings.push(format!(
            "{rel}: [hot-path-unwrap] {count} unwrap/expect site(s) in a \
             protocol hot path, budget {budget} (convert to typed errors \
             or raise the ratchet in crates/xtask/lint-allow.txt)"
        ));
    }
}

fn check_no_poll(
    rel: &str,
    scanned: &str,
    allow: &Allow,
    findings: &mut Vec<String>,
) {
    if !NO_POLL_DIRS.iter().any(|d| rel.starts_with(d)) {
        return;
    }
    let count = scanned
        .lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .filter(|l| l.contains("thread::sleep") || l.contains("recv_timeout"))
        .count();
    let budget = allow.poll_budget.get(rel).copied().unwrap_or(0);
    if count > budget {
        findings.push(format!(
            "{rel}: [no-poll] {count} sleep/recv_timeout site(s), budget \
             {budget} (block on an event instead, or justify the sleep in \
             crates/xtask/lint-allow.txt)"
        ));
    }
}

/// Events this file emits (via `record(TraceEvent::X` or
/// `trace_event(TraceEvent::X`), whitespace-insensitively.
fn emitted_events(scanned: &str) -> BTreeSet<String> {
    let flat: String =
        scanned.chars().filter(|c| !c.is_whitespace()).collect();
    let mut out = BTreeSet::new();
    for marker in ["record(TraceEvent::", "trace_event(TraceEvent::"] {
        let mut rest = flat.as_str();
        while let Some(pos) = rest.find(marker) {
            rest = &rest[pos + marker.len()..];
            let name: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric())
                .collect();
            if !name.is_empty() {
                out.insert(name);
            }
        }
    }
    out
}

fn check_pair_emission(rel: &str, scanned: &str, findings: &mut Vec<String>) {
    let emitted = emitted_events(scanned);
    if emitted.is_empty() {
        return;
    }
    for &(a, b) in EVENT_PAIRS {
        let (has_a, has_b) = (emitted.contains(a), emitted.contains(b));
        if has_a != has_b {
            let (present, missing) = if has_a { (a, b) } else { (b, a) };
            findings.push(format!(
                "{rel}: [trace-pairing] emits TraceEvent::{present} but \
                 never TraceEvent::{missing} — one-sided emission leaves \
                 the happens-before graph unordered"
            ));
        }
    }
}

/// Every `TraceEvent` variant must be matched by the analyzer. Skipped
/// when the workspace layout is absent (fixture roots in tests).
fn check_analyzer_coverage(
    root: &Path,
    findings: &mut Vec<String>,
) -> Result<(), String> {
    let trace = root.join("crates/core/src/trace.rs");
    let analyzer = root.join("crates/c3verify/src/analyzer.rs");
    if !trace.is_file() || !analyzer.is_file() {
        return Ok(());
    }
    let trace_src = std::fs::read_to_string(&trace)
        .map_err(|e| format!("{}: {e}", trace.display()))?;
    let analyzer_src = std::fs::read_to_string(&analyzer)
        .map_err(|e| format!("{}: {e}", analyzer.display()))?;
    for variant in trace_event_variants(&trace_src) {
        if !analyzer_src.contains(&format!("TraceEvent::{variant}")) {
            findings.push(format!(
                "crates/core/src/trace.rs: [trace-pairing] TraceEvent::\
                 {variant} is never matched in crates/c3verify/src/\
                 analyzer.rs — an emitted event the analyzer ignores is \
                 an invariant hole"
            ));
        }
    }
    Ok(())
}

/// Variant names of `enum TraceEvent` (4-space-indented idents inside
/// the enum block — fields are indented deeper).
fn trace_event_variants(trace_src: &str) -> Vec<String> {
    let mut variants = Vec::new();
    let mut in_enum = false;
    for line in trace_src.lines() {
        if line.starts_with("pub enum TraceEvent") {
            in_enum = true;
            continue;
        }
        if !in_enum {
            continue;
        }
        if line == "}" {
            break;
        }
        let Some(body) = line.strip_prefix("    ") else {
            continue;
        };
        if body.starts_with(' ') || body.starts_with('/') {
            continue;
        }
        let name: String = body
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric())
            .collect();
        if !name.is_empty()
            && name.chars().next().is_some_and(|c| c.is_ascii_uppercase())
        {
            variants.push(name);
        }
    }
    variants
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a throwaway workspace at `<tmp>/<name>` with the given
    /// `crates/<crate>/src/<file>` contents.
    struct Fixture {
        root: PathBuf,
    }

    impl Fixture {
        fn new(name: &str, files: &[(&str, &str)]) -> Fixture {
            let root = std::env::temp_dir()
                .join(format!("xtask-lint-{}-{name}", std::process::id()));
            std::fs::remove_dir_all(&root).ok();
            for (rel, content) in files {
                let path = root.join(rel);
                std::fs::create_dir_all(path.parent().unwrap()).unwrap();
                std::fs::write(&path, content).unwrap();
            }
            std::fs::create_dir_all(root.join("crates")).unwrap();
            Fixture { root }
        }
    }

    impl Drop for Fixture {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.root).ok();
        }
    }

    fn needle_line() -> String {
        format!("    let t = std::time::Instant::{}();\n", "now")
    }

    #[test]
    fn clean_fixture_passes() {
        let fx = Fixture::new(
            "clean",
            &[("crates/demo/src/lib.rs", "pub fn f() -> u32 { 41 + 1 }\n")],
        );
        let findings = lint(&fx.root, &Allow::default()).unwrap();
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn unallowlisted_instant_now_is_flagged() {
        let src = format!("pub fn f() {{\n{}}}\n", needle_line());
        let fx = Fixture::new(
            "instant",
            &[("crates/demo/src/lib.rs", src.as_str())],
        );
        let findings = lint(&fx.root, &Allow::default()).unwrap();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].contains("[instant-now]"), "{findings:?}");

        let mut allow = Allow::default();
        allow.instant.insert("crates/demo/src/lib.rs".into());
        assert!(lint(&fx.root, &allow).unwrap().is_empty());
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = format!(
            "pub fn f() {{}}\n#[cfg(test)]\nmod tests {{\n fn g() \
             {{\n{}}}\n}}\n",
            needle_line()
        );
        let fx = Fixture::new(
            "testexempt",
            &[("crates/demo/src/lib.rs", src.as_str())],
        );
        assert!(lint(&fx.root, &Allow::default()).unwrap().is_empty());
    }

    #[test]
    fn hot_path_unwrap_ratchet() {
        let src = "pub fn f(x: Option<u32>) -> u32 {\n    \
                   x.unwrap()\n}\npub fn g(x: Option<u32>) -> u32 {\n    \
                   x.expect(\"set\")\n}\n";
        let fx =
            Fixture::new("unwrap", &[("crates/core/src/process.rs", src)]);
        let findings = lint(&fx.root, &Allow::default()).unwrap();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].contains("[hot-path-unwrap]"), "{findings:?}");
        assert!(findings[0].contains("2 unwrap"), "{findings:?}");

        let mut allow = Allow::default();
        allow
            .unwrap_budget
            .insert("crates/core/src/process.rs".into(), 2);
        assert!(lint(&fx.root, &allow).unwrap().is_empty());
    }

    #[test]
    fn no_poll_flags_sleeps_and_timed_receives() {
        let src = "pub fn f(rx: &Receiver<u8>) {\n    \
                   std::thread::sleep(D);\n    \
                   let _ = rx.recv_timeout(D);\n    \
                   // thread::sleep in a comment is fine\n}\n";
        let fx =
            Fixture::new("nopoll", &[("crates/simmpi/src/world.rs", src)]);
        let findings = lint(&fx.root, &Allow::default()).unwrap();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].contains("[no-poll] 2 sleep"), "{findings:?}");

        let mut allow = Allow::default();
        allow
            .poll_budget
            .insert("crates/simmpi/src/world.rs".into(), 2);
        assert!(lint(&fx.root, &allow).unwrap().is_empty());

        // Outside the runtime crates the rule does not apply.
        let fx =
            Fixture::new("nopoll-out", &[("crates/apps/src/lib.rs", src)]);
        assert!(lint(&fx.root, &Allow::default()).unwrap().is_empty());
    }

    #[test]
    fn one_sided_pair_emission_is_flagged() {
        let src = "fn f(t: &mut Tracer) {\n    t.record(TraceEvent::\
                   ControlSent { dst: 0, kind: 0, arg: 0 });\n}\n";
        let fx = Fixture::new("pair", &[("crates/demo/src/lib.rs", src)]);
        let findings = lint(&fx.root, &Allow::default()).unwrap();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].contains("[trace-pairing]"), "{findings:?}");
        assert!(findings[0].contains("ControlRecv"), "{findings:?}");
    }

    #[test]
    fn unanalyzed_trace_variant_is_flagged() {
        let trace =
            "pub enum TraceEvent {\n    /// Doc.\n    Commit {\n        \
                     ckpt: u64,\n    },\n    Mystery,\n}\n";
        let analyzer = "fn scan(e: &TraceEvent) {\n    if let TraceEvent::\
                        Commit { .. } = e {}\n}\n";
        let fx = Fixture::new(
            "coverage",
            &[
                ("crates/core/src/trace.rs", trace),
                ("crates/c3verify/src/analyzer.rs", analyzer),
            ],
        );
        let findings = lint(&fx.root, &Allow::default()).unwrap();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].contains("Mystery"), "{findings:?}");
    }

    #[test]
    fn allowlist_parser_rejects_unknown_rules() {
        assert!(Allow::parse("bogus-rule path").is_err());
        assert!(Allow::parse("hot-path-unwrap path notanumber").is_err());
        assert!(Allow::parse("no-poll path").is_err());
        let allow = Allow::parse(
            "# comment\ninstant-now a/b.rs\nhot-path-unwrap c/d.rs 3\n\
             no-poll e/f.rs 1\n",
        )
        .unwrap();
        assert!(allow.instant.contains("a/b.rs"));
        assert_eq!(allow.unwrap_budget.get("c/d.rs"), Some(&3));
        assert_eq!(allow.poll_budget.get("e/f.rs"), Some(&1));
    }

    /// The real workspace must lint clean — this is the same invocation
    /// CI runs.
    #[test]
    fn workspace_lints_clean() {
        let root = workspace_root();
        let allow_text =
            std::fs::read_to_string(root.join("crates/xtask/lint-allow.txt"))
                .unwrap();
        let allow = Allow::parse(&allow_text).unwrap();
        let findings = lint(&root, &allow).unwrap();
        assert!(findings.is_empty(), "{findings:#?}");
    }
}
