//! Source-level hot-path lint for the pipeline crate.
//!
//! The simulator's inner loop must stay allocation-free and hash-free:
//! per-cycle work that touches the heap or a `HashMap` is exactly the
//! kind of regression that erased an earlier 3x speedup. This lint is a
//! deliberately simple, dependency-free line scanner:
//!
//! * Hash-based collections (`HashMap`, `HashSet`, `BTreeMap`,
//!   `BTreeSet`, `IndexMap`) are denied **anywhere** in
//!   `crates/pipeline/src` — the crate currently has none and should
//!   stay that way.
//! * Allocation patterns (`Vec::new(`, `vec![`, `format!(`, …) are
//!   denied only **inside the per-cycle hot functions** listed in
//!   [`HOT_FUNCTIONS`]; squash paths, constructors and debug helpers
//!   allocate legitimately.
//!
//! A line containing `hotlint: allow` is exempt (use sparingly, with a
//! justification comment).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Collection types denied anywhere in the pipeline crate.
pub const DENIED_COLLECTIONS: &[&str] = &["HashMap", "HashSet", "BTreeMap", "BTreeSet", "IndexMap"];

/// Allocation tokens denied inside hot functions.
pub const DENIED_ALLOC: &[&str] = &[
    "Vec::new(",
    "vec![",
    "String::new(",
    "String::from(",
    "format!(",
    ".to_string(",
    ".to_vec(",
    "Box::new(",
    ".collect(",
];

/// Per-cycle functions whose bodies must not allocate: the pipeline
/// stages and their per-context helpers, the wakeup-driven issue-queue
/// helpers (select, ready-heap filing, register-write wakeup, slot
/// accounting), the value-prediction hook, and the
/// microarchitecture-framework dispatch surface (`Stage::tick` /
/// `SpawnPolicy::consider` impls plus the staged cycle loop itself).
/// Every entry names a function defined in the pipeline crate (tested).
pub const HOT_FUNCTIONS: &[&str] = &[
    "cycle",
    "cycle_hand_wired",
    "cycle_tail",
    "tick",
    "consider",
    "fetch_stage",
    "fetch_thread",
    "rename_stage",
    "rename_one",
    "issue_stage",
    "in_order_issue_stage",
    "issue_one",
    "select_and_issue",
    "begin_issue_epoch",
    "enqueue_for_issue",
    "write_preg",
    "wake_waiters",
    "holds_slot",
    "release_slot",
    "queue_occupancy",
    "store_forwards",
    "writeback_stage",
    "complete_one",
    "compute_result",
    "commit_stage",
    "commit_one",
    "maybe_value_predict",
    "spawn_child",
    "cmp_step",
    "cmp_fast_forward_to",
];

/// One source-lint finding.
#[derive(Clone, Debug)]
pub struct SourceDiag {
    /// File the finding is in.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// The denied token that matched.
    pub pattern: String,
    /// Explanation, including the enclosing hot function when relevant.
    pub message: String,
}

/// Result of a source scan: live findings plus the findings a
/// `// hotlint: allow` escape silenced. Reporting the suppressed set
/// lets CI artifacts distinguish genuinely clean code from silenced
/// code.
#[derive(Clone, Debug, Default)]
pub struct ScanOutcome {
    /// Findings that count against the lint.
    pub diags: Vec<SourceDiag>,
    /// Findings on `hotlint: allow` lines (reported, not counted).
    pub suppressed: Vec<SourceDiag>,
}

/// Scan one file's text. `file` is used only for reporting.
pub fn scan_source(file: &Path, text: &str) -> ScanOutcome {
    let mut out = ScanOutcome::default();
    // Track which hot function (if any) encloses each line by brace
    // depth. rustfmt wraps long signatures across lines, so the region
    // stays open through the parameter list until the body's `{` lifts
    // the depth (`body_opened`); a trait *declaration* (`);` with no
    // body) instead closes when the enclosing scope's depth drops.
    let mut hot: Option<HotRegion> = None;
    let mut depth: i64 = 0;

    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let allow = raw.contains("hotlint: allow");
        // Strip line comments so commented-out code never fires (the
        // allow marker itself normally lives in the stripped comment).
        let line = match raw.find("//") {
            Some(p) => &raw[..p],
            None => raw,
        };
        let sink = if allow {
            &mut out.suppressed
        } else {
            &mut out.diags
        };

        for &tok in DENIED_COLLECTIONS {
            if line.contains(tok) {
                sink.push(SourceDiag {
                    file: file.to_path_buf(),
                    line: lineno,
                    pattern: tok.to_string(),
                    message: format!(
                        "{tok} is banned in the pipeline crate (hash/tree \
                         lookups in or near the cycle loop)"
                    ),
                });
            }
        }

        // Enter a hot function?
        if hot.is_none() {
            if let Some(name) = hot_fn_on_line(line) {
                hot = Some(HotRegion {
                    name: name.to_string(),
                    entry: depth,
                    body_opened: false,
                });
            }
        }
        if let Some(HotRegion { name, .. }) = &hot {
            let sink = if allow {
                &mut out.suppressed
            } else {
                &mut out.diags
            };
            for &tok in DENIED_ALLOC {
                if line.contains(tok) {
                    sink.push(SourceDiag {
                        file: file.to_path_buf(),
                        line: lineno,
                        pattern: tok.to_string(),
                        message: format!(
                            "allocation `{tok}` inside per-cycle hot \
                             function `{name}`"
                        ),
                    });
                }
            }
        }

        depth += brace_delta(line);
        close_hot(&mut hot, depth);
    }
    out
}

struct HotRegion {
    name: String,
    /// Brace depth on the `fn` line; the body lives strictly above it.
    entry: i64,
    /// Whether the body's `{` has been seen yet.
    body_opened: bool,
}

fn close_hot(hot: &mut Option<HotRegion>, depth: i64) {
    if let Some(r) = hot {
        if depth > r.entry {
            r.body_opened = true;
        } else if r.body_opened || depth < r.entry {
            // Body closed — or the enclosing scope ended before any body
            // opened (a bodiless trait-method declaration).
            *hot = None;
        }
    }
}

fn hot_fn_on_line(line: &str) -> Option<&'static str> {
    // A hot function may be generic (`fn tick<T: Tracer, S: StageSet>(…)`),
    // so accept `name(` and `name<` after `fn `.
    HOT_FUNCTIONS.iter().copied().find(|name| {
        line.find("fn ")
            .map(|p| {
                let rest = line[p + 3..].trim_start();
                rest.strip_prefix(name)
                    .is_some_and(|after| after.starts_with('(') || after.starts_with('<'))
            })
            .unwrap_or(false)
    })
}

fn brace_delta(line: &str) -> i64 {
    // Good enough for rustfmt-formatted code: braces in string literals
    // are rare in this codebase and none occur in the pipeline crate's
    // hot modules.
    line.chars().fold(0i64, |d, c| match c {
        '{' => d + 1,
        '}' => d - 1,
        _ => d,
    })
}

/// Scan every `.rs` file under `<repo_root>/crates/pipeline/src`.
/// Returns the number of files scanned and all findings (live and
/// suppressed).
pub fn scan_pipeline(repo_root: &Path) -> io::Result<(usize, ScanOutcome)> {
    let root = repo_root.join("crates/pipeline/src");
    let mut files = Vec::new();
    collect_rs(&root, &mut files)?;
    files.sort();
    let mut out = ScanOutcome::default();
    for f in &files {
        let text = fs::read_to_string(f)?;
        let one = scan_source(f, &text);
        out.diags.extend(one.diags);
        out.suppressed.extend(one.suppressed);
    }
    Ok((files.len(), out))
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashmap_is_denied_anywhere() {
        let src = "use std::collections::HashMap;\nfn helper() {\n    let m: HashMap<u32, u32> = HashMap::new();\n}\n";
        let d = scan_source(Path::new("x.rs"), src).diags;
        assert!(d.len() >= 2);
        assert!(d.iter().all(|d| d.pattern == "HashMap"));
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn allocation_in_hot_function_is_denied() {
        let src = "\
impl M {
    fn cycle(&mut self) {
        let v = Vec::new();
        if x {
            let s = format!(\"{}\", 1);
        }
    }
    fn cold(&mut self) {
        let v = Vec::new();
    }
}
";
        let d = scan_source(Path::new("m.rs"), src).diags;
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().any(|d| d.pattern == "Vec::new(" && d.line == 3));
        assert!(d.iter().any(|d| d.pattern == "format!(" && d.line == 5));
    }

    #[test]
    fn allow_escape_and_comments_are_skipped_but_counted() {
        let src = "\
fn commit_stage(&mut self) {
    let v = Vec::new(); // hotlint: allow — one-time warmup buffer
    // let dead = vec![commented out];
    let w = 1;
}
";
        let out = scan_source(Path::new("c.rs"), src);
        assert!(out.diags.is_empty(), "{:?}", out.diags);
        // The silenced finding is still reported on the side channel.
        assert_eq!(out.suppressed.len(), 1, "{:?}", out.suppressed);
        assert_eq!(out.suppressed[0].pattern, "Vec::new(");
        assert_eq!(out.suppressed[0].line, 2);
    }

    #[test]
    fn generic_stage_tick_is_tracked() {
        // Framework stage impls are generic; the matcher must see through
        // the type-parameter list, and stay quiet on clean delegation.
        let src = "\
impl Stage for OooIssue {
    fn tick<T: Tracer, S: StageSet>(m: &mut StagedCore<'_, T, S>) {
        let scratch = vec![0u8; 64];
        m.issue_stage();
    }
}
";
        let d = scan_source(Path::new("framework.rs"), src).diags;
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].pattern, "vec![");
        assert!(d[0].message.contains("`tick`"), "{}", d[0].message);

        let clean = "\
impl Stage for OooIssue {
    fn tick<T: Tracer, S: StageSet>(m: &mut StagedCore<'_, T, S>) {
        m.issue_stage();
    }
}
fn in_order_issue_stage(&mut self) {
    let x = 1;
}
fn ticker(&mut self) {
    let v = Vec::new(); // not a hot function: `ticker` != `tick`
}
";
        let out = scan_source(Path::new("f.rs"), clean);
        assert!(out.diags.is_empty() && out.suppressed.is_empty());
    }

    #[test]
    fn static_hint_spawn_consider_is_covered() {
        // The hint-gated spawn policy's per-cycle decision point, in the
        // rustfmt shape it actually has: a wrapped multi-line signature.
        // A seeded allocation inside `consider` must fire, and the real
        // shape — a mask probe plus delegation — must stay quiet.
        let seeded = "\
impl SpawnPolicy for StaticHintSpawn {
    fn consider<T: Tracer, S: StageSet>(
        m: &mut StagedCore<'_, T, S>,
        ctx: CtxId,
        load: UopId,
        fi: &FetchedInst,
    ) {
        let lookup = m.hint_mask.to_vec();
        let set: std::collections::HashSet<u64> = m.hints.iter().collect();
        if m.hinted(fi.pc) {
            m.maybe_value_predict(ctx, load, fi);
        }
    }
}
";
        let d = scan_source(Path::new("framework.rs"), seeded).diags;
        assert_eq!(d.len(), 3, "{d:?}");
        assert!(d.iter().any(|d| d.pattern == ".to_vec(" && d.line == 8));
        assert!(d.iter().any(|d| d.pattern == "HashSet" && d.line == 9));
        assert!(d.iter().any(|d| d.pattern == ".collect(" && d.line == 9));

        let clean = "\
impl SpawnPolicy for StaticHintSpawn {
    fn consider<T: Tracer, S: StageSet>(
        m: &mut StagedCore<'_, T, S>,
        ctx: CtxId,
        load: UopId,
        fi: &FetchedInst,
    ) {
        if m.hinted(fi.pc) {
            m.maybe_value_predict(ctx, load, fi);
        }
    }
}
";
        let out = scan_source(Path::new("framework.rs"), clean);
        assert!(out.diags.is_empty() && out.suppressed.is_empty());
    }

    #[test]
    fn bodiless_trait_declaration_does_not_leak_hot_tracking() {
        // The `SpawnPolicy` trait declares `consider` with `);` and no
        // body; the hot region must end with the trait's scope rather
        // than swallowing whatever function follows.
        let src = "\
pub trait SpawnPolicy {
    fn consider<T: Tracer, S: StageSet>(
        m: &mut StagedCore<'_, T, S>,
        ctx: CtxId,
    );
}
fn build_tables() -> Vec<u64> {
    let v = vec![0u64; 64];
    v
}
";
        let out = scan_source(Path::new("framework.rs"), src);
        assert!(
            out.diags.is_empty() && out.suppressed.is_empty(),
            "{:?}",
            out.diags
        );
    }

    #[test]
    fn every_hot_function_exists_in_the_pipeline() {
        // A renamed or deleted function would silently drop out of the
        // lint; every listed name must still be defined somewhere.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../pipeline/src");
        let mut text = String::new();
        let mut dirs = vec![root];
        while let Some(dir) = dirs.pop() {
            for entry in fs::read_dir(&dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    dirs.push(path);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    text.push_str(&fs::read_to_string(&path).unwrap());
                }
            }
        }
        for name in HOT_FUNCTIONS {
            assert!(
                text.lines().any(|l| hot_fn_on_line(l) == Some(*name)),
                "HOT_FUNCTIONS lists `{name}`, which the pipeline crate no longer defines"
            );
        }
    }

    #[test]
    fn wakeup_helpers_are_hot() {
        let src = "\
fn wake_waiters(&mut self, class: RegClass, preg: PregId) {
    let list = self.sched.waiters[0][0].to_vec();
}
fn enqueue_for_issue(&mut self, id: UopId, generation: u32) {
    let v = Vec::new();
}
";
        let d = scan_source(Path::new("sched.rs"), src).diags;
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d[0].message.contains("`wake_waiters`"), "{}", d[0].message);
        assert!(
            d[1].message.contains("`enqueue_for_issue`"),
            "{}",
            d[1].message
        );
    }

    #[test]
    fn nested_fn_tracking_closes_at_brace() {
        // Allocation after the hot function's closing brace is fine.
        let src = "\
fn issue_stage(&mut self) {
    let x = 1;
}
fn other(&mut self) {
    let v = vec![1, 2];
}
";
        let d = scan_source(Path::new("i.rs"), src).diags;
        assert!(d.is_empty(), "{d:?}");
    }
}
