//! Workspace static analysis for the dwcp capacity planner.
//!
//! `cargo xtask analyze` is the workspace **determinism auditor** (see
//! `DESIGN.md` §"Correctness tooling"):
//!
//! 1. panic-freedom lint over the *inferred* hot set — an approximate
//!    call graph ([`graph`]) propagates reachability from the engine's
//!    entry points, so new code is audited the moment the engine calls
//!    it (`--explain <file>` prints the reachability chain),
//! 2. float-ordering lint (NaN-deterministic champion selection),
//! 3. nondeterminism lint over the hot set (hash-container iteration,
//!    `read_dir` order, float-seeded folds),
//! 4. atomic-ordering discipline: an inventory of every atomic site,
//!    `Ordering::Relaxed` denied outside [`BLESSED_RELAXED_ATOMICS`], and
//!    every file holding atomics mapped to an extracted, model-checked
//!    protocol ([`ATOMIC_PROTOCOLS`]),
//! 5. unsafety audit (`#![forbid(unsafe_code)]` + `// SAFETY:` comments),
//!    invariant-layer wiring and escape-hatch staleness,
//! 6. the bounded-interleaving model checker for the extracted protocols
//!    (a cargo test suite the binary shells out to).
//!
//! Everything except pass 6 is a pure function of the source tree, exposed
//! here as a library so the self-tests can seed violations in fixture
//! trees and assert they are caught. [`analyze_report`] returns findings
//! plus the machinery CI consumes: a JSON report ([`report_to_json`]) and
//! a baseline diff ([`diff_baseline`]) so CI fails only on *new*
//! violations.
#![forbid(unsafe_code)]

pub mod graph;
pub mod rules;
pub mod scan;

pub use rules::{AtomicSite, Finding};

use rules::FileCtx;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The legacy hand-maintained hot-path list, kept as a *floor* under the
/// inferred hot set: inference must cover every fn-defining file matching
/// these prefixes (checked by the `hot-set-inference` rule), and the
/// effective hot set is the union of both. New subsystems no longer need
/// to be added here — reachability from [`graph::HOT_ENTRY_POINTS`] pulls
/// them in automatically.
pub const HOT_PATH_PREFIXES: &[&str] = &[
    "crates/core/src/alerts.rs",
    "crates/core/src/engine.rs",
    "crates/core/src/evaluate.rs",
    "crates/core/src/fleet.rs",
    "crates/core/src/pipeline.rs",
    "crates/core/src/protocol.rs",
    "crates/core/src/repository.rs",
    "crates/models/src/arima/",
    "crates/models/src/ets.rs",
    "crates/models/src/tbats.rs",
    "crates/math/src/",
    "crates/series/src/ingest.rs",
    "src/serve.rs",
];

/// The one module allowed to call `total_cmp` directly: the definition
/// site of `dwcp_math::total_cmp_f64`.
pub const BLESSED_FLOAT_ORDER_MODULE: &str = "crates/math/src/totalord.rs";

/// Files whose canonical reductions bless them for the float-fold part of
/// the nondeterminism lint (the `dwcp_math` lanes define the canonical
/// evaluation order everything else must route through).
pub const BLESSED_REDUCTION_PREFIX: &str = "crates/math/src/";

/// Files allowed to use `Ordering::Relaxed`, each with the justification
/// the discipline pass demands: *why* relaxed is correct there and where
/// the protocol is model-checked.
pub const BLESSED_RELAXED_ATOMICS: &[(&str, &str)] = &[(
    "crates/core/src/protocol.rs",
    "extracted protocol cell (fetch_add ticket dispenser); correctness is \
     ordering-agnostic by construction and every interleaving is enumerated \
     in crates/core/tests/model_check.rs",
)];

/// Every file holding atomics in non-test code must appear here, mapped to
/// its extracted protocol and an evidence symbol that must occur in
/// [`ATOMIC_EVIDENCE_FILE`] — the tie between production atomics and the
/// bounded model checker that explores them.
pub const ATOMIC_PROTOCOLS: &[(&str, &str, &str)] = &[
    (
        "crates/core/src/protocol.rs",
        "checkpoint ledger, shutdown drain gate, ticket dispenser",
        "claim_ticket",
    ),
    (
        "crates/core/src/evaluate.rs",
        "work-queue dispatch + batch-wide lockstep pair refill + plan dispenser",
        "lockstep_refill",
    ),
    (
        "src/serve.rs",
        "accepting-worker shutdown drain (one self-connect wake per worker)",
        "drain",
    ),
];

/// The model-check suite where every extracted protocol is explored.
pub const ATOMIC_EVIDENCE_FILE: &str = "crates/core/tests/model_check.rs";

/// Module-boundary files that must wire at least one `invariant!` check
/// (the strict-invariants layer).
pub const INVARIANT_BOUNDARY_FILES: &[&str] = &[
    "crates/series/src/accuracy.rs",
    "crates/series/src/acf.rs",
    "crates/series/src/interpolate.rs",
    "crates/models/src/arima/model.rs",
];

/// Crates that must declare the `strict-invariants` cargo feature.
pub const INVARIANT_FEATURE_MANIFESTS: &[&str] = &[
    "Cargo.toml",
    "crates/math/Cargo.toml",
    "crates/series/Cargo.toml",
    "crates/models/Cargo.toml",
    "crates/workload/Cargo.toml",
    "crates/core/Cargo.toml",
    "crates/bench/Cargo.toml",
    "crates/xtask/Cargo.toml",
];

/// Directories whose `.rs` files the first-party passes scan.
const FIRST_PARTY_ROOTS: &[&str] = &["crates", "src", "tests", "examples"];

/// A loaded source tree: workspace-relative paths and file contents.
#[derive(Debug, Default)]
pub struct Workspace {
    /// `(relative path, contents)`, sorted by path for stable reports.
    pub files: Vec<(String, String)>,
}

impl Workspace {
    /// Load every tracked `.rs` and `Cargo.toml` file under `root`
    /// (first-party directories plus `vendor/`), skipping build output.
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut files = Vec::new();
        let mut roots: Vec<PathBuf> = FIRST_PARTY_ROOTS.iter().map(|d| root.join(d)).collect();
        roots.push(root.join("vendor"));
        for dir in roots {
            collect_files(&dir, root, &mut files)?;
        }
        let manifest = root.join("Cargo.toml");
        if manifest.is_file() {
            files.push((
                "Cargo.toml".to_string(),
                std::fs::read_to_string(&manifest)?,
            ));
        }
        files.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(Workspace { files })
    }

    fn get(&self, path: &str) -> Option<&str> {
        self.files
            .iter()
            .find(|(p, _)| p == path)
            .map(|(_, s)| s.as_str())
    }

    /// `.rs` files under first-party roots (vendored stand-ins excluded).
    fn first_party_rs(&self) -> impl Iterator<Item = (&str, &str)> {
        self.files.iter().filter_map(|(p, s)| {
            (p.ends_with(".rs") && !p.starts_with("vendor/")).then_some((p.as_str(), s.as_str()))
        })
    }

    /// Whether this is the real workspace tree (fixture trees in tests
    /// have no root `[workspace]` manifest); tree-global checks only make
    /// sense on the real layout.
    fn is_real_tree(&self) -> bool {
        self.get("Cargo.toml")
            .map(|toml| toml.contains("[workspace]"))
            .unwrap_or(false)
    }
}

fn collect_files(dir: &Path, root: &Path, out: &mut Vec<(String, String)>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    // `read_dir` order is filesystem-dependent; `Workspace::load` sorts
    // the collected list before anything iterates it.
    let mut entries: Vec<PathBuf> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        entries.push(entry?.path());
    }
    entries.sort();
    for path in entries {
        let Some(name) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
            continue;
        };
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_files(&path, root, out)?;
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push((rel, std::fs::read_to_string(&path)?));
        }
    }
    Ok(())
}

/// Whether a path falls under the legacy hot-path floor.
pub fn is_hot_path(path: &str) -> bool {
    HOT_PATH_PREFIXES.iter().any(|p| path.starts_with(p))
}

/// Per-rule escape-hatch census: how many reasoned directives exist for
/// the rule, and how many actually suppressed a finding.
#[derive(Debug, Clone)]
pub struct AllowCensusRow {
    /// Rule name.
    pub rule: String,
    /// Reasoned directives naming this rule.
    pub directives: usize,
    /// Directives that suppressed at least one finding.
    pub used: usize,
    /// Dead directives (`directives - used`) — each is a `stale-allow`
    /// finding.
    pub stale: usize,
}

/// Everything one `analyze` run produces.
pub struct AnalysisReport {
    /// All findings, sorted by path and line.
    pub findings: Vec<Finding>,
    /// The effective hot set: inferred reachability ∪ the legacy floor.
    pub hot_files: Vec<String>,
    /// Files hot by inference alone (before the legacy union).
    pub inferred_hot_files: Vec<String>,
    /// Per-rule escape-hatch census.
    pub allow_census: Vec<AllowCensusRow>,
    /// Inventory of every atomic site in library code.
    pub atomics: Vec<AtomicSite>,
    /// The call-graph index, for `--explain`.
    pub graph_index: graph::ItemIndex,
    /// The inferred reachability set, for `--explain`.
    pub hot_set: graph::HotSet,
}

/// Run every static pass over a loaded workspace.
pub fn analyze_report(ws: &Workspace) -> AnalysisReport {
    let mut findings = Vec::new();

    // Hot-set inference over the library call graph.
    let graph_index = graph::ItemIndex::build(ws.first_party_rs());
    let hot_set = graph::HotSet::infer(&graph_index, graph::HOT_ENTRY_POINTS);
    let inferred_hot_files: Vec<String> = hot_set.files.iter().cloned().collect();
    let file_is_hot = |path: &str| is_hot_path(path) || hot_set.file_is_hot(path);

    // The legacy list is a floor: on the real tree, every fn-defining
    // file it names must also be reachable by inference — a gap means an
    // entry point or resolution rule has rotted.
    if ws.is_real_tree() {
        for item in &graph_index.fns {
            if is_hot_path(&item.file) && !hot_set.file_is_hot(&item.file) {
                findings.push(Finding {
                    path: item.file.clone(),
                    line: 0,
                    rule: "hot-set-inference".into(),
                    message: format!(
                        "legacy hot-path file is not reachable from any entry point \
                         ({:?}) — fix the call-graph resolution or the entry list",
                        graph::HOT_ENTRY_POINTS
                    ),
                });
            }
        }
    }
    findings.dedup_by(|a, b| a.path == b.path && a.rule == b.rule);

    // One scanned context per first-party file; every pass runs against
    // it so directive usage accumulates for the staleness audit.
    let ctxs: Vec<FileCtx> = ws
        .first_party_rs()
        .map(|(p, s)| FileCtx::new(p, s))
        .collect();

    for ctx in &ctxs {
        // Directive hygiene everywhere first-party.
        findings.extend(ctx.directive_findings());

        let hot = file_is_hot(&ctx.path);

        // Pass 1 — panic freedom on the hot set.
        if hot {
            findings.extend(rules::check_panic_freedom_ctx(ctx));
        }

        // Pass 2 — float ordering, workspace-wide minus the blessed module.
        if ctx.path != BLESSED_FLOAT_ORDER_MODULE {
            findings.extend(rules::check_float_ordering_ctx(ctx));
        }

        // Pass 3 — nondeterminism lint on the hot set.
        if hot {
            let blessed = ctx.path.starts_with(BLESSED_REDUCTION_PREFIX);
            findings.extend(rules::check_nondeterminism_ctx(ctx, blessed));
        }

        // Pass 4 — atomic-ordering discipline over library code.
        if graph::in_graph_domain(&ctx.path) {
            let blessed = BLESSED_RELAXED_ATOMICS
                .iter()
                .find(|(p, _)| *p == ctx.path)
                .map(|(_, why)| *why);
            findings.extend(rules::check_atomic_ordering(ctx, blessed));
        }

        // Pass 5a — SAFETY comments (vendored files handled below).
        findings.extend(rules::check_safety_comments_ctx(ctx));
    }

    // Pass 4b — every atomic cluster maps to an extracted protocol.
    let atomics: Vec<AtomicSite> = ctxs
        .iter()
        .filter(|ctx| graph::in_graph_domain(&ctx.path))
        .flat_map(rules::atomic_inventory)
        .collect();
    findings.extend(check_atomic_protocols(ws, &atomics));

    // Pass 5a (continued) — SAFETY comments in the vendored stand-ins.
    for (path, src) in &ws.files {
        if path.ends_with(".rs") && path.starts_with("vendor/") {
            findings.extend(rules::check_safety_comments(path, src));
        }
    }

    // Pass 5b — forbid(unsafe_code) per crate, including vendored ones.
    for krate in discover_crates(ws) {
        let sources: Vec<(String, String)> = ws
            .files
            .iter()
            .filter(|(p, _)| p.starts_with(&krate.src_prefix) && p.ends_with(".rs"))
            .cloned()
            .collect();
        if sources.is_empty() {
            continue;
        }
        findings.extend(rules::check_forbid_unsafe(
            &krate.name,
            &krate.root_module,
            &sources,
        ));
    }

    // Pass 5c — invariant-layer wiring.
    findings.extend(check_invariant_wiring(ws));

    // Staleness audit: only fair once every pass above has had the chance
    // to consume each directive.
    let mut census: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    for ctx in &ctxs {
        findings.extend(ctx.stale_findings());
        for (rule, used) in ctx.census() {
            let row = census.entry(rule).or_insert((0, 0));
            row.0 += 1;
            if used {
                row.1 += 1;
            }
        }
    }
    let allow_census = census
        .into_iter()
        .map(|(rule, (directives, used))| AllowCensusRow {
            rule,
            directives,
            used,
            stale: directives - used,
        })
        .collect();

    findings.sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));

    let mut hot_files: Vec<String> = ctxs
        .iter()
        .filter(|ctx| file_is_hot(&ctx.path))
        .map(|ctx| ctx.path.clone())
        .collect();
    hot_files.sort();

    AnalysisReport {
        findings,
        hot_files,
        inferred_hot_files,
        allow_census,
        atomics,
        graph_index,
        hot_set,
    }
}

/// Run the static passes and return every finding, sorted by path and
/// line (the report-free entry point the tests use).
pub fn analyze(ws: &Workspace) -> Vec<Finding> {
    analyze_report(ws).findings
}

/// Pass 4b — files holding atomic types must map to an extracted protocol
/// whose evidence symbol appears in the model-check suite.
fn check_atomic_protocols(ws: &Workspace, atomics: &[AtomicSite]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let evidence = ws.get(ATOMIC_EVIDENCE_FILE);
    let mut files_with_atomics: Vec<&str> = atomics
        .iter()
        .filter(|site| rules::is_atomic_type_token(&site.what))
        .map(|site| site.path.as_str())
        .collect();
    files_with_atomics.sort_unstable();
    files_with_atomics.dedup();
    for path in files_with_atomics {
        match ATOMIC_PROTOCOLS.iter().find(|(p, _, _)| *p == path) {
            None => findings.push(Finding {
                path: path.to_string(),
                line: 0,
                rule: "atomic-protocol".into(),
                message: format!(
                    "file holds atomics but maps to no extracted protocol — add it \
                     to ATOMIC_PROTOCOLS with a model-check evidence symbol in {ATOMIC_EVIDENCE_FILE}"
                ),
            }),
            Some((_, protocol, symbol)) => {
                let proven = evidence.map(|src| src.contains(symbol)).unwrap_or(false);
                // Fixture trees without the evidence file skip the proof
                // check (the mapping itself is still enforced).
                if ws.is_real_tree() && !proven {
                    findings.push(Finding {
                        path: path.to_string(),
                        line: 0,
                        rule: "atomic-protocol".into(),
                        message: format!(
                            "protocol `{protocol}` claims evidence symbol `{symbol}` \
                             but {ATOMIC_EVIDENCE_FILE} does not contain it"
                        ),
                    });
                }
            }
        }
    }
    findings
}

/// A crate discovered in the workspace tree.
struct CrateInfo {
    name: String,
    src_prefix: String,
    root_module: String,
}

/// Every crate with a manifest: the root package plus `crates/*` and
/// `vendor/*` members.
fn discover_crates(ws: &Workspace) -> Vec<CrateInfo> {
    let mut out = Vec::new();
    for (path, _) in &ws.files {
        let Some(dir) = path.strip_suffix("Cargo.toml") else {
            continue;
        };
        let dir = dir.trim_end_matches('/');
        let src_prefix = if dir.is_empty() {
            "src/".to_string()
        } else {
            format!("{dir}/src/")
        };
        let lib = format!("{src_prefix}lib.rs");
        let main = format!("{src_prefix}main.rs");
        let root_module = if ws.get(&lib).is_some() {
            lib
        } else if ws.get(&main).is_some() {
            main
        } else {
            continue; // virtual manifest or binary-only layout we don't audit
        };
        let name = if dir.is_empty() {
            "dwcp".to_string()
        } else {
            dir.rsplit('/').next().unwrap_or(dir).to_string()
        };
        out.push(CrateInfo {
            name,
            src_prefix,
            root_module,
        });
    }
    out
}

/// The invariant layer must stay wired: each boundary module carries at
/// least one `invariant!` check and each manifest declares the
/// `strict-invariants` feature (so `cargo test --workspace --features
/// strict-invariants` resolves). Only meaningful for the real workspace
/// tree, so fixture trees (no root `[workspace]` manifest) skip it.
fn check_invariant_wiring(ws: &Workspace) -> Vec<Finding> {
    if !ws.is_real_tree() {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for path in INVARIANT_BOUNDARY_FILES {
        match ws.get(path) {
            Some(src) if src.contains("invariant!") => {}
            Some(_) => findings.push(Finding {
                path: path.to_string(),
                line: 0,
                rule: "invariant-wiring".into(),
                message: "boundary module has no `invariant!` check — the \
                          strict-invariants layer is unwired here"
                    .into(),
            }),
            None => findings.push(Finding {
                path: path.to_string(),
                line: 0,
                rule: "invariant-wiring".into(),
                message: "designated invariant boundary file is missing".into(),
            }),
        }
    }
    for manifest in INVARIANT_FEATURE_MANIFESTS {
        match ws.get(manifest) {
            Some(toml) if toml.contains("strict-invariants") => {}
            Some(_) => findings.push(Finding {
                path: manifest.to_string(),
                line: 0,
                rule: "invariant-wiring".into(),
                message: "manifest does not declare the `strict-invariants` feature".into(),
            }),
            None => {} // tree without this crate (fixture trees in tests)
        }
    }
    findings
}

// --- JSON report and baseline diff ---

/// Render the full report as pretty JSON (findings, hot set, allow
/// census, atomic inventory) — the `--json` output CI archives.
pub fn report_to_json(report: &AnalysisReport) -> String {
    use serde::Value;
    let findings = report
        .findings
        .iter()
        .map(|f| {
            Value::Object(vec![
                ("path".into(), Value::String(f.path.clone())),
                ("line".into(), Value::Number(f.line as f64)),
                ("rule".into(), Value::String(f.rule.clone())),
                ("message".into(), Value::String(f.message.clone())),
            ])
        })
        .collect();
    let strings = |v: &[String]| Value::Array(v.iter().cloned().map(Value::String).collect());
    let census = report
        .allow_census
        .iter()
        .map(|row| {
            Value::Object(vec![
                ("rule".into(), Value::String(row.rule.clone())),
                ("directives".into(), Value::Number(row.directives as f64)),
                ("used".into(), Value::Number(row.used as f64)),
                ("stale".into(), Value::Number(row.stale as f64)),
            ])
        })
        .collect();
    let atomics = report
        .atomics
        .iter()
        .map(|site| {
            Value::Object(vec![
                ("path".into(), Value::String(site.path.clone())),
                ("line".into(), Value::Number(site.line as f64)),
                ("what".into(), Value::String(site.what.clone())),
            ])
        })
        .collect();
    Value::Object(vec![
        ("dwcp_analyze".into(), Value::Number(1.0)),
        ("findings".into(), Value::Array(findings)),
        ("hot_files".into(), strings(&report.hot_files)),
        (
            "inferred_hot_files".into(),
            strings(&report.inferred_hot_files),
        ),
        ("allow_census".into(), Value::Array(census)),
        ("atomics".into(), Value::Array(atomics)),
    ])
    .to_json_pretty()
}

/// Render the findings as a baseline file: `(path, rule)` pairs with
/// counts, line-number-free so routine edits don't churn it.
pub fn baseline_json(findings: &[Finding]) -> String {
    use serde::Value;
    let rows = count_by_path_rule(findings)
        .into_iter()
        .map(|((path, rule), count)| {
            Value::Object(vec![
                ("path".into(), Value::String(path)),
                ("rule".into(), Value::String(rule)),
                ("count".into(), Value::Number(count as f64)),
            ])
        })
        .collect();
    Value::Object(vec![
        ("dwcp_analyze_baseline".into(), Value::Number(1.0)),
        ("findings".into(), Value::Array(rows)),
    ])
    .to_json_pretty()
}

fn count_by_path_rule(findings: &[Finding]) -> BTreeMap<(String, String), usize> {
    let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
    for f in findings {
        *counts.entry((f.path.clone(), f.rule.clone())).or_insert(0) += 1;
    }
    counts
}

/// Result of diffing current findings against a checked-in baseline.
#[derive(Debug, Default)]
pub struct BaselineDiff {
    /// Violations not covered by the baseline — these fail CI.
    pub new: Vec<String>,
    /// Baseline entries the tree has outgrown — CI reports these so the
    /// baseline can be re-tightened.
    pub shrunk: Vec<String>,
}

/// Diff `findings` against a baseline produced by [`baseline_json`].
/// A `(path, rule)` count above its baselined value (or absent from the
/// baseline entirely) is *new*; a count below it is *shrunk*.
pub fn diff_baseline(findings: &[Finding], baseline_text: &str) -> Result<BaselineDiff, String> {
    let value = serde::Value::parse_json(baseline_text)
        .map_err(|e| format!("baseline is not valid JSON: {e}"))?;
    let rows = value
        .field("findings")
        .and_then(|f| match f {
            serde::Value::Array(rows) => Ok(rows.clone()),
            _ => Err(serde::Error::new("`findings` must be an array")),
        })
        .map_err(|e| format!("malformed baseline: {e}"))?;
    let mut baselined: BTreeMap<(String, String), usize> = BTreeMap::new();
    for row in &rows {
        let get_str = |name: &str| -> Result<String, String> {
            match row.field(name) {
                Ok(serde::Value::String(s)) => Ok(s.clone()),
                _ => Err(format!("baseline row missing string field `{name}`")),
            }
        };
        let count = match row.field("count") {
            Ok(serde::Value::Number(n)) => *n as usize,
            _ => return Err("baseline row missing numeric field `count`".into()),
        };
        baselined.insert((get_str("path")?, get_str("rule")?), count);
    }
    let current = count_by_path_rule(findings);
    let mut diff = BaselineDiff::default();
    for ((path, rule), count) in &current {
        let allowed = baselined
            .get(&(path.clone(), rule.clone()))
            .copied()
            .unwrap_or(0);
        if *count > allowed {
            diff.new.push(format!(
                "{path}: [{rule}] {count} finding(s), baseline allows {allowed}"
            ));
        }
    }
    for ((path, rule), allowed) in &baselined {
        let count = current
            .get(&(path.clone(), rule.clone()))
            .copied()
            .unwrap_or(0);
        if count < *allowed {
            diff.shrunk.push(format!(
                "{path}: [{rule}] baseline allows {allowed}, only {count} remain — tighten it"
            ));
        }
    }
    Ok(diff)
}

// --- selftest ---

/// One seeded-violation check: analyze the fixture and demand a finding
/// with `rule`.
fn selftest_expect_rule(
    name: &str,
    ws: &Workspace,
    rule: &str,
    log: &mut Vec<String>,
    failures: &mut Vec<String>,
) {
    let findings = analyze(ws);
    if findings.iter().any(|f| f.rule == rule) {
        log.push(format!("seeded {name}: [{rule}] caught"));
    } else {
        let got: Vec<&str> = findings.iter().map(|f| f.rule.as_str()).collect();
        failures.push(format!(
            "seeded {name}: expected a [{rule}] finding, got {got:?}"
        ));
    }
}

fn selftest_fixture(files: &[(&str, &str)]) -> Workspace {
    Workspace {
        files: files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect(),
    }
}

/// `cargo xtask selftest`: prove each pass catches its seeded violation
/// and that the real workspace analysis is clean. Returns the log of
/// passed checks, or the list of failures.
pub fn run_selftest(root: &Path) -> Result<Vec<String>, Vec<String>> {
    let mut log = Vec::new();
    let mut failures = Vec::new();

    // Pass 1 — panic freedom on a legacy-hot file, one fixture per rule.
    let hot = "crates/core/src/evaluate.rs";
    let panic_fixtures: &[(&str, &str, &str)] = &[
        (
            "unwrap",
            "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }",
            "unwrap",
        ),
        (
            "expect",
            "pub fn f(x: Option<u8>) -> u8 { x.expect(\"x\") }",
            "expect",
        ),
        ("panic", "pub fn f() { panic!(\"boom\") }", "panic"),
        ("todo", "pub fn f() { todo!() }", "todo"),
        ("indexing", "pub fn f(v: &[u8]) -> u8 { v[0] }", "indexing"),
    ];
    for (name, src, rule) in panic_fixtures {
        let ws = selftest_fixture(&[(hot, src)]);
        selftest_expect_rule(
            &format!("panic-freedom/{name}"),
            &ws,
            rule,
            &mut log,
            &mut failures,
        );
    }

    // Pass 1b — inference extends beyond the legacy floor: a file the
    // floor does not name, reached from `Pipeline::run`, is still linted.
    let ws = selftest_fixture(&[
        (
            "crates/core/src/pipeline.rs",
            "pub struct Pipeline;\nimpl Pipeline {\n    pub fn run(&self) { advise(); }\n}\n",
        ),
        (
            "crates/core/src/advisor.rs",
            "pub fn advise() -> u8 { None.unwrap() }\n",
        ),
    ]);
    selftest_expect_rule(
        "hot-set-inference-extends",
        &ws,
        "unwrap",
        &mut log,
        &mut failures,
    );

    // Pass 2 — float ordering.
    let ws = selftest_fixture(&[(
        "crates/series/src/acf.rs",
        "pub fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }",
    )]);
    selftest_expect_rule(
        "float-ordering",
        &ws,
        "float-ordering",
        &mut log,
        &mut failures,
    );

    // Pass 3 — nondeterminism on an *inferred*-hot file.
    let ws = selftest_fixture(&[
        (
            "crates/core/src/pipeline.rs",
            "pub struct Pipeline;\nimpl Pipeline {\n    pub fn run(&self) { tally(); }\n}\n",
        ),
        (
            "crates/core/src/tally.rs",
            "use std::collections::HashMap;\npub fn tally() {}\n",
        ),
    ]);
    selftest_expect_rule(
        "nondeterminism",
        &ws,
        "nondeterminism",
        &mut log,
        &mut failures,
    );

    // Pass 4 — Ordering::Relaxed outside the blessed list.
    let ws = selftest_fixture(&[(
        "crates/core/src/fleet.rs",
        "pub fn f(c: &std::sync::atomic::AtomicU64) { c.load(Ordering::Relaxed); }\n",
    )]);
    selftest_expect_rule(
        "atomic-ordering",
        &ws,
        "atomic-ordering",
        &mut log,
        &mut failures,
    );

    // Pass 4b — an atomic cluster with no extracted protocol.
    let ws = selftest_fixture(&[(
        "crates/core/src/fleet.rs",
        "use std::sync::atomic::AtomicU64;\npub fn f() {}\n",
    )]);
    selftest_expect_rule(
        "atomic-protocol",
        &ws,
        "atomic-protocol",
        &mut log,
        &mut failures,
    );

    // Pass 5 — directive hygiene and staleness.
    let ws = selftest_fixture(&[(
        "crates/core/src/evaluate.rs",
        "// lint: allow-file(unwrap) — nothing here unwraps any more\npub fn f() {}\n",
    )]);
    selftest_expect_rule("stale-allow", &ws, "stale-allow", &mut log, &mut failures);
    let ws = selftest_fixture(&[(
        "crates/core/src/evaluate.rs",
        "// lint: allow(no-such-rule) — reasoned but unknown\npub fn f() {}\n",
    )]);
    selftest_expect_rule(
        "allow-unknown-rule",
        &ws,
        "allow-unknown-rule",
        &mut log,
        &mut failures,
    );
    let ws = selftest_fixture(&[(
        "crates/core/src/evaluate.rs",
        "pub fn f(x: Option<u8>) -> u8 {\n    // lint: allow(unwrap)\n    x.unwrap()\n}\n",
    )]);
    selftest_expect_rule(
        "allow-missing-reason",
        &ws,
        "allow-missing-reason",
        &mut log,
        &mut failures,
    );

    // Superset audit — on a "real" tree (root `[workspace]` manifest), a
    // legacy hot-path file no entry point reaches is itself a finding.
    let ws = selftest_fixture(&[
        ("Cargo.toml", "[workspace]\nmembers = [\"crates/core\"]\n"),
        (
            "crates/core/src/evaluate.rs",
            "pub fn orphaned_by_the_graph() {}\n",
        ),
    ]);
    selftest_expect_rule(
        "hot-set-superset-audit",
        &ws,
        "hot-set-inference",
        &mut log,
        &mut failures,
    );

    // The real workspace must be clean, and the inferred hot set must be
    // a superset of the legacy floor (restricted to fn-defining files).
    match Workspace::load(root) {
        Err(e) => failures.push(format!(
            "cannot load real workspace at {}: {e}",
            root.display()
        )),
        Ok(ws) => {
            let report = analyze_report(&ws);
            if report.findings.is_empty() {
                log.push(format!(
                    "real workspace: clean ({} files, {} hot, {} by inference)",
                    ws.files.len(),
                    report.hot_files.len(),
                    report.inferred_hot_files.len()
                ));
            } else {
                for f in report.findings.iter().take(10) {
                    failures.push(format!("real workspace not clean: {f}"));
                }
                if report.findings.len() > 10 {
                    failures.push(format!(
                        "real workspace: …and {} more finding(s)",
                        report.findings.len() - 10
                    ));
                }
            }
            let mut legacy_fn_files: Vec<&str> = report
                .graph_index
                .fns
                .iter()
                .map(|item| item.file.as_str())
                .filter(|file| is_hot_path(file))
                .collect();
            legacy_fn_files.sort_unstable();
            legacy_fn_files.dedup();
            let gaps: Vec<&str> = legacy_fn_files
                .iter()
                .copied()
                .filter(|file| !report.hot_set.file_is_hot(file))
                .collect();
            if gaps.is_empty() {
                log.push(format!(
                    "inferred hot set covers all {} fn-defining legacy hot-path files",
                    legacy_fn_files.len()
                ));
            } else {
                failures.push(format!(
                    "inferred hot set misses legacy hot-path files: {gaps:?}"
                ));
            }
        }
    }

    if failures.is_empty() {
        Ok(log)
    } else {
        Err(failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace {
            files: files
                .iter()
                .map(|(p, s)| (p.to_string(), s.to_string()))
                .collect(),
        }
    }

    #[test]
    fn hot_path_classification() {
        assert!(is_hot_path("crates/core/src/evaluate.rs"));
        assert!(is_hot_path("crates/core/src/repository.rs"));
        assert!(is_hot_path("crates/math/src/solve.rs"));
        assert!(is_hot_path("crates/models/src/arima/css.rs"));
        // The batched ETS/TBATS fit stacks run inside the same lockstep
        // rounds as the ARIMA family.
        assert!(is_hot_path("crates/models/src/ets.rs"));
        assert!(is_hot_path("crates/models/src/tbats.rs"));
        assert!(!is_hot_path("crates/models/src/fourier.rs"));
        // The resident-engine layers run unattended inside `dwcp serve`.
        assert!(is_hot_path("crates/core/src/engine.rs"));
        assert!(is_hot_path("crates/core/src/alerts.rs"));
        assert!(is_hot_path("crates/series/src/ingest.rs"));
        assert!(is_hot_path("src/serve.rs"));
        assert!(!is_hot_path("crates/core/src/advisor.rs"));
        assert!(!is_hot_path("crates/series/src/acf.rs"));
        assert!(!is_hot_path("src/cli.rs"));
    }

    #[test]
    fn seeded_violation_in_hot_path_is_reported() {
        let tree = ws(&[(
            "crates/math/src/bad.rs",
            "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }",
        )]);
        let findings = analyze(&tree);
        assert!(findings.iter().any(|f| f.rule == "unwrap"));
    }

    #[test]
    fn same_code_outside_hot_path_is_not_a_panic_finding() {
        let tree = ws(&[(
            "crates/workload/src/ok.rs",
            "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }",
        )]);
        let findings = analyze(&tree);
        assert!(findings.iter().all(|f| f.rule != "unwrap"));
    }

    #[test]
    fn inference_extends_the_hot_set_beyond_the_legacy_floor() {
        // `advisor.rs` is not on the legacy list, but a call chain from
        // Pipeline::run reaches it — the unwrap must be flagged.
        let tree = ws(&[
            (
                "crates/core/src/pipeline.rs",
                "pub struct Pipeline;\nimpl Pipeline {\n    pub fn run(&self) { advise(); }\n}\n",
            ),
            (
                "crates/core/src/advisor.rs",
                "pub fn advise() -> u8 { None.unwrap() }\n",
            ),
        ]);
        let findings = analyze(&tree);
        assert!(
            findings
                .iter()
                .any(|f| f.rule == "unwrap" && f.path == "crates/core/src/advisor.rs"),
            "{findings:?}"
        );
    }

    #[test]
    fn nondeterminism_applies_to_inferred_hot_files() {
        let tree = ws(&[
            (
                "crates/core/src/pipeline.rs",
                "pub struct Pipeline;\nimpl Pipeline {\n    pub fn run(&self) { tally(); }\n}\n",
            ),
            (
                "crates/core/src/tally.rs",
                "use std::collections::HashMap;\npub fn tally() {}\n",
            ),
            (
                "crates/core/src/cold.rs",
                "use std::collections::HashMap;\npub fn unreached() {}\n",
            ),
        ]);
        let findings = analyze(&tree);
        assert!(findings
            .iter()
            .any(|f| f.rule == "nondeterminism" && f.path == "crates/core/src/tally.rs"));
        assert!(findings
            .iter()
            .all(|f| !(f.rule == "nondeterminism" && f.path == "crates/core/src/cold.rs")));
    }

    #[test]
    fn atomics_outside_protocol_map_are_flagged() {
        let tree = ws(&[(
            "crates/core/src/rogue.rs",
            "use std::sync::atomic::AtomicU64;\npub fn f() {}\n",
        )]);
        let findings = analyze(&tree);
        assert!(findings
            .iter()
            .any(|f| f.rule == "atomic-protocol" && f.path == "crates/core/src/rogue.rs"));
    }

    #[test]
    fn relaxed_ordering_outside_blessed_files_is_flagged() {
        let tree = ws(&[(
            "crates/core/src/rogue.rs",
            "pub fn f(c: &std::sync::atomic::AtomicU64) { c.load(Ordering::Relaxed); }\n",
        )]);
        let findings = analyze(&tree);
        assert!(findings.iter().any(|f| f.rule == "atomic-ordering"));
    }

    #[test]
    fn stale_allow_surfaces_in_analyze() {
        let tree = ws(&[(
            "crates/math/src/fine.rs",
            "// lint: allow-file(unwrap) — nothing here unwraps any more\npub fn f() {}\n",
        )]);
        let findings = analyze(&tree);
        assert!(findings.iter().any(|f| f.rule == "stale-allow"));
    }

    #[test]
    fn float_ordering_applies_everywhere_but_blessed_module() {
        let tree = ws(&[
            (
                "crates/workload/src/sortish.rs",
                "pub fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }",
            ),
            (
                "crates/math/src/totalord.rs",
                "pub fn total_cmp_f64(a: f64, b: f64) -> core::cmp::Ordering { a.total_cmp(&b) }",
            ),
        ]);
        let findings = analyze(&tree);
        let float: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "float-ordering")
            .collect();
        assert_eq!(float.len(), 1);
        assert_eq!(float[0].path, "crates/workload/src/sortish.rs");
    }

    #[test]
    fn baseline_roundtrip_and_diff() {
        let old = vec![Finding {
            path: "a.rs".into(),
            line: 3,
            rule: "unwrap".into(),
            message: "m".into(),
        }];
        let baseline = baseline_json(&old);
        // Same findings: clean diff.
        let diff = diff_baseline(&old, &baseline).unwrap();
        assert!(diff.new.is_empty() && diff.shrunk.is_empty());
        // A second unwrap in the same file is new.
        let mut grown = old.clone();
        grown.push(Finding {
            path: "a.rs".into(),
            line: 9,
            rule: "unwrap".into(),
            message: "m".into(),
        });
        let diff = diff_baseline(&grown, &baseline).unwrap();
        assert_eq!(diff.new.len(), 1);
        // Fixing the finding shrinks the baseline.
        let diff = diff_baseline(&[], &baseline).unwrap();
        assert_eq!(diff.shrunk.len(), 1);
        // Garbage baselines are errors, not silent passes.
        assert!(diff_baseline(&old, "not json").is_err());
    }

    #[test]
    fn report_json_carries_census_and_atomics() {
        let tree = ws(&[(
            "crates/core/src/rogue.rs",
            "use std::sync::atomic::AtomicU64;\n\
             // lint: allow(atomic-protocol) — bogus, file-level rule ignores this\n\
             pub fn f() {}\n",
        )]);
        let report = analyze_report(&tree);
        let json = report_to_json(&report);
        let value = serde::Value::parse_json(&json).unwrap();
        assert!(value.field("findings").is_ok());
        assert!(value.field("allow_census").is_ok());
        let atoms = value.field("atomics").unwrap();
        assert!(matches!(atoms, serde::Value::Array(a) if !a.is_empty()));
    }
}
