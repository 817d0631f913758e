//! `solver_bench` — the machine-readable solver benchmark and perf
//! regression gate.
//!
//! Measures the full SPLLIFT hot path (lifting + both IDE phases) per
//! subject × analysis and writes the results as `BENCH_solver.json`
//! (schema `spllift-bench-solver/v4`, see `spllift_bench::json`), so
//! every PR can record before/after numbers against the same schema.
//! The solver is sequential, so each entry holds exactly one
//! `{"threads": 1, …}` cell, which records the wall-clock samples and a
//! digest of the solved solution.
//!
//! ```text
//! cargo run --release -p spllift-bench --bin solver_bench -- \
//!     [--samples N] [--sample-budget-ms MS] [--subjects fig1,chat,MM08,...] \
//!     [--out PATH|-]
//! cargo run --release -p spllift-bench --bin solver_bench -- --validate PATH
//! cargo run --release -p spllift-bench --bin solver_bench -- \
//!     --check BASELINE [--tolerance F] [--subjects ...]
//! ```
//!
//! Subjects: `fig1` and `chat` (the committed `examples_data/` product
//! lines, feature models regarded), any generated subject
//! (`MM08|GPL|Lampiro|BerkeleyDB`), or a shaped synthetic
//! (`synthetic:<features>:<loc>:<seed>[:model=free|chain|groups][:depth=N]`,
//! see `spllift_benchgen::parse_subject_spec`). The default set is the
//! full committed matrix — all four paper subjects including BerkeleyDB
//! plus a 99-feature, >10k-statement chained synthetic — so a default
//! run always regenerates every cell of the committed baseline.
//!
//! `--check BASELINE` is the regression gate: it re-measures and diffs
//! the fresh run against the baseline cell by cell
//! (`spllift_bench::regress`), failing when any cell's min wall time
//! slows past `--tolerance` (default 0.25 = +25%). With no explicit
//! `--subjects`, the matrix is replayed from the baseline's own
//! `provenance` block; restricting it switches missing cells from
//! failures to skips (CI smoke mode). `--inject-slow
//! <subject>:<analysis>:<ms>` adds a deterministic stall inside the
//! measured region — CI uses it to prove the gate actually fails.
//!
//! Sampling is adaptive: a cell whose warmup pass takes
//! `--sample-budget-ms` (default 2000) or longer is measured once
//! instead of `--samples` times, and each cell records the count it
//! actually took. Slow subjects stay representable in the committed
//! baseline without multiplying the bench wall-clock.
//!
//! Stdout carries nothing but the JSON document when `--out -` is
//! given; the per-bench human summary lines go to stderr (see
//! [`BenchSink`]), so the emitted file can be schema-validated in CI
//! (`--validate`) without stream-corruption worries.

use spllift_bench::harness::{BenchSink, Harness};
use spllift_bench::json::{
    parse_json, render_solver_bench, validate_solver_bench, MachineInfo, Provenance,
    SolverBenchEntry, ThreadCell,
};
use spllift_bench::regress::{self, RegressOptions, DEFAULT_TOLERANCE};
use spllift_benchgen::{parse_subject_spec, GeneratedSpl, SUBJECT_GRAMMAR};
use spllift_core::{GovernorOptions, LiftedSolution, ModelMode};
use spllift_features::{parse_feature_model, BddConstraintContext, FeatureExpr, FeatureTable};
use spllift_frontend::parse_spl;
use spllift_hash::FxHasher64;
use spllift_ifds::{Icfg, IfdsProblem};
use spllift_ir::{Program, ProgramIcfg};
use std::cell::RefCell;
use std::hash::{Hash, Hasher};
use std::process::ExitCode;
use std::time::Duration;

const DEFAULT_SUBJECTS: &str =
    "fig1,chat,MM08,GPL,Lampiro,BerkeleyDB,synthetic:99:12000:71:model=chain:depth=8";
const DEFAULT_OUT: &str = "BENCH_solver.json";
const DEFAULT_SAMPLE_BUDGET_MS: u64 = 2000;

fn main() -> ExitCode {
    match run(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("solver_bench: {msg}");
            ExitCode::from(2)
        }
    }
}

/// A deterministic stall injected into the measured region of one
/// subject × analysis, for the gate's negative test.
struct InjectSlow {
    subject: String,
    analysis: String,
    delay: Duration,
}

fn run(args: &[String]) -> Result<(), String> {
    let mut samples = 3usize;
    let mut subjects = DEFAULT_SUBJECTS.to_owned();
    let mut subjects_given = false;
    let mut out = DEFAULT_OUT.to_owned();
    let mut check: Option<String> = None;
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut sample_budget_ms = DEFAULT_SAMPLE_BUDGET_MS;
    let mut inject_slow: Option<InjectSlow> = None;
    let mut args_iter = args.iter().cloned();
    while let Some(arg) = args_iter.next() {
        match arg.as_str() {
            "--validate" => {
                let path = args_iter.next().ok_or("--validate needs a file path")?;
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                let n = validate_solver_bench(&text).map_err(|e| format!("{path}: {e}"))?;
                eprintln!("solver_bench: {path} is valid ({n} entries)");
                return Ok(());
            }
            "--check" => {
                check = Some(args_iter.next().ok_or("--check needs a baseline path")?);
            }
            "--tolerance" => {
                let v = args_iter.next().ok_or("--tolerance needs a fraction")?;
                tolerance = v
                    .parse::<f64>()
                    .ok()
                    .filter(|t| t.is_finite() && *t >= 0.0)
                    .ok_or(format!(
                        "--tolerance needs a non-negative fraction (0.25 = +25%), got `{v}`"
                    ))?;
            }
            "--inject-slow" => {
                let v = args_iter
                    .next()
                    .ok_or("--inject-slow needs <subject>:<analysis>:<ms> (e.g. fig1:Taint:500)")?;
                // Subject names may themselves contain `:` (synthetic
                // specs), so split from the right.
                let mut parts = v.rsplitn(3, ':');
                let (ms, analysis, subject) = (parts.next(), parts.next(), parts.next());
                let (Some(ms), Some(analysis), Some(subject)) = (ms, analysis, subject) else {
                    return Err(format!(
                        "--inject-slow needs <subject>:<analysis>:<ms>, got `{v}`"
                    ));
                };
                let ms: u64 = ms
                    .parse()
                    .map_err(|_| format!("--inject-slow ms must be an integer, got `{ms}`"))?;
                inject_slow = Some(InjectSlow {
                    subject: subject.to_owned(),
                    analysis: analysis.to_owned(),
                    delay: Duration::from_millis(ms),
                });
            }
            "--samples" => {
                let v = args_iter.next().ok_or("--samples needs a count")?;
                samples = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&s| s >= 1)
                    .ok_or(format!("--samples needs a positive integer, got `{v}`"))?;
            }
            "--sample-budget-ms" => {
                let v = args_iter.next().ok_or("--sample-budget-ms needs a count")?;
                sample_budget_ms = v.parse::<u64>().map_err(|_| {
                    format!("--sample-budget-ms needs an integer (0 disables), got `{v}`")
                })?;
            }
            "--subjects" => {
                subjects = args_iter.next().ok_or("--subjects needs a list")?;
                subjects_given = true;
            }
            "--out" => {
                out = args_iter.next().ok_or("--out needs a path")?;
            }
            "--help" | "-h" => {
                return Err(format!(
                    "usage: solver_bench [--samples N] [--sample-budget-ms MS] [--subjects A,B,..] [--out PATH|-]\n       solver_bench --validate PATH\n       solver_bench --check BASELINE [--tolerance F] [--subjects A,..] [--inject-slow S:A:MS]\n(default subjects: {DEFAULT_SUBJECTS}; default out: {DEFAULT_OUT})"
                ));
            }
            other => return Err(format!("unexpected argument `{other}` (try --help)")),
        }
    }

    let baseline = match &check {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read baseline {path}: {e}"))?;
            let doc = regress::solver_doc(&text).map_err(|e| format!("baseline {path}: {e}"))?;
            // Replay the baseline's own matrix unless the caller
            // restricted it (CI smoke mode re-measures a subset).
            let prov = Provenance::from_doc(&parse_json(&text)?)
                .ok_or_else(|| format!("baseline {path}: missing provenance"))?;
            if !subjects_given {
                subjects = prov.subjects;
            }
            Some(doc)
        }
        None => None,
    };

    let sample_budget = (sample_budget_ms > 0).then(|| Duration::from_millis(sample_budget_ms));
    let mut entries = Vec::new();
    for name in subjects.split(',').filter(|s| !s.is_empty()) {
        let subject = load_subject(name)?;
        entries.extend(measure_subject(
            &subject,
            samples,
            sample_budget,
            inject_slow.as_ref(),
        ));
    }
    let doc = render_solver_bench(
        samples,
        &MachineInfo::current(),
        &Provenance {
            bin: "solver_bench".to_owned(),
            subjects: subjects.clone(),
            threads: "1".to_owned(),
        },
        &entries,
    );
    // The emitter owns stdout; sanity-check our own output before
    // using it, so a malformed document can never land on disk.
    validate_solver_bench(&doc).map_err(|e| format!("internal emitter error: {e}"))?;

    if let Some(baseline) = baseline {
        let opts = RegressOptions {
            tolerance,
            subset: subjects_given,
            ..RegressOptions::default()
        };
        let mut fresh = regress::solver_doc(&doc).map_err(|e| format!("fresh run: {e}"))?;
        let mut report = regress::compare(&baseline, &fresh, opts);
        if !report.failed_keys.is_empty() {
            // Retry pass: re-measure only the subjects whose cells
            // regressed and keep the min across both passes. On shared
            // hardware a single host-contention stall can inflate one
            // pass far past any tolerance (especially budget-limited
            // 1-sample cells); a genuine regression reproduces, a
            // stall does not. `--inject-slow` stalls the retry too, so
            // the CI negative test still fails end-to-end.
            let retry_subjects: std::collections::BTreeSet<&str> = report
                .failed_keys
                .iter()
                .filter_map(|k| k.split('/').next())
                .collect();
            eprintln!(
                "solver_bench: {} cells regressed on the first pass; re-measuring {}",
                report.failed_keys.len(),
                retry_subjects
                    .iter()
                    .copied()
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            let mut retry_entries = Vec::new();
            for name in &retry_subjects {
                let subject = load_subject(name)?;
                retry_entries.extend(measure_subject(
                    &subject,
                    samples,
                    sample_budget,
                    inject_slow.as_ref(),
                ));
            }
            let retry_doc = render_solver_bench(
                samples,
                &MachineInfo::current(),
                &Provenance {
                    bin: "solver_bench".to_owned(),
                    subjects: retry_subjects.iter().copied().collect::<Vec<_>>().join(","),
                    threads: "1".to_owned(),
                },
                &retry_entries,
            );
            let retry = regress::solver_doc(&retry_doc).map_err(|e| format!("retry run: {e}"))?;
            fresh.merge_min(&retry);
            report = regress::compare(&baseline, &fresh, opts);
        }
        eprint!("{}", report.render());
        if !report.passed() {
            return Err(format!(
                "regression gate failed: {} of {} compared cells regressed past +{:.0}% (see report above)",
                report.failures.len(),
                report.compared,
                tolerance * 100.0
            ));
        }
        eprintln!(
            "solver_bench: regression gate passed ({} cells within +{:.0}%)",
            report.compared,
            tolerance * 100.0
        );
        return Ok(());
    }

    if out == "-" {
        print!("{doc}");
    } else {
        std::fs::write(&out, &doc).map_err(|e| format!("cannot write {out}: {e}"))?;
        eprintln!(
            "solver_bench: wrote {} entries ({} samples requested each) to {out}",
            entries.len(),
            samples
        );
    }
    Ok(())
}

/// An owned, fully loaded benchmark subject.
struct Subject {
    name: String,
    program: Program,
    table: FeatureTable,
    model: Option<FeatureExpr>,
}

/// Path of a committed `examples_data/` file, resolved relative to the
/// workspace so the binary works from any working directory.
fn example_path(file: &str) -> String {
    format!("{}/../../examples_data/{file}", env!("CARGO_MANIFEST_DIR"))
}

fn load_example(name: &str) -> Result<Subject, String> {
    let src_path = example_path(&format!("{name}.minijava"));
    let model_path = example_path(&format!("{name}.model"));
    let source =
        std::fs::read_to_string(&src_path).map_err(|e| format!("cannot read {src_path}: {e}"))?;
    let mut table = FeatureTable::new();
    let program = parse_spl(&source, &mut table).map_err(|e| format!("{src_path}: {e}"))?;
    let text = std::fs::read_to_string(&model_path)
        .map_err(|e| format!("cannot read {model_path}: {e}"))?;
    let model = parse_feature_model(&text, &mut table)
        .map_err(|e| format!("{model_path}: {e}"))?
        .to_expr();
    Ok(Subject {
        name: name.to_owned(),
        program,
        table,
        model: Some(model),
    })
}

fn load_subject(name: &str) -> Result<Subject, String> {
    if name == "fig1" || name == "chat" {
        return load_example(name);
    }
    let spec = parse_subject_spec(name)
        .map_err(|e| format!("unknown subject `{name}`: {e} (fig1|chat|{SUBJECT_GRAMMAR})"))?;
    let spl = GeneratedSpl::generate(spec);
    let model = spl.model_expr();
    let GeneratedSpl { program, table, .. } = spl;
    Ok(Subject {
        name: name.to_owned(),
        program,
        table,
        model: Some(model),
    })
}

fn measure_subject(
    subject: &Subject,
    samples: usize,
    sample_budget: Option<Duration>,
    inject_slow: Option<&InjectSlow>,
) -> Vec<SolverBenchEntry> {
    let icfg = ProgramIcfg::new(&subject.program);
    let mut entries = Vec::new();
    macro_rules! go {
        ($label:expr, $problem:expr) => {{
            let p = $problem;
            let stall = inject_slow
                .filter(|i| i.subject == subject.name && i.analysis == $label)
                .map(|i| i.delay);
            entries.push(measure_one(
                subject,
                &icfg,
                $label,
                &p,
                samples,
                sample_budget,
                stall,
            ));
        }};
    }
    go!("Taint", spllift_analyses::TaintAnalysis::secret_to_print());
    go!("P. Types", spllift_analyses::PossibleTypes::new());
    go!("R. Def.", spllift_analyses::ReachingDefs::new());
    go!("U. Var.", spllift_analyses::UninitVars::new());
    entries
}

/// Order-sensitive `FxHasher64` digest over the solved solution
/// (per-statement reachability constraint + fact rows in fact order),
/// 16 hex digits. Constraint BDDs are hashed with
/// [`spllift_bdd::Bdd::semantic_digest`] — linear in diagram size and a
/// pure function of the boolean function — so equal digests mean
/// semantically identical solutions, and a digest that moves flags a
/// change in results.
///
/// The digest is computed *outside* the timed region. The v3 emitter
/// hashed `to_cube_string()` renderings inside the benched closure;
/// cube enumeration is exponential in features, which inflated
/// BerkeleyDB wall times ~90× and made the recorded numbers useless as
/// a regression baseline.
fn results_digest<D>(
    icfg: &ProgramIcfg<'_>,
    solution: &LiftedSolution<'_, ProgramIcfg<'_>, D, spllift_bdd::Bdd>,
) -> String
where
    D: Clone + Eq + Ord + Hash + std::fmt::Debug,
{
    let mut h = FxHasher64::default();
    for m in icfg.methods() {
        for s in icfg.stmts_of(m) {
            s.to_string().hash(&mut h);
            solution.reachability_of(s).semantic_digest().hash(&mut h);
            let mut rows: Vec<(D, spllift_bdd::Bdd)> = solution.results_at(s).into_iter().collect();
            rows.sort_by(|a, b| a.0.cmp(&b.0));
            for (d, c) in rows {
                format!("{d:?}").hash(&mut h);
                c.semantic_digest().hash(&mut h);
            }
        }
    }
    format!("{:016x}", h.finish())
}

fn measure_one<'g, 'p, P, D>(
    subject: &Subject,
    icfg: &'g ProgramIcfg<'p>,
    label: &str,
    problem: &P,
    samples: usize,
    sample_budget: Option<Duration>,
    inject_slow: Option<Duration>,
) -> SolverBenchEntry
where
    P: for<'x> IfdsProblem<ProgramIcfg<'x>, Fact = D>,
    D: Clone + Eq + Ord + Hash + std::fmt::Debug,
{
    // One manager per subject × analysis: samples share the unique
    // table and op caches, exactly like repeated solves in production.
    let ctx = BddConstraintContext::new(&subject.table);
    let harness =
        Harness::new(format!("solver/{}", subject.name), samples).with_sink(BenchSink::Stderr);
    // The timed closure only solves (plus any injected stall); the last
    // solution is kept aside and digested after the clock stops.
    let slot = RefCell::new(None);
    let wall = harness.bench_adaptive(label, sample_budget, || {
        // The governed entry point with no limits armed, so the
        // measured path is exactly the production server's — an
        // unbudgeted run must record `complete`/`full`.
        let solved = LiftedSolution::solve_governed(
            problem,
            icfg,
            &ctx,
            subject.model.as_ref(),
            ModelMode::OnEdges,
            GovernorOptions::default(),
        )
        .expect("unlimited governed solve cannot abort");
        *slot.borrow_mut() = Some(solved);
        if let Some(stall) = inject_slow {
            std::thread::sleep(stall);
        }
    });
    let (solution, outcome) = slot.into_inner().expect("bench ran at least once");
    SolverBenchEntry {
        subject: subject.name.clone(),
        analysis: label.to_owned(),
        outcome: if outcome.is_degraded() {
            "degraded".to_owned()
        } else {
            "complete".to_owned()
        },
        rung: outcome.rung_name(),
        ide: solution.stats(),
        bdd: ctx.manager().stats(),
        threads: vec![ThreadCell {
            threads: 1,
            wall,
            results_digest: results_digest(icfg, &solution),
        }],
    }
}
