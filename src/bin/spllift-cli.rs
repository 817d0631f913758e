//! `spllift-cli` — analyze a mini-Java product line from the command line.
//!
//! ```text
//! spllift-cli <INPUT> [--analysis taint|types|reaching-defs|uninit]
//!                     [--model <MODEL-FILE>]
//!                     [--format table|dot|leaks|crosscheck|a2-bench]
//!                     [--jobs N] [--max-mismatches N]
//!
//! spllift-cli fuzz   [--seeds A..B] [--jobs N] [--nfeatures N]
//!                    [--nmethods N] [--mutations N] [--budget-secs S]
//!                    [--corpus-dir DIR] [--inject-bug kill-call-to-return]
//!                    [--no-reduce]
//!
//! spllift-cli reduce gen:<seed>:<nfeatures>:<nmethods> [--mutations N]
//! spllift-cli reduce <FILE.repro> [--check <analysis>|interp-taint|interp-uninit]
//!                    [--inject-bug kill-call-to-return]
//!
//! spllift-cli datalog <INPUT> [--jobs N] [--model FILE]
//!                     [--dump-relations] [--crosscheck]
//!
//! <INPUT> is a product-line source file (mini-Java with `#ifdef`
//! annotations), or one of the built-in generated benchmark subjects:
//!
//!   gen:MM08 | gen:GPL | gen:Lampiro | gen:BerkeleyDB
//!   gen:synthetic:<features>:<loc>:<seed>
//!
//! `--format leaks` (taint only) prints one line per possible
//! source-to-sink flow with the feature constraint it happens under.
//!
//! `--format crosscheck` runs the §6.1 bidirectional SPLLIFT ↔ A2
//! cross-check over every valid configuration, sharded across `--jobs`
//! worker threads; mismatch collection stops at `--max-mismatches`
//! (default 100).
//!
//! `--format a2-bench` times the brute-force A2 campaign (one full IFDS
//! solve per valid configuration) sequentially and sharded across
//! `--jobs` threads, and reports the wall-clock speedup.
//!
//! For both parallel formats, stdout carries only the deterministic
//! results — byte-identical for every `--jobs` value — while per-shard
//! wall-clock stats and speedups go to stderr.
//!
//! The `fuzz` subcommand runs the differential fuzzing campaign: seeded
//! random mutated product lines, all five analyses cross-checked against
//! A2 in both directions, the Datalog-backend and variability-abstraction
//! differentials, plus the interpreter-soundness sweep, failures
//! auto-reduced by ddmin. Stdout is the deterministic campaign report
//! (byte-identical for every `--jobs` value when no `--budget-secs` is
//! set); timings go to stderr; the exit code is non-zero iff a seed
//! failed. `--corpus-dir` writes each reduced failure as a `.repro` file.
//!
//! The `reduce` subcommand either prints the repro text of a generated
//! subject (`reduce gen:<seed>:<nfeatures>:<nmethods>`, for seeding
//! `tests/corpus/`), or minimizes a failing `.repro` file against a
//! named check.
//!
//! The `datalog` subcommand runs the lifted Datalog backend's reaching
//! definitions (plus statement/method reachability) on the subject.
//! `--dump-relations` prints every relation tuple with its feature
//! constraint in the round-trippable dump format; `--crosscheck` also
//! solves with the IDE lifting and compares every fact's constraint
//! digest in both directions, exiting non-zero on any disagreement.
//! Stdout is byte-identical for every `--jobs` value.
//! ```
//!
//! Reads the product line, optionally a feature model in the
//! `spllift::features` text format, runs the chosen analysis lifted with
//! SPLLIFT, and prints either the per-statement constraint table or the
//! constraint-labeled exploded supergraph in Graphviz DOT.
//!
//! Example:
//!
//! ```text
//! cargo run --bin spllift-cli -- examples_data/fig1.minijava --analysis taint
//! cargo run --release --bin spllift-cli -- gen:synthetic:6:400:42 --format a2-bench
//! ```

use spllift::analyses::{PossibleTypes, ReachingDefs, TaintAnalysis, UninitVars};
use spllift::benchgen::{parse_subject_spec, GeneratedSpl, SubjectSpec};
use spllift::features::{
    parse_feature_model, BddConstraintContext, Configuration, FeatureExpr, FeatureTable,
};
use spllift::frontend::parse_spl;
use spllift::ifds::IfdsProblem;
use spllift::ir::{Program, ProgramIcfg};
use spllift::lift::{report, LiftedIcfg, LiftedProblem, LiftedSolution, ModelMode};
use spllift::server::{Server, ServerOptions};
use spllift::spl::{
    a2_campaign_parallel, crosscheck_parallel, default_jobs, fuzz_campaign, CrosscheckOutcome,
    FaultPlan, FuzzOptions, InjectedBug, ParallelOptions, ShardStats, DEFAULT_MAX_MISMATCHES,
};
use std::hash::Hash;
use std::process::ExitCode;

/// Printed by `spllift-cli help` (and `--help`/`-h`), and to stderr on
/// an unknown subcommand.
const HELP: &str = "\
spllift-cli — SPLLIFT product-line analysis

USAGE
  spllift-cli <INPUT> [options]         analyze a product line once
  spllift-cli serve [options]           resident analysis server (JSON on stdin/stdout)
  spllift-cli fuzz [options]            differential fuzzing campaign
  spllift-cli reduce <INPUT> [options]  print or minimize a .repro subject
  spllift-cli datalog <INPUT> [options] lifted Datalog backend (second opinion)
  spllift-cli help                      this text (also --help, -h)

INPUT
  A product-line source file (mini-Java with #ifdef annotations), a
  `# spllift repro v1` file, or a generated benchmark subject:
    gen:MM08 | gen:GPL | gen:Lampiro | gen:BerkeleyDB
    gen:synthetic:<features>:<loc>:<seed>

ANALYZE OPTIONS
  --analysis taint|types|reaching-defs|uninit    client analysis (default taint)
  --model FILE            feature model in the spllift text format
  --format table|dot|leaks|crosscheck|a2-bench   output (default table)
  --jobs N                worker threads for crosscheck / a2-bench
  --max-mismatches N      stop collecting crosscheck mismatches after N

SERVE OPTIONS
  --listen ADDR           serve the protocol on a TCP socket (e.g.
                          127.0.0.1:7077; port 0 picks one) instead of
                          stdin/stdout; many concurrent connections
  --jobs N                worker threads for batched queries
  --shards N              executor shards (concurrent session groups)
  --max-inflight N        per-shard in-flight request bound (default 256)
  --cache-entries N       solution-cache entry budget (default 64)
  --cache-bytes N         solution-cache byte budget (default 16777216)
  --solve-timeout-ms N    per-rung wall-clock allowance per solve
  --bdd-node-budget N     per-rung BDD node budget per solve
  --bdd-op-budget N       per-rung BDD operation budget per solve
  --max-propagations N    per-rung phase-1 propagation cap per solve
  --keep-features A,B     features every degraded solve must keep precise:
                          on budget exhaustion the governor abstracts only
                          the *other* features (confound OR groups, project
                          the rest away) before falling to no-model /
                          constraint-true; requests override with
                          \"keep_features\"
  --inject-fault K[@N]    chaos harness: sabotage the N-th analyze (default 1)
                          with K = panic-in-flow | bdd-blowup | slow-edge;
                          budget-exhaust@N instead arms a BDD op budget of
                          exactly N on the first qualifying analyze
  --inject-fault-session NAME  scope the fault trigger to NAME's own
                          analyze ordinal (deterministic under concurrency)
  Line-delimited JSON requests on stdin, one response per line on stdout
  (or per connection under --listen): load, analyze, query, edit, stats,
  evict, shutdown. When a solve exhausts its budget the server descends a
  variability-abstraction lattice (project / join / confound features,
  then no-model, then constraint-true) and flags the weaker answers with
  the exact lattice point. The wire contract lives in docs/PROTOCOL.md.

FUZZ OPTIONS
  --seeds A..B  --jobs N  --nfeatures N  --nmethods N
  --mutations N  --budget-secs S  --corpus-dir DIR
  --inject-bug kill-call-to-return
  --no-reduce

REDUCE
  reduce gen:<seed>:<nfeatures>:<nmethods>        print the repro text
  reduce FILE.repro [--check CHECK] [--mutations N] [--inject-bug ...]

DATALOG OPTIONS
  --jobs N                rule-evaluation worker threads; stdout is
                          byte-identical at every N
  --model FILE            feature model (file inputs only)
  --dump-relations        print every relation tuple with its feature
                          constraint (round-trippable dump format)
  --crosscheck            also solve with the IDE lifting and compare
                          every fact's constraint digest, both directions
";

/// `true` for a first argument that reads as a subcommand word rather
/// than an input path (`fig1.minijava`, `dir/file`, `gen:MM08`).
fn looks_like_subcommand(arg: &str) -> bool {
    !arg.starts_with('-') && !arg.contains('.') && !arg.contains('/') && !arg.starts_with("gen:")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("help" | "--help" | "-h") => {
            print!("{HELP}");
            return ExitCode::SUCCESS;
        }
        Some("fuzz") => run_fuzz(&args[1..]),
        Some("reduce") => run_reduce(&args[1..]),
        Some("serve") => run_serve(&args[1..]),
        Some("datalog") => run_datalog(&args[1..]),
        Some(cmd) if looks_like_subcommand(cmd) => {
            eprintln!("spllift-cli: unknown subcommand `{cmd}`\n");
            eprint!("{HELP}");
            return ExitCode::from(2);
        }
        _ => run(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("spllift-cli: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run_serve(args: &[String]) -> Result<(), String> {
    let mut opts = ServerOptions::default();
    let mut listen: Option<String> = None;
    let mut args = args.iter().cloned();
    let positive = |flag: &str, v: Option<String>| -> Result<usize, String> {
        let v = v.ok_or(format!("{flag} needs a value"))?;
        v.parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or(format!("{flag} needs a positive integer, got `{v}`"))
    };
    let positive_u64 = |flag: &str, v: Option<String>| -> Result<u64, String> {
        let v = v.ok_or(format!("{flag} needs a value"))?;
        v.parse::<u64>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or(format!("{flag} needs a positive integer, got `{v}`"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => listen = Some(args.next().ok_or("--listen needs an address")?),
            "--jobs" => opts.jobs = positive("--jobs", args.next())?,
            "--shards" => opts.shards = positive("--shards", args.next())?,
            "--max-inflight" => opts.max_inflight = positive("--max-inflight", args.next())?,
            "--cache-entries" => opts.cache_entries = positive("--cache-entries", args.next())?,
            "--cache-bytes" => opts.cache_bytes = positive("--cache-bytes", args.next())?,
            "--solve-timeout-ms" => {
                opts.solve_timeout_ms = Some(positive_u64("--solve-timeout-ms", args.next())?)
            }
            "--bdd-node-budget" => {
                opts.bdd_node_budget = Some(positive_u64("--bdd-node-budget", args.next())?)
            }
            "--bdd-op-budget" => {
                opts.bdd_op_budget = Some(positive_u64("--bdd-op-budget", args.next())?)
            }
            "--max-propagations" => {
                opts.max_propagations = Some(positive_u64("--max-propagations", args.next())?)
            }
            "--inject-fault" => {
                let v = args.next().ok_or("--inject-fault needs a value")?;
                opts.inject_fault =
                    Some(FaultPlan::parse(&v).map_err(|e| format!("--inject-fault: {e}"))?);
            }
            "--inject-fault-session" => {
                opts.fault_session =
                    Some(args.next().ok_or("--inject-fault-session needs a name")?);
            }
            "--keep-features" => {
                let v = args
                    .next()
                    .ok_or("--keep-features needs a comma-separated feature list")?;
                let names: Vec<String> = v
                    .split(',')
                    .map(str::trim)
                    .filter(|n| !n.is_empty())
                    .map(str::to_owned)
                    .collect();
                if names.is_empty() {
                    return Err("--keep-features needs at least one feature name".into());
                }
                opts.keep_features = Some(names);
            }
            other => {
                return Err(format!(
                    "unexpected serve argument `{other}` (try `spllift-cli help`)"
                ))
            }
        }
    }
    if let Some(addr) = listen {
        let server = spllift::server::SocketServer::spawn(opts, &addr)
            .map_err(|e| format!("serve --listen {addr}: {e}"))?;
        eprintln!("serve: listening on {}", server.addr());
        server.join();
        return Ok(());
    }
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    Server::new(opts)
        .run(stdin.lock(), stdout.lock())
        .map_err(|e| format!("serve: {e}"))
}

struct Options {
    file: String,
    analysis: String,
    model_file: Option<String>,
    format: String,
    jobs: usize,
    max_mismatches: usize,
}

/// Parses the analyze-mode arguments; `Ok(None)` means `--help` was
/// requested (the caller prints [`HELP`] and exits successfully).
fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut args = args.iter().cloned();
    let mut file = None;
    let mut analysis = "taint".to_owned();
    let mut model_file = None;
    let mut format = "table".to_owned();
    let mut jobs = default_jobs();
    let mut max_mismatches = DEFAULT_MAX_MISMATCHES;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--analysis" => {
                analysis = args.next().ok_or("--analysis needs a value")?;
            }
            "--model" => {
                model_file = Some(args.next().ok_or("--model needs a file")?);
            }
            "--format" => {
                format = args.next().ok_or("--format needs a value")?;
            }
            "--jobs" => {
                let v = args.next().ok_or("--jobs needs a thread count")?;
                jobs = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&j| j >= 1)
                    .ok_or(format!("--jobs needs a positive integer, got `{v}`"))?;
            }
            "--max-mismatches" => {
                let v = args.next().ok_or("--max-mismatches needs a count")?;
                max_mismatches = v.parse::<usize>().ok().filter(|&m| m >= 1).ok_or(format!(
                    "--max-mismatches needs a positive integer, got `{v}`"
                ))?;
            }
            "--help" | "-h" => return Ok(None),
            other if !other.starts_with('-') && file.is_none() => {
                file = Some(other.to_owned());
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(Some(Options {
        file: file.ok_or("missing input file (try `spllift-cli help`)")?,
        analysis,
        model_file,
        format,
        jobs,
        max_mismatches,
    }))
}

/// A fully loaded product line, whichever way it came in.
struct Loaded {
    program: Program,
    table: FeatureTable,
    model: Option<FeatureExpr>,
    /// Pre-enumerated valid configurations, for `gen:` inputs.
    configs: Option<Vec<Configuration>>,
}

fn parse_gen_spec(s: &str) -> Result<SubjectSpec, String> {
    // One grammar for every front end (see spllift::benchgen docs):
    //   MM08|GPL|Lampiro|BerkeleyDB
    //   synthetic:<features>:<loc>:<seed>[:model=free|chain|groups][:depth=N]
    parse_subject_spec(s)
}

fn load(opts: &Options) -> Result<Loaded, String> {
    if let Some(spec) = opts.file.strip_prefix("gen:") {
        if opts.model_file.is_some() {
            return Err(
                "--model cannot be combined with gen: inputs (the generated feature model is used)"
                    .into(),
            );
        }
        let spl = GeneratedSpl::generate(parse_gen_spec(spec)?);
        let model = Some(spl.model_expr());
        let configs = (spl.reachable.len() <= 20).then(|| spl.valid_configurations());
        let GeneratedSpl { program, table, .. } = spl;
        return Ok(Loaded {
            program,
            table,
            model,
            configs,
        });
    }
    let source = std::fs::read_to_string(&opts.file)
        .map_err(|e| format!("cannot read {}: {e}", opts.file))?;
    let mut table = FeatureTable::new();
    let program = parse_spl(&source, &mut table).map_err(|e| format!("{}: {e}", opts.file))?;
    let model: Option<FeatureExpr> = match &opts.model_file {
        None => None,
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let m = parse_feature_model(&text, &mut table).map_err(|e| format!("{path}: {e}"))?;
            Some(m.to_expr())
        }
    };
    Ok(Loaded {
        program,
        table,
        model,
        configs: None,
    })
}

/// The valid configurations to brute-force over: pre-enumerated for
/// `gen:` inputs, every model-satisfying assignment for file inputs.
fn configurations(loaded: &Loaded) -> Result<Vec<Configuration>, String> {
    if let Some(configs) = &loaded.configs {
        return Ok(configs.clone());
    }
    let n = loaded.table.iter().count();
    if n > 16 {
        return Err(format!(
            "refusing to enumerate 2^{n} configurations; use a gen: subject instead"
        ));
    }
    let mut out = Vec::new();
    for bits in 0u64..(1u64 << n) {
        let cfg = Configuration::from_bits(bits, n);
        if loaded.model.as_ref().is_none_or(|m| cfg.satisfies(m)) {
            out.push(cfg);
        }
    }
    Ok(out)
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(opts) = parse_args(args)? else {
        print!("{HELP}");
        return Ok(());
    };
    let loaded = load(&opts)?;
    if loaded.program.entry_points().is_empty() {
        return Err("no entry point: declare a method named `main`".into());
    }
    let icfg = ProgramIcfg::new(&loaded.program);

    match opts.format.as_str() {
        "crosscheck" => return run_crosscheck(&opts, &icfg, &loaded),
        "a2-bench" => return run_a2_bench(&opts, &icfg, &loaded),
        _ => {}
    }

    let ctx = BddConstraintContext::new(&loaded.table);
    let model = &loaded.model;
    if opts.format == "leaks" {
        if opts.analysis != "taint" {
            return Err("--format leaks requires --analysis taint".into());
        }
        return emit_leaks(&icfg, &ctx, model);
    }
    match opts.analysis.as_str() {
        "taint" => emit(&opts, &icfg, &ctx, &TaintAnalysis::secret_to_print(), model),
        "types" => emit(&opts, &icfg, &ctx, &PossibleTypes::new(), model),
        "reaching-defs" => emit(&opts, &icfg, &ctx, &ReachingDefs::new(), model),
        "uninit" => emit(&opts, &icfg, &ctx, &UninitVars::new(), model),
        other => Err(format!(
            "unknown analysis `{other}` (taint|types|reaching-defs|uninit)"
        )),
    }
}

fn print_shards(label: &str, shards: &[ShardStats]) {
    for s in shards {
        eprintln!(
            "  {label} shard {:>2}: {:>6} items in {:>10.3?}",
            s.shard, s.items, s.wall
        );
    }
}

/// `--format crosscheck`: the §6.1 bidirectional SPLLIFT ↔ A2 check over
/// every valid configuration, sharded across `--jobs` worker threads.
/// Results go to stdout (deterministic across `--jobs`), per-shard
/// timings to stderr.
fn run_crosscheck(opts: &Options, icfg: &ProgramIcfg<'_>, loaded: &Loaded) -> Result<(), String> {
    let configs = configurations(loaded)?;
    let popts = ParallelOptions {
        jobs: opts.jobs,
        max_mismatches: opts.max_mismatches,
    };
    let model = loaded.model.as_ref();
    let make_ctx = || BddConstraintContext::new(&loaded.table);
    let outcome: CrosscheckOutcome = match opts.analysis.as_str() {
        "taint" => crosscheck_parallel(
            icfg,
            &TaintAnalysis::secret_to_print(),
            make_ctx,
            model,
            &configs,
            &popts,
        ),
        "types" => crosscheck_parallel(
            icfg,
            &PossibleTypes::new(),
            make_ctx,
            model,
            &configs,
            &popts,
        ),
        "reaching-defs" => crosscheck_parallel(
            icfg,
            &ReachingDefs::new(),
            make_ctx,
            model,
            &configs,
            &popts,
        ),
        "uninit" => {
            crosscheck_parallel(icfg, &UninitVars::new(), make_ctx, model, &configs, &popts)
        }
        other => {
            return Err(format!(
                "unknown analysis `{other}` (taint|types|reaching-defs|uninit)"
            ))
        }
    };
    eprintln!(
        "crosscheck: {} configurations across {} worker thread(s), wall {:.3?}",
        configs.len(),
        outcome.jobs,
        outcome.wall
    );
    print_shards("crosscheck", &outcome.shards);
    println!(
        "crosscheck: {} analysis over {} valid configurations",
        opts.analysis,
        configs.len()
    );
    if outcome.mismatches.is_empty() {
        println!("OK: SPLLIFT and A2 agree on every configuration");
        Ok(())
    } else {
        for m in &outcome.mismatches {
            println!("MISMATCH: {m}");
        }
        let capped = if outcome.mismatches.len() == opts.max_mismatches {
            " (cap reached)"
        } else {
            ""
        };
        println!("{} mismatch(es){capped}", outcome.mismatches.len());
        Err(format!(
            "crosscheck found {} mismatch(es)",
            outcome.mismatches.len()
        ))
    }
}

/// `--format a2-bench`: times the brute-force A2 campaign sequentially
/// and sharded across `--jobs` threads, reporting the wall-clock
/// speedup on stderr. Stdout carries only the configuration count and
/// the order-independent fact checksum, which are `--jobs`-invariant.
fn run_a2_bench(opts: &Options, icfg: &ProgramIcfg<'_>, loaded: &Loaded) -> Result<(), String> {
    let configs = configurations(loaded)?;
    macro_rules! campaign {
        ($p:expr) => {{
            let p = $p;
            (a2_campaign_parallel(icfg, &p, &configs, 1), {
                a2_campaign_parallel(icfg, &p, &configs, opts.jobs)
            })
        }};
    }
    let (seq, par) = match opts.analysis.as_str() {
        "taint" => campaign!(TaintAnalysis::secret_to_print()),
        "types" => campaign!(PossibleTypes::new()),
        "reaching-defs" => campaign!(ReachingDefs::new()),
        "uninit" => campaign!(UninitVars::new()),
        other => {
            return Err(format!(
                "unknown analysis `{other}` (taint|types|reaching-defs|uninit)"
            ))
        }
    };
    if seq.facts != par.facts {
        return Err(format!(
            "a2-bench determinism violation: sequential checksum {} != parallel checksum {}",
            seq.facts, par.facts
        ));
    }
    eprintln!("a2-bench: jobs=1 wall {:.3?}", seq.wall);
    print_shards("jobs=1", &seq.shards);
    eprintln!("a2-bench: jobs={} wall {:.3?}", par.jobs, par.wall);
    print_shards(&format!("jobs={}", par.jobs), &par.shards);
    eprintln!(
        "a2-bench: speedup {:.2}x at {} threads",
        seq.wall.as_secs_f64() / par.wall.as_secs_f64().max(1e-9),
        par.jobs
    );
    println!(
        "a2-bench: {} analysis, {} valid configurations, facts checksum {}",
        opts.analysis,
        configs.len(),
        par.facts
    );
    Ok(())
}

fn emit<P, D>(
    opts: &Options,
    icfg: &ProgramIcfg<'_>,
    ctx: &BddConstraintContext,
    problem: &P,
    model: &Option<FeatureExpr>,
) -> Result<(), String>
where
    P: for<'p> IfdsProblem<ProgramIcfg<'p>, Fact = D>,
    D: Clone + Eq + Ord + Hash + std::fmt::Debug,
{
    let solution = LiftedSolution::solve(problem, icfg, ctx, model.as_ref(), ModelMode::OnEdges);
    match opts.format.as_str() {
        "table" => {
            print!(
                "{}",
                report::constraints_table(&solution, icfg, |c| c.to_cube_string())
            );
            Ok(())
        }
        "dot" => {
            let lifted_icfg = LiftedIcfg::new(icfg);
            let lifted = LiftedProblem::new(problem, icfg, ctx, model.as_ref(), ModelMode::OnEdges);
            println!(
                "{}",
                report::lifted_supergraph_dot(
                    &lifted,
                    &lifted_icfg,
                    |s| solution.results_at(s).into_keys().collect(),
                    |c| c.to_cube_string(),
                )
            );
            Ok(())
        }
        other => Err(format!(
            "unknown format `{other}` (table|dot|leaks|crosscheck|a2-bench)"
        )),
    }
}

/// Prints each sink call whose argument may be tainted, with the exact
/// feature constraint — the headline output of the paper's Figure 1.
fn emit_leaks(
    icfg: &ProgramIcfg<'_>,
    ctx: &BddConstraintContext,
    model: &Option<FeatureExpr>,
) -> Result<(), String> {
    use spllift::analyses::TaintFact;
    use spllift::ifds::Icfg as _;
    use spllift::ir::{Operand, StmtKind};
    let analysis = TaintAnalysis::secret_to_print();
    let solution = LiftedSolution::solve(&analysis, icfg, ctx, model.as_ref(), ModelMode::OnEdges);
    let mut found = 0;
    for m in icfg.methods() {
        for s in icfg.stmts_of(m) {
            let StmtKind::Invoke { args, .. } = &icfg.program().stmt(s).kind else {
                continue;
            };
            for arg in args {
                let Operand::Local(l) = arg else { continue };
                let c = solution.constraint_of(s, &TaintFact::Local(*l));
                if !c.is_false() {
                    // Only report at *sink* calls; cheap name check.
                    let label = icfg.stmt_label(s);
                    if label.contains("print(") {
                        found += 1;
                        println!("LEAK at [{label}] iff {}", c.to_cube_string());
                    }
                }
            }
        }
    }
    if found == 0 {
        println!("no source-to-sink flows in any configuration");
    }
    Ok(())
}

/// Parses `A..B` into a half-open seed range.
fn parse_seed_range(s: &str) -> Result<(u64, u64), String> {
    let (a, b) = s
        .split_once("..")
        .ok_or_else(|| format!("--seeds takes A..B (half-open), got `{s}`"))?;
    let parse = |v: &str| {
        v.parse::<u64>()
            .map_err(|_| format!("--seeds bound must be an integer, got `{v}`"))
    };
    let (start, end) = (parse(a)?, parse(b)?);
    if start >= end {
        return Err(format!("--seeds range `{s}` is empty"));
    }
    Ok((start, end))
}

fn parse_injected_bug(v: &str) -> Result<InjectedBug, String> {
    match v {
        "kill-call-to-return" => Ok(InjectedBug::KillAtCallToReturn),
        other => Err(format!(
            "unknown --inject-bug `{other}` (kill-call-to-return)"
        )),
    }
}

/// `spllift-cli fuzz`: the differential fuzzing campaign. Stdout is the
/// deterministic report; per-shard timings go to stderr; exit code 2 if
/// any seed failed.
fn run_fuzz(args: &[String]) -> Result<(), String> {
    let mut opts = FuzzOptions::default();
    let mut corpus_dir: Option<String> = None;
    let mut args = args.iter().cloned();
    while let Some(arg) = args.next() {
        let mut int_flag = |what: &str| -> Result<usize, String> {
            let v = args.next().ok_or(format!("{what} needs a value"))?;
            v.parse::<usize>()
                .map_err(|_| format!("{what} needs an integer, got `{v}`"))
        };
        match arg.as_str() {
            "--seeds" => {
                let v = args.next().ok_or("--seeds needs a range A..B")?;
                (opts.seed_start, opts.seed_end) = parse_seed_range(&v)?;
            }
            "--jobs" => opts.jobs = int_flag("--jobs")?.max(1),
            "--nfeatures" => opts.nfeatures = int_flag("--nfeatures")?,
            "--nmethods" => opts.nmethods = int_flag("--nmethods")?,
            "--mutations" => opts.mutations = int_flag("--mutations")?,
            "--max-mismatches" => opts.max_mismatches = int_flag("--max-mismatches")?.max(1),
            "--budget-secs" => {
                opts.budget = Some(std::time::Duration::from_secs(
                    int_flag("--budget-secs")? as u64
                ));
            }
            "--inject-bug" => {
                let v = args.next().ok_or("--inject-bug needs a value")?;
                opts.bug = parse_injected_bug(&v)?;
            }
            "--no-reduce" => opts.reduce_failures = false,
            "--corpus-dir" => {
                corpus_dir = Some(args.next().ok_or("--corpus-dir needs a directory")?);
            }
            other => return Err(format!("unexpected fuzz argument `{other}` (try --help)")),
        }
    }

    let report = fuzz_campaign(&opts);
    eprintln!(
        "fuzz: {} seeds across {} worker thread(s), wall {:.3?}",
        report.verdicts.len() + report.skipped.len(),
        report.jobs,
        report.wall
    );
    print_shards("fuzz", &report.shards);
    print!("{}", report.render());

    if let Some(dir) = corpus_dir {
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
        for f in &report.failures {
            let path = format!("{dir}/fuzz-seed{}-{}.repro", f.seed, f.analysis);
            std::fs::write(&path, &f.reduced.repro)
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("fuzz: wrote reduced repro to {path}");
        }
    }

    if report.ok() {
        Ok(())
    } else {
        let failed = report.verdicts.iter().filter(|v| !v.ok()).count();
        Err(format!("fuzz campaign found {failed} failing seed(s)"))
    }
}

/// `spllift-cli datalog`: the lifted Datalog backend. Runs the
/// declarative reaching-definitions + reachability program, prints a
/// deterministic summary (and optionally the full relation dump), and
/// with `--crosscheck` compares every fact's constraint against the
/// IDE lifting in both directions. Stdout is byte-identical for every
/// `--jobs` value.
fn run_datalog(args: &[String]) -> Result<(), String> {
    use spllift::datalog::{solve_reaching_defs, DumpDoc, EvalOptions, RelId};
    use spllift::ifds::Icfg as _;

    let mut file: Option<String> = None;
    let mut model_file: Option<String> = None;
    let mut jobs = default_jobs();
    let mut dump_relations = false;
    let mut crosscheck = false;
    let mut args = args.iter().cloned();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" => {
                let v = args.next().ok_or("--jobs needs a thread count")?;
                jobs = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&j| j >= 1)
                    .ok_or(format!("--jobs needs a positive integer, got `{v}`"))?;
            }
            "--model" => model_file = Some(args.next().ok_or("--model needs a file")?),
            "--dump-relations" => dump_relations = true,
            "--crosscheck" => crosscheck = true,
            other if !other.starts_with('-') && file.is_none() => file = Some(other.to_owned()),
            other => {
                return Err(format!(
                    "unexpected datalog argument `{other}` (try --help)"
                ))
            }
        }
    }
    let opts = Options {
        file: file.ok_or("datalog needs an input (try `spllift-cli help`)")?,
        analysis: "reaching-defs".to_owned(),
        model_file,
        format: "table".to_owned(),
        jobs,
        max_mismatches: DEFAULT_MAX_MISMATCHES,
    };
    let loaded = load(&opts)?;
    if loaded.program.entry_points().is_empty() {
        return Err("no entry point: declare a method named `main`".into());
    }
    let icfg = ProgramIcfg::new(&loaded.program);
    let ctx = BddConstraintContext::new(&loaded.table);
    let model = loaded.model.as_ref();
    let sol = solve_reaching_defs(&icfg, &ctx, model, &EvalOptions { jobs })
        .map_err(|e| format!("datalog: {e}"))?;

    if dump_relations {
        print!(
            "{}",
            DumpDoc::from_solution(&sol, &ctx, &loaded.table).render()
        );
    }
    let stats = sol.stats();
    println!(
        "datalog: {} strata, {} rounds, {} derivations, {} tuples",
        stats.strata, stats.rounds, stats.derivations, stats.tuples
    );
    let program = sol.program();
    for r in 0..program.relation_count() {
        let rel = RelId(r);
        println!(
            "  {}/{}: {} tuples",
            program.relation_name(rel),
            program.arity(rel),
            sol.database().len(rel)
        );
    }
    let reachable = sol.reachable_methods();
    println!(
        "datalog: {} of {} methods reachable",
        reachable.len(),
        icfg.methods().len()
    );

    if !crosscheck {
        return Ok(());
    }
    let mode = if model.is_some() {
        ModelMode::OnEdges
    } else {
        ModelMode::Ignore
    };
    let ide = LiftedSolution::solve(&ReachingDefs::new(), &icfg, &ctx, model, mode);
    let mut facts = 0usize;
    let mut mismatches = 0usize;
    for m in icfg.methods() {
        for s in icfg.stmts_of(m) {
            let want = ide.results_at(s);
            let got = sol.reaching_at(s);
            let mut keys: Vec<_> = want
                .keys()
                .copied()
                .chain(got.iter().map(|(f, _)| *f))
                .collect();
            keys.sort();
            keys.dedup();
            for fact in keys {
                facts += 1;
                let ide_digest = want.get(&fact).map(|c| c.semantic_digest());
                let dl_digest = sol
                    .reaching_constraint(s, &fact)
                    .map(|c| c.semantic_digest());
                if ide_digest != dl_digest {
                    mismatches += 1;
                    println!(
                        "MISMATCH at [{}] fact {:?}: ide={:?} datalog={:?}",
                        icfg.stmt_label(s),
                        fact,
                        ide_digest,
                        dl_digest
                    );
                }
            }
            let ide_reach = ide.reachability_of(s);
            let dl_reach_digest = sol.reachability_of(s).map(|c| c.semantic_digest());
            let ide_reach_digest = (!ide_reach.is_false()).then(|| ide_reach.semantic_digest());
            if dl_reach_digest != ide_reach_digest {
                mismatches += 1;
                println!(
                    "MISMATCH at [{}] reachability: ide={:?} datalog={:?}",
                    icfg.stmt_label(s),
                    ide_reach_digest,
                    dl_reach_digest
                );
            }
        }
    }
    if mismatches == 0 {
        println!("crosscheck: SPLLIFT and Datalog agree on all {facts} fact constraints");
        Ok(())
    } else {
        println!("crosscheck: {mismatches} mismatch(es) over {facts} fact constraints");
        Err(format!(
            "datalog crosscheck found {mismatches} mismatch(es)"
        ))
    }
}

/// `spllift-cli reduce`: print the repro text of a generated subject
/// (`gen:` input), or ddmin-minimize a failing `.repro` file.
fn run_reduce(args: &[String]) -> Result<(), String> {
    use spllift::benchgen::{reduce, ReduceOptions};
    use spllift::ir::text::{parse_repro, to_repro_string};
    use spllift::spl::{check_program, failure_persists, subject_for_seed};

    let mut input: Option<String> = None;
    let mut check: Option<String> = None;
    let mut mutations = 0usize;
    let mut bug = InjectedBug::None;
    let mut args = args.iter().cloned();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = Some(args.next().ok_or("--check needs a value")?),
            "--mutations" => {
                let v = args.next().ok_or("--mutations needs a value")?;
                mutations = v
                    .parse()
                    .map_err(|_| format!("--mutations needs an integer, got `{v}`"))?;
            }
            "--inject-bug" => {
                let v = args.next().ok_or("--inject-bug needs a value")?;
                bug = parse_injected_bug(&v)?;
            }
            other if !other.starts_with('-') && input.is_none() => input = Some(other.to_owned()),
            other => return Err(format!("unexpected reduce argument `{other}` (try --help)")),
        }
    }
    let input = input.ok_or("reduce needs an input: gen:SEED:NF:NM or FILE.repro (try --help)")?;

    // gen: mode — emit the repro text of a (possibly mutated) generated
    // subject. This is the corpus-seeding tool.
    if let Some(spec) = input.strip_prefix("gen:") {
        let parts: Vec<&str> = spec.split(':').collect();
        let [seed, nf, nm] = parts.as_slice() else {
            return Err("reduce gen: takes gen:<seed>:<nfeatures>:<nmethods>".into());
        };
        let parse = |what: &str, v: &str| -> Result<usize, String> {
            v.parse()
                .map_err(|_| format!("gen: {what} must be an integer, got `{v}`"))
        };
        let fopts = FuzzOptions {
            seed_start: 0,
            seed_end: 1,
            nfeatures: parse("nfeatures", nf)?,
            nmethods: parse("nmethods", nm)?,
            mutations,
            ..FuzzOptions::default()
        };
        let spl = subject_for_seed(parse("seed", seed)? as u64, &fopts);
        let repro = to_repro_string(&spl.program, &spl.table)
            .map_err(|e| format!("generated subject outside the repro subset: {e}"))?;
        print!("{repro}");
        return Ok(());
    }

    // File mode — parse, find (or take) the failing check, minimize.
    let text = std::fs::read_to_string(&input).map_err(|e| format!("cannot read {input}: {e}"))?;
    let (program, table) = parse_repro(&text).map_err(|e| format!("{input}: {e}"))?;
    let features: Vec<_> = table.iter().map(|(f, _)| f).collect();
    let (analysis, dynamic) = match check.as_deref() {
        Some("interp-taint") => ("taint".to_owned(), true),
        Some("interp-uninit") => ("uninit".to_owned(), true),
        Some(name) => (name.to_owned(), false),
        None => {
            // No check named: pick the first failing one. Stand-alone
            // repro files carry no campaign seed, so the abstraction
            // differential's lattice-point stream is seeded with 0.
            let (verdicts, unpredicted) = check_program(&program, &table, &features, 0, bug, 1);
            if let Some(v) = verdicts.iter().find(|v| !v.mismatches.is_empty()) {
                (v.analysis.to_owned(), false)
            } else if let Some(u) = unpredicted.first() {
                (u.analysis.to_owned(), true)
            } else {
                return Err(format!(
                    "{input} passes every check; nothing to reduce (name one with --check, or use --inject-bug)"
                ));
            }
        }
    };
    if !failure_persists(&program, &table, &features, 0, bug, &analysis, dynamic) {
        return Err(format!(
            "{input} does not fail the `{analysis}` check; nothing to reduce"
        ));
    }
    let mut oracle = |p: &spllift::ir::Program, feats: &[spllift::features::FeatureId]| {
        failure_persists(p, &table, feats, 0, bug, &analysis, dynamic)
    };
    let out = reduce(
        &program,
        &table,
        &features,
        &mut oracle,
        ReduceOptions::default(),
    );
    eprintln!(
        "reduce: {} check, {} -> {} payload stmts in {} oracle runs",
        analysis,
        spllift::benchgen::payload_stmt_count(&program),
        out.payload_stmts,
        out.oracle_runs
    );
    print!("{}", out.repro);
    Ok(())
}
