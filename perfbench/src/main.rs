//! The benchmark's worker: set-ups, in-process operations, the traced
//! replays, and the TCP client of the `server-session` workload. It is
//! started by `run.py`, which owns process management and statistics;
//! each subcommand prints one JSON object of raw measurements on its
//! last line of standard output.
//!
//! ```text
//! spllift-perfbench setup --workload cli-table|datalog-reach
//! spllift-perfbench op    --workload datalog-reach --subject S --want DIGEST
//! spllift-perfbench trace --workload datalog-reach --trace FILE
//! spllift-perfbench trace --workload cli-table --trace FILE --seed N --pins PINS --refs BENCH_solver.json
//! spllift-perfbench trace --workload server-session --trace FILE --seed N --pins PINS
//! spllift-perfbench server-client --addr HOST:PORT --seed N --seconds S --pins PINS [--load-only] [--rounds R]
//! spllift-perfbench pin-server
//! ```

mod lib_solve;
mod server;
mod sha256;
mod trace;

use lib_solve::{check_parse, load, ms_since, solve, Analysis, Prepared, Render, Solved};
use spllift_bdd::Bdd;
use spllift_core::{LiftedSolution, ModelMode};
use spllift_datalog::{solve_reaching_defs, DatalogSolution, EvalOptions};
use spllift_features::BddConstraintContext;
use spllift_hash::FxHasher64;
use spllift_ifds::Icfg;
use spllift_ir::ProgramIcfg;
use spllift_json::{parse_json, Json};
use spllift_rng::SplitMix64;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Rounds per client lane at least, as `run.py` runs for the other
/// workloads, so that the median round rate sets a stalled round aside.
const MIN_ROUNDS: u64 = 3;

/// Set-ups per `setup` worker run. `run.py` starts one before every
/// round, so that the set-ups of a run spread over its whole pass.
const SETUPS: usize = 2;

/// The paper's four subjects, in Table 1 order: the subjects of the
/// `cli-table` commands.
const SUBJECTS: [&str; 4] = ["MM08", "GPL", "Lampiro", "BerkeleyDB"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(out) => {
            println!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[derive(Default)]
struct Args {
    seed: u64,
    seconds: f64,
    refs: Option<String>,
    pins: Option<String>,
    trace: Option<String>,
    addr: Option<String>,
    workload: Option<String>,
    subject: Option<String>,
    want: Option<String>,
    load_only: bool,
    rounds: Option<u64>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        seconds: 10.0,
        ..Args::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--rounds" => a.rounds = Some(value()?.parse().map_err(|e| format!("--rounds: {e}"))?),
            "--refs" => a.refs = Some(value()?),
            "--pins" => a.pins = Some(value()?),
            "--trace" => a.trace = Some(value()?),
            "--addr" => a.addr = Some(value()?),
            "--workload" => a.workload = Some(value()?),
            "--subject" => a.subject = Some(value()?),
            "--want" => a.want = Some(value()?),
            "--load-only" => a.load_only = true,
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// Raw measurements of one worker run.
#[derive(Default)]
struct Report {
    /// Wall time of each repeated set-up, in seconds.
    setup_s: Vec<f64>,
    /// `(kind, latency ms, error)` of every operation of the pass.
    ops: Vec<(String, f64, Option<String>)>,
    /// Server pass: `(lane, correct operations, seconds)` of every round.
    rounds: Vec<(usize, usize, f64)>,
    /// Exact work counts.
    counts: BTreeMap<String, f64>,
    /// `datalog-reach` set-up: the IDE reference digest of each subject.
    digests: BTreeMap<String, String>,
    /// Traced runs: wall seconds of the same pass without and with spans.
    untraced_s: Option<f64>,
    traced_s: Option<f64>,
}

impl Report {
    fn count(&mut self, key: &str, v: f64) {
        *self.counts.entry(key.to_owned()).or_default() += v;
    }

    fn count_solve(&mut self, s: &Solved) {
        self.count("ide.propagations", s.ide.propagations as f64);
        self.count("ide.flow_evals", s.ide.flow_evals as f64);
        self.count(
            "ide.jump_fn_constructions",
            s.ide.jump_fn_constructions as f64,
        );
        self.count("ide.killed_early", s.ide.killed_early as f64);
        self.count("ide.value_updates", s.ide.value_updates as f64);
        self.count("bdd.nodes", s.bdd.nodes as f64);
        self.count("bdd.cache_entries", s.bdd.cache_entries as f64);
    }

    fn render(&self) -> String {
        let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
        let opt = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
        let ops = self
            .ops
            .iter()
            .map(|(k, ms, e)| {
                Json::Arr(vec![
                    Json::str(k.as_str()),
                    Json::Num(*ms),
                    e.as_ref().map_or(Json::Null, |e| Json::str(e.as_str())),
                ])
            })
            .collect();
        let counts = self
            .counts
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v)))
            .collect();
        Json::Obj(vec![
            ("setup_s".into(), nums(&self.setup_s)),
            (
                "rounds".into(),
                Json::Arr(
                    self.rounds
                        .iter()
                        .map(|&(lane, ok, s)| {
                            Json::Arr(vec![
                                Json::num(lane as u64),
                                Json::num(ok as u64),
                                Json::Num(s),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("ops".into(), Json::Arr(ops)),
            ("counts".into(), Json::Obj(counts)),
            (
                "digests".into(),
                Json::Obj(
                    self.digests
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::str(v.as_str())))
                        .collect(),
                ),
            ),
            ("untraced_s".into(), opt(self.untraced_s)),
            ("traced_s".into(), opt(self.traced_s)),
        ])
        .render()
    }
}

fn run(args: &[String]) -> Result<String, String> {
    let (cmd, rest) = args.split_first().ok_or("missing subcommand")?;
    let a = parse_args(rest)?;
    if cmd == "pin-server" {
        return pin_server();
    }
    let report = match (cmd.as_str(), a.workload.as_deref(), a.trace.as_deref()) {
        ("setup", _, _) => setup(&a),
        ("op", Some("datalog-reach"), _) => datalog_op(&a),
        ("trace", Some("datalog-reach"), Some(path)) => datalog_trace(path),
        ("trace", Some("cli-table"), Some(path)) => cli_replay(&a, path),
        ("trace", Some("server-session"), Some(path)) => server_replay(&a, path),
        ("server-client", _, _) => server_client(&a),
        _ => Err(format!(
            "unknown subcommand or missing --workload/--trace: {args:?}"
        )),
    }?;
    Ok(report.render())
}

fn s_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Seeded Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// `results_digest` values at one thread from `BENCH_solver.json`, keyed
/// by `(subject, analysis label)`.
fn read_refs(path: &str) -> Result<BTreeMap<(String, String), String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = parse_json(&text)?;
    let mut refs = BTreeMap::new();
    for e in doc
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or("refs: no entries")?
    {
        let field = |k: &str| {
            e.get(k)
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_owned()
        };
        for cell in e.get("threads").and_then(Json::as_arr).unwrap_or(&[]) {
            if cell.get("threads").and_then(Json::as_u64) == Some(1) {
                if let Some(d) = cell.get("results_digest").and_then(Json::as_str) {
                    refs.insert((field("subject"), field("analysis")), d.to_owned());
                }
            }
        }
    }
    Ok(refs)
}

/// Checks a solve's digest against the committed one in `refs`.
fn check_solve(
    refs: &BTreeMap<(String, String), String>,
    subject: &str,
    an: Analysis,
    s: &Solved,
) -> Result<Option<String>, String> {
    let want = refs
        .get(&(subject.to_owned(), an.label().to_owned()))
        .ok_or(format!("refs: no digest for {subject} {}", an.label()))?;
    Ok((&s.digest != want)
        .then(|| format!("{subject} {}: digest {} != {want}", an.label(), s.digest)))
}

/// Order-independent summary of a reaching-definitions result: per
/// statement, the reachability constraint and every fact's constraint,
/// each by its semantic digest. False constraints count as absent.
fn reach_digest(
    icfg: &ProgramIcfg<'_>,
    rows_at: impl Fn(spllift_ir::StmtRef) -> (Option<Bdd>, Vec<(spllift_analyses::DefFact, Bdd)>),
) -> u64 {
    let mut h = FxHasher64::default();
    for m in icfg.methods() {
        for s in icfg.stmts_of(m) {
            let (reach, mut rows) = rows_at(s);
            s.to_string().hash(&mut h);
            reach
                .filter(|c| !c.is_false())
                .map(|c| c.semantic_digest())
                .hash(&mut h);
            rows.retain(|(_, c)| !c.is_false());
            rows.sort_by_key(|r| r.0);
            for (d, c) in rows {
                format!("{d:?}").hash(&mut h);
                c.semantic_digest().hash(&mut h);
            }
        }
    }
    h.finish()
}

fn datalog_digest(icfg: &ProgramIcfg<'_>, sol: &DatalogSolution) -> u64 {
    reach_digest(icfg, |s| {
        (sol.reachability_of(s).cloned(), sol.reaching_at(s))
    })
}

const DATALOG_SUBJECTS: [&str; 2] = ["MM08", "GPL"];

/// A `datalog-reach` subject's preparation: loaded, its source parsed
/// back, its ICFG built, with the digest of the IDE lifting of reaching
/// definitions that the Datalog facts must match.
fn datalog_prepare(name: &str, tracer: &Tracer) -> Result<(Prepared, u64), String> {
    let p = load(name, tracer)?;
    check_parse(&p, tracer)?;
    let icfg = tracer.span("ir.icfg", || ProgramIcfg::new(&p.spl.program));
    let ctx = BddConstraintContext::new(&p.spl.table);
    let ide = tracer.span("core.solve", || {
        LiftedSolution::solve(
            &spllift_analyses::ReachingDefs::new(),
            &icfg,
            &ctx,
            Some(&p.model),
            ModelMode::OnEdges,
        )
    });
    let want = reach_digest(&icfg, |s| {
        (
            Some(ide.reachability_of(s)),
            ide.results_at(s).into_iter().collect(),
        )
    });
    drop(ide);
    drop(icfg);
    Ok((p, want))
}

/// One Datalog solve, timed, checked against `want`.
fn datalog_solve(p: &Prepared, want: u64, tracer: &Tracer, report: &mut Report, count: bool) {
    let icfg = ProgramIcfg::new(&p.spl.program);
    let ctx = BddConstraintContext::new(&p.spl.table);
    let t = Instant::now();
    let sol = tracer.span("datalog.eval", || {
        solve_reaching_defs(&icfg, &ctx, Some(&p.model), &EvalOptions { jobs: 1 })
    });
    let ms = ms_since(t);
    let error = match sol {
        Err(e) => Some(format!("{}: datalog: {e}", p.name)),
        Ok(sol) => {
            if count {
                let st = sol.stats();
                report.count("datalog.rounds", st.rounds as f64);
                report.count("datalog.derivations", st.derivations as f64);
                report.count("datalog.tuples", st.tuples as f64);
            }
            (datalog_digest(&icfg, &sol) != want)
                .then(|| format!("{}: datalog facts differ from the IDE lifting", p.name))
        }
    };
    report.ops.push((p.name.clone(), ms, error));
}

/// One `datalog-reach` operation in a fresh process: load the subject
/// and solve it, checked against the set-up's IDE digest `--want`.
fn datalog_op(a: &Args) -> Result<Report, String> {
    let subject = a.subject.as_deref().ok_or("--subject is required")?;
    let want = a.want.as_deref().ok_or("--want is required")?;
    let want = u64::from_str_radix(want, 16).map_err(|e| format!("--want: {e}"))?;
    let p = load(subject, &Tracer::new(false))?;
    let mut report = Report::default();
    datalog_solve(&p, want, &Tracer::new(false), &mut report, true);
    Ok(report)
}

/// The traced `datalog-reach` run: the set-up, then one solve per
/// subject without spans, then one with spans.
fn datalog_trace(path: &str) -> Result<Report, String> {
    let tracer = Tracer::new(true);
    let mut report = Report::default();
    let t = Instant::now();
    let subjects = DATALOG_SUBJECTS
        .iter()
        .map(|n| datalog_prepare(n, &tracer))
        .collect::<Result<Vec<_>, _>>()?;
    report.setup_s.push(s_since(t));
    let t = Instant::now();
    for (p, want) in &subjects {
        datalog_solve(p, *want, &Tracer::new(false), &mut report, false);
    }
    report.untraced_s = Some(s_since(t));
    report.ops.clear();
    let t = Instant::now();
    for (op, (p, want)) in subjects.iter().enumerate() {
        tracer.set_op(op as u64);
        datalog_solve(p, *want, &tracer, &mut report, true);
    }
    report.traced_s = Some(s_since(t));
    tracer
        .write(path)
        .map_err(|e| format!("write {path}: {e}"))?;
    Ok(report)
}

/// `setup`: the workload's preparation, repeated [`SETUPS`] times. For
/// `cli-table`, what each CLI child does before it solves: load the four
/// subjects and build their ICFGs. For `datalog-reach`, the subjects'
/// preparation and IDE reference solves, whose digests it reports.
fn setup(a: &Args) -> Result<Report, String> {
    let datalog = match a.workload.as_deref() {
        Some("cli-table") => false,
        Some("datalog-reach") => true,
        other => return Err(format!("setup: unsupported workload {other:?}")),
    };
    let names: &[&str] = if datalog {
        &DATALOG_SUBJECTS
    } else {
        &SUBJECTS
    };
    let off = Tracer::new(false);
    let mut report = Report::default();
    for _ in 0..SETUPS {
        let t = Instant::now();
        let mut digests = BTreeMap::new();
        for name in names {
            if datalog {
                let (_, want) = datalog_prepare(name, &off)?;
                digests.insert(name.to_string(), format!("{want:016x}"));
            } else {
                let p = load(name, &off)?;
                std::hint::black_box(ProgramIcfg::new(&p.spl.program));
            }
        }
        report.setup_s.push(s_since(t));
        if !report.digests.is_empty() && report.digests != digests {
            return Err("set-up: IDE reference digests differ between set-ups".into());
        }
        report.digests = digests;
    }
    Ok(report)
}

/// One pinned CLI command: `gen:<subject>` with an analysis and format.
struct CliOp {
    subject: String,
    analysis: Analysis,
    render: Render,
    bytes: usize,
    sha256: String,
}

fn read_cli_pins(path: &str) -> Result<Vec<CliOp>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = parse_json(&text)?;
    let mut ops = Vec::new();
    for e in doc
        .get("cli")
        .and_then(Json::as_arr)
        .ok_or("pins: no `cli` list")?
    {
        let args: Vec<&str> = e
            .get("args")
            .and_then(Json::as_arr)
            .ok_or("pins: cli entry without args")?
            .iter()
            .filter_map(Json::as_str)
            .collect();
        let subject = args
            .first()
            .and_then(|s| s.strip_prefix("gen:"))
            .ok_or("pins: cli args must start with gen:<subject>")?;
        let (analysis, render) = match &args[1..] {
            ["--analysis", a] => (
                Analysis::from_cli_name(a).ok_or(format!("pins: unknown analysis {a}"))?,
                Render::Table,
            ),
            ["--format", "leaks"] => (Analysis::Taint, Render::Leaks),
            other => return Err(format!("pins: unsupported cli args {other:?}")),
        };
        ops.push(CliOp {
            subject: subject.to_owned(),
            analysis,
            render,
            bytes: e
                .get("bytes")
                .and_then(Json::as_u64)
                .ok_or("pins: cli bytes")? as usize,
            sha256: e
                .get("sha256")
                .and_then(Json::as_str)
                .ok_or("pins: cli sha256")?
                .to_owned(),
        });
    }
    Ok(ops)
}

/// `cli-replay`: each `cli-table` command replayed in process as
/// `spllift-cli` runs it — load, ICFG, solve, render — first without
/// spans, then traced. The solution's digest must equal the
/// `results_digest` committed in `BENCH_solver.json`, and the rendered
/// text must hash to the command's pinned stdout.
fn cli_replay(a: &Args, path: &str) -> Result<Report, String> {
    let mut ops = read_cli_pins(a.pins.as_deref().ok_or("--pins is required")?)?;
    let refs = read_refs(a.refs.as_deref().ok_or("--refs is required")?)?;
    shuffle(&mut ops, &mut SplitMix64::seed_from_u64(a.seed));
    let tracer = Tracer::new(true);
    let mut report = Report::default();
    let pass = |tracer: &Tracer, report: &mut Report, count: bool| -> Result<f64, String> {
        let t = Instant::now();
        for (i, op) in ops.iter().enumerate() {
            tracer.set_op(i as u64);
            let t_op = Instant::now();
            let prepared = load(&op.subject, tracer)?;
            let icfg = tracer.span("ir.icfg", || ProgramIcfg::new(&prepared.spl.program));
            let s = solve(op.analysis, &icfg, &prepared, op.render, tracer);
            let ms = ms_since(t_op);
            let (bytes, sha) = (s.rendered_bytes, &s.rendered_sha256);
            let rendered_ok = bytes == op.bytes && *sha == op.sha256;
            let error = check_solve(&refs, &op.subject, op.analysis, &s)?.or_else(|| {
                (!rendered_ok).then(|| {
                    format!(
                        "{} {}: rendered {bytes} bytes {sha}, pinned {} bytes {}",
                        op.subject,
                        op.analysis.cli_name(),
                        op.bytes,
                        op.sha256
                    )
                })
            });
            if count {
                report.count_solve(&s);
                report.count("report.bytes", bytes as f64);
            }
            report.ops.push(("cli".into(), ms, error));
        }
        Ok(s_since(t))
    };
    report.untraced_s = Some(pass(&Tracer::new(false), &mut report, false)?);
    report.ops.clear();
    report.traced_s = Some(pass(&tracer, &mut report, true)?);
    tracer
        .write(path)
        .map_err(|e| format!("write {path}: {e}"))?;
    Ok(report)
}

fn subject_infos() -> Result<BTreeMap<&'static str, server::SubjectInfo>, String> {
    server::LANES
        .iter()
        .flat_map(|lane| lane.iter())
        .map(|&s| Ok((s, server::SubjectInfo::new(s)?)))
        .collect()
}

fn push_outcomes(report: &mut Report, outcomes: Vec<server::Outcome>) {
    for o in outcomes {
        if o.kind.starts_with("analyze") {
            report.count("server.propagations", o.propagations as f64);
        }
        report.ops.push((o.kind, o.ms, o.error));
    }
}

/// The outcomes of one client lane and, per round, its number of
/// requests and seconds.
type LaneRun = (Vec<server::Outcome>, Vec<(usize, f64)>);

/// Replays every lane's rounds through an in-process server and fails
/// each query whose answer over the socket differs from the in-process
/// one.
fn check_query_answers(
    a: &Args,
    infos: &BTreeMap<&'static str, server::SubjectInfo>,
    pins: &BTreeMap<String, server::ServerPins>,
    lanes: &mut [LaneRun],
) -> Result<(), String> {
    let off = Tracer::new(false);
    let mut reference = spllift_server::Server::new(spllift_server::ServerOptions::default());
    server::setup_in_process(&mut reference, pins, &off)?;
    for (lane, (outcomes, rounds)) in lanes.iter_mut().enumerate() {
        let mut reqs = Vec::new();
        for round in 0..rounds.len() as u64 {
            reqs.extend(server::lane_round(lane, round, a.seed, infos, pins)?);
        }
        let mut want = Vec::new();
        server::replay(&mut reference, &reqs, &off, &mut want);
        for (got, want) in outcomes.iter_mut().zip(want) {
            if got.error.is_none() && got.answers != want.answers {
                got.error = Some(format!(
                    "query answers {} differ from the in-process server's {}",
                    got.answers.as_deref().unwrap_or_default(),
                    want.answers.as_deref().unwrap_or_default()
                ));
            }
        }
    }
    Ok(())
}

/// `server-client`: the `server-session` workload against a running
/// server. Set-up loads every session; the pass runs rounds on two
/// threads, one connection each, until `--seconds` have passed (or for
/// `--rounds` rounds). After the pass every query answer is checked
/// against an in-process server.
fn server_client(a: &Args) -> Result<Report, String> {
    let addr = a.addr.as_deref().ok_or("--addr is required")?;
    let pins = server::read_pins(a.pins.as_deref().ok_or("--pins is required")?)?;
    let mut report = Report::default();
    let mut conns = (0..server::LANES.len())
        .map(|_| server::Conn::connect(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let t = Instant::now();
    let mut outcomes = Vec::new();
    for (lane, conn) in conns.iter_mut().enumerate() {
        if !server::run_reqs(conn, &server::setup_loads(lane, &pins)?, &mut outcomes) {
            break;
        }
    }
    report.setup_s.push(s_since(t));
    if let Some(o) = outcomes.iter().find(|o| o.error.is_some()) {
        return Err(format!(
            "set-up failed: {}",
            o.error.as_deref().unwrap_or_default()
        ));
    }
    if a.load_only {
        return Ok(report);
    }
    let infos = subject_infos()?;
    let mut lanes = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(lane, conn)| {
                let (infos, pins) = (&infos, &pins);
                scope.spawn(move || -> Result<LaneRun, String> {
                    let mut outcomes = Vec::new();
                    let mut rounds = Vec::new();
                    let t = Instant::now();
                    let mut round = 0;
                    loop {
                        let reqs = server::lane_round(lane, round, a.seed, infos, pins)?;
                        round += 1;
                        let (t_round, before) = (Instant::now(), outcomes.len());
                        let alive = server::run_reqs(conn, &reqs, &mut outcomes);
                        rounds.push((outcomes.len() - before, s_since(t_round)));
                        let done = match a.rounds {
                            Some(r) => round >= r,
                            None => s_since(t) >= a.seconds && round >= MIN_ROUNDS,
                        };
                        if done || !alive {
                            return Ok((outcomes, rounds));
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    check_query_answers(a, &infos, &pins, &mut lanes)?;
    for (lane, (outcomes, rounds)) in lanes.into_iter().enumerate() {
        let mut start = 0;
        for (n, secs) in rounds {
            let ok = outcomes[start..start + n]
                .iter()
                .filter(|o| o.error.is_none())
                .count();
            report.rounds.push((lane, ok, secs));
            start += n;
        }
        push_outcomes(&mut report, outcomes);
    }
    if a.rounds.is_some() {
        // The transport and queue floor, measured with both lanes idle.
        for _ in 0..5 {
            let (reply, ms) = conns[0].call("{\"type\":\"stats\"}")?;
            let error = (!reply.starts_with("{\"type\":\"ok\"")).then(|| reply.clone());
            report.ops.push(("stats".into(), ms, error));
        }
    }
    Ok(report)
}

/// `server-replay`: the set-up loads, then one round of every lane,
/// through an in-process `Server::handle_line`, first without spans,
/// then traced. The loads are spans of the set-up, not operations, as
/// in `server-client`. Cache counters come from the traced server's
/// final `stats` reply.
fn server_replay(a: &Args, path: &str) -> Result<Report, String> {
    let pins = server::read_pins(a.pins.as_deref().ok_or("--pins is required")?)?;
    let infos = subject_infos()?;
    let mut reqs = Vec::new();
    for lane in 0..server::LANES.len() {
        reqs.extend(server::lane_round(lane, 0, a.seed, &infos, &pins)?);
    }
    let mut report = Report::default();
    let pass = |tracer: &Tracer| -> Result<(Vec<server::Outcome>, f64, String), String> {
        let mut server = spllift_server::Server::new(spllift_server::ServerOptions::default());
        server::setup_in_process(&mut server, &pins, tracer)?;
        let mut outcomes = Vec::new();
        let t = Instant::now();
        server::replay(&mut server, &reqs, tracer, &mut outcomes);
        let wall = s_since(t);
        let (stats, _) = server.handle_line("{\"type\":\"stats\"}");
        server.handle_line("{\"type\":\"shutdown\"}");
        Ok((outcomes, wall, stats))
    };
    let (_, untraced, _) = pass(&Tracer::new(false))?;
    let tracer = Tracer::new(true);
    let (outcomes, traced, stats) = pass(&tracer)?;
    tracer
        .write(path)
        .map_err(|e| format!("write {path}: {e}"))?;
    report.untraced_s = Some(untraced);
    report.traced_s = Some(traced);
    push_outcomes(&mut report, outcomes);
    let doc = parse_json(&stats)?;
    let cache = doc.get("cache").ok_or("stats reply without cache")?;
    for key in ["hits", "misses", "evictions"] {
        let v = cache
            .get(key)
            .and_then(Json::as_u64)
            .ok_or("stats: cache counters")?;
        report.count(&format!("server.cache_{key}"), v as f64);
    }
    Ok(report)
}

/// `pin-server`: computes the server pins (load fingerprints and the
/// digest after each candidate edit) through an in-process server.
/// Every edit is made with two constants to show that the digest does
/// not depend on the constant.
fn pin_server() -> Result<String, String> {
    let infos = subject_infos()?;
    let mut server = spllift_server::Server::new(spllift_server::ServerOptions::default());
    let mut call = |line: String| -> Result<Json, String> {
        let (reply, _) = server.handle_line(&line);
        let doc = parse_json(&reply)?;
        if doc.get("type").and_then(Json::as_str) != Some("ok") {
            return Err(format!("pin: {line} -> {reply}"));
        }
        Ok(doc)
    };
    let field = |doc: &Json, k: &str| {
        doc.get(k)
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_owned()
    };
    let mut subjects = Vec::new();
    for (name, info) in &infos {
        let fp = field(&call(server::load_line("pin", name))?, "fingerprint");
        let mut edits = Vec::new();
        for (method, param) in &info.edit_candidates {
            let mut seen = Vec::new();
            for constant in [1, 2] {
                call(server::load_line("pin", name))?;
                call(server::edit_line("pin", method, param, constant))?;
                seen.push(field(&call(server::analyze_line("pin", name))?, "digest"));
            }
            if seen[0] != seen[1] {
                return Err(format!(
                    "pin: {name} {method}: digest depends on the edit constant"
                ));
            }
            edits.push((method.clone(), Json::str(seen[0].as_str())));
        }
        subjects.push((
            name.to_string(),
            Json::Obj(vec![
                ("fingerprint".into(), Json::str(fp)),
                ("edits".into(), Json::Obj(edits)),
            ]),
        ));
    }
    Ok(Json::Obj(vec![("server".into(), Json::Obj(subjects))]).render())
}
