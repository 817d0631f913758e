//! The `server-session` workload: a request script over six sessions
//! (two per subject, so fingerprints are shared), sent over TCP to a
//! running `spllift-cli serve --listen` by two closed-loop client
//! threads, or replayed in process through `Server::handle_line`.

use crate::lib_solve::ms_since;
use crate::trace::Tracer;
use spllift_analyses::{PossibleTypes, UninitVars};
use spllift_bdd::Bdd;
use spllift_benchgen::{subject_by_name, GeneratedSpl};
use spllift_core::{LiftedSolution, ModelMode};
use spllift_features::BddConstraintContext;
use spllift_ifds::IfdsProblem;
use spllift_ir::{MethodId, ProgramIcfg};
use spllift_json::{escape, parse_json, Json};
use spllift_rng::SplitMix64;
use std::collections::BTreeMap;
use std::hash::Hash;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// The subjects each client thread serves. Both sessions of a subject
/// sit on one thread, so whether an `analyze` is answered from the
/// shared cache does not depend on how the two threads interleave.
pub const LANES: [&[&str]; 2] = [&["MM08", "Lampiro"], &["GPL"]];

/// The analysis each subject's sessions run. Each rendered solution
/// takes at most 3.7 MB of the server's default 16 MiB solution cache,
/// so an entry one session inserts is still there when its twin asks
/// for it, whatever the other thread inserts meanwhile. (GPL's taint
/// solution alone renders to 17.8 MB and would evict everything.)
pub fn analysis_of(subject: &str) -> &'static str {
    match subject {
        "MM08" => "uninit",
        _ => "types",
    }
}
const QUERY_BATCH: usize = 12;
/// Methods per subject the seed picks the edited one from.
const EDIT_CANDIDATES: usize = 8;
const REPLY_TIMEOUT: Duration = Duration::from_secs(120);

/// What the client knows about a subject: generated and solved locally
/// to address statements, facts and features in queries and edits.
pub struct SubjectInfo {
    analysis: &'static str,
    /// `(raw method id, statement count)` of every method with a body
    /// that is never edited.
    query_methods: Vec<(u32, usize)>,
    /// `(statement, fact)` in the server's notation, for every fact that
    /// holds in some configuration in those methods of the unedited
    /// subject (the zero fact aside), so that `constraint_of` and
    /// `holds_in` items hit a row.
    held: Vec<(String, String)>,
    /// `(qualified name, first parameter's local name)`.
    pub edit_candidates: Vec<(String, String)>,
    /// The enabled features of every valid configuration, for `holds_in`.
    configs: Vec<Vec<String>>,
}

impl SubjectInfo {
    pub fn new(name: &'static str) -> Result<SubjectInfo, String> {
        let spec = subject_by_name(name).ok_or_else(|| format!("unknown subject `{name}`"))?;
        let spl = GeneratedSpl::generate(spec);
        let program = &spl.program;
        let mut helpers = Vec::new();
        for (i, m) in program.methods().iter().enumerate() {
            let (Some(body), Some(class)) = (&m.body, m.class) else {
                continue;
            };
            let class = &program.class(class).name;
            if m.is_static && m.ret.is_some() && m.params.len() == 2 && m.name.starts_with('h') {
                let param = body.locals[body.param_locals[0].index()].name.clone();
                helpers.push((i, format!("{class}.{}", m.name), param));
            }
        }
        let step = (helpers.len() / EDIT_CANDIDATES).max(1);
        let picked: Vec<_> = helpers
            .into_iter()
            .step_by(step)
            .take(EDIT_CANDIDATES)
            .collect();
        if picked.len() < EDIT_CANDIDATES {
            return Err(format!(
                "{name}: fewer than {EDIT_CANDIDATES} editable helpers"
            ));
        }
        let query_methods: Vec<(u32, usize)> = program
            .methods()
            .iter()
            .enumerate()
            .filter(|(i, _)| !picked.iter().any(|p| p.0 == *i))
            .filter_map(|(i, m)| Some((i as u32, m.body.as_ref()?.stmts.len())))
            .filter(|&(_, stmts)| stmts > 0)
            .collect();
        let analysis = analysis_of(name);
        let held = match analysis {
            "uninit" => held_facts(&UninitVars::new(), &spl, &query_methods),
            _ => held_facts(&PossibleTypes::new(), &spl, &query_methods),
        };
        if held.is_empty() {
            return Err(format!("{name}: no facts to query"));
        }
        if spl.reachable.len() > 20 {
            return Err(format!("{name}: too many features to enumerate"));
        }
        let configs = spl
            .valid_configurations()
            .iter()
            .map(|c| c.enabled().map(|f| spl.table.name(f).to_owned()).collect())
            .collect();
        Ok(SubjectInfo {
            analysis,
            query_methods,
            held,
            edit_candidates: picked.into_iter().map(|(_, m, p)| (m, p)).collect(),
            configs,
        })
    }

    fn query_line(&self, session: &str, rng: &mut SplitMix64) -> String {
        let mut items = Vec::with_capacity(QUERY_BATCH);
        for i in 0..QUERY_BATCH {
            let (stmt, fact) = rng.choose(&self.held);
            items.push(match i % 3 {
                0 => {
                    let &(m, stmts) = rng.choose(&self.query_methods);
                    let stmt = format!("m{m}:{}", rng.gen_range(0..stmts));
                    format!("{{\"kind\":\"reachability_of\",\"stmt\":\"{stmt}\"}}")
                }
                1 => format!(
                    "{{\"kind\":\"constraint_of\",\"stmt\":\"{stmt}\",\"fact\":\"{}\"}}",
                    escape(fact)
                ),
                _ => {
                    let config: Vec<String> = rng
                        .choose(&self.configs)
                        .iter()
                        .map(|f| format!("\"{}\"", escape(f)))
                        .collect();
                    format!(
                        "{{\"kind\":\"holds_in\",\"stmt\":\"{stmt}\",\"fact\":\"{}\",\"config\":[{}]}}",
                        escape(fact),
                        config.join(",")
                    )
                }
            });
        }
        format!(
            "{{\"type\":\"query\",\"session\":\"{session}\",\"analysis\":\"{}\",\"queries\":[{}]}}",
            self.analysis,
            items.join(",")
        )
    }
}

/// Solves `problem` on the unedited subject and lists the `(statement,
/// fact)` pairs of `methods` whose constraint is not false, leaving out
/// the zero fact.
fn held_facts<P, D>(
    problem: &P,
    spl: &GeneratedSpl,
    methods: &[(u32, usize)],
) -> Vec<(String, String)>
where
    P: for<'x> IfdsProblem<ProgramIcfg<'x>, Fact = D> + Sync,
    D: Clone + Eq + Ord + Hash + std::fmt::Debug + Send + Sync,
{
    let icfg = ProgramIcfg::new(&spl.program);
    let ctx = BddConstraintContext::new(&spl.table);
    let model = spl.model_expr();
    let solution = LiftedSolution::solve(problem, &icfg, &ctx, Some(&model), ModelMode::OnEdges);
    let zero = problem.zero();
    let mut held = Vec::new();
    for &(m, _) in methods {
        for s in spl.program.stmts_of(MethodId(m)) {
            let mut rows: Vec<(D, Bdd)> = solution.results_at(s).into_iter().collect();
            rows.sort_by(|a, b| a.0.cmp(&b.0));
            for (d, c) in rows {
                if d != zero && !c.is_false() {
                    held.push((s.to_string(), format!("{d:?}")));
                }
            }
        }
    }
    held
}

pub fn load_line(session: &str, subject: &str) -> String {
    format!("{{\"type\":\"load\",\"session\":\"{session}\",\"gen\":\"{subject}\"}}")
}

pub fn analyze_line(session: &str, subject: &str) -> String {
    format!(
        "{{\"type\":\"analyze\",\"session\":\"{session}\",\"analysis\":\"{}\"}}",
        analysis_of(subject)
    )
}

/// Replaces `method` with `bench_t = <param> + <constant>; return bench_t`. The
/// constant makes every round's program new to the server; the
/// solution does not depend on it (`pin-server` checks that).
pub fn edit_line(session: &str, method: &str, param: &str, constant: u64) -> String {
    format!(
        "{{\"type\":\"edit\",\"session\":\"{session}\",\"method\":\"{method}\",\"locals\":\"bench_t: int\",\"stmts\":[\"0: nop\",\"1: bench_t = {param} + {constant}\",\"2: return bench_t\"]}}"
    )
}

/// What a reply must show for its request to count as correct.
pub enum Expect {
    /// A `load` whose fingerprint is the subject's pinned one.
    Load {
        fingerprint: String,
    },
    /// An `analyze` whose digest is the pinned one.
    Analyze {
        digest: String,
    },
    /// A `query` answering every item without an error. Its answers are
    /// kept in [`Outcome::answers`], for comparison with an in-process
    /// server's.
    Query {
        count: usize,
    },
    Edit,
}

pub struct Req {
    pub line: String,
    pub expect: Expect,
}

/// Pinned server outputs for one subject: the load fingerprint, and the
/// analysis digest after editing each candidate method.
pub struct ServerPins {
    pub fingerprint: String,
    pub edits: BTreeMap<String, String>,
}

pub fn read_pins(path: &str) -> Result<BTreeMap<String, ServerPins>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = parse_json(&text)?;
    let Some(Json::Obj(subjects)) = doc.get("server") else {
        return Err("pins: missing `server` object".into());
    };
    let mut out = BTreeMap::new();
    for (name, v) in subjects {
        let fingerprint = v
            .get("fingerprint")
            .and_then(Json::as_str)
            .ok_or(format!("pins: {name}.fingerprint missing"))?
            .to_owned();
        let Some(Json::Obj(edits)) = v.get("edits") else {
            return Err(format!("pins: {name}.edits missing"));
        };
        let edits = edits
            .iter()
            .map(|(m, d)| {
                Ok((
                    m.clone(),
                    d.as_str().ok_or("pins: bad edit digest")?.to_owned(),
                ))
            })
            .collect::<Result<_, String>>()?;
        out.insert(name.clone(), ServerPins { fingerprint, edits });
    }
    Ok(out)
}

#[derive(Clone, Copy)]
enum Step {
    Edit(u64),
    Analyze,
    Query,
    Load,
}

/// One round of one lane. For each of its subjects (in seeded order) the
/// two sessions take turns, `a` first, through: edit a seeded method,
/// analyze (cold: the edit's constant is new every round), query,
/// analyze again (cached), edit the same method again, analyze
/// (incremental from the first solve's memo), query, and a `load` that
/// resets the session. Both sessions make the same edits, so every
/// `analyze` of `b` is answered from the entry `a` just put in the
/// shared cache, and every round does the same work.
pub fn lane_round(
    lane: usize,
    round: u64,
    seed: u64,
    infos: &BTreeMap<&str, SubjectInfo>,
    pins: &BTreeMap<String, ServerPins>,
) -> Result<Vec<Req>, String> {
    let mut rng = SplitMix64::seed_from_u64(seed ^ (round << 8) ^ lane as u64);
    let mut subjects: Vec<&str> = LANES[lane].to_vec();
    if subjects.len() > 1 && rng.gen_bool(0.5) {
        subjects.reverse();
    }
    let mut reqs = Vec::new();
    for subject in subjects {
        let info = &infos[subject];
        let pin = pins
            .get(subject)
            .ok_or(format!("pins: no server pins for {subject}"))?;
        let (method, param) = rng.choose(&info.edit_candidates).clone();
        let digest = pin
            .edits
            .get(&method)
            .ok_or(format!("pins: no edit digest for {subject} {method}"))?;
        let sessions = [format!("{subject}-a"), format!("{subject}-b")];
        let steps = [
            Step::Edit(2 * round + 1),
            Step::Analyze,
            Step::Query,
            Step::Analyze,
            Step::Edit(2 * round + 2),
            Step::Analyze,
            Step::Query,
            Step::Load,
        ];
        for step in steps {
            for session in &sessions {
                reqs.push(match step {
                    Step::Edit(constant) => Req {
                        line: edit_line(session, &method, &param, constant),
                        expect: Expect::Edit,
                    },
                    Step::Analyze => Req {
                        line: analyze_line(session, subject),
                        expect: Expect::Analyze {
                            digest: digest.clone(),
                        },
                    },
                    Step::Query => Req {
                        line: info.query_line(session, &mut rng),
                        expect: Expect::Query { count: QUERY_BATCH },
                    },
                    Step::Load => Req {
                        line: load_line(session, subject),
                        expect: Expect::Load {
                            fingerprint: pin.fingerprint.clone(),
                        },
                    },
                });
            }
        }
    }
    Ok(reqs)
}

/// The loads that set every session up.
pub fn setup_loads(lane: usize, pins: &BTreeMap<String, ServerPins>) -> Result<Vec<Req>, String> {
    let mut reqs = Vec::new();
    for subject in LANES[lane] {
        let pin = pins
            .get(*subject)
            .ok_or(format!("pins: no server pins for {subject}"))?;
        for twin in ["a", "b"] {
            reqs.push(Req {
                line: load_line(&format!("{subject}-{twin}"), subject),
                expect: Expect::Load {
                    fingerprint: pin.fingerprint.clone(),
                },
            });
        }
    }
    Ok(reqs)
}

/// The outcome of one request.
pub struct Outcome {
    /// `load`, `analyze_cold`, `analyze_cached`, `analyze_incremental`,
    /// `query`, `edit` or `stats`.
    pub kind: String,
    pub ms: f64,
    pub error: Option<String>,
    pub propagations: u64,
    /// A query's `results`, as rendered JSON.
    pub answers: Option<String>,
}

/// Checks `reply` against `req`'s expectation.
fn check(req: &Req, reply: &str, ms: f64) -> Outcome {
    let mut out = Outcome {
        kind: match req.expect {
            Expect::Load { .. } => "load",
            Expect::Analyze { .. } => "analyze",
            Expect::Query { .. } => "query",
            Expect::Edit => "edit",
        }
        .to_owned(),
        ms,
        error: None,
        propagations: 0,
        answers: None,
    };
    let doc = match parse_json(reply) {
        Ok(doc) => doc,
        Err(e) => {
            out.error = Some(format!("unparsable reply ({e}): {}", truncate(reply)));
            return out;
        }
    };
    if doc.get("type").and_then(Json::as_str) != Some("ok") {
        out.error = Some(format!("{}: {}", out.kind, truncate(reply)));
        return out;
    }
    let field = |k: &str| doc.get(k).and_then(Json::as_str).unwrap_or("");
    let problem = match &req.expect {
        Expect::Load { fingerprint } => (field("fingerprint") != fingerprint)
            .then(|| format!("load fingerprint {}", field("fingerprint"))),
        Expect::Analyze { digest } => {
            out.kind = format!("analyze_{}", field("solve"));
            out.propagations = doc.get("propagations").and_then(Json::as_u64).unwrap_or(0);
            (field("digest") != digest || field("outcome") != "complete").then(|| {
                format!(
                    "analyze digest {} (want {digest}), outcome {}",
                    field("digest"),
                    field("outcome")
                )
            })
        }
        Expect::Query { count } => {
            let results = doc.get("results").and_then(Json::as_arr).unwrap_or(&[]);
            let bad = results.iter().filter(|r| r.get("error").is_some()).count();
            out.answers = Some(Json::Arr(results.to_vec()).render());
            (results.len() != *count || bad > 0).then(|| {
                format!(
                    "query answered {} of {count} items, {bad} with errors",
                    results.len()
                )
            })
        }
        Expect::Edit => None,
    };
    out.error = problem;
    out
}

fn truncate(s: &str) -> String {
    s.chars().take(200).collect()
}

/// A client connection: one request line out, one reply line back.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| format!("set timeout: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Conn {
            writer: stream,
            reader,
        })
    }

    /// Sends `line` and returns the reply with its latency in ms.
    pub fn call(&mut self, line: &str) -> Result<(String, f64), String> {
        let t = Instant::now();
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok((reply.trim_end().to_owned(), ms_since(t))),
            Err(e) => Err(format!("no reply within {REPLY_TIMEOUT:?}: {e}")),
        }
    }
}

/// Runs `reqs` on `conn`, appending outcomes; stops at a transport
/// error, which counts as a failed request.
pub fn run_reqs(conn: &mut Conn, reqs: &[Req], outcomes: &mut Vec<Outcome>) -> bool {
    for req in reqs {
        match conn.call(&req.line) {
            Ok((reply, ms)) => outcomes.push(check(req, &reply, ms)),
            Err(e) => {
                outcomes.push(Outcome {
                    kind: "transport".into(),
                    ms: REPLY_TIMEOUT.as_secs_f64() * 1e3,
                    error: Some(e),
                    propagations: 0,
                    answers: None,
                });
                return false;
            }
        }
    }
    true
}

/// Sends every session's set-up `load` through an in-process `Server`.
/// Its spans belong to whatever operation `tracer` is on (the set-up,
/// before the first `set_op`).
pub fn setup_in_process(
    server: &mut spllift_server::Server,
    pins: &BTreeMap<String, ServerPins>,
    tracer: &Tracer,
) -> Result<(), String> {
    for lane in 0..LANES.len() {
        for req in setup_loads(lane, pins)? {
            let (reply, _) = tracer.span("server.handle_line", || server.handle_line(&req.line));
            if let Some(e) = check(&req, &reply, 0.0).error {
                return Err(format!("set-up failed: {e}"));
            }
        }
    }
    Ok(())
}

/// Replays requests through an in-process `Server`, each `handle_line`
/// call inside a `server.handle_line` span of its own operation.
pub fn replay(
    server: &mut spllift_server::Server,
    reqs: &[Req],
    tracer: &Tracer,
    outcomes: &mut Vec<Outcome>,
) {
    for (i, req) in reqs.iter().enumerate() {
        tracer.set_op(i as u64);
        let t = Instant::now();
        let (reply, _) = tracer.span("server.handle_line", || server.handle_line(&req.line));
        outcomes.push(check(req, &reply, ms_since(t)));
    }
}
