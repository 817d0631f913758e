//! The library path the CLI runs: load a generated subject, build the
//! ICFG, solve one lifted analysis and render it.

use crate::sha256::sha256_hex;
use crate::trace::Tracer;
use spllift_analyses::{PossibleTypes, ReachingDefs, TaintAnalysis, TaintFact, UninitVars};
use spllift_bdd::{Bdd, BddStats};
use spllift_benchgen::{subject_by_name, GeneratedSpl};
use spllift_core::{report, LiftedSolution, ModelMode};
use spllift_features::{BddConstraintContext, FeatureExpr};
use spllift_hash::FxHasher64;
use spllift_ide::{IdeSolverOptions, IdeStats};
use spllift_ifds::{Icfg, IfdsProblem};
use spllift_ir::{Operand, ProgramIcfg, StmtKind};
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// A generated paper subject, loaded as `spllift-cli` loads a `gen:`
/// input.
pub struct Prepared {
    pub name: String,
    pub spl: GeneratedSpl,
    pub model: FeatureExpr,
}

/// What `spllift-cli` does to load `gen:<name>`: generate the subject,
/// build its feature-model expression and, for at most 20 reachable
/// features, enumerate its valid configurations. All of it runs in the
/// `benchgen.generate` span.
pub fn load(name: &str, tracer: &Tracer) -> Result<Prepared, String> {
    let spec = subject_by_name(name).ok_or_else(|| format!("unknown subject `{name}`"))?;
    let (spl, model) = tracer.span("benchgen.generate", || {
        let spl = GeneratedSpl::generate(spec);
        let model = spl.model_expr();
        std::hint::black_box((spl.reachable.len() <= 20).then(|| spl.valid_configurations()));
        (spl, model)
    });
    Ok(Prepared {
        name: name.to_owned(),
        spl,
        model,
    })
}

/// Parses the generated source back with the frontend. The parsed
/// program must equal the generator's own, or the subject is rejected.
pub fn check_parse(p: &Prepared, tracer: &Tracer) -> Result<(), String> {
    let name = &p.name;
    let program = tracer.span("frontend.parse", || {
        let mut table = p.spl.table.clone();
        spllift_frontend::parse_spl(&p.spl.source, &mut table)
    });
    let program = program.map_err(|e| format!("{name}: generated source does not parse: {e}"))?;
    if program != p.spl.program {
        return Err(format!(
            "{name}: parsed program differs from the generator's"
        ));
    }
    Ok(())
}

/// The four analyses of the paper's Table 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Analysis {
    Taint,
    Types,
    ReachingDefs,
    Uninit,
}

const ANALYSES: [Analysis; 4] = [
    Analysis::Taint,
    Analysis::Types,
    Analysis::ReachingDefs,
    Analysis::Uninit,
];

impl Analysis {
    /// The label `BENCH_solver.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Analysis::Taint => "Taint",
            Analysis::Types => "P. Types",
            Analysis::ReachingDefs => "R. Def.",
            Analysis::Uninit => "U. Var.",
        }
    }

    /// The name `spllift-cli --analysis` takes.
    pub fn cli_name(self) -> &'static str {
        match self {
            Analysis::Taint => "taint",
            Analysis::Types => "types",
            Analysis::ReachingDefs => "reaching-defs",
            Analysis::Uninit => "uninit",
        }
    }

    pub fn from_cli_name(s: &str) -> Option<Analysis> {
        ANALYSES.into_iter().find(|a| a.cli_name() == s)
    }
}

/// How a solved operation is rendered after the solve.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Render {
    /// `spllift-cli`'s default `--format table`.
    Table,
    /// `spllift-cli --format leaks` (taint only).
    Leaks,
}

/// One solved operation.
pub struct Solved {
    pub digest: String,
    pub ide: IdeStats,
    pub bdd: BddStats,
    /// Byte count and SHA-256 of the rendered text.
    pub rendered_bytes: usize,
    pub rendered_sha256: String,
}

/// Solves `analysis` on `icfg` with a fresh BDD context at one thread
/// and renders it, as `spllift-cli` does, then digests the solution.
/// The solve runs in a `core.solve` span and rendering in a
/// `report.render` span. `Render::Leaks` applies to taint only.
pub fn solve(
    analysis: Analysis,
    icfg: &ProgramIcfg<'_>,
    prepared: &Prepared,
    render: Render,
    tracer: &Tracer,
) -> Solved {
    macro_rules! table {
        ($problem:expr) => {
            solve_one($problem, icfg, prepared, tracer, &|s| table_text(s, icfg))
        };
    }
    match (analysis, render) {
        (Analysis::Taint, Render::Leaks) => solve_one(
            &TaintAnalysis::secret_to_print(),
            icfg,
            prepared,
            tracer,
            &|s| leaks_text(icfg, s),
        ),
        (Analysis::Taint, Render::Table) => table!(&TaintAnalysis::secret_to_print()),
        (Analysis::Types, _) => table!(&PossibleTypes::new()),
        (Analysis::ReachingDefs, _) => table!(&ReachingDefs::new()),
        (Analysis::Uninit, _) => table!(&UninitVars::new()),
    }
}

type Solution<'g, 'p, D> = LiftedSolution<'g, ProgramIcfg<'p>, D, Bdd>;

fn solve_one<'g, 'p, P, D>(
    problem: &P,
    icfg: &'g ProgramIcfg<'p>,
    prepared: &Prepared,
    tracer: &Tracer,
    render: &dyn Fn(&Solution<'g, 'p, D>) -> String,
) -> Solved
where
    P: for<'x> IfdsProblem<ProgramIcfg<'x>, Fact = D> + Sync,
    D: Clone + Eq + Ord + Hash + std::fmt::Debug + Send + Sync,
{
    let (ctx, solution) = tracer.span("core.solve", || {
        let ctx = BddConstraintContext::new(&prepared.spl.table);
        let solution = LiftedSolution::solve_with(
            problem,
            icfg,
            &ctx,
            Some(&prepared.model),
            ModelMode::OnEdges,
            IdeSolverOptions {
                threads: 1,
                ..IdeSolverOptions::default()
            },
        );
        (ctx, solution)
    });
    let text = tracer.span("report.render", || render(&solution));
    Solved {
        digest: results_digest(icfg, &solution),
        ide: solution.stats(),
        bdd: ctx.manager().stats(),
        rendered_bytes: text.len(),
        rendered_sha256: sha256_hex(text.as_bytes()),
    }
}

/// The text `spllift-cli`'s default `--format table` prints.
fn table_text<'g, 'p, D>(solution: &Solution<'g, 'p, D>, icfg: &'g ProgramIcfg<'p>) -> String
where
    D: Clone + Eq + Ord + Hash + std::fmt::Debug,
{
    report::constraints_table(solution, icfg, |c| c.to_cube_string())
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The text `spllift-cli --format leaks` prints: every sink call whose
/// argument may be tainted, with its feature constraint.
fn leaks_text(icfg: &ProgramIcfg<'_>, solution: &Solution<'_, '_, TaintFact>) -> String {
    let mut out = String::new();
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
                    let label = icfg.stmt_label(s);
                    if label.contains("print(") {
                        found += 1;
                        out.push_str(&format!("LEAK at [{label}] iff {}\n", c.to_cube_string()));
                    }
                }
            }
        }
    }
    if found == 0 {
        out.push_str("no source-to-sink flows in any configuration\n");
    }
    out
}

/// The `results_digest` of `BENCH_solver.json`: an order-sensitive
/// hash over every statement's reachability constraint and its fact
/// rows, each constraint hashed by `Bdd::semantic_digest`.
fn results_digest<D>(
    icfg: &ProgramIcfg<'_>,
    solution: &LiftedSolution<'_, ProgramIcfg<'_>, D, Bdd>,
) -> String
where
    D: Clone + Eq + Ord + Hash + std::fmt::Debug,
{
    let mut h = FxHasher64::default();
    for m in icfg.methods() {
        for s in icfg.stmts_of(m) {
            s.to_string().hash(&mut h);
            solution.reachability_of(s).semantic_digest().hash(&mut h);
            let mut rows: Vec<(D, Bdd)> = solution.results_at(s).into_iter().collect();
            rows.sort_by(|a, b| a.0.cmp(&b.0));
            for (d, c) in rows {
                format!("{d:?}").hash(&mut h);
                c.semantic_digest().hash(&mut h);
            }
        }
    }
    format!("{:016x}", h.finish())
}
