//! Metamorphic oracles for the lifted analysis — properties that relate
//! *two* SPLLIFT runs (or a SPLLIFT run and an A1 run) without needing a
//! ground-truth answer for either:
//!
//! 1. **Pinning**: a feature model that pins exactly one configuration
//!    collapses SPLLIFT to the traditional A1 analysis of the derived
//!    product — same facts, and every surviving constraint admits the
//!    pinned configuration.
//! 2. **Strengthening**: conjoining extra clauses onto the feature model
//!    can only *restrict* the per-fact constraints (BDD implication);
//!    no fact gains configurations by tightening the model.
//!
//! Both properties hold for every IFDS problem, so they double as cheap
//! oracles in the fuzz campaign (`spllift::spl::fuzz`) where no A2
//! baseline has been run.

use spllift::analyses::{PossibleTypes, ReachingDefs, TaintAnalysis, Typestate, UninitVars};
use spllift::benchgen::{random_spl, subject_by_name, GeneratedSpl};
use spllift::features::{
    BddConstraintContext, Configuration, ConstraintContext, FeatureExpr, FeatureId, FeatureTable,
};
use spllift::frontend::parse_spl;
use spllift::ifds::{Icfg, IfdsProblem};
use spllift::ir::{ClassId, Program, ProgramIcfg};
use spllift::lift::{LiftedSolution, ModelMode};
use spllift::spl::A1Run;
use std::fmt::Debug;
use std::hash::Hash;

/// The feature expression `⋀ f∈universe (f | ¬f)` that is satisfied by
/// exactly `config` — the "model" that turns a product line back into a
/// single product.
fn pin_model(universe: &[FeatureId], config: &Configuration) -> FeatureExpr {
    universe
        .iter()
        .map(|&f| {
            if config.is_enabled(f) {
                FeatureExpr::var(f)
            } else {
                FeatureExpr::var(f).not()
            }
        })
        .reduce(FeatureExpr::and)
        .expect("non-empty feature universe")
}

/// Property 1: SPLLIFT under a pinning model ≡ A1 on the derived product,
/// in both directions (mirrors the §6.1 cross-check, with A1 as oracle).
fn assert_pinned_equals_a1<D, P>(
    program: &Program,
    table: &FeatureTable,
    universe: &[FeatureId],
    problem: &P,
    config: &Configuration,
    label: &str,
) where
    D: Clone + Eq + Hash + Debug,
    P: for<'a> IfdsProblem<ProgramIcfg<'a>, Fact = D>,
{
    let icfg = ProgramIcfg::new(program);
    let ctx = BddConstraintContext::new(table);
    let pin = pin_model(universe, config);
    let lifted = LiftedSolution::solve(problem, &icfg, &ctx, Some(&pin), ModelMode::OnEdges);
    let a1 = A1Run::analyze(program, problem, config.clone());
    for m in icfg.methods() {
        for s in icfg.stmts_of(m) {
            let a1_facts = a1.results_at(s);
            // A1 fact ⟹ the pinned constraint admits the configuration.
            for fact in &a1_facts {
                let c = lifted.constraint_of(s, fact);
                assert!(
                    ctx.satisfied_by(&c, config),
                    "{label}: A1 fact {fact:?} at {s} rejected by pinned SPLLIFT \
                     under {config:?}"
                );
            }
            // Satisfiable pinned constraint ⟹ A1 computed the fact.
            for (fact, c) in lifted.results_at(s) {
                if !c.is_false() && ctx.satisfied_by(&c, config) {
                    assert!(
                        a1_facts.contains(&fact),
                        "{label}: pinned SPLLIFT fact {fact:?} at {s} absent from A1 \
                         under {config:?}"
                    );
                }
            }
        }
    }
}

/// Runs property 1 for all five liftable analyses over every
/// configuration in `configs`.
fn check_all_analyses_pinned(
    program: &Program,
    table: &FeatureTable,
    universe: &[FeatureId],
    configs: &[Configuration],
    label: &str,
) {
    for config in configs {
        assert_pinned_equals_a1(
            program,
            table,
            universe,
            &TaintAnalysis::secret_to_print(),
            config,
            &format!("{label}/taint"),
        );
        assert_pinned_equals_a1(
            program,
            table,
            universe,
            &PossibleTypes::new(),
            config,
            &format!("{label}/types"),
        );
        assert_pinned_equals_a1(
            program,
            table,
            universe,
            &ReachingDefs::new(),
            config,
            &format!("{label}/reaching"),
        );
        assert_pinned_equals_a1(
            program,
            table,
            universe,
            &UninitVars::new(),
            config,
            &format!("{label}/uninit"),
        );
        assert_pinned_equals_a1(
            program,
            table,
            universe,
            &Typestate::new(ClassId(0), ["open"], ["close"], ["read"]),
            config,
            &format!("{label}/typestate"),
        );
    }
}

fn all_configurations(n: usize) -> Vec<Configuration> {
    (0u64..(1 << n))
        .map(|b| Configuration::from_bits(b, n))
        .collect()
}

#[test]
fn pinning_collapses_to_a1_on_fig1() {
    let ex = spllift::ir::samples::fig1();
    let universe: Vec<FeatureId> = ex.features.to_vec();
    check_all_analyses_pinned(
        &ex.program,
        &ex.table,
        &universe,
        &all_configurations(universe.len()),
        "fig1",
    );
}

#[test]
fn pinning_collapses_to_a1_on_chat() {
    let source =
        std::fs::read_to_string("examples_data/chat.minijava").expect("chat example present");
    let mut table = FeatureTable::new();
    let program = parse_spl(&source, &mut table).expect("chat parses");
    let universe: Vec<FeatureId> = table.iter().map(|(f, _)| f).collect();
    check_all_analyses_pinned(
        &program,
        &table,
        &universe,
        &all_configurations(universe.len()),
        "chat",
    );
}

#[test]
fn pinning_collapses_to_a1_on_benchgen_subject() {
    let spl = GeneratedSpl::generate(subject_by_name("Lampiro").unwrap());
    let universe: Vec<FeatureId> = spl.table.iter().map(|(f, _)| f).collect();
    // Only the model-valid configurations: those are the products A1
    // would ever build, and enumerating the full universe would square
    // the test's cost for no extra coverage.
    check_all_analyses_pinned(
        &spl.program,
        &spl.table,
        &universe,
        &spl.valid_configurations(),
        "Lampiro",
    );
}

/// Property 2: for every (statement, fact), the constraint computed under
/// the stronger model entails the one computed under the weaker model.
fn assert_strengthening_restricts<D, P>(
    program: &Program,
    table: &FeatureTable,
    problem: &P,
    weak: Option<&FeatureExpr>,
    strong: &FeatureExpr,
    label: &str,
) where
    D: Clone + Eq + Hash + Debug,
    P: for<'a> IfdsProblem<ProgramIcfg<'a>, Fact = D>,
{
    let icfg = ProgramIcfg::new(program);
    let ctx = BddConstraintContext::new(table);
    let weak_sol = LiftedSolution::solve(problem, &icfg, &ctx, weak, ModelMode::OnEdges);
    let strong_sol = LiftedSolution::solve(problem, &icfg, &ctx, Some(strong), ModelMode::OnEdges);
    for (s, fact, c_strong) in strong_sol.all_results() {
        let c_weak = weak_sol.constraint_of(s, fact);
        assert!(
            c_strong.entails(&c_weak),
            "{label}: strengthening the model widened {fact:?} at {s}: \
             {} ⊬ {}",
            c_strong.to_cube_string(),
            c_weak.to_cube_string(),
        );
    }
}

#[test]
fn strengthening_the_model_only_restricts_constraints() {
    for seed in 0..8u64 {
        let spl = random_spl(seed, 3, 3);
        let f = &spl.features;
        // A chain of strictly stronger models: True ⊇ (f0 ⟹ f1)
        // ⊇ (f0 ⟹ f1) ∧ ¬f2.
        let weak = FeatureExpr::var(f[0]).implies(FeatureExpr::var(f[1]));
        let strong = weak.clone().and(FeatureExpr::var(f[2]).not());
        let label = format!("seed {seed}");
        macro_rules! check {
            ($problem:expr, $name:literal) => {{
                let problem = $problem;
                assert_strengthening_restricts(
                    &spl.program,
                    &spl.table,
                    &problem,
                    None,
                    &weak,
                    &format!("{label}/{}/none->weak", $name),
                );
                assert_strengthening_restricts(
                    &spl.program,
                    &spl.table,
                    &problem,
                    Some(&weak),
                    &strong,
                    &format!("{label}/{}/weak->strong", $name),
                );
            }};
        }
        check!(TaintAnalysis::secret_to_print(), "taint");
        check!(PossibleTypes::new(), "types");
        check!(ReachingDefs::new(), "reaching");
        check!(UninitVars::new(), "uninit");
        check!(
            Typestate::new(ClassId(0), ["open"], ["close"], ["read"]),
            "typestate"
        );
    }
}
