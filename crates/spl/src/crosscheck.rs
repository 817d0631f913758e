//! RQ1: the bidirectional SPLLIFT ↔ A2 correctness cross-check (§6.1).

use crate::a2::solve_a2;
use spllift_core::{LiftedIcfg, LiftedSolution, ModelMode};
use spllift_features::{Configuration, Constraint, ConstraintContext, FeatureExpr};
use spllift_ifds::{Icfg, IfdsProblem};
use spllift_ir::{ProgramIcfg, StmtRef};
use std::fmt;
use std::hash::Hash;

/// Default cap on the number of [`Mismatch`]es a cross-check collects.
///
/// A badly broken analysis would otherwise allocate
/// O(configs × stmts × facts) mismatches before reporting anything; one
/// hundred disagreements are more than enough to diagnose any bug.
pub const DEFAULT_MAX_MISMATCHES: usize = 100;

/// A disagreement between SPLLIFT and the A2 oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// The configuration under which the solvers disagree.
    pub config: Configuration,
    /// The statement at which they disagree.
    pub stmt: StmtRef,
    /// Rendering of the offending fact.
    pub fact: String,
    /// `true` if A2 computed the fact but SPLLIFT's constraint rejects
    /// the configuration (SPLLIFT overly restrictive / unsound);
    /// `false` if SPLLIFT allows the configuration but A2 did not compute
    /// the fact (SPLLIFT imprecise: a false positive w.r.t. the oracle).
    pub missing_in_lifted: bool,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dir = if self.missing_in_lifted {
            "A2 has fact but SPLLIFT constraint rejects config"
        } else {
            "SPLLIFT constraint allows config but A2 lacks fact"
        };
        write!(
            f,
            "{dir}: {:?} at {} under {:?}",
            self.fact, self.stmt, self.config
        )
    }
}

/// Checks one shard of configurations against an already-computed lifted
/// solution, appending at most `budget - out.len()` mismatches to `out`.
///
/// The output order is fully deterministic: configurations in slice
/// order, statements in ICFG order, and facts in `Ord` order within each
/// direction (A2-only facts before SPLLIFT-only facts per statement).
/// The parallel driver in [`crate::parallel`] relies on this — every
/// shard produces exactly the prefix of mismatches the sequential pass
/// would produce for the same configurations.
pub(crate) fn check_shard<'p, P, Ctx>(
    icfg: &ProgramIcfg<'p>,
    lifted: &LiftedSolution<'_, ProgramIcfg<'p>, P::Fact, Ctx::C>,
    lifted_icfg: &LiftedIcfg<'_, ProgramIcfg<'p>>,
    problem: &P,
    ctx: &Ctx,
    configs: &[Configuration],
    budget: usize,
    out: &mut Vec<Mismatch>,
) where
    P: IfdsProblem<ProgramIcfg<'p>>,
    P::Fact: Ord + Hash,
    Ctx: ConstraintContext,
{
    // Hoist the (config-independent) lifted results out of the config
    // loop, sorted once so both directions iterate facts in `Ord` order.
    let stmts: Vec<StmtRef> = icfg
        .methods()
        .into_iter()
        .flat_map(|m| icfg.stmts_of(m))
        .collect();
    let lifted_at: Vec<Vec<(P::Fact, Ctx::C)>> = stmts
        .iter()
        .map(|&s| {
            let mut results: Vec<_> = lifted.results_at(s).into_iter().collect();
            results.sort_by(|(a, _), (b, _)| a.cmp(b));
            results
        })
        .collect();

    for config in configs {
        if out.len() >= budget {
            return;
        }
        let a2 = solve_a2(problem, lifted_icfg, config);
        for (&s, lifted_results) in stmts.iter().zip(&lifted_at) {
            if out.len() >= budget {
                return;
            }
            let mut a2_facts: Vec<P::Fact> = a2.results_at(s).into_iter().collect();
            a2_facts.sort();
            // Direction 1: A2 fact ⟹ constraint allows config.
            for fact in &a2_facts {
                let c = lifted.constraint_of(s, fact);
                if !ctx.satisfied_by(&c, config) {
                    out.push(Mismatch {
                        config: config.clone(),
                        stmt: s,
                        fact: format!("{fact:?}"),
                        missing_in_lifted: true,
                    });
                    if out.len() >= budget {
                        return;
                    }
                }
            }
            // Direction 2: constraint allows config ⟹ A2 fact.
            for (fact, c) in lifted_results {
                if !c.is_false()
                    && ctx.satisfied_by(c, config)
                    && a2_facts.binary_search(fact).is_err()
                {
                    out.push(Mismatch {
                        config: config.clone(),
                        stmt: s,
                        fact: format!("{fact:?}"),
                        missing_in_lifted: false,
                    });
                    if out.len() >= budget {
                        return;
                    }
                }
            }
        }
    }
}

/// Cross-checks SPLLIFT against A2 on every configuration in `configs`,
/// in both directions, exactly as the paper's §6.1 describes:
///
/// 1. whenever A2 computes a fact `r` at `s` for configuration `c`, the
///    constraint SPLLIFT computed for `r` at `s` must allow `c`
///    (SPLLIFT is not overly restrictive — soundness), and
/// 2. whenever SPLLIFT's constraint for `(s, r)` allows `c`, the A2
///    instance for `c` must have computed `r` at `s`
///    (SPLLIFT reports no false positives w.r.t. the oracle — precision).
///
/// Returns the mismatches (empty = the implementations agree), capped at
/// [`DEFAULT_MAX_MISMATCHES`]; use [`crosscheck_with`] to choose the cap,
/// or [`crate::parallel::crosscheck_parallel`] to shard the
/// configurations across threads.
pub fn crosscheck<'p, P, Ctx>(
    icfg: &ProgramIcfg<'p>,
    problem: &P,
    ctx: &Ctx,
    model: Option<&FeatureExpr>,
    configs: &[Configuration],
) -> Vec<Mismatch>
where
    P: IfdsProblem<ProgramIcfg<'p>>,
    P::Fact: Ord + Hash,
    Ctx: ConstraintContext,
{
    crosscheck_with(icfg, problem, ctx, model, configs, DEFAULT_MAX_MISMATCHES)
}

/// [`crosscheck`] with an explicit cap on collected mismatches.
///
/// The check stops as soon as `max_mismatches` disagreements have been
/// found, so a badly broken analysis reports promptly instead of
/// enumerating every consequence of the same bug.
pub fn crosscheck_with<'p, P, Ctx>(
    icfg: &ProgramIcfg<'p>,
    problem: &P,
    ctx: &Ctx,
    model: Option<&FeatureExpr>,
    configs: &[Configuration],
    max_mismatches: usize,
) -> Vec<Mismatch>
where
    P: IfdsProblem<ProgramIcfg<'p>>,
    P::Fact: Ord + Hash,
    Ctx: ConstraintContext,
{
    let lifted = LiftedSolution::solve(problem, icfg, ctx, model, ModelMode::OnEdges);
    let lifted_icfg = LiftedIcfg::new(icfg);
    let mut mismatches = Vec::new();
    check_shard(
        icfg,
        &lifted,
        &lifted_icfg,
        problem,
        ctx,
        configs,
        max_mismatches,
        &mut mismatches,
    );
    mismatches
}
