//! The two declarative analyses: lifted reaching definitions and
//! call-graph / statement reachability.
//!
//! Both are Datalog transcriptions of the IFDS *tabulation* the IDE
//! solver runs — path edges `PE(d1, s, d2)` ("fact `d2` holds at `s`
//! when the enclosing method was entered with fact `d1`"), summary
//! edges `SE(c, d, r, d')` over call sites, entry values `VE(m, d1)`
//! and final values `Val(s, d2)`. Transcribing the tabulation (rather
//! than naive exploded-supergraph reachability) matters: reachability
//! over the exploded graph would follow *unrealizable* call/return
//! paths and weaken the computed constraints. With the tabulation, the
//! per-fact constraints equal the IDE lifting's exactly (DESIGN.md §13
//! gives the argument), which is what the bit-for-bit cross-check in
//! the fuzz harness relies on.
//!
//! The extensional database mirrors `spllift_core::LiftedProblem`'s
//! Figure-4 edge lifting: for every statement with annotation `a`, the
//! original flow applies under `en = ⟦a⟧ (∧ model)` and the identity
//! flow under `dis = ⟦¬a⟧ (∧ model)` along the disabled-edge
//! successors of [`spllift_core::LiftedIcfg`].

use crate::engine::{
    evaluate, neg, pos, Atom, Database, DatalogError, DatalogProgram, EvalOptions, EvalStats,
    RelId, Term,
};
use spllift_analyses::{arg_bindings, result_local, returned_local, DefFact};
use spllift_bdd::Bdd;
use spllift_core::LiftedIcfg;
use spllift_features::{BddConstraintContext, ConstraintContext, FeatureExpr};
use spllift_ifds::Icfg;
use spllift_ir::{LocalId, MethodId, ProgramIcfg, StmtKind, StmtRef};

/// Encodes a statement reference into one tuple column.
pub fn encode_stmt(s: StmtRef) -> u64 {
    ((s.method.0 as u64) << 32) | s.index as u64
}

/// Inverse of [`encode_stmt`].
pub fn decode_stmt(x: u64) -> StmtRef {
    StmtRef {
        method: MethodId((x >> 32) as u32),
        index: x as u32,
    }
}

/// Fact tag column: the tautology fact.
const ZERO: u64 = 0;
/// Fact tag column: a definition fact.
const DEF: u64 = 1;

/// Encodes a [`DefFact`] into its three tuple columns
/// `(tag, site, var)`.
pub fn encode_fact(fact: &DefFact) -> [u64; 3] {
    match fact {
        DefFact::Zero => [ZERO, 0, 0],
        DefFact::Def { site, var } => [DEF, encode_stmt(*site), var.0 as u64],
    }
}

/// Inverse of [`encode_fact`].
pub fn decode_fact(cols: &[u64]) -> DefFact {
    if cols[0] == ZERO {
        DefFact::Zero
    } else {
        DefFact::Def {
            site: decode_stmt(cols[1]),
            var: LocalId(cols[2] as u32),
        }
    }
}

/// Handles to every relation of the combined rule program.
#[allow(missing_docs)] // field names are the relation names below
pub struct Relations {
    // Extensional (stratum 0), extracted from the annotated ICFG:
    /// `act(s, s2)`: the original flow function applies on `s → s2`,
    /// under the statement's enabled constraint.
    pub act: RelId,
    /// `idn(s, s2)`: the identity flow applies on `s → s2`, under the
    /// statement's disabled constraint (Figure 4's dashed edges).
    pub idn: RelId,
    /// `defs(s, v)`: `s` defines local `v` (kills and regenerates it).
    /// Used positively to gen and *negatively* to kill-check.
    pub defs: RelId,
    /// `callstmt(c, m)`: `c` calls body-carrying method `m`, under the
    /// call's enabled constraint.
    pub callstmt: RelId,
    /// `bind(c, m, a, f)`: actual `a` binds to formal `f` for the call
    /// `c` targeting `m`.
    pub bind: RelId,
    /// `startpt(m, sp)`: `sp` is the unique start point of `m`.
    pub startpt: RelId,
    /// `exitstmt(m, e)`: `e` is an exit (return) statement of `m`.
    pub exitstmt: RelId,
    /// `exiten(e)`: the exit `e` is enabled (its `en` constraint).
    pub exiten: RelId,
    /// `retbind(e, v)`: exit `e` returns local `v`.
    pub retbind: RelId,
    /// `resl(c, r)`: call `c` stores its result into local `r`.
    pub resl: RelId,
    /// `retsite(c, r)`: `r` is a return site of call `c`.
    pub retsite: RelId,
    /// `inm(s, m)`: statement `s` belongs to method `m`.
    pub inm: RelId,
    // Intensional — reaching definitions (the IFDS tabulation):
    /// `PE(d1, s, d2)`: path edge (3 fact columns each side).
    pub pe: RelId,
    /// `SE(c, d2, r, d5)`: summary edge over call `c`.
    pub se: RelId,
    /// `VE(m, d1)`: phase-2 entry value of method `m` for entry fact `d1`.
    pub ve: RelId,
    /// `Val(s, d2)`: final lifted result — fact `d2` holds at `s`.
    pub val: RelId,
    // Intensional — reachability (Zero-fact projection):
    /// `ZPE(s)`: `s` reachable from its method entry.
    pub zpe: RelId,
    /// `ZSE(c, r)`: the callee of `c` can return to `r`.
    pub zse: RelId,
    /// `ZVE(m)`: method `m` is entered.
    pub zve: RelId,
    /// `ZVal(s)`: statement reachability — equals the IDE solution's
    /// `reachability_of`.
    pub zval: RelId,
    /// `MReach(m)`: method `m` is reachable (its start point executes).
    pub mreach: RelId,
}

impl Relations {
    /// Per-relation column kinds, indexed by [`RelId`] order — drives
    /// the human-readable dump rendering (`m:i` for statement columns).
    pub fn column_kinds(&self, program: &DatalogProgram) -> Vec<Vec<crate::dump::ColKind>> {
        use crate::dump::ColKind::{Raw, Stmt};
        let mut kinds: Vec<Vec<crate::dump::ColKind>> = (0..program.relation_count())
            .map(|r| vec![Raw; program.arity(RelId(r))])
            .collect();
        let fact = [Raw, Stmt, Raw];
        let mut set = |rel: RelId, cols: Vec<crate::dump::ColKind>| kinds[rel.0] = cols;
        set(self.act, vec![Stmt, Stmt]);
        set(self.idn, vec![Stmt, Stmt]);
        set(self.defs, vec![Stmt, Raw]);
        set(self.callstmt, vec![Stmt, Raw]);
        set(self.bind, vec![Stmt, Raw, Raw, Raw]);
        set(self.startpt, vec![Raw, Stmt]);
        set(self.exitstmt, vec![Raw, Stmt]);
        set(self.exiten, vec![Stmt]);
        set(self.retbind, vec![Stmt, Raw]);
        set(self.resl, vec![Stmt, Raw]);
        set(self.retsite, vec![Stmt, Stmt]);
        set(self.inm, vec![Stmt, Raw]);
        set(
            self.pe,
            fact.iter()
                .chain([Stmt].iter())
                .chain(fact.iter())
                .copied()
                .collect(),
        );
        set(
            self.se,
            [Stmt]
                .iter()
                .chain(fact.iter())
                .chain([Stmt].iter())
                .chain(fact.iter())
                .copied()
                .collect(),
        );
        set(self.ve, [Raw].iter().chain(fact.iter()).copied().collect());
        set(
            self.val,
            [Stmt].iter().chain(fact.iter()).copied().collect(),
        );
        set(self.zpe, vec![Stmt]);
        set(self.zse, vec![Stmt, Stmt]);
        set(self.zve, vec![Raw]);
        set(self.zval, vec![Stmt]);
        set(self.mreach, vec![Raw]);
        kinds
    }
}

/// Declares the relations and rules of the combined program.
fn build_program() -> (DatalogProgram, Relations) {
    let mut p = DatalogProgram::new();
    let rels = Relations {
        act: p.relation("act", 2),
        idn: p.relation("idn", 2),
        defs: p.relation("defs", 2),
        callstmt: p.relation("callstmt", 2),
        bind: p.relation("bind", 4),
        startpt: p.relation("startpt", 2),
        exitstmt: p.relation("exitstmt", 2),
        exiten: p.relation("exiten", 1),
        retbind: p.relation("retbind", 2),
        resl: p.relation("resl", 2),
        retsite: p.relation("retsite", 2),
        inm: p.relation("inm", 2),
        pe: p.relation("PE", 7),
        se: p.relation("SE", 8),
        ve: p.relation("VE", 4),
        val: p.relation("Val", 4),
        zpe: p.relation("ZPE", 1),
        zse: p.relation("ZSE", 2),
        zve: p.relation("ZVE", 1),
        zval: p.relation("ZVal", 1),
        mreach: p.relation("MReach", 1),
    };
    let v = Term::Var;
    let k = Term::Const;
    let h = |rel: RelId, terms: Vec<Term>| Atom::new(rel, terms);

    // -- Reaching definitions: Phase-1 tabulation ---------------------
    // Intra-procedural original flow on Def facts: pass unless the
    // statement redefines the tracked local (lifted stratified
    // negation over the `defs` EDB — the kill check).
    p.rule(
        "pe-pass-def",
        h(rels.pe, vec![v(0), v(1), v(2), v(6), k(DEF), v(4), v(5)]),
        vec![
            pos(rels.pe, vec![v(0), v(1), v(2), v(3), k(DEF), v(4), v(5)]),
            pos(rels.act, vec![v(3), v(6)]),
            neg(rels.defs, vec![v(3), v(5)]),
        ],
    );
    // Original flow preserves the tautology fact.
    p.rule(
        "pe-pass-zero",
        h(rels.pe, vec![v(0), v(1), v(2), v(4), k(ZERO), k(0), k(0)]),
        vec![
            pos(rels.pe, vec![v(0), v(1), v(2), v(3), k(ZERO), k(0), k(0)]),
            pos(rels.act, vec![v(3), v(4)]),
        ],
    );
    // A defining statement generates its Def fact from Zero. The site
    // column of the new fact is the defining statement itself (v3).
    p.rule(
        "pe-gen",
        h(rels.pe, vec![v(0), v(1), v(2), v(4), k(DEF), v(3), v(5)]),
        vec![
            pos(rels.pe, vec![v(0), v(1), v(2), v(3), k(ZERO), k(0), k(0)]),
            pos(rels.act, vec![v(3), v(4)]),
            pos(rels.defs, vec![v(3), v(5)]),
        ],
    );
    // Identity flow along disabled edges passes every fact.
    p.rule(
        "pe-identity",
        h(rels.pe, vec![v(0), v(1), v(2), v(7), v(4), v(5), v(6)]),
        vec![
            pos(rels.pe, vec![v(0), v(1), v(2), v(3), v(4), v(5), v(6)]),
            pos(rels.idn, vec![v(3), v(7)]),
        ],
    );
    // Calls seed the callee's identity path edges (any caller context).
    p.rule(
        "pe-call-zero",
        h(
            rels.pe,
            vec![k(ZERO), k(0), k(0), v(5), k(ZERO), k(0), k(0)],
        ),
        vec![
            pos(rels.pe, vec![v(0), v(1), v(2), v(3), k(ZERO), k(0), k(0)]),
            pos(rels.callstmt, vec![v(3), v(4)]),
            pos(rels.startpt, vec![v(4), v(5)]),
        ],
    );
    p.rule(
        "pe-call-def",
        h(rels.pe, vec![k(DEF), v(4), v(7), v(8), k(DEF), v(4), v(7)]),
        vec![
            pos(rels.pe, vec![v(0), v(1), v(2), v(3), k(DEF), v(4), v(5)]),
            pos(rels.callstmt, vec![v(3), v(6)]),
            pos(rels.bind, vec![v(3), v(6), v(5), v(7)]),
            pos(rels.startpt, vec![v(6), v(8)]),
        ],
    );
    // Summary edges: what a completed callee does to the caller's fact.
    p.rule(
        "se-zero",
        h(
            rels.se,
            vec![v(0), k(ZERO), k(0), k(0), v(3), k(ZERO), k(0), k(0)],
        ),
        vec![
            pos(rels.callstmt, vec![v(0), v(1)]),
            pos(rels.exitstmt, vec![v(1), v(2)]),
            pos(
                rels.pe,
                vec![k(ZERO), k(0), k(0), v(2), k(ZERO), k(0), k(0)],
            ),
            pos(rels.exiten, vec![v(2)]),
            pos(rels.retsite, vec![v(0), v(3)]),
        ],
    );
    // A Def passed in (actual v2 → formal v3) that reaches the exit as
    // the returned local comes back renamed to the call's result.
    p.rule(
        "se-def",
        h(
            rels.se,
            vec![v(0), k(DEF), v(5), v(2), v(9), k(DEF), v(6), v(8)],
        ),
        vec![
            pos(rels.callstmt, vec![v(0), v(1)]),
            pos(rels.bind, vec![v(0), v(1), v(2), v(3)]),
            pos(rels.exitstmt, vec![v(1), v(4)]),
            pos(rels.pe, vec![k(DEF), v(5), v(3), v(4), k(DEF), v(6), v(7)]),
            pos(rels.retbind, vec![v(4), v(7)]),
            pos(rels.resl, vec![v(0), v(8)]),
            pos(rels.retsite, vec![v(0), v(9)]),
            pos(rels.exiten, vec![v(4)]),
        ],
    );
    // A definition created *inside* the callee (under the Zero entry
    // context) that is returned also surfaces at the caller.
    p.rule(
        "se-zero-def",
        h(
            rels.se,
            vec![v(0), k(ZERO), k(0), k(0), v(6), k(DEF), v(3), v(5)],
        ),
        vec![
            pos(rels.callstmt, vec![v(0), v(1)]),
            pos(rels.exitstmt, vec![v(1), v(2)]),
            pos(rels.pe, vec![k(ZERO), k(0), k(0), v(2), k(DEF), v(3), v(4)]),
            pos(rels.retbind, vec![v(2), v(4)]),
            pos(rels.resl, vec![v(0), v(5)]),
            pos(rels.retsite, vec![v(0), v(6)]),
            pos(rels.exiten, vec![v(2)]),
        ],
    );
    // Applying a summary continues the caller's path edge.
    p.rule(
        "pe-summary",
        h(rels.pe, vec![v(0), v(1), v(2), v(7), v(8), v(9), v(10)]),
        vec![
            pos(rels.pe, vec![v(0), v(1), v(2), v(3), v(4), v(5), v(6)]),
            pos(
                rels.se,
                vec![v(3), v(4), v(5), v(6), v(7), v(8), v(9), v(10)],
            ),
        ],
    );
    // -- Phase 2: entry values and final values -----------------------
    p.rule(
        "ve-zero",
        h(rels.ve, vec![v(1), k(ZERO), k(0), k(0)]),
        vec![
            pos(rels.val, vec![v(0), k(ZERO), k(0), k(0)]),
            pos(rels.callstmt, vec![v(0), v(1)]),
        ],
    );
    p.rule(
        "ve-def",
        h(rels.ve, vec![v(3), k(DEF), v(1), v(4)]),
        vec![
            pos(rels.val, vec![v(0), k(DEF), v(1), v(2)]),
            pos(rels.callstmt, vec![v(0), v(3)]),
            pos(rels.bind, vec![v(0), v(3), v(2), v(4)]),
        ],
    );
    p.rule(
        "val",
        h(rels.val, vec![v(4), v(5), v(6), v(7)]),
        vec![
            pos(rels.ve, vec![v(0), v(1), v(2), v(3)]),
            pos(rels.pe, vec![v(1), v(2), v(3), v(4), v(5), v(6), v(7)]),
            pos(rels.inm, vec![v(4), v(0)]),
        ],
    );

    // -- Reachability: the Zero-fact projection, shared EDB -----------
    p.rule(
        "zpe-act",
        h(rels.zpe, vec![v(1)]),
        vec![pos(rels.zpe, vec![v(0)]), pos(rels.act, vec![v(0), v(1)])],
    );
    p.rule(
        "zpe-idn",
        h(rels.zpe, vec![v(1)]),
        vec![pos(rels.zpe, vec![v(0)]), pos(rels.idn, vec![v(0), v(1)])],
    );
    p.rule(
        "zpe-call",
        h(rels.zpe, vec![v(2)]),
        vec![
            pos(rels.zpe, vec![v(0)]),
            pos(rels.callstmt, vec![v(0), v(1)]),
            pos(rels.startpt, vec![v(1), v(2)]),
        ],
    );
    p.rule(
        "zse",
        h(rels.zse, vec![v(0), v(3)]),
        vec![
            pos(rels.callstmt, vec![v(0), v(1)]),
            pos(rels.exitstmt, vec![v(1), v(2)]),
            pos(rels.zpe, vec![v(2)]),
            pos(rels.exiten, vec![v(2)]),
            pos(rels.retsite, vec![v(0), v(3)]),
        ],
    );
    p.rule(
        "zpe-summary",
        h(rels.zpe, vec![v(1)]),
        vec![pos(rels.zpe, vec![v(0)]), pos(rels.zse, vec![v(0), v(1)])],
    );
    p.rule(
        "zve",
        h(rels.zve, vec![v(1)]),
        vec![
            pos(rels.zval, vec![v(0)]),
            pos(rels.callstmt, vec![v(0), v(1)]),
        ],
    );
    p.rule(
        "zval",
        h(rels.zval, vec![v(1)]),
        vec![
            pos(rels.zve, vec![v(0)]),
            pos(rels.zpe, vec![v(1)]),
            pos(rels.inm, vec![v(1), v(0)]),
        ],
    );
    p.rule(
        "mreach",
        h(rels.mreach, vec![v(0)]),
        vec![
            pos(rels.zval, vec![v(1)]),
            pos(rels.startpt, vec![v(0), v(1)]),
        ],
    );
    (p, rels)
}

/// Extracts the EDB from the annotated ICFG, exactly mirroring the
/// Figure-4 lifting in `spllift_core::LiftedProblem` (ModelMode
/// `OnEdges`: the feature model is conjoined into every edge
/// constraint), and seeds the tabulation at the entry points.
fn seed_database(
    icfg: &ProgramIcfg<'_>,
    ctx: &BddConstraintContext,
    model: Option<&FeatureExpr>,
    program: &DatalogProgram,
    rels: &Relations,
) -> Database {
    let mut db = Database::new(program);
    let ir = icfg.program();
    let lifted = LiftedIcfg::new(icfg);
    let tt = ctx.tt();
    let model_c = model.map(|m| ctx.of_expr(m)).unwrap_or_else(|| ctx.tt());
    for m in icfg.methods() {
        let me = m.0 as u64;
        let sp = encode_stmt(icfg.start_point_of(m));
        db.insert(rels.startpt, vec![me, sp], tt.clone());
        for s in icfg.stmts_of(m) {
            let es = encode_stmt(s);
            db.insert(rels.inm, vec![es, me], tt.clone());
            let a = icfg.annotation_of(s);
            let (en, dis) = if *a == FeatureExpr::True {
                (ctx.tt(), ctx.ff())
            } else {
                (ctx.of_expr(a), ctx.of_expr(&a.clone().not()))
            };
            let en = en.and(&model_c);
            let dis = dis.and(&model_c);
            if icfg.is_call(s) {
                // Call-to-return edges run the original flow (which
                // kills/generates the result local) when enabled and
                // the identity when disabled.
                for r in icfg.return_sites_of(s) {
                    let er = encode_stmt(r);
                    db.insert(rels.act, vec![es, er], en.clone());
                    db.insert(rels.idn, vec![es, er], dis.clone());
                    db.insert(rels.retsite, vec![es, er], tt.clone());
                }
                for callee in icfg.callees_of(s) {
                    db.insert(rels.callstmt, vec![es, callee.0 as u64], en.clone());
                    for (actual, formal) in arg_bindings(ir, s, callee) {
                        db.insert(
                            rels.bind,
                            vec![es, callee.0 as u64, actual.0 as u64, formal.0 as u64],
                            tt.clone(),
                        );
                    }
                }
                if let Some(r) = result_local(ir, s) {
                    db.insert(rels.resl, vec![es, r.0 as u64], tt.clone());
                    db.insert(rels.defs, vec![es, r.0 as u64], tt.clone());
                }
                continue;
            }
            let kind = &ir.stmt(s).kind;
            match kind {
                StmtKind::Return { .. } => {
                    // An enabled exit leaves via the return edge; only
                    // the disabled fall-through is a normal edge.
                    for succ in lifted.successors_of(s) {
                        db.insert(rels.idn, vec![es, encode_stmt(succ)], dis.clone());
                    }
                    db.insert(rels.exitstmt, vec![me, es], tt.clone());
                    db.insert(rels.exiten, vec![es], en.clone());
                    if let Some(r) = returned_local(ir, s) {
                        db.insert(rels.retbind, vec![es, r.0 as u64], tt.clone());
                    }
                }
                StmtKind::Goto { .. } => {
                    let target = icfg.branch_target_of(s).expect("goto has a target");
                    let ft = icfg.fall_through_of(s);
                    for succ in lifted.successors_of(s) {
                        if succ == target {
                            db.insert(rels.act, vec![es, encode_stmt(succ)], en.clone());
                        }
                        if Some(succ) == ft {
                            db.insert(rels.idn, vec![es, encode_stmt(succ)], dis.clone());
                        }
                    }
                }
                StmtKind::If { .. } => {
                    let ft = icfg.fall_through_of(s);
                    for succ in lifted.successors_of(s) {
                        db.insert(rels.act, vec![es, encode_stmt(succ)], en.clone());
                        if Some(succ) == ft {
                            db.insert(rels.idn, vec![es, encode_stmt(succ)], dis.clone());
                        }
                    }
                }
                _ => {
                    for succ in lifted.successors_of(s) {
                        let er = encode_stmt(succ);
                        db.insert(rels.act, vec![es, er], en.clone());
                        db.insert(rels.idn, vec![es, er], dis.clone());
                    }
                    if let Some(d) = kind.def() {
                        db.insert(rels.defs, vec![es, d.0 as u64], tt.clone());
                    }
                }
            }
        }
    }
    // Tabulation seeds: the identity path edge at every entry point
    // (Phase 1) and the feature model as the entry value (Phase 2).
    for m0 in icfg.entry_points() {
        let sp = encode_stmt(icfg.start_point_of(m0));
        db.insert(rels.pe, vec![ZERO, 0, 0, sp, ZERO, 0, 0], tt.clone());
        db.insert(rels.ve, vec![m0.0 as u64, ZERO, 0, 0], model_c.clone());
        db.insert(rels.zpe, vec![sp], tt.clone());
        db.insert(rels.zve, vec![m0.0 as u64], model_c.clone());
    }
    db
}

/// A completed Datalog solve: the program, its relation handles, the
/// fixpoint database, and evaluation counters.
pub struct DatalogSolution {
    program: DatalogProgram,
    rels: Relations,
    db: Database,
    stats: EvalStats,
}

/// Runs the combined reaching-definitions + reachability program on
/// `icfg` with the feature `model` conjoined on edges (the IDE
/// lifting's `ModelMode::OnEdges`), sharded over `opts.jobs` workers.
pub fn solve_reaching_defs(
    icfg: &ProgramIcfg<'_>,
    ctx: &BddConstraintContext,
    model: Option<&FeatureExpr>,
    opts: &EvalOptions,
) -> Result<DatalogSolution, DatalogError> {
    let (program, rels) = build_program();
    let mut db = seed_database(icfg, ctx, model, &program, &rels);
    let stats = evaluate(&program, &mut db, ctx, opts)?;
    Ok(DatalogSolution {
        program,
        rels,
        db,
        stats,
    })
}

impl DatalogSolution {
    /// The rule program.
    pub fn program(&self) -> &DatalogProgram {
        &self.program
    }

    /// Relation handles into [`DatalogSolution::database`].
    pub fn relations(&self) -> &Relations {
        &self.rels
    }

    /// The fixpoint database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Evaluation counters.
    pub fn stats(&self) -> &EvalStats {
        &self.stats
    }

    /// All reaching-definition results: `(stmt, fact, constraint)` in
    /// derivation order.
    pub fn all_reaching(&self) -> impl Iterator<Item = (StmtRef, DefFact, &Bdd)> {
        self.db
            .tuples(self.rels.val)
            .map(|(cols, c)| (decode_stmt(cols[0]), decode_fact(&cols[1..4]), c))
    }

    /// Reaching-definition facts at `s`, sorted by fact.
    pub fn reaching_at(&self, s: StmtRef) -> Vec<(DefFact, Bdd)> {
        let es = encode_stmt(s);
        let mut out: Vec<(DefFact, Bdd)> = self
            .db
            .tuples(self.rels.val)
            .filter(|(cols, _)| cols[0] == es)
            .map(|(cols, c)| (decode_fact(&cols[1..4]), c.clone()))
            .collect();
        out.sort_by(|(a, _), (b, _)| a.cmp(b));
        out
    }

    /// The constraint under which `fact` holds at `s`, if derivable.
    pub fn reaching_constraint(&self, s: StmtRef, fact: &DefFact) -> Option<&Bdd> {
        let f = encode_fact(fact);
        let tuple = vec![encode_stmt(s), f[0], f[1], f[2]];
        self.db.constraint_of(self.rels.val, &tuple)
    }

    /// The constraint under which `s` is reachable, if at all — the
    /// declarative counterpart of the IDE solution's `reachability_of`.
    pub fn reachability_of(&self, s: StmtRef) -> Option<&Bdd> {
        self.db.constraint_of(self.rels.zval, &[encode_stmt(s)])
    }

    /// Reachable methods with their constraints, sorted by method id.
    pub fn reachable_methods(&self) -> Vec<(MethodId, &Bdd)> {
        let mut out: Vec<(MethodId, &Bdd)> = self
            .db
            .tuples(self.rels.mreach)
            .map(|(cols, c)| (MethodId(cols[0] as u32), c))
            .collect();
        out.sort_by_key(|(m, _)| *m);
        out
    }
}
