//! Cost estimation — the two `ε` functions of the evaluation (§6.1).
//!
//! Both estimators share the same textbook machinery (uniformity and
//! independence assumptions, linear-time hash joins, index-access
//! comparison — exactly the greedy plans the executor runs). They differ
//! in the engine quirks they model:
//!
//! * [`CostModel::rdbms`] mimics the engine's own `explain`: it honours
//!   the profile's **union collapse limit** (Postgres-like profiles stop
//!   estimating per-arm cardinalities beyond N union arms and fall back to
//!   default selectivities — the §6.3 explanation for GDL/RDBMS's bad
//!   picks on Q9–Q11) and the **repeated-scan discount** (DB2's \[21\]);
//! * [`CostModel::ext`] is the paper's external Java-side model: the same
//!   formulas applied **uniformly to queries of all sizes**, with no
//!   engine quirks.

use obda_query::{Atom, FolQuery, Term, CQ, JUCQ, JUSCQ, SCQ, UCQ, USCQ};

use crate::fxhash::FxHashMap;
use crate::layout::LayoutKind;
use crate::planner::{
    scan_cost, Conjunct, JoinStrategy, PhysicalOp, PlanBuf, HASH_BUILD_WEIGHT, HASH_PROBE_WEIGHT,
    INDEX_PROBE_WEIGHT, MATERIALIZE_WEIGHT,
};
use crate::profile::{EngineKind, EngineProfile};
use crate::stats::CatalogStats;

/// A configured cost model over one catalog, which it borrows.
pub struct CostModel<'s> {
    stats: &'s CatalogStats,
    layout: LayoutKind,
    /// Which physical operators the priced plans may use. Must match the
    /// executor's strategy for "explain prices the plan that runs".
    strategy: JoinStrategy,
    /// Union arms beyond which default selectivities kick in (engine
    /// shortcut; `None` = always estimate properly).
    collapse_limit: Option<usize>,
    /// Cost multiplier for repeat scans of a table within a statement.
    rescan_discount: f64,
    name: &'static str,
}

impl<'s> CostModel<'s> {
    /// The engine's own estimator under `profile` ("explain").
    pub fn rdbms(stats: &'s CatalogStats, layout: LayoutKind, profile: &EngineProfile) -> Self {
        CostModel {
            stats,
            layout,
            strategy: JoinStrategy::CostChosen,
            collapse_limit: profile.union_collapse_limit,
            rescan_discount: profile.rescan_discount,
            name: match profile.kind {
                EngineKind::PgLike => "rdbms/pg-like",
                EngineKind::Db2Like => "rdbms/db2-like",
            },
        }
    }

    /// The paper's external estimator: uniform treatment of all sizes.
    pub fn ext(stats: &'s CatalogStats, layout: LayoutKind) -> Self {
        CostModel {
            stats,
            layout,
            strategy: JoinStrategy::CostChosen,
            collapse_limit: None,
            rescan_discount: 1.0,
            name: "ext",
        }
    }

    /// Price plans under an explicit operator strategy (the engine passes
    /// its own, so forced modes explain what they run).
    pub fn with_strategy(mut self, strategy: JoinStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    pub fn model_name(&self) -> &str {
        self.name
    }

    /// Estimate the evaluation cost of a FOL query (work units).
    pub fn estimate_fol(&self, q: &FolQuery) -> f64 {
        let p = &mut Pricing::default();
        match q {
            FolQuery::Cq(cq) => self.est_cq(cq, p, false).cost,
            FolQuery::Ucq(ucq) => self.est_ucq(ucq, p).cost,
            FolQuery::Scq(scq) => self.est_scq(scq, p, false).cost,
            FolQuery::Uscq(uscq) => self.est_uscq(uscq, p).cost,
            FolQuery::Jucq(jucq) => self.est_jucq(jucq, p),
            FolQuery::Juscq(juscq) => self.est_juscq(juscq, p),
        }
    }

    /// A CQ's atoms are its singleton slots, priced in place.
    fn est_cq(&self, cq: &CQ, p: &mut Pricing, degraded: bool) -> Estimate {
        self.est_conjunction(cq.atoms(), cq.head(), p, degraded)
    }

    fn est_scq(&self, scq: &SCQ, p: &mut Pricing, degraded: bool) -> Estimate {
        self.est_conjunction(scq.slots(), scq.head(), p, degraded)
    }

    fn est_ucq(&self, ucq: &UCQ, p: &mut Pricing) -> Estimate {
        let degraded = self.collapse_limit.is_some_and(|limit| ucq.len() > limit);
        let mut total = Estimate::default();
        for cq in ucq.cqs() {
            let e = self.est_cq(cq, p, degraded);
            total.cost += e.cost + HASH_BUILD_WEIGHT * e.card; // union dedup
            total.card += e.card;
        }
        total
    }

    fn est_uscq(&self, uscq: &USCQ, p: &mut Pricing) -> Estimate {
        let degraded = self
            .collapse_limit
            .is_some_and(|limit| uscq.equivalent_cq_count() > limit);
        let mut total = Estimate::default();
        for scq in uscq.scqs() {
            let e = self.est_scq(scq, p, degraded);
            total.cost += e.cost + HASH_BUILD_WEIGHT * e.card;
            total.card += e.card;
        }
        total
    }

    fn est_jucq(&self, jucq: &JUCQ, p: &mut Pricing) -> f64 {
        let mut cost = 0.0;
        let mut cards = std::mem::take(&mut p.cards);
        cards.clear();
        for c in jucq.components() {
            let e = self.est_ucq(c, p);
            cost += e.cost + MATERIALIZE_WEIGHT * e.card;
            cards.push(e.card);
        }
        // Rough join-output cardinality (for the final DISTINCT): the
        // smallest component's.
        let join_card = cards.iter().copied().fold(f64::INFINITY, f64::min).max(0.0);
        // Hash-join chain, smallest first: build + probe each relation.
        cards.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let mut acc = 1.0f64;
        for &c in &cards {
            cost += HASH_BUILD_WEIGHT * c + HASH_PROBE_WEIGHT * acc;
            // Join cardinality: assume joins are selective — the
            // accumulated result cannot exceed either side by much; use
            // the geometric-mean heuristic bounded by the smaller side.
            acc = (acc * c).sqrt().min(acc.max(c));
        }
        p.cards = cards;
        cost + join_card
    }

    fn est_juscq(&self, juscq: &JUSCQ, p: &mut Pricing) -> f64 {
        let mut cost = 0.0;
        let mut cards = std::mem::take(&mut p.cards);
        cards.clear();
        for c in juscq.components() {
            let e = self.est_uscq(c, p);
            cost += e.cost + MATERIALIZE_WEIGHT * e.card;
            cards.push(e.card);
        }
        let mut acc = 1.0f64;
        for &c in &cards {
            cost += HASH_BUILD_WEIGHT * c + HASH_PROBE_WEIGHT * acc;
            acc = (acc * c).sqrt().min(acc.max(c));
        }
        p.cards = cards;
        cost
    }

    /// Cost a conjunction the way the executor runs it: the shared
    /// planner ([`crate::planner::plan_conjunction`]) fixes slot order
    /// and per-step physical operators; this prices each step, adding the
    /// model's engine quirks (rescan discounts, degraded flat estimates).
    ///
    /// An existence step ([`crate::planner::PlanStep::exists`], decided by
    /// the planner and only read here) costs what its probes cost — the
    /// executor still probes every (row, atom) pair not yet witnessed —
    /// but leaves `rows_in × min(1, fan-out)` rows, so later steps and the
    /// union's dedup are priced on the rows that actually reach them.
    fn est_conjunction<C: Conjunct>(
        &self,
        slots: &[C],
        head: &[Term],
        p: &mut Pricing,
        degraded: bool,
    ) -> Estimate {
        if slots.is_empty() {
            return Estimate {
                cost: 0.0,
                card: 1.0,
            };
        }
        let Pricing { scans, plan, .. } = p;
        plan.plan(slots, head, self.stats, self.layout, self.strategy);
        let mut cost = 0.0;
        let mut card = 1.0f64;
        for (step, &estimate) in plan.steps.iter().zip(&plan.estimates) {
            let atoms = slots[step.slot].atoms();
            let (access, mult) = if degraded {
                // Default-selectivity fallback: the engine shortcut.
                // Every slot looks like a 100-row access with fan-out 1.
                (100.0, 1.0)
            } else {
                // The slot's estimate given the variables bound before
                // it, which the planner already made.
                estimate
            };
            match step.op {
                // The engine shortcut never reasons about operators — a
                // degraded estimate prices every step as INL.
                PhysicalOp::BatchHashJoin { build_rows, .. } if !degraded => {
                    // Build: scan each extension once (rescan-discounted)
                    // and insert every tuple; probe once per current row.
                    let mut build_scan = 0.0;
                    for atom in atoms {
                        let (key, atom_card) = match atom {
                            Atom::Concept(c, _) => ((0u8, c.0), self.stats.concept_card(c.0)),
                            Atom::Role(r, _, _) => ((1u8, r.0), self.stats.role_card(r.0)),
                        };
                        let factor = if scans.count(key) > 0 {
                            self.rescan_discount
                        } else {
                            1.0
                        };
                        build_scan += scan_cost(atom_card as f64, self.stats, self.layout) * factor;
                        scans.bump(key);
                    }
                    cost += build_scan + HASH_BUILD_WEIGHT * build_rows + HASH_PROBE_WEIGHT * card;
                    card *= step.fanout(mult);
                }
                _ if step.scan_stage => {
                    // Scans happen once per conjunction (prescan); apply
                    // the rescan discount per table.
                    let mut scan_work = 0.0;
                    for atom in atoms {
                        let key = match atom {
                            Atom::Concept(c, _) => (0u8, c.0),
                            Atom::Role(r, _, _) => (1u8, r.0),
                        };
                        let prior = scans.count(key);
                        let factor = if prior > 0 { self.rescan_discount } else { 1.0 };
                        scan_work += access / atoms.len() as f64 * factor;
                        scans.bump(key);
                    }
                    cost += scan_work;
                    card *= step.fanout(mult);
                }
                _ => {
                    // Index-nested-loop: one probe per atom per row.
                    cost += card * (INDEX_PROBE_WEIGHT * atoms.len() as f64);
                    card *= step.fanout(mult);
                }
            }
        }
        Estimate { cost, card }
    }
}

/// Accumulated (cost, cardinality) estimate.
#[derive(Debug, Clone, Copy, Default)]
struct Estimate {
    cost: f64,
    card: f64,
}

/// What pricing one statement works in: its scan tally and the buffers
/// every arm reuses, so no arm allocates.
#[derive(Default)]
struct Pricing {
    scans: ScanTracker,
    plan: PlanBuf,
    /// The component cardinalities of a JUCQ or JUSCQ.
    cards: Vec<f64>,
}

/// Tracks table scan counts across a whole statement (for the rescan
/// discount, shared across union arms like the executor's meter).
#[derive(Default)]
struct ScanTracker {
    counts: FxHashMap<(u8, u32), u32>,
}

impl ScanTracker {
    fn count(&self, key: (u8, u32)) -> u32 {
        *self.counts.get(&key).unwrap_or(&0)
    }

    fn bump(&mut self, key: (u8, u32)) {
        *self.counts.entry(key).or_insert(0) += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::testutil::small_abox;
    use obda_dllite::{ConceptId, RoleId};
    use obda_query::VarId;

    fn v(i: u32) -> Term {
        Term::Var(VarId(i))
    }

    fn stats() -> CatalogStats {
        let (_, abox) = small_abox();
        CatalogStats::from_abox(&abox)
    }

    #[test]
    fn more_arms_cost_more() {
        let st = stats();
        let model = CostModel::ext(&st, LayoutKind::Simple);
        let one = FolQuery::Ucq(UCQ::single(CQ::with_var_head(
            vec![VarId(0)],
            vec![obda_query::Atom::Concept(ConceptId(0), v(0))],
        )));
        let two = FolQuery::Ucq(UCQ::from_cqs(
            vec![v(0)],
            [
                CQ::with_var_head(
                    vec![VarId(0)],
                    vec![obda_query::Atom::Concept(ConceptId(0), v(0))],
                ),
                CQ::with_var_head(
                    vec![VarId(0)],
                    vec![obda_query::Atom::Concept(ConceptId(1), v(0))],
                ),
            ],
        ));
        assert!(model.estimate_fol(&one) < model.estimate_fol(&two));
    }

    #[test]
    fn collapse_limit_degrades_estimation() {
        let mut pg = EngineProfile::pg_like();
        pg.union_collapse_limit = Some(2);
        let st = stats();
        let rdbms = CostModel::rdbms(&st, LayoutKind::Simple, &pg);
        let ext = CostModel::ext(&st, LayoutKind::Simple);
        // Three distinct arms over the same large role table.
        let arms: Vec<CQ> = (0..3)
            .map(|i| {
                CQ::with_var_head(
                    vec![VarId(0)],
                    vec![
                        obda_query::Atom::Role(RoleId(0), v(0), v(1)),
                        obda_query::Atom::Concept(ConceptId(i), v(0)),
                    ],
                )
            })
            .collect();
        let ucq = FolQuery::Ucq(UCQ::from_cqs(vec![v(0)], arms));
        // Degraded estimation gives a *different* (flat-rate) number.
        assert_ne!(rdbms.estimate_fol(&ucq), ext.estimate_fol(&ucq));
    }

    #[test]
    fn rescan_discount_lowers_repeated_scans() {
        let db2 = EngineProfile::db2_like();
        let st = stats();
        let with = CostModel::rdbms(&st, LayoutKind::Simple, &db2);
        let without = CostModel::ext(&st, LayoutKind::Simple);
        // Two arms scanning the same role table.
        let arm = |c: u32| {
            CQ::with_var_head(
                vec![VarId(0)],
                vec![
                    obda_query::Atom::Role(RoleId(0), v(0), v(1)),
                    obda_query::Atom::Concept(ConceptId(c), v(1)),
                ],
            )
        };
        let ucq = FolQuery::Ucq(UCQ::from_cqs(vec![v(0)], [arm(0), arm(1)]));
        assert!(with.estimate_fol(&ucq) <= without.estimate_fol(&ucq));
    }

    #[test]
    fn dph_layout_penalizes_scans() {
        let st = stats();
        let simple = CostModel::ext(&st, LayoutKind::Simple);
        let dph = CostModel::ext(&st, LayoutKind::Dph);
        let q = FolQuery::Cq(CQ::with_var_head(
            vec![VarId(0)],
            vec![obda_query::Atom::Role(RoleId(1), v(0), v(1))], // tiny table s
        ));
        assert!(dph.estimate_fol(&q) > simple.estimate_fol(&q));
    }

    #[test]
    fn jucq_estimate_includes_materialization() {
        let st = stats();
        let model = CostModel::ext(&st, LayoutKind::Simple);
        let comp = UCQ::single(CQ::with_var_head(
            vec![VarId(0)],
            vec![obda_query::Atom::Concept(ConceptId(0), v(0))],
        ));
        let jucq = FolQuery::Jucq(JUCQ::new(vec![v(0)], vec![comp.clone(), comp.clone()]));
        let flat = FolQuery::Ucq(comp);
        assert!(model.estimate_fol(&jucq) > model.estimate_fol(&flat));
    }

    #[test]
    fn cost_chosen_estimate_never_exceeds_forced_inl() {
        use obda_dllite::{ABox, Vocabulary};
        // Chain data where a hash join pays off (cf. the planner tests):
        // C(x) ∧ r1(x, y) ∧ r2(y, z) with |r1| = 100 × 100, |r2| = 1 000.
        let mut voc = Vocabulary::new();
        let c = voc.concept("C");
        let r1 = voc.role("r1");
        let r2 = voc.role("r2");
        let mut abox = ABox::new();
        let xs: Vec<_> = (0..100).map(|i| voc.individual(&format!("x{i}"))).collect();
        let ys: Vec<_> = (0..100).map(|i| voc.individual(&format!("y{i}"))).collect();
        for &x in &xs {
            abox.assert_concept(c, x);
            for &y in &ys {
                abox.assert_role(r1, x, y);
            }
        }
        for (yi, &y) in ys.iter().enumerate() {
            for k in 0..10 {
                let z = voc.individual(&format!("z{yi}_{k}"));
                abox.assert_role(r2, y, z);
            }
        }
        let st = CatalogStats::from_abox(&abox);
        let q = FolQuery::Cq(CQ::with_var_head(
            vec![VarId(0)],
            vec![
                obda_query::Atom::Concept(c, v(0)),
                obda_query::Atom::Role(r1, v(0), v(1)),
                obda_query::Atom::Role(r2, v(1), v(2)),
            ],
        ));
        let chosen = CostModel::ext(&st, LayoutKind::Simple).estimate_fol(&q);
        let inl = CostModel::ext(&st, LayoutKind::Simple)
            .with_strategy(JoinStrategy::ForcedInl)
            .estimate_fol(&q);
        let hash = CostModel::ext(&st, LayoutKind::Simple)
            .with_strategy(JoinStrategy::ForcedHash)
            .estimate_fol(&q);
        assert!(chosen <= inl, "chosen {chosen} vs inl {inl}");
        assert!(chosen <= hash, "chosen {chosen} vs hash {hash}");
        // Cost-chosen must strictly beat BOTH pure modes here: the r1
        // expansion favours INL (200 work units vs hashing 10 000 build
        // tuples), the r2 expansion favours hash (≈ 12 500 vs 20 000
        // per-row probes) — only a per-step mix wins overall.
        assert!(chosen < inl, "mix must strictly beat pure INL");
        assert!(chosen < hash, "mix must strictly beat pure hash");
    }

    #[test]
    fn names_distinguish_models() {
        let pg = EngineProfile::pg_like();
        assert_eq!(
            CostModel::rdbms(&stats(), LayoutKind::Simple, &pg).model_name(),
            "rdbms/pg-like"
        );
        assert_eq!(
            CostModel::ext(&stats(), LayoutKind::Simple).model_name(),
            "ext"
        );
    }
}
