//! Greedy join-order planning shared by the executor and the cost model.
//!
//! The engine evaluates conjunctions of disjunctive *slots* (a CQ is a
//! conjunction of singleton slots; an SCQ has wider slots). Planning picks
//! the next slot greedily: cheapest access given the variables bound so
//! far — bound-subject/object index probes beat scans, selective tables
//! beat large ones. On top of the slot order, [`plan_conjunction`] chooses
//! a **physical operator** per join step: the classic index-nested-loop
//! probe, or a build-side/probe-side hash join that scans the predicate's
//! extension once and probes it with every intermediate row. Executor and
//! cost model call the same functions, so the estimate ("explain") prices
//! exactly the plan that runs.
//!
//! The planner also decides, once per step, whether the step is an
//! **existence step** ([`PlanStep::exists`]): every variable it newly
//! binds is dead — absent from the head and from every later step — so
//! the step is a semi-join that only has to show a witness exists. The
//! executor, the cost model and EXPLAIN read the flag; none of them
//! re-derives it.

use std::fmt;

use obda_query::{Atom, Conjunct, Term, VarId};

use crate::layout::{LayoutKind, BATCH_SIZE};
use crate::stats::CatalogStats;

/// Per-tuple weights of the hash operators (shared with
/// [`crate::cost_model`] and [`crate::metrics::ExecMetrics::work_units`],
/// so estimates and measurements stay in one unit).
pub const HASH_BUILD_WEIGHT: f64 = 1.5;
pub const HASH_PROBE_WEIGHT: f64 = 1.0;
/// Cost of materializing one intermediate tuple (`WITH … AS`).
pub const MATERIALIZE_WEIGHT: f64 = 3.0;
/// Cost of one index probe (same constant as [`atom_estimate`]'s bound
/// access paths).
pub const INDEX_PROBE_WEIGHT: f64 = 2.0;
/// Hysteresis for cost-chosen operator switches: take the hash join only
/// when its estimate beats INL by at least this factor. Near break-even
/// the work-unit model overstates INL (an in-memory index probe costs
/// about one hash probe, not [`INDEX_PROBE_WEIGHT`]), and estimate error
/// should not flap the operator on marginal calls.
pub const HASH_COST_MARGIN: f64 = 0.75;

/// A set of query variables: one bit per id below 128, and the larger
/// ids, which long rewritings can mint, in a sorted spill list. Sets over
/// small ids never allocate; larger ids plan exactly the same.
#[derive(Debug, Default)]
pub struct VarSet {
    bits: u128,
    spill: Vec<VarId>,
}

impl VarSet {
    pub fn contains(&self, v: VarId) -> bool {
        match 1u128.checked_shl(v.0) {
            Some(bit) => self.bits & bit != 0,
            None => self.spill.binary_search(&v).is_ok(),
        }
    }

    pub fn insert(&mut self, v: VarId) {
        match 1u128.checked_shl(v.0) {
            Some(bit) => self.bits |= bit,
            None => {
                if let Err(at) = self.spill.binary_search(&v) {
                    self.spill.insert(at, v);
                }
            }
        }
    }

    /// Add every variable of `atom`.
    pub fn insert_atom(&mut self, atom: &Atom) {
        for v in atom.vars() {
            self.insert(v);
        }
    }

    /// Empty the set, keeping the spill list's buffer.
    pub fn clear(&mut self) {
        self.bits = 0;
        self.spill.clear();
    }
}

/// How an atom will be accessed given the currently-bound variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// All positions bound or constant: a membership probe.
    Probe,
    /// Subject bound, object free: index lookup by subject.
    BySubject,
    /// Object bound, subject free: index lookup by object.
    ByObject,
    /// Nothing bound: a full scan of the predicate's extension.
    Scan,
}

/// Classify an atom's access path. A term is bound if it is a constant or
/// its variable is in `bound`.
pub fn access_kind(atom: &Atom, bound: &VarSet) -> AccessKind {
    let is_bound = |t: &Term| match t {
        Term::Const(_) => true,
        Term::Var(v) => bound.contains(*v),
    };
    match atom {
        Atom::Concept(_, t) => {
            if is_bound(t) {
                AccessKind::Probe
            } else {
                AccessKind::Scan
            }
        }
        Atom::Role(_, t1, t2) => match (is_bound(t1), is_bound(t2)) {
            (true, true) => AccessKind::Probe,
            (true, false) => AccessKind::BySubject,
            (false, true) => AccessKind::ByObject,
            (false, false) => AccessKind::Scan,
        },
    }
}

/// Estimated (access cost, output multiplier) for one atom under the
/// layout. The multiplier is the expected number of extensions per current
/// row (System-R style, uniformity + independence — §6.1's assumptions).
pub fn atom_estimate(
    atom: &Atom,
    bound: &VarSet,
    stats: &CatalogStats,
    layout: LayoutKind,
) -> (f64, f64) {
    let n = stats.num_individuals.max(1) as f64;
    match atom {
        Atom::Concept(c, _) => {
            let card = stats.concept_card(c.0) as f64;
            match access_kind(atom, bound) {
                AccessKind::Probe => (2.0, (card / n).min(1.0)),
                _ => (scan_cost(card, stats, layout), card.max(1e-9)),
            }
        }
        Atom::Role(r, _, _) => {
            let card = stats.role_card(r.0) as f64;
            let vs = stats.role_distinct_subjects(r.0).max(1) as f64;
            let vo = stats.role_distinct_objects(r.0).max(1) as f64;
            match access_kind(atom, bound) {
                AccessKind::Probe => (2.0, (card / (vs * vo)).min(1.0)),
                AccessKind::BySubject => (2.0, stats.role_fanout_s(r.0)),
                AccessKind::ByObject => (2.0, stats.role_fanout_o(r.0)),
                AccessKind::Scan => (scan_cost(card, stats, layout), card.max(1e-9)),
            }
        }
    }
}

/// Layout-dependent scan cost: the simple layout scans exactly the
/// predicate's extension; the triple table pays a width factor; the DPH
/// layout scans the *whole* wide table regardless of the predicate (no
/// per-predicate extent — the core weakness of entity layouts under
/// reformulated workloads, §6.3).
pub fn scan_cost(pred_card: f64, stats: &CatalogStats, layout: LayoutKind) -> f64 {
    match layout {
        LayoutKind::Simple => pred_card,
        LayoutKind::Triple => pred_card * 1.5,
        LayoutKind::Dph => (stats.total_facts as f64) * 2.0,
    }
}

/// Estimated (cost, multiplier) of a whole slot: disjunction = sum of
/// member costs and multipliers.
pub fn slot_estimate(
    atoms: &[Atom],
    bound: &VarSet,
    stats: &CatalogStats,
    layout: LayoutKind,
) -> (f64, f64) {
    let mut cost = 0.0;
    let mut mult = 0.0;
    for atom in atoms {
        let (c, m) = atom_estimate(atom, bound, stats, layout);
        cost += c;
        mult += m;
    }
    (cost, mult)
}

/// The greedy choice: the position in `remaining` of the first slot
/// minimizing `access_cost · (1 + multiplier)` given `bound`, with that
/// slot's estimate. Each key is computed once; a NaN key compares equal,
/// so it neither wins nor displaces (the rules of `Iterator::min_by`).
fn cheapest<C: Conjunct>(
    slots: &[C],
    remaining: &[usize],
    bound: &VarSet,
    stats: &CatalogStats,
    layout: LayoutKind,
) -> (usize, (f64, f64)) {
    let mut best = (0, (0.0, 0.0));
    let mut best_key = 0.0;
    for (pos, &idx) in remaining.iter().enumerate() {
        let (cost, mult) = slot_estimate(slots[idx].atoms(), bound, stats, layout);
        let key = cost * (1.0 + mult);
        if pos == 0 || key < best_key {
            best = (pos, (cost, mult));
            best_key = key;
        }
    }
    best
}

// ---------------------------------------------------------------------
// physical operator choice
// ---------------------------------------------------------------------

/// Which physical join operator the executor may use per step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinStrategy {
    /// Always index-nested-loop (the engine's historical behaviour).
    ForcedInl,
    /// Hash-join every eligible step: keyed (≥ 1 bound variable) and
    /// binding a new variable. Pure scan stages have no key; fully-bound
    /// membership filters stay INL probes (see `plan_conjunction`).
    ForcedHash,
    /// Let the cost model arbitrate per step — the default.
    #[default]
    CostChosen,
}

impl JoinStrategy {
    pub fn name(&self) -> &'static str {
        match self {
            JoinStrategy::ForcedInl => "forced-inl",
            JoinStrategy::ForcedHash => "forced-hash",
            JoinStrategy::CostChosen => "cost-chosen",
        }
    }
}

/// The native execution pipeline: columnar batches of [`BATCH_SIZE`]
/// values, the only one there is. Nothing reads this enum; it is kept,
/// with the three fields that name it (`ServerConfig::exec_mode`,
/// `PreparedPlans::mode`, `EvalOptions::mode`), only until the benchmark
/// package stops naming them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    #[default]
    Batched,
}

/// The physical operator chosen for one conjunction step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PhysicalOp {
    /// Per-row index access (probe / by-subject / by-object), or a shared
    /// prescan for pure scan stages.
    IndexNestedLoop(AccessKind),
    /// Scan the slot's extensions once into a hash table keyed on the
    /// already-bound variable, then probe it with the bound column,
    /// `batch` values at a time.
    BatchHashJoin {
        /// Estimated build-side rows (the slot's total extension size).
        build_rows: f64,
        /// Probe-column batch size ([`BATCH_SIZE`]).
        batch: usize,
    },
}

impl PhysicalOp {
    pub fn name(&self) -> &'static str {
        match self {
            PhysicalOp::IndexNestedLoop(AccessKind::Scan) => "scan",
            PhysicalOp::IndexNestedLoop(_) => "inl",
            PhysicalOp::BatchHashJoin { .. } => "vhash",
        }
    }
}

/// One step of a conjunction plan: which slot runs, with which operator,
/// at what estimated cost, leaving how many estimated rows.
#[derive(Debug, Clone)]
pub struct PlanStep {
    pub slot: usize,
    pub op: PhysicalOp,
    /// True when no slot variable was bound yet (prescan / cartesian
    /// stage) — hash joins are ineligible there.
    pub scan_stage: bool,
    /// True when every variable the step newly binds is dead (in neither
    /// the head nor any later step's slot): the executor emits at most
    /// one extension per input row — the first witness of any atom of the
    /// slot — and the estimate caps the step's fan-out at 1.
    pub exists: bool,
    /// Estimated work units of this step under the chosen operator.
    pub est_cost: f64,
    /// Estimated intermediate rows after the step.
    pub est_rows: f64,
}

impl PlanStep {
    /// Rows out per row in, given the slot's estimated multiplier: an
    /// existence step keeps at most one extension per input row.
    pub(crate) fn fanout(&self, mult: f64) -> f64 {
        let mult = if self.exists { mult.min(1.0) } else { mult };
        mult.max(1e-9)
    }
}

/// EXPLAIN's rendering of one step, e.g. `[slot1 inl exists cost=2.0
/// rows=1.0]` — shared by the structured explain and `EXPLAIN ANALYZE`.
impl fmt::Display for PlanStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[slot{} {}{} cost={:.1} rows={:.1}]",
            self.slot,
            self.op.name(),
            if self.exists { " exists" } else { "" },
            self.est_cost,
            self.est_rows
        )
    }
}

/// An ordered, operator-annotated plan for one conjunction.
#[derive(Debug, Clone)]
pub struct ConjunctionPlan {
    pub steps: Vec<PlanStep>,
}

impl ConjunctionPlan {
    /// Total estimated cost across steps.
    pub fn est_cost(&self) -> f64 {
        self.steps.iter().map(|s| s.est_cost).sum()
    }
}

/// Estimated cost of running a slot (its `atoms`) as a hash join given
/// `rows` current intermediate rows: scan the extensions once, insert
/// every build tuple, probe once per row. Returns the build-side
/// cardinality too.
pub fn hash_join_cost(
    atoms: &[Atom],
    rows: f64,
    stats: &CatalogStats,
    layout: LayoutKind,
) -> (f64, f64) {
    let mut build_rows = 0.0;
    let mut scan = 0.0;
    for atom in atoms {
        let card = match atom {
            Atom::Concept(c, _) => stats.concept_card(c.0) as f64,
            Atom::Role(r, _, _) => stats.role_card(r.0) as f64,
        };
        build_rows += card;
        scan += scan_cost(card, stats, layout);
    }
    let cost = scan + HASH_BUILD_WEIGHT * build_rows + HASH_PROBE_WEIGHT * rows;
    (cost, build_rows)
}

/// A slot is a scan stage when none of its variables are bound yet (and
/// no term is a constant, which would give an index key).
pub fn slot_is_scan_stage(atoms: &[Atom], bound: &VarSet) -> bool {
    atoms
        .iter()
        .all(|a| access_kind(a, bound) == AccessKind::Scan)
}

/// Plan a conjunction projecting `head`: greedy slot order (repeatedly
/// the slot minimizing `access_cost · (1 + multiplier)` given the
/// variables bound so far, the same under every strategy, so strategies
/// differ only in physical operators), then per-step operator choice
/// driven by the tracked cardinality estimate.
pub fn plan_conjunction<C: Conjunct>(
    slots: &[C],
    head: &[Term],
    stats: &CatalogStats,
    layout: LayoutKind,
    strategy: JoinStrategy,
) -> ConjunctionPlan {
    let mut buf = PlanBuf::default();
    buf.plan(slots, head, stats, layout, strategy);
    ConjunctionPlan { steps: buf.steps }
}

/// The planner's working state, reusable from one conjunction to the
/// next: a caller that keeps one (the cost model prices every arm of a
/// statement through one) plans without allocating once its buffers
/// have grown.
#[derive(Default)]
pub(crate) struct PlanBuf {
    remaining: Vec<usize>,
    bound: VarSet,
    live: VarSet,
    /// The last conjunction's plan.
    pub(crate) steps: Vec<PlanStep>,
    /// Per step, the slot's (access cost, multiplier) given the variables
    /// bound before it — what [`slot_estimate`] returned when the greedy
    /// order picked it.
    pub(crate) estimates: Vec<(f64, f64)>,
}

impl PlanBuf {
    /// Plan `slots` as [`plan_conjunction`] does, into `self.steps`.
    pub(crate) fn plan<C: Conjunct>(
        &mut self,
        slots: &[C],
        head: &[Term],
        stats: &CatalogStats,
        layout: LayoutKind,
        strategy: JoinStrategy,
    ) {
        let PlanBuf {
            remaining,
            bound,
            live,
            steps,
            estimates,
        } = self;
        remaining.clear();
        remaining.extend(0..slots.len());
        bound.clear();
        steps.clear();
        estimates.clear();
        let mut rows = 1.0f64;
        while !remaining.is_empty() {
            let (pos, (access, mult)) = cheapest(slots, remaining, bound, stats, layout);
            let idx = remaining.remove(pos);
            let atoms = slots[idx].atoms();
            // The slot's variables are its first atom's (slot atoms share
            // one variable set). Live: the variables read after this step
            // — the head's and those of every slot that runs later.
            let vars = || atoms[0].vars();
            live.clear();
            for v in head.iter().filter_map(|t| t.as_var()) {
                live.insert(v);
            }
            for &later in remaining.iter() {
                live.insert_atom(&slots[later].atoms()[0]);
            }
            let scan_stage = slot_is_scan_stage(atoms, bound);
            let exists = vars().all(|v| bound.contains(v) || !live.contains(v));
            // Scan stages pay the (pre)scan once; bound stages pay one
            // index probe per atom per current row.
            let inl = if scan_stage {
                access
            } else {
                rows * INDEX_PROBE_WEIGHT * atoms.len() as f64
            };
            let (hash, build_rows) = hash_join_cost(atoms, rows, stats, layout);
            // Hash joins need a join key: at least one bound *variable* (a
            // constant makes a slot non-scan-stage but gives the hash table
            // nothing to key on — INL filters constants during the index
            // lookup instead) AND must bind a new variable: a fully-bound
            // slot is a membership *filter*, and an in-memory index probe
            // already costs what a hash probe costs, so building a table for
            // it can never pay off. Only expansion steps — where INL
            // re-traverses the index once per intermediate row — are where
            // the build amortizes.
            let hash_eligible = !scan_stage
                && vars().any(|v| bound.contains(v))
                && vars().any(|v| !bound.contains(v));
            let use_hash = match strategy {
                JoinStrategy::ForcedInl => false,
                JoinStrategy::ForcedHash => hash_eligible,
                JoinStrategy::CostChosen => hash_eligible && hash < inl * HASH_COST_MARGIN,
            };
            let (op, est_cost) = if use_hash {
                let op = PhysicalOp::BatchHashJoin {
                    build_rows,
                    batch: BATCH_SIZE,
                };
                (op, hash)
            } else {
                // Representative access kind: the first atom's (slot atoms
                // share a variable set, so kinds agree up to role direction).
                let kind = access_kind(&atoms[0], bound);
                (PhysicalOp::IndexNestedLoop(kind), inl)
            };
            let mut step = PlanStep {
                slot: idx,
                op,
                scan_stage,
                exists,
                est_cost,
                est_rows: 0.0,
            };
            rows = (rows * step.fanout(mult)).max(0.0);
            step.est_rows = rows;
            steps.push(step);
            estimates.push((access, mult));
            for atom in atoms {
                bound.insert_atom(atom);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obda_dllite::{ABox, ConceptId, RoleId, Vocabulary};
    use obda_query::Slot;

    fn v(i: u32) -> Term {
        Term::Var(VarId(i))
    }

    /// A head naming every fixture variable: no step is an existence step.
    const LIVE: &[Term] = &[
        Term::Var(VarId(0)),
        Term::Var(VarId(1)),
        Term::Var(VarId(2)),
    ];

    fn is_hash(op: PhysicalOp) -> bool {
        matches!(op, PhysicalOp::BatchHashJoin { .. })
    }

    /// The greedy slot order, as the forced-INL plan takes it.
    fn slot_order<C: Conjunct>(slots: &[C], stats: &CatalogStats) -> Vec<usize> {
        let plan = plan_conjunction(
            slots,
            &[],
            stats,
            LayoutKind::Simple,
            JoinStrategy::ForcedInl,
        );
        plan.steps.iter().map(|step| step.slot).collect()
    }

    fn stats_with_skew() -> CatalogStats {
        let mut voc = Vocabulary::new();
        let small = voc.concept("Small");
        let big = voc.concept("Big");
        let r = voc.role("r");
        let mut abox = ABox::new();
        for i in 0..100 {
            let ind = voc.individual(&format!("i{i}"));
            abox.assert_concept(big, ind);
            if i < 5 {
                abox.assert_concept(small, ind);
            }
            if i > 0 {
                let prev = voc.find_individual(&format!("i{}", i - 1)).unwrap();
                abox.assert_role(r, prev, ind);
            }
        }
        let _ = small;
        CatalogStats::from_abox(&abox)
    }

    #[test]
    fn access_kind_classification() {
        let mut bound = VarSet::default();
        let a = Atom::Role(RoleId(0), v(0), v(1));
        assert_eq!(access_kind(&a, &bound), AccessKind::Scan);
        bound.insert(VarId(0));
        assert_eq!(access_kind(&a, &bound), AccessKind::BySubject);
        bound.insert(VarId(1));
        assert_eq!(access_kind(&a, &bound), AccessKind::Probe);
        let c = Atom::Concept(ConceptId(0), Term::Const(obda_dllite::IndividualId(1)));
        assert_eq!(access_kind(&c, &VarSet::default()), AccessKind::Probe);
    }

    #[test]
    fn greedy_order_starts_with_selective_slot() {
        let stats = stats_with_skew();
        // Small(x) ∧ Big(x): start with Small (5 rows), then probe Big.
        let slots = vec![
            Slot::single(Atom::Concept(ConceptId(1), v(0))), // Big
            Slot::single(Atom::Concept(ConceptId(0), v(0))), // Small
        ];
        let order = slot_order(&slots, &stats);
        assert_eq!(order[0], 1, "Small first");
    }

    #[test]
    fn bound_probe_is_cheaper_than_scan() {
        let stats = stats_with_skew();
        let atom = Atom::Role(RoleId(0), v(0), v(1));
        let unbound = VarSet::default();
        let mut bound = VarSet::default();
        bound.insert(VarId(0));
        let (scan_c, _) = atom_estimate(&atom, &unbound, &stats, LayoutKind::Simple);
        let (probe_c, _) = atom_estimate(&atom, &bound, &stats, LayoutKind::Simple);
        assert!(probe_c < scan_c);
    }

    #[test]
    fn dph_scan_ignores_predicate_size() {
        let stats = stats_with_skew();
        // Tiny predicate scan costs the whole table under DPH.
        let small_scan = scan_cost(5.0, &stats, LayoutKind::Dph);
        let big_scan = scan_cost(100.0, &stats, LayoutKind::Dph);
        assert_eq!(small_scan, big_scan);
        assert!(small_scan > scan_cost(5.0, &stats, LayoutKind::Simple));
    }

    /// Star join over the skewed fixture: Big(x) ∧ Big(y) ∧ r(x, y).
    fn cartesian_slots() -> Vec<Slot> {
        vec![
            Slot::single(Atom::Concept(ConceptId(1), v(0))),
            Slot::single(Atom::Concept(ConceptId(1), v(1))),
            Slot::single(Atom::Role(RoleId(0), v(0), v(1))),
        ]
    }

    #[test]
    fn plan_order_matches_order_slots_under_every_strategy() {
        let stats = stats_with_skew();
        let slots = cartesian_slots();
        let base = slot_order(&slots, &stats);
        for strategy in [
            JoinStrategy::ForcedInl,
            JoinStrategy::ForcedHash,
            JoinStrategy::CostChosen,
        ] {
            let plan = plan_conjunction(&slots, LIVE, &stats, LayoutKind::Simple, strategy);
            let order: Vec<usize> = plan.steps.iter().map(|s| s.slot).collect();
            assert_eq!(order, base, "{strategy:?}");
        }
    }

    #[test]
    fn forced_inl_never_hashes_and_forced_hash_hashes_expansions() {
        let stats = fanout_stats();
        let slots = fanout_slots();
        let inl = plan_conjunction(
            &slots,
            LIVE,
            &stats,
            LayoutKind::Simple,
            JoinStrategy::ForcedInl,
        );
        assert!(inl
            .steps
            .iter()
            .all(|s| matches!(s.op, PhysicalOp::IndexNestedLoop(_))));
        // Forced hash: A(x) scans (no key), r(x, y) hashes (expansion),
        // B(y) stays an INL membership filter (no new variable).
        let hash = plan_conjunction(
            &slots,
            LIVE,
            &stats,
            LayoutKind::Simple,
            JoinStrategy::ForcedHash,
        );
        let op_of = |slot: usize| {
            hash.steps
                .iter()
                .find(|s| s.slot == slot)
                .map(|s| s.op)
                .expect("slot planned")
        };
        assert!(
            matches!(op_of(0), PhysicalOp::IndexNestedLoop(_)),
            "A scans"
        );
        assert!(is_hash(op_of(1)), "r hashes");
        assert!(
            matches!(op_of(2), PhysicalOp::IndexNestedLoop(AccessKind::Probe)),
            "B filter stays INL"
        );
    }

    /// A(x) ∧ r(x, y) ∧ B(y) over a fan-out-heavy r: A and B have 100
    /// members each, r has 100 × 100 pairs, so after A-scan → r-expand
    /// the pipeline carries ~10 000 rows into the B step.
    fn fanout_stats() -> CatalogStats {
        let mut voc = Vocabulary::new();
        let a = voc.concept("A");
        let b = voc.concept("B");
        let r = voc.role("r");
        let mut abox = ABox::new();
        let xs: Vec<_> = (0..100).map(|i| voc.individual(&format!("x{i}"))).collect();
        let ys: Vec<_> = (0..100).map(|i| voc.individual(&format!("y{i}"))).collect();
        for &x in &xs {
            abox.assert_concept(a, x);
            for &y in &ys {
                abox.assert_role(r, x, y);
            }
        }
        for &y in &ys {
            abox.assert_concept(b, y);
        }
        CatalogStats::from_abox(&abox)
    }

    fn fanout_slots() -> Vec<Slot> {
        vec![
            Slot::single(Atom::Concept(ConceptId(0), v(0))), // A(x)
            Slot::single(Atom::Role(RoleId(0), v(0), v(1))), // r(x, y)
            Slot::single(Atom::Concept(ConceptId(1), v(1))), // B(y)
        ]
    }

    /// C(x) ∧ r1(x, y) ∧ r2(y, z): C has 100 members, r1 fans each out
    /// to 100 ys (10 000 pairs), r2 is a 1 000-pair expansion — after
    /// C-scan → r1-expand the pipeline carries ~10 000 rows into the r2
    /// step, where hashing the 1 000-row extension (≈ 12 500 units)
    /// beats 20 000 per-row index probes.
    fn chain_stats() -> CatalogStats {
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
        CatalogStats::from_abox(&abox)
    }

    fn chain_slots() -> Vec<Slot> {
        vec![
            Slot::single(Atom::Concept(ConceptId(0), v(0))), // C(x)
            Slot::single(Atom::Role(RoleId(0), v(0), v(1))), // r1(x, y)
            Slot::single(Atom::Role(RoleId(1), v(1), v(2))), // r2(y, z)
        ]
    }

    #[test]
    fn cost_chosen_hashes_when_intermediate_rows_dwarf_build_side() {
        let stats = chain_stats();
        let plan = plan_conjunction(
            &chain_slots(),
            LIVE,
            &stats,
            LayoutKind::Simple,
            JoinStrategy::CostChosen,
        );
        // The r2 step expands ~10 000 intermediate rows through a
        // 1 000-row table: hashing it once wins.
        let r2_step = plan
            .steps
            .iter()
            .find(|s| s.slot == 2)
            .expect("r2 slot planned");
        assert!(
            is_hash(r2_step.op),
            "expected hash join for the r2 step: {r2_step:?}"
        );
        // The r1 expansion stays INL: its 10 000-row build dwarfs the
        // 100 rows that would probe it.
        let r1_step = plan.steps.iter().find(|s| s.slot == 1).unwrap();
        assert!(matches!(r1_step.op, PhysicalOp::IndexNestedLoop(_)));
        // And the chosen plan is never priced above either forced mode.
        for strategy in [JoinStrategy::ForcedInl, JoinStrategy::ForcedHash] {
            let forced =
                plan_conjunction(&chain_slots(), LIVE, &stats, LayoutKind::Simple, strategy);
            assert!(plan.est_cost() <= forced.est_cost(), "{strategy:?}");
        }
    }

    #[test]
    fn cost_chosen_keeps_inl_for_membership_filters() {
        // A(x) ∧ r(x, y) ∧ B(y): the B step is fully bound — a
        // membership filter — and must stay INL even though its work-unit
        // arithmetic would favour a hash table (an in-memory index probe
        // costs the same as a hash probe; the build cannot amortize).
        let stats = fanout_stats();
        let plan = plan_conjunction(
            &fanout_slots(),
            LIVE,
            &stats,
            LayoutKind::Simple,
            JoinStrategy::CostChosen,
        );
        let b_step = plan.steps.iter().find(|s| s.slot == 2).unwrap();
        assert!(
            matches!(b_step.op, PhysicalOp::IndexNestedLoop(AccessKind::Probe)),
            "filter step must stay INL: {b_step:?}"
        );
    }

    #[test]
    fn cost_chosen_keeps_inl_for_selective_probes() {
        let stats = stats_with_skew();
        // Small(x) ∧ Big(x): one 5-row scan, then 5 cheap probes into
        // Big — building a 100-row hash table would be wasteful.
        let slots = vec![
            Slot::single(Atom::Concept(ConceptId(1), v(0))), // Big
            Slot::single(Atom::Concept(ConceptId(0), v(0))), // Small
        ];
        let plan = plan_conjunction(
            &slots,
            LIVE,
            &stats,
            LayoutKind::Simple,
            JoinStrategy::CostChosen,
        );
        assert!(matches!(
            plan.steps[1].op,
            PhysicalOp::IndexNestedLoop(AccessKind::Probe)
        ));
    }

    #[test]
    fn strategy_and_op_names_are_stable() {
        assert_eq!(JoinStrategy::default(), JoinStrategy::CostChosen);
        assert_eq!(JoinStrategy::ForcedInl.name(), "forced-inl");
        assert_eq!(JoinStrategy::ForcedHash.name(), "forced-hash");
        assert_eq!(JoinStrategy::CostChosen.name(), "cost-chosen");
        assert_eq!(
            PhysicalOp::BatchHashJoin {
                build_rows: 1.0,
                batch: 1024
            }
            .name(),
            "vhash"
        );
        assert_eq!(PhysicalOp::IndexNestedLoop(AccessKind::Scan).name(), "scan");
        assert_eq!(
            PhysicalOp::IndexNestedLoop(AccessKind::BySubject).name(),
            "inl"
        );
    }

    /// The existence flag is set iff every variable the step newly binds
    /// is dead (absent from the head and from every later slot), checked
    /// against a brute-force reading of the definition for every head
    /// over the chain and fan-out fixtures; a flagged step never leaves
    /// more estimated rows than it receives.
    #[test]
    fn existence_flag_marks_exactly_the_steps_whose_new_variables_are_dead() {
        let vars = [VarId(0), VarId(1), VarId(2)];
        for (stats, slots) in [
            (chain_stats(), chain_slots()),
            (fanout_stats(), fanout_slots()),
        ] {
            for mask in 0..8u32 {
                let head: Vec<Term> = (0..3)
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| Term::Var(vars[i]))
                    .collect();
                for strategy in [
                    JoinStrategy::ForcedInl,
                    JoinStrategy::ForcedHash,
                    JoinStrategy::CostChosen,
                ] {
                    let plan =
                        plan_conjunction(&slots, &head, &stats, LayoutKind::Simple, strategy);
                    let mut bound = VarSet::default();
                    let mut rows_in = 1.0;
                    for (k, step) in plan.steps.iter().enumerate() {
                        let new: Vec<VarId> = slots[step.slot]
                            .vars()
                            .into_iter()
                            .filter(|v| !bound.contains(*v))
                            .collect();
                        let dead = |v: &VarId| {
                            !head.contains(&Term::Var(*v))
                                && plan.steps[k + 1..]
                                    .iter()
                                    .all(|later| !slots[later.slot].vars().contains(v))
                        };
                        let ctx = format!("head {head:?} {strategy:?} step {k}: {step:?}");
                        assert_eq!(step.exists, new.iter().all(dead), "{ctx}");
                        if step.exists {
                            assert!(step.est_rows <= rows_in, "{ctx}");
                        }
                        for v in new {
                            bound.insert(v);
                        }
                        rows_in = step.est_rows;
                    }
                }
            }
        }
        // Concretely: C(x) ∧ r1(x, y) ∧ r2(y, z) projecting x flags only
        // the r2 step (y is read by r2, z by nobody), which keeps ~10 000
        // rows instead of fanning out ten-fold.
        let plan = plan_conjunction(
            &chain_slots(),
            &[v(0)],
            &chain_stats(),
            LayoutKind::Simple,
            JoinStrategy::CostChosen,
        );
        let flags: Vec<(usize, bool)> = plan.steps.iter().map(|s| (s.slot, s.exists)).collect();
        assert_eq!(flags, vec![(0, false), (1, false), (2, true)]);
        assert_eq!(plan.steps[2].est_rows, plan.steps[1].est_rows);
        assert!(
            plan.steps[2].to_string().contains(" exists "),
            "{}",
            plan.steps[2]
        );
    }
}
