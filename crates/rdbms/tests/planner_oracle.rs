//! The planner and the cost model against their reference: the greedy
//! planner as it was written over `BTreeSet<VarId>` bound and live sets,
//! with a `Vec<Slot>` per CQ, copied below together with the cost
//! model's pricing loop. Both must return the same plans (slot order,
//! operators, existence flags, `f64` estimates bit for bit) and the same
//! estimates for every dialect, under every layout, join strategy,
//! execution mode and engine profile — also when variable ids run past
//! any fixed bitset width.

use std::collections::BTreeSet;

use proptest::prelude::*;

use obda_dllite::ABox;
use obda_query::fxhash::FxHashMap;
use obda_query::testkit::{random_abox, random_fol_query, random_tbox, KbShape, Rng};
use obda_query::{Atom, FolQuery, Slot, Term, VarId, CQ, JUCQ, JUSCQ, SCQ, UCQ, USCQ};
use obda_rdbms::layout::BATCH_SIZE;
use obda_rdbms::planner::{
    plan_conjunction_mode, AccessKind, ConjunctionPlan, ExecMode, JoinStrategy, PhysicalOp,
    PlanStep, HASH_BUILD_WEIGHT, HASH_COST_MARGIN, HASH_PROBE_WEIGHT, INDEX_PROBE_WEIGHT,
    MATERIALIZE_WEIGHT,
};
use obda_rdbms::{CatalogStats, CostModel, EngineProfile, LayoutKind};

// ---------------------------------------------------------------------
// the reference planner
// ---------------------------------------------------------------------

fn access_kind(atom: &Atom, bound: &BTreeSet<VarId>) -> AccessKind {
    let is_bound = |t: &Term| match t {
        Term::Const(_) => true,
        Term::Var(v) => bound.contains(v),
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

fn atom_estimate(
    atom: &Atom,
    bound: &BTreeSet<VarId>,
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

fn scan_cost(pred_card: f64, stats: &CatalogStats, layout: LayoutKind) -> f64 {
    match layout {
        LayoutKind::Simple => pred_card,
        LayoutKind::Triple => pred_card * 1.5,
        LayoutKind::Dph => (stats.total_facts as f64) * 2.0,
    }
}

fn slot_estimate(
    slot: &Slot,
    bound: &BTreeSet<VarId>,
    stats: &CatalogStats,
    layout: LayoutKind,
) -> (f64, f64) {
    let mut cost = 0.0;
    let mut mult = 0.0;
    for atom in slot.atoms() {
        let (c, m) = atom_estimate(atom, bound, stats, layout);
        cost += c;
        mult += m;
    }
    (cost, mult)
}

fn order_slots(slots: &[Slot], stats: &CatalogStats, layout: LayoutKind) -> Vec<usize> {
    let mut bound = BTreeSet::new();
    let mut remaining: Vec<usize> = (0..slots.len()).collect();
    let mut order = Vec::with_capacity(slots.len());
    while !remaining.is_empty() {
        let (pos, &idx) = remaining
            .iter()
            .enumerate()
            .min_by(|(_, &a), (_, &b)| {
                let (ca, ma) = slot_estimate(&slots[a], &bound, stats, layout);
                let (cb, mb) = slot_estimate(&slots[b], &bound, stats, layout);
                let ka = ca * (1.0 + ma);
                let kb = cb * (1.0 + mb);
                ka.partial_cmp(&kb).unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("nonempty");
        order.push(idx);
        for atom in slots[idx].atoms() {
            bound.extend(atom.vars());
        }
        remaining.remove(pos);
    }
    order
}

fn hash_join_cost(slot: &Slot, rows: f64, stats: &CatalogStats, layout: LayoutKind) -> (f64, f64) {
    let mut build_rows = 0.0;
    let mut scan = 0.0;
    for atom in slot.atoms() {
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

fn inl_cost(
    slot: &Slot,
    bound: &BTreeSet<VarId>,
    rows: f64,
    stats: &CatalogStats,
    layout: LayoutKind,
) -> f64 {
    if slot_is_scan_stage(slot, bound) {
        let (access, _) = slot_estimate(slot, bound, stats, layout);
        access
    } else {
        rows * INDEX_PROBE_WEIGHT * slot.len() as f64
    }
}

fn slot_is_scan_stage(slot: &Slot, bound: &BTreeSet<VarId>) -> bool {
    slot.atoms()
        .iter()
        .all(|a| access_kind(a, bound) == AccessKind::Scan)
}

fn fanout(step: &PlanStep, mult: f64) -> f64 {
    let mult = if step.exists { mult.min(1.0) } else { mult };
    mult.max(1e-9)
}

fn plan_conjunction(
    slots: &[Slot],
    head: &[Term],
    stats: &CatalogStats,
    layout: LayoutKind,
    strategy: JoinStrategy,
    mode: ExecMode,
) -> ConjunctionPlan {
    let order = order_slots(slots, stats, layout);
    let mut live: Vec<BTreeSet<VarId>> = vec![BTreeSet::new(); order.len()];
    let mut acc: BTreeSet<VarId> = head.iter().filter_map(|t| t.as_var()).collect();
    for (k, &idx) in order.iter().enumerate().rev() {
        live[k] = acc.clone();
        acc.extend(slots[idx].vars());
    }
    let mut bound = BTreeSet::new();
    let mut rows = 1.0f64;
    let mut steps = Vec::with_capacity(order.len());
    for (k, idx) in order.into_iter().enumerate() {
        let slot = &slots[idx];
        let scan_stage = slot_is_scan_stage(slot, &bound);
        let exists = slot
            .vars()
            .iter()
            .all(|v| bound.contains(v) || !live[k].contains(v));
        let (_, mult) = slot_estimate(slot, &bound, stats, layout);
        let inl = inl_cost(slot, &bound, rows, stats, layout);
        let (hash, build_rows) = hash_join_cost(slot, rows, stats, layout);
        let slot_vars = slot.vars();
        let hash_eligible = !scan_stage
            && slot_vars.iter().any(|v| bound.contains(v))
            && slot_vars.iter().any(|v| !bound.contains(v));
        let use_hash = match strategy {
            JoinStrategy::ForcedInl => false,
            JoinStrategy::ForcedHash => hash_eligible,
            JoinStrategy::CostChosen => hash_eligible && hash < inl * HASH_COST_MARGIN,
        };
        let (op, est_cost) = if use_hash {
            let op = match mode {
                ExecMode::Row => PhysicalOp::HashJoin { build_rows },
                ExecMode::Batched => PhysicalOp::BatchHashJoin {
                    build_rows,
                    batch: BATCH_SIZE,
                },
            };
            (op, hash)
        } else {
            let kind = access_kind(&slot.atoms()[0], &bound);
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
        rows = (rows * fanout(&step, mult)).max(0.0);
        step.est_rows = rows;
        steps.push(step);
        for atom in slot.atoms() {
            bound.extend(atom.vars());
        }
    }
    ConjunctionPlan { steps }
}

// ---------------------------------------------------------------------
// the reference cost model
// ---------------------------------------------------------------------

struct Reference<'s> {
    stats: &'s CatalogStats,
    layout: LayoutKind,
    strategy: JoinStrategy,
    mode: ExecMode,
    collapse_limit: Option<usize>,
    rescan_discount: f64,
}

#[derive(Clone, Copy, Default)]
struct Estimate {
    cost: f64,
    card: f64,
}

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

impl Reference<'_> {
    fn estimate_fol(&self, q: &FolQuery) -> f64 {
        let mut scans = ScanTracker::default();
        match q {
            FolQuery::Cq(cq) => self.est_cq(cq, &mut scans, false).cost,
            FolQuery::Ucq(ucq) => self.est_ucq(ucq, &mut scans).cost,
            FolQuery::Scq(scq) => self.est_scq(scq, &mut scans, false).cost,
            FolQuery::Uscq(uscq) => self.est_uscq(uscq, &mut scans).cost,
            FolQuery::Jucq(jucq) => self.est_jucq(jucq, &mut scans),
            FolQuery::Juscq(juscq) => self.est_juscq(juscq, &mut scans),
        }
    }

    fn est_cq(&self, cq: &CQ, scans: &mut ScanTracker, degraded: bool) -> Estimate {
        let slots: Vec<Slot> = cq.atoms().iter().map(|a| Slot::single(*a)).collect();
        self.est_conjunction(&slots, cq.head(), scans, degraded)
    }

    fn est_scq(&self, scq: &SCQ, scans: &mut ScanTracker, degraded: bool) -> Estimate {
        self.est_conjunction(scq.slots(), scq.head(), scans, degraded)
    }

    fn est_ucq(&self, ucq: &UCQ, scans: &mut ScanTracker) -> Estimate {
        let degraded = self.collapse_limit.is_some_and(|limit| ucq.len() > limit);
        let mut total = Estimate::default();
        for cq in ucq.cqs() {
            let e = self.est_cq(cq, scans, degraded);
            total.cost += e.cost + HASH_BUILD_WEIGHT * e.card;
            total.card += e.card;
        }
        total
    }

    fn est_uscq(&self, uscq: &USCQ, scans: &mut ScanTracker) -> Estimate {
        let degraded = self
            .collapse_limit
            .is_some_and(|limit| uscq.equivalent_cq_count() > limit);
        let mut total = Estimate::default();
        for scq in uscq.scqs() {
            let e = self.est_scq(scq, scans, degraded);
            total.cost += e.cost + HASH_BUILD_WEIGHT * e.card;
            total.card += e.card;
        }
        total
    }

    fn est_jucq(&self, jucq: &JUCQ, scans: &mut ScanTracker) -> f64 {
        let comps: Vec<Estimate> = jucq
            .components()
            .iter()
            .map(|c| self.est_ucq(c, scans))
            .collect();
        let mut cost: f64 = comps
            .iter()
            .map(|e| e.cost + MATERIALIZE_WEIGHT * e.card)
            .sum();
        let mut cards: Vec<f64> = comps.iter().map(|e| e.card).collect();
        cards.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let mut acc = 1.0f64;
        for c in cards {
            cost += HASH_BUILD_WEIGHT * c + HASH_PROBE_WEIGHT * acc;
            acc = (acc * c).sqrt().min(acc.max(c));
        }
        cost + comps
            .iter()
            .map(|e| e.card)
            .fold(f64::INFINITY, f64::min)
            .max(0.0)
    }

    fn est_juscq(&self, juscq: &JUSCQ, scans: &mut ScanTracker) -> f64 {
        let comps: Vec<Estimate> = juscq
            .components()
            .iter()
            .map(|c| self.est_uscq(c, scans))
            .collect();
        let mut cost: f64 = comps
            .iter()
            .map(|e| e.cost + MATERIALIZE_WEIGHT * e.card)
            .sum();
        let mut acc = 1.0f64;
        for e in &comps {
            cost += HASH_BUILD_WEIGHT * e.card + HASH_PROBE_WEIGHT * acc;
            acc = (acc * e.card).sqrt().min(acc.max(e.card));
        }
        cost
    }

    fn est_conjunction(
        &self,
        slots: &[Slot],
        head: &[Term],
        scans: &mut ScanTracker,
        degraded: bool,
    ) -> Estimate {
        if slots.is_empty() {
            return Estimate {
                cost: 0.0,
                card: 1.0,
            };
        }
        let plan = plan_conjunction(
            slots,
            head,
            self.stats,
            self.layout,
            self.strategy,
            self.mode,
        );
        let mut bound: BTreeSet<VarId> = BTreeSet::new();
        let mut cost = 0.0;
        let mut card = 1.0f64;
        for step in &plan.steps {
            let slot = &slots[step.slot];
            let (access, mult) = if degraded {
                (100.0, 1.0)
            } else {
                slot_estimate(slot, &bound, self.stats, self.layout)
            };
            match step.op {
                PhysicalOp::HashJoin { build_rows }
                | PhysicalOp::BatchHashJoin { build_rows, .. }
                    if !degraded =>
                {
                    let mut build_scan = 0.0;
                    for atom in slot.atoms() {
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
                    card *= fanout(step, mult);
                }
                _ if step.scan_stage => {
                    let mut scan_work = 0.0;
                    for atom in slot.atoms() {
                        let key = match atom {
                            Atom::Concept(c, _) => (0u8, c.0),
                            Atom::Role(r, _, _) => (1u8, r.0),
                        };
                        let prior = scans.count(key);
                        let factor = if prior > 0 { self.rescan_discount } else { 1.0 };
                        scan_work += access / slot.len() as f64 * factor;
                        scans.bump(key);
                    }
                    cost += scan_work;
                    card *= fanout(step, mult);
                }
                _ => {
                    cost += card * (INDEX_PROBE_WEIGHT * slot.len() as f64);
                    card *= fanout(step, mult);
                }
            }
            for atom in slot.atoms() {
                bound.extend(atom.vars());
            }
        }
        Estimate { cost, card }
    }
}

// ---------------------------------------------------------------------
// random inputs
// ---------------------------------------------------------------------

/// Rename every variable `v` to `v · stride + offset`: injective, so the
/// query keeps its shape, while ids reach past 64, 128 and far beyond.
fn spread(q: &FolQuery, stride: u32, offset: u32) -> FolQuery {
    let var = |v: VarId| VarId(v.0 * stride + offset);
    let term = |t: &Term| match *t {
        Term::Var(v) => Term::Var(var(v)),
        c => c,
    };
    let head = |h: &[Term]| h.iter().map(term).collect::<Vec<_>>();
    let atom = |a: &Atom| a.map_vars(|v| Term::Var(var(v)));
    let cq = |c: &CQ| CQ::new(head(c.head()), c.atoms().iter().map(atom).collect());
    let ucq = |u: &UCQ| UCQ::from_cqs(head(u.head()), u.cqs().iter().map(cq));
    let scq = |s: &SCQ| {
        let slots = s
            .slots()
            .iter()
            .map(|sl| Slot::new(sl.atoms().iter().map(atom).collect()))
            .collect();
        SCQ::new(head(s.head()), slots)
    };
    let uscq = |u: &USCQ| USCQ::new(head(u.head()), u.scqs().iter().map(scq).collect());
    match q {
        FolQuery::Cq(c) => FolQuery::Cq(cq(c)),
        FolQuery::Ucq(u) => FolQuery::Ucq(ucq(u)),
        FolQuery::Scq(s) => FolQuery::Scq(scq(s)),
        FolQuery::Uscq(u) => FolQuery::Uscq(uscq(u)),
        FolQuery::Jucq(j) => FolQuery::Jucq(JUCQ::new(
            head(j.head()),
            j.components().iter().map(ucq).collect(),
        )),
        FolQuery::Juscq(j) => FolQuery::Juscq(JUSCQ::new(
            head(j.head()),
            j.components().iter().map(uscq).collect(),
        )),
    }
}

/// Every conjunction of `q` as (slots, head).
fn conjunctions(q: &FolQuery) -> Vec<(Vec<Slot>, Vec<Term>)> {
    let of_cq = |c: &CQ| {
        let slots = c.atoms().iter().map(|a| Slot::single(*a)).collect();
        (slots, c.head().to_vec())
    };
    let of_scq = |s: &SCQ| (s.slots().to_vec(), s.head().to_vec());
    match q {
        FolQuery::Cq(c) => vec![of_cq(c)],
        FolQuery::Ucq(u) => u.cqs().iter().map(of_cq).collect(),
        FolQuery::Scq(s) => vec![of_scq(s)],
        FolQuery::Uscq(u) => u.scqs().iter().map(of_scq).collect(),
        FolQuery::Jucq(j) => j
            .components()
            .iter()
            .flat_map(|u| u.cqs().iter().map(of_cq))
            .collect(),
        FolQuery::Juscq(j) => j
            .components()
            .iter()
            .flat_map(|u| u.scqs().iter().map(of_scq))
            .collect(),
    }
}

const LAYOUTS: [LayoutKind; 3] = [LayoutKind::Simple, LayoutKind::Triple, LayoutKind::Dph];
const STRATEGIES: [JoinStrategy; 3] = [
    JoinStrategy::ForcedInl,
    JoinStrategy::ForcedHash,
    JoinStrategy::CostChosen,
];
const MODES: [ExecMode; 2] = [ExecMode::Row, ExecMode::Batched];

/// The engine profiles priced: both stock ones, and one whose union
/// collapse limit is low enough that random unions hit it.
fn profiles() -> Vec<EngineProfile> {
    let mut tight = EngineProfile::pg_like();
    tight.union_collapse_limit = Some(1);
    vec![EngineProfile::pg_like(), EngineProfile::db2_like(), tight]
}

fn check_case(seed: u64) {
    let mut rng = Rng::new(seed);
    let shape = KbShape {
        num_individuals: 4 + rng.below(40),
        num_facts: rng.below(300),
        ..KbShape::default()
    };
    let (mut voc, _) = random_tbox(&mut rng, &shape);
    let abox: ABox = random_abox(&mut rng, &mut voc, &shape);
    let stats = CatalogStats::from_abox(&abox);
    let max_atoms = 1 + rng.below(6);
    let q = random_fol_query(&mut rng, &voc, max_atoms);
    let (stride, offset) = match rng.below(4) {
        0 => (1, 0),
        1 => (1 + rng.below(40) as u32, rng.below(130) as u32),
        2 => (1 + rng.below(40) as u32, 60 + rng.below(10) as u32),
        _ => (1 + rng.below(1000) as u32, 1 << 20),
    };
    let q = spread(&q, stride, offset);

    for layout in LAYOUTS {
        for strategy in STRATEGIES {
            for mode in MODES {
                for (slots, head) in conjunctions(&q) {
                    let got = plan_conjunction_mode(&slots, &head, &stats, layout, strategy, mode);
                    let want = plan_conjunction(&slots, &head, &stats, layout, strategy, mode);
                    prop_assert_eq!(format!("{got:?}"), format!("{want:?}"), "{:?}", slots);
                }
                for profile in profiles() {
                    let model = CostModel::rdbms(&stats, layout, &profile)
                        .with_strategy(strategy)
                        .with_mode(mode);
                    let reference = Reference {
                        stats: &stats,
                        layout,
                        strategy,
                        mode,
                        collapse_limit: profile.union_collapse_limit,
                        rescan_discount: profile.rescan_discount,
                    };
                    prop_assert_eq!(
                        model.estimate_fol(&q).to_bits(),
                        reference.estimate_fol(&q).to_bits(),
                        "{} {:?}",
                        profile.name(),
                        q
                    );
                }
                let ext = CostModel::ext(&stats, layout)
                    .with_strategy(strategy)
                    .with_mode(mode);
                let reference = Reference {
                    stats: &stats,
                    layout,
                    strategy,
                    mode,
                    collapse_limit: None,
                    rescan_discount: 1.0,
                };
                prop_assert_eq!(
                    ext.estimate_fol(&q).to_bits(),
                    reference.estimate_fol(&q).to_bits(),
                    "ext {:?}",
                    q
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random catalogs and queries in every dialect, variables renamed
    /// past the bitset width in most cases.
    #[test]
    fn planner_and_cost_model_equal_the_reference(seed in 0u64..1_000_000) {
        check_case(seed);
    }
}
