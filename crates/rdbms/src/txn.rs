//! Snapshot-isolated transactions over the serving layer.
//!
//! [`Server::begin`] pins the current [`EngineSnapshot`] and opens a
//! [`Txn`]: a [`WorkingSet`] of buffered inserts/retractions overlaid on
//! the pinned generation. Reads — point probes and full conjunctive
//! queries — see the pinned snapshot *plus* the transaction's own writes
//! (read-your-own-writes), and nothing from concurrent committers.
//!
//! Commit flattens the working set into one [`AboxDelta`], resolves the
//! provisional ids of names the transaction introduced against the
//! master vocabulary, validates **first-committer-wins** (any overlapping
//! fact key committed after this transaction's begin aborts it with
//! [`ServerError::Conflict`]), and rides the group-commit WAL: concurrent
//! committers share one fsynced record, one published snapshot each.
//! Rollback — explicit or by drop — simply discards the working set.
//!
//! ## Overlay queries
//!
//! An in-transaction query runs against a private overlay snapshot: a
//! clone of the pinned engine (which shares every table with it), the
//! effective working-set delta applied to the clone (which copies the
//! tables it writes), and the pinned vocabulary extended with the
//! transaction's new names (its shared prefix by reference). Provisional
//! ids are allocated densely above the pinned vocabulary (`base + k`),
//! so extending a clone of that vocabulary in allocation order makes
//! every provisional id resolve by the ordinary vocabulary API — row
//! rendering needs no special cases. Only a statement that reads data
//! builds the overlay: names resolve through [`Txn::find_individual`]
//! without one, so buffering writes and committing never pay for it.
//! Overlay compilations bypass the server's plan cache: the overlay
//! shares the pinned generation number, and caching under it would leak
//! transaction-private plans to other sessions.

use std::sync::Arc;
use std::time::Instant;

use obda_dllite::{AboxDelta, ConceptId, IndividualId, RoleId, WorkingSet};
use obda_query::CQ;

use crate::engine::EngineError;
use crate::observe::{micros, Counter};
use crate::server::{EngineSnapshot, Server, ServerError, ServerOutcome};
use crate::sqlexec::Backend;

/// One open snapshot-isolated transaction. Holds no server lock while
/// open — any number of transactions proceed concurrently, and only
/// commit touches shared state. Dropping an unfinished transaction
/// rolls it back.
pub struct Txn<'s> {
    server: &'s Server,
    id: u64,
    snapshot: Arc<EngineSnapshot>,
    ws: WorkingSet,
    /// Cached overlay snapshot, keyed by the working-set version that
    /// built it (queries between writes reuse it).
    overlay: Option<(u64, Arc<EngineSnapshot>)>,
    finished: bool,
}

impl Server {
    /// Open a transaction pinned to the current snapshot generation.
    ///
    /// Reads inside the transaction are snapshot-isolated (they see the
    /// pinned generation plus the transaction's own writes); the commit
    /// is validated first-committer-wins against everything that
    /// committed after this begin.
    pub fn begin(&self) -> Txn<'_> {
        let (id, snapshot) = self.register_txn();
        let base = snapshot.vocabulary().num_individuals();
        Txn {
            server: self,
            id,
            snapshot,
            ws: WorkingSet::new(base),
            overlay: None,
            finished: false,
        }
    }
}

impl<'s> Txn<'s> {
    /// This transaction's id (unique per server, monotonically
    /// assigned).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The pinned snapshot every read resolves against.
    pub fn snapshot(&self) -> &Arc<EngineSnapshot> {
        &self.snapshot
    }

    /// The generation this transaction began at.
    pub fn begin_generation(&self) -> u64 {
        self.snapshot.generation()
    }

    /// Number of buffered fact writes (distinct keys).
    pub fn pending_ops(&self) -> usize {
        self.ws.len()
    }

    /// Names this transaction introduced so far.
    pub fn new_names(&self) -> usize {
        self.ws.new_individuals().len()
    }

    /// Resolve a name to an id, interning it transaction-locally if the
    /// pinned snapshot does not know it. The returned id is provisional
    /// for new names — meaningful inside this transaction; commit remaps
    /// it to the final interned id.
    pub fn individual(&mut self, name: &str) -> IndividualId {
        match self.snapshot.vocabulary().find_individual(name) {
            Some(id) => id,
            None => self.ws.new_individual(name),
        }
    }

    /// Resolve a name without interning: pinned snapshot first, then the
    /// transaction's own new names.
    pub fn find_individual(&self, name: &str) -> Option<IndividualId> {
        self.snapshot
            .vocabulary()
            .find_individual(name)
            .or_else(|| self.ws.find_new_individual(name))
    }

    /// The name behind an id this transaction can see.
    pub fn individual_name(&self, id: IndividualId) -> Option<&str> {
        let voc = self.snapshot.vocabulary();
        if (id.0 as usize) < voc.num_individuals() {
            Some(voc.individual_name(id))
        } else {
            self.ws.provisional_name(id)
        }
    }

    /// Buffer an insert of `A(a)`.
    pub fn insert_concept(&mut self, c: ConceptId, a: IndividualId) {
        self.ws.insert_concept(c, a);
    }

    /// Buffer a retraction of `A(a)`.
    pub fn retract_concept(&mut self, c: ConceptId, a: IndividualId) {
        self.ws.retract_concept(c, a);
    }

    /// Buffer an insert of `R(a, b)`.
    pub fn insert_role(&mut self, r: RoleId, a: IndividualId, b: IndividualId) {
        self.ws.insert_role(r, a, b);
    }

    /// Buffer a retraction of `R(a, b)`.
    pub fn retract_role(&mut self, r: RoleId, a: IndividualId, b: IndividualId) {
        self.ws.retract_role(r, a, b);
    }

    /// Read-your-own-writes visibility of `A(a)`: the buffered write if
    /// any, else the pinned snapshot.
    pub fn contains_concept(&self, c: ConceptId, a: IndividualId) -> bool {
        self.ws
            .concept_write((c, a))
            .unwrap_or_else(|| self.snapshot.engine().probe_concept(c, a))
    }

    /// Answer a conjunctive query inside the transaction: against the
    /// pinned snapshot overlaid with the working set, under the server's
    /// configured backend.
    pub fn query(&mut self, cq: &CQ) -> Result<ServerOutcome, EngineError> {
        self.query_as(cq, self.server.config().backend)
    }

    /// [`Txn::query`] under an explicit execution backend (the wire
    /// front end's per-session selection).
    pub fn query_as(&mut self, cq: &CQ, backend: Backend) -> Result<ServerOutcome, EngineError> {
        if self.ws.is_empty() {
            // Clean transaction: the pinned snapshot *is* the view, and
            // its compilations are safely shareable through the cache.
            return self.server.query_on_as(&self.snapshot, cq, backend);
        }
        let overlay = self.overlay_snapshot();
        self.server.query_uncached(&overlay, cq, backend)
    }

    /// A read view of the transaction: the overlay snapshot when the
    /// working set is dirty, the pinned snapshot otherwise. The wire
    /// front end renders result rows against this.
    pub fn view(&mut self) -> Arc<EngineSnapshot> {
        if self.ws.is_empty() {
            return Arc::clone(&self.snapshot);
        }
        self.overlay_snapshot()
    }

    /// Build (or reuse) the overlay: pinned engine clone + effective
    /// working-set delta + vocabulary extended with the transaction's
    /// new names, tagged with the *pinned* generation.
    fn overlay_snapshot(&mut self) -> Arc<EngineSnapshot> {
        if let Some((version, snap)) = &self.overlay {
            if *version == self.ws.version() {
                return Arc::clone(snap);
            }
        }
        let started = Instant::now();
        let base = &self.snapshot;
        // Extending a clone of the pinned vocabulary in allocation order
        // assigns each new name exactly its provisional id.
        let mut voc = base.vocabulary().clone();
        for name in self.ws.new_individuals() {
            voc.individual(name);
        }
        // The effective delta: only writes that change the pinned state
        // (inserts of absent facts, retractions of present ones).
        let mut delta = AboxDelta::new();
        for (key, present) in self.ws.concept_writes() {
            let (c, a) = key;
            if present != base.engine().probe_concept(c, a) {
                if present {
                    delta.insert_concepts.push(key);
                } else {
                    delta.delete_concepts.push(key);
                }
            }
        }
        for (key, present) in self.ws.role_writes() {
            let (r, a, b) = key;
            if present != base.engine().probe_role(r, a, b) {
                if present {
                    delta.insert_roles.push(key);
                } else {
                    delta.delete_roles.push(key);
                }
            }
        }
        delta.insert_concepts.sort_unstable();
        delta.delete_concepts.sort_unstable();
        delta.insert_roles.sort_unstable();
        delta.delete_roles.sort_unstable();
        let mut engine = base.engine().clone();
        engine.apply_delta(&delta);
        let snap = Arc::new(EngineSnapshot {
            engine,
            voc: Arc::new(voc),
            generation: base.generation,
            // The next context, NOT the base snapshot's: this overlay
            // holds the transaction's own uncommitted writes, so it mines
            // its own constraints (the base's could wrongly prune arms
            // over predicates this transaction just populated) and keeps
            // the base's live TBox only while its dead set is the same.
            rewrite: base.rewrite.next(),
        });
        self.overlay = Some((self.ws.version(), Arc::clone(&snap)));
        let reg = self.server.observe();
        reg.add(Counter::TxnOverlays, 1);
        reg.add(Counter::TxnOverlayMicros, micros(started.elapsed()));
        snap
    }

    /// Commit: validate first-committer-wins, stage the flattened delta,
    /// and ride the next group-commit WAL record. Returns the published
    /// generation. An empty transaction commits as a no-op — no WAL
    /// record, no generation bump — and returns the pinned generation.
    ///
    /// On [`ServerError::Conflict`] nothing was applied; re-running the
    /// whole transaction against a fresh snapshot is the retry protocol.
    pub fn commit(mut self) -> Result<u64, ServerError> {
        self.finished = true;
        if self.ws.is_empty() {
            self.server.deregister_txn(self.id);
            return Ok(self.snapshot.generation());
        }
        // Stage (which validates conflicts) *before* deregistering: the
        // conflict registry must stay protected by this transaction's
        // begin generation until its own check has run.
        let started = Instant::now();
        let staged = self.server.stage_txn(&self.ws, self.snapshot.generation());
        self.server.deregister_txn(self.id);
        let slot = staged?;
        self.server.commit_wait(&slot, started)
    }

    /// Helper for the wire front end: commit by reference semantics are
    /// not offered — commit consumes the transaction, so a session's
    /// `Option<Txn>` commits with `take()`.
    #[doc(hidden)]
    pub fn working_set(&self) -> &WorkingSet {
        &self.ws
    }

    /// Roll back: discard the working set. Nothing downstream ever saw
    /// it. (Dropping the transaction does the same.)
    pub fn rollback(mut self) {
        self.finished = true;
        self.server.deregister_txn(self.id);
    }
}

impl Drop for Txn<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.server.deregister_txn(self.id);
        }
    }
}
