//! Pair-verdict caching across program edits: the oracle-reuse layer of the
//! near-incremental repair loop.
//!
//! A refactoring step (split / merge / redirect / logging) touches a handful
//! of commands, yet the Fig. 10 driver re-runs the whole anomaly oracle on
//! the mutated program. The [`VerdictCache`] closes that gap one level above
//! the SAT layer: every ordered transaction pair's verdicts ([`AccessPair`]
//! lists) are memoized under a **canonical fingerprint** of the two
//! transactions' command summaries, so re-detection after a step only
//! re-encodes and re-solves the pairs whose fingerprint changed.
//!
//! # The fingerprint
//!
//! [`txn_fingerprint`] hashes everything the two-instance encoding and the
//! violation templates can observe about a transaction: its name and, per
//! command in program order, the kind, schema, read/write field sets, key
//! specification, bound variable, and used variables. Command **labels are
//! deliberately excluded** — a pure relabeling preserves verdicts — so a
//! cached verdict names its commands by **position** (the index within
//! the named transaction, whose name is part of the fingerprint) and the
//! detection pass answers it in the labels of whichever program asks
//! (`to_positions` / `to_labels`). Two programs sharing a transaction
//! shape under different labels therefore share the entry but each read
//! their own labels back. Anything else a rewrite can change (field sets,
//! filters, schemas, command order) lands in the fingerprint, so a stale
//! hit is impossible as long as the fingerprint is *sound*: any mutation
//! that changes a command's access behaviour must change it. That
//! soundness obligation is pinned by the property suite in
//! `crates/detect/tests/fingerprint_prop.rs`, not by the end-to-end tests.
//!
//! # The invalidation contract
//!
//! Soundness never depends on explicit invalidation (a changed pair simply
//! misses), but callers that know which transactions a refactoring step
//! dirtied may call [`VerdictCache::invalidate_txns`] (or the precise
//! [`VerdictCache::invalidate_txns_changed`]): this evicts the stale
//! entries (bounding memory across long repair runs) and keeps the reuse
//! statistics honest. Pure relabelings need no notice at all.
//!
//! # Solver retention
//!
//! Besides verdicts, the cache retains each pair's [`PairSolver`] (keyed by
//! the fingerprint pair), so a pair that is re-queried — e.g. at another
//! consistency level, or after its verdict entry was evicted while its
//! fingerprint survived — reuses the already-encoded ordering/visibility
//! matrix and every learnt clause instead of re-encoding from scratch.
//! Retained states live in a **sharded map** ([`ShardedStateMap`]):
//! independent mutex-guarded shards keyed by the fingerprint pair, so the
//! parallel detection engine's workers can take and return solvers
//! concurrently without a global lock (retained solvers migrate freely
//! between workers — [`PairState`] is `Send`).
//!
//! # Triple verdicts
//!
//! [`crate::DetectMode::Triples`] passes additionally memoize each
//! transaction triple's chain-anomaly verdicts under the **canonical
//! 3-fingerprint** — the three fingerprints in sorted order, so the entry
//! is orientation-normalized (every role permutation is analysed inside
//! one entry) — with their own retained [`crate::triple::TripleSolver`]s
//! in a second sharded map. Triple entries follow the same contracts as
//! pair entries: they hold command positions, liveness sweeps keep an
//! entry only while all three fingerprints are live, and `invalidate_txns`
//! evicts by any member transaction's name.
//!
//! # Multi-run lifetimes
//!
//! A cache may outlive one repair run: a [`crate::DetectSession`] shares it
//! across an ablation sweep or a whole benchmark suite. Liveness for the
//! per-pass garbage sweep is therefore computed against the **union of all
//! programs seen** since construction (or since the last explicit
//! [`VerdictCache::sweep`]), so warm entries from a prior run are neither
//! stranded behind a narrower program nor prematurely dropped before that
//! run's program comes back. Callers that want memory bounded between runs
//! call [`VerdictCache::sweep`] explicitly, which resets liveness to exactly
//! one program. Run boundaries ([`VerdictCache::advance_run`]) additionally
//! let the cache attribute hits to entries born in earlier runs — the
//! cross-run counters of [`CacheStats`].

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

use atropos_dsl::{CmdLabel, Program};
use atropos_sat::Lit;

use crate::detect::AccessPair;
use crate::encode::{ConsistencyLevel, InstanceModel, PairSolver};
use crate::model::{summarize_program, CmdSummary, KeySpec, TxnSummary};
use crate::triple::TripleState;

/// Canonical fingerprint of one transaction's command summaries: the exact
/// information the pair encoding and the violation templates consume.
///
/// Two summaries with equal fingerprints produce identical detection
/// verdicts when paired with equal-fingerprint partners, up to command
/// labels, which are excluded: a cached verdict names commands by position
/// (see the module docs). The fingerprint is a
/// 64-bit hash of a canonical serialization; collisions are possible in
/// principle but vanishingly unlikely at repair-loop cache sizes
/// (tens of entries).
pub fn txn_fingerprint(txn: &TxnSummary) -> u64 {
    let mut h = DefaultHasher::new();
    txn.name.hash(&mut h);
    txn.commands.len().hash(&mut h);
    for c in &txn.commands {
        hash_cmd(c, &mut h);
    }
    h.finish()
}

/// Canonical fingerprint of one command summary (the same detector-visible
/// fields [`txn_fingerprint`] folds per command, label excluded) — the
/// command-granular building block `dirty_between`-style diffs use to name
/// exactly which commands a refactoring step changed.
pub fn cmd_fingerprint(c: &CmdSummary) -> u64 {
    let mut h = DefaultHasher::new();
    hash_cmd(c, &mut h);
    h.finish()
}

fn hash_cmd(c: &CmdSummary, h: &mut impl Hasher) {
    // NOT hashed: c.label — cached verdicts name commands by position.
    (c.kind as u8).hash(h);
    c.schema.hash(h);
    c.prog_index.hash(h);
    c.reads.hash(h);
    c.writes.hash(h);
    c.bound_var.hash(h);
    c.uses_vars.hash(h);
    match &c.key {
        KeySpec::Keyed { key, constant } => {
            0u8.hash(h);
            key.hash(h);
            constant.hash(h);
        }
        KeySpec::Scan => 1u8.hash(h),
        KeySpec::Fresh => 2u8.hash(h),
    }
}

/// Counters describing how much oracle work a [`VerdictCache`] saved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Verdict lookups performed (one per ordered pair per detection pass).
    pub lookups: u64,
    /// Lookups answered from the cache without touching a solver.
    pub hits: u64,
    /// Lookups that had to re-analyse the pair.
    pub misses: u64,
    /// Misses that nevertheless reused a retained [`PairSolver`] (and its
    /// encoded clauses and learnt clauses) instead of re-encoding.
    pub solver_reuses: u64,
    /// Entries evicted — by the fingerprint-liveness sweep each
    /// [`crate::detect_anomalies_cached`] pass runs (stranded by program
    /// edits), or by an explicit [`VerdictCache::invalidate_txns`] /
    /// [`VerdictCache::sweep`] call.
    pub invalidated: u64,
    /// Lookups performed in any run after the session's first (see
    /// [`VerdictCache::advance_run`]); zero when the cache never crossed a
    /// run boundary. Counts pair and triple lookups alike.
    pub cross_run_lookups: u64,
    /// Of those, lookups answered by an entry inserted in an *earlier* run —
    /// the warm verdicts one repair run hands the next.
    pub cross_run_hits: u64,
    /// Triple-verdict lookups performed (one per unordered transaction
    /// triple per [`crate::DetectMode::Triples`] detection pass).
    pub triple_lookups: u64,
    /// Triple lookups answered from the cache without touching a solver.
    pub triple_hits: u64,
    /// Triple lookups that had to re-analyse the triple.
    pub triple_misses: u64,
    /// Learnt clauses seeded into freshly built solvers from the engine's
    /// [`LearntPool`] — lemmas a fingerprint-identical earlier solve
    /// published, offered to this cache's misses at solver construction
    /// (root facts the sibling re-derives on its own are absorbed for
    /// free during import).
    pub learnt_seeded: u64,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (0 when none were made).
    pub fn hit_ratio(&self) -> f64 {
        if self.lookups == 0 {
            return 0.0;
        }
        self.hits as f64 / self.lookups as f64
    }

    /// Fraction of post-first-run lookups answered by an earlier run's
    /// entry (0 when the cache never crossed a run boundary).
    pub fn cross_run_hit_ratio(&self) -> f64 {
        if self.cross_run_lookups == 0 {
            return 0.0;
        }
        self.cross_run_hits as f64 / self.cross_run_lookups as f64
    }

    /// Counter-wise difference `self - earlier`: the work attributable to
    /// the span between two snapshots of one cache's lifetime statistics.
    #[must_use]
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            lookups: self.lookups - earlier.lookups,
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            solver_reuses: self.solver_reuses - earlier.solver_reuses,
            invalidated: self.invalidated - earlier.invalidated,
            cross_run_lookups: self.cross_run_lookups - earlier.cross_run_lookups,
            cross_run_hits: self.cross_run_hits - earlier.cross_run_hits,
            triple_lookups: self.triple_lookups - earlier.triple_lookups,
            triple_hits: self.triple_hits - earlier.triple_hits,
            triple_misses: self.triple_misses - earlier.triple_misses,
            learnt_seeded: self.learnt_seeded - earlier.learnt_seeded,
        }
    }
}

/// Key of one verdict entry: the ordered pair's fingerprints, whether the
/// symmetric (lost-update) template ran for this orientation, and the
/// consistency level queried.
pub(crate) type VerdictKey = (u64, u64, bool, ConsistencyLevel);

#[derive(Debug, Clone)]
pub(crate) struct VerdictEntry {
    pub(crate) txn1: String,
    pub(crate) txn2: String,
    /// Run (see [`VerdictCache::advance_run`]) this entry was inserted in.
    pub(crate) run: u64,
    /// Raw `analyse_pair` output for this ordered pair (pre-deduplication),
    /// in positional form (see [`to_positions`]).
    pub(crate) pairs: Vec<AccessPair>,
    /// Proof certificates of the UNSAT queries behind this verdict
    /// (`atropos_proof` blobs); empty unless the analysing engine had
    /// proof capture on.
    pub(crate) proofs: Vec<Vec<u8>>,
}

/// Key of one triple-verdict entry: the **canonical 3-fingerprint** — the
/// three transaction fingerprints in sorted order (orientation-normalized;
/// every role permutation of the instances is analysed inside one entry,
/// so the verdict is independent of which orientation grounded it) — plus
/// the consistency level queried.
pub(crate) type TripleVerdictKey = (u64, u64, u64, ConsistencyLevel);

#[derive(Debug, Clone)]
pub(crate) struct TripleEntry {
    pub(crate) txns: [String; 3],
    /// Run (see [`VerdictCache::advance_run`]) this entry was inserted in.
    pub(crate) run: u64,
    /// Raw `analyse_triple` output for this triple (pre-deduplication),
    /// in positional form (see [`to_positions`]).
    pub(crate) pairs: Vec<AccessPair>,
    /// Proof certificates of the UNSAT queries behind this verdict.
    pub(crate) proofs: Vec<Vec<u8>>,
}

/// Rewrites freshly solved verdicts into the cache's label-free form:
/// each command label becomes the command's position within its
/// transaction, as `position(transaction, label)` reports it from the
/// summaries the verdicts were produced with, and each pair is oriented by
/// `(transaction, position)`. The stored form then depends only on the
/// fingerprinted shapes, never on the labels of whichever program solved
/// them first.
pub(crate) fn to_positions(
    pairs: Vec<AccessPair>,
    position: impl Fn(&str, &CmdLabel) -> usize,
) -> Vec<AccessPair> {
    pairs
        .into_iter()
        .map(|mut p| {
            let (pos1, pos2) = (position(&p.txn1, &p.cmd1), position(&p.txn2, &p.cmd2));
            p.cmd1 = CmdLabel(pos1.to_string());
            p.cmd2 = CmdLabel(pos2.to_string());
            if (&p.txn1, pos1) > (&p.txn2, pos2) {
                swap_sides(&mut p);
            }
            p
        })
        .collect()
}

/// Answers positional verdicts in the labels of `asking` (the summaries
/// of the program that asked), re-applying the detector's label-order
/// orientation so the result equals what that program's own solve would
/// have produced. `None` when a position names no command of `asking`.
pub(crate) fn to_labels(pairs: &[AccessPair], asking: &[TxnSummary]) -> Option<Vec<AccessPair>> {
    let label = |txn: &str, pos: &CmdLabel| -> Option<CmdLabel> {
        let t = asking.iter().find(|t| t.name == txn)?;
        Some(t.commands.get(pos.0.parse::<usize>().ok()?)?.label.clone())
    };
    let mut out = Vec::with_capacity(pairs.len());
    for p in pairs {
        let mut q = AccessPair {
            cmd1: label(&p.txn1, &p.cmd1)?,
            fields1: p.fields1.clone(),
            cmd2: label(&p.txn2, &p.cmd2)?,
            fields2: p.fields2.clone(),
            txn1: p.txn1.clone(),
            txn2: p.txn2.clone(),
            witnesses: p.witnesses.clone(),
            kind: p.kind,
        };
        if q.cmd1.0 > q.cmd2.0 {
            swap_sides(&mut q);
        }
        out.push(q);
    }
    Some(out)
}

fn swap_sides(p: &mut AccessPair) {
    std::mem::swap(&mut p.cmd1, &mut p.cmd2);
    std::mem::swap(&mut p.fields1, &mut p.fields2);
    std::mem::swap(&mut p.txn1, &mut p.txn2);
}

/// Retained per-pair analysis state: the grounded two-instance model and,
/// once a query was issued, the incremental solver built on it.
///
/// `PairState` is `Send` (a compile-time guarantee pinned below): the
/// parallel detection engine hands retained states to whichever worker
/// claims the pair, so a solver built on one thread freely migrates to
/// another between passes.
pub(crate) struct PairState {
    pub(crate) model: InstanceModel,
    pub(crate) solver: Option<PairSolver>,
    txns: (String, String),
}

impl PairState {
    /// Grounds a fresh analysis state for one ordered transaction pair.
    pub(crate) fn new(t1: &TxnSummary, t2: &TxnSummary) -> PairState {
        PairState {
            model: InstanceModel::new(t1, t2),
            solver: None,
            txns: (t1.name.clone(), t2.name.clone()),
        }
    }
}

// The whole retained-state payload must be able to migrate between the
// engine's workers; a non-Send field sneaking into the solver stack should
// fail compilation here, not at every use site.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<PairState>();
};

/// How many independently locked shards a [`ShardedMap`] spreads its
/// retained states over. Sixteen comfortably exceeds the engine's worker
/// cap, so two workers rarely contend on one mutex.
const STATE_SHARDS: usize = 16;

/// A solver-retention map: retained analysis states keyed by a fingerprint
/// tuple, split over [`STATE_SHARDS`] mutex-guarded shards so parallel
/// workers can `take`/`store` concurrently through a shared reference.
/// Serial callers go through the same API (an uncontended mutex lock is a
/// few nanoseconds), keeping one code path. Instantiated for pair states
/// ([`ShardedStateMap`]) and triple states ([`ShardedTripleMap`]).
pub(crate) struct ShardedMap<K, V> {
    shards: Vec<Mutex<HashMap<K, V>>>,
}

/// Retained [`PairState`]s keyed by the ordered fingerprint pair.
pub(crate) type ShardedStateMap = ShardedMap<(u64, u64), PairState>;

/// Retained [`TripleState`]s keyed by the canonical (sorted) 3-fingerprint.
pub(crate) type ShardedTripleMap = ShardedMap<(u64, u64, u64), TripleState>;

impl<K: Eq + Hash, V> ShardedMap<K, V> {
    fn new() -> ShardedMap<K, V> {
        ShardedMap {
            shards: (0..STATE_SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    fn shard_of(key: &K) -> usize {
        // The keys are tuples of high-entropy fingerprints; one SipHash
        // round over them is deterministic and distribution enough.
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() % STATE_SHARDS as u64) as usize
    }

    /// Removes and returns the retained state for a key, if any.
    pub(crate) fn take(&self, key: K) -> Option<V> {
        self.shards[Self::shard_of(&key)]
            .lock()
            .expect("state shard poisoned")
            .remove(&key)
    }

    /// Whether a state is currently retained for `key`.
    pub(crate) fn contains(&self, key: &K) -> bool {
        self.shards[Self::shard_of(key)]
            .lock()
            .expect("state shard poisoned")
            .contains_key(key)
    }

    /// Returns a state to the map for later reuse.
    pub(crate) fn store(&self, key: K, state: V) {
        self.shards[Self::shard_of(&key)]
            .lock()
            .expect("state shard poisoned")
            .insert(key, state);
    }

    /// Keeps only the states satisfying `f` (exclusive access, no locking).
    fn retain(&mut self, mut f: impl FnMut(&K, &V) -> bool) {
        for shard in &mut self.shards {
            shard.get_mut().expect("state shard poisoned").retain(|k, s| f(k, s));
        }
    }
}

/// Key of one pair entry in the [`LearntPool`]: the ordered fingerprint
/// pair plus the consistency level whose queries derived the lemmas.
type PairPoolKey = (u64, u64, ConsistencyLevel);

/// A deterministic pool of learnt clauses shared across
/// **fingerprint-identical** solvers, owned by a
/// [`crate::DetectionEngine`] and outliving any one [`VerdictCache`].
///
/// Two [`PairSolver`]s built for the same canonical `(fingerprint,
/// fingerprint, level)` key ground the same [`InstanceModel`] and emit the
/// same base encoding over the same variable numbering, so lemmas one of
/// them derived over **base variables only** (see
/// `atropos_sat::Solver::retained_learnts` for the soundness argument) are
/// valid verbatim in the other. The first solve of a key *publishes* its
/// retained clauses here — at the engine's serial-order merge point, and
/// only when the solve started from a fresh state and was the key's only
/// solve of the batch, so the published set is byte-identical at any
/// thread count. Later solvers built for the same key *seed* from the
/// published set before their first query instead of re-deriving the
/// lemmas (duplicated programs in a corpus, scratch-reference passes,
/// ablation sweeps re-grounding the same shapes).
///
/// The pool is frozen while a batch's workers run — publication happens
/// strictly between batches — so whether a worker sees a key published is
/// a plan-time fact, not a race.
#[derive(Default)]
pub struct LearntPool {
    pairs: Mutex<HashMap<PairPoolKey, Arc<Vec<Vec<Lit>>>>>,
    triples: Mutex<HashMap<TripleVerdictKey, Arc<Vec<Vec<Lit>>>>>,
}

impl LearntPool {
    /// An empty pool.
    pub fn new() -> LearntPool {
        LearntPool::default()
    }

    /// Published clause sets (pair plus triple keys) — for reporting.
    pub fn published(&self) -> usize {
        self.pairs.lock().expect("learnt pool poisoned").len()
            + self.triples.lock().expect("learnt pool poisoned").len()
    }

    /// Total clauses across every published set — for reporting.
    pub fn published_clauses(&self) -> usize {
        let pairs = self.pairs.lock().expect("learnt pool poisoned");
        let triples = self.triples.lock().expect("learnt pool poisoned");
        pairs.values().chain(triples.values()).map(|c| c.len()).sum()
    }

    pub(crate) fn has_pair(&self, fp1: u64, fp2: u64, level: ConsistencyLevel) -> bool {
        self.pairs
            .lock()
            .expect("learnt pool poisoned")
            .contains_key(&(fp1, fp2, level))
    }

    pub(crate) fn pair_seed(
        &self,
        fp1: u64,
        fp2: u64,
        level: ConsistencyLevel,
    ) -> Option<Arc<Vec<Vec<Lit>>>> {
        self.pairs
            .lock()
            .expect("learnt pool poisoned")
            .get(&(fp1, fp2, level))
            .cloned()
    }

    /// Publish-once: the first set wins, later calls are ignored (the
    /// caller's plan-time `has_pair` check makes them unreachable in the
    /// engine anyway).
    pub(crate) fn publish_pair(
        &self,
        fp1: u64,
        fp2: u64,
        level: ConsistencyLevel,
        clauses: Vec<Vec<Lit>>,
    ) {
        self.pairs
            .lock()
            .expect("learnt pool poisoned")
            .entry((fp1, fp2, level))
            .or_insert_with(|| Arc::new(clauses));
    }

    pub(crate) fn has_triple(&self, key: &TripleVerdictKey) -> bool {
        self.triples
            .lock()
            .expect("learnt pool poisoned")
            .contains_key(key)
    }

    pub(crate) fn triple_seed(&self, key: &TripleVerdictKey) -> Option<Arc<Vec<Vec<Lit>>>> {
        self.triples
            .lock()
            .expect("learnt pool poisoned")
            .get(key)
            .cloned()
    }

    pub(crate) fn publish_triple(&self, key: TripleVerdictKey, clauses: Vec<Vec<Lit>>) {
        self.triples
            .lock()
            .expect("learnt pool poisoned")
            .entry(key)
            .or_insert_with(|| Arc::new(clauses));
    }
}

/// A cache of per-pair anomaly verdicts and solvers, keyed by transaction
/// fingerprints. The repair driver owns one per run — or, via
/// [`crate::DetectSession`], one per whole benchmark sweep — and threads it
/// through every detection pass via [`crate::detect_anomalies_cached`] or
/// the [`crate::DetectionEngine`].
///
/// See the [module docs](self) for the fingerprint, invalidation, and
/// multi-run liveness contracts.
pub struct VerdictCache {
    verdicts: HashMap<VerdictKey, VerdictEntry>,
    states: ShardedStateMap,
    /// Triple verdicts, keyed by the canonical (sorted) 3-fingerprint.
    triples: HashMap<TripleVerdictKey, TripleEntry>,
    triple_states: ShardedTripleMap,
    stats: CacheStats,
    /// Union of every live transaction fingerprint seen since construction
    /// or the last explicit [`VerdictCache::sweep`] — the liveness set the
    /// per-pass garbage sweep checks entries against.
    session_live: BTreeSet<u64>,
    /// Current run number; 0 until [`VerdictCache::advance_run`] is called.
    run: u64,
}

impl Default for VerdictCache {
    fn default() -> Self {
        Self::new()
    }
}

impl VerdictCache {
    /// Creates an empty cache.
    pub fn new() -> VerdictCache {
        VerdictCache {
            verdicts: HashMap::new(),
            states: ShardedStateMap::new(),
            triples: HashMap::new(),
            triple_states: ShardedTripleMap::new(),
            stats: CacheStats::default(),
            session_live: BTreeSet::new(),
            run: 0,
        }
    }

    /// Marks the boundary between two runs sharing this cache (e.g. two
    /// `repair` calls of an ablation sweep). Hits on entries inserted
    /// before the boundary count as *cross-run* hits in [`CacheStats`];
    /// the entries themselves stay warm — eviction is the business of
    /// [`VerdictCache::sweep`], not of run accounting.
    pub fn advance_run(&mut self) {
        self.run += 1;
    }

    /// Runs started on this cache (0 until the first
    /// [`VerdictCache::advance_run`]).
    pub fn runs(&self) -> u64 {
        self.run
    }

    /// Shared handle to the sharded solver-retention map, for the parallel
    /// engine's workers.
    pub(crate) fn states(&self) -> &ShardedStateMap {
        &self.states
    }

    /// Shared handle to the sharded triple-state retention map, for the
    /// engine's triple-phase workers.
    pub(crate) fn triple_states(&self) -> &ShardedTripleMap {
        &self.triple_states
    }

    /// Mutable access to the lifetime counters, for the engine to merge
    /// worker-local statistics after a parallel pass.
    pub(crate) fn stats_mut(&mut self) -> &mut CacheStats {
        &mut self.stats
    }

    /// Cumulative statistics of this cache's lifetime.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of pair-verdict entries currently cached.
    pub fn len(&self) -> usize {
        self.verdicts.len()
    }

    /// Number of triple-verdict entries currently cached.
    pub fn triple_len(&self) -> usize {
        self.triples.len()
    }

    /// True when no verdicts (pair or triple) are cached.
    pub fn is_empty(&self) -> bool {
        self.verdicts.is_empty() && self.triples.is_empty()
    }

    /// Evicts every verdict entry and retained solver involving one of the
    /// named transactions. Returns the number of verdict entries evicted.
    ///
    /// This is the coarse, name-keyed form of invalidation — useful when
    /// the caller knows which transactions changed but no longer has the
    /// program they belonged to. The repair driver prefers the precise
    /// [`VerdictCache::sweep`], which keeps entries whose fingerprints
    /// survived the step. Content-addressed misses make both optional for
    /// soundness — they bound memory and keep [`CacheStats`] honest.
    pub fn invalidate_txns(&mut self, txns: &BTreeSet<String>) -> usize {
        let before = self.verdicts.len() + self.triples.len();
        self.verdicts
            .retain(|_, e| !txns.contains(&e.txn1) && !txns.contains(&e.txn2));
        self.states
            .retain(|_, s| !txns.contains(&s.txns.0) && !txns.contains(&s.txns.1));
        self.triples
            .retain(|_, e| e.txns.iter().all(|t| !txns.contains(t)));
        self.triple_states
            .retain(|_, s| s.txns.iter().all(|t| !txns.contains(t)));
        let evicted = before - self.verdicts.len() - self.triples.len();
        self.stats.invalidated += evicted as u64;
        evicted
    }

    /// Precise, fingerprint-checked eviction: evicts a verdict entry (or
    /// retained solver) involving one of the named transactions **only if
    /// that transaction's summary fingerprint actually changed** — i.e. the
    /// name is absent from `after`, or present with a different
    /// fingerprint. A pure relabeling leaves every fingerprint intact, so
    /// (unlike the coarse [`VerdictCache::invalidate_txns`]) this keeps the
    /// warm entries — which answer in the relabelled program's labels — and
    /// a warm re-detection after a rename-only step equals a cold oracle
    /// without re-solving anything. Returns the number of verdict entries
    /// evicted.
    pub fn invalidate_txns_changed(&mut self, txns: &BTreeSet<String>, after: &Program) -> usize {
        // Fingerprints the post-edit program assigns to each txn name; a
        // dirtied name keeps its entries only if its fingerprint survived.
        let after_fps: HashMap<String, u64> = summarize_program(after)
            .iter()
            .map(|t| (t.name.clone(), txn_fingerprint(t)))
            .collect();
        let changed = |name: &str, fp: u64| {
            txns.contains(name) && after_fps.get(name) != Some(&fp)
        };
        let before = self.verdicts.len() + self.triples.len();
        self.verdicts
            .retain(|k, e| !changed(&e.txn1, k.0) && !changed(&e.txn2, k.1));
        self.states
            .retain(|k, s| !changed(&s.txns.0, k.0) && !changed(&s.txns.1, k.1));
        self.triples.retain(|k, e| {
            let fps = [k.0, k.1, k.2];
            e.txns.iter().zip(fps).all(|(t, fp)| !changed(t, fp))
        });
        self.triple_states.retain(|k, s| {
            let fps = [k.0, k.1, k.2];
            s.txns.iter().zip(fps).all(|(t, fp)| !changed(t, fp))
        });
        let evicted = before - self.verdicts.len() - self.triples.len();
        self.stats.invalidated += evicted as u64;
        evicted
    }

    /// **Resets** liveness to exactly `program` and garbage-collects every
    /// verdict and retained solver whose fingerprints do not occur in it.
    ///
    /// This is the explicit between-runs sweep of a multi-run cache: the
    /// per-pass sweep ([`VerdictCache::sweep_live`]) only ever checks
    /// against the *union* of programs seen — so a sweep over benchmark B
    /// never strands or prematurely drops benchmark A's warm entries — and
    /// it is this call that a session uses to bound memory once a run's
    /// entries are genuinely dead. An entry the sweep keeps is guaranteed
    /// to hit again on the next detection pass over `program` (its
    /// transactions' summaries are unchanged), so sweeping never converts a
    /// would-be hit into a re-solve. Returns the number of verdict entries
    /// evicted.
    pub fn sweep(&mut self, program: &Program) -> usize {
        self.sweep_fps(summarize_program(program).iter().map(txn_fingerprint).collect())
    }

    /// The per-pass sweep: folds the pass's live transaction fingerprints
    /// into the session's liveness union, then garbage-collects entries
    /// outside the union. Every detection pass calls this once, before
    /// planning, with the fingerprints of all its programs. Within a
    /// single-program lifetime this degenerates to the precise per-program
    /// sweep; across a session it keeps warm entries of *every* program
    /// seen alive (bound memory with the explicit [`VerdictCache::sweep`]).
    pub(crate) fn sweep_live(&mut self, fps: &[u64]) -> usize {
        self.session_live.extend(fps.iter().copied());
        self.retain_session_live()
    }

    /// **Resets** liveness to exactly the given fingerprint set — the body
    /// of [`VerdictCache::sweep`], and its corpus variant: a batch run over
    /// many programs bounds memory to the whole corpus at once, so no
    /// program's pass strands another's warm entries. Returns the number
    /// of verdict entries evicted.
    pub(crate) fn sweep_fps(&mut self, fps: BTreeSet<u64>) -> usize {
        self.session_live = fps;
        self.retain_session_live()
    }

    fn retain_session_live(&mut self) -> usize {
        let live = std::mem::take(&mut self.session_live);
        let before = self.verdicts.len() + self.triples.len();
        self.verdicts
            .retain(|k, _| live.contains(&k.0) && live.contains(&k.1));
        self.states
            .retain(|k, _| live.contains(&k.0) && live.contains(&k.1));
        self.triples
            .retain(|k, _| live.contains(&k.0) && live.contains(&k.1) && live.contains(&k.2));
        self.triple_states
            .retain(|k, _| live.contains(&k.0) && live.contains(&k.1) && live.contains(&k.2));
        self.session_live = live;
        let evicted = before - self.verdicts.len() - self.triples.len();
        self.stats.invalidated += evicted as u64;
        evicted
    }

    /// Looks up the cached verdicts for an ordered pair and answers them
    /// in the labels of `asking`, the summaries of the program whose slot
    /// this is (see [`to_labels`]). Bumps hit/miss statistics; an entry
    /// whose positions name no command of `asking` (only a corrupt store
    /// can hold one) counts as a miss, so the pair is re-solved.
    pub(crate) fn lookup(
        &mut self,
        key: VerdictKey,
        asking: &[TxnSummary],
    ) -> Option<Vec<AccessPair>> {
        self.stats.lookups += 1;
        let found = self.verdicts.get(&key).map(|e| (e.run, to_labels(&e.pairs, asking)));
        let hit = self.count_lookup(found);
        if hit.is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit
    }

    /// The triple sibling of [`VerdictCache::lookup`], under the
    /// canonical key (fingerprints sorted — see [`TripleVerdictKey`]).
    pub(crate) fn lookup_triple(
        &mut self,
        key: TripleVerdictKey,
        asking: &[TxnSummary],
    ) -> Option<Vec<AccessPair>> {
        self.stats.triple_lookups += 1;
        let found = self.triples.get(&key).map(|e| (e.run, to_labels(&e.pairs, asking)));
        let hit = self.count_lookup(found);
        if hit.is_some() {
            self.stats.triple_hits += 1;
        } else {
            self.stats.triple_misses += 1;
        }
        hit
    }

    /// The cross-run accounting shared by pair and triple lookups: it
    /// engages from the second run onwards, when a lookup can first be
    /// served by an earlier run's entry.
    fn count_lookup(
        &mut self,
        found: Option<(u64, Option<Vec<AccessPair>>)>,
    ) -> Option<Vec<AccessPair>> {
        let cross = self.run >= 2;
        if cross {
            self.stats.cross_run_lookups += 1;
        }
        let (born, pairs) = found?;
        let pairs = pairs?;
        if cross && born < self.run {
            self.stats.cross_run_hits += 1;
        }
        Some(pairs)
    }

    /// Inserts the positional verdicts of one ordered-pair analysis.
    pub(crate) fn insert(
        &mut self,
        key: VerdictKey,
        txns: [&str; 2],
        pairs: Vec<AccessPair>,
        proofs: Vec<Vec<u8>>,
    ) {
        let entry = VerdictEntry {
            txn1: txns[0].to_owned(),
            txn2: txns[1].to_owned(),
            run: self.run,
            pairs,
            proofs,
        };
        self.verdicts.insert(key, entry);
    }

    /// Inserts the positional verdicts of one triple analysis.
    pub(crate) fn insert_triple(
        &mut self,
        key: TripleVerdictKey,
        txns: [&str; 3],
        pairs: Vec<AccessPair>,
        proofs: Vec<Vec<u8>>,
    ) {
        let entry = TripleEntry {
            txns: txns.map(str::to_owned),
            run: self.run,
            pairs,
            proofs,
        };
        self.triples.insert(key, entry);
    }

    /// Every pair entry, sorted by key — the deterministic iteration order
    /// the sharded store encodes records in.
    pub(crate) fn pair_entries(&self) -> Vec<(&VerdictKey, &VerdictEntry)> {
        let mut out: Vec<_> = self.verdicts.iter().collect();
        out.sort_by_key(|(k, _)| **k);
        out
    }

    /// Every triple entry, sorted by key (see
    /// [`VerdictCache::pair_entries`]).
    pub(crate) fn triple_entries(&self) -> Vec<(&TripleVerdictKey, &TripleEntry)> {
        let mut out: Vec<_> = self.triples.iter().collect();
        out.sort_by_key(|(k, _)| **k);
        out
    }

    /// Installs a pair entry loaded from a persistent store, seeding the
    /// liveness union with its fingerprints — so a later pass over *any*
    /// of the programs the entries came from answers warm instead of
    /// sweeping the rest away first.
    pub(crate) fn absorb_pair_entry(&mut self, key: VerdictKey, entry: VerdictEntry) {
        self.session_live.extend([key.0, key.1]);
        self.verdicts.insert(key, entry);
    }

    /// Installs a triple entry loaded from a persistent store (see
    /// [`VerdictCache::absorb_pair_entry`]).
    pub(crate) fn absorb_triple_entry(&mut self, key: TripleVerdictKey, entry: TripleEntry) {
        self.session_live.extend([key.0, key.1, key.2]);
        self.triples.insert(key, entry);
    }

    /// Every proof certificate blob stored in the cache — pair entries
    /// first, then triple entries, each section in sorted key order, so
    /// the sequence is deterministic across runs and thread counts.
    pub fn proof_blobs(&self) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for (_, e) in self.pair_entries() {
            out.extend(e.proofs.iter().cloned());
        }
        for (_, e) in self.triple_entries() {
            out.extend(e.proofs.iter().cloned());
        }
        out
    }

    /// One audit record per cached verdict, pair entries first, then
    /// triple entries, each section in sorted key order — the raw
    /// material of the per-benchmark anomaly reports.
    pub fn audits(&self) -> Vec<VerdictAudit> {
        let mut out = Vec::new();
        for (k, e) in self.pair_entries() {
            out.push(VerdictAudit {
                txns: vec![e.txn1.clone(), e.txn2.clone()],
                level: k.3,
                anomalies: e.pairs.len(),
                proofs: e.proofs.clone(),
            });
        }
        for (k, e) in self.triple_entries() {
            out.push(VerdictAudit {
                txns: e.txns.to_vec(),
                level: k.3,
                anomalies: e.pairs.len(),
                proofs: e.proofs.clone(),
            });
        }
        out
    }
}

/// One auditable verdict of a session's cache: the transactions, the
/// consistency level it was decided under, the anomaly count, and the
/// proof certificates captured for its UNSAT queries (empty when proof
/// capture was off).
#[derive(Debug, Clone)]
pub struct VerdictAudit {
    /// Transaction names — two for a pair verdict, three for a triple.
    pub txns: Vec<String>,
    /// Consistency level the verdict was decided under.
    pub level: ConsistencyLevel,
    /// Raw anomalous access pairs this verdict found.
    pub anomalies: usize,
    /// Proof certificate blobs of the verdict's UNSAT queries.
    pub proofs: Vec<Vec<u8>>,
}

/// The byte encoding of one verdict entry, the payload of every record of
/// the sharded `verdict_cache.v2` store ([`crate::corpus`]).
/// Every integer is little-endian; strings are UTF-8 with a `u32` length
/// prefix; string sets are a `u32` count followed by the strings in set
/// order. No external dependency — the format is a few dozen lines of
/// plain byte plumbing.
pub(crate) mod persist {
    use std::collections::BTreeSet;
    use std::io;

    use crate::detect::{AccessPair, AnomalyKind};

    /// Revision of the *encoder* that produced a shard, written right
    /// after its magic. The format version (in the magic) names the byte
    /// layout; the encoder revision names the semantics of what the
    /// verdicts *mean* — bump it whenever the fingerprint function, the
    /// violation templates, the anomaly vocabulary, or the entry's
    /// meaning changes, so a store written by an older build is not
    /// silently trusted (stale verdicts would bypass re-detection — unless
    /// the record carries proof certificates that still check, in which
    /// case the store salvages it; see `corpus::read_shard`).
    ///
    /// `0xA750_0002`: verdict entries gained an embedded proof-blob
    /// section. `0xA750_0003`: entries name commands by position within
    /// their transaction instead of by label.
    pub(crate) const ENCODER_REVISION: u32 = 0xA750_0003;

    pub(crate) fn bad(msg: &str) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, format!("verdict_cache.v2: {msg}"))
    }

    pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    }

    fn put_set(out: &mut Vec<u8>, set: &BTreeSet<String>) {
        out.extend_from_slice(&(set.len() as u32).to_le_bytes());
        for s in set {
            put_str(out, s);
        }
    }

    pub(crate) fn put_pairs(out: &mut Vec<u8>, pairs: &[AccessPair]) {
        put_u64(out, pairs.len() as u64);
        for p in pairs {
            put_str(out, &p.cmd1.0);
            put_set(out, &p.fields1);
            put_str(out, &p.cmd2.0);
            put_set(out, &p.fields2);
            put_str(out, &p.txn1);
            put_str(out, &p.txn2);
            put_set(out, &p.witnesses);
            out.push(p.kind.tag());
        }
    }

    /// Proof certificate blobs: a `u32` count, then each blob as a `u32`
    /// length prefix plus its bytes (the blob itself is an opaque
    /// `atropos_proof` certificate, checksummed internally).
    pub(crate) fn put_blobs(out: &mut Vec<u8>, blobs: &[Vec<u8>]) {
        put_u32(out, blobs.len() as u32);
        for b in blobs {
            put_u32(out, b.len() as u32);
            out.extend_from_slice(b);
        }
    }

    pub(crate) struct Reader<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        pub(crate) fn new(bytes: &'a [u8]) -> Reader<'a> {
            Reader { bytes, pos: 0 }
        }

        fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
            let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
            let Some(end) = end else {
                return Err(bad(&format!(
                    "truncated: need {n} more bytes at offset {}, record ends after {} \
                     (clean EOF inside a length-prefixed field)",
                    self.pos,
                    self.bytes.len()
                )));
            };
            let s = &self.bytes[self.pos..end];
            self.pos = end;
            Ok(s)
        }

        pub(crate) fn u8(&mut self) -> io::Result<u8> {
            Ok(self.take(1)?[0])
        }

        pub(crate) fn u64(&mut self) -> io::Result<u64> {
            Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
        }

        pub(crate) fn u32(&mut self) -> io::Result<u32> {
            Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
        }

        pub(crate) fn string(&mut self) -> io::Result<String> {
            let len = self.u32()? as usize;
            let s = self.take(len)?;
            String::from_utf8(s.to_vec()).map_err(|_| bad("non-UTF-8 string"))
        }

        fn set(&mut self) -> io::Result<BTreeSet<String>> {
            let n = self.u32()? as usize;
            let mut out = BTreeSet::new();
            for _ in 0..n {
                out.insert(self.string()?);
            }
            Ok(out)
        }

        /// Smallest possible encoded [`AccessPair`]: seven empty
        /// strings/sets (4 length bytes each) plus the kind tag — bounds
        /// how many entries a length prefix can honestly promise.
        const MIN_ENCODED_PAIR: usize = 29;

        pub(crate) fn pairs(&mut self) -> io::Result<Vec<AccessPair>> {
            let n = self.u64()? as usize;
            // A length prefix can't promise more entries than bytes left —
            // checked against the minimum encoding so a garbage count in a
            // corrupt file fails here instead of sizing a huge allocation.
            if n > self.bytes.len().saturating_sub(self.pos) / Self::MIN_ENCODED_PAIR {
                return Err(bad("truncated"));
            }
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                out.push(AccessPair {
                    cmd1: atropos_dsl::CmdLabel(self.string()?),
                    fields1: self.set()?,
                    cmd2: atropos_dsl::CmdLabel(self.string()?),
                    fields2: self.set()?,
                    txn1: self.string()?,
                    txn2: self.string()?,
                    witnesses: self.set()?,
                    kind: AnomalyKind::from_tag(self.u8()?)
                        .ok_or_else(|| bad("unknown anomaly-kind tag"))?,
                });
            }
            Ok(out)
        }

        pub(crate) fn blobs(&mut self) -> io::Result<Vec<Vec<u8>>> {
            let n = self.u32()? as usize;
            // Each promised blob costs at least its 4-byte length prefix.
            if n > self.bytes.len().saturating_sub(self.pos) / 4 {
                return Err(bad("truncated"));
            }
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                let len = self.u32()? as usize;
                out.push(self.take(len)?.to_vec());
            }
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::summarize_program;
    use atropos_dsl::parse;

    fn summaries(src: &str) -> Vec<TxnSummary> {
        summarize_program(&parse(src).unwrap())
    }

    const COUNTER: &str = "schema T { id: int key, v: int }
         txn bump(k: int) {
             @R x := select v from T where id = k;
             @W update T set v = x.v + 1 where id = k;
             return 0;
         }";

    #[test]
    fn fingerprint_is_deterministic_and_label_blind() {
        let a = summaries(COUNTER);
        let b = summaries(COUNTER);
        assert_eq!(txn_fingerprint(&a[0]), txn_fingerprint(&b[0]));
        // Relabeling @R/@W leaves the fingerprint unchanged…
        let relabeled = summaries(&COUNTER.replace("@R", "@R9").replace("@W", "@W9"));
        assert_eq!(txn_fingerprint(&a[0]), txn_fingerprint(&relabeled[0]));
        // …while touching the key spec / access set changes it.
        let scanned = summaries(&COUNTER.replace("select v from T where id = k", "select v from T"));
        assert_ne!(txn_fingerprint(&a[0]), txn_fingerprint(&scanned[0]));
    }

    /// Warm detection of `program` through `cache`: the verdicts, the
    /// queries the pass issued, and the cache counters it moved.
    fn warm(program: &Program, level: ConsistencyLevel, cache: &mut VerdictCache) -> (Vec<AccessPair>, u64, CacheStats) {
        let before = cache.stats();
        let (verdicts, stats) = crate::detect_anomalies_cached(program, level, cache);
        (verdicts, stats.queries, cache.stats().since(&before))
    }

    /// Cached verdicts name commands by position, so successive pure
    /// relabelings (`R → R2`, then `R2 → R3`) are answered warm in the
    /// labels of whichever program asks — equal to a cold oracle, without
    /// a single query.
    #[test]
    fn renames_apply_to_cached_pairs_and_compose() {
        let ec = ConsistencyLevel::EventualConsistency;
        let mut cache = VerdictCache::new();
        crate::detect_anomalies_cached(&parse(COUNTER).unwrap(), ec, &mut cache);
        for label in ["@R2", "@R3"] {
            let p = parse(&COUNTER.replace("@R", label)).unwrap();
            let (got, queries, delta) = warm(&p, ec, &mut cache);
            assert_eq!((queries, delta.hits, delta.misses), (0, 1, 0), "{label}");
            assert_eq!(got, crate::detect_anomalies(&p, ec), "{label}");
        }
        let p = parse(&COUNTER.replace("@R", "@R3")).unwrap();
        let (got, _, _) = warm(&p, ec, &mut cache);
        assert_eq!(got[0].cmd1.0, "R3");
        assert_eq!(got[0].cmd2.0, "W");
    }

    #[test]
    fn a_swap_batch_renames_simultaneously() {
        // Exchanging two commands' labels in one step: a positional entry
        // answers the swapped program in its own labels and orientation.
        let ec = ConsistencyLevel::EventualConsistency;
        let mut cache = VerdictCache::new();
        crate::detect_anomalies_cached(&parse(COUNTER).unwrap(), ec, &mut cache);
        let swapped = COUNTER.replace("@R", "@T").replace("@W", "@R").replace("@T", "@W");
        let p = parse(&swapped).unwrap();
        let (got, queries, delta) = warm(&p, ec, &mut cache);
        assert_eq!((queries, delta.misses), (0, 0));
        assert_eq!(got, crate::detect_anomalies(&p, ec));
        // The select now carries `W`, the update `R`.
        assert_eq!(got[0].cmd1.0, "R");
        assert_eq!(got[0].cmd2.0, "W");
    }

    #[test]
    fn renames_reach_retained_pair_models() {
        // A retained state re-analysed after a pure relabeling (another
        // level: the verdict misses, the solver is reused) must emit the
        // *current* labels, not the ones it was grounded with.
        let mut cache = VerdictCache::new();
        let p = parse(COUNTER).unwrap();
        crate::detect_anomalies_cached(&p, ConsistencyLevel::EventualConsistency, &mut cache);
        let relabeled = parse(&COUNTER.replace("@R", "@R9")).unwrap();
        let cc = ConsistencyLevel::CausalConsistency;
        let (got, _, delta) = warm(&relabeled, cc, &mut cache);
        assert_eq!(delta.solver_reuses, 1, "{delta:?}");
        assert_eq!(got, crate::detect_anomalies(&relabeled, cc));
        assert!(!got.is_empty());
        assert!(got.iter().all(|a| a.cmd1.0 != "R" && a.cmd2.0 != "R"), "{got:?}");
    }

    /// Satellite regression for multi-run cache lifetimes: a detection pass
    /// over program B must not strand or prematurely drop warm entries of a
    /// previously seen program A — liveness is the union of programs seen —
    /// while the explicit [`VerdictCache::sweep`] resets liveness to one
    /// program and evicts the rest.
    #[test]
    fn per_pass_sweep_keeps_warm_entries_of_earlier_runs() {
        use crate::{detect_anomalies_cached, ConsistencyLevel};
        let prog_a = atropos_dsl::parse(COUNTER).unwrap();
        let prog_b = atropos_dsl::parse(
            "schema U { id: int key, n: int }
             txn touch(k: int) {
                 @T update U set n = 1 where id = k;
                 return 0;
             }",
        )
        .unwrap();
        let ec = ConsistencyLevel::EventualConsistency;
        let mut cache = VerdictCache::new();

        cache.advance_run();
        let (a1, _) = detect_anomalies_cached(&prog_a, ec, &mut cache);
        // A different program's pass must not evict A's entries…
        cache.advance_run();
        detect_anomalies_cached(&prog_b, ec, &mut cache);
        assert_eq!(cache.stats().invalidated, 0, "{:?}", cache.stats());
        // …so returning to A answers every pair warm, across two runs.
        cache.advance_run();
        let before = cache.stats();
        let (a2, s) = detect_anomalies_cached(&prog_a, ec, &mut cache);
        assert_eq!(a2, a1);
        assert_eq!(s.queries, 0, "warm re-run must not touch a solver");
        let delta = cache.stats().since(&before);
        assert_eq!(delta.misses, 0, "premature drop: {delta:?}");
        assert!(delta.cross_run_hits > 0, "{delta:?}");
        assert!(cache.stats().cross_run_hit_ratio() > 0.0);

        // The explicit between-runs sweep resets liveness to one program:
        // A's entries go, B's stay warm.
        let evicted = cache.sweep(&prog_b);
        assert!(evicted > 0);
        let before = cache.stats();
        detect_anomalies_cached(&prog_b, ec, &mut cache);
        assert_eq!(cache.stats().since(&before).misses, 0, "B stayed warm");
        let before = cache.stats();
        detect_anomalies_cached(&prog_a, ec, &mut cache);
        assert!(cache.stats().since(&before).misses > 0, "A was swept");
    }

    #[test]
    fn sharded_state_map_takes_and_stores_through_shared_refs() {
        let ts = summaries(COUNTER);
        let t = &ts[0];
        let map = ShardedStateMap::new();
        assert!(map.take((1, 2)).is_none());
        map.store((1, 2), PairState::new(t, t));
        map.store((3, 4), PairState::new(t, t));
        // Concurrent take/store from scoped workers — the engine's pattern.
        std::thread::scope(|scope| {
            let h1 = scope.spawn(|| map.take((1, 2)).is_some());
            let h2 = scope.spawn(|| map.take((3, 4)).is_some());
            assert!(h1.join().unwrap());
            assert!(h2.join().unwrap());
        });
        assert!(map.take((1, 2)).is_none());
    }

    /// Satellite pin: with zero cross-run lookups the ratio is *defined*
    /// as 0.0, never NaN — `repair_stats.csv` renders it with `{:.2}`, so
    /// a NaN here would print literally into the artifact.
    #[test]
    fn cross_run_hit_ratio_is_zero_not_nan_without_cross_run_lookups() {
        let fresh = CacheStats::default();
        assert_eq!(fresh.cross_run_lookups, 0);
        assert!(!fresh.cross_run_hit_ratio().is_nan());
        assert_eq!(fresh.cross_run_hit_ratio(), 0.0);
        // Same for the plain hit ratio, and for a cache that did work but
        // never crossed a run boundary.
        assert_eq!(fresh.hit_ratio(), 0.0);
        let mut cache = VerdictCache::new();
        let ts = summaries(COUNTER);
        let fp = txn_fingerprint(&ts[0]);
        cache.lookup((fp, fp, true, ConsistencyLevel::EventualConsistency), &ts);
        assert!(cache.stats().lookups > 0);
        assert_eq!(cache.stats().cross_run_hit_ratio(), 0.0);
        assert!(format!("{:.2}", cache.stats().cross_run_hit_ratio()) == "0.00");
    }

    /// The precise invalidation keeps entries whose fingerprints survived
    /// the edit (a pure relabeling), evicts entries whose fingerprints
    /// changed, and the kept entries answer in the new labels, so a warm
    /// re-detection equals a cold oracle without re-solving.
    #[test]
    fn precise_invalidation_keeps_rename_only_entries() {
        use crate::detect_anomalies_cached;
        let ec = ConsistencyLevel::EventualConsistency;
        let before = parse(COUNTER).unwrap();
        let renamed = parse(&COUNTER.replace("@R", "@Rx").replace("@W", "@Wx")).unwrap();

        let mut cache = VerdictCache::new();
        let (cold, _) = detect_anomalies_cached(&before, ec, &mut cache);
        assert!(!cold.is_empty());
        assert_eq!(cache.len(), 1, "the one ordered self-pair cached");

        // A rename-only step names the txn dirty, but no fingerprint
        // changed — nothing may be evicted.
        let dirty = BTreeSet::from(["bump".to_owned()]);
        assert_eq!(cache.invalidate_txns_changed(&dirty, &renamed), 0);
        assert_eq!(cache.len(), 1, "rename-only edit evicted warm entries");

        // Warm ≡ cold on the renamed program, with zero solver work.
        let before_stats = cache.stats();
        let (warm, stats) = detect_anomalies_cached(&renamed, ec, &mut cache);
        assert_eq!(stats.queries, 0, "warm pass touched a solver");
        assert_eq!(cache.stats().since(&before_stats).misses, 0);
        let (cold2, _) = detect_anomalies_cached(&renamed, ec, &mut VerdictCache::new());
        assert_eq!(format!("{warm:?}"), format!("{cold2:?}"));

        // A summary-changing edit to the same txn *is* evicted — the
        // precise form degenerates to the coarse one when work changed.
        let widened = parse(&COUNTER.replace("select v from T where id = k", "select v from T"))
            .unwrap();
        assert_eq!(cache.invalidate_txns_changed(&dirty, &widened), 1);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().invalidated, 1);
    }

    #[test]
    fn invalidation_evicts_by_transaction_name() {
        let ts = summaries(COUNTER);
        let (fp, t) = (txn_fingerprint(&ts[0]), &ts[0]);
        let mut cache = VerdictCache::new();
        let key = (fp, fp, true, ConsistencyLevel::EventualConsistency);
        cache.insert(key, [&t.name, &t.name], vec![], vec![]);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.invalidate_txns(&BTreeSet::from(["other".to_owned()])), 0);
        assert_eq!(cache.invalidate_txns(&BTreeSet::from(["bump".to_owned()])), 1);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().invalidated, 1);
        assert!(cache.lookup(key, &ts).is_none());
    }

    /// The 3-hop relay chain (the `Relay` workload's shape), used by the
    /// triple-eviction tests below.
    const CHAIN: &str = "schema MSG { m_id: int key, m_body: int }
         schema FEED { f_id: int key, f_body: int }
         txn post(m: int, body: int) {
             @W1 update MSG set m_body = body where m_id = m;
             return 0;
         }
         txn relay(m: int, f: int) {
             @R2 x := select m_body from MSG where m_id = m;
             @W2 update FEED set f_body = x.m_body where f_id = f;
             return 0;
         }
         txn timeline(f: int, m: int) {
             @R3 y := select f_body from FEED where f_id = f;
             @R4 z := select m_body from MSG where m_id = m;
             return y.f_body + z.m_body;
         }";

    #[test]
    fn invalidation_evicts_triples_by_any_member_name() {
        let ts = summaries(CHAIN);
        // The canonical triple key sorts fingerprints, so the invalidated
        // transaction can land in any of the key's three slots — name-keyed
        // eviction must reach all of them.
        let mut fps: Vec<(u64, &TxnSummary)> =
            ts.iter().map(|t| (txn_fingerprint(t), t)).collect();
        fps.sort_by_key(|(fp, _)| *fp);
        let key = (fps[0].0, fps[1].0, fps[2].0, ConsistencyLevel::EventualConsistency);
        for victim in ["post", "relay", "timeline"] {
            let mut cache = VerdictCache::new();
            let names = [&fps[0].1.name, &fps[1].1.name, &fps[2].1.name].map(String::as_str);
            cache.insert_triple(key, names, vec![], vec![]);
            assert_eq!(cache.triple_len(), 1);
            assert_eq!(cache.invalidate_txns(&BTreeSet::from(["other".to_owned()])), 0);
            assert_eq!(
                cache.invalidate_txns(&BTreeSet::from([victim.to_owned()])),
                1,
                "stale triple verdict survived invalidating `{victim}`"
            );
            assert_eq!(cache.triple_len(), 0);
            assert!(cache.lookup_triple(key, &ts).is_none());
        }
    }

    /// A chain-rule edit dirties all three chain transactions; name-keyed
    /// invalidation must evict their stale triple verdicts so re-detection
    /// over the rewritten program equals a cold oracle (a stale hit here
    /// would silently replay pre-edit verdicts).
    #[test]
    fn chain_rule_edit_evicts_stale_triple_verdicts() {
        use crate::engine::{DetectMode, DetectionEngine};
        let ec = ConsistencyLevel::EventualConsistency;
        let triples = |p: &Program, cache: &mut VerdictCache| {
            let engine = DetectionEngine::serial().with_learnt_pool(false);
            let marked = BTreeSet::new();
            engine.detect_in(p, ec, DetectMode::Triples, &marked, cache, &mut Vec::new())
        };
        let before = parse(CHAIN).unwrap();
        // The relay materialization's output shape: the derived field lives
        // on the origin row, written and read under `.T` labels.
        let after = parse(
            "schema MSG { m_id: int key, m_body: int, m_f_body: int }
             schema FEED { f_id: int key, f_body: int }
             txn post(m: int, body: int) {
                 @W1 update MSG set m_body = body where m_id = m;
                 return 0;
             }
             txn relay(m: int, f: int) {
                 @R2 x := select m_body from MSG where m_id = m;
                 @W2.T update MSG set m_f_body = x.m_body where m_id = m;
                 return 0;
             }
             txn timeline(f: int, m: int) {
                 @R3.T y := select m_f_body, m_body from MSG where m_id = m;
                 return y.m_f_body + y.m_body;
             }",
        )
        .unwrap();

        let mut cache = VerdictCache::new();
        let (dirty, _) = triples(&before, &mut cache);
        assert_eq!(dirty.len(), 1, "{dirty:?}");
        assert!(cache.triple_len() > 0);

        let edited = BTreeSet::from(["post", "relay", "timeline"].map(str::to_owned));
        assert!(cache.invalidate_txns(&edited) > 0);
        assert_eq!(cache.triple_len(), 0, "stale triple verdicts survived the edit");

        let (warm, _) = triples(&after, &mut cache);
        let (cold, _) = triples(&after, &mut VerdictCache::new());
        assert_eq!(warm, cold, "invalidated cache must agree with a cold oracle");
        assert!(warm.is_empty(), "{warm:?}");
    }
}
