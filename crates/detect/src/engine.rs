//! The detection engine: the one plan → solve → merge pass behind every
//! oracle of this crate, with dirty work fanned out over a worker pool and
//! merged deterministically.
//!
//! The paper's detection formulation makes every transaction pair (and
//! every bounded triple of [`DetectMode::Triples`]) an independent
//! satisfiability query, so one pass serves three callers alike: a single
//! program ([`DetectionEngine::detect_with_mode`] — a corpus of one), the
//! repair loop's re-detections, and a fleet of programs
//! ([`crate::analyse_corpus`]). A [`DetectionEngine`] owns the parallelism
//! policy — a worker count from [`DetectionEngine::new`], the
//! `ATROPOS_THREADS` environment variable via [`DetectionEngine::from_env`],
//! or the machine's available parallelism — and runs each pass in three
//! phases:
//!
//! 1. **Plan** (serial): summarize and fingerprint every program, sweep
//!    the cache's liveness union once, and look every program's ordered
//!    pairs up in the verdict cache — one counted lookup per slot. Hits
//!    fill their slots immediately, already in the asking program's
//!    labels; misses are deduplicated across all programs into one
//!    dirty-pair work list. In triple mode the same planning covers every
//!    unordered triple of distinct transactions: statically template-free
//!    triples cache an empty verdict without ever grounding a model.
//! 2. **Solve** (parallel): `std::thread::scope` workers drain each work
//!    list through an atomic cursor. Each worker takes the item's retained
//!    state (the grounded model and its solver) from the sharded
//!    retention maps (states migrate freely between workers — they are
//!    `Send`), solves it with the one solve routine pairs and triples
//!    share, and returns the state to its shard.
//! 3. **Merge** (serial, deterministic): verdicts are inserted into the
//!    cache **in plan order**, not in completion order; then every program
//!    folds its own slots, translating positional verdicts into its own
//!    labels. The output — verdicts, the whole [`DetectStats`] except
//!    wall-clock seconds, and every downstream repair decision — is
//!    byte-identical at any thread count (pinned by
//!    `tests/parallel_determinism.rs`, `tests/triple_vs_pair.rs` and
//!    `tests/corpus_differential.rs`).
//!
//! With one thread (or a batch too small to feed two) the scope is skipped
//! and phase 2 runs inline.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use atropos_dsl::Program;
use atropos_sat::Lit;

use crate::cache::{
    to_labels, txn_fingerprint, LearntPool, ShardedMap, TripleVerdictKey, VerdictCache, VerdictKey,
};
use crate::corpus::CorpusStats;
use crate::detect::{accumulate, AccessPair, DetectStats};
use crate::encode::ConsistencyLevel;
use crate::model::{summarize_program, TxnSummary};
use crate::session::DetectSession;
use crate::template::{has_candidates, solve, SolveState};

/// Which bounded execution skeleton a detection pass grounds its anomaly
/// queries over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DetectMode {
    /// The paper's **two-instance** bound: the four pair templates only.
    /// The default — every existing oracle entry point runs here.
    #[default]
    Pairs,
    /// The two-instance bound *plus* the bounded **three-instance** chain
    /// templates of [`crate::triple`] (observer chain, circular write
    /// skew, fractured-read chain). Verdicts are a superset of
    /// [`DetectMode::Pairs`] by construction: the pair phase runs
    /// unchanged and the triple phase only ever appends.
    Triples,
}

impl std::fmt::Display for DetectMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DetectMode::Pairs => "pairs",
            DetectMode::Triples => "triples",
        })
    }
}

/// Per-worker counters of one engine's lifetime, indexed by worker slot
/// (worker 0 is also the inline path of a single-threaded pass).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkerStats {
    /// Dirty work items (transaction pairs — and triples, in triple mode)
    /// this worker re-solved.
    pub pairs_solved: u64,
    /// SAT queries those items issued.
    pub queries: u64,
    /// Items that reused a retained solver taken from a sharded map.
    pub solver_reuses: u64,
    /// Wall-clock seconds this worker spent solving.
    pub seconds: f64,
}

impl WorkerStats {
    pub(crate) fn absorb(&mut self, other: &WorkerStats) {
        self.pairs_solved += other.pairs_solved;
        self.queries += other.queries;
        self.solver_reuses += other.solver_reuses;
        self.seconds += other.seconds;
    }
}

/// Parallelism policy for detection passes, plus the engine-scoped
/// [`LearntPool`]: lemmas published by the first solve of each canonical
/// `(fingerprint, fingerprint, level)` key, seeded into every later solver
/// built for the same key — across sessions sharing this engine (clones
/// share the pool). Cheap to construct and `Clone`-light (a `usize` and an
/// `Arc`); callers typically build **one engine per sweep** and share it —
/// the per-run state (verdicts, retained solvers) lives in the
/// [`DetectSession`], not here. The caller owns the configuration: the
/// pool is on and proof capture off unless
/// [`DetectionEngine::with_learnt_pool`] / [`DetectionEngine::with_proofs`]
/// say otherwise.
///
/// # Examples
///
/// ```
/// use atropos_detect::{ConsistencyLevel, DetectionEngine, DetectSession};
///
/// let p = atropos_dsl::parse(
///     "schema T { id: int key, v: int }
///      txn bump(k: int) {
///          x := select v from T where id = k;
///          update T set v = x.v + 1 where id = k;
///          return 0;
///      }",
/// ).unwrap();
/// let engine = DetectionEngine::new(2);
/// let mut session = DetectSession::new();
/// let (first, _) = engine.detect(&p, ConsistencyLevel::EventualConsistency, &mut session);
/// assert_eq!(first.len(), 1); // the lost update
/// // Same program again: answered entirely from the session's warm cache.
/// let (again, stats) = engine.detect(&p, ConsistencyLevel::EventualConsistency, &mut session);
/// assert_eq!(again, first);
/// assert_eq!(stats.queries, 0);
/// ```
#[derive(Clone)]
pub struct DetectionEngine {
    threads: usize,
    /// `None` when learnt-clause sharing is disabled.
    pool: Option<Arc<LearntPool>>,
    /// Whether UNSAT verdicts capture proof certificates.
    proofs: bool,
}

impl std::fmt::Debug for DetectionEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DetectionEngine")
            .field("threads", &self.threads)
            .field("learnt_pool", &self.pool.is_some())
            .field("proofs", &self.proofs)
            .finish()
    }
}

impl DetectionEngine {
    /// An engine solving dirty work on `threads` workers (clamped to at
    /// least 1), with the learnt pool on and proof capture off. Thread
    /// count never affects results, only wall-clock — and neither does
    /// the learnt pool: seeded lemmas change how fast a verdict is
    /// reached, never which verdict.
    pub fn new(threads: usize) -> DetectionEngine {
        DetectionEngine {
            threads: threads.max(1),
            pool: Some(Arc::new(LearntPool::new())),
            proofs: false,
        }
    }

    /// Enables or disables learnt-clause sharing on this engine (on by
    /// default). Disabling drops any published lemmas; enabling an
    /// already-enabled engine keeps them.
    pub fn with_learnt_pool(mut self, enabled: bool) -> DetectionEngine {
        if !enabled {
            self.pool = None;
        } else if self.pool.is_none() {
            self.pool = Some(Arc::new(LearntPool::new()));
        }
        self
    }

    /// Enables or disables proof-certificate capture on this engine (off
    /// by default). With proofs on, every UNSAT query behind a verdict is
    /// logged and certified; the blobs are stored alongside the verdict
    /// entries in the session's cache (see [`VerdictCache::proof_blobs`]).
    /// Like the thread count and the learnt pool, certificates never
    /// change verdicts.
    pub fn with_proofs(mut self, enabled: bool) -> DetectionEngine {
        self.proofs = enabled;
        self
    }

    /// Whether this engine captures proof certificates.
    pub fn proofs_enabled(&self) -> bool {
        self.proofs
    }

    /// The engine's learnt-clause pool, when sharing is enabled.
    pub fn learnt_pool(&self) -> Option<&LearntPool> {
        self.pool.as_deref()
    }

    /// The strictly serial engine (`threads = 1`).
    pub fn serial() -> DetectionEngine {
        DetectionEngine::new(1)
    }

    /// An engine honouring the `ATROPOS_THREADS` environment variable
    /// (clamped to at least 1, exactly like [`DetectionEngine::new`] — so
    /// `ATROPOS_THREADS=0` means serial, not "use the default"), falling
    /// back to the machine's available parallelism (capped at 8 —
    /// dirty-pair batches rarely feed more workers than that).
    pub fn from_env() -> DetectionEngine {
        let configured = std::env::var("ATROPOS_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok());
        DetectionEngine::new(configured.unwrap_or_else(default_threads))
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// One cached detection pass over `program` at `level` under the
    /// default [`DetectMode::Pairs`] bound; see
    /// [`DetectionEngine::detect_with_mode`].
    pub fn detect(
        &self,
        program: &Program,
        level: ConsistencyLevel,
        session: &mut DetectSession,
    ) -> (Vec<AccessPair>, DetectStats) {
        self.detect_with_mode(program, level, DetectMode::Pairs, session)
    }

    /// One cached detection pass over `program` at `level` under `mode`,
    /// answering untouched pairs (and, in triple mode, triples) from the
    /// session's verdict cache and fanning the dirty remainder out over
    /// this engine's workers.
    ///
    /// In [`DetectMode::Pairs`] this is verdict-identical to
    /// [`crate::detect_anomalies`]; in [`DetectMode::Triples`] the result
    /// is a superset of the pair verdicts. Both are byte-identical to
    /// themselves at every thread count; see the module docs for the
    /// three-phase structure and the determinism argument.
    pub fn detect_with_mode(
        &self,
        program: &Program,
        level: ConsistencyLevel,
        mode: DetectMode,
        session: &mut DetectSession,
    ) -> (Vec<AccessPair>, DetectStats) {
        let (cache, per_worker) = session.cache_and_workers();
        self.detect_in(program, level, mode, &BTreeSet::new(), cache, per_worker)
    }

    /// [`DetectionEngine::pass`] over a corpus of one, with the pass's
    /// solver work folded into the program's statistics. Pairs of two
    /// transactions both named in `serializable_txns` are analysed at
    /// [`ConsistencyLevel::Serializable`].
    pub(crate) fn detect_in(
        &self,
        program: &Program,
        level: ConsistencyLevel,
        mode: DetectMode,
        serializable_txns: &BTreeSet<String>,
        cache: &mut VerdictCache,
        per_worker: &mut Vec<WorkerStats>,
    ) -> (Vec<AccessPair>, DetectStats) {
        let (mut answers, pass) =
            self.pass(&[program], level, mode, serializable_txns, cache, per_worker);
        let (verdicts, mut stats) = answers.pop().expect("one program in, one answer out");
        stats.add_solver_work(&pass.solve);
        stats.seconds = pass.seconds;
        (verdicts, stats)
    }

    /// The one detection pass (see the module docs): plans every program's
    /// pair slots (and, in triple mode, triple slots) against `cache`,
    /// solves each distinct missing key once — pairs, then triples, one
    /// worker-pool batch each — and merges in plan order. Returns each
    /// program's verdicts with its slot counts (`pairs`, `triples`; no
    /// solver work), plus the pass's aggregate statistics, whose `solve`
    /// holds all the solver work.
    pub(crate) fn pass(
        &self,
        programs: &[&Program],
        level: ConsistencyLevel,
        mode: DetectMode,
        serializable_txns: &BTreeSet<String>,
        cache: &mut VerdictCache,
        per_worker: &mut Vec<WorkerStats>,
    ) -> (Vec<(Vec<AccessPair>, DetectStats)>, CorpusStats) {
        let started = Instant::now();
        let sums: Vec<Vec<TxnSummary>> = programs.iter().map(|p| summarize_program(p)).collect();
        let fps: Vec<Vec<u64>> = sums
            .iter()
            .map(|ts| ts.iter().map(txn_fingerprint).collect())
            .collect();
        // Fold every program into the liveness union *first*, so no
        // program's entries are swept before its slots are planned.
        cache.sweep_live(&fps.concat());
        let mut stats = CorpusStats {
            programs: programs.len(),
            ..CorpusStats::default()
        };
        let mut counts = vec![DetectStats::default(); programs.len()];
        let mut slots: Vec<Vec<Slot>> =
            sums.iter().map(|ts| Vec::with_capacity(ts.len() * ts.len())).collect();
        // Every solved verdict of the pass, pairs then triples, in plan
        // order; a pending slot indexes into it.
        let mut solved: Vec<Vec<AccessPair>> = Vec::new();

        // Pairs: plan.
        let mut planned: HashMap<VerdictKey, usize> = HashMap::new();
        let mut pair_items: Vec<PairItem> = Vec::new();
        for (prog, (ts, pfps)) in sums.iter().zip(&fps).enumerate() {
            for i in 0..ts.len() {
                for j in 0..ts.len() {
                    counts[prog].pairs += 1;
                    // A pair is only analysed as serializable when *both*
                    // instances of the bounded execution coordinate.
                    let marked = serializable_txns.contains(&ts[i].name)
                        && serializable_txns.contains(&ts[j].name);
                    let at = if marked { ConsistencyLevel::Serializable } else { level };
                    let key = (pfps[i], pfps[j], i <= j, at);
                    let slot = match cache.lookup(key, ts) {
                        Some(pairs) => Slot::Ready(pairs),
                        None => Slot::Pending(*planned.entry(key).or_insert_with(|| {
                            pair_items.push(PairItem { prog, i, j, key });
                            pair_items.len() - 1
                        })),
                    };
                    slots[prog].push(slot);
                }
            }
        }
        stats.unique_pairs = pair_items.len() as u64;

        // Pairs: solve and merge.
        let publish = self.publishable(
            pair_items.iter().map(|m| [m.key.0, m.key.1]).collect(),
            |k| cache.states().contains(k),
            |pool, m| pool.has_pair(m.key.0, m.key.1, m.key.3),
            &pair_items,
        );
        let (outcomes, workers) = run_pool(self.threads, &pair_items, |m| {
            self.solve_pair(&sums[m.prog], cache, m)
        });
        absorb(per_worker, &workers);
        for ((m, o), publish) in pair_items.iter().zip(outcomes).zip(publish) {
            let o = self.merge_outcome(cache, &mut stats.solve, o);
            if let Some(pool) = self.pool.as_deref().filter(|_| publish) {
                let (fp1, fp2, _, level) = m.key;
                publish_state(cache.states(), [fp1, fp2], |c| {
                    pool.publish_pair(fp1, fp2, level, c)
                });
            }
            let ts = &sums[m.prog];
            let txns = [ts[m.i].name.as_str(), ts[m.j].name.as_str()];
            cache.insert(m.key, txns, o.pairs.clone(), o.proofs);
            solved.push(o.pairs);
        }

        if mode == DetectMode::Triples {
            // Triples: plan. Everything downstream — the cache key, the
            // static prefilter, the grounded model, retained states —
            // works in the one canonical orientation, so a state keyed
            // here is never replayed against summaries in a different
            // instance order.
            let base = solved.len();
            let mut planned: HashMap<TripleVerdictKey, usize> = HashMap::new();
            let mut trio_items: Vec<TrioItem> = Vec::new();
            for (prog, (ts, pfps)) in sums.iter().zip(&fps).enumerate() {
                let n = ts.len();
                for i in 0..n {
                    for j in (i + 1)..n {
                        for k in (j + 1)..n {
                            counts[prog].triples += 1;
                            let idx = canonical_trio([i, j, k], pfps);
                            let key = (pfps[idx[0]], pfps[idx[1]], pfps[idx[2]], level);
                            let trio = idx.map(|x| &ts[x]);
                            let slot = if let Some(pairs) = cache.lookup_triple(key, ts) {
                                Slot::Ready(pairs)
                            } else if let Some(&item) = planned.get(&key) {
                                Slot::Pending(base + item)
                            } else if has_candidates(trio, idx.map(|x| pfps[x])) {
                                planned.insert(key, trio_items.len());
                                trio_items.push(TrioItem { prog, idx, key });
                                Slot::Pending(base + trio_items.len() - 1)
                            } else {
                                // Statically template-free: settled without
                                // a model or a solver.
                                let names = trio.map(|t| t.name.as_str());
                                cache.insert_triple(key, names, Vec::new(), Vec::new());
                                Slot::Ready(Vec::new())
                            };
                            slots[prog].push(slot);
                        }
                    }
                }
            }
            stats.unique_triples = trio_items.len() as u64;

            // Triples: solve and merge.
            let publish = self.publishable(
                trio_items.iter().map(|m| [m.key.0, m.key.1, m.key.2]).collect(),
                |k| cache.triple_states().contains(k),
                |pool, m| pool.has_triple(&m.key),
                &trio_items,
            );
            let (outcomes, workers) = run_pool(self.threads, &trio_items, |m| {
                self.solve_trio(&sums[m.prog], cache, m)
            });
            absorb(per_worker, &workers);
            for ((m, o), publish) in trio_items.iter().zip(outcomes).zip(publish) {
                let o = self.merge_outcome(cache, &mut stats.solve, o);
                if let Some(pool) = self.pool.as_deref().filter(|_| publish) {
                    let (fp0, fp1, fp2, _) = m.key;
                    publish_state(cache.triple_states(), [fp0, fp1, fp2], |c| {
                        pool.publish_triple(m.key, c)
                    });
                }
                let names = m.idx.map(|x| sums[m.prog][x].name.as_str());
                cache.insert_triple(m.key, names, o.pairs.clone(), o.proofs);
                solved.push(o.pairs);
            }
        }

        // Answer: every program folds its own slots, in slot order, in its
        // own labels.
        stats.pair_slots = counts.iter().map(|c| c.pairs).sum();
        stats.triple_slots = counts.iter().map(|c| c.triples).sum();
        let answers = slots
            .into_iter()
            .zip(counts)
            .enumerate()
            .map(|(prog, (slots, counts))| {
                let mut found: BTreeMap<_, AccessPair> = BTreeMap::new();
                for slot in slots {
                    let pairs = match slot {
                        Slot::Ready(pairs) => pairs,
                        Slot::Pending(item) => to_labels(&solved[item], &sums[prog])
                            .expect("a solved verdict names commands of its program"),
                    };
                    accumulate(&mut found, pairs);
                }
                (found.into_values().collect(), counts)
            })
            .collect();
        stats.seconds = started.elapsed().as_secs_f64();
        (answers, stats)
    }

    /// Solves one dirty pair (see [`DetectionEngine::solve_item`]).
    fn solve_pair(&self, ts: &[TxnSummary], cache: &VerdictCache, m: &PairItem) -> Outcome {
        let (fp1, fp2, symmetric, level) = m.key;
        let seed = || self.pool.as_deref()?.pair_seed(fp1, fp2, level);
        let pair = [&ts[m.i], &ts[m.j]];
        self.solve_item(cache.states(), [fp1, fp2], pair, symmetric, level, seed)
    }

    /// Solves one dirty triple, in its canonical orientation (see
    /// [`DetectionEngine::solve_item`]).
    fn solve_trio(&self, ts: &[TxnSummary], cache: &VerdictCache, m: &TrioItem) -> Outcome {
        let (fp0, fp1, fp2, level) = m.key;
        let seed = || self.pool.as_deref()?.triple_seed(&m.key);
        let trio = m.idx.map(|x| &ts[x]);
        self.solve_item(
            cache.triple_states(),
            [fp0, fp1, fp2],
            trio,
            false,
            level,
            seed,
        )
    }

    /// Solves one dirty work item against its retained (or freshly
    /// grounded) state, keyed by the item's fingerprints in instance order.
    /// A state without a solver seeds published lemmas at its (lazy)
    /// solver construction; the pool is frozen while the batch runs, so
    /// the seed is the same whichever worker claims the item.
    fn solve_item<const N: usize>(
        &self,
        states: &ShardedMap<[u64; N], SolveState>,
        key: [u64; N],
        ts: [&TxnSummary; N],
        symmetric: bool,
        level: ConsistencyLevel,
        seed: impl FnOnce() -> Option<Arc<Vec<Vec<Lit>>>>,
    ) -> Outcome {
        let mut state = states.take(key).unwrap_or_else(|| SolveState::new(&ts));
        let solver_reused = state.solver.is_some();
        let seed = if solver_reused { None } else { seed() };
        let (pairs, stats, proofs) = solve(
            &ts,
            &key,
            symmetric,
            level,
            &mut state,
            seed.as_deref().map(Vec::as_slice),
            self.proofs,
        );
        states.store(key, state);
        Outcome { pairs, stats, solver_reused, proofs }
    }

    /// Folds one solved outcome's counters into the cache statistics and
    /// the pass's solver work.
    fn merge_outcome(
        &self,
        cache: &mut VerdictCache,
        solve: &mut DetectStats,
        o: Option<Outcome>,
    ) -> Outcome {
        let o = o.expect("every work item was solved");
        cache.stats_mut().solver_reuses += u64::from(o.solver_reused);
        cache.stats_mut().learnt_seeded += o.stats.learnt_seeded;
        solve.add_solver_work(&o.stats);
        o
    }

    /// Decides, at plan time, which work items may publish their retained
    /// lemmas to the engine's [`LearntPool`] at the merge point.
    /// Publication must be thread-count blind, so an item qualifies only
    /// when the exported clause set is a pure function of the plan: the
    /// pool does not hold the key yet, no retained state existed when the
    /// batch was planned (a retained solver's lemmas depend on its whole
    /// query history), and the state key is solved exactly once in this
    /// batch (sibling items sharing a state — the symmetric/asymmetric
    /// orientations of one fingerprint pair across programs — race on
    /// take/store, so whichever solver survives is a scheduling accident).
    fn publishable<K: std::hash::Hash + Eq + Copy, T>(
        &self,
        state_keys: Vec<K>,
        retained: impl Fn(&K) -> bool,
        published: impl Fn(&LearntPool, &T) -> bool,
        items: &[T],
    ) -> Vec<bool> {
        let Some(pool) = self.pool.as_deref() else {
            return vec![false; items.len()];
        };
        let mut count: HashMap<K, u32> = HashMap::new();
        for k in &state_keys {
            *count.entry(*k).or_insert(0) += 1;
        }
        state_keys
            .iter()
            .zip(items)
            .map(|(k, m)| count[k] == 1 && !retained(k) && !published(pool, m))
            .collect()
    }
}

/// Smallest dirty-item batch worth one worker thread: below this, the
/// spawn/join overhead rivals the SAT work itself and the pass runs
/// inline. Thread count never affects verdicts, so this is purely a
/// scheduling knob.
const MIN_PAIRS_PER_WORKER: usize = 4;

/// Default worker count when `ATROPOS_THREADS` is unset.
fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// One dirty pair of the work list: the program that planned it first,
/// its ordered transaction indices there, and the verdict key (which
/// carries the lost-update orientation flag and the level queried).
struct PairItem {
    prog: usize,
    i: usize,
    j: usize,
    key: VerdictKey,
}

/// One dirty triple of the work list: the program that planned it first,
/// the transaction indices in **canonical (fingerprint-sorted)
/// orientation** — the orientation the cache key, the grounded model,
/// any retained state and witness replay all share, so a state retained
/// under one program is never replayed under a differently-ordered
/// sibling — and the canonical cache key.
struct TrioItem {
    prog: usize,
    idx: [usize; 3],
    key: TripleVerdictKey,
}

/// One verdict slot of a program's plan: answered at plan time from the
/// cache (already in the program's labels), or by the solved verdict at
/// this index of the pass's work lists.
enum Slot {
    Ready(Vec<AccessPair>),
    Pending(usize),
}

/// Reorders a triple of transaction indices into the canonical
/// orientation: ascending by fingerprint (ties — only possible between
/// identical summaries — broken by index, keeping the order total).
pub(crate) fn canonical_trio(idx: [usize; 3], fps: &[u64]) -> [usize; 3] {
    let mut c = idx;
    c.sort_unstable_by_key(|&i| (fps[i], i));
    c
}

/// The outcome of solving one dirty work item, produced on whatever worker
/// claimed it and merged on the coordinating thread. `pairs` are in the
/// cache's positional form.
struct Outcome {
    pairs: Vec<AccessPair>,
    stats: DetectStats,
    solver_reused: bool,
    /// Proof certificates of this item's UNSAT queries (empty when proof
    /// capture is off), stored with the verdict at the merge point.
    proofs: Vec<Vec<u8>>,
}

/// Drains `items` through an atomic work cursor on up to `threads` scoped
/// workers (inline when the batch is too small to feed more than one —
/// incremental repair's later passes dirty a handful of items, and paying
/// a spawn/join round-trip for them would hand the serial driver a
/// regression). Returns the outcomes indexed like `items` plus per-worker
/// counters. Outcome order is by item index, never completion order.
fn run_pool<T: Sync>(
    threads: usize,
    items: &[T],
    solve: impl Fn(&T) -> Outcome + Sync,
) -> (Vec<Option<Outcome>>, Vec<WorkerStats>) {
    let workers = threads.min(items.len() / MIN_PAIRS_PER_WORKER).max(1);
    let mut outcomes: Vec<Option<Outcome>> = Vec::with_capacity(items.len());
    outcomes.resize_with(items.len(), || None);
    let mut worker_stats = vec![WorkerStats::default(); workers];
    if workers <= 1 {
        let w = &mut worker_stats[0];
        let t0 = Instant::now();
        for (k, item) in items.iter().enumerate() {
            let o = solve(item);
            w.pairs_solved += 1;
            w.queries += o.stats.queries;
            w.solver_reuses += u64::from(o.solver_reused);
            outcomes[k] = Some(o);
        }
        w.seconds += t0.elapsed().as_secs_f64();
    } else {
        let next = AtomicUsize::new(0);
        let solve = &solve;
        let produced: Vec<(usize, WorkerStats, Vec<(usize, Outcome)>)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let next = &next;
                        scope.spawn(move || {
                            let t0 = Instant::now();
                            let mut ws = WorkerStats::default();
                            let mut out = Vec::new();
                            loop {
                                let k = next.fetch_add(1, Ordering::Relaxed);
                                if k >= items.len() {
                                    break;
                                }
                                let o = solve(&items[k]);
                                ws.pairs_solved += 1;
                                ws.queries += o.stats.queries;
                                ws.solver_reuses += u64::from(o.solver_reused);
                                out.push((k, o));
                            }
                            ws.seconds = t0.elapsed().as_secs_f64();
                            (w, ws, out)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("detection worker panicked"))
                    .collect()
            });
        for (w, ws, out) in produced {
            worker_stats[w] = ws;
            for (k, o) in out {
                outcomes[k] = Some(o);
            }
        }
    }
    (outcomes, worker_stats)
}

/// Adds one batch's per-worker counters to `into`, slot by slot.
fn absorb(into: &mut Vec<WorkerStats>, batch: &[WorkerStats]) {
    if into.len() < batch.len() {
        into.resize(batch.len(), WorkerStats::default());
    }
    for (slot, w) in batch.iter().enumerate() {
        into[slot].absorb(w);
    }
}

/// Publishes the lemmas retained by one state's solver (if it built one)
/// through `publish` — called at the serial merge point, after the batch's
/// workers have all returned their states.
fn publish_state<const N: usize>(
    states: &ShardedMap<[u64; N], SolveState>,
    key: [u64; N],
    publish: impl FnOnce(Vec<Vec<Lit>>),
) {
    if let Some(state) = states.take(key) {
        if let Some(ps) = &state.solver {
            let exported = ps.export_learnts();
            if !exported.is_empty() {
                publish(exported);
            }
        }
        states.store(key, state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::{detect_anomalies, AnomalyKind};
    use atropos_dsl::parse;

    const TWO_TXNS: &str = "schema T { id: int key, v: int, w: int }
         txn bump(k: int) {
             @R x := select v from T where id = k;
             @W update T set v = x.v + 1 where id = k;
             return 0;
         }
         txn audit(k: int) {
             @A1 y := select v, w from T where id = k;
             @A2 z := select v from T where id = k;
             return y.v + z.v;
         }";

    #[test]
    fn engine_matches_plain_detection_at_every_thread_count() {
        let p = parse(TWO_TXNS).unwrap();
        for level in ConsistencyLevel::ALL {
            let reference = detect_anomalies(&p, level);
            for threads in [1, 2, 8] {
                let engine = DetectionEngine::new(threads);
                let mut session = DetectSession::new();
                let (got, stats) = engine.detect(&p, level, &mut session);
                assert_eq!(got, reference, "{threads} threads @ {level}");
                assert_eq!(stats.pairs, 4);
                // Warm second pass: zero queries, same verdicts.
                let (again, warm) = engine.detect(&p, level, &mut session);
                assert_eq!(again, reference);
                assert_eq!(warm.queries, 0);
            }
        }
    }

    #[test]
    fn per_worker_counters_cover_all_dirty_pairs() {
        let p = parse(TWO_TXNS).unwrap();
        let engine = DetectionEngine::new(2);
        let mut session = DetectSession::new();
        let (_, stats) = engine.detect(&p, ConsistencyLevel::EventualConsistency, &mut session);
        let solved: u64 = session.per_worker().iter().map(|w| w.pairs_solved).sum();
        assert_eq!(solved, stats.pairs, "all 4 pairs were dirty on a cold cache");
        let queries: u64 = session.per_worker().iter().map(|w| w.queries).sum();
        assert_eq!(queries, stats.queries);
        assert!(session.per_worker().len() <= 2);
    }

    #[test]
    fn thread_count_clamps_and_env_parses() {
        assert_eq!(DetectionEngine::new(0).threads(), 1);
        assert_eq!(DetectionEngine::serial().threads(), 1);
        assert!(DetectionEngine::from_env().threads() >= 1);
    }

    /// The 3-hop relay program: pair mode reports it clean at EC, triple
    /// mode surfaces the observer chain — and the triple verdicts cache.
    const RELAY: &str = "schema MSG { m_id: int key, m_body: string }
         schema FEED { f_id: int key, f_body: string }
         txn post(m: int, body: string) {
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
             return 0;
         }";

    #[test]
    fn triple_mode_extends_pair_mode_and_caches() {
        let p = parse(RELAY).unwrap();
        let ec = ConsistencyLevel::EventualConsistency;
        let engine = DetectionEngine::serial();
        let mut session = DetectSession::new();
        let (pairs_only, _) = engine.detect(&p, ec, &mut session);
        assert!(pairs_only.is_empty(), "pair oracle is blind here: {pairs_only:?}");
        let (with_triples, stats) =
            engine.detect_with_mode(&p, ec, DetectMode::Triples, &mut session);
        assert_eq!(stats.triples, 1, "one unordered triple of 3 txns");
        assert_eq!(with_triples.len(), 1);
        assert_eq!(with_triples[0].kind, AnomalyKind::ObserverChain);
        // Superset: every pair verdict survives in triple mode.
        for p in &pairs_only {
            assert!(with_triples.contains(p));
        }
        // Warm triple pass: the triple verdict replays without a query.
        let (again, warm) = engine.detect_with_mode(&p, ec, DetectMode::Triples, &mut session);
        assert_eq!(again, with_triples);
        assert_eq!(warm.queries, 0);
        assert!(session.cache_stats().triple_hits > 0);
    }

    /// A retained triple state is keyed (and grounded) in the canonical
    /// fingerprint orientation, so a session shared across two programs
    /// that declare the same three transactions in *different order* must
    /// replay the state correctly — not against reshuffled instance spans.
    #[test]
    fn retained_triple_states_survive_transaction_reordering() {
        let forward = parse(RELAY).unwrap();
        // The same three transactions, declared in reverse order.
        let mut reversed = forward.clone();
        reversed.transactions.reverse();
        let engine = DetectionEngine::serial();
        let mut session = DetectSession::new();
        // Prime retained triple state via the forward program at EC…
        let (ec_fwd, _) =
            engine.detect_with_mode(&forward, ConsistencyLevel::EventualConsistency,
                DetectMode::Triples, &mut session);
        // …then query the reversed program at another level: the verdict
        // cache misses (different level) and the retained state is reused.
        let (cc_rev, _) = engine.detect_with_mode(&reversed,
            ConsistencyLevel::CausalConsistency, DetectMode::Triples, &mut session);
        let mut fresh = DetectSession::new();
        let (cc_ref, _) = engine.detect_with_mode(&reversed,
            ConsistencyLevel::CausalConsistency, DetectMode::Triples, &mut fresh);
        assert_eq!(cc_rev, cc_ref);
        // And the reversed program's EC pass replays the forward verdict.
        let before = session.cache_stats();
        let (ec_rev, stats) = engine.detect_with_mode(&reversed,
            ConsistencyLevel::EventualConsistency, DetectMode::Triples, &mut session);
        assert_eq!(ec_rev, ec_fwd);
        assert_eq!(stats.queries, 0, "orientation-normalized entries replay");
        assert!(session.cache_stats().since(&before).triple_hits > 0);
    }

    /// Two programs sharing every transaction shape under different
    /// command labels, detected one after the other on one shared
    /// session: the second is answered entirely from the cache, in its
    /// own labels — exactly what it gets in isolation.
    #[test]
    fn shared_session_answers_in_the_asking_programs_labels() {
        let ec = ConsistencyLevel::EventualConsistency;
        for (src, mode) in [(TWO_TXNS, DetectMode::Pairs), (RELAY, DetectMode::Triples)] {
            let a = parse(&src.replace('@', "@A_")).unwrap();
            let b = parse(&src.replace('@', "@B_")).unwrap();
            let engine = DetectionEngine::serial();
            let mut shared = DetectSession::new();
            engine.detect_with_mode(&a, ec, mode, &mut shared);
            let (got, stats) = engine.detect_with_mode(&b, ec, mode, &mut shared);
            assert_eq!(stats.queries, 0, "{mode}: every shape of b is cached");
            let (isolated, _) = engine.detect_with_mode(&b, ec, mode, &mut DetectSession::new());
            assert!(!isolated.is_empty(), "{mode}: the fixture has anomalies");
            assert_eq!(got, isolated, "{mode}: b answered in a's labels");
            assert!(
                got.iter().all(|p| p.cmd1.0.starts_with("B_") && p.cmd2.0.starts_with("B_")),
                "{mode}: {got:?}"
            );
        }
    }

    #[test]
    fn triple_mode_is_thread_count_invariant_here() {
        let p = parse(RELAY).unwrap();
        for level in ConsistencyLevel::ALL {
            let mut reference: Option<Vec<AccessPair>> = None;
            for threads in [1, 2, 8] {
                let engine = DetectionEngine::new(threads);
                let mut session = DetectSession::new();
                let (got, _) =
                    engine.detect_with_mode(&p, level, DetectMode::Triples, &mut session);
                match &reference {
                    None => reference = Some(got),
                    Some(exp) => assert_eq!(&got, exp, "{threads} threads @ {level}"),
                }
            }
        }
    }
}
