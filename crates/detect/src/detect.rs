//! The anomaly oracle `O(P)`: enumerating candidate access pairs and
//! discharging them with the SAT backend.
//!
//! Four violation templates cover the anomalies of §2 (the general FOL
//! condition of §3.2 restricted to the events of a command pair):
//!
//! * **Lost update** — both instances read-modify-write the same record
//!   field and neither sees the other's write;
//! * **Dirty read** — an observer sees one write of a transaction but not a
//!   sibling write (violating strong atomicity);
//! * **Non-repeatable read** — a later read of a transaction observes a
//!   foreign write that an earlier read did not (violating strong
//!   isolation);
//! * **Non-monotonic read** — an earlier read observes a foreign write
//!   that a later read of the same transaction no longer sees (a causal
//!   session violation: the observed state moved backwards).
//!
//! The templates are rows of the crate's one template table (the internal
//! `template` module), beside the chain templates of [`crate::triple`];
//! detection and witness replay walk the same enumeration.
//!
//! Queries are discharged incrementally: one [`PairSolver`] per
//! transaction pair carries the ordering/visibility encoding across every
//! pattern and consistency level, and each query travels as an assumption
//! set. Every production oracle here — [`detect_anomalies`] and its
//! marked, instrumented, multi-level, cached and triple variants — is the
//! [`DetectionEngine`]'s one detection pass at one worker. The only
//! second path is the fresh-solver reference ([`detect_anomalies_fresh`])
//! and the CLOTHO-style differential runner ([`detect_differential`]) that
//! guards the equivalence of the two.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Instant;

use atropos_dsl::{CmdLabel, Program};

use crate::cache::{to_labels, VerdictCache};
use crate::encode::{fresh_query, ConsistencyLevel, InstanceModel, PairSolver, VisRequirement};
use crate::engine::{DetectMode, DetectionEngine};
use crate::model::summarize_program;
use crate::template::{analyse, query};

/// The anomaly template a pair was confirmed under. The discriminant is
/// the stable store tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AnomalyKind {
    /// Conflicting read-modify-writes overwrite each other.
    LostUpdate = 0,
    /// A transaction's sibling writes are observed non-atomically.
    DirtyRead = 1,
    /// A transaction's reads observe foreign commits inconsistently.
    NonRepeatableRead = 2,
    /// A transaction's later read loses sight of a foreign commit an
    /// earlier read observed.
    NonMonotonicRead = 3,
    /// A causality violation relayed through an observer chain: a third
    /// transaction observes a relay's derived write while missing the
    /// origin write the relay itself observed (triple mode only).
    ObserverChain = 4,
    /// A circular write skew over three keys: each transaction's
    /// read-modify-write misses the previous transaction's write, closing
    /// a dependency cycle no pairwise schedule exhibits (triple mode only).
    WriteSkewCycle = 5,
    /// A transaction's sibling writes observed fractured across a relay:
    /// one half reaches the observer through a chain, the other half never
    /// arrives (triple mode only).
    FracturedRead = 6,
}

/// The per-kind facts, indexed by store tag: the kind, its display name
/// and the number of transaction instances its templates span.
const KINDS: [(AnomalyKind, &str, usize); 7] = [
    (AnomalyKind::LostUpdate, "lost-update", 2),
    (AnomalyKind::DirtyRead, "dirty-read", 2),
    (AnomalyKind::NonRepeatableRead, "non-repeatable-read", 2),
    (AnomalyKind::NonMonotonicRead, "non-monotonic-read", 2),
    (AnomalyKind::ObserverChain, "observer-chain", 3),
    (AnomalyKind::WriteSkewCycle, "write-skew-cycle", 3),
    (AnomalyKind::FracturedRead, "fractured-read-chain", 3),
];

// Row `i` of `KINDS` must describe the kind whose store tag is `i`.
const _: () = {
    let mut i = 0;
    while i < KINDS.len() {
        assert!(KINDS[i].0 as usize == i, "KINDS is indexed by store tag");
        i += 1;
    }
};

impl AnomalyKind {
    /// Stable serialization tag (the `verdict_cache.v2` record payload).
    pub(crate) fn tag(self) -> u8 {
        self as u8
    }

    /// Inverse of [`AnomalyKind::tag`].
    pub(crate) fn from_tag(tag: u8) -> Option<AnomalyKind> {
        KINDS.get(usize::from(tag)).map(|k| k.0)
    }

    /// Transaction instances the kind's templates span: 2 for the pair
    /// templates, 3 for the chain templates of
    /// [`crate::DetectMode::Triples`].
    pub fn instances(self) -> usize {
        KINDS[self as usize].2
    }
}

impl std::fmt::Display for AnomalyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(KINDS[*self as usize].1)
    }
}

/// Instrumentation of one detection run: how much SAT work the oracle did
/// and how much encoding the incremental path avoided re-emitting.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DetectStats {
    /// Ordered transaction pairs analysed.
    pub pairs: u64,
    /// Unordered transaction triples analysed (zero outside
    /// [`crate::DetectMode::Triples`] passes).
    pub triples: u64,
    /// Satisfiability queries issued (post-memoization).
    pub queries: u64,
    /// Queries answered SAT (a realizable anomaly witness).
    pub sat_queries: u64,
    /// Queries answered from the per-pair memo without touching a solver.
    pub memo_hits: u64,
    /// Clauses actually encoded into solvers.
    pub clauses_encoded: u64,
    /// Clauses a fresh-solver-per-query strategy would have encoded.
    pub clauses_fresh_equivalent: u64,
    /// Solver conflicts across all queries.
    pub conflicts: u64,
    /// Solver propagations across all queries.
    pub propagations: u64,
    /// Solver decisions across all queries.
    pub decisions: u64,
    /// Learnt clauses seeded into freshly built solvers from the engine's
    /// [`crate::LearntPool`] — lemmas published by an earlier
    /// fingerprint-identical solve and offered to this pass's solvers at
    /// construction (clauses the sibling already holds as root facts are
    /// absorbed for free during import).
    pub learnt_seeded: u64,
    /// Wall-clock seconds spent in detection.
    pub seconds: f64,
}

impl DetectStats {
    /// Adds `other`'s solver work — every counter except the slot counts
    /// (`pairs`, `triples`) and the wall clock.
    pub(crate) fn add_solver_work(&mut self, other: &DetectStats) {
        self.queries += other.queries;
        self.sat_queries += other.sat_queries;
        self.memo_hits += other.memo_hits;
        self.clauses_encoded += other.clauses_encoded;
        self.clauses_fresh_equivalent += other.clauses_fresh_equivalent;
        self.conflicts += other.conflicts;
        self.propagations += other.propagations;
        self.decisions += other.decisions;
        self.learnt_seeded += other.learnt_seeded;
    }

    /// Fraction of the fresh-equivalent clause volume the run did *not*
    /// have to encode thanks to per-pair solver reuse (0 when nothing was
    /// saved, approaching 1 as reuse grows).
    pub fn reused_clause_ratio(&self) -> f64 {
        if self.clauses_fresh_equivalent == 0 {
            return 0.0;
        }
        let saved = self
            .clauses_fresh_equivalent
            .saturating_sub(self.clauses_encoded);
        saved as f64 / self.clauses_fresh_equivalent as f64
    }
}

/// An anomalous access pair χ = (c1, f̄1, c2, f̄2) (§3.2), labelled with the
/// transactions containing the commands and the violation template.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct AccessPair {
    /// First command label.
    pub cmd1: CmdLabel,
    /// Fields of `cmd1` involved in the conflict.
    pub fields1: BTreeSet<String>,
    /// Second command label.
    pub cmd2: CmdLabel,
    /// Fields of `cmd2` involved in the conflict.
    pub fields2: BTreeSet<String>,
    /// Transaction containing `cmd1`.
    pub txn1: String,
    /// Transaction containing `cmd2`.
    pub txn2: String,
    /// The interfering transactions that witness (or produce) the
    /// conflicting events beyond `txn1`/`txn2` — e.g. the readers observing
    /// a dirty write pair. Running the pair under serializability only
    /// helps if these transactions coordinate too.
    pub witnesses: BTreeSet<String>,
    /// Violation template.
    pub kind: AnomalyKind,
}

impl std::fmt::Display for AccessPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "({}, {:?}, {}, {:?}) [{}]",
            self.cmd1, self.fields1, self.cmd2, self.fields2, self.kind
        )
    }
}

/// Detects every anomalous access pair of `program` under `level`.
///
/// # Examples
///
/// ```
/// use atropos_detect::{detect_anomalies, ConsistencyLevel};
///
/// let p = atropos_dsl::parse(
///     "schema T { id: int key, v: int }
///      txn bump(k: int) {
///          x := select v from T where id = k;
///          update T set v = x.v + 1 where id = k;
///          return 0;
///      }",
/// ).unwrap();
/// let ec = detect_anomalies(&p, ConsistencyLevel::EventualConsistency);
/// assert_eq!(ec.len(), 1); // the lost update
/// let sc = detect_anomalies(&p, ConsistencyLevel::Serializable);
/// assert!(sc.is_empty());
/// ```
pub fn detect_anomalies(program: &Program, level: ConsistencyLevel) -> Vec<AccessPair> {
    detect_anomalies_marked(program, level, &BTreeSet::new())
}

/// Like [`detect_anomalies`], but transactions named in `serializable_txns`
/// are analysed under [`ConsistencyLevel::Serializable`] when paired with
/// each other (the AT-SC configuration of §7.2).
pub fn detect_anomalies_marked(
    program: &Program,
    level: ConsistencyLevel,
    serializable_txns: &BTreeSet<String>,
) -> Vec<AccessPair> {
    let (mut by_level, _) = one_shot(program, &[level], DetectMode::Pairs, serializable_txns);
    by_level.remove(&level).unwrap_or_default()
}

/// [`detect_anomalies`] plus the run's [`DetectStats`].
pub fn detect_anomalies_with_stats(
    program: &Program,
    level: ConsistencyLevel,
) -> (Vec<AccessPair>, DetectStats) {
    let (mut by_level, stats) = one_shot(program, &[level], DetectMode::Pairs, &BTreeSet::new());
    (by_level.remove(&level).unwrap_or_default(), stats)
}

/// Detects anomalies under several consistency levels in one pass, sharing
/// each transaction pair's incremental solver across all of them — the
/// cheap way to produce Table 1's EC/CC/RR columns.
pub fn detect_anomalies_at_levels(
    program: &Program,
    levels: &[ConsistencyLevel],
) -> (BTreeMap<ConsistencyLevel, Vec<AccessPair>>, DetectStats) {
    one_shot(program, levels, DetectMode::Pairs, &BTreeSet::new())
}

/// The one-shot oracles: the engine at one worker against a throwaway
/// cache, one pass per level. Retained pair solvers carry each pair's
/// encoding from one level's pass to the next, and `stats.pairs` /
/// `stats.triples` count the program's slots once, not once per level.
fn one_shot(
    program: &Program,
    levels: &[ConsistencyLevel],
    mode: DetectMode,
    serializable_txns: &BTreeSet<String>,
) -> (BTreeMap<ConsistencyLevel, Vec<AccessPair>>, DetectStats) {
    let started = Instant::now();
    let engine = DetectionEngine::serial().with_learnt_pool(false);
    let mut cache = VerdictCache::new();
    let mut stats = DetectStats::default();
    let mut by_level = BTreeMap::new();
    for &level in levels {
        let (verdicts, pass) =
            engine.detect_in(program, level, mode, serializable_txns, &mut cache, &mut Vec::new());
        stats.pairs = pass.pairs;
        stats.triples = pass.triples;
        stats.add_solver_work(&pass);
        by_level.insert(level, verdicts);
    }
    stats.seconds = started.elapsed().as_secs_f64();
    (by_level, stats)
}

/// The reference implementation: identical templates, but every query goes
/// to a freshly constructed solver ([`crate::pattern_satisfiable`]). Slow;
/// kept for differential testing and speedup accounting.
pub fn detect_anomalies_fresh(
    program: &Program,
    level: ConsistencyLevel,
) -> (Vec<AccessPair>, DetectStats) {
    let (mut by_level, stats) = detect_reference(program, &[level], None);
    (by_level.remove(&level).unwrap_or_default(), stats)
}

/// Outcome of a [`detect_differential`] run.
#[derive(Debug, Clone)]
pub struct DifferentialReport {
    /// Anomalies per level (from the agreed verdicts).
    pub by_level: BTreeMap<ConsistencyLevel, Vec<AccessPair>>,
    /// Detection statistics of the paired run.
    pub stats: DetectStats,
    /// Human-readable descriptions of every query where the incremental
    /// and fresh paths disagreed. Empty means the paths are equivalent on
    /// this program.
    pub mismatches: Vec<String>,
}

/// CLOTHO-style differential detection: every query is answered by *both*
/// the incremental [`PairSolver`] and a fresh solver, and any disagreement
/// is recorded. The returned anomalies use the incremental verdicts.
pub fn detect_differential(
    program: &Program,
    levels: &[ConsistencyLevel],
) -> DifferentialReport {
    let mut mismatches = Vec::new();
    let (by_level, stats) = detect_reference(program, levels, Some(&mut mismatches));
    DifferentialReport {
        by_level,
        stats,
        mismatches,
    }
}

/// The serial, uncached reference oracle behind [`detect_anomalies_fresh`]
/// and [`detect_differential`]: every query goes to a fresh solver, and
/// with `mismatches` also to one incremental [`PairSolver`] per pair, any
/// disagreement logged (the incremental verdict is then the one reported).
fn detect_reference(
    program: &Program,
    levels: &[ConsistencyLevel],
    mut mismatches: Option<&mut Vec<String>>,
) -> (BTreeMap<ConsistencyLevel, Vec<AccessPair>>, DetectStats) {
    let started = Instant::now();
    let summaries = summarize_program(program);
    let mut found: BTreeMap<ConsistencyLevel, BTreeMap<(String, String, AnomalyKind), AccessPair>> =
        levels.iter().map(|&l| (l, BTreeMap::new())).collect();
    let mut stats = DetectStats::default();

    for (i, t1) in summaries.iter().enumerate() {
        for (j, t2) in summaries.iter().enumerate() {
            let model = InstanceModel::new(t1, t2);
            stats.pairs += 1;
            // The differential run's incremental solver is shared across
            // every level queried for this pair.
            let mut pair_solver: Option<PairSolver> = None;
            for &level in levels {
                // Memoize SAT calls on their requirement signature.
                let mut memo: HashMap<Vec<VisRequirement>, bool> = HashMap::new();
                let mut sat = |reqs: Vec<VisRequirement>| -> bool {
                    if let Some(&r) = memo.get(&reqs) {
                        stats.memo_hits += 1;
                        return r;
                    }
                    stats.queries += 1;
                    let (fresh, s, clauses) = fresh_query(&model, level, &reqs);
                    let r = match mismatches.as_deref_mut() {
                        Some(log) => {
                            let r = query(
                                &mut pair_solver,
                                &model,
                                level,
                                &reqs,
                                &mut stats,
                                None,
                                false,
                            );
                            if r != fresh {
                                log.push(format!(
                                    "{} × {} @ {level}: reqs {reqs:?}: incremental={r} fresh={fresh}",
                                    t1.name, t2.name
                                ));
                            }
                            r
                        }
                        None => {
                            stats.conflicts += s.conflicts;
                            stats.propagations += s.propagations;
                            stats.decisions += s.decisions;
                            stats.clauses_encoded += clauses as u64;
                            stats.clauses_fresh_equivalent += clauses as u64;
                            fresh
                        }
                    };
                    if r {
                        stats.sat_queries += 1;
                    }
                    memo.insert(reqs, r);
                    r
                };
                let pairs = analyse(&[t1, t2], &[], &model, i <= j, &mut sat);
                let pairs =
                    to_labels(&pairs, &summaries).expect("verdicts name the pair's commands");
                accumulate(found.get_mut(&level).expect("level registered"), pairs);
            }
            if let Some(ps) = &pair_solver {
                let s = ps.solver_stats();
                stats.conflicts += s.conflicts;
                stats.propagations += s.propagations;
                stats.decisions += s.decisions;
                stats.clauses_encoded += ps.encoded_clauses() as u64;
            }
        }
    }
    stats.seconds = started.elapsed().as_secs_f64();
    let by_level = found
        .into_iter()
        .map(|(l, m)| (l, m.into_values().collect()))
        .collect();
    (by_level, stats)
}

/// Folds one work item's verdicts (in the program's labels) into the per-level
/// result map, merging field sets and witnesses of duplicate keys exactly
/// like repeated template hits within one pass would. Merge order is part
/// of the oracle's observable behaviour (the first entry of a key provides
/// its base orientation), so the engine replays this fold in the serial
/// slot order regardless of which worker finished first.
pub(crate) fn accumulate(
    per_level: &mut BTreeMap<(String, String, AnomalyKind), AccessPair>,
    pairs: Vec<AccessPair>,
) {
    for p in pairs {
        per_level
            .entry(pair_key(&p))
            .and_modify(|e| {
                e.fields1.extend(p.fields1.iter().cloned());
                e.fields2.extend(p.fields2.iter().cloned());
                e.witnesses.extend(p.witnesses.iter().cloned());
            })
            .or_insert(p);
    }
}

/// Detects every anomalous access pair of `program` under `level`,
/// answering untouched transaction pairs from `cache` (and refreshing it
/// with everything analysed) — the oracle the near-incremental repair
/// driver calls after each refactoring step, here on one worker; the
/// [`crate::DetectionEngine`] runs the same pass with the dirty pairs
/// fanned out over a worker pool.
///
/// Equivalent to [`detect_anomalies`] on every input (the
/// `repair_incremental_vs_scratch` differential suite pins this on all nine
/// workloads); the only difference is how much work is re-done. A pair is
/// answered from the cache when both transactions' [`txn_fingerprint`]s
/// match a previous analysis at this level; otherwise the pair is analysed
/// with its retained [`PairSolver`] if its fingerprints survived (e.g. the
/// verdict entry was evicted or another level is being queried), or from
/// scratch if not.
///
/// [`txn_fingerprint`]: crate::txn_fingerprint
pub fn detect_anomalies_cached(
    program: &Program,
    level: ConsistencyLevel,
    cache: &mut VerdictCache,
) -> (Vec<AccessPair>, DetectStats) {
    DetectionEngine::serial().with_learnt_pool(false).detect_in(
        program,
        level,
        DetectMode::Pairs,
        &BTreeSet::new(),
        cache,
        &mut Vec::new(),
    )
}

/// Detects every anomaly of `program` under `level` in the bounded
/// **three-instance** mode ([`crate::DetectMode::Triples`]): the pair
/// oracle's verdicts plus the chain templates of [`crate::triple`]. The
/// result is a superset of [`detect_anomalies`] by construction.
///
/// # Examples
///
/// ```
/// use atropos_detect::{detect_anomalies, detect_anomalies_triples, ConsistencyLevel};
///
/// // A 3-hop relay: post → relay → timeline. Pairwise clean, yet the
/// // observer chain is realizable under eventual consistency.
/// let p = atropos_dsl::parse(
///     "schema MSG { m_id: int key, m_body: string }
///      schema FEED { f_id: int key, f_body: string }
///      txn post(m: int, body: string) {
///          update MSG set m_body = body where m_id = m;
///          return 0;
///      }
///      txn relay(m: int, f: int) {
///          x := select m_body from MSG where m_id = m;
///          update FEED set f_body = x.m_body where f_id = f;
///          return 0;
///      }
///      txn timeline(f: int, m: int) {
///          y := select f_body from FEED where f_id = f;
///          z := select m_body from MSG where m_id = m;
///          return 0;
///      }",
/// ).unwrap();
/// let ec = ConsistencyLevel::EventualConsistency;
/// assert!(detect_anomalies(&p, ec).is_empty());
/// let (triples, _) = detect_anomalies_triples(&p, ec);
/// assert_eq!(triples.len(), 1); // the relayed causality violation
/// ```
pub fn detect_anomalies_triples(
    program: &Program,
    level: ConsistencyLevel,
) -> (Vec<AccessPair>, DetectStats) {
    let (mut by_level, stats) = one_shot(program, &[level], DetectMode::Triples, &BTreeSet::new());
    (by_level.remove(&level).unwrap_or_default(), stats)
}

/// Canonical dedup key of one verdict: labels in sorted order plus the
/// template. The replay pipeline ([`crate::replay`]) anchors its targeted
/// witness searches on this key, so it must stay in lock-step with
/// [`accumulate`]'s merging.
pub(crate) fn pair_key(p: &AccessPair) -> (String, String, AnomalyKind) {
    let (a, b) = if p.cmd1.0 <= p.cmd2.0 {
        (p.cmd1.0.clone(), p.cmd2.0.clone())
    } else {
        (p.cmd2.0.clone(), p.cmd1.0.clone())
    };
    (a, b, p.kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atropos_dsl::parse;

    /// The course-management program of Fig. 1.
    pub(crate) const COURSEWARE: &str = r#"
        schema STUDENT { st_id: int key, st_name: string, st_em_id: int, st_co_id: int, st_reg: bool }
        schema COURSE  { co_id: int key, co_avail: bool, co_st_cnt: int }
        schema EMAIL   { em_id: int key, em_addr: string }

        txn getSt(id: int) {
            @S1 x := select * from STUDENT where st_id = id;
            @S2 y := select em_addr from EMAIL where em_id = x.st_em_id;
            @S3 z := select co_avail from COURSE where co_id = x.st_co_id;
            return 0;
        }
        txn setSt(id: int, name: string, email: string) {
            @S4 x := select st_em_id from STUDENT where st_id = id;
            @U1 update STUDENT set st_name = name where st_id = id;
            @U2 update EMAIL set em_addr = email where em_id = x.st_em_id;
            return 0;
        }
        txn regSt(id: int, course: int) {
            @U3 update STUDENT set st_co_id = course, st_reg = true where st_id = id;
            @S5 x := select co_st_cnt from COURSE where co_id = course;
            @U4 update COURSE set co_st_cnt = x.co_st_cnt + 1, co_avail = true where co_id = course;
            return 0;
        }
    "#;

    fn labels(pairs: &[AccessPair]) -> BTreeSet<(String, String)> {
        pairs
            .iter()
            .map(|p| (p.cmd1.0.clone(), p.cmd2.0.clone()))
            .collect()
    }

    #[test]
    fn courseware_anomalies_match_paper_examples() {
        let p = parse(COURSEWARE).unwrap();
        let pairs = detect_anomalies(&p, ConsistencyLevel::EventualConsistency);
        let ls = labels(&pairs);
        // χ1: (U3, U4) dirty read; χ2: (S5, U4) lost update;
        // the non-repeatable read pairs (S1, S2) and (U1, U2).
        assert!(ls.contains(&("U3".into(), "U4".into())), "{ls:?}");
        assert!(ls.contains(&("S5".into(), "U4".into())), "{ls:?}");
        assert!(ls.contains(&("S1".into(), "S2".into())), "{ls:?}");
        assert!(ls.contains(&("U1".into(), "U2".into())), "{ls:?}");
    }

    #[test]
    fn serializable_level_has_no_anomalies() {
        let p = parse(COURSEWARE).unwrap();
        assert!(detect_anomalies(&p, ConsistencyLevel::Serializable).is_empty());
    }

    /// A transaction reading the same record twice while another updates
    /// it: the observed state can move backwards under EC (non-monotonic
    /// read), which the causal session axioms and read stability forbid —
    /// so CC and RR must count strictly fewer anomalies than EC.
    const DOUBLE_READ: &str = "schema T { id: int key, v: int, w: int }
         txn audit(k: int) {
             @R1 x := select v from T where id = k;
             @R2 y := select v, w from T where id = k;
             return x.v + y.v;
         }
         txn bump(k: int) {
             @B1 x := select v from T where id = k;
             @B2 update T set v = x.v + 1 where id = k;
             return 0;
         }";

    #[test]
    fn cc_strictly_prunes_ec_on_double_reads() {
        let p = parse(DOUBLE_READ).unwrap();
        let ec = detect_anomalies(&p, ConsistencyLevel::EventualConsistency);
        let cc = detect_anomalies(&p, ConsistencyLevel::CausalConsistency);
        let rr = detect_anomalies(&p, ConsistencyLevel::RepeatableRead);
        assert!(
            ec.iter().any(|a| a.kind == AnomalyKind::NonMonotonicRead),
            "EC must witness the non-monotonic read: {ec:?}"
        );
        assert!(
            cc.iter().all(|a| a.kind != AnomalyKind::NonMonotonicRead),
            "causal sessions forbid non-monotonic reads: {cc:?}"
        );
        assert!(cc.len() < ec.len(), "CC {} !< EC {}", cc.len(), ec.len());
        assert!(rr.len() < ec.len(), "RR {} !< EC {}", rr.len(), ec.len());
    }

    #[test]
    fn stronger_levels_are_monotone_on_courseware() {
        let p = parse(COURSEWARE).unwrap();
        let ec = detect_anomalies(&p, ConsistencyLevel::EventualConsistency).len();
        let cc = detect_anomalies(&p, ConsistencyLevel::CausalConsistency).len();
        let rr = detect_anomalies(&p, ConsistencyLevel::RepeatableRead).len();
        assert!(cc <= ec && rr <= ec);
    }

    #[test]
    fn multi_level_pass_matches_single_level_runs() {
        let p = parse(COURSEWARE).unwrap();
        let (by_level, stats) = detect_anomalies_at_levels(&p, &ConsistencyLevel::ALL);
        for level in ConsistencyLevel::ALL {
            assert_eq!(
                by_level[&level],
                detect_anomalies(&p, level),
                "shared-solver pass diverged at {level}"
            );
        }
        assert!(stats.queries > 0);
        assert!(
            stats.reused_clause_ratio() > 0.5,
            "per-pair reuse should dominate: {stats:?}"
        );
    }

    #[test]
    fn differential_paths_agree_on_courseware() {
        let p = parse(COURSEWARE).unwrap();
        let report = detect_differential(&p, &ConsistencyLevel::ALL);
        assert!(
            report.mismatches.is_empty(),
            "incremental vs fresh mismatches: {:?}",
            report.mismatches
        );
        let (fresh_ec, _) = detect_anomalies_fresh(&p, ConsistencyLevel::EventualConsistency);
        assert_eq!(
            report.by_level[&ConsistencyLevel::EventualConsistency],
            fresh_ec
        );
    }

    #[test]
    fn cached_detection_matches_plain_and_reuses_across_edits() {
        let p = parse(COURSEWARE).unwrap();
        let ec = ConsistencyLevel::EventualConsistency;
        let mut cache = VerdictCache::new();
        let (first, _) = detect_anomalies_cached(&p, ec, &mut cache);
        assert_eq!(first, detect_anomalies(&p, ec));
        assert_eq!(cache.stats().hits, 0);

        // Same program again: all 9 ordered pairs answered from the cache,
        // not a single SAT query issued.
        let (second, s2) = detect_anomalies_cached(&p, ec, &mut cache);
        assert_eq!(second, first);
        assert_eq!(s2.queries, 0);
        assert_eq!(cache.stats().hits, 9);

        // Another level misses the verdict cache but reuses the retained
        // pair solvers (no re-grounding, no base re-encoding).
        let (cc, _) = detect_anomalies_cached(&p, ConsistencyLevel::CausalConsistency, &mut cache);
        assert_eq!(cc, detect_anomalies(&p, ConsistencyLevel::CausalConsistency));
        assert!(cache.stats().solver_reuses > 0, "{:?}", cache.stats());

        // Editing one transaction re-solves only the pairs that touch it:
        // 4 of the 9 ordered pairs (setSt × regSt combinations) still hit.
        let edited = parse(&COURSEWARE.replace(
            "@S3 z := select co_avail from COURSE where co_id = x.st_co_id;",
            "",
        ))
        .unwrap();
        let before = cache.stats();
        let (after_edit, _) = detect_anomalies_cached(&edited, ec, &mut cache);
        assert_eq!(after_edit, detect_anomalies(&edited, ec));
        let delta_hits = cache.stats().hits - before.hits;
        let delta_misses = cache.stats().misses - before.misses;
        assert_eq!(delta_hits, 4, "{:?}", cache.stats());
        assert_eq!(delta_misses, 5, "{:?}", cache.stats());
    }

    #[test]
    fn refactored_courseware_is_anomaly_free() {
        // The Fig. 3 refactoring: one wide STUDENT row + an insert-only log.
        let src = r#"
            schema STUDENT { st_id: int key, st_name: string, st_em_addr: string,
                             st_co_id: int, st_co_avail: bool, st_reg: bool }
            schema COURSE_LOG { co_id: int key, log_id: uuid key, cnt: int }
            txn getSt(id: int) {
                @RS1 x := select * from STUDENT where st_id = id;
                return 0;
            }
            txn setSt(id: int, name: string, email: string) {
                @RU1 update STUDENT set st_name = name, st_em_addr = email where st_id = id;
                return 0;
            }
            txn regSt(id: int, course: int) {
                @RU3 update STUDENT set st_co_id = course, st_co_avail = true, st_reg = true
                     where st_id = id;
                @RU4 insert into COURSE_LOG values (co_id = course, log_id = uuid(), cnt = 1);
                return 0;
            }
        "#;
        let p = parse(src).unwrap();
        let pairs = detect_anomalies(&p, ConsistencyLevel::EventualConsistency);
        assert!(pairs.is_empty(), "expected no anomalies, got {pairs:?}");
    }

    #[test]
    fn marking_transactions_serializable_suppresses_their_pairs() {
        let p = parse(
            "schema T { id: int key, v: int }
             txn bump(k: int) {
                 x := select v from T where id = k;
                 update T set v = x.v + 1 where id = k;
                 return 0;
             }",
        )
        .unwrap();
        let all: BTreeSet<String> = BTreeSet::from(["bump".to_owned()]);
        let pairs = detect_anomalies_marked(&p, ConsistencyLevel::EventualConsistency, &all);
        assert!(pairs.is_empty());
        let none = detect_anomalies(&p, ConsistencyLevel::EventualConsistency);
        assert_eq!(none.len(), 1);
        assert_eq!(none[0].kind, AnomalyKind::LostUpdate);
    }

    #[test]
    fn disjoint_constant_keys_do_not_conflict() {
        let p = parse(
            "schema T { id: int key, v: int }
             txn a() {
                 x := select v from T where id = 1;
                 update T set v = x.v + 1 where id = 1;
                 return 0;
             }
             txn b() {
                 y := select v from T where id = 2;
                 update T set v = y.v + 1 where id = 2;
                 return 0;
             }",
        )
        .unwrap();
        let pairs = detect_anomalies(&p, ConsistencyLevel::EventualConsistency);
        // a×a and b×b lose updates, but a×b never conflicts.
        for pr in &pairs {
            assert_eq!(pr.txn1, pr.txn2);
        }
    }

    #[test]
    fn single_atomic_update_observed_by_single_read_is_safe() {
        let p = parse(
            "schema T { id: int key, a: int, b: int }
             txn w(k: int) { update T set a = 1, b = 2 where id = k; return 0; }
             txn r(k: int) { x := select a, b from T where id = k; return x.a; }",
        )
        .unwrap();
        let pairs = detect_anomalies(&p, ConsistencyLevel::EventualConsistency);
        assert!(pairs.is_empty(), "row-level atomicity protects {pairs:?}");
    }

    #[test]
    fn two_updates_same_record_are_dirty() {
        let p = parse(
            "schema T { id: int key, a: int, b: int }
             txn w(k: int) {
                 @W1 update T set a = 1 where id = k;
                 @W2 update T set b = 2 where id = k;
                 return 0;
             }
             txn r(k: int) { @R x := select a, b from T where id = k; return x.a; }",
        )
        .unwrap();
        let pairs = detect_anomalies(&p, ConsistencyLevel::EventualConsistency);
        assert!(pairs
            .iter()
            .any(|p| p.kind == AnomalyKind::DirtyRead && p.cmd1.0 == "W1" && p.cmd2.0 == "W2"));
    }
}
