//! # atropos-detect
//!
//! Static serializability-anomaly detection for database programs, the
//! oracle `O(P)` of the repair algorithm (§5–§6 of the paper).
//!
//! The paper reduces anomaly detection to the satisfiability of an FOL
//! formula over transactional dependencies, visibility, and global
//! timestamps, discharged with Z3. This crate grounds the same queries over
//! a bounded two-instance execution skeleton (three instances in
//! [`DetectMode::Triples`]) and decides them with the workspace's own CDCL
//! solver (`atropos-sat`):
//!
//! * [`model`] — static command summaries (read/write sets, key specs);
//! * [`encode`] — witness records, atoms, and the CNF encoding of `ord`,
//!   `vis`, and the per-level axioms (EC / CC / RR / SC), shared by the
//!   fresh reference path ([`pattern_satisfiable`]) and the incremental
//!   [`PairSolver`] (one solver per transaction pair or triple, level
//!   axioms as activation-literal-guarded groups, queries via
//!   assumptions);
//! * [`detect`] — the four pair violation templates, the public oracle
//!   [`detect_anomalies`] (plus multi-level, instrumented, marked, cached
//!   and triple variants — all the engine's one pass at one worker), the
//!   fresh-solver reference and differential runners, and [`DetectStats`];
//! * [`triple`] — the bounded three-instance mode and its three chain
//!   templates. All seven templates are rows of one internal table: each
//!   candidate is data (kind, bound commands, requirement vectors,
//!   first-hit group) from one lazy enumerator, which one solve routine
//!   walks for pairs and triples alike and witness replay walks filtered
//!   by a verdict's anchor;
//! * [`cache`] — transaction fingerprinting and the [`VerdictCache`]:
//!   verdicts keyed by fingerprint and stored by command position, so any
//!   program sharing a transaction shape reads them back in its own
//!   labels;
//! * [`engine`] — the [`DetectionEngine`] and its one plan → solve →
//!   merge pass over a slice of programs: a single program is a corpus of
//!   one; dirty pairs and triples are solved on a scoped-thread worker
//!   pool and merged deterministically. The caller owns its
//!   configuration (builders; `ATROPOS_THREADS` only through
//!   [`DetectionEngine::from_env`]);
//! * [`session`] — the [`DetectSession`]: a verdict cache with a session
//!   lifetime, shared across repair runs so common transaction shapes hit
//!   warm verdicts (cross-run counters in [`CacheStats`]);
//! * [`corpus`] — fleet scale: the sharded `verdict_cache.v2` store, the
//!   one on-disk format (per-shard advisory locks, checksummed record
//!   logs, union merge, compaction/eviction), and [`analyse_corpus`] /
//!   the [`CorpusService`], the engine's pass over a whole directory of
//!   programs;
//! * [`replay`] — witness replay: the satisfying assignment behind a dirty
//!   verdict is decoded ([`decode_witness`]) into a concrete
//!   [`atropos_sim::ConcreteSchedule`] and executed deterministically on
//!   the simulated cluster, proving the anomaly observable (and, after
//!   repair, suppressed).
//!
//! # Examples
//!
//! ```
//! use atropos_detect::{detect_anomalies, ConsistencyLevel};
//!
//! let program = atropos_dsl::parse(
//!     "schema ACC { id: int key, bal: int }
//!      txn deposit(a: int, amt: int) {
//!          x := select bal from ACC where id = a;
//!          update ACC set bal = x.bal + amt where id = a;
//!          return 0;
//!      }",
//! ).unwrap();
//! let anomalies = detect_anomalies(&program, ConsistencyLevel::EventualConsistency);
//! assert_eq!(anomalies.len(), 1); // concurrent deposits can lose updates
//! ```

#![warn(missing_docs)]

pub mod cache;
pub(crate) mod certify;
pub mod corpus;
pub mod detect;
pub mod encode;
pub mod engine;
pub mod model;
pub mod replay;
pub mod session;
pub(crate) mod template;
pub mod triple;

pub use cache::{
    cmd_fingerprint, txn_fingerprint, CacheStats, LearntPool, VerdictAudit, VerdictCache,
};
pub use corpus::{
    analyse_corpus, CompactionReport, CorpusReport, CorpusService, CorpusStats, CorpusStore,
    CorpusVerdict, EvictionPolicy,
};
pub use engine::{DetectMode, DetectionEngine, WorkerStats};
pub use session::DetectSession;
pub use detect::{
    detect_anomalies, detect_anomalies_at_levels, detect_anomalies_cached,
    detect_anomalies_fresh, detect_anomalies_marked, detect_anomalies_triples,
    detect_anomalies_with_stats, detect_differential, AccessPair, AnomalyKind, DetectStats,
    DifferentialReport,
};
pub use encode::{pattern_satisfiable, ConsistencyLevel, InstanceModel, PairSolver, WitnessTruth};
pub use replay::{decode_witness, decode_witness_marked, replay_verdict};
pub use model::{summarize_program, summarize_txn, CmdKind, CmdSummary, KeySpec, TxnSummary};
pub use triple::{TripleModel, TripleSolver};

/// A per-process scratch path for unit tests that touch the file system,
/// under the workspace's `target/` directory.
#[cfg(test)]
pub(crate) fn test_scratch(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/test-scratch");
    std::fs::create_dir_all(&dir).expect("create the test scratch directory");
    dir.join(format!("{name}_{}", std::process::id()))
}
