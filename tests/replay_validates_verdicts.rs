//! The witness-replay differential harness — the dynamic half of the
//! oracle's soundness story. For every initial dirty verdict a full
//! engine-driven repair run reports on all nine workloads and the Relay
//! chain scenario, in the default pair mode *and* the bounded
//! three-instance triple mode, at EC and CC:
//!
//! 1. the verdict's satisfying assignment decodes into a concrete schedule
//!    ([`atropos::detect::decode_witness`]) that, executed deterministically
//!    on the simulated cluster, **manifests** the anomaly's observable
//!    predicate against the *original* program — the static witness is not
//!    a solver artifact; and
//! 2. re-decoding the same verdict against the *repaired* program with its
//!    unsafe set marked ([`atropos::detect::decode_witness_marked`])
//!    yields either no schedule at all (the anomaly's shape is gone, or
//!    every participant moved under SC) or one that no longer manifests —
//!    the repair actually **suppresses** the concrete interleaving.
//!
//! SmallBank's triple mode doubles as the regression pin for the
//! orientation bug replay once flushed out: its three `WriteSkewCycle`
//! verdicts carry *two* witnesses each (merged from two canonical trio
//! orientations), and decoding them requires grounding each trio in the
//! orientation the engine used, because the skew enumeration pins the
//! cycle's first role to instance 0. The decoder orients a trio exactly
//! as the engine does (ascending fingerprint, ties by program position).

use atropos::detect::{
    decode_witness_marked, replay_verdict, ConsistencyLevel, DetectMode, DetectSession,
    DetectionEngine,
};
use atropos::repair::{repair_with_engine, RepairConfig};
use atropos::sim::run_schedule;
use atropos::workloads::benchmark;

const LEVELS: [ConsistencyLevel; 2] = [
    ConsistencyLevel::EventualConsistency,
    ConsistencyLevel::CausalConsistency,
];

fn assert_replay_validates(workload: &str, mode: DetectMode) {
    let b = benchmark(workload).expect("registered benchmark");
    let engine = DetectionEngine::new(2);
    for level in LEVELS {
        let config = RepairConfig {
            level,
            mode,
            ..RepairConfig::default()
        };
        let mut session = DetectSession::new();
        let report = repair_with_engine(&b.program, &config, &engine, &mut session);
        let marked = report.unsafe_transactions();
        for verdict in &report.initial {
            // Original program: the witness decodes and manifests.
            let outcome = replay_verdict(&b.program, verdict, level).unwrap_or_else(|| {
                panic!(
                    "{workload} @ {level} ({mode}): {:?} {}~{} decoded to no schedule",
                    verdict.kind, verdict.txn1, verdict.txn2
                )
            });
            assert!(
                outcome.manifested,
                "{workload} @ {level} ({mode}): {:?} {}~{} replayed clean \
                 (violations {:?}, checks {}/{})",
                verdict.kind,
                verdict.txn1,
                verdict.txn2,
                outcome.violations,
                outcome.checks_passed,
                outcome.checks_total
            );
            // Repaired program: the same verdict no longer survives.
            let surviving = decode_witness_marked(&report.repaired, verdict, level, &marked)
                .is_some_and(|s| run_schedule(&s).manifested);
            assert!(
                !surviving,
                "{workload} @ {level} ({mode}): {:?} {}~{} still manifests after repair",
                verdict.kind, verdict.txn1, verdict.txn2
            );
        }
        // The engine-recorded counters agree with the replay we just did.
        let n = report.initial.len() as u64;
        assert_eq!(report.stats.replay_manifested, n, "{workload} @ {level}");
        assert_eq!(report.stats.replay_failed, 0, "{workload} @ {level}");
        assert_eq!(report.stats.replay_surviving, 0, "{workload} @ {level}");
        assert_eq!(
            report.stats.replay_suppressed, n,
            "{workload} @ {level}: every initial verdict counts as suppressed"
        );
    }
}

macro_rules! validates {
    ($($test:ident => ($name:literal, $mode:ident)),+ $(,)?) => {$(
        #[test]
        fn $test() {
            assert_replay_validates($name, DetectMode::$mode);
        }
    )+};
}

// One test per (workload, mode) so the suite parallelizes across test
// threads. Relay's pair-mode run holds vacuously (the pair oracle is blind
// to its observer chain) and pins exactly that blindness.
validates! {
    tpcc_pair_verdicts_replay => ("TPC-C", Pairs),
    tpcc_triple_verdicts_replay => ("TPC-C", Triples),
    courseware_pair_verdicts_replay => ("Courseware", Pairs),
    courseware_triple_verdicts_replay => ("Courseware", Triples),
    smallbank_pair_verdicts_replay => ("SmallBank", Pairs),
    relay_pair_verdicts_replay => ("Relay", Pairs),
    relay_triple_verdicts_replay => ("Relay", Triples),
    seats_pair_verdicts_replay => ("SEATS", Pairs),
    seats_triple_verdicts_replay => ("SEATS", Triples),
    twitter_pair_verdicts_replay => ("Twitter", Pairs),
    twitter_triple_verdicts_replay => ("Twitter", Triples),
    fmke_pair_verdicts_replay => ("FMKe", Pairs),
    fmke_triple_verdicts_replay => ("FMKe", Triples),
    sibench_pair_verdicts_replay => ("SIBench", Pairs),
    sibench_triple_verdicts_replay => ("SIBench", Triples),
    wikipedia_pair_verdicts_replay => ("Wikipedia", Pairs),
    wikipedia_triple_verdicts_replay => ("Wikipedia", Triples),
    killrchat_pair_verdicts_replay => ("Killrchat", Pairs),
    killrchat_triple_verdicts_replay => ("Killrchat", Triples),
}

/// The orientation regression, pinned explicitly: SmallBank's triple mode
/// reports three two-witness `WriteSkewCycle` verdicts whose `txn1` is not
/// the program-order-first transaction of the trio — decoding them only
/// works if the decoder grounds each trio in the engine's canonical
/// orientation.
#[test]
fn smallbank_triple_verdicts_replay_across_rotations() {
    let b = benchmark("SmallBank").expect("registered benchmark");
    let engine = DetectionEngine::new(2);
    let config = RepairConfig {
        mode: DetectMode::Triples,
        ..RepairConfig::default()
    };
    let mut session = DetectSession::new();
    let report = repair_with_engine(&b.program, &config, &engine, &mut session);
    let skews: Vec<_> = report
        .initial
        .iter()
        .filter(|v| v.witnesses.len() == 2)
        .collect();
    assert!(
        !skews.is_empty(),
        "expected merged multi-witness skew verdicts on SmallBank"
    );
    for verdict in &skews {
        let outcome = replay_verdict(&b.program, verdict, config.level)
            .unwrap_or_else(|| panic!("{}~{} decoded to no schedule", verdict.txn1, verdict.txn2));
        assert!(outcome.manifested, "{}~{}", verdict.txn1, verdict.txn2);
    }
    assert_replay_validates("SmallBank", DetectMode::Triples);
}
