//! Corpus-service differential: over **all nine workloads plus Relay**,
//! the per-program verdicts `CorpusService` answers from one global
//! fingerprint-deduped plan must be byte-identical to running each
//! program through an isolated per-program detection — in pair mode and
//! triple mode, at 1, 2, and 8 engine threads. The batch service is an
//! optimization (solve each unique transaction shape once across the
//! fleet), never a different oracle; this suite pins that contract.

use atropos::detect::{
    analyse_corpus, ConsistencyLevel, DetectMode, DetectSession, DetectionEngine,
};
use atropos::workloads::{all_benchmarks, chain_scenarios};
use atropos_dsl::Program;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// The full corpus: Table 1's nine workloads plus the Relay chain
/// scenario, in registry order.
fn corpus() -> Vec<(String, Program)> {
    all_benchmarks()
        .into_iter()
        .chain(chain_scenarios())
        .map(|b| (b.name.to_string(), b.program))
        .collect()
}

/// One isolated reference run per program: a fresh session each, so no
/// verdict can leak between programs.
fn isolated(
    programs: &[(String, Program)],
    level: ConsistencyLevel,
    mode: DetectMode,
    threads: usize,
) -> Vec<String> {
    let engine = DetectionEngine::new(threads);
    programs
        .iter()
        .map(|(_, p)| {
            let mut session = DetectSession::new();
            let (verdicts, _) = engine.detect_with_mode(p, level, mode, &mut session);
            format!("{verdicts:?}")
        })
        .collect()
}

fn assert_corpus_matches_isolation(level: ConsistencyLevel, mode: DetectMode) {
    let programs = corpus();
    let mut reference: Option<Vec<String>> = None;
    for threads in THREAD_COUNTS {
        let engine = DetectionEngine::new(threads);
        let mut session = DetectSession::new();
        let (verdicts, stats) = analyse_corpus(&engine, &programs, level, mode, &mut session);
        assert_eq!(verdicts.len(), programs.len());
        assert!(
            stats.unique_pairs <= stats.pair_slots,
            "dedup can only shrink the plan: {stats:?}"
        );
        let rendered: Vec<String> = verdicts
            .iter()
            .map(|v| format!("{:?}", v.verdicts))
            .collect();

        // Corpus ≡ isolation, program by program, at this thread count.
        let iso = isolated(&programs, level, mode, threads);
        for ((name, _), (got, want)) in programs.iter().zip(rendered.iter().zip(&iso)) {
            assert_eq!(got, want, "{name} at {threads} threads ({level:?}, {mode:?})");
        }
        // Every per-program answer replays from the global store.
        for v in &verdicts {
            assert_eq!(
                v.stats.queries, 0,
                "{}: answering pass must be all hits",
                v.name
            );
        }
        // And thread count never changes the corpus result.
        match &reference {
            None => reference = Some(rendered),
            Some(r) => assert_eq!(r, &rendered, "{threads} threads diverged"),
        }
    }
}

#[test]
fn corpus_matches_isolation_pairs_ec() {
    assert_corpus_matches_isolation(
        ConsistencyLevel::EventualConsistency,
        DetectMode::Pairs,
    );
}

#[test]
fn corpus_matches_isolation_pairs_cc() {
    assert_corpus_matches_isolation(ConsistencyLevel::CausalConsistency, DetectMode::Pairs);
}

#[test]
fn corpus_matches_isolation_triples_ec() {
    assert_corpus_matches_isolation(
        ConsistencyLevel::EventualConsistency,
        DetectMode::Triples,
    );
}

/// A duplicated corpus (every program four times) must answer every copy
/// identically while solving no more unique keys than the deduplicated
/// corpus — the fleet-scale speedup is exactly this collapse.
#[test]
fn duplicated_corpus_dedups_and_answers_all_copies() {
    let base = corpus();
    let ec = ConsistencyLevel::EventualConsistency;
    let engine = DetectionEngine::new(2);

    let mut session = DetectSession::new();
    let (_, base_stats) = analyse_corpus(&engine, &base, ec, DetectMode::Pairs, &mut session);

    let dup: Vec<(String, Program)> = (0..4)
        .flat_map(|i| {
            base.iter()
                .map(move |(n, p)| (format!("{n}#{i}"), p.clone()))
        })
        .collect();
    let mut dup_session = DetectSession::new();
    let (verdicts, dup_stats) =
        analyse_corpus(&engine, &dup, ec, DetectMode::Pairs, &mut dup_session);

    assert_eq!(dup_stats.pair_slots, 4 * base_stats.pair_slots);
    assert_eq!(
        dup_stats.unique_pairs, base_stats.unique_pairs,
        "duplicates add no solver work"
    );
    for (i, v) in verdicts.iter().enumerate() {
        let twin = &verdicts[i % base.len()];
        assert_eq!(
            format!("{:?}", v.verdicts),
            format!("{:?}", twin.verdicts),
            "{} must answer like {}",
            v.name,
            twin.name
        );
    }
}

/// The label-leak regression: a corpus whose programs share every
/// transaction shape but not their command labels — each workload beside
/// a copy relabelled `B_…` — must answer every program in its own labels,
/// exactly as isolation does. Fingerprints are label-blind, so the copies
/// hit the originals' cache entries; a cache that stored labels would
/// hand the copies the originals' labels.
#[test]
fn relabelled_copies_answer_in_their_own_labels() {
    let base = corpus();
    let relabelled: Vec<(String, Program)> = base
        .iter()
        .map(|(name, p)| {
            let text = atropos_dsl::print_program(p).replace('@', "@B_");
            let copy = atropos_dsl::parse(&text).expect("relabelled copy parses");
            (format!("{name}/B"), copy)
        })
        .collect();
    let programs: Vec<(String, Program)> = base.into_iter().chain(relabelled).collect();
    let ec = ConsistencyLevel::EventualConsistency;
    for mode in [DetectMode::Pairs, DetectMode::Triples] {
        let engine = DetectionEngine::new(2);
        let mut session = DetectSession::new();
        let (verdicts, _) = analyse_corpus(&engine, &programs, ec, mode, &mut session);
        let iso = isolated(&programs, ec, mode, 2);
        for ((name, _), (got, want)) in programs.iter().zip(verdicts.iter().zip(&iso)) {
            assert_eq!(&format!("{:?}", got.verdicts), want, "{name} ({mode:?})");
        }
    }
}
