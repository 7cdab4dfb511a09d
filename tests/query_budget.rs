//! Pins the anomaly templates' query budget: how many SAT queries the
//! oracle issues, how many come back satisfiable, and how many the
//! per-item memo answers, on all nine workloads plus the Relay chain
//! scenario. The numbers are a function of the template enumeration order
//! and its first-hit rules alone, so any change to how candidates are
//! enumerated, grouped or skipped shows up here even when the verdicts
//! stay the same.
//!
//! Each row holds `[queries, sat_queries, memo_hits]` for
//! `detect_anomalies_at_levels` over all four levels, then for
//! `detect_anomalies_triples` at EC and at CC.

use atropos::detect::{
    detect_anomalies_at_levels, detect_anomalies_triples, ConsistencyLevel, DetectStats,
};
use atropos::workloads::benchmark;

type Budget = [u64; 3];

const BUDGETS: [(&str, Budget, Budget, Budget); 10] = [
    ("TPC-C", [538, 300, 0], [104, 104, 0], [109, 98, 0]),
    ("SEATS", [98, 63, 0], [21, 21, 0], [21, 21, 0]),
    ("Courseware", [35, 21, 0], [9, 9, 0], [9, 7, 0]),
    ("SmallBank", [338, 196, 0], [94, 94, 0], [102, 74, 0]),
    ("Twitter", [26, 18, 0], [8, 8, 0], [8, 6, 0]),
    ("FMKe", [8, 6, 0], [2, 2, 0], [2, 2, 0]),
    ("SIBench", [4, 3, 0], [1, 1, 0], [1, 1, 0]),
    ("Wikipedia", [28, 18, 0], [6, 6, 0], [6, 6, 0]),
    ("Killrchat", [86, 54, 0], [19, 19, 0], [19, 18, 0]),
    ("Relay", [0, 0, 0], [1, 1, 0], [1, 0, 0]),
];

fn budget(s: &DetectStats) -> Budget {
    [s.queries, s.sat_queries, s.memo_hits]
}

#[test]
fn template_query_budget_is_pinned() {
    let mut mismatches = Vec::new();
    for (name, at_levels, triples_ec, triples_cc) in BUDGETS {
        let program = benchmark(name).expect("registered benchmark").program;
        let (_, stats) = detect_anomalies_at_levels(&program, &ConsistencyLevel::ALL);
        let got = [
            ("pairs, all levels", budget(&stats), at_levels),
            (
                "triples, EC",
                budget(
                    &detect_anomalies_triples(&program, ConsistencyLevel::EventualConsistency).1,
                ),
                triples_ec,
            ),
            (
                "triples, CC",
                budget(&detect_anomalies_triples(&program, ConsistencyLevel::CausalConsistency).1),
                triples_cc,
            ),
        ];
        for (what, got, want) in got {
            if got != want {
                mismatches.push(format!("{name} ({what}): got {got:?}, want {want:?}"));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "query budget drifted:\n{}",
        mismatches.join("\n")
    );
}
