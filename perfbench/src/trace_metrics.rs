//! The per-layer metrics of the traced run, computed from the tracer's
//! spans and counters.
//!
//! Times (`*_ms`) are self time per traced op, averaged over every traced
//! op (`sim.run_ms` is per simulation instead). Counts and ratios are taken
//! over the first round only, which is the same work on every run of a
//! seed, so they repeat exactly. A layer a workload does not run reads 0.

use crate::trace::Tracer;

/// `(name, unit, value)` for every per-layer metric, in `BENCHMARK.json`
/// order.
pub fn layer_metrics(
    tr: &Tracer,
    traced_ops: f64,
    overhead: f64,
) -> Vec<(&'static str, &'static str, f64)> {
    let spans = tr.self_seconds(|_| true);
    let secs = |name: &str| spans.get(name).copied().unwrap_or(0.0);
    let ms = |name: &str| secs(name) * 1e3 / traced_ops.max(1.0);
    let c = |name: &str| tr.counters().get(name).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let proofs_on: f64 = ["engine.pairs_ec", "engine.pairs_cc", "engine.triples_ec"]
        .iter()
        .map(|n| secs(n))
        .sum();
    let fanout_2 = secs("probe.repair_2_workers");
    vec![
        ("dsl.parse_ms", "ms", ms("dsl.parse")),
        ("model.summarize_ms", "ms", ms("model.summarize")),
        ("encode.build_ms", "ms", ms("encode.build")),
        ("encode.base_clauses", "count", c("encode.base_clauses")),
        (
            "encode.clauses_encoded",
            "count",
            c("encode.clauses_encoded"),
        ),
        ("engine.pairs_ec_ms", "ms", ms("engine.pairs_ec")),
        ("engine.pairs_cc_ms", "ms", ms("engine.pairs_cc")),
        ("engine.triples_ec_ms", "ms", ms("engine.triples_ec")),
        ("engine.items_solved", "count", c("engine.items_solved")),
        ("engine.fanout_ratio", "x", ratio(fanout_2, secs("repair"))),
        ("sat.queries", "count", c("sat.queries")),
        (
            "sat.sat_ratio",
            "ratio",
            ratio(c("sat.sat_queries"), c("sat.queries")),
        ),
        ("sat.propagations", "count", c("sat.propagations")),
        ("sat.conflicts", "count", c("sat.conflicts")),
        ("sat.decisions", "count", c("sat.decisions")),
        ("sat.learnt_seeded", "count", c("sat.learnt_seeded")),
        ("proof.certs", "count", c("proof.certs")),
        ("proof.bytes", "bytes", c("proof.bytes")),
        (
            "proof.logging_overhead",
            "x",
            ratio(proofs_on, secs("probe.proofs_off")),
        ),
        ("proof.check_ms", "ms", ms("proof.check")),
        (
            "cache.hit_ratio",
            "ratio",
            ratio(c("cache.hits"), c("cache.lookups")),
        ),
        ("cache.solver_reuses", "count", c("cache.solver_reuses")),
        ("cache.cross_run_hits", "count", c("cache.cross_run_hits")),
        ("repair.total_ms", "ms", ms("repair")),
        ("repair.steps", "count", c("repair.steps")),
        ("repair.detect_passes", "count", c("repair.detect_passes")),
        ("repair.pairs_solved", "count", c("repair.pairs_solved")),
        ("repair.pairs_reused", "count", c("repair.pairs_reused")),
        ("replay.decode_ms", "ms", ms("replay.decode")),
        ("replay.verdicts", "count", c("replay.verdicts")),
        (
            "replay.manifested_ratio",
            "ratio",
            ratio(c("replay.manifested"), c("replay.verdicts")),
        ),
        ("sim.schedule_ms", "ms", ms("sim.schedule")),
        (
            "sim.run_ms",
            "ms",
            ratio(secs("sim.run") * 1e3, c("sim.runs")),
        ),
        ("sim.committed", "count", c("sim.committed")),
        ("corpus.analyse_ms", "ms", ms("corpus.analyse")),
        (
            "corpus.dedup_ratio",
            "ratio",
            ratio(c("corpus.unique_pairs"), c("corpus.pair_slots")),
        ),
        ("corpus.unique_pairs", "count", c("corpus.unique_pairs")),
        ("store.load_ms", "ms", ms("store.load")),
        ("store.merge_ms", "ms", ms("store.merge")),
        ("store.compact_ms", "ms", ms("store.compact")),
        (
            "store.entries",
            "count",
            ratio(c("store.entries"), c("store.ops")),
        ),
        (
            "store.bytes",
            "bytes",
            ratio(c("store.bytes"), c("store.ops")),
        ),
        (
            "store.bytes_written_per_new_entry",
            "bytes",
            ratio(c("store.bytes_written"), c("store.new_entries")),
        ),
        ("trace.overhead_ratio", "x", overhead),
    ]
}
