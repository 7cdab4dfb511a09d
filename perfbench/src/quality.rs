//! The deterministic quality block, computed once per run outside the
//! timed loop: every program is repaired at EC, the anomalies left are
//! summed (`repair_remaining`), and the original program run all
//! serializable (SC) is simulated against the repaired one with only its
//! still-unsafe transactions serializable (AT-SC), on the US cluster with a
//! fixed client count and simulator seed.

use atropos_core::{repair_with_engine, RepairConfig};
use atropos_detect::{ConsistencyLevel, DetectSession, DetectionEngine};
use atropos_sim::{run_simulation, ClusterConfig, RunStats, SimConfig, Workload};
use atropos_workloads::{benchmark, derive_workload, TableSpec};

use crate::programs::PROGRAMS;
use crate::reference::Reference;
use crate::trace::Tracer;

/// Simulated clients (the paper's highest US-cluster load point).
const SIM_CLIENTS: usize = 100;
/// Simulated milliseconds per run.
const SIM_DURATION_MS: f64 = 10_000.0;
/// Simulator seed.
const SIM_SEED: u64 = 0x0A71_2005;

pub struct Quality {
    /// Anomalies left after repair, summed over the programs.
    pub remaining: u64,
    /// Geometric mean over the programs of AT-SC / SC throughput.
    pub tps_gain: f64,
    /// Geometric mean over the programs of AT-SC / SC p99 latency.
    pub p99_ratio: f64,
    /// Programs whose repair left more anomalies than the reference allows.
    pub failures: Vec<String>,
}

fn simulate(tr: &mut Tracer, workload: &Workload) -> RunStats {
    let mut config = SimConfig::new(ClusterConfig::us(), SIM_CLIENTS);
    config.duration_ms = SIM_DURATION_MS;
    config.seed = SIM_SEED;
    let stats = tr.span("sim.run", |_| run_simulation(workload, &config));
    tr.count("sim.runs", 1.0);
    tr.count("sim.committed", stats.committed as f64);
    stats
}

pub fn compute(reference: &Reference, tr: &mut Tracer) -> Result<Quality, String> {
    let engine = DetectionEngine::new(1)
        .with_proofs(false)
        .with_learnt_pool(true);
    let spec = TableSpec::default();
    let mut q = Quality {
        remaining: 0,
        tps_gain: 1.0,
        p99_ratio: 1.0,
        failures: Vec::new(),
    };
    let (mut log_tps, mut log_p99) = (0.0, 0.0);
    for p in &PROGRAMS {
        let program = atropos_dsl::parse(p.text).map_err(|e| format!("{}: {e}", p.name))?;
        let config = RepairConfig {
            level: ConsistencyLevel::EventualConsistency,
            mode: p.repair_mode,
            ..RepairConfig::default()
        };
        let report = tr.span("quality.repair", |_| {
            repair_with_engine(&program, &config, &engine, &mut DetectSession::new())
        });
        let left = report.remaining.len();
        q.remaining += left as u64;
        if left > reference.remaining_max(p.name) {
            q.failures
                .push(format!("{}: {left} anomalies remain", p.name));
        }
        let mix = benchmark(p.registry)
            .ok_or_else(|| format!("{} is not in the workload registry", p.registry))?
            .mix;
        let unsafe_txns: Vec<String> = report.unsafe_transactions().into_iter().collect();
        let sc = simulate(
            tr,
            &derive_workload(&program, &mix, &spec).all_serializable(),
        );
        let at_sc = simulate(
            tr,
            &derive_workload(&report.repaired, &mix, &spec).with_serializable(&unsafe_txns),
        );
        log_tps += (at_sc.throughput_tps / sc.throughput_tps).ln();
        log_p99 += (at_sc.p99_latency_ms / sc.p99_latency_ms).ln();
    }
    let n = PROGRAMS.len() as f64;
    q.tps_gain = (log_tps / n).exp();
    q.p99_ratio = (log_p99 / n).exp();
    Ok(q)
}
