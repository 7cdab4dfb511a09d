//! `repair-loop`: one op parses one program and repairs it at EC to
//! completion with a fresh engine and session, including its own
//! witness replay. Rewriting, cache reuse across many small dirty
//! re-detections and replay dominate, the opposite shape to
//! `detect-cold`'s large cold passes.

use std::time::Instant;

use atropos_core::{repair_with_engine, RepairConfig, RepairReport};
use atropos_detect::{
    decode_witness, decode_witness_marked, ConsistencyLevel, DetectMode, DetectSession,
    DetectionEngine,
};
use atropos_dsl::Program;

use crate::harness::{OpOutcome, Workload};
use crate::programs::{digest, BenchProgram, Rounds, PROGRAMS};
use crate::reference::{repair_pass, Reference};
use crate::trace::Tracer;

const LEVEL: ConsistencyLevel = ConsistencyLevel::EventualConsistency;

/// Pinned engine: one worker, proofs off, learnt pool on. Two workers (the
/// machine's cores) made the small and mid-size programs slower and their
/// latency twice as noisy between runs on a shared 2-vCPU host: a repair
/// runs many short passes, and each fan-out waits on the other vCPU. The
/// fan-out's cost is reported by a traced-only probe instead.
fn engine(workers: usize) -> DetectionEngine {
    DetectionEngine::new(workers)
        .with_proofs(false)
        .with_learnt_pool(true)
}

fn repair(program: &Program, p: &BenchProgram, workers: usize) -> RepairReport {
    let config = RepairConfig {
        level: LEVEL,
        mode: p.repair_mode,
        ..RepairConfig::default()
    };
    repair_with_engine(
        program,
        &config,
        &engine(workers),
        &mut DetectSession::new(),
    )
}

pub struct RepairLoop {
    seed: u64,
    rounds: Rounds,
    reference: Reference,
}

impl RepairLoop {
    pub fn new(seed: u64) -> Result<RepairLoop, String> {
        Ok(RepairLoop {
            seed,
            rounds: Rounds::new(seed),
            reference: Reference::load()?,
        })
    }
}

impl Workload for RepairLoop {
    fn round(&self) -> u64 {
        PROGRAMS.len() as u64
    }

    fn setup(&mut self) -> Result<(), String> {
        // Fresh op order, then one untimed warm-up repair of every program.
        self.rounds = Rounds::new(self.seed);
        self.reference = Reference::load()?;
        for p in &PROGRAMS {
            let program = atropos_dsl::parse(p.text).map_err(|e| format!("{}: {e}", p.name))?;
            repair(&program, p, 1);
        }
        Ok(())
    }

    fn op(&mut self, _k: u64, tr: &mut Tracer) -> OpOutcome {
        let p = &PROGRAMS[self.rounds.next_program()];
        let started = Instant::now();
        let outcome = tr.span("op", |tr| {
            let program = tr.span("dsl.parse", |_| atropos_dsl::parse(p.text));
            program.map(|program| {
                let report = tr.span("repair", |_| repair(&program, p, 1));
                (program, report)
            })
        });
        let latency = started.elapsed().as_secs_f64();
        let mut failures = Vec::new();
        match outcome {
            Err(e) => failures.push(format!("parse: {e}")),
            Ok((program, report)) => {
                let pass = repair_pass(p.repair_mode);
                let got = digest(&report.initial);
                if got != self.reference.verdicts(p.name, pass) {
                    failures.push(format!(
                        "initial verdicts {got:?} differ from {pass} reference"
                    ));
                }
                let max = self.reference.remaining_max(p.name);
                if report.remaining.len() > max {
                    failures.push(format!(
                        "{} anomalies remain, bound {max}",
                        report.remaining.len()
                    ));
                }
                if report.stats.replay_failed != 0 || report.stats.replay_surviving != 0 {
                    failures.push(format!(
                        "replay: {} failed, {} surviving",
                        report.stats.replay_failed, report.stats.replay_surviving
                    ));
                }
                if tr.enabled() {
                    count_op(tr, p, &report);
                    probe_layers(tr, p, &program, &report);
                }
            }
        }
        OpOutcome {
            latency,
            programs: 1,
            failures,
            label: p.name,
        }
    }
}

fn count_op(tr: &mut Tracer, p: &BenchProgram, report: &RepairReport) {
    let stats = &report.stats;
    let detect_span = match p.repair_mode {
        DetectMode::Pairs => "engine.pairs_ec",
        DetectMode::Triples => "engine.triples_ec",
    };
    tr.report_seconds(detect_span, stats.detect_seconds());
    tr.count("repair.steps", report.steps.len() as f64);
    tr.count("repair.detect_passes", stats.detections as f64);
    tr.count("repair.pairs_solved", stats.pairs_solved() as f64);
    tr.count("repair.pairs_reused", stats.pairs_reused() as f64);
    tr.count("engine.items_solved", stats.pairs_solved() as f64);
    tr.count(
        "sat.queries",
        stats.iterations.iter().map(|i| i.queries).sum::<u64>() as f64,
    );
    tr.count("cache.lookups", stats.cache.lookups as f64);
    tr.count("cache.hits", stats.cache.hits as f64);
    tr.count("cache.solver_reuses", stats.cache.solver_reuses as f64);
    tr.count("cache.cross_run_hits", stats.cache.cross_run_hits as f64);
    tr.count("replay.verdicts", report.initial.len() as f64);
    tr.count("replay.manifested", stats.replay_manifested as f64);
}

/// Traced-only probes, after the timed section: the repair's witness
/// replay repeated call by call (so decode and schedule time show apart
/// from the rest of the repair), and the same repair on two workers (the
/// cost of the engine's fan-out).
fn probe_layers(tr: &mut Tracer, p: &BenchProgram, program: &Program, report: &RepairReport) {
    let marked = report.unsafe_transactions();
    for verdict in &report.initial {
        if let Some(s) = tr.span("replay.decode", |_| decode_witness(program, verdict, LEVEL)) {
            tr.span("sim.schedule", |_| atropos_sim::run_schedule(&s));
        }
        let survivor = tr.span("replay.decode", |_| {
            decode_witness_marked(&report.repaired, verdict, LEVEL, &marked)
        });
        if let Some(s) = survivor {
            tr.span("sim.schedule", |_| atropos_sim::run_schedule(&s));
        }
    }
    tr.span("probe.repair_2_workers", |_| repair(program, p, 2));
}
