//! `detect-cold`: what a developer pays on a first analysis. One op parses
//! one program and, with a fresh engine and session, runs three passes:
//! pairs at EC, pairs at CC and triples at EC. Parse, summarize, encode,
//! SAT and proof logging do all the work; repair, replay and the store do
//! none.

use std::collections::HashSet;
use std::time::Instant;

use atropos_detect::{
    summarize_program, AccessPair, DetectSession, DetectStats, DetectionEngine, InstanceModel,
    PairSolver, TripleModel, TripleSolver,
};
use atropos_dsl::Program;

use crate::harness::{OpOutcome, Workload};
use crate::programs::{digest, Rounds, PROGRAMS};
use crate::reference::{Reference, PASSES};
use crate::trace::Tracer;

/// Pinned engine: one worker, proof certificates on, learnt pool on.
fn engine(proofs: bool) -> DetectionEngine {
    DetectionEngine::new(1)
        .with_proofs(proofs)
        .with_learnt_pool(true)
}

pub struct DetectCold {
    seed: u64,
    rounds: Rounds,
    reference: Reference,
    /// Certificates already accepted by the checker, by length and hash:
    /// an identical blob is not checked twice.
    certified: HashSet<(usize, u64)>,
}

impl DetectCold {
    pub fn new(seed: u64) -> Result<DetectCold, String> {
        Ok(DetectCold {
            seed,
            rounds: Rounds::new(seed),
            reference: Reference::load()?,
            certified: HashSet::new(),
        })
    }
}

/// The three passes of one op over a parsed program; a proofs-off probe
/// records them all under one span name.
fn passes(
    program: &Program,
    engine: &DetectionEngine,
    session: &mut DetectSession,
    tr: &mut Tracer,
    probe: bool,
) -> Vec<(Vec<AccessPair>, DetectStats)> {
    PASSES
        .iter()
        .map(|&(_, span, level, mode)| {
            let name = if probe { "probe.proofs_off" } else { span };
            tr.span(name, |_| {
                engine.detect_with_mode(program, level, mode, session)
            })
        })
        .collect()
}

impl Workload for DetectCold {
    fn round(&self) -> u64 {
        PROGRAMS.len() as u64
    }

    fn setup(&mut self) -> Result<(), String> {
        // Fresh op order and certificate memo, then one untimed warm-up
        // analysis of every program.
        self.rounds = Rounds::new(self.seed);
        self.certified.clear();
        self.reference = Reference::load()?;
        let mut tr = Tracer::new(false);
        for p in &PROGRAMS {
            let program = atropos_dsl::parse(p.text).map_err(|e| format!("{}: {e}", p.name))?;
            passes(
                &program,
                &engine(true),
                &mut DetectSession::new(),
                &mut tr,
                false,
            );
        }
        Ok(())
    }

    fn op(&mut self, _k: u64, tr: &mut Tracer) -> OpOutcome {
        let p = &PROGRAMS[self.rounds.next_program()];
        let started = Instant::now();
        let outcome = tr.span("op", |tr| {
            let program = tr.span("dsl.parse", |_| atropos_dsl::parse(p.text));
            program.map(|program| {
                let engine = engine(true);
                let mut session = DetectSession::new();
                let results = passes(&program, &engine, &mut session, tr, false);
                (program, session, results)
            })
        });
        let latency = started.elapsed().as_secs_f64();
        let mut failures = Vec::new();
        match outcome {
            Err(e) => failures.push(format!("parse: {e}")),
            Ok((program, session, results)) => {
                for ((pass, ..), (verdicts, _)) in PASSES.iter().zip(&results) {
                    let got = digest(verdicts);
                    if got != self.reference.verdicts(p.name, pass) {
                        failures.push(format!("{pass}: verdicts {got:?} differ from reference"));
                    }
                }
                let blobs = session.proof_blobs();
                for blob in &blobs {
                    let id = (blob.len(), atropos_proof::proof_hash(blob));
                    if tr.enabled() || !self.certified.contains(&id) {
                        match tr.span("proof.check", |_| atropos_proof::check_blob(blob)) {
                            Ok(_) => {
                                self.certified.insert(id);
                            }
                            Err(e) => failures.push(format!("certificate rejected: {e}")),
                        }
                    }
                }
                if tr.enabled() {
                    count_op(tr, &session, &results, &blobs);
                    probe_layers(tr, &program);
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

fn count_op(
    tr: &mut Tracer,
    session: &DetectSession,
    results: &[(Vec<AccessPair>, DetectStats)],
    blobs: &[Vec<u8>],
) {
    for (_, s) in results {
        tr.count("sat.queries", s.queries as f64);
        tr.count("sat.sat_queries", s.sat_queries as f64);
        tr.count("sat.propagations", s.propagations as f64);
        tr.count("sat.conflicts", s.conflicts as f64);
        tr.count("sat.decisions", s.decisions as f64);
        tr.count("sat.learnt_seeded", s.learnt_seeded as f64);
        tr.count("encode.clauses_encoded", s.clauses_encoded as f64);
    }
    let solved: u64 = session.per_worker().iter().map(|w| w.pairs_solved).sum();
    tr.count("engine.items_solved", solved as f64);
    let cache = session.cache_stats();
    tr.count(
        "cache.lookups",
        (cache.lookups + cache.triple_lookups) as f64,
    );
    tr.count("cache.hits", (cache.hits + cache.triple_hits) as f64);
    tr.count("cache.solver_reuses", cache.solver_reuses as f64);
    tr.count("cache.cross_run_hits", cache.cross_run_hits as f64);
    tr.count("proof.certs", blobs.len() as f64);
    tr.count(
        "proof.bytes",
        blobs.iter().map(Vec::len).sum::<usize>() as f64,
    );
}

/// Traced-only probes, after the timed section: summarize and encode on
/// their own, and the same three passes with proof logging off.
fn probe_layers(tr: &mut Tracer, program: &Program) {
    let sums = tr.span("model.summarize", |_| summarize_program(program));
    let n = sums.len();
    let mut base_clauses = 0;
    for i in 0..n {
        for j in 0..n {
            let solver = tr.span("encode.build", |_| {
                PairSolver::with_proofs(&InstanceModel::new(&sums[i], &sums[j]), true)
            });
            base_clauses += solver.problem_clauses().len();
        }
    }
    for i in 0..n {
        for j in i + 1..n {
            for k in j + 1..n {
                let solver = tr.span("encode.build", |_| {
                    TripleSolver::with_proofs(&TripleModel::new(&sums[i], &sums[j], &sums[k]), true)
                });
                base_clauses += solver.problem_clauses().len();
            }
        }
    }
    tr.count("encode.base_clauses", base_clauses as f64);
    passes(program, &engine(false), &mut DetectSession::new(), tr, true);
}
