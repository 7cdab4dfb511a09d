//! Witness replay: decoding dirty SAT verdicts into concrete schedules.
//!
//! The detector reports an anomaly as an [`AccessPair`] — two command
//! labels, a template, and the witnessing transactions — established by a
//! satisfiable pattern query. The satisfying assignment behind that verdict
//! is a full bounded execution (an arbitration order over every command
//! instance and a visibility relation over every atom), which this module
//! extracts ([`PairSolver::witness`], for two or three instances) and
//! decodes into an [`atropos_sim::ConcreteSchedule`]: a total order of
//! per-instance commands with session and replica placement, explicit
//! replication steps realizing the model's read-from edges, and the
//! anomaly's observable predicate as visibility checks. Running the
//! schedule on the simulator ([`atropos_sim::run_schedule`]) then *proves*
//! the verdict: the anomaly manifests as concrete reads observing (or
//! missing) concrete writes on a cluster whose executor enforces honest
//! weak-store semantics.
//!
//! Verdicts do not store their requirement vectors (they travel through
//! the verdict cache and across processes), so the decoder re-derives
//! them: it walks the detector's own template enumeration over the
//! transaction tuples the engine analysed, oriented as the engine orients
//! them, keeps the candidates whose reported pair matches the verdict's
//! canonical key, and asks the solver for a witness of the first
//! realizable one. The solver is deterministic, so the same verdict always
//! decodes to the byte-identical schedule.
//!
//! Two anchoring modes serve the two ends of a repair run:
//!
//! * **strict** ([`decode_witness`]) — the candidate must reproduce the
//!   verdict's exact command labels; used on the *original* program, where
//!   every initial dirty verdict must decode and manifest;
//! * **loose** ([`decode_witness_marked`]) — any candidate of the
//!   verdict's template over the same transaction roles counts; used on
//!   the *repaired* program, whose refactored statements carry fresh
//!   labels. Transactions in the marked set are analysed under
//!   [`ConsistencyLevel::Serializable`] when every participant is marked
//!   (the AT-SC rule of the detector), so a verdict whose participants the
//!   repair left to runtime coordination counts as suppressed. `None`
//!   means *suppressed*: no realizable witness of the anomaly survives.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;

use atropos_dsl::Program;
use atropos_sim::{
    run_schedule, ConcreteSchedule, RecordAccess, ScheduleEvent, ScheduleOutcome, ScheduledOp,
    VisibilityCheck,
};

use crate::cache::{to_labels, txn_fingerprint};
use crate::detect::{pair_key, AccessPair, AnomalyKind};
use crate::encode::{ConsistencyLevel, InstanceModel, PairSolver, VisRequirement, WitnessTruth};
use crate::engine::canonical_trio;
use crate::model::{summarize_program, CmdKind, TxnSummary};
use crate::template::for_each_candidate;

/// A realizable witness found for a verdict: the grounded model, the
/// instance-to-transaction assignment, the requirement vector that was
/// satisfiable, and the decoded truth assignment.
struct Found {
    model: InstanceModel,
    txns: Vec<String>,
    reqs: Vec<VisRequirement>,
    truth: WitnessTruth,
}

/// Decodes `verdict` into a concrete schedule on `program`, strictly
/// anchored: the witness search only accepts template candidates that
/// reproduce the verdict's exact command labels. Returns `None` when no
/// such candidate is realizable under `level` — which, for a verdict the
/// detector just reported at that level, indicates a detector/replay
/// divergence (the differential harness asserts it never happens).
///
/// # Examples
///
/// ```
/// use atropos_detect::{detect_anomalies, replay_verdict, ConsistencyLevel};
///
/// let p = atropos_dsl::parse(
///     "schema T { id: int key, v: int }
///      txn bump(k: int) {
///          x := select v from T where id = k;
///          update T set v = x.v + 1 where id = k;
///          return 0;
///      }",
/// ).unwrap();
/// let ec = ConsistencyLevel::EventualConsistency;
/// let verdicts = detect_anomalies(&p, ec);
/// let outcome = replay_verdict(&p, &verdicts[0], ec).expect("decodes");
/// assert!(outcome.manifested); // the lost update is observable on the cluster
/// ```
pub fn decode_witness(
    program: &Program,
    verdict: &AccessPair,
    level: ConsistencyLevel,
) -> Option<ConcreteSchedule> {
    decode(program, verdict, level, &BTreeSet::new(), true)
}

/// Decodes `verdict` against a (typically repaired) program, loosely
/// anchored: any realizable candidate of the verdict's template over the
/// same transaction roles counts, regardless of command labels (repair
/// rewrites statements, so labels do not survive). Transaction tuples
/// entirely inside `marked` are queried under
/// [`ConsistencyLevel::Serializable`] — the detector's AT-SC rule for
/// transactions the repair left to runtime coordination. Returns `None`
/// when the anomaly is **suppressed**: no realizable witness exists.
pub fn decode_witness_marked(
    program: &Program,
    verdict: &AccessPair,
    level: ConsistencyLevel,
    marked: &BTreeSet<String>,
) -> Option<ConcreteSchedule> {
    decode(program, verdict, level, marked, false)
}

/// Strictly decodes `verdict` ([`decode_witness`]) and runs the schedule
/// on the simulated cluster, returning what the run observed.
pub fn replay_verdict(
    program: &Program,
    verdict: &AccessPair,
    level: ConsistencyLevel,
) -> Option<ScheduleOutcome> {
    Some(run_schedule(&decode_witness(program, verdict, level)?))
}

fn decode(
    program: &Program,
    verdict: &AccessPair,
    level: ConsistencyLevel,
    marked: &BTreeSet<String>,
    strict: bool,
) -> Option<ConcreteSchedule> {
    let summaries = summarize_program(program);
    let found = tuples(&summaries, verdict).into_iter().find_map(|ts| {
        let names: Vec<&str> = ts.iter().map(|t| t.name.as_str()).collect();
        let level = effective_level(level, marked, &names);
        find_witness(&summaries, &ts, verdict, level, strict)
    })?;
    Some(build_schedule(found, verdict.kind))
}

/// The transaction tuples, in instance order, the engine may have analysed
/// `verdict` under — oriented exactly as the engine orients them. A lost
/// update anchors its pair across the two instances (either order); the
/// read-instability templates put both anchors in instance 0 and each
/// recorded witness in instance 1; a chain anomaly spans its two anchors
/// plus each recorded witness, in the canonical triple orientation.
fn tuples<'s>(summaries: &'s [TxnSummary], verdict: &AccessPair) -> Vec<Vec<&'s TxnSummary>> {
    let pos = |name: &str| summaries.iter().position(|s| s.name == name);
    let (Some(a), Some(b)) = (pos(&verdict.txn1), pos(&verdict.txn2)) else {
        return Vec::new();
    };
    let witnesses = verdict.witnesses.iter().filter_map(|w| pos(w));
    let idx: Vec<Vec<usize>> = if verdict.kind == AnomalyKind::LostUpdate {
        if a == b {
            vec![vec![a, b]]
        } else {
            vec![vec![a, b], vec![b, a]]
        }
    } else if verdict.kind.instances() == 2 {
        witnesses.map(|w| vec![a, w]).collect()
    } else {
        let fps: Vec<u64> = summaries.iter().map(txn_fingerprint).collect();
        witnesses
            .filter(|&w| a != b && w != a && w != b)
            .map(|w| canonical_trio([a, b, w], &fps).to_vec())
            .collect()
    };
    idx.into_iter()
        .map(|t| t.into_iter().map(|i| &summaries[i]).collect())
        .collect()
}

/// The detector's AT-SC rule: a tuple whose instances are all marked runs
/// under serializability; anything else runs at the base level.
fn effective_level(
    level: ConsistencyLevel,
    marked: &BTreeSet<String>,
    participants: &[&str],
) -> ConsistencyLevel {
    if !marked.is_empty() && participants.iter().all(|t| marked.contains(*t)) {
        ConsistencyLevel::Serializable
    } else {
        level
    }
}

/// Walks the detector's template enumeration over one transaction tuple,
/// keeping the candidates anchored on `verdict` — strictly, those that
/// report the verdict's exact command labels; loosely, any candidate of its
/// kind — and returns the first realizable one's witness. One solver
/// answers every query of the tuple, so the search is deterministic.
fn find_witness(
    summaries: &[TxnSummary],
    ts: &[&TxnSummary],
    verdict: &AccessPair,
    level: ConsistencyLevel,
    strict: bool,
) -> Option<Found> {
    let fps: Vec<u64> = ts.iter().map(|t| txn_fingerprint(t)).collect();
    let model = InstanceModel::new_multi(ts);
    let mut solver: Option<PairSolver> = None;
    let mut found = None;
    let _ = for_each_candidate(ts, &fps, &model, true, &mut |cand| {
        let anchored = cand.kind() == verdict.kind
            && (!strict
                || to_labels(&cand.reports(&model, ts), summaries)
                    .is_some_and(|ps| ps.iter().any(|p| pair_key(p) == pair_key(verdict))));
        if !anchored {
            return ControlFlow::Continue(false);
        }
        for reqs in cand.queries(&model).unwrap_or_default() {
            let solver = solver.get_or_insert_with(|| PairSolver::new(&model));
            if let Some(truth) = solver.witness(&model, level, &reqs) {
                found = Some((reqs, truth));
                return ControlFlow::Break(());
            }
        }
        ControlFlow::Continue(false)
    });
    let (reqs, truth) = found?;
    Some(Found {
        txns: ts.iter().map(|t| t.name.clone()).collect(),
        model,
        reqs,
        truth,
    })
}

/// Union-find over witness-record indices: requirement-involved record
/// pairs are unified so the reads and writes of the anomaly predicate land
/// on the same *concrete* record in the schedule.
struct RecordUnion {
    parent: Vec<usize>,
}

impl RecordUnion {
    fn new(n: usize) -> RecordUnion {
        RecordUnion {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        let mut r = x;
        while self.parent[r] != r {
            r = self.parent[r];
        }
        let mut c = x;
        while self.parent[c] != r {
            let next = self.parent[c];
            self.parent[c] = r;
            c = next;
        }
        r
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        // Deterministic representative: the smaller index wins.
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parent[hi] = lo;
    }
}

/// Decodes one found witness into a concrete schedule.
///
/// * **Sessions**: one per transaction instance; a session's commands are
///   its ops in program order (the `cmds` vector is already grouped that
///   way).
/// * **Replicas**: one home replica per session, where its writes apply,
///   plus one dedicated serving replica per read — the freedom that lets
///   an eventually consistent read observe any prefix of the write history
///   (and two reads of one session observe *different* prefixes).
/// * **Events**: invocations in the model's arbitration order; before each
///   read's invocation, every write the truth assignment makes visible to
///   it is replicated to its serving replica (visibility implies
///   arbitration, so the write is always already invoked).
/// * **Checks**: the satisfied requirement vector verbatim — each `(atom,
///   command, polarity)` becomes "read *command* must (not) have observed
///   the atom's producer".
fn build_schedule(found: Found, kind: AnomalyKind) -> ConcreteSchedule {
    let model = &found.model;
    let n = model.cmds.len();
    let sessions = model.instances();

    // Concretize records: unify each requirement atom's record with the
    // observing command's first aliasing record, then hand every class a
    // dense id.
    let mut uf = RecordUnion::new(model.records.len());
    for &(a, c, _) in &found.reqs {
        let ar = model.atoms[a].record;
        if model.cmds[c].records.contains(&ar) {
            continue;
        }
        if let Some(&r) = model.cmds[c]
            .records
            .iter()
            .find(|&&r| model.may_alias_records(ar, r))
        {
            uf.union(ar, r);
        }
    }
    let mut ids: BTreeMap<usize, u64> = BTreeMap::new();
    for r in 0..model.records.len() {
        let root = uf.find(r);
        let next = ids.len() as u64;
        ids.entry(root).or_insert(next);
    }

    let mut ops = Vec::with_capacity(n);
    let mut read_count = 0usize;
    for cmd in &model.cmds {
        let is_write = cmd.summary.kind != CmdKind::Select;
        let replica = if is_write {
            cmd.instance as usize
        } else {
            let r = sessions + read_count;
            read_count += 1;
            r
        };
        let fields = if is_write {
            &cmd.summary.writes
        } else {
            &cmd.summary.reads
        };
        let accesses = cmd
            .records
            .iter()
            .map(|&r| RecordAccess {
                table: model.records[r].schema.clone(),
                record: ids[&uf.find(r)],
                fields: fields.clone(),
            })
            .collect();
        ops.push(ScheduledOp {
            session: cmd.instance as usize,
            txn: found.txns[cmd.instance as usize].clone(),
            label: cmd.summary.label.0.clone(),
            is_write,
            replica,
            accesses,
        });
    }
    let replicas = sessions + read_count;

    // A negative requirement pins "read c does not observe the atom's
    // producer": never replicate that producer to c's serving replica,
    // even if another of its atoms is model-visible to c.
    let mut banned: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    for &(a, c, polarity) in &found.reqs {
        if !polarity {
            banned.entry(c).or_default().insert(model.atoms[a].cmd);
        }
    }

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&c| found.truth.arbitration_position(c));

    let mut events = Vec::new();
    for &c in &order {
        if !ops[c].is_write {
            let ban = banned.get(&c);
            let mut replicated: BTreeSet<usize> = BTreeSet::new();
            for (ai, atom) in model.atoms.iter().enumerate() {
                let w = atom.cmd;
                if !ops[w].is_write || !found.truth.vis[ai][c] {
                    continue;
                }
                if ban.is_some_and(|b| b.contains(&w)) {
                    continue;
                }
                if replicated.insert(w) {
                    events.push(ScheduleEvent::Replicate {
                        op: w,
                        to: ops[c].replica,
                    });
                }
            }
        }
        events.push(ScheduleEvent::Invoke(c));
    }

    let checks = found
        .reqs
        .iter()
        .map(|&(a, c, polarity)| VisibilityCheck {
            read: c,
            write: model.atoms[a].cmd,
            expect_seen: polarity,
        })
        .collect();

    ConcreteSchedule {
        anomaly: kind.to_string(),
        sessions,
        replicas,
        ops,
        events,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::{detect_anomalies, detect_anomalies_triples};
    use atropos_dsl::parse;

    const COUNTER: &str = "schema T { id: int key, v: int }
         txn bump(k: int) {
             @R x := select v from T where id = k;
             @W update T set v = x.v + 1 where id = k;
             return 0;
         }";

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
    fn lost_update_decodes_and_manifests() {
        let p = parse(COUNTER).unwrap();
        let ec = ConsistencyLevel::EventualConsistency;
        let verdicts = detect_anomalies(&p, ec);
        assert_eq!(verdicts.len(), 1);
        let s = decode_witness(&p, &verdicts[0], ec).expect("decodes");
        assert_eq!(s.anomaly, "lost-update");
        assert_eq!(s.sessions, 2);
        // Two RMW instances: 2 writes at home replicas, 2 reads on
        // dedicated serving replicas.
        assert_eq!(s.replicas, 4);
        let out = run_schedule(&s);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.manifested, "{out:?}");
    }

    #[test]
    fn serializability_yields_no_witness() {
        let p = parse(COUNTER).unwrap();
        let ec = ConsistencyLevel::EventualConsistency;
        let verdicts = detect_anomalies(&p, ec);
        assert!(decode_witness(&p, &verdicts[0], ConsistencyLevel::Serializable).is_none());
    }

    #[test]
    fn marking_every_participant_suppresses_the_witness() {
        let p = parse(COUNTER).unwrap();
        let ec = ConsistencyLevel::EventualConsistency;
        let verdicts = detect_anomalies(&p, ec);
        let marked = BTreeSet::from(["bump".to_owned()]);
        assert!(decode_witness_marked(&p, &verdicts[0], ec, &marked).is_none());
        // An unrelated marked set leaves the anomaly realizable.
        let other = BTreeSet::from(["other".to_owned()]);
        assert!(decode_witness_marked(&p, &verdicts[0], ec, &other).is_some());
    }

    #[test]
    fn observer_chain_decodes_and_manifests() {
        let p = parse(RELAY).unwrap();
        let ec = ConsistencyLevel::EventualConsistency;
        let (verdicts, _) = detect_anomalies_triples(&p, ec);
        let chain = verdicts
            .iter()
            .find(|v| v.kind == AnomalyKind::ObserverChain)
            .expect("relay chain detected");
        let s = decode_witness(&p, chain, ec).expect("decodes");
        assert_eq!(s.anomaly, "observer-chain");
        assert_eq!(s.sessions, 3);
        let out = run_schedule(&s);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.manifested, "{out:?}");
        // Causal consistency refutes the chain: no witness decodes.
        assert!(decode_witness(&p, chain, ConsistencyLevel::CausalConsistency).is_none());
    }

    #[test]
    fn decoding_is_deterministic() {
        let p = parse(RELAY).unwrap();
        let ec = ConsistencyLevel::EventualConsistency;
        let (verdicts, _) = detect_anomalies_triples(&p, ec);
        for v in &verdicts {
            assert_eq!(
                decode_witness(&p, v, ec),
                decode_witness(&p, v, ec),
                "{v}"
            );
        }
    }

    /// Every pair-mode verdict of a program with dirty reads and
    /// non-repeatable reads decodes into a schedule that manifests.
    #[test]
    fn mixed_pair_verdicts_all_replay() {
        let src = "schema A { id: int key, x: int, y: int }
             txn wr(k: int) {
                 @WX update A set x = 1 where id = k;
                 @WY update A set y = 2 where id = k;
                 return 0;
             }
             txn rd(k: int) {
                 @RX a := select x from A where id = k;
                 @RY b := select x, y from A where id = k;
                 return 0;
             }";
        let p = parse(src).unwrap();
        let ec = ConsistencyLevel::EventualConsistency;
        let verdicts = detect_anomalies(&p, ec);
        assert!(!verdicts.is_empty());
        for v in &verdicts {
            let out = replay_verdict(&p, v, ec).unwrap_or_else(|| panic!("{v} must decode"));
            assert!(out.manifested, "{v}: {out:?}");
        }
    }
}
