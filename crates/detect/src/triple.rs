//! The bounded **three-instance** detection mode: chain anomalies the
//! two-instance pair oracle provably cannot express.
//!
//! The paper's detector (and this crate's [`crate::detect`] module) grounds
//! every anomaly query over a *two*-instance skeleton. That bound is blind
//! to serializability violations whose witness needs **three distinct
//! transactions** — the observer-chain causality violations CLOTHO-style
//! directed testing surfaces in real applications. This module widens the
//! bound by one instance:
//!
//! * [`TripleModel`] — the three-instance execution skeleton, grounded by
//!   the same multi-instance builder as the pair model
//!   ([`InstanceModel::new_multi`]), so `ord`/`vis` and every per-level
//!   axiom group generalize without a second encoder;
//! * [`TripleSolver`] — a name for the one instance-count-generic
//!   [`PairSolver`] (lazily installed, activation-literal-guarded level
//!   groups, queries via assumptions, learnt-clause retention) when it
//!   solves a triple;
//! * three **chain templates**, rows of the crate's one template table
//!   beside the four pair templates, each placing visibility requirements
//!   on commands of all three instances — so none of them is expressible
//!   in the two-instance skeleton *by construction*:
//!
//!   1. **Observer chain** (relayed causality): `T_a` writes; `T_b` reads
//!      that write and derives a write of its own; `T_c` observes the
//!      derived write yet misses the origin. Realizable under EC, refuted
//!      by the causal-closure axioms at CC and above.
//!   2. **Circular write skew** over three keys: each instance's
//!      read-modify-write misses the previous instance's write, closing a
//!      three-edge dependency cycle. Every *pairwise* projection of the
//!      cycle is serializable (order the two the other way around), so the
//!      pair oracle cannot see it; the full cycle is refuted only at SC.
//!   3. **Fractured-read chain**: `T_a` writes two records atomically;
//!      `T_b` relays one half to `T_c`, which never observes the other
//!      half. An atomic-visibility violation laundered through a relay —
//!      the pair dirty-read template needs both halves observed by *one*
//!      foreign instance and so misses it.
//!
//! # Bound and cost model
//!
//! Triples are enumerated over **unordered triples of distinct
//! transactions** (pairs-with-repetition remain the pair oracle's job), and
//! every template is tried under each role permutation of the three
//! instances (permutations equivalent under equal transaction fingerprints
//! are skipped; the write-skew cycle pins its first role to the first
//! instance, since rotations describe the same cycle). Candidate tuples are
//! enumerated statically from the command summaries; a triple with no
//! candidate never grounds a model or touches a solver. The engine, the
//! cache key and replay all ground a triple in one **canonical
//! orientation** (ascending fingerprint, ties by program position). Per
//! (template, role) the search stops at the **first satisfiable witness**, the
//! nested-loop enumeration keeps one tuple per outermost anchor command,
//! and each candidate's witness record pair is the first aliasing pair in
//! model order — deliberate bounds (part of the template definitions, like
//! the pair templates' own early breaks) that trade exhaustive witness
//! enumeration for a query budget within a small multiple of the pair
//! pass.

use crate::encode::{InstanceModel, PairSolver};
use crate::model::TxnSummary;

/// The grounded three-instance execution skeleton for a transaction triple:
/// [`InstanceModel::new_multi`] over three instances, which it derefs to.
#[derive(Debug, Clone)]
pub struct TripleModel {
    /// The underlying three-instance model.
    pub model: InstanceModel,
}

impl TripleModel {
    /// Grounds the skeleton over three transaction instances.
    pub fn new(t0: &TxnSummary, t1: &TxnSummary, t2: &TxnSummary) -> TripleModel {
        TripleModel {
            model: InstanceModel::new_multi(&[t0, t1, t2]),
        }
    }
}

impl std::ops::Deref for TripleModel {
    type Target = InstanceModel;

    fn deref(&self) -> &InstanceModel {
        &self.model
    }
}

/// The incremental anomaly oracle of one transaction triple: the
/// instance-count-generic [`PairSolver`] (shared base encoding, guarded
/// level groups, assumption-dispatched queries) over a [`TripleModel`].
pub type TripleSolver = PairSolver;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::to_labels;
    use crate::detect::{AccessPair, AnomalyKind};
    use crate::encode::ConsistencyLevel;
    use crate::model::summarize_program;
    use crate::template::{has_candidates, solve as solve_item, SolveState};
    use atropos_dsl::parse;
    use std::collections::BTreeSet;

    fn summaries(src: &str) -> Vec<TxnSummary> {
        summarize_program(&parse(src).unwrap())
    }

    fn fps(ts: &[TxnSummary]) -> [u64; 3] {
        [
            crate::cache::txn_fingerprint(&ts[0]),
            crate::cache::txn_fingerprint(&ts[1]),
            crate::cache::txn_fingerprint(&ts[2]),
        ]
    }

    fn solve(ts: &[TxnSummary], level: ConsistencyLevel) -> Vec<AccessPair> {
        let trio = [&ts[0], &ts[1], &ts[2]];
        let mut state = SolveState::new(&trio);
        let pairs = solve_item(&trio, &fps(ts), false, level, &mut state, None, false).0;
        to_labels(&pairs, ts).expect("verdicts name commands of the triple")
    }

    /// The canonical 3-hop relay: post writes, relay reads-then-derives,
    /// timeline observes the derived write but can miss the origin.
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
    fn observer_chain_sat_under_ec_refuted_from_cc_up() {
        let ts = summaries(RELAY);
        let ec = solve(&ts, ConsistencyLevel::EventualConsistency);
        assert!(
            ec.iter().any(|p| p.kind == AnomalyKind::ObserverChain),
            "EC must realize the relayed causality violation: {ec:?}"
        );
        let chain = ec
            .iter()
            .find(|p| p.kind == AnomalyKind::ObserverChain)
            .unwrap();
        assert_eq!(chain.cmd1.0, "R4");
        assert_eq!(chain.cmd2.0, "W1");
        assert_eq!(chain.witnesses, BTreeSet::from(["relay".to_owned()]));
        for level in [
            ConsistencyLevel::CausalConsistency,
            ConsistencyLevel::Serializable,
        ] {
            let got = solve(&ts, level);
            assert!(
                got.iter().all(|p| p.kind != AnomalyKind::ObserverChain),
                "{level} closes visibility through the observer chain: {got:?}"
            );
        }
    }

    /// Three read-modify-writes over three keys, each reading the previous
    /// key and writing the next: the classic G2 cycle.
    const SKEW: &str = "schema K { k_id: int key, v: int }
         txn t1(a: int, b: int) {
             @A1 x := select v from K where k_id = a;
             @A2 update K set v = x.v + 1 where k_id = b;
             return 0;
         }
         txn t2(b: int, c: int) {
             @B1 x := select v from K where k_id = b;
             @B2 update K set v = x.v + 1 where k_id = c;
             return 0;
         }
         txn t3(c: int, a: int) {
             @C1 x := select v from K where k_id = c;
             @C2 update K set v = x.v + 1 where k_id = a;
             return 0;
         }";

    #[test]
    fn write_skew_cycle_sat_under_weak_levels_refuted_under_sc() {
        let ts = summaries(SKEW);
        for level in [
            ConsistencyLevel::EventualConsistency,
            ConsistencyLevel::CausalConsistency,
            ConsistencyLevel::RepeatableRead,
        ] {
            let got = solve(&ts, level);
            assert!(
                got.iter().any(|p| p.kind == AnomalyKind::WriteSkewCycle),
                "{level} realizes the three-key cycle: {got:?}"
            );
        }
        let sc = solve(&ts, ConsistencyLevel::Serializable);
        assert!(
            sc.iter().all(|p| p.kind != AnomalyKind::WriteSkewCycle),
            "a serial instance order breaks the cycle: {sc:?}"
        );
    }

    /// An atomic two-record write whose halves reach the observer through
    /// different paths: one relayed, one direct — and the direct one lost.
    const FRACTURED: &str = "schema A { a_id: int key, a_v: int }
         schema B { b_id: int key, b_v: int }
         schema C { c_id: int key, c_v: int }
         txn writer(a: int, b: int) {
             @WA update A set a_v = 1 where a_id = a;
             @WB update B set b_v = 1 where b_id = b;
             return 0;
         }
         txn relay(a: int, c: int) {
             @RB x := select a_v from A where a_id = a;
             @WC update C set c_v = x.a_v where c_id = c;
             return 0;
         }
         txn observer(c: int, b: int) {
             @RC y := select c_v from C where c_id = c;
             @RD z := select b_v from B where b_id = b;
             return 0;
         }";

    #[test]
    fn fractured_read_chain_survives_cc_but_not_sc() {
        let ts = summaries(FRACTURED);
        for level in [
            ConsistencyLevel::EventualConsistency,
            ConsistencyLevel::CausalConsistency,
        ] {
            let got = solve(&ts, level);
            assert!(
                got.iter().any(|p| p.kind == AnomalyKind::FracturedRead),
                "{level} fractures the atomic pair across the relay: {got:?}"
            );
        }
        let sc = solve(&ts, ConsistencyLevel::Serializable);
        assert!(
            sc.iter().all(|p| p.kind != AnomalyKind::FracturedRead),
            "SC restores atomic visibility: {sc:?}"
        );
    }

    #[test]
    fn triples_without_candidates_are_prefiltered() {
        // Three pure readers: no write anywhere, no template applies.
        let ts = summaries(
            "schema T { id: int key, v: int }
             txn ra(k: int) { @A x := select v from T where id = k; return 0; }
             txn rb(k: int) { @B x := select v from T where id = k; return 0; }
             txn rc(k: int) { @C x := select v from T where id = k; return 0; }",
        );
        assert!(!has_candidates([&ts[0], &ts[1], &ts[2]], fps(&ts)));
        // The relay triple, by contrast, has work.
        let relay = summaries(RELAY);
        assert!(has_candidates(
            [&relay[0], &relay[1], &relay[2]],
            fps(&relay)
        ));
    }

    #[test]
    fn first_witness_bound_reports_one_chain_per_role() {
        let ts = summaries(RELAY);
        let ec = solve(&ts, ConsistencyLevel::EventualConsistency);
        let chains = ec
            .iter()
            .filter(|p| p.kind == AnomalyKind::ObserverChain)
            .count();
        assert_eq!(chains, 1, "{ec:?}");
    }
}
