//! The anomaly templates as data, shared by detection and witness replay.
//!
//! Every template — the four pair templates of [`crate::detect`] and the
//! three chain templates of [`crate::triple`] — is a [`Candidate`] variant:
//! the commands it binds (indices into a grounded [`InstanceModel`]'s
//! `cmds`, for two or three instances), the visibility requirement
//! vectors that confirm it ([`Candidate::queries`]), and the verdicts it
//! reports ([`Candidate::reports`]). [`for_each_candidate`] is the one
//! lazy enumeration of a work item's candidates, in query order: the
//! detector walks it ([`analyse`], [`solve`]) and replay walks it filtered
//! by a verdict's anchor.
//!
//! Each candidate belongs to a **first-hit group**: once the visitor
//! confirms a candidate, the enumeration skips the rest of its group — a
//! deliberate bound of each template's definition that keeps the query
//! budget small. A candidate carries only indices; requirement vectors,
//! field sets and verdicts are built on demand, and a skipped candidate is
//! never built at all.

use std::collections::{BTreeSet, HashMap};
use std::ops::ControlFlow;

use atropos_dsl::CmdLabel;
use atropos_sat::Lit;

use crate::detect::{AccessPair, AnomalyKind, DetectStats};
use crate::encode::{ConsistencyLevel, InstanceModel, PairSolver, VisRequirement};
use crate::model::{may_alias, CmdKind, CmdSummary, TxnSummary};

/// One candidate of an anomaly template, bound to model commands: command
/// fields are model command indices, `atom` fields indices into the
/// model's atoms.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Candidate<'a> {
    /// Lost update: each instance's read-modify-write (`read[k]`,
    /// `write[k]`) of `field` misses the other instance's write; `atom[k]`
    /// is `write[k]`'s event on its RMW record.
    LostUpdate {
        read: [usize; 2],
        write: [usize; 2],
        atom: [usize; 2],
        field: &'a str,
    },
    /// Dirty read: instance 0's writes (`write`, events `atom`) observed
    /// half-way by instance 1's reads `read`.
    DirtyRead {
        write: [usize; 2],
        atom: [usize; 2],
        read: [usize; 2],
    },
    /// Non-repeatable read over two foreign writes: instance 0's reads
    /// `read` (on records `rec`) observe instance 1's writes `write`
    /// inconsistently.
    TwoWriteRead {
        read: [usize; 2],
        rec: [usize; 2],
        write: [usize; 2],
    },
    /// Two program-ordered reads of instance 0 observing one write event
    /// of instance 1 differently: seen late only is a non-repeatable read,
    /// seen then lost a non-monotonic read.
    OneWriteRead {
        kind: AnomalyKind,
        read: [usize; 2],
        write: usize,
        atom: usize,
    },
    /// Observer chain: origin write, relay read, relay write, observer's
    /// chain read, observer's missing read.
    Chain {
        w1: usize,
        r2: usize,
        w2: usize,
        r3a: usize,
        r3b: usize,
    },
    /// Write-skew cycle: the (read, write) dependency pair of each role.
    Skew { r: [usize; 3], w: [usize; 3] },
    /// Fractured-read chain: the atomic write pair, the relay's read and
    /// write, the observer's chain read and missing read.
    Fractured {
        wa1: usize,
        wa2: usize,
        rb: usize,
        wb: usize,
        rc1: usize,
        rc2: usize,
    },
}

impl Candidate<'_> {
    /// The anomaly kind this candidate reports.
    pub(crate) fn kind(&self) -> AnomalyKind {
        match *self {
            Candidate::LostUpdate { .. } => AnomalyKind::LostUpdate,
            Candidate::DirtyRead { .. } => AnomalyKind::DirtyRead,
            Candidate::TwoWriteRead { .. } => AnomalyKind::NonRepeatableRead,
            Candidate::OneWriteRead { kind, .. } => kind,
            Candidate::Chain { .. } => AnomalyKind::ObserverChain,
            Candidate::Skew { .. } => AnomalyKind::WriteSkewCycle,
            Candidate::Fractured { .. } => AnomalyKind::FracturedRead,
        }
    }

    /// The requirement vectors that confirm this candidate, in query order
    /// (the first satisfiable one wins), or `None` when a required write
    /// event does not exist in the grounded model.
    pub(crate) fn queries(&self, m: &InstanceModel) -> Option<Vec<Vec<VisRequirement>>> {
        // Either orientation of a half-observed pair of events.
        let either = |(a1, c1): (usize, usize), (a2, c2): (usize, usize)| {
            vec![
                vec![(a1, c1, true), (a2, c2, false)],
                vec![(a2, c2, true), (a1, c1, false)],
            ]
        };
        Some(match *self {
            Candidate::LostUpdate { read, atom, .. } => {
                vec![vec![(atom[1], read[0], false), (atom[0], read[1], false)]]
            }
            Candidate::DirtyRead { atom, read, .. } => {
                either((atom[0], read[0]), (atom[1], read[1]))
            }
            Candidate::TwoWriteRead { read, rec, write } => {
                let a1 = m.atom(write[0], rec[0])?;
                let a2 = m.atom(write[1], rec[1])?;
                either((a2, read[1]), (a1, read[0]))
            }
            Candidate::OneWriteRead {
                kind, read, atom, ..
            } => {
                let [early, late] = read;
                if kind == AnomalyKind::NonRepeatableRead {
                    vec![vec![(atom, late, true), (atom, early, false)]]
                } else {
                    vec![vec![(atom, early, true), (atom, late, false)]]
                }
            }
            Candidate::Chain {
                w1,
                r2,
                w2,
                r3a,
                r3b,
            } => vec![vec![
                (write_atom(m, w1, r2)?, r2, true),
                (write_atom(m, w2, r3a)?, r3a, true),
                (write_atom(m, w1, r3b)?, r3b, false),
            ]],
            Candidate::Skew { r, w } => vec![vec![
                (write_atom(m, w[0], r[1])?, r[1], false),
                (write_atom(m, w[1], r[2])?, r[2], false),
                (write_atom(m, w[2], r[0])?, r[0], false),
            ]],
            Candidate::Fractured {
                wa1,
                wa2,
                rb,
                wb,
                rc1,
                rc2,
            } => vec![vec![
                (write_atom(m, wa1, rb)?, rb, true),
                (write_atom(m, wb, rc1)?, rc1, true),
                (write_atom(m, wa2, rc2)?, rc2, false),
            ]],
        })
    }

    /// The verdicts a confirmed candidate reports, in the cache's
    /// positional form: each command named by its position within its
    /// transaction (`ts[i]` is instance `i`), the pair oriented by
    /// `(transaction, position)`. Labels enter only when a program reads
    /// the verdicts back (`crate::cache::to_labels`). A chain verdict is
    /// anchored on its broken edge's (write, missing read) commands, with
    /// the relaying transaction as its witness — exactly the coordination
    /// set a repair would have to cover.
    pub(crate) fn reports(&self, m: &InstanceModel, ts: &[&TxnSummary]) -> Vec<AccessPair> {
        let shared = |w: usize, r: usize| -> BTreeSet<String> {
            m.cmds[w]
                .summary
                .writes
                .intersection(&m.cmds[r].summary.reads)
                .cloned()
                .collect()
        };
        let report = |sides: [(usize, BTreeSet<String>); 2], witness: Option<usize>| {
            positional(m, ts, self.kind(), sides, witness)
        };
        // A chain verdict's two sides, the broken edge's write `w` and
        // missing read `r`, share the edge's fields; its witness is the
        // instance of the relaying command.
        let chain = |w: usize, r: usize, relay: usize| {
            let inst = m.cmds[relay].instance as usize;
            vec![report([(w, shared(w, r)), (r, shared(w, r))], Some(inst))]
        };
        match *self {
            Candidate::LostUpdate {
                read, write, field, ..
            } => {
                let fs = || BTreeSet::from([field.to_owned()]);
                vec![
                    report([(read[0], fs()), (write[1], fs())], None),
                    report([(read[1], fs()), (write[0], fs())], None),
                ]
            }
            Candidate::DirtyRead { write, read, .. } => vec![report(
                [
                    (write[0], shared(write[0], read[0])),
                    (write[1], shared(write[1], read[1])),
                ],
                Some(1),
            )],
            Candidate::TwoWriteRead { read, write, .. } => vec![report(
                [
                    (read[0], shared(write[0], read[0])),
                    (read[1], shared(write[1], read[1])),
                ],
                Some(1),
            )],
            Candidate::OneWriteRead { read, write, .. } => vec![report(
                [
                    (read[0], shared(write, read[0])),
                    (read[1], shared(write, read[1])),
                ],
                Some(1),
            )],
            Candidate::Chain { w1, r2, r3b, .. } => chain(w1, r3b, r2),
            Candidate::Skew { r, w } => chain(w[2], r[0], r[1]),
            Candidate::Fractured { wa2, rb, rc2, .. } => chain(wa2, rc2, rb),
        }
    }
}

/// One verdict in positional form: each side's command named by its
/// position within its transaction, the sides oriented by
/// `(transaction, position)`, and the witness instance's transaction
/// recorded.
fn positional(
    m: &InstanceModel,
    ts: &[&TxnSummary],
    kind: AnomalyKind,
    sides: [(usize, BTreeSet<String>); 2],
    witness: Option<usize>,
) -> AccessPair {
    let [mut a, mut b] = sides.map(|(c, fields)| {
        let inst = m.cmds[c].instance as usize;
        (ts[inst].name.clone(), c - m.starts[inst], fields)
    });
    if (&a.0, a.1) > (&b.0, b.1) {
        std::mem::swap(&mut a, &mut b);
    }
    AccessPair {
        cmd1: CmdLabel(a.1.to_string()),
        fields1: a.2,
        cmd2: CmdLabel(b.1.to_string()),
        fields2: b.2,
        txn1: a.0,
        txn2: b.0,
        witnesses: witness.map(|i| ts[i].name.clone()).into_iter().collect(),
        kind,
    }
}

/// The event of write `w` on the first of its witness records that may
/// alias a record `reader` touches — the record pair a chain requirement
/// is grounded on.
fn write_atom(m: &InstanceModel, w: usize, reader: usize) -> Option<usize> {
    let rw = m.cmds[w].records.iter().find(|&&rw| {
        m.cmds[reader]
            .records
            .iter()
            .any(|&dr| m.may_alias_records(rw, dr))
    })?;
    m.atom(w, *rw)
}

/// The visitor [`for_each_candidate`] feeds: `Continue(true)` confirms the
/// candidate (ending its first-hit group), `Break` stops the enumeration.
pub(crate) type Visit<'v> = &'v mut dyn FnMut(Candidate<'_>) -> ControlFlow<(), bool>;

/// One enumeration's visitor plus the first-hit groups it confirmed. The
/// enumerators test [`Walk::done`] before descending into a group's
/// remaining candidates, exactly where a hit ends the group.
struct Walk<'v> {
    visit: Visit<'v>,
    confirmed: Vec<bool>,
}

impl Walk<'_> {
    fn done(&self, group: usize) -> bool {
        self.confirmed.get(group).copied().unwrap_or(false)
    }

    /// Visits one candidate unless its group is already confirmed.
    fn offer(&mut self, group: usize, cand: Candidate<'_>) -> ControlFlow<()> {
        if !self.done(group) && (self.visit)(cand)? {
            if self.confirmed.len() <= group {
                self.confirmed.resize(group + 1, false);
            }
            self.confirmed[group] = true;
        }
        ControlFlow::Continue(())
    }
}

/// Enumerates the candidates of one work item in query order: an ordered
/// transaction pair (`ts.len() == 2`; `symmetric` gates the lost-update
/// template so it runs once per unordered pair) or a transaction triple
/// in canonical orientation (`fps` are its fingerprints, used to skip
/// equivalent role permutations). `model` is the item's grounded model;
/// the triple templates enumerate from the summaries alone.
pub(crate) fn for_each_candidate(
    ts: &[&TxnSummary],
    fps: &[u64],
    model: &InstanceModel,
    symmetric: bool,
    visit: Visit<'_>,
) -> ControlFlow<()> {
    let mut walk = Walk {
        visit,
        confirmed: Vec::new(),
    };
    match ts.len() {
        2 => pair_candidates(ts, model, symmetric, &mut walk),
        _ => triple_candidates(ts, fps, &mut walk),
    }
}

/// Does any chain template have a candidate on this triple? The static
/// prefilter the engine runs before grounding a model: a triple with no
/// candidate issues no query and caches an empty verdict.
pub(crate) fn has_candidates(ts: [&TxnSummary; 3], fps: [u64; 3]) -> bool {
    let mut walk = Walk {
        visit: &mut |_| ControlFlow::Break(()),
        confirmed: Vec::new(),
    };
    triple_candidates(&ts, &fps, &mut walk).is_break()
}

fn is_select(c: &CmdSummary) -> bool {
    c.kind == CmdKind::Select
}

fn is_write(c: &CmdSummary) -> bool {
    !c.writes.is_empty()
}

/// Does `r` read a field `w` writes?
fn shares(w: &CmdSummary, r: &CmdSummary) -> bool {
    w.writes.intersection(&r.reads).next().is_some()
}

/// One event of the model: a command on one of its witness records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event {
    cmd: usize,
    rec: usize,
    atom: usize,
}

/// The four pair templates over the two-instance model. Per template the
/// first-hit groups are: one per candidate for lost update (no skipping),
/// one per (write pair, first observing read) for dirty read, one per read
/// pair for the two-write non-repeatable read, and one per (read pair,
/// kind) for the single-write read instability.
fn pair_candidates(
    ts: &[&TxnSummary],
    m: &InstanceModel,
    symmetric: bool,
    walk: &mut Walk<'_>,
) -> ControlFlow<()> {
    let n1 = m.n1;
    let mut group = 0;
    let cmd = |c: usize| &m.cmds[c].summary;
    let events = |inst: u8, keep: fn(&CmdSummary) -> bool| -> Vec<Event> {
        m.atoms
            .iter()
            .enumerate()
            .filter(|(_, a)| m.cmds[a.cmd].instance == inst && keep(cmd(a.cmd)))
            .map(|(atom, a)| Event {
                cmd: a.cmd,
                rec: a.record,
                atom,
            })
            .collect()
    };
    // Does read event `r` observe write event `w`'s fields on an aliasing
    // record?
    let observes =
        |w: &Event, r: &Event| m.may_alias_records(r.rec, w.rec) && shares(cmd(w.cmd), cmd(r.cmd));

    // ---- Lost update: RMW in both instances on a shared record field. ----
    if symmetric {
        let (rmw1, rmw2) = (ts[0].rmw_pairs(), ts[1].rmw_pairs());
        for (r1, w1, f) in &rmw1 {
            for (r2, w2, f2) in &rmw2 {
                if f != f2 || ts[0].commands[*w1].schema != ts[1].commands[*w2].schema {
                    continue;
                }
                let (read, write) = ([*r1, n1 + r2], [*w1, n1 + w2]);
                // A record of each instance's RMW, read and written.
                let rec = |k: usize| {
                    m.cmds[read[k]]
                        .records
                        .iter()
                        .copied()
                        .find(|r| m.cmds[write[k]].records.contains(r))
                };
                let (Some(rec1), Some(rec2)) = (rec(0), rec(1)) else {
                    continue;
                };
                if !m.may_alias_records(rec1, rec2) {
                    continue;
                }
                let (Some(a1), Some(a2)) = (m.atom(write[0], rec1), m.atom(write[1], rec2)) else {
                    continue;
                };
                group += 1;
                walk.offer(
                    group,
                    Candidate::LostUpdate {
                        read,
                        write,
                        atom: [a1, a2],
                        field: f,
                    },
                )?;
            }
        }
    }

    // ---- Dirty read: two writes of instance 0 observed half-way by reads
    // of instance 1. ----
    let (writes0, reads1) = (events(0, is_write), events(1, is_select));
    for (i, w1) in writes0.iter().enumerate() {
        for w2 in &writes0[i + 1..] {
            for d1 in reads1.iter().filter(|d| observes(w1, d)) {
                group += 1;
                for d2 in reads1.iter().filter(|d| observes(w2, d)) {
                    if walk.done(group) {
                        break;
                    }
                    let (write, atom) = ([w1.cmd, w2.cmd], [w1.atom, w2.atom]);
                    walk.offer(
                        group,
                        Candidate::DirtyRead {
                            write,
                            atom,
                            read: [d1.cmd, d2.cmd],
                        },
                    )?;
                }
            }
        }
    }

    // ---- Non-repeatable read: two reads of instance 0 observing two
    // writes of instance 1 inconsistently. ----
    let (reads0, writes1) = (events(0, is_select), events(1, is_write));
    for (i, c1) in reads0.iter().enumerate() {
        for c2 in &reads0[i + 1..] {
            group += 1;
            'row: for d1 in writes1.iter().filter(|d| observes(d, c1)) {
                for d2 in writes1.iter().filter(|d| *d != d1 && observes(d, c2)) {
                    if walk.done(group) {
                        break 'row;
                    }
                    let (read, rec) = ([c1.cmd, c2.cmd], [c1.rec, c2.rec]);
                    walk.offer(
                        group,
                        Candidate::TwoWriteRead {
                            read,
                            rec,
                            write: [d1.cmd, d2.cmd],
                        },
                    )?;
                }
            }
        }
    }

    // ---- Read instability on a single foreign write: two program-ordered
    // reads of instance 0 observing one write event of instance 1
    // differently. Seen-late-only is a non-repeatable read; seen-then-lost
    // is a non-monotonic read — the causal session violation that
    // distinguishes CC (and RR) from EC. ----
    for (i, c1) in reads0.iter().enumerate() {
        for c2 in &reads0[i + 1..] {
            if !m.prog_before(c1.cmd, c2.cmd) {
                continue;
            }
            group += 2;
            for d in writes1
                .iter()
                .filter(|d| observes(d, c1) && observes(d, c2))
            {
                if walk.done(group - 1) && walk.done(group) {
                    break;
                }
                for (kind, group) in [
                    (AnomalyKind::NonRepeatableRead, group - 1),
                    (AnomalyKind::NonMonotonicRead, group),
                ] {
                    let cand = Candidate::OneWriteRead {
                        kind,
                        read: [c1.cmd, c2.cmd],
                        write: d.cmd,
                        atom: d.atom,
                    };
                    walk.offer(group, cand)?;
                }
            }
        }
    }
    ControlFlow::Continue(())
}

/// All six role permutations of three instances, in lexicographic order.
const PERMS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

/// Does `r` read a field `w` writes, on a possibly shared record?
fn observes(w: &CmdSummary, r: &CmdSummary) -> bool {
    w.schema == r.schema && may_alias(&w.key, &r.key) && shares(w, r)
}

/// Does `w`'s assigned data flow from the row `r` bound?
fn data_dep(r: &CmdSummary, w: &CmdSummary) -> bool {
    r.bound_var
        .as_ref()
        .is_some_and(|v| w.uses_vars.contains(v))
}

/// The (read, write) data-dependency pairs of one instance's commands: a
/// select whose bound row flows into a later write — the per-instance edge
/// of the write-skew cycle. Positions are local.
fn dep_pairs(cmds: &[CmdSummary]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (ri, r) in cmds.iter().enumerate() {
        if !is_select(r) {
            continue;
        }
        for (wi, w) in cmds.iter().enumerate() {
            if wi > ri && is_write(w) && data_dep(r, w) {
                out.push((ri, wi));
            }
        }
    }
    out
}

/// The three chain templates over a transaction triple, enumerated
/// statically from the summaries under each role permutation (those
/// equivalent under equal fingerprints are visited once). The first-hit
/// groups are one per (permutation, template), and the observer-chain and
/// fractured-read enumerations keep one tuple per outermost anchor
/// command (see the [`crate::triple`] cost model).
fn triple_candidates(ts: &[&TxnSummary], fps: &[u64], walk: &mut Walk<'_>) -> ControlFlow<()> {
    // Model command index of instance `inst`'s first command.
    let base = [
        0,
        ts[0].commands.len(),
        ts[0].commands.len() + ts[1].commands.len(),
    ];
    let mut seen: Vec<[u64; 3]> = Vec::new();
    let mut group = 0;
    for [a, b, c] in PERMS {
        let shape = [fps[a], fps[b], fps[c]];
        if seen.contains(&shape) {
            continue;
        }
        seen.push(shape);
        let (ta, tb, tc) = (&ts[a].commands, &ts[b].commands, &ts[c].commands);
        let (at, bt, ct) = (|i| base[a] + i, |i| base[b] + i, |i| base[c] + i);

        // ---- Observer chain. ----
        group += 1;
        'chain: for (i1, w1) in ta.iter().enumerate() {
            if walk.done(group) {
                break;
            }
            if !is_write(w1) {
                continue;
            }
            for (i2, r2) in tb.iter().enumerate() {
                if !is_select(r2) || !observes(w1, r2) {
                    continue;
                }
                for (i3, w2) in tb.iter().enumerate() {
                    if i3 <= i2 || !is_write(w2) || !data_dep(r2, w2) {
                        continue;
                    }
                    for (i4, r3a) in tc.iter().enumerate() {
                        if !is_select(r3a) || !observes(w2, r3a) {
                            continue;
                        }
                        for (i5, r3b) in tc.iter().enumerate() {
                            if i5 <= i4 || !is_select(r3b) || !observes(w1, r3b) {
                                continue;
                            }
                            let cand = Candidate::Chain {
                                w1: at(i1),
                                r2: bt(i2),
                                w2: bt(i3),
                                r3a: ct(i4),
                                r3b: ct(i5),
                            };
                            walk.offer(group, cand)?;
                            continue 'chain;
                        }
                    }
                }
            }
        }

        // ---- Circular write skew: role A is pinned to the first instance
        // — rotations of a cycle are the same cycle, so only the two
        // permutations starting at instance 0 run it. ----
        group += 1;
        if a == 0 {
            let (da, db, dc) = (dep_pairs(ta), dep_pairs(tb), dep_pairs(tc));
            'skew: for &(r_a, w_a) in &da {
                for &(r_b, w_b) in &db {
                    if !observes(&ta[w_a], &tb[r_b]) {
                        continue;
                    }
                    for &(r_c, w_c) in &dc {
                        if walk.done(group) {
                            break 'skew;
                        }
                        if !observes(&tb[w_b], &tc[r_c]) || !observes(&tc[w_c], &ta[r_a]) {
                            continue;
                        }
                        let cand = Candidate::Skew {
                            r: [at(r_a), bt(r_b), ct(r_c)],
                            w: [at(w_a), bt(w_b), ct(w_c)],
                        };
                        walk.offer(group, cand)?;
                    }
                }
            }
        }

        // ---- Fractured-read chain. ----
        group += 1;
        'fractured: for (i1, wa1) in ta.iter().enumerate() {
            if walk.done(group) {
                break;
            }
            if !is_write(wa1) {
                continue;
            }
            for (i2, wa2) in ta.iter().enumerate() {
                if i2 == i1 || !is_write(wa2) {
                    continue;
                }
                for (i3, rb) in tb.iter().enumerate() {
                    if !is_select(rb) || !observes(wa1, rb) {
                        continue;
                    }
                    for (i4, wb) in tb.iter().enumerate() {
                        if i4 <= i3 || !is_write(wb) || !data_dep(rb, wb) {
                            continue;
                        }
                        for (i5, rc1) in tc.iter().enumerate() {
                            if !is_select(rc1) || !observes(wb, rc1) {
                                continue;
                            }
                            for (i6, rc2) in tc.iter().enumerate() {
                                if i6 <= i5 || !is_select(rc2) || !observes(wa2, rc2) {
                                    continue;
                                }
                                let cand = Candidate::Fractured {
                                    wa1: at(i1),
                                    wa2: at(i2),
                                    rb: bt(i3),
                                    wb: bt(i4),
                                    rc1: ct(i5),
                                    rc2: ct(i6),
                                };
                                walk.offer(group, cand)?;
                                continue 'fractured;
                            }
                        }
                    }
                }
            }
        }
    }
    ControlFlow::Continue(())
}

/// Walks one work item's candidates against the query oracle `sat`
/// (which fixes the consistency level and the solving path): the first
/// satisfiable query of a candidate confirms it. Returns the confirmed
/// verdicts in positional form (see [`Candidate::reports`]).
pub(crate) fn analyse(
    ts: &[&TxnSummary],
    fps: &[u64],
    model: &InstanceModel,
    symmetric: bool,
    sat: &mut dyn FnMut(Vec<VisRequirement>) -> bool,
) -> Vec<AccessPair> {
    let mut out = Vec::new();
    let _ = for_each_candidate(ts, fps, model, symmetric, &mut |cand| {
        let confirmed = cand
            .queries(model)
            .is_some_and(|queries| queries.into_iter().any(&mut *sat));
        if confirmed {
            out.extend(cand.reports(model, ts));
        }
        ControlFlow::Continue(confirmed)
    });
    out
}

/// One query against a work item's incremental solver, built (and seeded
/// with `seed`'s lemmas) on first use: the solver construction and
/// fresh-equivalent clause accounting shared by [`solve`] and the
/// differential reference, so the two cannot drift apart.
pub(crate) fn query(
    solver: &mut Option<PairSolver>,
    model: &InstanceModel,
    level: ConsistencyLevel,
    reqs: &[VisRequirement],
    stats: &mut DetectStats,
    seed: Option<&[Vec<Lit>]>,
    proofs: bool,
) -> bool {
    let ps = solver.get_or_insert_with(|| {
        let mut ps = PairSolver::with_proofs(model, proofs);
        if let Some(seed) = seed {
            ps.seed_learnts(seed);
            stats.learnt_seeded += seed.len() as u64;
        }
        ps
    });
    let r = ps.satisfiable(model, level, reqs);
    stats.clauses_fresh_equivalent += ps.fresh_equivalent_clauses(level) as u64;
    r
}

/// Retained analysis state of one work item — an ordered transaction pair
/// or a canonical triple: the grounded model and, once a query was
/// issued, the incremental solver built on it. Held in the verdict cache's
/// sharded retention maps; `Send` (pinned below), so a state built on one
/// engine worker migrates freely to another between passes.
pub(crate) struct SolveState {
    pub(crate) model: InstanceModel,
    pub(crate) solver: Option<PairSolver>,
    /// The item's transaction names, in instance order.
    pub(crate) txns: Vec<String>,
}

impl SolveState {
    /// Grounds a fresh analysis state over `ts`, in instance order.
    pub(crate) fn new(ts: &[&TxnSummary]) -> SolveState {
        SolveState {
            model: InstanceModel::new_multi(ts),
            solver: None,
            txns: ts.iter().map(|t| t.name.clone()).collect(),
        }
    }
}

const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<SolveState>();
};

/// Analyses one dirty (cache-missed) work item against its retained (or
/// freshly grounded) state: memoized queries on the state's lazily built
/// solver (seeded from `seed` when it is built here), first-hit groups,
/// and, once done, the item's [`DetectStats`] delta (a retained solver's
/// counters are cumulative across calls) and the certificates of its
/// UNSAT queries. `ts` is in the state's instance order. The verdicts come
/// back in the cache's positional form.
pub(crate) fn solve(
    ts: &[&TxnSummary],
    fps: &[u64],
    symmetric: bool,
    level: ConsistencyLevel,
    state: &mut SolveState,
    seed: Option<&[Vec<Lit>]>,
    proofs: bool,
) -> (Vec<AccessPair>, DetectStats, Vec<Vec<u8>>) {
    let mut stats = DetectStats::default();
    let before = state
        .solver
        .as_ref()
        .map(|s| (s.encoded_clauses(), s.solver_stats()));
    let (model, solver) = (&state.model, &mut state.solver);
    let mut memo: HashMap<Vec<VisRequirement>, bool> = HashMap::new();
    let pairs = analyse(ts, fps, model, symmetric, &mut |reqs| {
        if let Some(&r) = memo.get(&reqs) {
            stats.memo_hits += 1;
            return r;
        }
        stats.queries += 1;
        let r = query(solver, model, level, &reqs, &mut stats, seed, proofs);
        stats.sat_queries += u64::from(r);
        memo.insert(reqs, r);
        r
    });
    let mut certs = Vec::new();
    if let Some(ps) = &mut state.solver {
        let (c0, s0) = before.unwrap_or_default();
        let s = ps.solver_stats();
        stats.conflicts += s.conflicts - s0.conflicts;
        stats.propagations += s.propagations - s0.propagations;
        stats.decisions += s.decisions - s0.decisions;
        stats.clauses_encoded += (ps.encoded_clauses() - c0) as u64;
        certs = ps.take_certificates();
    }
    (pairs, stats, certs)
}
