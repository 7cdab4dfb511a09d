//! A fixed piece of work that measures how fast the machine runs at the
//! moment, so that op latencies can be read at one reference speed.
//!
//! On a shared machine the same op runs up to 1.7x slower for seconds to
//! minutes at a time, and a whole run can fall into such a stretch (see
//! `README.md`). The yardstick is code of the benchmark's own, independent
//! of the program, in two parts that each followed the ops' slowdown on some
//! workloads and together followed it on all three:
//!
//! * a pointer chase over a 1 MiB cyclic permutation (it fits the per-core
//!   L2, where the SAT core's watch lists and clause arena live);
//! * unit propagation over a fixed random 3-CNF of 8,192 variables and
//!   30,000 clauses through occurrence lists, the access pattern of a SAT
//!   solver's inner loop.
//!
//! It allocates nothing once built, so the state of the program's heap does
//! not change its time. The harness runs it between rounds of ops and
//! scales each op's latency by `REFERENCE_SECONDS / yardstick seconds`, so
//! a stretch that slows both cancels out, while a change to the program
//! shows in full.

use std::hint::black_box;
use std::time::Instant;

use crate::programs::Rng;

/// Entries of the permutation (4 bytes each: 1 MiB).
const SLOTS: usize = 1 << 18;
/// Pointer-chase steps per repetition.
const STEPS: usize = 80_000;
/// Variables and clauses of the propagation formula.
const VARS: u32 = 8192;
const CLAUSES: u32 = 30_000;
/// Decision literals per propagation pass.
const DECISIONS: usize = 2048;
/// Assignments after which a propagation pass backtracks to the root.
const MAX_TRAIL: usize = 600;
/// Propagation passes per repetition.
const PASSES: usize = 1;
/// Repetitions per measurement; the fastest one counts, because noise only
/// adds time and the first one also warms the caches the ops left cold.
const REPS: usize = 5;

/// Seconds one repetition takes on the reference machine (a quiet 2-vCPU
/// virtualized Intel Xeon, model 143, release build). Scaled latencies
/// read as seconds on that machine.
pub const REFERENCE_SECONDS: f64 = 1.14e-3;

pub struct Yardstick {
    chase: Vec<u32>,
    /// Literals of clause `c` at `3c..3c + 3`; literal `2v + s` is variable
    /// `v`, negated when `s == 1`.
    lits: Vec<u32>,
    /// Clauses each literal occurs in.
    occurs: Vec<Vec<u32>>,
    decisions: Vec<u32>,
    /// Per variable: 0 unassigned, 1 true, -1 false.
    value: Vec<i8>,
    trail: Vec<u32>,
}

impl Yardstick {
    pub fn new() -> Yardstick {
        let mut rng = Rng::new(0x2545_F491_4F6C_DD1D);
        // Sattolo's algorithm: a single cycle through every slot, so the
        // chase visits the whole table.
        let mut chase: Vec<u32> = (0..SLOTS as u32).collect();
        for i in (1..SLOTS).rev() {
            chase.swap(i, rng.below(i as u64) as usize);
        }
        let mut literal = || rng.below(2 * u64::from(VARS)) as u32;
        let mut lits = Vec::with_capacity(3 * CLAUSES as usize);
        let mut occurs = vec![Vec::new(); 2 * VARS as usize];
        for c in 0..CLAUSES {
            for _ in 0..3 {
                let l = literal();
                lits.push(l);
                occurs[l as usize].push(c);
            }
        }
        let decisions = (0..DECISIONS).map(|_| literal()).collect();
        Yardstick {
            chase,
            lits,
            occurs,
            decisions,
            value: vec![0; VARS as usize],
            trail: Vec::with_capacity(VARS as usize),
        }
    }

    fn value_of(&self, l: u32) -> i8 {
        let v = self.value[(l >> 1) as usize];
        if l & 1 == 1 {
            -v
        } else {
            v
        }
    }

    fn assign(&mut self, l: u32) {
        self.value[(l >> 1) as usize] = if l & 1 == 1 { -1 } else { 1 };
        self.trail.push(l);
    }

    fn backtrack(&mut self) {
        for &l in &self.trail {
            self.value[(l >> 1) as usize] = 0;
        }
        self.trail.clear();
    }

    /// Decides the fixed literals in turn and propagates each, going back
    /// to the root on a conflict or a full trail. Returns the implied
    /// assignments.
    fn propagate_pass(&mut self) -> u64 {
        let mut implied = 0;
        let mut d = 0;
        while d < self.decisions.len() {
            self.backtrack();
            let mut head = 0;
            let mut conflict = false;
            while !conflict && self.trail.len() < MAX_TRAIL && d < self.decisions.len() {
                let l = self.decisions[d];
                d += 1;
                if self.value_of(l) != 0 {
                    continue;
                }
                self.assign(l);
                while head < self.trail.len() && !conflict {
                    let falsified = self.trail[head] ^ 1;
                    head += 1;
                    for k in 0..self.occurs[falsified as usize].len() {
                        let c = self.occurs[falsified as usize][k] as usize;
                        let (mut free, mut last, mut satisfied) = (0, 0, false);
                        for &m in &self.lits[3 * c..3 * c + 3] {
                            match self.value_of(m) {
                                1 => satisfied = true,
                                0 => {
                                    free += 1;
                                    last = m;
                                }
                                _ => {}
                            }
                        }
                        if satisfied {
                            continue;
                        }
                        match free {
                            0 => {
                                conflict = true;
                                break;
                            }
                            1 => {
                                self.assign(last);
                                implied += 1;
                            }
                            _ => {}
                        }
                    }
                }
            }
        }
        self.backtrack();
        implied
    }

    /// Seconds of one repetition.
    fn rep(&mut self) -> f64 {
        let started = Instant::now();
        let mut i = 0u32;
        for _ in 0..STEPS {
            i = self.chase[i as usize];
        }
        black_box(i);
        for _ in 0..PASSES {
            black_box(self.propagate_pass());
        }
        started.elapsed().as_secs_f64()
    }

    /// Seconds of the fastest of `REPS` repetitions.
    pub fn measure(&mut self) -> f64 {
        (0..REPS).map(|_| self.rep()).fold(f64::INFINITY, f64::min)
    }
}
