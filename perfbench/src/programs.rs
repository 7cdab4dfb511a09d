//! The ten benchmark programs (pinned copies of the repository's DSL
//! corpus), the seeded generator of op orders, and the verdict digests the
//! reference file records.

use atropos_detect::{AccessPair, DetectMode};

/// One benchmark program: its corpus name, its name in the workload
/// registry (for the simulated transaction mix) and the detection bound
/// its repair runs under.
pub struct BenchProgram {
    pub name: &'static str,
    pub registry: &'static str,
    pub repair_mode: DetectMode,
    pub text: &'static str,
}

macro_rules! program {
    ($name:literal, $registry:literal, $mode:expr) => {
        BenchProgram {
            name: $name,
            registry: $registry,
            repair_mode: $mode,
            text: include_str!(concat!("../programs/", $name, ".dsl")),
        }
    };
}

/// The nine Table 1 programs repair in pairs mode; Relay's violation needs
/// three instances, so it repairs in triples mode.
pub const PROGRAMS: [BenchProgram; 10] = [
    program!("courseware", "Courseware", DetectMode::Pairs),
    program!("fmke", "FMKe", DetectMode::Pairs),
    program!("killrchat", "Killrchat", DetectMode::Pairs),
    program!("relay", "Relay", DetectMode::Triples),
    program!("seats", "SEATS", DetectMode::Pairs),
    program!("sibench", "SIBench", DetectMode::Pairs),
    program!("smallbank", "SmallBank", DetectMode::Pairs),
    program!("tpcc", "TPC-C", DetectMode::Pairs),
    program!("twitter", "Twitter", DetectMode::Pairs),
    program!("wikipedia", "Wikipedia", DetectMode::Pairs),
];

/// SplitMix64: a small seeded generator, so the benchmark's inputs depend
/// on `--seed` alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_A720_5B3C_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Round-based op order: round `r` is a permutation of the ten programs,
/// drawn from the seed, so every seed runs the same mix.
pub struct Rounds {
    rng: Rng,
    current: Vec<usize>,
}

impl Rounds {
    pub fn new(seed: u64) -> Rounds {
        Rounds {
            rng: Rng::new(seed),
            current: Vec::new(),
        }
    }

    /// The program index of the next op.
    pub fn next_program(&mut self) -> usize {
        if self.current.is_empty() {
            let mut order: Vec<usize> = (0..PROGRAMS.len()).collect();
            for i in (1..order.len()).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                order.swap(i, j);
            }
            // Popped from the back.
            order.reverse();
            self.current = order;
        }
        self.current.pop().expect("refilled above")
    }
}

/// Count and digest of a verdict list, independent of verdict order.
pub fn digest(verdicts: &[AccessPair]) -> (usize, u64) {
    let mut lines: Vec<String> = verdicts.iter().map(|v| format!("{v:?}")).collect();
    lines.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for line in &lines {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (verdicts.len(), h)
}
