//! The committed expected outputs (`reference.txt`): for each program and
//! detection pass its verdict count and digest, and for each program an
//! upper bound on the anomalies its repair may leave. Every op's output is
//! checked against this file; `--write-reference` regenerates it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use atropos_core::{repair_with_engine, RepairConfig};
use atropos_detect::{ConsistencyLevel, DetectMode, DetectSession, DetectionEngine};

use crate::programs::{digest, PROGRAMS};

/// The three detection passes of a cold analysis, with their span names.
pub const PASSES: [(&str, &str, ConsistencyLevel, DetectMode); 3] = [
    (
        "pairs-ec",
        "engine.pairs_ec",
        ConsistencyLevel::EventualConsistency,
        DetectMode::Pairs,
    ),
    (
        "pairs-cc",
        "engine.pairs_cc",
        ConsistencyLevel::CausalConsistency,
        DetectMode::Pairs,
    ),
    (
        "triples-ec",
        "engine.triples_ec",
        ConsistencyLevel::EventualConsistency,
        DetectMode::Triples,
    ),
];

const COMMITTED: &str = include_str!("../reference.txt");

/// Parsed reference file.
pub struct Reference {
    verdicts: BTreeMap<(String, String), (usize, u64)>,
    remaining: BTreeMap<String, usize>,
}

impl Reference {
    /// Parses the committed file.
    pub fn load() -> Result<Reference, String> {
        let mut r = Reference {
            verdicts: BTreeMap::new(),
            remaining: BTreeMap::new(),
        };
        for (n, line) in COMMITTED.lines().enumerate() {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("reference.txt:{}: malformed line", n + 1);
            match fields.as_slice() {
                [] => {}
                [first, ..] if first.starts_with('#') => {}
                ["verdicts", program, pass, count, hash] => {
                    let count = count.parse().map_err(|_| bad())?;
                    let hash = u64::from_str_radix(hash, 16).map_err(|_| bad())?;
                    r.verdicts
                        .insert((program.to_string(), pass.to_string()), (count, hash));
                }
                ["remaining", program, max] => {
                    r.remaining
                        .insert(program.to_string(), max.parse().map_err(|_| bad())?);
                }
                _ => return Err(bad()),
            }
        }
        for p in &PROGRAMS {
            for (pass, ..) in PASSES {
                if !r
                    .verdicts
                    .contains_key(&(p.name.to_owned(), pass.to_owned()))
                {
                    return Err(format!("reference.txt: no {pass} entry for {}", p.name));
                }
            }
            if !r.remaining.contains_key(p.name) {
                return Err(format!("reference.txt: no remaining bound for {}", p.name));
            }
        }
        Ok(r)
    }

    /// Expected `(count, digest)` of `program`'s verdicts on `pass`.
    pub fn verdicts(&self, program: &str, pass: &str) -> (usize, u64) {
        self.verdicts[&(program.to_owned(), pass.to_owned())]
    }

    /// The most anomalies `program`'s repair may leave.
    pub fn remaining_max(&self, program: &str) -> usize {
        self.remaining[program]
    }
}

/// The pass a program's repair detects with (its initial verdicts).
pub fn repair_pass(mode: DetectMode) -> &'static str {
    match mode {
        DetectMode::Pairs => "pairs-ec",
        DetectMode::Triples => "triples-ec",
    }
}

/// Recomputes the reference from the current code and returns the file.
pub fn generate() -> Result<String, String> {
    let mut out = String::from(
        "# Expected benchmark outputs, one program per block.\n\
         # verdicts <program> <pass> <count> <digest>: digest of the sorted verdicts.\n\
         # remaining <program> <max>: most anomalies the program's EC repair may leave.\n\
         # Regenerate with: cargo run --release --manifest-path perfbench/Cargo.toml -- --write-reference\n",
    );
    for p in &PROGRAMS {
        let program = atropos_dsl::parse(p.text).map_err(|e| format!("{}: {e}", p.name))?;
        let engine = DetectionEngine::new(1)
            .with_proofs(false)
            .with_learnt_pool(false);
        for (pass, _, level, mode) in PASSES {
            let mut session = DetectSession::new();
            let (verdicts, _) = engine.detect_with_mode(&program, level, mode, &mut session);
            let (count, hash) = digest(&verdicts);
            let _ = writeln!(out, "verdicts {} {pass} {count} {hash:016x}", p.name);
        }
        let config = RepairConfig {
            mode: p.repair_mode,
            ..RepairConfig::default()
        };
        let report = repair_with_engine(&program, &config, &engine, &mut DetectSession::new());
        let _ = writeln!(out, "remaining {} {}", p.name, report.remaining.len());
    }
    Ok(out)
}
