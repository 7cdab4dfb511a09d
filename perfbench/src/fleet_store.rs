//! `fleet-store`: one op plays a CI job over a batch of generated program
//! texts. It opens the on-disk verdict store (which persists across ops),
//! analyses the batch at EC in pairs mode with corpus-wide dedup, checks
//! the verdicts and merges them back. Set-up fills the store with untimed
//! jobs and snapshots it; every round of `ROUND` jobs starts from that
//! snapshot (restored outside the timed ops), and its last job compacts the
//! store back to the snapshot's size. So rounds repeat the same work and op
//! cost does not drift with run length.
//!
//! A batch holds every base program four times. Each copy draws a schema
//! variant from its base's window, which slides by one variant every
//! `SLIDE_OPS` ops (staggered across bases), and a text layout. Renaming
//! schemas is a change the detector sees (new pair keys); a layout is one
//! it does not (keys reused). Most keys therefore hit the store while a
//! steady share are new and get solved and written. Transactions and
//! command labels keep their names: see `README.md` for why.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use atropos_detect::corpus::{CorpusStore, EvictionPolicy};
use atropos_detect::{
    analyse_corpus, ConsistencyLevel, DetectMode, DetectSession, DetectionEngine,
};
use atropos_dsl::{Program, Stmt};

use crate::harness::{OpOutcome, Workload};
use crate::programs::{digest, Rng, PROGRAMS};
use crate::reference::Reference;
use crate::trace::Tracer;

/// Programs per batch: four of each base program.
const BATCH: usize = 40;
/// Schema variants of one base program a batch draws from.
const WINDOW: u64 = 4;
/// Ops between two steps of one base program's window.
const SLIDE_OPS: u64 = 4;
/// Text layouts a program draws from.
const LAYOUTS: u64 = 8;
/// Jobs per round; the last one compacts.
const ROUND: u64 = 8;
/// Untimed jobs in set-up: enough for every base program's window to have
/// moved past its first variants, so the store holds stale entries too. A
/// multiple of `ROUND`, so job `g` is job `g % ROUND` of its round.
const WARM_OPS: u64 = 16;
const _: () = assert!(WARM_OPS.is_multiple_of(ROUND));
/// Labels of the jobs of a round.
const JOBS: [&str; ROUND as usize] = [
    "job1", "job2", "job3", "job4", "job5", "job6", "job7", "job8",
];

/// Pinned engine: one worker, proofs off, learnt pool on.
fn engine() -> DetectionEngine {
    DetectionEngine::new(1)
        .with_proofs(false)
        .with_learnt_pool(true)
}

/// One generated program text and the base program it derives from.
struct Generated {
    name: String,
    text: String,
    base: usize,
}

/// Prefixes every schema a command names with `prefix`. A prefix keeps
/// the schemas' relative order, which the detector's output follows.
fn rename_schemas(body: &mut [Stmt], prefix: &str) {
    for stmt in body {
        match stmt {
            Stmt::Select(c) => c.schema.insert_str(0, prefix),
            Stmt::Update(c) => c.schema.insert_str(0, prefix),
            Stmt::Insert(c) => c.schema.insert_str(0, prefix),
            Stmt::Delete(c) => c.schema.insert_str(0, prefix),
            Stmt::If { body, .. } | Stmt::Iterate { body, .. } => rename_schemas(body, prefix),
        }
    }
}

/// The text of schema variant `v` of a base program, in layout `r`: a
/// comment before each transaction, which changes the text and not the
/// program.
fn variant_text(base: &Program, v: u64, r: u64) -> String {
    let mut p = base.clone();
    let prefix = format!("V{v}_");
    for s in &mut p.schemas {
        s.name.insert_str(0, &prefix);
    }
    for t in &mut p.transactions {
        rename_schemas(&mut t.body, &prefix);
    }
    atropos_dsl::print_program(&p).replace("\ntxn ", &format!("\n// layout {r}\ntxn "))
}

pub struct FleetStore {
    seed: u64,
    bases: Vec<Program>,
    reference: Reference,
    dir: PathBuf,
    snapshot: PathBuf,
    /// Entries of the snapshot: the size compaction returns the store to.
    store_cap: usize,
}

impl FleetStore {
    pub fn new(seed: u64) -> Result<FleetStore, String> {
        let bases = PROGRAMS
            .iter()
            .map(|p| atropos_dsl::parse(p.text).map_err(|e| format!("{}: {e}", p.name)))
            .collect::<Result<_, _>>()?;
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let dir = out.join(format!("store-{}", std::process::id()));
        let snapshot = out.join(format!("store-{}.snapshot", std::process::id()));
        Ok(FleetStore {
            seed,
            bases,
            reference: Reference::load()?,
            dir,
            snapshot,
            store_cap: 0,
        })
    }

    /// The batch of global op `g`, from the seed alone.
    fn batch(&self, g: u64) -> Vec<Generated> {
        let mut rng = Rng::new(self.seed ^ g.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        (0..BATCH)
            .map(|i| {
                // Every base program equally often, each with its window
                // stepping at its own job; the first copy takes the newest
                // variant, so a step's new keys arrive in that job. The
                // first job of set-up takes every variant of every window,
                // so the cold fill (the memory peak) is the same for every
                // seed.
                let base = i % self.bases.len();
                let copy = (i / self.bases.len()) as u64;
                let start = (g + base as u64) / SLIDE_OPS;
                let v = if g == 0 {
                    start + copy % WINDOW
                } else if copy == 0 {
                    start + WINDOW - 1
                } else {
                    start + rng.below(WINDOW)
                };
                let r = rng.below(LAYOUTS);
                Generated {
                    name: format!("{}-v{v}-r{r}-{i}", PROGRAMS[base].name),
                    text: variant_text(&self.bases[base], v, r),
                    base,
                }
            })
            .collect()
    }

    /// One CI job over the batch of global op `g`, compacting the store to
    /// `compact_to` entries at the end when given.
    fn job(&mut self, g: u64, compact_to: Option<usize>, tr: &mut Tracer) -> OpOutcome {
        let batch = self.batch(g);
        let dir = self.dir.clone();
        let started = Instant::now();
        let outcome = tr.span("op", |tr| -> Result<_, String> {
            let (store, mut session) = tr
                .span("store.load", |_| {
                    Ok::<_, std::io::Error>((
                        CorpusStore::open(&dir)?,
                        DetectSession::load_from(&dir)?,
                    ))
                })
                .map_err(|e| format!("store load: {e}"))?;
            let programs = tr.span("dsl.parse", |_| {
                batch
                    .iter()
                    .map(|g| atropos_dsl::parse(&g.text).map(|p| (g.name.clone(), p)))
                    .collect::<Result<Vec<_>, _>>()
            });
            let programs = programs.map_err(|e| format!("parse: {e}"))?;
            session.begin_run();
            let (verdicts, stats) = tr.span("corpus.analyse", |_| {
                analyse_corpus(
                    &engine(),
                    &programs,
                    ConsistencyLevel::EventualConsistency,
                    DetectMode::Pairs,
                    &mut session,
                )
            });
            let added = tr
                .span("store.merge", |_| store.merge_session(&session))
                .map_err(|e| format!("store merge: {e}"))?;
            let compacted = compact_to.is_some();
            if compacted {
                let policy = EvictionPolicy {
                    max_age_secs: None,
                    max_entries: compact_to,
                };
                tr.span("store.compact", |_| store.compact(&policy))
                    .map_err(|e| format!("store compact: {e}"))?;
            }
            Ok((store, session, verdicts, stats, added, compacted))
        });
        let latency = started.elapsed().as_secs_f64();
        let mut failures = Vec::new();
        match outcome {
            Err(e) => failures.push(e),
            Ok((store, session, verdicts, stats, added, compacted)) => {
                for (g, v) in batch.iter().zip(&verdicts) {
                    let got = digest(&v.verdicts);
                    if got != self.reference.verdicts(PROGRAMS[g.base].name, "pairs-ec") {
                        failures.push(format!(
                            "{}: verdicts {got:?} differ from reference",
                            g.name
                        ));
                    }
                }
                if verdicts.len() != batch.len() {
                    failures.push(format!(
                        "{} verdict lists for {} programs",
                        verdicts.len(),
                        batch.len()
                    ));
                }
                if tr.enabled() {
                    let entries = store.entry_count().unwrap_or_else(|e| {
                        failures.push(format!("store entry count: {e}"));
                        0
                    });
                    let bytes = store_bytes(&self.dir);
                    tr.count("store.ops", 1.0);
                    tr.count("store.entries", entries as f64);
                    tr.count("store.bytes", bytes as f64);
                    if !compacted {
                        // The merge rewrote every shard holding an entry.
                        tr.count("store.bytes_written", bytes as f64);
                        tr.count("store.new_entries", added as f64);
                    }
                    tr.count("corpus.pair_slots", stats.pair_slots as f64);
                    tr.count("corpus.unique_pairs", stats.unique_pairs as f64);
                    let s = &stats.solve;
                    tr.count("sat.queries", s.queries as f64);
                    tr.count("sat.sat_queries", s.sat_queries as f64);
                    tr.count("sat.propagations", s.propagations as f64);
                    tr.count("sat.conflicts", s.conflicts as f64);
                    tr.count("sat.decisions", s.decisions as f64);
                    tr.count("sat.learnt_seeded", s.learnt_seeded as f64);
                    tr.count("encode.clauses_encoded", s.clauses_encoded as f64);
                    let solved: u64 = session.per_worker().iter().map(|w| w.pairs_solved).sum();
                    tr.count("engine.items_solved", solved as f64);
                    let cache = session.cache_stats();
                    tr.count("cache.lookups", cache.lookups as f64);
                    tr.count("cache.hits", cache.hits as f64);
                    tr.count("cache.solver_reuses", cache.solver_reuses as f64);
                    tr.count("cache.cross_run_hits", cache.cross_run_hits as f64);
                }
            }
        }
        OpOutcome {
            latency,
            programs: BATCH as u64,
            failures,
            label: JOBS[(g % ROUND) as usize],
        }
    }
}

/// Bytes held by the store's files.
fn store_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

impl Workload for FleetStore {
    fn round(&self) -> u64 {
        ROUND
    }

    fn setup(&mut self) -> Result<(), String> {
        // A fresh store, filled to its steady size by untimed jobs, then
        // snapshotted for the rounds to start from.
        self.reference = Reference::load()?;
        if self.dir.exists() {
            fs::remove_dir_all(&self.dir).map_err(|e| e.to_string())?;
        }
        let mut tr = Tracer::new(false);
        for g in 0..WARM_OPS {
            let out = self.job(g, None, &mut tr);
            if let Some(f) = out.failures.first() {
                return Err(format!("set-up job {g}: {f}"));
            }
        }
        self.store_cap = CorpusStore::open(&self.dir)
            .and_then(|store| store.entry_count())
            .map_err(|e| format!("store: {e}"))?;
        copy_dir(&self.dir, &self.snapshot).map_err(|e| format!("snapshot: {e}"))
    }

    fn op(&mut self, k: u64, tr: &mut Tracer) -> OpOutcome {
        let j = k % ROUND;
        if j == 0 && k > 0 {
            if let Err(e) = copy_dir(&self.snapshot, &self.dir) {
                return OpOutcome {
                    latency: 0.0,
                    programs: 0,
                    failures: vec![format!("restore snapshot: {e}")],
                    label: JOBS[j as usize],
                };
            }
        }
        let compact_to = (j == ROUND - 1).then_some(self.store_cap);
        self.job(WARM_OPS + j, compact_to, tr)
    }
}

/// Replaces `to` with a copy of the files of `from`.
fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    if to.exists() {
        fs::remove_dir_all(to)?;
    }
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

impl Drop for FleetStore {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
        let _ = fs::remove_dir_all(&self.snapshot);
    }
}
