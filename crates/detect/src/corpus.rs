//! Fleet-scale detection: the sharded `verdict_cache.v2` store and the
//! batch corpus service.
//!
//! # The v2 store
//!
//! [`CorpusStore`] is the one on-disk format of the verdict cache: a
//! **directory** of [`SHARD_COUNT`] shard files keyed by fingerprint
//! prefix (the high nibble of the entry's first canonical fingerprint
//! picks the shard):
//!
//! * every shard is a record log — a magic/revision header followed by
//!   length-prefixed records, each carrying an FNV-1a checksum, a
//!   coarse unix-seconds stamp (the eviction clock), and one pair or
//!   triple verdict entry in the `cache::persist` entry encoding;
//! * shards are written via sibling tempfile + atomic rename, so a crash
//!   at any point leaves either the old shard or the new one — never a
//!   truncated hybrid;
//! * a per-shard advisory lock file (`shard-NN.lock`, acquired with
//!   `O_EXCL`-style `create_new`) serializes writers: a merge reads the
//!   current shard under the lock, unions its entries in, and rewrites —
//!   so two concurrent sessions **merge instead of clobber** (the union
//!   of their verdicts survives, proven by the concurrency tests);
//! * [`CorpusStore::compact`] rewrites every shard under all locks,
//!   applying an [`EvictionPolicy`] (max age, max entry count —
//!   oldest-stamped entries go first).
//!
//! [`crate::DetectSession::save_to`] and
//! [`crate::DetectSession::load_from`] always mean a store directory. A
//! path that is a regular file — such as a cache written in the retired
//! monolithic `verdict_cache.v1` format — is refused with `InvalidData`.
//!
//! # The corpus service
//!
//! The paper's detection phase is embarrassingly fingerprint-dedupable
//! across programs: a fleet ships near-identical transaction shapes, so a
//! corpus is mostly repeated fingerprints. [`analyse_corpus`] (and the
//! [`CorpusService`] around it) runs the engine's one detection pass over
//! the whole corpus: every program's slots are planned against the shared
//! session, each distinct dirty key is solved exactly once on one worker
//! pool, and every program reads its verdicts back in its own labels.
//! Per-program verdicts are byte-identical to detecting each program in
//! isolation (pinned by `tests/corpus_differential.rs` at 1/2/8 threads)
//! — the corpus pass only changes how often the solver runs, never what
//! it concludes.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime};

use atropos_dsl::Program;

use crate::cache::persist::{self, bad};
use crate::cache::{TripleEntry, TripleVerdictKey, VerdictCache, VerdictEntry, VerdictKey};
use crate::detect::{AccessPair, DetectStats};
use crate::encode::ConsistencyLevel;
use crate::engine::{DetectMode, DetectionEngine};
use crate::session::DetectSession;

/// Number of shard files a v2 store spreads its entries over. An entry's
/// shard is the high nibble of its first canonical fingerprint, so the
/// assignment is stable across processes and store generations.
pub const SHARD_COUNT: usize = 16;

/// Magic + version header of one v2 shard file.
const SHARD_MAGIC: &[u8; 8] = b"ATRVC\x02\0\0";

/// How long a writer waits for a shard lock before giving up.
const LOCK_TIMEOUT: Duration = Duration::from_secs(10);

/// Age after which a lock file is presumed abandoned (a crashed holder)
/// and taken over.
const LOCK_STALE_AFTER: Duration = Duration::from_secs(30);

/// FNV-1a 64-bit over `bytes`: the per-record checksum. Chosen over the
/// std hasher because its value is pinned by the algorithm, not by the
/// std implementation — records written by one build verify under any
/// other.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Coarse wall-clock stamp (unix seconds) for new records — the eviction
/// clock, not an ordering primitive.
fn now_secs() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes `bytes` to `path` via a sibling tempfile and an atomic rename,
/// so a crash at any point leaves either the old file or the new one —
/// never a truncation. The temp name carries the pid and a process-local
/// sequence number, so concurrent writers in one or many processes never
/// collide on it.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_sibling(path);
    if let Err(e) = fs::write(&tmp, bytes) {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    fs::rename(&tmp, path).inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })
}

/// The sibling tempfile [`write_atomic`] stages into before renaming over
/// `path` — exposed so the crash-regression test can plant exactly the
/// partial file a writer killed mid-write would leave behind.
pub(crate) fn tmp_sibling(path: &Path) -> PathBuf {
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    path.with_file_name(format!(".{name}.tmp.{}.{seq}", std::process::id()))
}

/// RAII advisory lock on one shard: a `shard-NN.lock` file created with
/// `create_new` (fails if it exists), deleted on drop. Waiters poll; a
/// lock older than [`LOCK_STALE_AFTER`] is presumed abandoned by a
/// crashed holder and removed.
struct ShardLock {
    path: PathBuf,
}

impl ShardLock {
    fn acquire(dir: &Path, shard: usize) -> io::Result<ShardLock> {
        let path = dir.join(format!("shard-{shard:02}.lock"));
        let started = Instant::now();
        loop {
            match fs::OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(_) => return Ok(ShardLock { path }),
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let stale = fs::metadata(&path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|m| m.elapsed().ok())
                        .is_some_and(|age| age > LOCK_STALE_AFTER);
                    if stale {
                        // Take over an abandoned lock; a racing taker just
                        // loops back to create_new.
                        let _ = fs::remove_file(&path);
                        continue;
                    }
                    if started.elapsed() > LOCK_TIMEOUT {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!("timed out waiting for shard lock {}", path.display()),
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for ShardLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// One decoded store record: a pair or triple verdict entry plus its
/// eviction stamp.
enum StoreEntry {
    Pair(VerdictKey, VerdictEntry),
    Triple(TripleVerdictKey, TripleEntry),
}

/// Canonical, totally ordered identity of a record — the union-merge and
/// shard-write key. Pairs and triples share one keyspace (tag first).
type RecordKey = (u8, u64, u64, u64, u8, u8);

fn record_key(e: &StoreEntry) -> RecordKey {
    match e {
        StoreEntry::Pair((fp1, fp2, symmetric, level), _) => {
            (0, *fp1, *fp2, 0, u8::from(*symmetric), level.index() as u8)
        }
        StoreEntry::Triple((fp1, fp2, fp3, level), _) => {
            (1, *fp1, *fp2, *fp3, 0, level.index() as u8)
        }
    }
}

/// The shard an entry lives in: the high nibble of its first canonical
/// fingerprint.
fn shard_of_fp(fp1: u64) -> usize {
    ((fp1 >> 60) as usize) % SHARD_COUNT
}

/// Whether a record from a revision-stale shard may be trusted anyway: it
/// must be a **clean** verdict (an anomaly list would rest on uncertified
/// SAT witnesses) carrying at least one proof certificate, and every
/// certificate must pass the independent `atropos_proof` checker.
fn entry_is_certified(e: &StoreEntry) -> bool {
    let (pairs, proofs) = match e {
        StoreEntry::Pair(_, entry) => (&entry.pairs, &entry.proofs),
        StoreEntry::Triple(_, entry) => (&entry.pairs, &entry.proofs),
    };
    pairs.is_empty()
        && !proofs.is_empty()
        && proofs
            .iter()
            .all(|b| atropos_proof::check_blob(b).is_ok())
}

fn encode_payload(stamp: u64, e: &StoreEntry) -> Vec<u8> {
    let mut out = Vec::new();
    match e {
        StoreEntry::Pair((fp1, fp2, symmetric, level), entry) => {
            out.push(0u8);
            persist::put_u64(&mut out, stamp);
            persist::put_u64(&mut out, *fp1);
            persist::put_u64(&mut out, *fp2);
            out.push(u8::from(*symmetric));
            out.push(level.index() as u8);
            persist::put_str(&mut out, &entry.txn1);
            persist::put_str(&mut out, &entry.txn2);
            persist::put_pairs(&mut out, &entry.pairs);
            persist::put_blobs(&mut out, &entry.proofs);
        }
        StoreEntry::Triple((fp1, fp2, fp3, level), entry) => {
            out.push(1u8);
            persist::put_u64(&mut out, stamp);
            persist::put_u64(&mut out, *fp1);
            persist::put_u64(&mut out, *fp2);
            persist::put_u64(&mut out, *fp3);
            out.push(level.index() as u8);
            for t in &entry.txns {
                persist::put_str(&mut out, t);
            }
            persist::put_pairs(&mut out, &entry.pairs);
            persist::put_blobs(&mut out, &entry.proofs);
        }
    }
    out
}

fn decode_payload(payload: &[u8]) -> io::Result<(u64, StoreEntry)> {
    let mut r = persist::Reader::new(payload);
    let tag = r.u8()?;
    let stamp = r.u64()?;
    let entry = match tag {
        0 => {
            let fp1 = r.u64()?;
            let fp2 = r.u64()?;
            let symmetric = r.u8()? != 0;
            let level = ConsistencyLevel::from_index(r.u8()? as usize)
                .ok_or_else(|| bad("unknown consistency-level tag"))?;
            let txn1 = r.string()?;
            let txn2 = r.string()?;
            let pairs = r.pairs()?;
            let proofs = r.blobs()?;
            StoreEntry::Pair(
                (fp1, fp2, symmetric, level),
                VerdictEntry {
                    txn1,
                    txn2,
                    run: 0,
                    pairs,
                    proofs,
                },
            )
        }
        1 => {
            let fp1 = r.u64()?;
            let fp2 = r.u64()?;
            let fp3 = r.u64()?;
            let level = ConsistencyLevel::from_index(r.u8()? as usize)
                .ok_or_else(|| bad("unknown consistency-level tag"))?;
            let txns = [r.string()?, r.string()?, r.string()?];
            let pairs = r.pairs()?;
            let proofs = r.blobs()?;
            StoreEntry::Triple(
                (fp1, fp2, fp3, level),
                TripleEntry {
                    txns,
                    run: 0,
                    pairs,
                    proofs,
                },
            )
        }
        t => return Err(bad(&format!("unknown record tag {t}"))),
    };
    Ok((stamp, entry))
}

/// Which records a [`CorpusStore::compact`] pass drops. The default
/// evicts nothing (compaction then only rewrites shards, dropping
/// duplicate generations).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvictionPolicy {
    /// Evict records whose stamp is older than this many seconds.
    pub max_age_secs: Option<u64>,
    /// Keep at most this many records store-wide; oldest stamps evicted
    /// first (ties broken by record key, so the cut is deterministic).
    pub max_entries: Option<usize>,
}

/// What one [`CorpusStore::compact`] pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionReport {
    /// Records surviving in the rewritten store.
    pub kept: usize,
    /// Records dropped by the eviction policy.
    pub evicted: usize,
}

/// A sharded, concurrently mergeable on-disk verdict store — the
/// `verdict_cache.v2` format (see the [module docs](self) for the
/// layout and locking story).
pub struct CorpusStore {
    dir: PathBuf,
}

impl CorpusStore {
    /// Opens (creating if necessary) the store directory at `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; a `path` that is a regular file is refused
    /// with `InvalidData` — a store is always a directory, and a file is
    /// most likely a cache in the retired monolithic `verdict_cache.v1`
    /// format, which this build no longer reads.
    pub fn open(path: impl AsRef<Path>) -> io::Result<CorpusStore> {
        let path = path.as_ref();
        if path.is_file() {
            return Err(bad(&format!(
                "{} is a file, not a store directory (the monolithic verdict_cache.v1 \
                 format is retired; delete the file and let the store regenerate)",
                path.display()
            )));
        }
        fs::create_dir_all(path)?;
        Ok(CorpusStore {
            dir: path.to_path_buf(),
        })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn shard_path(&self, shard: usize) -> PathBuf {
        self.dir.join(format!("shard-{shard:02}.v2"))
    }

    /// Reads and validates one shard file into `into` (keyed records,
    /// newest stamp wins). A missing shard is an empty shard. A shard
    /// written by a different encoder revision is not refused wholesale:
    /// it degrades to per-record salvage, keeping exactly the clean
    /// verdicts whose proof certificates still check (see
    /// [`entry_is_certified`]).
    fn read_shard(
        &self,
        shard: usize,
        into: &mut BTreeMap<RecordKey, (u64, StoreEntry)>,
    ) -> io::Result<()> {
        let bytes = match fs::read(self.shard_path(shard)) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e),
        };
        if bytes.len() < SHARD_MAGIC.len() + 12 {
            return Err(bad("truncated shard header"));
        }
        if &bytes[..8] != SHARD_MAGIC {
            return Err(bad("bad shard magic (not a v2 shard, or a future version)"));
        }
        let revision = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        // A revision mismatch used to refuse the shard wholesale — a stale
        // verdict means "decided by a build whose templates/fingerprints
        // may differ", and trusting it would bypass re-detection. Proof
        // certificates relax this per record: a **clean** verdict whose
        // refutations all still pass the independent checker is evidence
        // in its own right, so it is salvaged; everything else in the
        // stale shard (dirty verdicts — their SAT witnesses carry no
        // certificate — proofless records, and anything malformed) is
        // dropped and will be re-solved.
        let salvage = revision != persist::ENCODER_REVISION;
        let idx = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize;
        let count = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes")) as usize;
        if idx != shard || count != SHARD_COUNT {
            return Err(bad(&format!(
                "shard header names shard {idx}/{count}, expected {shard}/{SHARD_COUNT}"
            )));
        }
        let mut pos = 20;
        while pos < bytes.len() {
            if bytes.len() - pos < 12 {
                if salvage {
                    break;
                }
                return Err(bad("truncated record header"));
            }
            let len =
                u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            let sum = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().expect("8 bytes"));
            pos += 12;
            if bytes.len() - pos < len {
                if salvage {
                    break;
                }
                return Err(bad("truncated record payload"));
            }
            let payload = &bytes[pos..pos + len];
            pos += len;
            if fnv1a(payload) != sum {
                if salvage {
                    continue;
                }
                return Err(bad("record checksum mismatch (corrupt shard)"));
            }
            let (stamp, entry) = match decode_payload(payload) {
                Ok(v) => v,
                Err(_) if salvage => continue,
                Err(e) => return Err(e),
            };
            if salvage && !entry_is_certified(&entry) {
                continue;
            }
            let key = record_key(&entry);
            match into.get(&key) {
                Some((existing, _)) if *existing >= stamp => {}
                _ => {
                    into.insert(key, (stamp, entry));
                }
            }
        }
        Ok(())
    }

    /// Rewrites one shard file (atomically) from its keyed records.
    fn write_shard(
        &self,
        shard: usize,
        records: &BTreeMap<RecordKey, (u64, StoreEntry)>,
    ) -> io::Result<()> {
        let mut out = Vec::new();
        out.extend_from_slice(SHARD_MAGIC);
        persist::put_u32(&mut out, persist::ENCODER_REVISION);
        persist::put_u32(&mut out, shard as u32);
        persist::put_u32(&mut out, SHARD_COUNT as u32);
        for (stamp, entry) in records.values() {
            let payload = encode_payload(*stamp, entry);
            persist::put_u32(&mut out, payload.len() as u32);
            persist::put_u64(&mut out, fnv1a(&payload));
            out.extend_from_slice(&payload);
        }
        write_atomic(&self.shard_path(shard), &out)
    }

    /// Union-merges every verdict entry of `cache` into the store,
    /// stamping new records with the current wall clock. Each touched
    /// shard is read, merged, and atomically rewritten under its
    /// advisory lock, so concurrent sessions merging into one store
    /// produce the union of their verdicts — never a clobber. Returns
    /// the number of records that were new to the store.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; a corrupt shard fails the merge with
    /// `InvalidData` (nothing is overwritten). A revision-stale shard is
    /// salvaged per record instead — certified clean verdicts survive
    /// the merge, everything else is dropped.
    pub fn merge_cache(&self, cache: &VerdictCache) -> io::Result<usize> {
        self.merge_cache_stamped(cache, now_secs())
    }

    /// Union-merges a whole session's verdicts into the store — the
    /// public entry point behind [`crate::DetectSession::save_to`] on a
    /// directory path (see [`CorpusStore::merge_cache`]).
    ///
    /// # Errors
    ///
    /// Propagates the same errors as [`CorpusStore::merge_cache`].
    pub fn merge_session(&self, session: &DetectSession) -> io::Result<usize> {
        self.merge_cache(session.cache())
    }

    /// [`CorpusStore::merge_cache`] with an explicit stamp — the
    /// deterministic variant the eviction tests drive the clock with.
    pub fn merge_cache_stamped(&self, cache: &VerdictCache, stamp: u64) -> io::Result<usize> {
        // Bucket the cache's entries by shard first, so each lock is held
        // exactly once.
        let mut by_shard: BTreeMap<usize, Vec<StoreEntry>> = BTreeMap::new();
        for (k, e) in cache.pair_entries() {
            by_shard
                .entry(shard_of_fp(k.0))
                .or_default()
                .push(StoreEntry::Pair(*k, e.clone()));
        }
        for (k, e) in cache.triple_entries() {
            by_shard
                .entry(shard_of_fp(k.0))
                .or_default()
                .push(StoreEntry::Triple(*k, e.clone()));
        }
        let mut added = 0;
        for (shard, entries) in by_shard {
            let _lock = ShardLock::acquire(&self.dir, shard)?;
            let mut records = BTreeMap::new();
            self.read_shard(shard, &mut records)?;
            for entry in entries {
                let key = record_key(&entry);
                match records.get(&key) {
                    Some((existing, _)) => {
                        // Same key ⇒ semantically the same verdict (the
                        // encoder revision pins the semantics); refresh
                        // the stamp so a re-merged entry stays young.
                        if stamp > *existing {
                            records.insert(key, (stamp, entry));
                        }
                    }
                    None => {
                        records.insert(key, (stamp, entry));
                        added += 1;
                    }
                }
            }
            self.write_shard(shard, &records)?;
        }
        Ok(added)
    }

    /// Loads every shard into a fresh [`VerdictCache`]: entries land in
    /// run 0 (warm for every following run) and seed the liveness union.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; a corrupt record (checksum mismatch,
    /// truncation, unknown tag) or a revision-stale shard is refused
    /// with `InvalidData`.
    pub fn load_cache(&self) -> io::Result<VerdictCache> {
        let mut records = BTreeMap::new();
        for shard in 0..SHARD_COUNT {
            self.read_shard(shard, &mut records)?;
        }
        let mut cache = VerdictCache::new();
        for (_, (_, entry)) in records {
            match entry {
                StoreEntry::Pair(key, e) => cache.absorb_pair_entry(key, e),
                StoreEntry::Triple(key, e) => cache.absorb_triple_entry(key, e),
            }
        }
        Ok(cache)
    }

    /// Number of records currently in the store.
    ///
    /// # Errors
    ///
    /// Propagates the same errors as [`CorpusStore::load_cache`].
    pub fn entry_count(&self) -> io::Result<usize> {
        let mut records = BTreeMap::new();
        for shard in 0..SHARD_COUNT {
            self.read_shard(shard, &mut records)?;
        }
        Ok(records.len())
    }

    /// Compacts the store under `policy`: every shard is read and
    /// rewritten under its lock (locks taken in shard order, so
    /// concurrent compactions cannot deadlock), dropping records older
    /// than `max_age_secs` and then the oldest records beyond
    /// `max_entries`.
    ///
    /// # Errors
    ///
    /// Propagates the same errors as [`CorpusStore::load_cache`].
    pub fn compact(&self, policy: &EvictionPolicy) -> io::Result<CompactionReport> {
        self.compact_at(policy, now_secs())
    }

    /// [`CorpusStore::compact`] with an explicit "now" — the
    /// deterministic variant the eviction tests drive the clock with.
    pub fn compact_at(&self, policy: &EvictionPolicy, now: u64) -> io::Result<CompactionReport> {
        let _locks: Vec<ShardLock> = (0..SHARD_COUNT)
            .map(|s| ShardLock::acquire(&self.dir, s))
            .collect::<io::Result<_>>()?;
        let mut records = BTreeMap::new();
        for shard in 0..SHARD_COUNT {
            self.read_shard(shard, &mut records)?;
        }
        let total = records.len();
        if let Some(max_age) = policy.max_age_secs {
            records.retain(|_, (stamp, _)| now.saturating_sub(*stamp) <= max_age);
        }
        if let Some(max_entries) = policy.max_entries {
            if records.len() > max_entries {
                // Oldest stamps go first; ties broken by key order so the
                // cut is deterministic.
                let mut order: Vec<(u64, RecordKey)> =
                    records.iter().map(|(k, (stamp, _))| (*stamp, *k)).collect();
                order.sort();
                let doomed: HashSet<RecordKey> = order
                    [..records.len() - max_entries]
                    .iter()
                    .map(|&(_, k)| k)
                    .collect();
                records.retain(|k, _| !doomed.contains(k));
            }
        }
        let kept = records.len();
        let mut by_shard: BTreeMap<usize, BTreeMap<RecordKey, (u64, StoreEntry)>> =
            (0..SHARD_COUNT).map(|s| (s, BTreeMap::new())).collect();
        for (key, rec) in records {
            by_shard
                .get_mut(&shard_of_fp(key.1))
                .expect("all shards present")
                .insert(key, rec);
        }
        for (shard, recs) in by_shard {
            self.write_shard(shard, &recs)?;
        }
        Ok(CompactionReport {
            kept,
            evicted: total - kept,
        })
    }
}

/// Aggregate statistics of one detection pass over a corpus
/// ([`analyse_corpus`]; a single program is a corpus of one): how much
/// solver work the corpus-wide fingerprint dedup avoided.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CorpusStats {
    /// Programs analysed.
    pub programs: usize,
    /// Ordered transaction pairs planned across the whole corpus (what a
    /// program-at-a-time driver would have looked up).
    pub pair_slots: u64,
    /// Unique dirty pair keys actually solved — everything else was a
    /// duplicate fingerprint or already in the store.
    pub unique_pairs: u64,
    /// Unordered transaction triples planned across the corpus (zero
    /// outside [`DetectMode::Triples`]).
    pub triple_slots: u64,
    /// Unique dirty triple keys actually solved.
    pub unique_triples: u64,
    /// Solver work of the whole pass (every counter but the slot counts).
    pub solve: DetectStats,
    /// Wall-clock seconds of the whole pass (plan + solve + merge).
    pub seconds: f64,
}

/// One program's verdicts out of a corpus pass.
#[derive(Debug, Clone)]
pub struct CorpusVerdict {
    /// The program's corpus name (its file stem, for ingested
    /// directories).
    pub name: String,
    /// The anomaly verdicts — byte-identical to an isolated detection run
    /// over the same program.
    pub verdicts: Vec<AccessPair>,
    /// The program's slot counts (`pairs`, `triples`). Solver work is
    /// shared across the corpus and reported once, in
    /// [`CorpusStats::solve`], so the solver counters here are zero.
    pub stats: DetectStats,
}

/// Analyses a whole corpus of programs against one shared session — the
/// engine's one detection pass, planned over every program at once: dirty
/// pair/triple keys are deduplicated **across the corpus**, each is solved
/// once on `engine`'s worker pool (merged in plan order — deterministic at
/// any thread count), and every program reads its verdicts back in its own
/// command labels.
///
/// Per-program verdicts are byte-identical to running each program through
/// [`DetectionEngine::detect_with_mode`] in isolation; the corpus pass only
/// changes how often the solver runs.
pub fn analyse_corpus(
    engine: &DetectionEngine,
    programs: &[(String, Program)],
    level: ConsistencyLevel,
    mode: DetectMode,
    session: &mut DetectSession,
) -> (Vec<CorpusVerdict>, CorpusStats) {
    let (cache, per_worker) = session.cache_and_workers();
    let refs: Vec<&Program> = programs.iter().map(|(_, p)| p).collect();
    let (answers, stats) = engine.pass(&refs, level, mode, &BTreeSet::new(), cache, per_worker);
    let verdicts = programs
        .iter()
        .zip(answers)
        .map(|((name, _), (verdicts, stats))| CorpusVerdict {
            name: name.clone(),
            verdicts,
            stats,
        })
        .collect();
    (verdicts, stats)
}

/// The result of one [`CorpusService::analyse`] pass.
#[derive(Debug, Clone)]
pub struct CorpusReport {
    /// Per-program verdicts, in ingestion order.
    pub verdicts: Vec<CorpusVerdict>,
    /// Corpus-wide dedup statistics.
    pub stats: CorpusStats,
}

/// The batch corpus driver: ingest a directory (or stream) of DSL
/// programs, analyse them with corpus-wide fingerprint dedup on one
/// shared engine, and (optionally) persist the verdicts through a
/// [`CorpusStore`] so the next batch starts warm.
///
/// # Examples
///
/// ```
/// use atropos_detect::{ConsistencyLevel, DetectMode, DetectionEngine};
/// use atropos_detect::corpus::CorpusService;
///
/// let p = atropos_dsl::parse(
///     "schema T { id: int key, v: int }
///      txn bump(k: int) {
///          x := select v from T where id = k;
///          update T set v = x.v + 1 where id = k;
///          return 0;
///      }",
/// ).unwrap();
/// let mut service = CorpusService::new(DetectionEngine::new(2));
/// // Ten fingerprint-identical programs: one solve, ten answers.
/// for i in 0..10 {
///     service.add_program(format!("copy-{i}"), p.clone());
/// }
/// let report = service
///     .analyse(ConsistencyLevel::EventualConsistency, DetectMode::Pairs)
///     .unwrap();
/// assert_eq!(report.verdicts.len(), 10);
/// assert_eq!(report.stats.unique_pairs, 1);
/// for v in &report.verdicts {
///     assert_eq!(v.verdicts.len(), 1); // the lost update, every copy
/// }
/// ```
pub struct CorpusService {
    engine: DetectionEngine,
    session: DetectSession,
    store: Option<CorpusStore>,
    programs: Vec<(String, Program)>,
}

impl CorpusService {
    /// A service with no backing store: verdicts live in the in-memory
    /// session only.
    pub fn new(engine: DetectionEngine) -> CorpusService {
        CorpusService {
            engine,
            session: DetectSession::new(),
            store: None,
            programs: Vec::new(),
        }
    }

    /// A service backed by a v2 store: the store's entries are loaded
    /// into the session up front (warm start), and every
    /// [`CorpusService::analyse`] pass union-merges its verdicts back.
    ///
    /// # Errors
    ///
    /// Propagates store I/O and validation errors.
    pub fn with_store(engine: DetectionEngine, store: CorpusStore) -> io::Result<CorpusService> {
        let session = DetectSession::from_cache(store.load_cache()?);
        Ok(CorpusService {
            engine,
            session,
            store: Some(store),
            programs: Vec::new(),
        })
    }

    /// Adds one program to the corpus under `name`.
    pub fn add_program(&mut self, name: impl Into<String>, program: Program) {
        self.programs.push((name.into(), program));
    }

    /// Ingests every `*.dsl` file of `dir` (sorted by file name, so
    /// ingestion order is deterministic), naming each program by its file
    /// stem. Returns the number of programs ingested.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; a file that fails to parse is reported as
    /// `InvalidData` naming the file.
    pub fn ingest_dir(&mut self, dir: impl AsRef<Path>) -> io::Result<usize> {
        let mut files: Vec<PathBuf> = fs::read_dir(dir.as_ref())?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "dsl"))
            .collect();
        files.sort();
        let mut ingested = 0;
        for path in files {
            let src = fs::read_to_string(&path)?;
            let program = atropos_dsl::parse(&src).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: {e:?}", path.display()),
                )
            })?;
            let name = path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
            self.programs.push((name, program));
            ingested += 1;
        }
        Ok(ingested)
    }

    /// Programs currently in the corpus.
    pub fn len(&self) -> usize {
        self.programs.len()
    }

    /// The ingested programs, in ingestion order.
    pub fn programs(&self) -> &[(String, Program)] {
        &self.programs
    }

    /// True when no programs have been ingested yet.
    pub fn is_empty(&self) -> bool {
        self.programs.is_empty()
    }

    /// The shared session (for statistics inspection).
    pub fn session(&self) -> &DetectSession {
        &self.session
    }

    /// One corpus pass at `level` under `mode`: global plan, one shared
    /// solve, per-program answers — then a union-merge back into the
    /// backing store, when there is one.
    ///
    /// # Errors
    ///
    /// Propagates store I/O errors from the merge-back (the in-memory
    /// analysis itself cannot fail).
    pub fn analyse(
        &mut self,
        level: ConsistencyLevel,
        mode: DetectMode,
    ) -> io::Result<CorpusReport> {
        self.session.begin_run();
        let (verdicts, stats) =
            analyse_corpus(&self.engine, &self.programs, level, mode, &mut self.session);
        if let Some(store) = &self.store {
            store.merge_cache(self.session.cache())?;
        }
        Ok(CorpusReport { verdicts, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atropos_dsl::parse;

    const COUNTER: &str = "schema T { id: int key, v: int }
         txn bump(k: int) {
             x := select v from T where id = k;
             update T set v = x.v + 1 where id = k;
             return 0;
         }";

    #[test]
    fn duplicated_corpus_solves_each_unique_key_once() {
        let p = parse(COUNTER).unwrap();
        let programs: Vec<(String, Program)> =
            (0..8).map(|i| (format!("c{i}"), p.clone())).collect();
        let mut session = DetectSession::new();
        let engine = DetectionEngine::new(2);
        let (verdicts, stats) = analyse_corpus(
            &engine,
            &programs,
            ConsistencyLevel::EventualConsistency,
            DetectMode::Pairs,
            &mut session,
        );
        assert_eq!(stats.programs, 8);
        assert_eq!(stats.pair_slots, 8, "one ordered self-pair per copy");
        assert_eq!(stats.unique_pairs, 1, "fingerprint dedup across the corpus");
        for v in &verdicts {
            assert_eq!(v.verdicts.len(), 1);
            assert_eq!(v.stats.queries, 0, "answers replay from the warm store");
        }
    }

    #[test]
    fn corpus_store_roundtrips_and_counts() {
        let p = parse(COUNTER).unwrap();
        let mut session = DetectSession::new();
        crate::detect_anomalies_cached(
            &p,
            ConsistencyLevel::EventualConsistency,
            session.cache_mut(),
        );
        let dir = crate::test_scratch(&format!(
            "corpus_unit_{}",
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let store = CorpusStore::open(&dir).expect("open");
        assert_eq!(store.entry_count().unwrap(), 0);
        let added = store.merge_cache(session.cache()).expect("merge");
        assert_eq!(added, 1);
        // Re-merging the same entries adds nothing (stamp refresh only).
        assert_eq!(store.merge_cache(session.cache()).unwrap(), 0);
        let loaded = store.load_cache().expect("load");
        assert_eq!(loaded.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
