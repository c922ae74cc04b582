//! Persistent content-addressed result cache for sweep simulations.
//!
//! A sweep re-runs the same (configuration × workload) simulations over
//! and over — across `goldens bless` / `goldens check` pairs, across CI
//! legs, across local iteration. Each simulation is a pure function of
//! its [`DeltaConfig`] and the [`Program`] the workload builds, so the
//! harness can memoize whole [`RunReport`]s on disk and answer repeat
//! runs in microseconds instead of seconds.
//!
//! **Key** = SHA-256 over a canonical description of everything the
//! result depends on:
//!
//! * a key-format tag, the run mode (validated vs fault-injected) and
//!   the program formulation (task-parallel vs static baseline);
//! * the workload's *content*: a 64-bit structural hash of a freshly
//!   built program — its task types (every DFG kernel's whole graph,
//!   constants included), full initial memory image, initial tasks
//!   (every binding and stream descriptor) and pipe declarations, all
//!   through their `Hash` impls. Two workloads produce the same hash iff
//!   they hand the accelerator the same program, so scale/seed/grain
//!   parameters are captured without per-workload code;
//! * the [`DeltaConfig`]'s byte encoding: its `Hash` impl destructures
//!   every field (rates by their bits), so a new field is a compile
//!   error until it joins the key;
//! * a code-version salt: a 64-bit hash of the running executable's
//!   bytes, so a rebuilt simulator never reads stale entries (and a
//!   native kernel, which the program hash knows only by name, never
//!   changes behind its key). Tests and benchmarking override it via
//!   `TS_CACHE_SALT` when they *want* cross-binary sharing or a forced
//!   miss.
//!
//! **Value** = what the sweep reads of a [`RunReport`] (or the wedged
//! outcome of a fault run) as a compact binary entry (layout on
//! `encode`): a magic and format header, then little-endian `u64`s for
//! the scalars and for every counter block's flat word view (profile,
//! faults, each tile, mesh, DRAM, dispatcher, each tenant), and the
//! occupancy timeline. Every stored field round-trips bit-exactly. The
//! final DRAM image is not stored: the sweep checks it against the
//! workload reference, the conservation invariants and (for faulted
//! runs) the oracle, then [releases](RunReport::release_dram) it, so a
//! cold outcome and a loaded one hold the same fields. An entry
//! therefore costs a few kilobytes whatever memory the run touched.
//! Event traces are never cached: a traced run bypasses the cache
//! entirely.
//!
//! The cache is **disabled by default** and switched on by the `repro`
//! CLI (`repro sweep`, unless `--no-cache`). Entries live under
//! `$TS_CACHE_DIR` (default `./.ts-cache`), one `<key>.bin` file per
//! key, written atomically (temp file + rename) so concurrent sweeps
//! never observe a torn entry. The header carries the body's length and
//! a checksum, so a truncated, corrupt or unreadable entry degrades to
//! a miss, never a panic or a wrong hit.

use crate::FaultOutcome;
use std::fs;
use std::hash::{Hash, Hasher};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use taskstream_model::{Program, Spawner};
use ts_delta::{
    DeltaConfig, DispatchCounters, DramCounters, FaultReport, NocCounters, RunCounters, RunReport,
    SimProfile, TenantCounters, TileCounters,
};
use ts_workloads::Workload;

// ------------------------------------------------------------------ state

static ENABLED: AtomicBool = AtomicBool::new(false);
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static STORES: AtomicU64 = AtomicU64::new(0);
/// Makes every temp file name unique, even for two threads storing
/// the same key.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Explicit directory override (`repro --cache-dir` / tests); takes
/// precedence over `TS_CACHE_DIR` and the `./.ts-cache` default.
static DIR_OVERRIDE: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Enables or disables the cache for subsequent runs in this process.
/// Off by default: library users opt in, the `repro sweep` CLI enables
/// it unless `--no-cache`.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the cache is consulted by the sweep runner.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Overrides the cache directory for this process.
pub fn set_dir(path: PathBuf) {
    *DIR_OVERRIDE.lock().expect("cache dir lock poisoned") = Some(path);
}

/// Pins the cache directory to an absolute path, resolving a relative
/// `$TS_CACHE_DIR` (or the `./.ts-cache` default) against `base` once.
/// Long-lived processes call this at startup so the cache location
/// can't silently re-anchor if the working directory later changes —
/// every subsequent [`dir`] answers with the same absolute path.
pub fn pin_relative_to(base: &std::path::Path) {
    let d = dir();
    let abs = if d.is_absolute() { d } else { base.join(d) };
    set_dir(abs);
}

/// The directory entries live in: the [`set_dir`] override, else
/// `$TS_CACHE_DIR`, else `./.ts-cache`.
pub fn dir() -> PathBuf {
    if let Some(p) = DIR_OVERRIDE
        .lock()
        .expect("cache dir lock poisoned")
        .clone()
    {
        return p;
    }
    match std::env::var_os("TS_CACHE_DIR") {
        Some(d) if !d.is_empty() => PathBuf::from(d),
        _ => PathBuf::from(".ts-cache"),
    }
}

/// In-process hit/miss/store tallies — the cache's host counters,
/// printed on `repro sweep`'s stderr summary and written to the
/// `host` block of its `--bench-json`. With the cache on, a sweep
/// counts one hit or miss per job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Runs answered without simulating: from disk, or from an
    /// identical job of this sweep.
    pub hits: u64,
    /// Runs that had to simulate (no entry, or unreadable entry).
    pub misses: u64,
    /// Results persisted.
    pub stores: u64,
}

/// Snapshot of this process's cache counters.
pub fn stats() -> CacheStats {
    CacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        stores: STORES.load(Ordering::Relaxed),
    }
}

/// Zeroes the in-process counters (test isolation).
pub fn reset_stats() {
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
    STORES.store(0, Ordering::Relaxed);
}

/// Whether a file in the cache directory belongs to the cache: a
/// current entry, a `.json` entry left by a format-1 build, or a
/// `.tmp-*` file orphaned by a store that was killed before its rename.
fn owned_by_cache(path: &Path) -> bool {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    name.starts_with(".tmp-") || path.extension().is_some_and(|x| x == "bin" || x == "json")
}

/// Every file the cache owns, with its size. A missing directory holds
/// none.
fn cache_files() -> Result<Vec<(PathBuf, u64)>, String> {
    let d = dir();
    let rd = match fs::read_dir(&d) {
        Ok(rd) => rd,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("cannot read {}: {e}", d.display())),
    };
    let mut files = Vec::new();
    for ent in rd {
        let ent = ent.map_err(|e| format!("cannot read {}: {e}", d.display()))?;
        let p = ent.path();
        if owned_by_cache(&p) {
            files.push((p, ent.metadata().map(|m| m.len()).unwrap_or(0)));
        }
    }
    Ok(files)
}

/// Counts the files the cache owns and their total bytes (for `repro
/// cache stats`): current entries, format-1 leftovers and orphaned temp
/// files alike.
///
/// # Errors
///
/// Returns a message if the directory exists but cannot be read. A
/// missing directory is an empty cache, not an error.
pub fn disk_stats() -> Result<(u64, u64), String> {
    let files = cache_files()?;
    Ok((
        files.len() as u64,
        files.iter().map(|(_, bytes)| bytes).sum(),
    ))
}

/// Deletes every file the cache owns (for `repro cache clear`) —
/// current entries, format-1 leftovers and orphaned temp files — and
/// returns how many were removed. A missing directory clears zero.
///
/// # Errors
///
/// Returns a message if the directory or a file cannot be removed.
pub fn clear() -> Result<u64, String> {
    let files = cache_files()?;
    for (p, _) in &files {
        fs::remove_file(p).map_err(|e| format!("cannot remove {}: {e}", p.display()))?;
    }
    Ok(files.len() as u64)
}

// ------------------------------------------------------------------ keys

/// Word-at-a-time 64-bit hash behind the program fingerprints, the
/// code-version salt and the entry checksum. Each step is a bijection
/// of the running state for a fixed word and of the word for a fixed
/// state, so a change confined to one word (in particular any
/// single-byte flip) always changes the result. As a [`Hasher`] it
/// takes the model types' `Hash` impls, which is how a program is
/// hashed by its structure.
struct Hash64(u64);

impl Hash64 {
    fn new() -> Self {
        Hash64(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, w: u64) {
        self.0 = (self.0 ^ w)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(29);
    }
}

impl Hasher for Hash64 {
    fn finish(&self) -> u64 {
        self.0
    }

    /// Hashes the length, then `bytes` eight at a time, zero-padding
    /// the last word. The length keeps `"ab"+"c"` apart from `"a"+"bc"`
    /// and a short tail apart from the same tail with zero bytes added.
    fn write(&mut self, bytes: &[u8]) {
        self.mix(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(tail));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.mix(n.into());
    }

    fn write_u32(&mut self, n: u32) {
        self.mix(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// The bytes a value's `Hash` impl feeds it: integers as little-endian
/// words of their own width (`usize` as 8 bytes), byte strings
/// length-prefixed. The key canon is these bytes, so two configs share
/// a key only if they encode the same.
struct Canon(Vec<u8>);

impl Hasher for Canon {
    /// A digest of the bytes so far; the key reads the bytes.
    fn finish(&self) -> u64 {
        checksum(&self.0)
    }

    fn write(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        self.0.extend_from_slice(bytes);
    }

    fn write_u8(&mut self, n: u8) {
        self.0.push(n);
    }

    fn write_u32(&mut self, n: u32) {
        self.0.extend_from_slice(&n.to_le_bytes());
    }

    fn write_u64(&mut self, n: u64) {
        self.0.extend_from_slice(&n.to_le_bytes());
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// Code-version salt: a [`Hash64`] of the running executable's bytes,
/// so a rebuilt binary addresses a fresh slice of the cache.
/// `TS_CACHE_SALT` overrides it (tests force hits across binaries /
/// misses within one). Computed once per process, and only by a
/// process that keys a cache entry: [`crate::run_jobs`] computes it on
/// the pool next to the program fingerprints when the cache is on, so
/// no job's key waits for it. The executable is hashed in fixed 64 KiB
/// chunks rather than read whole, which would put a copy of the binary
/// on every process's peak memory.
pub(crate) fn current_salt() -> u64 {
    static SALT: OnceLock<u64> = OnceLock::new();
    *SALT.get_or_init(|| {
        let mut h = Hash64::new();
        match std::env::var("TS_CACHE_SALT") {
            Ok(s) => s.hash(&mut h),
            Err(_) => {
                if let Ok(mut exe) = std::env::current_exe().and_then(fs::File::open) {
                    let mut chunk = Vec::with_capacity(1 << 16);
                    while let Ok(1..) = (&mut exe).take(1 << 16).read_to_end(&mut chunk) {
                        h.write(&chunk);
                        chunk.clear();
                    }
                }
            }
        }
        h.finish()
    })
}

/// Content hash of the program a workload hands the accelerator: name,
/// task types, full initial memory image, and the initial task graph
/// (instances + pipes), each hashed by its structure. The simulation
/// result is a pure function of (config, program), so this — not the
/// workload's parameters — is the workload's cache identity; any knob
/// that changes the program (scale, seed, grain, element count, a DFG
/// constant) changes the hash by construction, and program *code*
/// differences are covered by the executable salt.
pub(crate) fn program_fingerprint(wl: &dyn Workload, baseline: bool) -> u64 {
    let mut program: Box<dyn Program> = if baseline {
        wl.make_baseline_program()
    } else {
        wl.make_program()
    };
    let types = program.task_types();
    let image = program.memory_image();
    let mut spawner = Spawner::new(0);
    program.initial(&mut spawner);
    let mut h = Hash64::new();
    (wl.name(), program.name(), types, image, spawner.take()).hash(&mut h);
    h.finish()
}

/// Computes the content-addressed key for one run of `wl` on `cfg`.
pub fn key(wl: &dyn Workload, cfg: &DeltaConfig, baseline: bool, faulted: bool) -> String {
    key_with_salt(wl, cfg, baseline, faulted, current_salt())
}

/// As [`key`] but with an explicit code-version salt instead of the
/// process-wide one (which is frozen at first use). Lets tests prove
/// that a salt change — a rebuilt binary — misses the old entries.
pub fn key_with_salt(
    wl: &dyn Workload,
    cfg: &DeltaConfig,
    baseline: bool,
    faulted: bool,
    salt: u64,
) -> String {
    let fingerprint = program_fingerprint(wl, baseline);
    key_of(&identity(fingerprint, cfg, baseline, faulted), salt)
}

/// Version of the key canon; bumping it re-addresses every entry.
const KEY_FORMAT: u8 = 4;

/// A run's identity: the key canon without the salt — format tag,
/// mode, formulation, program fingerprint and the config's bytes. Two
/// runs with one identity are one simulation, so the sweep runner
/// simulates each distinct identity once, cache on or off. It computes
/// each distinct workload's fingerprint once and reuses it across
/// every design point of that workload, since building the program to
/// hash it costs more than a warm hit.
pub(crate) fn identity(
    fingerprint: u64,
    cfg: &DeltaConfig,
    baseline: bool,
    faulted: bool,
) -> Vec<u8> {
    let mut canon = Canon(Vec::with_capacity(512));
    (KEY_FORMAT, faulted, baseline, fingerprint, cfg).hash(&mut canon);
    canon.0
}

/// The key of a run with this [`identity`] under `salt`: SHA-256 over
/// the identity's canon followed by the salt's.
pub(crate) fn key_of(identity: &[u8], salt: u64) -> String {
    let mut canon = Canon(identity.to_vec());
    salt.hash(&mut canon);
    sha256_hex(&canon.0)
}

// ------------------------------------------------------------------ codec

/// First bytes of every entry. The trailing digit is the entry
/// format, versioned apart from the key canon's [`KEY_FORMAT`]: the
/// layout below outlived the key's move to a binary canon.
const MAGIC: &[u8; 8] = b"tscache5";

/// Header: [`MAGIC`], then the body's length and [`checksum`] as
/// little-endian `u64`s.
const HEADER: usize = 24;

const KIND_COMPLETED: u8 = 0;
const KIND_WEDGED: u8 = 1;

/// Checksum of an entry body: a [`Hash64`] of its length and bytes,
/// so any single-byte flip is caught.
fn checksum(body: &[u8]) -> u64 {
    let mut h = Hash64::new();
    h.write(body);
    h.finish()
}

/// Serializes a run outcome to the on-disk entry format:
///
/// ```text
/// header    magic "tscache5", body length u64, body checksum u64
/// body      kind u8 (0 completed, 1 wedged), cycles u64
/// completed tasks_completed u64, skipped_cycles u64,
///           SimProfile words (23 × u64), FaultReport words (10 × u64),
///           tiles: count u32, then TileCounters words (17 × u64) each,
///           NocCounters (5 × u64), DramCounters (5 × u64),
///           DispatchCounters (6 × u64),
///           tenants: count u32, then TenantCounters words (7 × u64) each,
///           timeline: count u32, then (cycle u64, busy u32) each
/// ```
///
/// Every integer is little-endian. A block's words are its
/// `to_words()`, in declaration order.
fn encode(outcome: &FaultOutcome) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4096);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&[0; HEADER - MAGIC.len()]);
    let put = |buf: &mut Vec<u8>, v: u64| buf.extend_from_slice(&v.to_le_bytes());
    let put32 = |buf: &mut Vec<u8>, n: usize| {
        let n = u32::try_from(n).expect("entry section count fits u32");
        buf.extend_from_slice(&n.to_le_bytes());
    };
    match outcome {
        FaultOutcome::Wedged { cycles } => {
            buf.push(KIND_WEDGED);
            put(&mut buf, *cycles);
        }
        FaultOutcome::Completed(r) => {
            buf.push(KIND_COMPLETED);
            let c = &r.counters;
            let puts = |buf: &mut Vec<u8>, words: &[u64]| words.iter().for_each(|&w| put(buf, w));
            puts(&mut buf, &[r.cycles, r.tasks_completed, r.skipped_cycles]);
            puts(&mut buf, &r.profile.to_words());
            puts(&mut buf, &r.faults.to_words());
            put32(&mut buf, c.tiles.len());
            c.tiles.iter().for_each(|t| puts(&mut buf, &t.to_words()));
            puts(&mut buf, &c.noc.to_words());
            puts(&mut buf, &c.dram.to_words());
            puts(&mut buf, &c.dispatch.to_words());
            put32(&mut buf, c.tenants.len());
            c.tenants.iter().for_each(|t| puts(&mut buf, &t.to_words()));
            put32(&mut buf, r.timeline.len());
            for &(c, b) in &r.timeline {
                put(&mut buf, c);
                buf.extend_from_slice(&b.to_le_bytes());
            }
        }
    }
    let body_len = (buf.len() - HEADER) as u64;
    let sum = checksum(&buf[HEADER..]);
    buf[8..16].copy_from_slice(&body_len.to_le_bytes());
    buf[16..24].copy_from_slice(&sum.to_le_bytes());
    buf
}

/// Bounds-checked reader over an entry body.
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let (head, tail) = self
            .0
            .split_first_chunk::<N>()
            .ok_or("entry body ends early")?;
        self.0 = tail;
        Ok(*head)
    }

    fn u64(&mut self) -> Result<u64, String> {
        self.take().map(u64::from_le_bytes)
    }

    fn words<const N: usize>(&mut self) -> Result<[u64; N], String> {
        let mut w = [0u64; N];
        for slot in &mut w {
            *slot = self.u64()?;
        }
        Ok(w)
    }

    /// A section count, rejected up front if its records (each at least
    /// `min_record` bytes) cannot fit in what is left of the body.
    fn count(&mut self, min_record: usize) -> Result<usize, String> {
        let n = u32::from_le_bytes(self.take()?) as usize;
        if n.saturating_mul(min_record) > self.0.len() {
            return Err("entry section count exceeds the body".into());
        }
        Ok(n)
    }
}

/// Parses an on-disk entry back into a run outcome. The header's length
/// and checksum must match the body before any field is read, so a
/// truncated or corrupted file is an error, never a wrong result.
fn decode(bytes: &[u8]) -> Result<FaultOutcome, String> {
    let header = bytes.get(..HEADER).ok_or("entry shorter than its header")?;
    if header[..8] != MAGIC[..] {
        return Err("not a format-5 entry".into());
    }
    let word = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().expect("8 bytes"));
    let (body_len, sum) = (word(8), word(16));
    let body = &bytes[HEADER..];
    if body_len != body.len() as u64 {
        return Err("entry length disagrees with its header".into());
    }
    if checksum(body) != sum {
        return Err("entry checksum mismatch".into());
    }
    let mut r = Reader(body);
    let [kind] = r.take()?;
    let cycles = r.u64()?;
    match kind {
        KIND_WEDGED if r.0.is_empty() => return Ok(FaultOutcome::Wedged { cycles }),
        KIND_COMPLETED => {}
        _ => return Err("bad entry kind or length".into()),
    }
    let [tasks_completed, skipped_cycles] = r.words()?;
    let profile = SimProfile::from_words(&r.words()?);
    let faults = FaultReport::from_words(&r.words()?);
    let tiles = (0..r.count(8 * TileCounters::WORDS)?)
        .map(|_| Ok(TileCounters::from_words(&r.words()?)))
        .collect::<Result<_, String>>()?;
    let noc = NocCounters::from_words(&r.words()?);
    let dram = DramCounters::from_words(&r.words()?);
    let dispatch = DispatchCounters::from_words(&r.words()?);
    let tenants = (0..r.count(8 * TenantCounters::WORDS)?)
        .map(|_| Ok(TenantCounters::from_words(&r.words()?)))
        .collect::<Result<_, String>>()?;
    let counters = RunCounters {
        tiles,
        noc,
        dram,
        dispatch,
        tenants,
    };
    // A timeline sample takes 12 bytes.
    let n = r.count(12)?;
    let mut timeline = Vec::with_capacity(n);
    for _ in 0..n {
        let c = r.u64()?;
        timeline.push((c, u32::from_le_bytes(r.take()?)));
    }
    if !r.0.is_empty() {
        return Err("trailing bytes after the timeline".into());
    }
    let report = RunReport::from_cached_parts(
        cycles,
        counters,
        tasks_completed,
        timeline,
        skipped_cycles,
        profile,
        faults,
    );
    Ok(FaultOutcome::Completed(Box::new(report)))
}

// ------------------------------------------------------------------ disk

fn entry_path(key: &str) -> PathBuf {
    dir().join(format!("{key}.bin"))
}

/// Looks a key up on disk. `faulted` is the run mode the caller
/// expects; an entry of the wrong kind (only possible if the cache was
/// edited by hand) degrades to a miss like any other corruption.
/// Counts one hit or one miss.
pub fn load(key: &str, faulted: bool) -> Option<FaultOutcome> {
    let loaded = fs::read(entry_path(key))
        .ok()
        .and_then(|bytes| decode(&bytes).ok())
        .filter(|out| faulted || matches!(out, FaultOutcome::Completed(_)));
    match &loaded {
        Some(_) => HITS.fetch_add(1, Ordering::Relaxed),
        None => MISSES.fetch_add(1, Ordering::Relaxed),
    };
    loaded
}

/// Counts `n` hits for jobs answered by an identical job of the same
/// sweep instead of by their own disk lookup.
pub(crate) fn count_shared_hits(n: u64) {
    HITS.fetch_add(n, Ordering::Relaxed);
}

/// Persists one result, best-effort and atomic: a temp file in the
/// cache directory is renamed over the final name, so a concurrent
/// reader sees either the whole entry or none of it. IO failure is
/// silent (the cache is an accelerator, not a correctness surface) —
/// it just doesn't count as a store.
pub fn store(key: &str, outcome: &FaultOutcome) {
    let d = dir();
    if fs::create_dir_all(&d).is_err() {
        return;
    }
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = d.join(format!(".tmp-{}-{seq}-{key}", std::process::id()));
    if fs::write(&tmp, encode(outcome)).is_err() {
        let _ = fs::remove_file(&tmp);
        return;
    }
    if fs::rename(&tmp, entry_path(key)).is_ok() {
        STORES.fetch_add(1, Ordering::Relaxed);
    } else {
        let _ = fs::remove_file(&tmp);
    }
}

// ------------------------------------------------------------------ sha256

const SHA256_K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// SHA-256, hand-rolled (the container has no crypto dependency), hex
/// output. Collision resistance is what makes "content-addressed"
/// honest: distinct configs/programs get distinct entries, period.
fn sha256_hex(data: &[u8]) -> String {
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    // Padding: 0x80, zeros, 64-bit big-endian bit length.
    let mut msg = data.to_vec();
    let bit_len = (data.len() as u64).wrapping_mul(8);
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&bit_len.to_be_bytes());

    let mut w = [0u32; 64];
    for block in msg.chunks_exact(64) {
        for (i, word) in w.iter_mut().take(16).enumerate() {
            *word = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().expect("4-byte chunk"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(SHA256_K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *s = s.wrapping_add(v);
        }
    }
    h.iter().map(|v| format!("{v:08x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_workloads::spmv::Spmv;

    #[test]
    fn sha256_matches_fips_vectors() {
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        // Two-block message (padding boundary).
        assert_eq!(
            sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    /// Compares every stored field of two reports bit for bit, and
    /// checks that the loaded one carries no image and no trace.
    fn assert_identical(a: &RunReport, b: &RunReport) {
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.tasks_completed, b.tasks_completed);
        assert_eq!(a.timeline, b.timeline);
        assert_eq!(a.skipped_cycles, b.skipped_cycles);
        assert_eq!(a.profile, b.profile);
        assert_eq!(a.faults, b.faults);
        assert!(b.dram_released(), "a loaded report has no image");
        assert!(b.trace.is_empty() && b.trace_dropped == 0);
    }

    /// Real reports through the production codec.
    #[test]
    fn entries_roundtrip_every_field_bit_exactly() {
        let spmv = || crate::run_validated(&Spmv::tiny(42), DeltaConfig::delta(4), false);
        let mut workload = spmv();
        // Full-width words in every block, and a tenant section.
        let c = &mut workload.counters;
        c.tiles[3] = TileCounters::from_words(&std::array::from_fn(|i| u64::MAX - i as u64));
        c.noc.stall_cycles = u64::MAX;
        c.dram.write_words = 1 << 63;
        c.dispatch.chain_dispatches = u64::MAX - 1;
        c.tenants = vec![
            TenantCounters::from_words(&std::array::from_fn(|i| 1u64 << (8 * i))),
            TenantCounters::default(),
        ];
        workload.timeline.push((u64::MAX, u32::MAX));
        for r in [workload, spmv()] {
            let bytes = encode(&FaultOutcome::Completed(Box::new(r.clone())));
            let back = decode(&bytes).expect("fresh entry decodes");
            assert_identical(&r, back.report().expect("completed"));
            assert_eq!(encode(&back), bytes, "a loaded report stores as it loaded");
            let mut released = r;
            released.release_dram();
            let again = encode(&FaultOutcome::Completed(Box::new(released)));
            assert_eq!(again, bytes, "the image never reaches the entry");
        }
    }

    #[test]
    fn wedged_entries_roundtrip() {
        let out = FaultOutcome::Wedged {
            cycles: u64::MAX - 7,
        };
        match decode(&encode(&out)).unwrap() {
            FaultOutcome::Wedged { cycles } => assert_eq!(cycles, u64::MAX - 7),
            _ => panic!("wrong kind"),
        }
    }

    /// Pins the on-disk counter layout: the entry checksum cannot catch
    /// a reordered counter declaration, which would silently mis-decode
    /// every entry already on disk, so each field's slot is spelled out
    /// here.
    #[test]
    fn counter_words_keep_their_documented_slots() {
        assert_eq!(
            TileCounters::NAMES,
            [
                "tasks_dispatched",
                "tasks_completed",
                "tasks_stolen_away",
                "task_rotations",
                "task_latency_sum",
                "task_latency_max",
                "reconfigs",
                "reconfig_cycles",
                "busy_cycles",
                "idle_cycles",
                "fire_stall_input",
                "fire_stall_other",
                "spill_reads",
                "pipes_direct",
                "pipes_spilled",
                "spad_accesses",
                "fault_down_cycles",
            ]
        );
        assert_eq!(
            NocCounters::NAMES,
            [
                "injected",
                "injected_branches",
                "delivered",
                "flit_hops",
                "stall_cycles"
            ]
        );
        assert_eq!(
            DramCounters::NAMES,
            [
                "jobs",
                "job_words",
                "read_words",
                "read_words_unique",
                "write_words"
            ]
        );
        assert_eq!(
            DispatchCounters::NAMES,
            [
                "tasks_spawned",
                "tasks_dispatched",
                "steals",
                "multicast_groups",
                "multicast_joins",
                "chain_dispatches",
            ]
        );
        assert_eq!(
            TenantCounters::NAMES,
            [
                "admitted",
                "completed",
                "gate_holds",
                "p50_latency",
                "p99_latency",
                "max_latency",
                "latency_sum",
            ]
        );

        assert_eq!((SimProfile::WORDS, FaultReport::WORDS), (23, 10));
        let w: Vec<u64> = (1..=33).collect();
        let (pw, fw) = w.split_at(SimProfile::WORDS);
        let p = SimProfile::from_words(pw.try_into().expect("23 profile words"));
        let f = FaultReport::from_words(fw.try_into().expect("10 fault words"));
        let scalars = [
            p.tile_ticks,
            p.tile_skipped,
            p.tile_bulk_cycles,
            p.tile_wakes,
            p.tile_next_event_calls,
            p.mem_ticks,
            p.mem_skipped,
            p.mem_wakes,
            p.noc_ticks,
            p.noc_skipped,
            p.noc_wakes,
            p.jump_cycles,
            p.loop_cycles,
        ];
        assert_eq!(scalars, [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13]);
        assert_eq!(p.jump_hist, [14, 15, 16, 17, 18]);
        assert_eq!(p.tile_stretch_hist, [19, 20, 21, 22, 23]);
        let faults = [
            f.tile_fail_stops,
            f.tile_stalls,
            f.noc_flits_dropped,
            f.noc_flits_corrupted,
            f.dram_retries,
            f.watchdog_fires,
            f.tasks_redispatched,
            f.pipe_replays,
            f.backoff_cycles,
            f.wasted_cycles,
        ];
        assert_eq!(faults, [24, 25, 26, 27, 28, 29, 30, 31, 32, 33]);
        assert_eq!(p.to_words()[..], w[..23]);
        assert_eq!(f.to_words()[..], w[23..]);
    }

    /// Frames `body` with a valid header, as `encode` does.
    fn seal(body: &[u8]) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&(body.len() as u64).to_le_bytes());
        buf.extend_from_slice(&checksum(body).to_le_bytes());
        buf.extend_from_slice(body);
        buf
    }

    #[test]
    fn malformed_entries_are_rejected() {
        assert!(decode(&[]).is_err());
        assert!(decode(MAGIC).is_err());
        assert!(decode(b"{\"format\": \"1\", \"kind\": \"wedged\", \"cycles\": \"1\"}").is_err());

        // A well-formed entry of the previous format.
        let wedged = encode(&FaultOutcome::Wedged { cycles: 9 });
        let mut old = wedged.clone();
        old[..8].copy_from_slice(b"tscache4");
        assert!(decode(&old).is_err(), "format-4 entry");

        // Well-framed bodies whose content is wrong.
        let mut body = wedged[HEADER..].to_vec();
        assert!(decode(&seal(&body)).is_ok());
        body[0] = 7;
        assert!(decode(&seal(&body)).is_err(), "unknown kind");
        body[0] = KIND_WEDGED;
        body.push(0);
        assert!(
            decode(&seal(&body)).is_err(),
            "trailing bytes after a wedge"
        );

        let report = crate::run_validated(&Spmv::tiny(42), DeltaConfig::delta(2), false);
        let done = encode(&FaultOutcome::Completed(Box::new(report)));
        let body = &done[HEADER..];
        assert!(decode(&seal(body)).is_ok());
        let tiles_at = 1 + 8 * (3 + SimProfile::WORDS + FaultReport::WORDS);
        let mut huge = body.to_vec();
        huge[tiles_at..tiles_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode(&seal(&huge)).is_err(), "tile count past the body");
        assert!(
            decode(&seal(&[body, &[0]].concat())).is_err(),
            "trailing bytes after the timeline"
        );
        assert!(
            decode(&seal(&body[..body.len() - 1])).is_err(),
            "timeline cut short"
        );
    }
}
