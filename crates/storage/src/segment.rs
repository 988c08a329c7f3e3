//! The persistent [`LogBackend`]: one append-only, CRC-framed,
//! group-committed journal per shard, shared by that shard's per-key
//! [`SegmentBackend`] handles.
//!
//! # On-disk layout
//!
//! ```text
//! <root>/
//!   MANIFEST                  store manifest: format version
//!   CLOCK                     store-wide Lamport watermark (in-place rewrite)
//!   REPLICA                   replica binding: pid + shard count (validated)
//!   shard-<i>/
//!     j<gen>.log              the shard's journal: its one live generation
//!     j<gen+1>.log.tmp        only while a rewrite is in flight
//! ```
//!
//! A generation is a sequence of records framed by [`crate::frame`],
//! every one tagged with the key it belongs to:
//!
//! | record    | payload                       | staged by                         |
//! |-----------|-------------------------------|-----------------------------------|
//! | update    | key, clock, pid, update       | `append` / `append_batch`, in arrival order |
//! | base      | key, bound, fold of `≤ bound` | `truncate_to_base` at a flush, when it pays |
//! | watermark | key, engine clock             | `flush` / `stage_flush`, when the clock moved |
//! | seal      | —                             | a rewrite, after what it copied   |
//!
//! Records are *staged* in the shard's buffer and reach the file on
//! [`LogBackend::flush`] of any of the shard's handles — one `write`
//! on a long-lived descriptor, one `fdatasync` on the fsync tier, for
//! everything the shard has staged — or earlier, once the buffer holds
//! `BUFFER_LIMIT` (16 KiB) (early bytes are harmless: recovery accepts
//! any prefix of the journal). [`LogBackend::stage_flush`] stages the
//! key's watermark and stops there, so a store's flush walk — which
//! stages every key of the shard but its last and flushes that one —
//! costs a dirty shard one commit, whatever its key count. A key's
//! watermark is staged by its flush call, hence behind every update
//! the key journaled before it: a torn commit can lose a watermark,
//! never recover one ahead of its updates. No call other than a
//! flush, a write-through or the first touch of a shard does any file
//! work.
//!
//! # Compaction ([`LogBackend::truncate_to_base`])
//!
//! When `StableGc` advances its stable prefix, the key's next flush
//! (`ReplicaEngine::flush_backend` or `stage_backend_flush`) hands the
//! backend the new base state and the live tail, just before it stages
//! the key's watermark: once per flush, however many drains moved the
//! base since — a key's drains mostly happen as its updates arrive,
//! and a call per drain would put one on every delivery. The tail is
//! simply the journal's update records above the bound — nothing is
//! rewritten. The base is staged as a record only once the update bytes
//! it retires have reached its own size, so a large state over a
//! trickle of updates is not re-snapshotted per update; until then the
//! previous base plus the updates above *it* recover the same state.
//!
//! Superseded records (updates at or below a staged base, older bases,
//! older watermarks) are dead bytes. When a generation's dead bytes
//! exceed both its live bytes and `REWRITE_FLOOR` (256 KiB), the next flush
//! streams the live records through a bounded buffer into
//! `j<gen+1>.log.tmp`, closes them with a seal record, syncs, renames
//! the file into place and unlinks the old generation. A rewrite reads
//! the whole generation twice, so what it costs per retired byte does
//! not depend on the floor; the floor sets how often a flush pays it
//! (and how many dead bytes a recovery scan may have to read past).
//!
//! # Recovery and crash consistency
//!
//! The first touch of a shard reads its generations in order and keeps
//! per key the highest-bound base, every update record above it (in
//! journal order; replay deduplicates by timestamp) and the last
//! watermark; [`ReplicaEngine::recover`](uc_core::ReplicaEngine::recover)
//! rebuilds `fold(base) + replay(tail)` from them.
//!
//! * The scan stops at the first torn or corrupt frame (fail-closed)
//!   and the live generation is cut back to that point, so later
//!   appends stay reachable. A base record follows every update it
//!   folds, so **any prefix of an append-only generation is a state
//!   the store once flushed** — never a hybrid.
//! * A rewritten generation is different: the updates its bases fold
//!   are gone, so a cut inside the copied part would recover a
//!   truncated state. That part is written to a temp file and synced
//!   before the rename publishes it, so no crash can tear it, and the
//!   seal proves it arrived whole: a generation after the first with
//!   no seal is damaged, and the open fails rather than guess.
//! * A crash before the rename leaves a `.tmp` (swept on open); a
//!   crash after it leaves two generations holding the same live
//!   records (merged, then the older one is unlinked).

use crate::codec::{Codec, Reader};
use crate::frame::{begin_frame, end_frame, frame, FrameReader, FrameScanner, FRAME_HEADER};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use uc_core::backend::{BackendFactory, LogBackend};
use uc_core::store::Key;
use uc_core::Timestamp;
use uc_spec::UqAdt;

/// Store-manifest format version (bumped on any layout change).
/// Version 1 was the file-per-key layout.
const FORMAT_VERSION: u32 = 2;

const TAG_UPDATE: u8 = 0;
const TAG_BASE: u8 = 1;
const TAG_WATERMARK: u8 = 2;
const TAG_SEAL: u8 = 3;

/// Suffix of temp files (`write_atomic`, generation rewrites);
/// crash leftovers carrying it are swept, never read.
const TMP_SUFFIX: &str = ".tmp";

/// Staged bytes past which a shard's buffer is written through
/// without waiting for the flush: bounds memory per shard. Sized so
/// that a shard of the end-to-end benchmark's `replicate-seg` stream
/// (512 updates a tick over 8 shards, each replica journaling all of
/// them) reaches its tick's commit without one: at 4 KiB one write in
/// three there was a write-through, at 16 KiB none is, and the
/// process's peak memory did not move.
const BUFFER_LIMIT: usize = 16 << 10;

/// Dead bytes a generation must hold before it is worth rewriting,
/// however small its live part. A rewrite costs the same per retired
/// byte whatever the floor (~4 us per KiB); a low floor only cuts
/// that cost into more pieces, and each flush that carries one then
/// costs a step more than the flushes around it.
const REWRITE_FLOOR: u64 = 256 << 10;

/// Framed length of a watermark record: tag, key, clock.
const WATERMARK_LEN: u64 = (FRAME_HEADER + 1 + 8 + 8) as u64;

fn io_panic(what: &str, path: &Path, err: io::Error) -> ! {
    panic!("uc-storage: {what} {}: {err}", path.display());
}

/// A shard's one owner takes this lock; it is poisoned only if a
/// write failed (and panicked) half way through a record.
fn lock(journal: &Mutex<Journal>) -> MutexGuard<'_, Journal> {
    journal
        .lock()
        .expect("a journal writer panicked mid-record")
}

fn invalid_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// `path` with [`TMP_SUFFIX`] appended to its whole name.
fn tmp_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(TMP_SUFFIX);
    PathBuf::from(tmp)
}

/// Write `payload` as a single framed record at `path` atomically:
/// temp file, sync, rename (the POSIX publish idiom — readers see the
/// old file or the new one, never a torn one). For the write-once
/// control files (store manifest, replica binding); the store clock,
/// rewritten every tick, is overwritten in place instead — renames
/// and truncates measured ~70x slower than plain writes on the
/// baseline host's filesystem.
fn write_atomic(path: &Path, payload: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    let mut f = File::create(&tmp)?;
    f.write_all(&frame(payload))?;
    f.sync_data()?;
    fs::rename(&tmp, path)
}

/// Overwrite a fixed-size CRC-framed control file in place (no
/// truncate, no rename). Safe only when every write has the same
/// length; a crash-torn write fails the CRC and reads as absent.
fn overwrite_framed(path: &Path, payload: &[u8], sync: bool) -> io::Result<()> {
    let mut f = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)?;
    f.write_all(&frame(payload))?;
    if sync {
        f.sync_data()?;
    }
    Ok(())
}

/// Sync a directory's metadata (making completed creates and renames
/// durable before later, dependent unlinks). Best-effort on platforms
/// where directories cannot be opened for sync.
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Read the single framed record at `path`. `None` when the file is
/// missing, torn, or corrupt — callers fall back to defaults, they
/// never crash on a bad file.
fn read_framed(path: &Path) -> Option<Vec<u8>> {
    let bytes = fs::read(path).ok()?;
    FrameScanner::new(&bytes).next().map(<[u8]>::to_vec)
}

fn generation_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("j{generation:010}.log"))
}

fn parse_generation(name: &str) -> Option<u64> {
    name.strip_prefix('j')?.strip_suffix(".log")?.parse().ok()
}

/// One journal record, decoded as far as the journal itself reads it:
/// updates and states stay encoded (the journal is not generic over
/// the ADT; the typed handle decodes them).
enum Record<'a> {
    /// `rest` is `clock, pid, update` still encoded.
    Update {
        key: Key,
        clock: u64,
        rest: &'a [u8],
    },
    Base {
        key: Key,
        bound: u64,
        state: &'a [u8],
    },
    Watermark {
        key: Key,
        clock: u64,
    },
    Seal,
}

impl<'a> Record<'a> {
    /// `None` for a payload no version-2 writer produces (treated
    /// like a CRC failure: the scan stops there).
    fn parse(payload: &'a [u8]) -> Option<Self> {
        let mut r = Reader::new(payload);
        let tag = u8::decode(&mut r)?;
        if tag == TAG_SEAL {
            return r.is_exhausted().then_some(Record::Seal);
        }
        let key = u64::decode(&mut r)?;
        let rest = &payload[payload.len() - r.remaining()..];
        let number = u64::decode(&mut r)?;
        match tag {
            TAG_UPDATE => Some(Record::Update {
                key,
                clock: number,
                rest,
            }),
            TAG_BASE => Some(Record::Base {
                key,
                bound: number,
                state: r.take(r.remaining())?,
            }),
            TAG_WATERMARK => r
                .is_exhausted()
                .then_some(Record::Watermark { key, clock: number }),
            _ => None,
        }
    }
}

/// What the recovery scan found for one key, still encoded.
#[derive(Debug, Default)]
struct Recovered {
    /// The highest-bound base record: bound and encoded state.
    base: Option<(u64, Vec<u8>)>,
    /// Framed length of that base record.
    base_len: u64,
    /// Every update record of the key in journal order, each as
    /// `[len: u32][clock, pid, update]`.
    tail: Vec<u8>,
    /// How many of them lie above the base bound, and their framed
    /// bytes.
    above: (u64, u64),
    watermark: u64,
}

impl Recovered {
    fn bound(&self) -> u64 {
        self.base.as_ref().map_or(0, |(bound, _)| *bound)
    }

    /// The `clock, pid, update` bytes of every update above `bound`.
    fn updates_above(tail: &[u8], bound: u64) -> impl Iterator<Item = &[u8]> {
        let mut r = Reader::new(tail);
        std::iter::from_fn(move || {
            let len = u32::decode(&mut r)? as usize;
            r.take(len)
        })
        .filter(move |rest| u64::from_bytes(&rest[..8]).is_some_and(|clock| clock > bound))
    }
}

/// File operations the shard journals of one [`SegmentFactory`] have
/// issued on their live generations (see
/// [`SegmentFactory::io_counts`]). A generation rewrite's own copy is
/// not counted, nor is the store's `CLOCK` file: it is not a journal.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoCounts {
    /// `write` calls: one per commit that had records staged, one per
    /// write-through of a full buffer.
    pub writes: u64,
    /// `fdatasync` calls (the fsync tier's commits).
    pub syncs: u64,
}

/// One shard's journal: the live generation, its staging buffer, and
/// the accounting that decides when to rewrite it. Shared by the
/// shard's key handles behind an `Arc<Mutex<_>>` that a shard's one
/// owner (the store, or the pool worker the shard belongs to) never
/// contends on.
#[derive(Debug)]
struct Journal {
    dir: PathBuf,
    /// `fdatasync` on every flush (power-loss durability) instead of
    /// stopping at the OS page cache (process-crash durability).
    /// Rewrites sync their temp file on both tiers — the rename must
    /// never publish a file whose bytes could still be lost.
    fsync: bool,
    generation: u64,
    /// Append descriptor of the live generation; opened (and the file
    /// and directory created) by the first write.
    file: Option<File>,
    /// Records staged since the last write.
    staged: Vec<u8>,
    /// Bytes of the live generation, staged ones included.
    len: u64,
    /// Bytes of it that newer records supersede. Exact after a
    /// rewrite; in between, update records retired by a base are
    /// counted at the key's mean record size.
    dead: u64,
    /// Written since the last `fdatasync`.
    unsynced: bool,
    /// What [`SegmentFactory::io_counts`] sums.
    io: IoCounts,
    /// Recovery results not yet claimed by a key's handle.
    recovered: BTreeMap<Key, Box<Recovered>>,
}

impl Journal {
    /// Open the shard journal under `dir`, running the recovery scan
    /// described in the [module docs](self). A missing directory is
    /// an empty journal; nothing is created until the first write.
    fn open(dir: PathBuf, fsync: bool) -> io::Result<Self> {
        let mut generations = Vec::new();
        match fs::read_dir(&dir) {
            Ok(entries) => {
                for entry in entries.flatten() {
                    let name = entry.file_name();
                    let Some(name) = name.to_str() else { continue };
                    if name.ends_with(TMP_SUFFIX) {
                        // A rewrite that never reached its rename.
                        let _ = fs::remove_file(entry.path());
                    } else if let Some(generation) = parse_generation(name) {
                        generations.push(generation);
                    }
                }
            }
            Err(err) if err.kind() == io::ErrorKind::NotFound => {}
            Err(err) => return Err(err),
        }
        generations.sort_unstable();
        let mut journal = Journal {
            dir,
            fsync,
            generation: generations.last().copied().unwrap_or(1),
            file: None,
            staged: Vec::new(),
            len: 0,
            dead: 0,
            unsynced: false,
            io: IoCounts::default(),
            recovered: BTreeMap::new(),
        };
        for &generation in &generations {
            journal.scan(generation)?;
        }
        // A rename publishes a generation only once it holds every
        // live record of the one before: the older ones are leftovers
        // of a rewrite that crashed before its unlink.
        for &generation in generations.iter().rev().skip(1) {
            let _ = fs::remove_file(generation_path(&journal.dir, generation));
        }
        let mut live = 0;
        for rec in journal.recovered.values_mut() {
            for rest in Recovered::updates_above(&rec.tail, rec.bound()) {
                // tag + key precede `rest` in the record.
                rec.above.0 += 1;
                rec.above.1 += (FRAME_HEADER + 9 + rest.len()) as u64;
            }
            live += rec.base_len + rec.above.1;
            if rec.watermark != 0 {
                live += WATERMARK_LEN;
            }
        }
        journal.dead = journal.len.saturating_sub(live);
        Ok(journal)
    }

    /// Merge one generation's records into `recovered`; for the live
    /// generation also measure it and cut a torn tail off.
    fn scan(&mut self, generation: u64) -> io::Result<()> {
        let path = generation_path(&self.dir, generation);
        let file = File::open(&path)?;
        let len = file.metadata()?.len();
        let mut reader = FrameReader::new(file, len);
        // Only a rewrite creates generations after the first.
        let mut sealed = generation == 1;
        let mut valid = 0;
        while let Some((at, frame)) = reader.next_frame()? {
            let framed = frame.len() as u64;
            match Record::parse(&frame[FRAME_HEADER..]) {
                Some(Record::Update { key, rest, .. }) => {
                    let rec = self.recovered.entry(key).or_default();
                    rec.tail
                        .extend_from_slice(&(rest.len() as u32).to_le_bytes());
                    rec.tail.extend_from_slice(rest);
                }
                Some(Record::Base { key, bound, state }) => {
                    let rec = self.recovered.entry(key).or_default();
                    if rec.base.is_none() || bound >= rec.bound() {
                        rec.base = Some((bound, state.to_vec()));
                        rec.base_len = framed;
                    }
                }
                Some(Record::Watermark { key, clock }) => {
                    self.recovered.entry(key).or_default().watermark = clock;
                }
                Some(Record::Seal) => sealed = true,
                None => break,
            }
            valid = at + framed;
        }
        if !sealed {
            return Err(invalid_data(format!(
                "uc-storage: {} ends before its seal record: a rewritten \
                 generation holds base snapshots whose updates are gone; \
                 refusing to recover a truncated state",
                path.display()
            )));
        }
        if generation == self.generation {
            if valid < len {
                // Cut the torn tail off, or appends behind it would be
                // unreachable to the next scan.
                let file = OpenOptions::new().write(true).open(&path)?;
                file.set_len(valid)?;
                if self.fsync {
                    file.sync_data()?;
                }
            }
            self.len = valid;
        }
        Ok(())
    }

    /// Stage one record — `tag`, `key`, then whatever `body` encodes —
    /// and return its framed length. A buffer already past
    /// [`BUFFER_LIMIT`] is written through first.
    fn stage(&mut self, tag: u8, key: Key, body: impl FnOnce(&mut Vec<u8>)) -> u64 {
        if self.staged.len() >= BUFFER_LIMIT {
            self.write_staged();
        }
        let start = begin_frame(&mut self.staged);
        self.staged.push(tag);
        key.encode(&mut self.staged);
        body(&mut self.staged);
        end_frame(&mut self.staged, start);
        let framed = (self.staged.len() - start) as u64;
        self.len += framed;
        framed
    }

    /// Take back the record of `framed` bytes just staged.
    fn unstage(&mut self, framed: u64) {
        self.staged.truncate(self.staged.len() - framed as usize);
        self.len -= framed;
    }

    fn stage_update<U: Codec>(&mut self, key: Key, ts: Timestamp, u: &U) -> u64 {
        self.stage(TAG_UPDATE, key, |out| {
            ts.clock.encode(out);
            ts.pid.encode(out);
            u.encode(out);
        })
    }

    /// Hand the staged records to the OS: one `write`.
    fn write_staged(&mut self) {
        if self.staged.is_empty() {
            return;
        }
        let file = match &mut self.file {
            Some(file) => file,
            None => {
                let path = generation_path(&self.dir, self.generation);
                let created = fs::create_dir_all(&self.dir)
                    .and_then(|()| OpenOptions::new().create(true).append(true).open(&path));
                if self.fsync {
                    sync_dir(&self.dir);
                }
                match created {
                    Ok(file) => self.file.insert(file),
                    Err(err) => io_panic("opening journal", &path, err),
                }
            }
        };
        if let Err(err) = file.write_all(&self.staged) {
            io_panic("appending to the journal in", &self.dir, err);
        }
        self.staged.clear();
        self.unsynced = true;
        self.io.writes += 1;
    }

    /// The durability point: write what is staged, sync it on the
    /// fsync tier, and rewrite the generation if it has earned it.
    fn commit(&mut self) {
        self.write_staged();
        if self.fsync && self.unsynced {
            if let Some(file) = &self.file {
                if let Err(err) = file.sync_data() {
                    io_panic("syncing journal", &self.dir, err);
                }
            }
            self.unsynced = false;
            self.io.syncs += 1;
        }
        if self.dead > REWRITE_FLOOR && self.dead > self.len.saturating_sub(self.dead) {
            if let Err(err) = self.rewrite() {
                io_panic("rewriting journal generation in", &self.dir, err);
            }
        }
    }

    /// Stream the live records of the (fully written) live generation
    /// into the next one — see the [module docs](self) for the
    /// crash-consistency argument. Two passes through a bounded
    /// window: the first finds each key's winning base and watermark,
    /// the second copies what they leave alive.
    fn rewrite(&mut self) -> io::Result<()> {
        /// Per key: the winning base's bound and offset, the winning
        /// watermark's offset.
        #[derive(Default)]
        struct Winner {
            base: Option<(u64, u64)>,
            watermark: Option<u64>,
        }
        let old = generation_path(&self.dir, self.generation);
        let open = || -> io::Result<FrameReader<File>> {
            let file = File::open(&old)?;
            let len = file.metadata()?.len();
            Ok(FrameReader::new(file, len))
        };
        // Unverified: the second pass sums every frame, and nothing
        // is published unless it accepts them all.
        let mut winners: BTreeMap<Key, Winner> = BTreeMap::new();
        let mut reader = open()?.unverified();
        while let Some((at, frame)) = reader.next_frame()? {
            match Record::parse(&frame[FRAME_HEADER..]) {
                Some(Record::Base { key, bound, .. }) => {
                    let winner = winners.entry(key).or_default();
                    if winner.base.is_none_or(|(b, _)| bound >= b) {
                        winner.base = Some((bound, at));
                    }
                }
                Some(Record::Watermark { key, .. }) => {
                    winners.entry(key).or_default().watermark = Some(at);
                }
                _ => {}
            }
        }

        let next = generation_path(&self.dir, self.generation + 1);
        let tmp = tmp_path(&next);
        let mut out = BufWriter::new(File::create(&tmp)?);
        let mut len = 0;
        let mut reader = open()?;
        while let Some((at, frame)) = reader.next_frame()? {
            let live = match Record::parse(&frame[FRAME_HEADER..]) {
                Some(Record::Update { key, clock, .. }) => winners
                    .get(&key)
                    .and_then(|w| w.base)
                    .is_none_or(|(bound, _)| clock > bound),
                Some(Record::Base { key, .. }) => {
                    winners.get(&key).and_then(|w| w.base).map(|(_, at)| at) == Some(at)
                }
                Some(Record::Watermark { key, .. }) => {
                    winners.get(&key).and_then(|w| w.watermark) == Some(at)
                }
                Some(Record::Seal) | None => false,
            };
            if live {
                out.write_all(frame)?;
                len += frame.len() as u64;
            }
        }
        if reader.truncated() {
            return Err(invalid_data(format!(
                "{} is damaged at byte {}",
                old.display(),
                reader.offset()
            )));
        }
        let seal = frame(&[TAG_SEAL]);
        out.write_all(&seal)?;
        len += seal.len() as u64;
        let file = out.into_inner().map_err(io::IntoInnerError::into_error)?;
        file.sync_data()?;
        fs::rename(&tmp, &next)?;
        if self.fsync {
            // The rename must be durable before the unlink is.
            sync_dir(&self.dir);
        }
        let _ = fs::remove_file(&old);
        // `file` was never opened for append, but its cursor sits at
        // the end and nothing else writes to it.
        self.file = Some(file);
        self.generation += 1;
        self.len = len;
        self.dead = 0;
        Ok(())
    }
}

/// One key's handle on its shard's journal. See the [module
/// docs](self) for the format and the crash-consistency argument.
pub struct SegmentBackend<A: UqAdt> {
    journal: Arc<Mutex<Journal>>,
    key: Key,
    /// Stability bound of the engine's latest compaction (the staged
    /// base record may lag it).
    bound: u64,
    /// Last clock watermark staged (0: none yet).
    watermark: u64,
    /// Update records journaled above the last staged base: how many,
    /// and their framed bytes.
    above: (u64, u64),
    /// Framed length of the last staged base record.
    base_len: u64,
    /// Found by the shard's recovery scan, consumed by the recovery
    /// accessors.
    recovered: Option<Box<Recovered>>,
    _adt: PhantomData<fn() -> A>,
}

impl<A: UqAdt> fmt::Debug for SegmentBackend<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SegmentBackend")
            .field("key", &self.key)
            .field("bound", &self.bound)
            .field("watermark", &self.watermark)
            .finish_non_exhaustive()
    }
}

impl<A: UqAdt> SegmentBackend<A> {
    fn new(journal: Arc<Mutex<Journal>>, key: Key, recovered: Option<Box<Recovered>>) -> Self {
        let rec = recovered.as_deref();
        SegmentBackend {
            journal,
            key,
            bound: rec.map_or(0, Recovered::bound),
            watermark: rec.map_or(0, |r| r.watermark),
            above: rec.map_or((0, 0), |r| r.above),
            base_len: rec.map_or(0, |r| r.base_len),
            recovered,
            _adt: PhantomData,
        }
    }

    /// The stability bound of the engine's latest compaction
    /// (observability and tests).
    pub fn base_bound(&self) -> u64 {
        self.bound
    }

    fn undecodable(&self, what: &str) -> ! {
        panic!(
            "uc-storage: key {} holds a CRC-valid {what} record that does not \
             decode: was the root written by a different ADT?",
            self.key
        );
    }
}

impl<A> LogBackend<A> for SegmentBackend<A>
where
    A: UqAdt,
    A::Update: Codec,
    A::State: Codec,
{
    fn append(&mut self, ts: Timestamp, u: &A::Update) {
        let framed = lock(&self.journal).stage_update(self.key, ts, u);
        self.above = (self.above.0 + 1, self.above.1 + framed);
    }

    fn append_batch(&mut self, entries: &[(Timestamp, A::Update)]) {
        let mut journal = lock(&self.journal);
        for (ts, u) in entries {
            let framed = journal.stage_update(self.key, *ts, u);
            self.above = (self.above.0 + 1, self.above.1 + framed);
        }
    }

    fn truncate_to_base(&mut self, bound: u64, state: &A::State, tail: &[(Timestamp, A::Update)]) {
        self.bound = bound;
        // What a base record at `bound` would retire: the updates
        // journaled above the last staged base that are not in `tail`.
        let (count, bytes) = self.above;
        let retired = count.saturating_sub(tail.len() as u64);
        if retired == 0 {
            return;
        }
        let retired_bytes = bytes * retired / count;
        if retired_bytes < self.base_len {
            // The new base will be about the size of the last one:
            // not worth encoding it to find out. (Should the state
            // have shrunk, its base is merely staged later.)
            return;
        }
        let mut journal = lock(&self.journal);
        let framed = journal.stage(TAG_BASE, self.key, |out| {
            bound.encode(out);
            state.encode(out);
        });
        if retired_bytes < framed {
            journal.unstage(framed);
            return;
        }
        journal.dead += retired_bytes + self.base_len;
        drop(journal);
        self.above = (count - retired, bytes - retired_bytes);
        self.base_len = framed;
    }

    fn flush(&mut self, clock: u64) {
        self.stage_flush(clock);
        lock(&self.journal).commit();
    }

    /// Stage the watermark and leave the commit to the next `flush`
    /// of any handle on this journal, which writes everything the
    /// shard has staged.
    fn stage_flush(&mut self, clock: u64) {
        if self.watermark == clock {
            return;
        }
        let mut journal = lock(&self.journal);
        let framed = journal.stage(TAG_WATERMARK, self.key, |out| clock.encode(out));
        if self.watermark != 0 {
            journal.dead += framed;
        }
        self.watermark = clock;
    }

    fn load_base(&mut self) -> Option<(u64, A::State)> {
        let (bound, state) = self.recovered.as_mut()?.base.take()?;
        let state = A::State::from_bytes(&state).unwrap_or_else(|| self.undecodable("base"));
        Some((bound, state))
    }

    fn scan_suffix(&mut self) -> Vec<(Timestamp, A::Update)> {
        let Some(rec) = self.recovered.as_mut() else {
            return Vec::new();
        };
        let tail = std::mem::take(&mut rec.tail);
        if rec.base.is_none() {
            self.recovered = None;
        }
        Recovered::updates_above(&tail, self.bound)
            .map(|rest| {
                <((u64, u32), A::Update)>::from_bytes(rest)
                    .map(|((clock, pid), update)| (Timestamp::new(clock, pid), update))
                    .unwrap_or_else(|| self.undecodable("update"))
            })
            .collect()
    }

    fn clock_watermark(&self) -> u64 {
        self.watermark
    }
}

/// The [`BackendFactory`] of [`SegmentBackend`]s: one directory tree
/// per store, one journal per shard (see the [module docs](self) for
/// the layout).
///
/// [`SegmentFactory::at`] is create-or-open: pass the same root to
/// [`UcStore::with_persistence`](uc_core::UcStore::with_persistence)
/// to write and later to
/// [`UcStore::reopen`](uc_core::UcStore::reopen) to recover. The
/// replica configuration (pid, shard count, strategy) must match
/// across the two. Clones share the open journals, so one store (or
/// one pool and its workers) must be the only writer of a root.
#[derive(Clone, Debug)]
pub struct SegmentFactory {
    root: PathBuf,
    fsync: bool,
    /// The open journal of each shard. A journal lives as long as a
    /// key handle holds it: dropping a store drops its journals, what
    /// they had staged is lost as in a crash, and the next open of the
    /// shard — through this factory or another — recovers from disk.
    journals: Arc<Mutex<HashMap<usize, Weak<Mutex<Journal>>>>>,
}

impl SegmentFactory {
    /// Create or open the store directory at `root`, verifying the
    /// store manifest's format version (written on first create).
    /// Flushes default to process-crash durability (OS page cache);
    /// see [`SegmentFactory::fsync`].
    pub fn at(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        let manifest = root.join("MANIFEST");
        match read_framed(&manifest).and_then(|p| u32::from_bytes(&p)) {
            Some(FORMAT_VERSION) => {}
            Some(1) => {
                return Err(invalid_data(format!(
                    "uc-storage: {} holds format version 1 (one set of segment files \
                     per key); this build reads only version {FORMAT_VERSION} (one \
                     journal per shard) and does not convert: recover the store with \
                     the build that wrote it, or start from an empty root",
                    root.display()
                )))
            }
            Some(v) => {
                return Err(invalid_data(format!(
                    "uc-storage format version {v}, this build reads {FORMAT_VERSION}"
                )))
            }
            None => write_atomic(&manifest, &FORMAT_VERSION.to_bytes())?,
        }
        Ok(SegmentFactory {
            root,
            fsync: false,
            journals: Arc::default(),
        })
    }

    /// Choose the flush durability tier, before the first key is
    /// opened: `true` additionally `fdatasync`s the shard journal on
    /// every flush (power-loss durability), one sync per shard with
    /// something staged. Generation rewrites sync what they publish regardless.
    pub fn fsync(mut self, on: bool) -> Self {
        self.fsync = on;
        self
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// [`IoCounts`] summed over the journals this factory (or a clone
    /// of it) holds open — a dropped store's journals, and their
    /// counts, are gone. A flush of `d` shards with something staged
    /// adds `d` writes, and `d` syncs on the fsync tier; tests and
    /// benches read the difference across the call.
    pub fn io_counts(&self) -> IoCounts {
        let mut sum = IoCounts::default();
        for journal in self.registry().values().filter_map(Weak::upgrade) {
            let io = lock(&journal).io;
            sum.writes += io.writes;
            sum.syncs += io.syncs;
        }
        sum
    }

    fn registry(&self) -> MutexGuard<'_, HashMap<usize, Weak<Mutex<Journal>>>> {
        self.journals
            .lock()
            .expect("a shard journal failed to open (and panicked)")
    }

    /// Read the journal of `shard` from disk.
    fn recover(&self, shard: usize) -> Journal {
        let dir = self.root.join(format!("shard-{shard}"));
        Journal::open(dir.clone(), self.fsync)
            .unwrap_or_else(|err| io_panic("opening shard journal", &dir, err))
    }

    /// The journal of `shard`: the one its key handles hold open, or
    /// — with `fresh`, and when no handle is left — one newly
    /// recovered from disk, which later handles then join.
    fn journal(&self, shard: usize, fresh: bool) -> Arc<Mutex<Journal>> {
        let mut journals = self.registry();
        let open = journals.get(&shard).and_then(Weak::upgrade);
        if let Some(journal) = open.filter(|_| !fresh) {
            return journal;
        }
        let journal = Arc::new(Mutex::new(self.recover(shard)));
        journals.insert(shard, Arc::downgrade(&journal));
        journal
    }
}

impl<A> BackendFactory<A> for SegmentFactory
where
    A: UqAdt,
    A::Update: Codec,
    A::State: Codec,
{
    type Backend = SegmentBackend<A>;

    fn open(&self, shard: usize, key: Key) -> SegmentBackend<A> {
        let journal = self.journal(shard, false);
        let recovered = lock(&journal).recovered.remove(&key);
        SegmentBackend::new(journal, key, recovered)
    }

    fn list_keys(&self, shard: usize) -> Vec<Key> {
        self.recover(shard).recovered.into_keys().collect()
    }

    /// Recovery reads the disk, never a journal some live store still
    /// holds: one fresh scan of the shard serves every key, and keys
    /// the reopened store touches later join the same journal.
    fn open_all(&self, shard: usize) -> Vec<(Key, SegmentBackend<A>)> {
        let journal = self.journal(shard, true);
        let recovered = std::mem::take(&mut lock(&journal).recovered);
        recovered
            .into_iter()
            .map(|(key, rec)| {
                (
                    key,
                    SegmentBackend::new(Arc::clone(&journal), key, Some(rec)),
                )
            })
            .collect()
    }

    /// Persist `(pid, shards)` on first bind; refuse a mismatch ever
    /// after — reopening under a different shard count would silently
    /// route keys to the wrong shard — and refuse a `fresh` bind of an
    /// already-bound root — constructing a *new* store over surviving
    /// state restarts the clock, and the next reopen would silently
    /// deduplicate one run's updates away.
    ///
    /// # Panics
    ///
    /// When the directory was bound to a different replica
    /// configuration, or holds a bound store and `fresh` is requested.
    fn bind_replica(&self, pid: u32, shards: usize, fresh: bool) {
        let path = self.root.join("REPLICA");
        match read_framed(&path).and_then(|p| <(u32, u64)>::from_bytes(&p)) {
            Some((p, s)) => {
                assert!(
                    !fresh,
                    "uc-storage: {} already holds a bound store \
                     (pid {p}, {s} shards); use UcStore::reopen to recover it",
                    self.root.display()
                );
                assert!(
                    p == pid && s == shards as u64,
                    "uc-storage: {} is bound to pid {p} / {s} shards, \
                     refusing to open as pid {pid} / {shards} shards",
                    self.root.display()
                );
            }
            None => {
                if let Err(err) = write_atomic(&path, &(pid, shards as u64).to_bytes()) {
                    io_panic("writing replica binding", &path, err);
                }
            }
        }
    }

    fn load_store_clock(&self) -> u64 {
        read_framed(&self.root.join("CLOCK"))
            .and_then(|p| u64::from_bytes(&p))
            .unwrap_or(0)
    }

    fn persist_store_clock(&self, clock: u64) {
        // A fixed-size in-place rewrite: this runs on every
        // maintenance tick and on the local-update clock lease, so
        // rename/fsync churn here would dominate idle stores (the
        // store skips the call entirely when the floor is unchanged).
        let path = self.root.join("CLOCK");
        if let Err(err) = overwrite_framed(&path, &clock.to_bytes(), self.fsync) {
            io_panic("writing store clock", &path, err);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;
    use std::collections::BTreeSet;
    use uc_spec::{SetAdt, SetUpdate};

    type Adt = SetAdt<u32>;
    type B = SegmentBackend<Adt>;
    type Entry = (Timestamp, SetUpdate<u32>);

    fn factory(tmp: &ScratchDir) -> SegmentFactory {
        SegmentFactory::at(tmp.path()).unwrap()
    }

    /// Key `key`'s handle in shard 0.
    fn open(f: &SegmentFactory, key: Key) -> B {
        BackendFactory::<Adt>::open(f, 0, key)
    }

    fn entry(clock: u64, pid: u32, v: u32) -> Entry {
        (Timestamp::new(clock, pid), SetUpdate::Insert(v))
    }

    fn shard_dir(tmp: &ScratchDir) -> PathBuf {
        tmp.path().join("shard-0")
    }

    /// Names and sizes of everything in shard 0's directory, sorted.
    fn shard_files(tmp: &ScratchDir) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = fs::read_dir(shard_dir(tmp))
            .unwrap()
            .flatten()
            .map(|e| {
                let name = e.file_name().into_string().unwrap();
                (name, e.metadata().unwrap().len())
            })
            .collect();
        out.sort();
        out
    }

    fn generation_name(generation: u64) -> String {
        generation_path(Path::new(""), generation)
            .into_os_string()
            .into_string()
            .unwrap()
    }

    /// Journal bytes up to and including the last record staged.
    fn journal_len(b: &B) -> u64 {
        lock(&b.journal).len
    }

    /// Updates whose records outweigh [`REWRITE_FLOOR`].
    const RETIRED: u64 = 8_000;

    /// Enough dead bytes for a rewrite: [`RETIRED`] updates of key
    /// `b`, all folded into a staged base, flushed at that clock.
    fn retire_updates(b: &mut B) -> BTreeSet<u32> {
        let entries: Vec<Entry> = (1..=RETIRED).map(|i| entry(i, 0, i as u32 % 50)).collect();
        assert!(entries.len() as u64 * 34 > REWRITE_FLOOR);
        b.append_batch(&entries);
        let base: BTreeSet<u32> = (0..50).collect();
        b.truncate_to_base(RETIRED, &base, &[]);
        b.flush(RETIRED);
        base
    }

    #[test]
    fn append_flush_reopen_round_trips() {
        let tmp = ScratchDir::new("seg-roundtrip");
        let f = factory(&tmp);
        let mut b = open(&f, 7);
        b.append(Timestamp::new(3, 1), &SetUpdate::Insert(30));
        b.append(Timestamp::new(1, 0), &SetUpdate::Delete(10));
        b.flush(5);
        drop(b);
        let mut r = open(&f, 7);
        assert_eq!(r.load_base(), None);
        let tail = r.scan_suffix();
        assert_eq!(tail.len(), 2, "journal order preserved");
        assert_eq!(tail[0].0, Timestamp::new(3, 1));
        assert_eq!(r.clock_watermark(), 5);
    }

    #[test]
    fn unflushed_appends_are_not_durable() {
        let tmp = ScratchDir::new("seg-unflushed");
        let f = factory(&tmp);
        let mut b = open(&f, 1);
        b.append(Timestamp::new(1, 0), &SetUpdate::Insert(1));
        drop(b); // crash before flush
        let mut r = open(&f, 1);
        assert!(r.scan_suffix().is_empty(), "write-behind buffer was lost");
    }

    #[test]
    fn staged_bytes_past_the_buffer_limit_are_written_through() {
        let tmp = ScratchDir::new("seg-writethrough");
        let f = factory(&tmp);
        let mut b = open(&f, 1);
        let entries: Vec<Entry> = (1..=1_600).map(|i| entry(i, 0, i as u32)).collect();
        assert!(entries.len() * 34 > 3 * BUFFER_LIMIT);
        b.append_batch(&entries);
        let staged = lock(&b.journal).staged.len();
        assert!(staged < BUFFER_LIMIT + 64, "{staged} bytes held back");
        let on_disk = shard_files(&tmp)[0].1;
        assert_eq!(on_disk + staged as u64, journal_len(&b));
        drop(b); // crash: the early bytes are a prefix, and harmless
        let recovered = open(&f, 1).scan_suffix();
        assert_eq!(recovered[..], entries[..recovered.len()]);
        assert!(!recovered.is_empty() && recovered.len() < entries.len());
    }

    #[test]
    fn compaction_persists_base_and_drops_dead_segments() {
        let tmp = ScratchDir::new("seg-compact");
        let f = factory(&tmp);
        let mut b = open(&f, 2);
        b.append_batch(&[entry(1, 0, 1), entry(2, 0, 2), entry(3, 0, 3)]);
        b.flush(3);
        let base: BTreeSet<u32> = [1, 2].into();
        b.truncate_to_base(2, &base, &[entry(3, 0, 3)]);
        assert_eq!(b.base_bound(), 2);
        b.flush(3);
        drop(b);
        let mut r = open(&f, 2);
        assert_eq!(r.base_bound(), 2);
        assert_eq!(r.load_base(), Some((2, base)));
        assert_eq!(
            r.scan_suffix(),
            vec![entry(3, 0, 3)],
            "only the tail replays"
        );
        // Nothing was rewritten for that: the dead records are still
        // in generation 1. Enough of them earn a rewrite, which keeps
        // the winning base, the live tail and the watermark only.
        let before = shard_files(&tmp);
        assert_eq!(before[0].0, generation_name(1));
        let base = retire_updates(&mut r);
        r.append(Timestamp::new(RETIRED + 1, 0), &SetUpdate::Insert(77));
        r.flush(RETIRED + 1);
        drop(r);
        let after = shard_files(&tmp);
        assert_eq!(after.len(), 1, "old generation unlinked: {after:?}");
        assert_eq!(after[0].0, generation_name(2));
        assert!(after[0].1 < 1024, "dead records dropped: {after:?}");
        let mut r = open(&f, 2);
        assert_eq!(r.load_base(), Some((RETIRED, base)));
        assert_eq!(r.scan_suffix(), vec![entry(RETIRED + 1, 0, 77)]);
        assert_eq!(r.clock_watermark(), RETIRED + 1);
    }

    #[test]
    fn a_base_is_staged_only_once_it_retires_its_own_size() {
        let tmp = ScratchDir::new("seg-base-pays");
        let f = factory(&tmp);
        let mut b = open(&f, 1);
        let state: BTreeSet<u32> = (0..64).collect(); // ~290 bytes framed
        let mut log = Vec::new();
        let mut staged_at = Vec::new();
        for clock in 1..=20u64 {
            log.push(entry(clock, 0, clock as u32));
            b.append(log.last().unwrap().0, &log.last().unwrap().1);
            let before = journal_len(&b);
            b.truncate_to_base(clock, &state, &[]);
            if journal_len(&b) > before {
                staged_at.push(clock);
            }
        }
        // 34-byte updates: the ninth retires 306 bytes, the next base
        // needs nine more.
        assert_eq!(staged_at, vec![9, 18]);
        assert_eq!(b.base_bound(), 20, "the engine's bound, not the staged one");
        b.flush(20);
        drop(b);
        // The staged base lags; the updates above it make up for it.
        let mut r = open(&f, 1);
        assert_eq!(r.load_base(), Some((18, state)));
        assert_eq!(r.scan_suffix(), log[18..]);
    }

    #[test]
    fn empty_tail_compaction_survives_two_reopens() {
        let tmp = ScratchDir::new("seg-empty-tail");
        let f = factory(&tmp);
        let mut b = open(&f, 3);
        b.append_batch(&[entry(1, 0, 1), entry(2, 0, 2), entry(3, 0, 3)]);
        b.flush(3);
        let base: BTreeSet<u32> = [1, 2, 3].into();
        b.truncate_to_base(3, &base, &[]); // whole log stable: empty tail
        b.flush(3);
        drop(b);
        let mut r = open(&f, 3);
        assert_eq!(r.load_base(), Some((3, base.clone())));
        assert!(r.scan_suffix().is_empty());
        r.append(Timestamp::new(4, 0), &SetUpdate::Insert(4));
        r.flush(4);
        drop(r);
        let mut r2 = open(&f, 3);
        assert_eq!(r2.load_base(), Some((3, base)));
        assert_eq!(
            r2.scan_suffix(),
            vec![entry(4, 0, 4)],
            "post-compaction flush lost on the second reopen"
        );
    }

    #[test]
    fn flush_crash_before_watermark_still_recovers_segment() {
        // A flush writes a key's updates ahead of its watermark
        // record; a crash between the two must keep the updates.
        let tmp = ScratchDir::new("seg-wm-crash");
        let f = factory(&tmp);
        let mut b = open(&f, 6);
        b.append(Timestamp::new(1, 0), &SetUpdate::Insert(1));
        b.flush(1);
        drop(b);
        let path = generation_path(&shard_dir(&tmp), 1);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - WATERMARK_LEN as usize]).unwrap();
        let mut r = open(&f, 6);
        assert_eq!(r.clock_watermark(), 0, "falls back to max(bound, tail)");
        assert_eq!(r.scan_suffix(), vec![entry(1, 0, 1)]);
        r.append(Timestamp::new(2, 0), &SetUpdate::Insert(2));
        r.flush(2);
        drop(r);
        let mut r2 = open(&f, 6);
        assert_eq!(r2.scan_suffix(), vec![entry(1, 0, 1), entry(2, 0, 2)]);
        assert_eq!(r2.clock_watermark(), 2);
    }

    #[test]
    fn stale_tmp_files_do_not_materialize_phantom_keys() {
        // A crash between a rewrite's temp write and its rename
        // leaves `j<gen>.log.tmp`: never read, swept on open.
        let tmp = ScratchDir::new("seg-stale-tmp");
        let f = factory(&tmp);
        let mut b = open(&f, 1);
        b.append(Timestamp::new(1, 0), &SetUpdate::Insert(1));
        b.flush(1);
        let mut phantom = open(&factory(&ScratchDir::new("seg-stale-tmp-donor")), 99);
        phantom.append(Timestamp::new(1, 0), &SetUpdate::Insert(9));
        let leftover = lock(&phantom.journal).staged.clone();
        drop((b, phantom));
        let stale = tmp_path(&generation_path(&shard_dir(&tmp), 2));
        fs::write(&stale, leftover).unwrap();
        assert_eq!(BackendFactory::<Adt>::list_keys(&f, 0), vec![1]);
        let opened = BackendFactory::<Adt>::open_all(&f, 0);
        assert_eq!(opened.iter().map(|(k, _)| *k).collect::<Vec<_>>(), vec![1]);
        assert!(!stale.exists(), "open leaves stale temp files behind");
    }

    #[test]
    fn damaged_rewritten_generation_refuses_to_open() {
        // A rewritten generation holds bases whose updates are gone:
        // recovering a prefix of what the rewrite copied would serve a
        // truncated state. That must be a loud open failure.
        let tmp = ScratchDir::new("seg-lost-base");
        let f = factory(&tmp);
        let mut b = open(&f, 8);
        retire_updates(&mut b);
        b.append(Timestamp::new(RETIRED + 1, 0), &SetUpdate::Insert(77));
        b.flush(RETIRED + 1);
        drop(b);
        let path = generation_path(&shard_dir(&tmp), 2);
        let bytes = fs::read(&path).unwrap();
        // A flipped bit in the base record, and a cut at its end.
        let base_len = FrameScanner::new(&bytes).next().unwrap().len() + FRAME_HEADER;
        let mut flipped = bytes.clone();
        flipped[base_len / 2] ^= 0x10;
        for damaged in [&flipped[..], &bytes[..base_len]] {
            fs::write(&path, damaged).unwrap();
            let err = Journal::open(shard_dir(&tmp), false).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("seal record"), "{err}");
        }
        // Behind the seal the file is append-only again: damage there
        // is a torn tail.
        let mut torn = bytes.clone();
        let last = torn.len() - 1;
        torn[last] ^= 0x10;
        fs::write(&path, &torn).unwrap();
        let mut r = open(&f, 8);
        assert!(r.load_base().is_some());
        assert_eq!(r.scan_suffix(), vec![entry(RETIRED + 1, 0, 77)]);
        assert_eq!(
            r.clock_watermark(),
            RETIRED,
            "the torn record was the watermark"
        );
    }

    #[test]
    fn torn_final_record_is_dropped_on_reopen() {
        let tmp = ScratchDir::new("seg-torn");
        let f = factory(&tmp);
        let mut b = open(&f, 4);
        b.append(Timestamp::new(1, 0), &SetUpdate::Insert(1));
        b.append(Timestamp::new(2, 0), &SetUpdate::Insert(2));
        b.flush(2);
        drop(b);
        // Tear the last update record: chop the watermark behind it
        // and three of its bytes off the journal (the classic crash
        // shape — a prefix of the final write persisted).
        let path = generation_path(&shard_dir(&tmp), 1);
        let bytes = fs::read(&path).unwrap();
        let cut = bytes.len() - WATERMARK_LEN as usize - 3;
        fs::write(&path, &bytes[..cut]).unwrap();
        let mut r = open(&f, 4);
        assert_eq!(r.scan_suffix(), vec![entry(1, 0, 1)], "torn record dropped");
        // The torn bytes are cut off, so what is appended next is not
        // stranded behind them.
        assert!(fs::metadata(&path).unwrap().len() < cut as u64);
        r.append(Timestamp::new(3, 0), &SetUpdate::Insert(3));
        r.flush(3);
        drop(r);
        assert_eq!(
            open(&f, 4).scan_suffix(),
            vec![entry(1, 0, 1), entry(3, 0, 3)]
        );
    }

    #[test]
    fn watermark_survives_compaction_and_idle_flush() {
        let tmp = ScratchDir::new("seg-wm-compact");
        let f = factory(&tmp);
        let mut b = open(&f, 9);
        b.append(Timestamp::new(1, 0), &SetUpdate::Insert(1));
        b.flush(50);
        b.truncate_to_base(1, &BTreeSet::from([1]), &[]);
        b.flush(50); // idle: clock unchanged since last flush
        drop(b);
        assert_eq!(open(&f, 9).clock_watermark(), 50);
        // ... and a rewrite, which keeps each key's last watermark.
        let mut big = open(&f, 10);
        retire_updates(&mut big);
        drop(big);
        assert_eq!(shard_files(&tmp)[0].0, generation_name(2));
        assert_eq!(open(&f, 9).clock_watermark(), 50, "lost across the rewrite");
        assert_eq!(open(&f, 10).clock_watermark(), RETIRED);
    }

    #[test]
    fn compaction_does_not_grow_idle_flush_footprint() {
        // An idle key whose clock keeps moving (heartbeats) stages one
        // small record per flush; rewrites keep the directory bounded.
        let tmp = ScratchDir::new("seg-wm-bounded");
        let f = factory(&tmp);
        let mut b = open(&f, 2);
        b.append(Timestamp::new(1, 0), &SetUpdate::Insert(1));
        b.flush(1);
        // Enough superseded watermarks for a rewrite, and some more.
        const CLOCKS: u64 = REWRITE_FLOOR / WATERMARK_LEN + 2_000;
        let mut largest = 0;
        for clock in 2..CLOCKS {
            b.flush(clock);
            let before = shard_files(&tmp);
            b.flush(clock); // unchanged clock: nothing to write
            assert_eq!(shard_files(&tmp), before);
            assert_eq!(before.len(), 1, "one generation at a time: {before:?}");
            largest = largest.max(before[0].1);
        }
        assert!(
            largest <= REWRITE_FLOOR + 1024,
            "idle flushes grew the journal to {largest} bytes"
        );
        assert!(shard_files(&tmp)[0].0 > generation_name(1), "rewritten");
        drop(b);
        let mut r = open(&f, 2);
        assert_eq!(r.scan_suffix(), vec![entry(1, 0, 1)]);
        assert_eq!(r.clock_watermark(), CLOCKS - 1);
    }

    #[test]
    fn keys_are_isolated() {
        let tmp = ScratchDir::new("seg-isolated");
        let f = factory(&tmp);
        let mut a = open(&f, 1);
        let mut b = open(&f, 2);
        a.append(Timestamp::new(1, 0), &SetUpdate::Insert(1));
        b.append(Timestamp::new(1, 0), &SetUpdate::Insert(2));
        a.flush(1);
        b.flush(1);
        drop((a, b));
        assert_eq!(shard_files(&tmp).len(), 1, "one journal for the shard");
        assert_eq!(open(&f, 1).scan_suffix(), vec![entry(1, 0, 1)]);
        assert_eq!(open(&f, 2).scan_suffix(), vec![entry(1, 0, 2)]);
    }

    #[test]
    fn factory_lists_keys_and_persists_store_clock() {
        let tmp = ScratchDir::new("seg-factory");
        let f = factory(&tmp);
        let mut b = open(&f, 11);
        b.append(Timestamp::new(1, 0), &SetUpdate::Insert(1));
        b.flush(1);
        let mut c = open(&f, 3);
        c.flush(2);
        BackendFactory::<Adt>::persist_store_clock(&f, 42);
        let g = factory(&tmp);
        assert_eq!(BackendFactory::<Adt>::list_keys(&g, 0), vec![3, 11]);
        assert!(BackendFactory::<Adt>::list_keys(&g, 1).is_empty());
        assert_eq!(BackendFactory::<Adt>::load_store_clock(&g), 42);
    }

    #[test]
    fn version_mismatch_is_refused() {
        let tmp = ScratchDir::new("seg-version");
        let _ = factory(&tmp);
        write_atomic(&tmp.path().join("MANIFEST"), &99u32.to_bytes()).unwrap();
        assert!(SegmentFactory::at(tmp.path()).is_err());
        // A root of the file-per-key layout is named as such.
        write_atomic(&tmp.path().join("MANIFEST"), &1u32.to_bytes()).unwrap();
        let err = SegmentFactory::at(tmp.path()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("format version 1"), "{err}");
    }

    #[test]
    fn open_all_matches_per_key_opens() {
        let tmp = ScratchDir::new("seg-openall");
        let f = factory(&tmp);
        for key in [2u64, 5, 9] {
            let mut b: B = BackendFactory::<Adt>::open(&f, 1, key);
            b.append(Timestamp::new(key, 0), &SetUpdate::Insert(key as u32));
            b.flush(key);
        }
        let opened = BackendFactory::<Adt>::open_all(&f, 1);
        assert_eq!(
            opened.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![2, 5, 9]
        );
        for (key, mut b) in opened {
            assert_eq!(b.scan_suffix().len(), 1, "key {key}");
            assert_eq!(b.clock_watermark(), key);
        }
        assert!(BackendFactory::<Adt>::open_all(&f, 0).is_empty());
        assert!(!shard_dir(&tmp).exists(), "recovery creates nothing");
    }

    #[test]
    #[should_panic(expected = "refusing to open")]
    fn replica_binding_mismatch_is_refused() {
        let tmp = ScratchDir::new("seg-binding");
        let f = factory(&tmp);
        BackendFactory::<Adt>::bind_replica(&f, 0, 4, true);
        BackendFactory::<Adt>::bind_replica(&f, 0, 4, false); // reopen: fine
        BackendFactory::<Adt>::bind_replica(&f, 0, 2, false); // shard mismatch
    }

    #[test]
    #[should_panic(expected = "already holds a bound store")]
    fn fresh_bind_of_a_bound_root_is_refused() {
        // Regression: constructing a *new* store over surviving state
        // restarts the clock; the next reopen would dedup one run's
        // updates away. The second fresh bind must be refused.
        let tmp = ScratchDir::new("seg-fresh-bind");
        let f = factory(&tmp);
        BackendFactory::<Adt>::bind_replica(&f, 0, 4, true);
        BackendFactory::<Adt>::bind_replica(&f, 0, 4, true);
    }

    // ---- crash-point enumeration ----

    /// A three-key engine stand-in that drives handles the way
    /// `StableGc` does and remembers where in the journal each record
    /// ended, so the state any cut must recover is known.
    struct Model {
        handles: Vec<B>,
        /// Per key: base state, bound, retained log in timestamp order.
        engines: Vec<(BTreeSet<u32>, u64, Vec<Entry>)>,
        /// (journal length once staged, key, entry) per update record.
        updates: Vec<(u64, usize, Entry)>,
        /// (journal length once staged, key, clock) per watermark.
        watermarks: Vec<(u64, usize, u64)>,
        clock: u64,
    }

    /// Per key: the state and the clock watermark recovered.
    type Recovery = Vec<(BTreeSet<u32>, u64)>;

    const KEYS: usize = 3;

    impl Model {
        fn new(f: &SegmentFactory) -> Self {
            Model {
                handles: (0..KEYS).map(|k| open(f, k as Key)).collect(),
                engines: vec![(BTreeSet::new(), 0, Vec::new()); KEYS],
                updates: Vec::new(),
                watermarks: Vec::new(),
                clock: 0,
            }
        }

        /// One update of `key`: the insert of an element no other
        /// update inserts, or — every third — the delete of the last
        /// one inserted, so that a dropped or reordered record shows.
        fn update(&mut self, key: usize) {
            self.clock += 1;
            let inserted = self
                .updates
                .iter()
                .rev()
                .find_map(|(_, k, (_, u))| match u {
                    SetUpdate::Insert(v) if *k == key => Some(*v),
                    _ => None,
                });
            let u = match inserted {
                Some(v) if self.clock.is_multiple_of(3) => SetUpdate::Delete(v),
                _ => SetUpdate::Insert(self.clock as u32),
            };
            let e = (Timestamp::new(self.clock, key as u32), u);
            self.handles[key].append(e.0, &e.1);
            self.engines[key].2.push(e);
            self.updates.push((journal_len(&self.handles[key]), key, e));
        }

        /// Fold `key`'s log up to `bound` into its base, as a stable
        /// prefix would be.
        fn compact(&mut self, key: usize, bound: u64) {
            let (base, at, log) = &mut self.engines[key];
            let stable = log.partition_point(|(ts, _)| ts.clock <= bound);
            for (_, u) in log.drain(..stable) {
                Adt::new().apply(base, &u);
            }
            *at = bound;
            self.handles[key].truncate_to_base(bound, base, log);
        }

        /// A maintenance tick: every key flushes at the shared clock,
        /// the way a shard's flush walk has them — staged, and the
        /// last one commits.
        fn flush(&mut self) {
            self.clock += 1;
            for key in 0..KEYS {
                let moved = self.handles[key].watermark != self.clock;
                if key + 1 < KEYS {
                    self.handles[key].stage_flush(self.clock);
                } else {
                    self.handles[key].flush(self.clock);
                }
                if moved {
                    // The watermark is the only record a flush stages.
                    self.watermarks
                        .push((journal_len(&self.handles[key]), key, self.clock));
                }
            }
        }

        /// What must be recovered from `start` plus every record that
        /// ends at or before `cut`.
        fn expect(&self, start: &Recovery, cut: u64) -> Recovery {
            let mut out = start.clone();
            let mut tail: Vec<&(u64, usize, Entry)> = self
                .updates
                .iter()
                .filter(|(end, ..)| *end <= cut)
                .collect();
            tail.sort_by_key(|(_, _, (ts, _))| *ts);
            for (_, key, (_, u)) in tail {
                Adt::new().apply(&mut out[*key].0, u);
            }
            for (end, key, clock) in &self.watermarks {
                if *end <= cut {
                    out[*key].1 = *clock;
                }
            }
            out
        }

        /// Forget where records ended (a rewrite moved them).
        fn rebase(&mut self) {
            self.updates.clear();
            self.watermarks.clear();
        }
    }

    /// Reopen shard 0 of `root` and fold what every key recovers.
    fn recover(root: &Path) -> Recovery {
        let f = SegmentFactory::at(root).unwrap();
        let mut out: Recovery = vec![Default::default(); KEYS];
        for (key, mut b) in BackendFactory::<Adt>::open_all(&f, 0) {
            let (mut state, bound) = match b.load_base() {
                Some((bound, state)) => (state, bound),
                None => (BTreeSet::new(), 0),
            };
            let mut tail = b.scan_suffix();
            assert!(tail.iter().all(|(ts, _)| ts.clock > bound));
            tail.sort_by_key(|(ts, _)| *ts);
            tail.dedup_by_key(|(ts, _)| *ts);
            for (_, u) in &tail {
                Adt::new().apply(&mut state, u);
            }
            out[key as usize] = (state, b.clock_watermark());
        }
        out
    }

    /// Offsets at which a frame of `bytes` ends (0 included).
    fn frame_ends(bytes: &[u8]) -> Vec<usize> {
        let mut ends = vec![0];
        for payload in FrameScanner::new(bytes) {
            ends.push(ends.last().unwrap() + FRAME_HEADER + payload.len());
        }
        assert_eq!(*ends.last().unwrap(), bytes.len(), "whole frames only");
        ends
    }

    #[test]
    fn every_cut_of_an_appended_generation_recovers_a_flushed_prefix() {
        let tmp = ScratchDir::new("seg-cuts");
        let f = factory(&tmp);
        let mut m = Model::new(&f);
        // Four flushed batches; bases staged (and declined) on the way.
        for round in 0..4u64 {
            for i in 0..12 {
                m.update(i % KEYS);
                if i % 5 == 4 {
                    let bound = m.clock - 2;
                    m.compact(i % KEYS, bound);
                }
            }
            m.compact(round as usize % KEYS, m.clock);
            m.flush();
        }
        let last_batch = journal_len(&m.handles[0]);
        for i in 0..9 {
            m.update(i % KEYS);
        }
        m.compact(1, m.clock - 1);
        m.flush();
        let path = generation_path(&shard_dir(&tmp), 1);
        let bytes = fs::read(&path).unwrap();
        assert_eq!(bytes.len() as u64, journal_len(&m.handles[0]));
        let bases = FrameScanner::new(&bytes)
            .filter(|p| p[0] == TAG_BASE)
            .count();
        assert!(bases >= 4, "the journal holds base records ({bases})");

        let empty: Recovery = vec![Default::default(); KEYS];
        let mut cuts = frame_ends(&bytes);
        cuts.extend(last_batch as usize..bytes.len());
        for cut in cuts {
            fs::write(&path, &bytes[..cut]).unwrap();
            let got = recover(tmp.path());
            assert_eq!(got, m.expect(&empty, cut as u64), "cut at byte {cut}");
            // Every cut is cleaned up to a frame boundary.
            let kept = fs::metadata(&path).unwrap().len() as usize;
            assert!(kept <= cut && frame_ends(&bytes).contains(&kept));
        }
        // The uncut journal is the live handles' own view.
        fs::write(&path, &bytes).unwrap();
        let whole = recover(tmp.path());
        for (key, (base, _, log)) in m.engines.iter().enumerate() {
            let mut state = base.clone();
            for (_, u) in log {
                Adt::new().apply(&mut state, u);
            }
            assert_eq!(whole[key], (state, m.clock), "key {key}");
        }
    }

    #[test]
    fn every_cut_of_one_shard_commit_recovers_each_key_whole() {
        // One write carries the whole shard's tick: an update of each
        // of three keys, a base that folds one of them, and — staged
        // by the walk, behind all of them — three watermarks. Nothing
        // but that staging order keeps a key's watermark behind the
        // key's own updates, and a base behind the updates it folds.
        let tmp = ScratchDir::new("seg-shard-commit");
        let f = factory(&tmp);
        let mut m = Model::new(&f);
        for i in 0..9 {
            m.update(i % KEYS);
        }
        m.flush();
        let empty: Recovery = vec![Default::default(); KEYS];
        let previous = m.expect(&empty, u64::MAX);
        let start = journal_len(&m.handles[0]) as usize;
        let writes = f.io_counts().writes;
        for key in 0..KEYS {
            m.update(key);
        }
        m.compact(1, m.clock);
        m.flush();
        assert_eq!(f.io_counts().writes, writes + 1, "one write for the shard");
        let this = m.expect(&empty, u64::MAX);
        let path = generation_path(&shard_dir(&tmp), 1);
        let bytes = fs::read(&path).unwrap();
        let tags: Vec<u8> = FrameScanner::new(&bytes[start..]).map(|p| p[0]).collect();
        let count = |tag| tags.iter().filter(|t| **t == tag).count();
        assert_eq!(
            (count(TAG_UPDATE), count(TAG_BASE), count(TAG_WATERMARK)),
            (KEYS, 1, KEYS)
        );

        let mut cuts = frame_ends(&bytes);
        cuts.extend(start..=bytes.len());
        for cut in cuts {
            fs::write(&path, &bytes[..cut]).unwrap();
            let got = recover(tmp.path());
            // Exactly the records that arrived whole ...
            assert_eq!(got, m.expect(&empty, cut as u64), "cut at byte {cut}");
            if cut < start {
                continue;
            }
            // ... so each key is at one flush or the other, and none
            // holds this flush's watermark without this flush's state.
            for key in 0..KEYS {
                let (state, watermark) = &got[key];
                let at_this = *state == this[key].0;
                assert!(at_this || *state == previous[key].0, "key {key}, cut {cut}");
                let marked = *watermark == this[key].1;
                assert!(
                    marked || *watermark == previous[key].1,
                    "key {key}, cut {cut}"
                );
                assert!(at_this || !marked, "key {key}, cut {cut}: watermark ahead");
            }
            if cut == start {
                assert_eq!(got, previous, "the previous flush");
            }
        }
        assert_eq!(recover(tmp.path()), this, "this flush");
    }

    #[test]
    fn a_rewrite_killed_at_any_step_recovers_the_whole_state() {
        let tmp = ScratchDir::new("seg-rewrite-kill");
        let f = factory(&tmp);
        let mut m = Model::new(&f);
        // Enough retired updates on key 0 for a rewrite at the next
        // flush; keys 1 and 2 keep live tails and an unstaged bound
        // (which take one record in fifty, hence the margin).
        while (m.updates.len() as u64) * 34 <= REWRITE_FLOOR + REWRITE_FLOOR / 16 {
            m.update(0);
            if m.clock.is_multiple_of(97) {
                m.update(1);
                m.update(2);
            }
            if m.clock.is_multiple_of(500) {
                m.flush(); // superseded watermarks for the rewrite to drop
            }
        }
        m.flush();
        // Key 1's base lands right below a live update, so the rewrite
        // decides on either side of the bound.
        let third = m.engines[1].2[2].0.clock;
        let before = journal_len(&m.handles[1]);
        m.compact(1, third - 1);
        assert!(
            journal_len(&m.handles[1]) > before,
            "key 1's base is staged"
        );
        m.compact(0, m.clock);
        let dir = shard_dir(&tmp);
        let (old, new) = (generation_path(&dir, 1), generation_path(&dir, 2));
        let tmp_new = tmp_path(&new);
        // What generation 1 holds once the flush below has written
        // the staged base, just before that flush rewrites it (the
        // shared clock does not move, so no watermark follows).
        let mut old_bytes = fs::read(&old).unwrap();
        old_bytes.extend_from_slice(&lock(&m.handles[0].journal).staged);
        let empty: Recovery = vec![Default::default(); KEYS];
        let whole = m.expect(&empty, u64::MAX);
        for key in 0..KEYS {
            let clock = m.clock;
            m.handles[key].flush(clock);
        }
        assert!(!old.exists() && new.exists(), "{:?}", shard_files(&tmp));
        let new_bytes = fs::read(&new).unwrap();
        assert!(
            new_bytes.len() < old_bytes.len() / 8,
            "the retired updates are gone"
        );
        assert_eq!(recover(tmp.path()), whole, "after the rewrite");

        // Killed while writing the temp file, or just before the
        // rename: generation 1 is intact, the temp is swept.
        for written in [0, new_bytes.len() / 2, new_bytes.len()] {
            fs::remove_file(&new).unwrap();
            fs::write(&old, &old_bytes).unwrap();
            fs::write(&tmp_new, &new_bytes[..written]).unwrap();
            assert_eq!(recover(tmp.path()), whole, "{written} temp bytes");
            assert!(!tmp_new.exists(), "stale temp swept");
            assert!(old.exists() && !new.exists());
            fs::write(&new, &new_bytes).unwrap();
            fs::remove_file(&old).unwrap();
        }
        // Killed between the rename and the unlink: both generations
        // hold the live records; the older one is dropped.
        fs::write(&old, &old_bytes).unwrap();
        assert_eq!(recover(tmp.path()), whole, "both generations present");
        assert!(!old.exists() && new.exists(), "{:?}", shard_files(&tmp));
        assert_eq!(fs::read(&new).unwrap(), new_bytes);

        // Appends behind the seal are an appended generation again:
        // any cut there is a flushed prefix; any cut before the seal's
        // end is refused.
        m.rebase();
        for i in 0..10 {
            m.update(i % KEYS);
        }
        m.compact(2, m.clock - 3);
        m.flush();
        let bytes = fs::read(&new).unwrap();
        assert_eq!(bytes[..new_bytes.len()], new_bytes[..]);
        for cut in frame_ends(&bytes) {
            fs::write(&new, &bytes[..cut]).unwrap();
            if cut < new_bytes.len() {
                let err = Journal::open(dir.clone(), false).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut {cut}");
            } else {
                let want = m.expect(&whole, cut as u64);
                assert_eq!(recover(tmp.path()), want, "cut at byte {cut}");
            }
        }
        for cut in new_bytes.len()..bytes.len() {
            fs::write(&new, &bytes[..cut]).unwrap();
            let want = m.expect(&whole, cut as u64);
            assert_eq!(recover(tmp.path()), want, "cut at byte {cut}");
        }
    }

    #[test]
    fn heartbeat_tick_over_idle_keys_stages_one_watermark_each() {
        // Every heartbeat moves every engine's clock, so every key's
        // flush sees a moved clock on every tick: that must cost one
        // small record in the shard's journal, not a file per key.
        const IDLE: u64 = 32;
        let tmp = ScratchDir::new("seg-idle-tick");
        let f = factory(&tmp);
        let mut handles: Vec<B> = (0..IDLE).map(|k| open(&f, k)).collect();
        for (k, b) in handles.iter_mut().enumerate() {
            b.append(Timestamp::new(1, 0), &SetUpdate::Insert(k as u32));
            b.flush(1);
        }
        let before = shard_files(&tmp);
        for b in &mut handles {
            b.flush(2); // the tick after a heartbeat at clock 2
        }
        let after = shard_files(&tmp);
        assert_eq!(after.len(), 1, "no file per key: {after:?}");
        assert_eq!(after[0].0, before[0].0, "no new file");
        assert_eq!(after[0].1 - before[0].1, IDLE * WATERMARK_LEN);
        for b in &mut handles {
            b.flush(2); // a tick with no heartbeat in between
        }
        assert_eq!(
            shard_files(&tmp),
            after,
            "an unchanged clock writes nothing"
        );
        assert!(lock(&handles[0].journal).staged.is_empty());
        drop(handles);
        for (key, b) in BackendFactory::<Adt>::open_all(&f, 0) {
            assert_eq!(b.clock_watermark(), 2, "key {key}: watermarks stay exact");
        }
    }
}
