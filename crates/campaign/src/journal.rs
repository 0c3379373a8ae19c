//! Checkpoint/resume journal: checksummed shard records appended to one
//! segment file per writer.
//!
//! A campaign's results live under the experiment store as compact
//! binary shard records:
//!
//! ```text
//! <store>/campaigns/<plan id>/
//!   plan.json        # human-readable record of what ran
//!   seg-4711-0.bin   # every shard one `Journal` handle of process 4711 stored
//!   seg-4712-0.bin   # another writer: a worker process, a resumed run
//!   ...
//! ```
//!
//! Each [`Journal`] handle creates its segment on its first
//! [`store`](Journal::store), as `seg-<pid>-<n>.bin` with `create_new`
//! (the first free `n`), so a writer never appends behind another
//! writer's, or an older run's, tail. Shards are records rather than
//! files of their own because creating a file costs about a hundred
//! times as much as appending to one that is open.
//!
//! ## Shard record format (version 2)
//!
//! JSON-per-shard was fine at hundreds of shards; campaigns over the
//! full eight-program space write thousands of shards covering tens of
//! millions of outcomes, where JSON costs ~10× the bytes and a float
//! round-trip per value. Each record is:
//!
//! ```text
//! magic    8  b"MPPMSHRD"
//! version  u32  format version (this module writes 2)
//! design   u32  shard identity: design position
//! index    u32  shard identity: index within the design
//! cores    u32  members per mix
//! mixes    u32  outcomes in this shard
//! plan     u64  FNV-1a fingerprint of the plan id (geometry, suite,
//!               spec — everything that shapes an outcome)
//! records  mixes × (cores × u16 members, f64 stp, f64 antt, f64 worst
//!               slowdown), little-endian, in plan order
//! check    u64  FNV-1a over every preceding byte of the record
//! ```
//!
//! The record bytes are those of version 1, which kept one record per
//! file (`shard-d<design>-<index>.bin`); only the version field differs.
//!
//! ## Torn tails and resume
//!
//! A record goes out in one `write_all` under the handle's lock, so a
//! kill leaves at most one torn record, at the tail of the killed
//! writer's own segment. Readers scan segments in name order, and a
//! segment ends at its first record that fails magic, length, identity
//! or checksum: the torn tail reads as absent and resume recomputes that
//! shard. If an append fails (a full disk), the handle drops its segment
//! and the next `store` opens a fresh one, so no record ever lands
//! behind a torn one. The first valid copy of each shard wins; a shard
//! stored twice (a requeued shard, a duplicated segment) carries the
//! same bytes in every copy.
//!
//! A record with a *different format version* is a typed error, because
//! silently recomputing over a journal some other build can still read
//! would fork the campaign's history. Journals in the retired formats —
//! JSON shards, and version 1's file per shard — are refused at open.
//!
//! Each handle indexes where every shard it has seen lives (segment,
//! offset), so [`Journal::load`] reads one record. A miss refreshes the
//! index from the directory listing plus only the bytes appended since
//! the last refresh.

use mppm_experiments::atomic_write_json;
use mppm_trace::fnv1a;
use serde::{Deserialize, Serialize};
use std::ffi::OsString;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use crate::plan::{CampaignPlan, ShardId};
use crate::CampaignError;

/// Shard format version this build reads and writes.
pub const JOURNAL_VERSION: u32 = 2;

const MAGIC: &[u8; 8] = b"MPPMSHRD";
const HEADER_LEN: usize = 8 + 4 + 4 + 4 + 4 + 4 + 8;
const CHECK_LEN: usize = 8;
/// Buffer of a segment scan; a longer record streams through it.
const READ_BUF: usize = 8 << 10;

/// The model's verdict on one mix: everything the aggregator needs,
/// nothing it doesn't (full per-interval traces would make journals
/// enormous).
#[derive(Debug, Clone, PartialEq)]
pub struct MixOutcome {
    /// Benchmark indices of the mix, canonical order.
    pub members: Vec<usize>,
    /// Predicted system throughput.
    pub stp: f64,
    /// Predicted average normalized turnaround time.
    pub antt: f64,
    /// Worst per-program slowdown in the mix.
    pub max_slowdown: f64,
}

/// One persisted shard: outcomes for a contiguous run of mixes on one
/// design point.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRecord {
    /// Design position within the campaign spec.
    pub design: usize,
    /// Shard index within the design.
    pub index: usize,
    /// One outcome per mix, in plan order.
    pub outcomes: Vec<MixOutcome>,
}

/// Handle to one campaign's journal directory.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    cores: u32,
    plan_fp: u64,
    layout: Layout,
    state: Mutex<State>,
}

/// The plan's shard grid: which identities a record may carry and how
/// many outcomes each holds.
#[derive(Debug)]
struct Layout {
    designs: usize,
    per_design: usize,
    shard_size: u64,
    population: u64,
}

impl Layout {
    /// The shard's position in the plan's design-major shard list.
    fn position(&self, design: usize, index: usize) -> Option<usize> {
        (design < self.designs && index < self.per_design)
            .then_some(design * self.per_design + index)
    }

    fn mixes(&self, index: usize) -> u64 {
        (self.population - index as u64 * self.shard_size).min(self.shard_size)
    }
}

#[derive(Debug, Default)]
struct State {
    /// Every segment seen so far, in discovery order (name order within
    /// one directory listing).
    segments: Vec<Segment>,
    /// Where each shard's first valid copy lives, by plan position.
    index: Vec<Option<Loc>>,
    /// The segment this handle appends to, once created. Dropped when
    /// an append fails.
    writer: Option<Writer>,
    /// Next `n` to try for `seg-<pid>-<n>.bin`.
    next_seq: u64,
}

#[derive(Debug)]
struct Segment {
    name: OsString,
    /// End of the valid records read so far: a refresh reads on from
    /// here, and this handle's own appends land here.
    scanned: u64,
    /// Read handle, opened on first use.
    file: Option<File>,
}

#[derive(Debug, Clone, Copy)]
struct Loc {
    segment: usize,
    offset: u64,
}

#[derive(Debug)]
struct Writer {
    file: File,
    segment: usize,
}

/// What a record header says, checked against this journal's plan.
enum Header {
    /// A shard of the plan: its position and the record's total length.
    Valid { position: usize, len: usize },
    /// Wrong magic, identity, arity, count or fingerprint.
    Invalid,
    /// Another build's format version.
    Version(u32),
}

impl Journal {
    /// Opens (creating if needed) the journal for `plan` under
    /// `store_root`, and records the plan summary on first open.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory or writing the summary,
    /// [`CampaignError::LegacyJournal`] if the directory holds shards in
    /// the retired JSON format, or [`CampaignError::FormatVersion`] if it
    /// holds version 1's per-shard files (re-run the campaign in a fresh
    /// journal, or delete the old files to recompute).
    pub fn open(store_root: &Path, plan: &CampaignPlan) -> Result<Self, CampaignError> {
        let dir = store_root.join("campaigns").join(&plan.id);
        std::fs::create_dir_all(&dir)
            .map_err(|e| CampaignError::Io(format!("creating journal dir: {e}")))?;
        if let Ok(entries) = std::fs::read_dir(&dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if !name.starts_with("shard-") {
                    continue;
                }
                if name.ends_with(".json") {
                    return Err(CampaignError::LegacyJournal(dir));
                }
                if name.ends_with(".bin") {
                    return Err(CampaignError::FormatVersion {
                        found: 1,
                        expected: JOURNAL_VERSION,
                    });
                }
            }
        }
        let designs = plan.spec.designs.len();
        let journal = Self {
            dir,
            // mppm-lint: allow(lossy-counter-cast): spec validation caps cores at 8 well below u32
            cores: plan.spec.cores as u32,
            plan_fp: fnv1a(plan.id.as_bytes()),
            layout: Layout {
                designs,
                per_design: plan.shards.len() / designs,
                shard_size: plan.spec.shard_size as u64,
                population: plan.population.len(),
            },
            state: Mutex::new(State {
                index: vec![None; plan.shards.len()],
                ..State::default()
            }),
        };
        let summary = journal.dir.join("plan.json");
        if !summary.exists() {
            atomic_write_json(
                &summary,
                &PlanSummary {
                    format_version: JOURNAL_VERSION as u64,
                    spec: plan.spec.clone(),
                    mixes: plan.population.len(),
                    shards: plan.shards.len() as u64,
                },
            )
            .map_err(|e| CampaignError::Io(format!("writing plan summary: {e}")))?;
        }
        Ok(journal)
    }

    /// The directory the segment files live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("no journal operation panics while holding the lock")
    }

    fn record_len(&self, mixes: u64) -> usize {
        HEADER_LEN + mixes as usize * (self.cores as usize * 2 + 24) + CHECK_LEN
    }

    fn encode(&self, record: &ShardRecord) -> Vec<u8> {
        let cores = self.cores as usize;
        let mut buf = Vec::with_capacity(self.record_len(record.outcomes.len() as u64));
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
        // mppm-lint: allow(lossy-counter-cast): ≤6 designs, ≤7389 shards, ≤4096 mixes per shard — all far below u32
        buf.extend_from_slice(&(record.design as u32).to_le_bytes());
        // mppm-lint: allow(lossy-counter-cast): ≤6 designs, ≤7389 shards, ≤4096 mixes per shard — all far below u32
        buf.extend_from_slice(&(record.index as u32).to_le_bytes());
        buf.extend_from_slice(&self.cores.to_le_bytes());
        // mppm-lint: allow(lossy-counter-cast): ≤6 designs, ≤7389 shards, ≤4096 mixes per shard — all far below u32
        buf.extend_from_slice(&(record.outcomes.len() as u32).to_le_bytes());
        buf.extend_from_slice(&self.plan_fp.to_le_bytes());
        for out in &record.outcomes {
            assert_eq!(out.members.len(), cores, "outcome arity must match the spec");
            for &member in &out.members {
                let member = u16::try_from(member).expect("benchmark index fits u16");
                buf.extend_from_slice(&member.to_le_bytes());
            }
            buf.extend_from_slice(&out.stp.to_le_bytes());
            buf.extend_from_slice(&out.antt.to_le_bytes());
            buf.extend_from_slice(&out.max_slowdown.to_le_bytes());
        }
        let check = fnv1a(&buf);
        buf.extend_from_slice(&check.to_le_bytes());
        buf
    }

    /// Checks a record header in the order magic → version → identity,
    /// so a torn or foreign header is `Invalid` but a readable header of
    /// another format version is `Version`.
    fn check_header(&self, header: &[u8]) -> Header {
        if &header[..8] != MAGIC {
            return Header::Invalid;
        }
        let u32_at = |off: usize| {
            u32::from_le_bytes(header[off..off + 4].try_into().expect("header is HEADER_LEN bytes"))
        };
        let version = u32_at(8);
        if version != JOURNAL_VERSION {
            return Header::Version(version);
        }
        let index = u32_at(16) as usize;
        let plan_fp =
            u64::from_le_bytes(header[28..36].try_into().expect("header is HEADER_LEN bytes"));
        match self.layout.position(u32_at(12) as usize, index) {
            Some(position)
                if u32_at(20) == self.cores
                    && u64::from(u32_at(24)) == self.layout.mixes(index)
                    && plan_fp == self.plan_fp =>
            {
                Header::Valid { position, len: self.record_len(self.layout.mixes(index)) }
            }
            _ => Header::Invalid,
        }
    }

    /// Whether a whole record (header already checked) matches its
    /// checksum.
    fn checksum_ok(record: &[u8]) -> bool {
        let (body, check) = record.split_at(record.len() - CHECK_LEN);
        check == fnv1a(body).to_le_bytes()
    }

    /// Decodes a checked record at plan `position`.
    fn decode(&self, position: usize, record: &[u8]) -> ShardRecord {
        let cores = self.cores as usize;
        let outcomes = record[HEADER_LEN..record.len() - CHECK_LEN]
            .chunks_exact(cores * 2 + 24)
            .map(|rec| {
                let f64_at = |off: usize| {
                    f64::from_le_bytes(rec[off..off + 8].try_into().expect("bounds checked"))
                };
                MixOutcome {
                    members: rec[..cores * 2]
                        .chunks_exact(2)
                        .map(|b| u16::from_le_bytes([b[0], b[1]]) as usize)
                        .collect(),
                    stp: f64_at(cores * 2),
                    antt: f64_at(cores * 2 + 8),
                    max_slowdown: f64_at(cores * 2 + 16),
                }
            })
            .collect();
        ShardRecord {
            design: position / self.layout.per_design,
            index: position % self.layout.per_design,
            outcomes,
        }
    }

    /// Reads `file` from offset `from` and calls `visit(position,
    /// offset, record)` for each valid record, stopping at the first one
    /// that fails its checks or runs past the end of the file. Returns
    /// where the valid records end, which is where a later scan resumes.
    fn scan_segment(
        &self,
        file: &File,
        from: u64,
        mut visit: impl FnMut(usize, u64, &[u8]),
    ) -> Result<u64, CampaignError> {
        let io = |e: std::io::Error| CampaignError::Io(format!("reading journal segment: {e}"));
        let end = file.metadata().map_err(io)?.len();
        let mut file = file;
        file.seek(SeekFrom::Start(from)).map_err(io)?;
        let mut reader = BufReader::with_capacity(READ_BUF, file);
        let mut record = Vec::new();
        let mut offset = from;
        while end.saturating_sub(offset) >= (HEADER_LEN + CHECK_LEN) as u64 {
            record.resize(HEADER_LEN, 0);
            reader.read_exact(&mut record).map_err(io)?;
            let (position, len) = match self.check_header(&record) {
                Header::Valid { position, len } => (position, len),
                Header::Invalid => break,
                Header::Version(found) => {
                    return Err(CampaignError::FormatVersion { found, expected: JOURNAL_VERSION })
                }
            };
            if len as u64 > end - offset {
                break;
            }
            record.resize(len, 0);
            reader.read_exact(&mut record[HEADER_LEN..]).map_err(io)?;
            if !Self::checksum_ok(&record) {
                break;
            }
            visit(position, offset, &record);
            offset += len as u64;
        }
        Ok(offset)
    }

    /// Segment file names in the directory, in name order.
    fn segment_names(&self) -> Result<Vec<OsString>, CampaignError> {
        let entries = std::fs::read_dir(&self.dir)
            .map_err(|e| CampaignError::Io(format!("listing journal dir: {e}")))?;
        let mut names: Vec<OsString> = entries
            .flatten()
            .map(|entry| entry.file_name())
            .filter(|name| {
                let name = name.to_string_lossy();
                name.starts_with("seg-") && name.ends_with(".bin")
            })
            .collect();
        names.sort();
        Ok(names)
    }

    fn open_segment(&self, name: &OsString) -> Result<File, CampaignError> {
        File::open(self.dir.join(name))
            .map_err(|e| CampaignError::Io(format!("opening journal segment: {e}")))
    }

    /// The segment's read handle, opened on first use.
    fn reader<'s>(&self, segment: &'s mut Segment) -> Result<&'s File, CampaignError> {
        if segment.file.is_none() {
            segment.file = Some(self.open_segment(&segment.name)?);
        }
        Ok(segment.file.as_ref().expect("opened above"))
    }

    /// Brings the index up to date: segments that appeared since the
    /// last refresh join the list, and every segment is read from where
    /// its valid records ended last time.
    fn refresh(&self, state: &mut State) -> Result<(), CampaignError> {
        for name in self.segment_names()? {
            if !state.segments.iter().any(|s| s.name == name) {
                state.segments.push(Segment { name, scanned: 0, file: None });
            }
        }
        let State { segments, index, .. } = state;
        for (number, segment) in segments.iter_mut().enumerate() {
            let from = segment.scanned;
            segment.scanned = self.scan_segment(self.reader(segment)?, from, |position, offset, _| {
                index[position].get_or_insert(Loc { segment: number, offset });
            })?;
        }
        Ok(())
    }

    /// Loads a completed shard. `Ok(None)` means "recompute": no valid
    /// copy of the shard is in the journal, or `expected_mixes` is not
    /// the shard's size in this journal's plan. A readable header with a
    /// *different format version* is an error — another build owns this
    /// journal.
    ///
    /// # Errors
    ///
    /// [`CampaignError::FormatVersion`] on a version mismatch, or
    /// [`CampaignError::Io`] if a segment cannot be listed or read.
    pub fn load(
        &self,
        id: ShardId,
        expected_mixes: u64,
    ) -> Result<Option<ShardRecord>, CampaignError> {
        let Some(position) = self
            .layout
            .position(id.design, id.index)
            .filter(|_| self.layout.mixes(id.index) == expected_mixes)
        else {
            return Ok(None);
        };
        let mut state = self.lock();
        if state.index[position].is_none() {
            self.refresh(&mut state)?;
        }
        let Some(loc) = state.index[position] else {
            return Ok(None);
        };
        let file = self.reader(&mut state.segments[loc.segment])?;
        let mut record = vec![0; self.record_len(expected_mixes)];
        let intact = file.read_exact_at(&mut record, loc.offset).is_ok()
            && match self.check_header(&record[..HEADER_LEN]) {
                Header::Valid { position: found, .. } => found == position,
                Header::Invalid => false,
                Header::Version(found) => {
                    return Err(CampaignError::FormatVersion { found, expected: JOURNAL_VERSION })
                }
            }
            && Self::checksum_ok(&record);
        if !intact {
            // The segment changed under the index: the shard is absent.
            state.index[position] = None;
            return Ok(None);
        }
        Ok(Some(self.decode(position, &record)))
    }

    /// Appends one completed shard to this handle's segment, creating
    /// the segment on first use. After a failed append the handle drops
    /// its segment, so the next call starts a fresh one.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the segment or appending to it, and
    /// `InvalidInput` for a record that is not a shard of this journal's
    /// plan (wrong identity or outcome count), which is never written.
    pub fn store(&self, record: &ShardRecord) -> std::io::Result<()> {
        let position = self
            .layout
            .position(record.design, record.index)
            .filter(|_| self.layout.mixes(record.index) == record.outcomes.len() as u64)
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!(
                        "shard d{}-{} with {} outcomes is not in this journal's plan",
                        record.design,
                        record.index,
                        record.outcomes.len()
                    ),
                )
            })?;
        let bytes = self.encode(record);
        let mut state = self.lock();
        let State { segments, index, writer, next_seq } = &mut *state;
        let active = match writer {
            Some(active) => active,
            None => writer.insert(self.create_segment(segments, next_seq)?),
        };
        if let Err(e) = active.file.write_all(&bytes) {
            *writer = None;
            return Err(e);
        }
        let segment = &mut segments[active.segment];
        index[position].get_or_insert(Loc { segment: active.segment, offset: segment.scanned });
        segment.scanned += bytes.len() as u64;
        Ok(())
    }

    /// Creates this handle's next segment, `seg-<pid>-<n>.bin` at the
    /// first `n` no file has taken.
    fn create_segment(
        &self,
        segments: &mut Vec<Segment>,
        next_seq: &mut u64,
    ) -> std::io::Result<Writer> {
        loop {
            let name = format!("seg-{}-{next_seq}.bin", std::process::id());
            *next_seq += 1;
            match OpenOptions::new().append(true).create_new(true).open(self.dir.join(&name)) {
                Ok(file) => {
                    segments.push(Segment { name: name.into(), scanned: 0, file: None });
                    return Ok(Writer { file, segment: segments.len() - 1 });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The plan's shards with no valid record in the journal, in plan
    /// order, from one index refresh.
    ///
    /// # Errors
    ///
    /// As [`Journal::load`].
    pub(crate) fn pending<'p>(
        &self,
        plan: &'p CampaignPlan,
    ) -> Result<Vec<&'p crate::plan::Shard>, CampaignError> {
        let mut state = self.lock();
        self.refresh(&mut state)?;
        assert_eq!(state.index.len(), plan.shards.len(), "the journal was opened for this plan");
        let missing = plan.shards.iter().zip(&state.index).filter(|(_, loc)| loc.is_none());
        Ok(missing.map(|(shard, _)| shard).collect())
    }

    /// Streams every valid record of every segment, in name order, to
    /// `visit(position, record)`. A shard stored more than once is
    /// visited once per copy.
    ///
    /// # Errors
    ///
    /// As [`Journal::load`].
    pub(crate) fn scan(
        &self,
        mut visit: impl FnMut(usize, ShardRecord),
    ) -> Result<(), CampaignError> {
        for name in self.segment_names()? {
            let file = self.open_segment(&name)?;
            self.scan_segment(&file, 0, |position, _, record| {
                visit(position, self.decode(position, record));
            })?;
        }
        Ok(())
    }

    /// How many of the plan's shards are already completed on disk.
    /// Unreadable shards count as absent (they will be recomputed).
    pub fn completed(&self, plan: &CampaignPlan) -> u64 {
        self.pending(plan).map_or(0, |pending| (plan.shards.len() - pending.len()) as u64)
    }
}

/// Human-readable record of what a journal directory holds.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PlanSummary {
    format_version: u64,
    spec: crate::plan::CampaignSpec,
    mixes: u64,
    shards: u64,
}

#[cfg(test)]
impl Journal {
    /// Points this handle's segment at `path` in place of its file (tests
    /// use `/dev/full`, where every write fails with ENOSPC).
    pub(crate) fn redirect_appends(&self, path: &Path) {
        let mut state = self.lock();
        let State { segments, writer, next_seq, .. } = &mut *state;
        let active = match writer {
            Some(active) => active,
            None => writer.insert(self.create_segment(segments, next_seq).unwrap()),
        };
        active.file = OpenOptions::new().append(true).open(path).unwrap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::CampaignSpec;
    use mppm_trace::TraceGeometry;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("mppm-journal-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Two designs of one 15-mix shard each (2 cores over 5 benchmarks).
    fn plan() -> CampaignPlan {
        CampaignPlan::build(&CampaignSpec::quick_default(), 5, TraceGeometry::new(20_000, 10))
            .unwrap()
    }

    fn record(design: usize, index: usize, mixes: usize) -> ShardRecord {
        ShardRecord {
            design,
            index,
            outcomes: (0..mixes)
                .map(|i| MixOutcome {
                    members: vec![i % 5, (i + 1) % 5],
                    stp: 1.5 + i as f64,
                    antt: 1.1,
                    max_slowdown: 1.2,
                })
                .collect(),
        }
    }

    fn record_for(plan: &CampaignPlan, position: usize) -> ShardRecord {
        let shard = &plan.shards[position];
        record(shard.id.design, shard.id.index, shard.mixes() as usize)
    }

    fn segments(journal: &Journal) -> Vec<PathBuf> {
        journal.segment_names().unwrap().iter().map(|n| journal.dir().join(n)).collect()
    }

    /// Replaces a segment's bytes (tests only: to cut, corrupt or plant
    /// records).
    fn overwrite(path: &Path, bytes: &[u8]) {
        // mppm-lint: allow(non-atomic-write): test-only fault injection into a journal segment
        std::fs::write(path, bytes).unwrap();
    }

    /// Every valid record of one segment file: (position, offset) pairs
    /// and the end of the valid run.
    fn scan_file(journal: &Journal, path: &Path) -> (Vec<(usize, u64)>, u64) {
        let mut seen = Vec::new();
        let file = File::open(path).unwrap();
        let end = journal.scan_segment(&file, 0, |p, o, _| seen.push((p, o))).unwrap();
        (seen, end)
    }

    #[test]
    fn shard_round_trip_and_resume_accounting() {
        let root = tmp_dir("roundtrip");
        let plan = plan();
        let journal = Journal::open(&root, &plan).unwrap();
        assert_eq!(journal.completed(&plan), 0);
        assert!(journal.dir().join("plan.json").exists(), "summary recorded");
        assert!(segments(&journal).is_empty(), "a handle that stores nothing creates nothing");

        let shard = &plan.shards[0];
        let rec = record_for(&plan, 0);
        journal.store(&rec).unwrap();
        assert_eq!(journal.load(shard.id, shard.mixes()).unwrap(), Some(rec.clone()));
        assert_eq!(journal.completed(&plan), 1);

        // Reopen: completion state persists, and the new handle's first
        // store opens a segment of its own rather than appending behind
        // the old one.
        let reopened = Journal::open(&root, &plan).unwrap();
        assert_eq!(reopened.completed(&plan), 1);
        assert_eq!(reopened.load(shard.id, shard.mixes()).unwrap(), Some(rec));
        reopened.store(&record_for(&plan, 1)).unwrap();
        assert_eq!(segments(&reopened).len(), 2, "one segment per writer handle");
        let files: Vec<String> = std::fs::read_dir(journal.dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| !n.starts_with("seg-"))
            .collect();
        assert_eq!(files, ["plan.json"], "no file per shard");
        // The first handle sees the second's shard through a refresh.
        assert_eq!(journal.completed(&plan), 2);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_or_mismatched_shards_read_as_absent() {
        let root = tmp_dir("corrupt");
        let plan = plan();
        let shard = &plan.shards[1];
        let mixes = shard.mixes();
        let journal = Journal::open(&root, &plan).unwrap();
        journal.store(&record_for(&plan, 1)).unwrap();
        let path = segments(&journal).remove(0);
        let pristine = std::fs::read(&path).unwrap();
        let fresh = || Journal::open(&root, &plan).unwrap();

        // Torn record (the checksum region is cut off).
        overwrite(&path, &pristine[..pristine.len() - 7]);
        assert_eq!(fresh().load(shard.id, mixes).unwrap(), None, "torn shard is recomputed");

        // A flipped payload bit fails the checksum.
        let mut flipped = pristine.clone();
        flipped[HEADER_LEN + 3] ^= 0x40;
        overwrite(&path, &flipped);
        assert_eq!(fresh().load(shard.id, mixes).unwrap(), None, "bit rot is recomputed");

        // A record whose identity is outside the plan ends its segment:
        // the valid record behind it is not read either.
        let mut foreign = pristine.clone();
        foreign[16..20].copy_from_slice(&7u32.to_le_bytes());
        let body_end = foreign.len() - CHECK_LEN;
        let check = fnv1a(&foreign[..body_end]);
        foreign[body_end..].copy_from_slice(&check.to_le_bytes());
        overwrite(&path, &[foreign, pristine.clone()].concat());
        assert_eq!(fresh().load(shard.id, mixes).unwrap(), None, "mismatched identity rejected");

        // The wrong expected size never matches, and a record that is not
        // a shard of the plan is refused rather than written.
        overwrite(&path, &pristine);
        assert_eq!(fresh().load(shard.id, mixes - 1).unwrap(), None, "short shard rejected");
        assert!(fresh().load(shard.id, mixes).unwrap().is_some());
        for bad in [
            record(shard.id.design, shard.id.index + 7, mixes as usize),
            record(shard.id.design, shard.id.index, mixes as usize - 1),
        ] {
            let err = journal.store(&bad).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        }
        assert_eq!(std::fs::read(&path).unwrap(), pristine, "refused records are never written");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn format_version_mismatch_is_a_typed_error() {
        let root = tmp_dir("version");
        let plan = plan();
        let journal = Journal::open(&root, &plan).unwrap();
        let shard = &plan.shards[0];
        journal.store(&record_for(&plan, 0)).unwrap();
        let path = segments(&journal).remove(0);
        let mut bytes = std::fs::read(&path).unwrap();
        // Stamp a future format version; everything else stays valid.
        bytes[8..12].copy_from_slice(&7u32.to_le_bytes());
        overwrite(&path, &bytes);
        for handle in [&journal, &Journal::open(&root, &plan).unwrap()] {
            match handle.load(shard.id, shard.mixes()) {
                Err(CampaignError::FormatVersion { found: 7, expected: JOURNAL_VERSION }) => {}
                other => panic!("expected a format-version error, got {other:?}"),
            }
        }
        let summary = std::fs::read_to_string(journal.dir().join("plan.json")).unwrap();
        assert!(summary.contains("\"format_version\":2"), "{summary}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn legacy_json_journals_are_refused() {
        let root = tmp_dir("legacy");
        let plan = plan();
        // A journal left behind by the retired JSON format.
        let dir = root.join("campaigns").join(&plan.id);
        std::fs::create_dir_all(&dir).unwrap();
        overwrite(&dir.join("shard-d0-00000.json"), b"{}");
        match Journal::open(&root, &plan) {
            Err(CampaignError::LegacyJournal(found)) => assert_eq!(found, dir),
            other => panic!("expected a legacy-journal refusal, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn v1_shard_journals_are_refused() {
        let root = tmp_dir("v1");
        let plan = plan();
        // A version 1 journal: one file per shard. Never recomputed over.
        let dir = root.join("campaigns").join(&plan.id);
        std::fs::create_dir_all(&dir).unwrap();
        overwrite(&dir.join("shard-d0-0000000.bin"), b"MPPMSHRD");
        match Journal::open(&root, &plan) {
            Err(CampaignError::FormatVersion { found: 1, expected: JOURNAL_VERSION }) => {}
            other => panic!("expected a v1 refusal, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn plans_disagreeing_with_the_journal_fingerprint_recompute() {
        // Same directory, different plan fingerprint: cannot happen via
        // Journal::open (the id names the dir) but a hand-copied segment
        // must still be rejected by the embedded fingerprint.
        let root = tmp_dir("fingerprint");
        let plan = plan();
        let journal = Journal::open(&root, &plan).unwrap();
        let shard = &plan.shards[0];
        let mut foreign = Journal::open(&root, &plan).unwrap();
        foreign.plan_fp ^= 0xDEAD_BEEF;
        foreign.store(&record_for(&plan, 0)).unwrap();
        assert_eq!(segments(&journal).len(), 1);
        assert_eq!(journal.load(shard.id, shard.mixes()).unwrap(), None);
        assert_eq!(journal.pending(&plan).unwrap().len(), plan.shards.len());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn empty_segments_and_partial_headers_hold_no_records() {
        let root = tmp_dir("partial");
        let plan = plan();
        let journal = Journal::open(&root, &plan).unwrap();
        let bytes = journal.encode(&record_for(&plan, 0));
        let path = journal.dir().join("seg-0-0.bin");
        for cut in [0, 20, HEADER_LEN, HEADER_LEN + CHECK_LEN] {
            overwrite(&path, &bytes[..cut]);
            assert_eq!(scan_file(&journal, &path), (Vec::new(), 0), "{cut}-byte segment");
            assert_eq!(Journal::open(&root, &plan).unwrap().completed(&plan), 0);
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn oversized_counts_and_cut_records_end_the_segment() {
        let root = tmp_dir("oversized");
        let plan = plan();
        let journal = Journal::open(&root, &plan).unwrap();
        let first = journal.encode(&record_for(&plan, 0));
        let second = journal.encode(&record_for(&plan, 1));
        let path = journal.dir().join("seg-0-0.bin");

        // A header claiming u32::MAX outcomes: refused from the header
        // alone, with nothing allocated for it.
        let mut huge = second.clone();
        huge[24..28].copy_from_slice(&u32::MAX.to_le_bytes());
        overwrite(&path, &[first.clone(), huge].concat());
        assert_eq!(scan_file(&journal, &path), (vec![(0, 0)], first.len() as u64));

        // A whole header whose record runs past the end of the file.
        let mut cut = [first.clone(), second.clone()].concat();
        cut.truncate(first.len() + HEADER_LEN + 40);
        overwrite(&path, &cut);
        assert_eq!(scan_file(&journal, &path), (vec![(0, 0)], first.len() as u64));

        // Appending the rest lets a later refresh read on from the cut.
        let fresh = Journal::open(&root, &plan).unwrap();
        assert_eq!(fresh.completed(&plan), 1);
        overwrite(&path, &[first, second].concat());
        assert_eq!(fresh.completed(&plan), 2);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn records_straddling_and_outgrowing_the_read_buffer_scan_whole() {
        let root = tmp_dir("straddle");
        // Small records that cross the buffer's end, and 435-mix records
        // (12 KB each) longer than the whole buffer.
        for shard_size in [64, 512] {
            let spec = CampaignSpec { shard_size, ..CampaignSpec::quick_default() };
            let plan = CampaignPlan::build(&spec, 29, TraceGeometry::new(20_000, 10)).unwrap();
            let journal = Journal::open(&root, &plan).unwrap();
            let copies = 3 * READ_BUF / journal.record_len(shard_size as u64) + 2;
            for copy in 0..copies {
                journal.store(&record_for(&plan, copy % plan.shards.len())).unwrap();
            }
            let path = segments(&journal).remove(0);
            let (seen, end) = scan_file(&journal, &path);
            assert_eq!(seen.len(), copies, "shard size {shard_size}");
            assert_eq!(end, std::fs::metadata(&path).unwrap().len());
            let mut offsets = Vec::new();
            journal.scan(|position, record| offsets.push((position, record))).unwrap();
            for (copy, (position, record)) in offsets.iter().enumerate() {
                assert_eq!(*position, copy % plan.shards.len());
                assert_eq!(*record, record_for(&plan, *position));
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_failed_append_drops_the_segment_and_the_next_store_opens_a_fresh_one() {
        let root = tmp_dir("enospc");
        let plan = plan();
        let journal = Journal::open(&root, &plan).unwrap();
        journal.redirect_appends(Path::new("/dev/full"));
        let err = journal.store(&record_for(&plan, 0)).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28), "ENOSPC surfaces: {err}");
        assert_eq!(journal.completed(&plan), 0);

        journal.store(&record_for(&plan, 0)).unwrap();
        journal.store(&record_for(&plan, 1)).unwrap();
        let names = segments(&journal);
        assert_eq!(names.len(), 2, "the failed segment stays, a fresh one follows");
        assert_eq!(std::fs::metadata(&names[0]).unwrap().len(), 0);
        let fresh = Journal::open(&root, &plan).unwrap();
        for (position, shard) in plan.shards.iter().enumerate() {
            let loaded = fresh.load(shard.id, shard.mixes()).unwrap();
            assert_eq!(loaded, Some(record_for(&plan, position)));
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
