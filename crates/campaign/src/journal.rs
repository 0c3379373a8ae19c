//! Checkpoint/resume journal: sharded, atomic, append-only result files.
//!
//! A campaign's results live under the experiment store as one compact
//! binary file per completed shard:
//!
//! ```text
//! <store>/campaigns/<plan id>/
//!   plan.json             # human-readable record of what ran
//!   shard-d0-0000000.bin  # design 0, shard 0 — written exactly once
//!   shard-d0-0000001.bin
//!   shard-d1-0000000.bin
//!   ...
//! ```
//!
//! ## Binary shard format (version 1)
//!
//! JSON-per-shard was fine at hundreds of shards; campaigns over the
//! full eight-program space write thousands of shards covering tens of
//! millions of outcomes, where JSON costs ~10× the bytes and a float
//! round-trip per value. Each `.bin` file is:
//!
//! ```text
//! magic    8  b"MPPMSHRD"
//! version  u32  format version (this module writes 1)
//! design   u32  shard identity: design position
//! index    u32  shard identity: index within the design
//! cores    u32  members per mix
//! mixes    u32  outcomes in this shard
//! plan     u64  FNV-1a fingerprint of the plan id (geometry, suite
//!               version, spec — everything that shapes an outcome)
//! records  mixes × (cores × u16 members, f64 stp, f64 antt, f64 worst
//!               slowdown), little-endian, in plan order
//! check    u64  FNV-1a over every preceding byte
//! ```
//!
//! The journal is *append-only at shard granularity*: files are only
//! ever added, each via an atomic temp-file + rename, so a killed
//! campaign (or a SIGKILLed worker process) leaves either a complete
//! shard or no shard — never a torn one. Resume is therefore trivial:
//! skip every shard whose file loads and re-run the rest. A corrupt or
//! mismatched file reads as absent and is recomputed; a file with a
//! *different format version* is a typed error, because silently
//! recomputing over a journal some other build can still read would
//! fork the campaign's history. Journals from the retired JSON format
//! are refused at open with migration advice.

use mppm_experiments::{atomic_write_bytes, atomic_write_json};
use mppm_trace::fnv1a;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

use crate::plan::{CampaignPlan, ShardId};
use crate::CampaignError;

/// Shard format version this build reads and writes.
pub const JOURNAL_VERSION: u32 = 1;

const MAGIC: &[u8; 8] = b"MPPMSHRD";
const HEADER_LEN: usize = 8 + 4 + 4 + 4 + 4 + 4 + 8;

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
}

impl Journal {
    /// Opens (creating if needed) the journal for `plan` under
    /// `store_root`, and records the plan summary on first open.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory or writing the summary, or
    /// [`CampaignError::LegacyJournal`] if the directory holds shards in
    /// the retired JSON format (re-run the campaign in a fresh journal,
    /// or delete the old files to recompute).
    pub fn open(store_root: &Path, plan: &CampaignPlan) -> Result<Self, CampaignError> {
        let dir = store_root.join("campaigns").join(&plan.id);
        std::fs::create_dir_all(&dir)
            .map_err(|e| CampaignError::Io(format!("creating journal dir: {e}")))?;
        if let Ok(entries) = std::fs::read_dir(&dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if name.starts_with("shard-") && name.ends_with(".json") {
                    return Err(CampaignError::LegacyJournal(dir));
                }
            }
        }
        let journal = Self {
            dir,
            // mppm-lint: allow(lossy-counter-cast): spec validation caps cores at 8 well below u32
            cores: plan.spec.cores as u32,
            plan_fp: fnv1a(plan.id.as_bytes()),
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

    /// The directory shard files live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn shard_path(&self, id: ShardId) -> PathBuf {
        self.dir.join(format!("shard-d{}-{:07}.bin", id.design, id.index))
    }

    fn encode(&self, record: &ShardRecord) -> Vec<u8> {
        let cores = self.cores as usize;
        let mut buf =
            Vec::with_capacity(HEADER_LEN + record.outcomes.len() * (cores * 2 + 24) + 8);
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

    fn decode(&self, bytes: &[u8], id: ShardId, expected_mixes: u64) -> DecodeOutcome {
        if bytes.len() < HEADER_LEN + 8 || &bytes[..8] != MAGIC {
            return DecodeOutcome::Recompute;
        }
        let u32_at = |off: usize| {
            u32::from_le_bytes(bytes[off..off + 4].try_into().expect("bounds checked"))
        };
        let version = u32_at(8);
        if version != JOURNAL_VERSION {
            return DecodeOutcome::WrongVersion(version);
        }
        let design = u32_at(12) as usize;
        let index = u32_at(16) as usize;
        let cores = u32_at(20) as usize;
        let mixes = u32_at(24) as usize;
        let plan_fp = u64::from_le_bytes(bytes[28..36].try_into().expect("bounds checked"));
        let record_len = cores * 2 + 24;
        let body_end = HEADER_LEN + mixes * record_len;
        if design != id.design
            || index != id.index
            || cores != self.cores as usize
            || mixes as u64 != expected_mixes
            || plan_fp != self.plan_fp
            || bytes.len() != body_end + 8
        {
            return DecodeOutcome::Recompute;
        }
        let check =
            u64::from_le_bytes(bytes[body_end..body_end + 8].try_into().expect("bounds checked"));
        if check != fnv1a(&bytes[..body_end]) {
            return DecodeOutcome::Recompute;
        }
        let mut outcomes = Vec::with_capacity(mixes);
        for rec in bytes[HEADER_LEN..body_end].chunks_exact(record_len) {
            let members = rec[..cores * 2]
                .chunks_exact(2)
                .map(|b| u16::from_le_bytes([b[0], b[1]]) as usize)
                .collect();
            let f64_at = |off: usize| {
                f64::from_le_bytes(rec[off..off + 8].try_into().expect("bounds checked"))
            };
            outcomes.push(MixOutcome {
                members,
                stp: f64_at(cores * 2),
                antt: f64_at(cores * 2 + 8),
                max_slowdown: f64_at(cores * 2 + 16),
            });
        }
        DecodeOutcome::Ok(ShardRecord { design, index, outcomes })
    }

    /// Loads a completed shard. `Ok(None)` means "recompute": the file
    /// is missing, torn, checksum-corrupt, or does not match its
    /// identity. A readable header with a *different format version* is
    /// an error — another build owns this journal.
    ///
    /// # Errors
    ///
    /// [`CampaignError::FormatVersion`] on a version mismatch.
    pub fn load(
        &self,
        id: ShardId,
        expected_mixes: u64,
    ) -> Result<Option<ShardRecord>, CampaignError> {
        let Ok(bytes) = std::fs::read(self.shard_path(id)) else {
            return Ok(None);
        };
        match self.decode(&bytes, id, expected_mixes) {
            DecodeOutcome::Ok(record) => Ok(Some(record)),
            DecodeOutcome::Recompute => Ok(None),
            DecodeOutcome::WrongVersion(found) => Err(CampaignError::FormatVersion {
                found,
                expected: JOURNAL_VERSION,
            }),
        }
    }

    /// Persists one completed shard atomically.
    ///
    /// # Errors
    ///
    /// Any I/O error from the atomic write.
    pub fn store(&self, record: &ShardRecord) -> std::io::Result<()> {
        let id = ShardId { design: record.design, index: record.index };
        atomic_write_bytes(&self.shard_path(id), &self.encode(record))
    }

    /// How many of the plan's shards are already completed on disk.
    /// Unreadable shards count as absent (they will be recomputed).
    pub fn completed(&self, plan: &CampaignPlan) -> u64 {
        plan.shards
            .iter()
            .filter(|s| matches!(self.load(s.id, s.mixes()), Ok(Some(_))))
            .count() as u64
    }
}

enum DecodeOutcome {
    Ok(ShardRecord),
    Recompute,
    WrongVersion(u32),
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

    #[test]
    fn shard_round_trip_and_resume_accounting() {
        let root = tmp_dir("roundtrip");
        let plan = plan();
        let journal = Journal::open(&root, &plan).unwrap();
        assert_eq!(journal.completed(&plan), 0);
        assert!(journal.dir().join("plan.json").exists(), "summary recorded");

        let shard = &plan.shards[0];
        let rec = record(shard.id.design, shard.id.index, shard.mixes() as usize);
        journal.store(&rec).unwrap();
        assert_eq!(journal.load(shard.id, shard.mixes()).unwrap(), Some(rec));
        assert_eq!(journal.completed(&plan), 1);

        // Reopen: completion state persists.
        let reopened = Journal::open(&root, &plan).unwrap();
        assert_eq!(reopened.completed(&plan), 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_or_mismatched_shards_read_as_absent() {
        let root = tmp_dir("corrupt");
        let plan = plan();
        let journal = Journal::open(&root, &plan).unwrap();
        let shard = &plan.shards[1];
        let mixes = shard.mixes();

        // Truncated file (the checksum region is cut off).
        let rec = record(shard.id.design, shard.id.index, mixes as usize);
        journal.store(&rec).unwrap();
        let path = journal.shard_path(shard.id);
        let pristine = std::fs::read(&path).unwrap();
        // mppm-lint: allow(non-atomic-write): deliberately tears the shard to prove a torn file is recomputed
        std::fs::write(&path, &pristine[..pristine.len() - 7]).unwrap();
        assert_eq!(journal.load(shard.id, mixes).unwrap(), None, "torn shard is recomputed");

        // A flipped payload bit fails the checksum.
        let mut flipped = pristine.clone();
        flipped[HEADER_LEN + 3] ^= 0x40;
        // mppm-lint: allow(non-atomic-write): test-only corruption injection
        std::fs::write(&path, &flipped).unwrap();
        assert_eq!(journal.load(shard.id, mixes).unwrap(), None, "bit rot is recomputed");

        // Wrong identity (file renamed/copied into the wrong slot): the
        // embedded design/index disagree with the requested id.
        journal.store(&record(shard.id.design, shard.id.index + 7, mixes as usize)).unwrap();
        std::fs::rename(
            journal.shard_path(ShardId { design: shard.id.design, index: shard.id.index + 7 }),
            &path,
        )
        .unwrap();
        assert_eq!(journal.load(shard.id, mixes).unwrap(), None, "mismatched identity rejected");

        // Wrong outcome count (shard size changed between runs cannot
        // happen — the id encodes it — but defend anyway).
        journal.store(&record(shard.id.design, shard.id.index, mixes as usize - 1)).unwrap();
        assert_eq!(journal.load(shard.id, mixes).unwrap(), None, "short shard rejected");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn format_version_mismatch_is_a_typed_error() {
        let root = tmp_dir("version");
        let plan = plan();
        let journal = Journal::open(&root, &plan).unwrap();
        let shard = &plan.shards[0];
        let rec = record(shard.id.design, shard.id.index, shard.mixes() as usize);
        journal.store(&rec).unwrap();
        let path = journal.shard_path(shard.id);
        let mut bytes = std::fs::read(&path).unwrap();
        // Stamp a future format version; everything else stays valid.
        bytes[8..12].copy_from_slice(&7u32.to_le_bytes());
        // mppm-lint: allow(non-atomic-write): test-only version stamping
        std::fs::write(&path, &bytes).unwrap();
        match journal.load(shard.id, shard.mixes()) {
            Err(CampaignError::FormatVersion { found: 7, expected: JOURNAL_VERSION }) => {}
            other => panic!("expected a format-version error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn legacy_json_journals_are_refused() {
        let root = tmp_dir("legacy");
        let plan = plan();
        // A journal left behind by the retired JSON format.
        let dir = root.join("campaigns").join(&plan.id);
        std::fs::create_dir_all(&dir).unwrap();
        // mppm-lint: allow(non-atomic-write): test fixture planting a legacy file
        std::fs::write(dir.join("shard-d0-00000.json"), b"{}").unwrap();
        match Journal::open(&root, &plan) {
            Err(CampaignError::LegacyJournal(found)) => assert_eq!(found, dir),
            other => panic!("expected a legacy-journal refusal, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn plans_disagreeing_with_the_journal_fingerprint_recompute() {
        // Same directory, different plan fingerprint: cannot happen via
        // Journal::open (the id names the dir) but a hand-copied file
        // must still be rejected by the embedded fingerprint.
        let root = tmp_dir("fingerprint");
        let plan = plan();
        let journal = Journal::open(&root, &plan).unwrap();
        let shard = &plan.shards[0];
        let rec = record(shard.id.design, shard.id.index, shard.mixes() as usize);
        let mut foreign = Journal::open(&root, &plan).unwrap();
        foreign.plan_fp ^= 0xDEAD_BEEF;
        foreign.store(&rec).unwrap();
        assert_eq!(journal.load(shard.id, shard.mixes()).unwrap(), None);
        let _ = std::fs::remove_dir_all(&root);
    }
}
