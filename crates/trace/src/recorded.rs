//! Recorded traces: the on-disk form of a [`CompiledTrace`].
//!
//! A recording is one trace pass exactly as the simulator replays it —
//! the pass's phase-tagged runs of [`crate::OpWords`] — behind a header
//! that ties it to the spec and geometry it was recorded for. Two uses:
//!
//! * **External traces.** The synthetic suite stands in for SPEC CPU2006,
//!   but users with real address traces (from Pin, DynamoRIO, QEMU, ...)
//!   can convert them to recordings and drive the simulator and profiler
//!   with production behavior.
//! * **Archival reproducibility.** A recording pins the exact item
//!   sequence independent of the generator's RNG implementation, so
//!   results can be reproduced across versions.
//!
//! [`CompiledTrace::to_bytes`] writes a recording and
//! [`CompiledTrace::from_bytes`] reads one back; the loaded trace is
//! replayed by the profiler (`mppm_sim::profile_compiled`) and by mix
//! simulations (`mppm_sim::TraceCache::insert`) like a freshly compiled
//! one. The format is little-endian:
//!
//! ```text
//! magic      4  b"MPPM"
//! version    u32  format version (this module writes 2)
//! spec       u64  FNV-1a fingerprint of the spec's parameters
//! interval   u64  instructions per interval
//! intervals  u32  intervals per pass
//! runs       u32  phase runs in the pass
//! run table  runs × (u32 phase index, u64 ops)
//! ops        one u64 op word per op, run after run
//! check      u64  FNV-1a over every preceding byte
//! ```

use std::sync::Arc;

use crate::compile::{phase_runs, BLOCK_BITS};
use crate::{fnv1a, BenchmarkSpec, CompiledTrace, OpWords, PhaseRun, TraceGeometry};

/// Magic bytes introducing a recorded trace.
pub const MAGIC: [u8; 4] = *b"MPPM";
/// Format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 2;

const HEADER_LEN: usize = 4 + 4 + 8 + 8 + 4 + 4;
const RUN_LEN: usize = 4 + 8;
const CHECK_LEN: usize = 8;

/// Error decoding a recorded trace.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeError {
    /// Shorter than its header says it is.
    Truncated,
    /// Longer than its header says it is.
    TrailingBytes,
    /// Magic bytes did not match.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// The checksum does not match the contents.
    BadChecksum,
    /// Recorded for a spec other than the one given.
    SpecMismatch,
    /// A zero interval length or count, or a pass too long to count.
    BadGeometry,
    /// The run at this index names a phase the spec does not have.
    BadPhase(usize),
    /// The run at this index does not end where the spec's phase run of
    /// the same index does (or the run counts differ).
    RunBoundary(usize),
    /// The op at this index is a compute batch of zero instructions.
    EmptyBatch(usize),
    /// The op at this index is no valid op word: a block id of 2^44 or
    /// more, or a compute word with bits above its `u32` count set.
    BadWord(usize),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "recording is truncated"),
            DecodeError::TrailingBytes => write!(f, "recording has trailing bytes"),
            DecodeError::BadMagic => write!(f, "missing MPPM trace magic"),
            DecodeError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            DecodeError::BadChecksum => write!(f, "checksum mismatch"),
            DecodeError::SpecMismatch => write!(f, "recorded for a different benchmark spec"),
            DecodeError::BadGeometry => write!(f, "invalid trace geometry"),
            DecodeError::BadPhase(k) => write!(f, "run {k} names a phase the spec lacks"),
            DecodeError::RunBoundary(k) => {
                write!(f, "run {k} does not end at the spec's phase-run boundary")
            }
            DecodeError::EmptyBatch(i) => write!(f, "empty compute batch at op {i}"),
            DecodeError::BadWord(i) => write!(f, "invalid op word at op {i}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl CompiledTrace {
    /// Serializes the pass to the recording format.
    ///
    /// # Example
    ///
    /// ```
    /// use mppm_trace::{suite, CompiledTrace, TraceGeometry};
    ///
    /// let spec = suite::benchmark("mcf").unwrap().clone();
    /// let trace = CompiledTrace::compile(spec.clone(), TraceGeometry::tiny());
    /// let bytes = trace.to_bytes();
    /// assert_eq!(CompiledTrace::from_bytes(spec, &bytes).unwrap(), trace);
    /// ```
    pub fn to_bytes(&self) -> Vec<u8> {
        let table = self.runs.len() * RUN_LEN;
        let words = self.runs.iter().map(|r| r.ops().len() * 8).sum::<usize>();
        let mut buf = Vec::with_capacity(HEADER_LEN + table + words + CHECK_LEN);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf.extend_from_slice(&self.spec.fingerprint().to_le_bytes());
        buf.extend_from_slice(&self.geometry.interval_insns.to_le_bytes());
        buf.extend_from_slice(&self.geometry.intervals.to_le_bytes());
        let runs = u32::try_from(self.runs.len()).expect("at most one run per interval");
        buf.extend_from_slice(&runs.to_le_bytes());
        for run in &self.runs {
            let phase = u32::try_from(run.phase()).expect("phase index fits u32");
            buf.extend_from_slice(&phase.to_le_bytes());
            buf.extend_from_slice(&(run.ops().len() as u64).to_le_bytes());
        }
        for run in &self.runs {
            for word in run.ops().words() {
                buf.extend_from_slice(&word.to_le_bytes());
            }
        }
        let check = fnv1a(&buf);
        buf.extend_from_slice(&check.to_le_bytes());
        buf
    }

    /// Reads a recording of `spec`'s trace, validating everything it
    /// takes from `bytes`: the header, the checksum, the spec
    /// fingerprint, the geometry, that every run names one of the spec's
    /// phases and that the runs tile the pass at the spec's phase-run
    /// boundaries, and that every op word is valid.
    ///
    /// # Errors
    ///
    /// The first [`DecodeError`] found; bad input never panics.
    pub fn from_bytes(
        spec: impl Into<Arc<BenchmarkSpec>>,
        bytes: &[u8],
    ) -> Result<Self, DecodeError> {
        if bytes.len() < HEADER_LEN + CHECK_LEN {
            return Err(DecodeError::Truncated);
        }
        if bytes[..4] != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let version = u32_at(bytes, 4);
        if version != FORMAT_VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        let runs = u32_at(bytes, 28) as usize;
        let table_end = runs.checked_mul(RUN_LEN).and_then(|t| t.checked_add(HEADER_LEN));
        let Some(table_end) = table_end.filter(|&t| t + CHECK_LEN <= bytes.len()) else {
            return Err(DecodeError::Truncated);
        };
        let run_at = |k: usize| {
            let at = HEADER_LEN + k * RUN_LEN;
            (u32_at(bytes, at) as usize, u64_at(bytes, at + 4))
        };
        // An op count the buffer cannot hold fails the length check.
        let ops_end = (0..runs)
            .try_fold(0u64, |sum, k| sum.checked_add(run_at(k).1))
            .and_then(|ops| ops.checked_mul(8))
            .and_then(|len| len.checked_add(table_end as u64))
            .unwrap_or(u64::MAX);
        let available = (bytes.len() - CHECK_LEN) as u64;
        if ops_end > available {
            return Err(DecodeError::Truncated);
        }
        if ops_end < available {
            return Err(DecodeError::TrailingBytes);
        }
        let ops_end = bytes.len() - CHECK_LEN;
        if u64_at(bytes, ops_end) != fnv1a(&bytes[..ops_end]) {
            return Err(DecodeError::BadChecksum);
        }
        let spec = spec.into();
        if u64_at(bytes, 8) != spec.fingerprint() {
            return Err(DecodeError::SpecMismatch);
        }
        let (interval_insns, intervals) = (u64_at(bytes, 16), u32_at(bytes, 24));
        if interval_insns == 0
            || intervals == 0
            || interval_insns.checked_mul(u64::from(intervals)).is_none()
        {
            return Err(DecodeError::BadGeometry);
        }
        let geometry = TraceGeometry::new(interval_insns, intervals);
        if let Some(k) = (0..runs).find(|&k| run_at(k).0 >= spec.phases().len()) {
            return Err(DecodeError::BadPhase(k));
        }
        let expected = phase_runs(&spec, geometry);
        if runs != expected.len() {
            return Err(DecodeError::RunBoundary(runs.min(expected.len())));
        }
        let mut decoded = Vec::with_capacity(runs);
        let (mut at, mut op, mut insn) = (table_end, 0usize, 0u64);
        for (k, &(phase, end)) in expected.iter().enumerate() {
            let (run_phase, ops) = run_at(k);
            if run_phase != phase {
                return Err(DecodeError::RunBoundary(k));
            }
            // `ops` fits: the buffer holds a word for each.
            let mut words = Vec::with_capacity(ops as usize);
            for _ in 0..ops {
                let word = u64_at(bytes, at);
                insn = insn.saturating_add(word_insns(word).map_err(|bad| bad(op))?);
                words.push(word);
                at += 8;
                op += 1;
            }
            if insn != end {
                return Err(DecodeError::RunBoundary(k));
            }
            decoded.push(PhaseRun::from_words(phase, words));
        }
        Ok(Self { spec, geometry, runs: decoded })
    }
}

/// Instructions op word `word` retires, or the error naming it invalid.
fn word_insns(word: u64) -> Result<u64, fn(usize) -> DecodeError> {
    if OpWords::is_access(word) {
        if OpWords::block(word) >> BLOCK_BITS != 0 {
            return Err(DecodeError::BadWord);
        }
        Ok(1)
    } else if word == 0 {
        Err(DecodeError::EmptyBatch)
    } else if word > u64::from(u32::MAX) {
        Err(DecodeError::BadWord)
    } else {
        Ok(word)
    }
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("bounds checked"))
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("bounds checked"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{suite, TraceStream};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn gcc() -> BenchmarkSpec {
        suite::benchmark("gcc").unwrap().clone()
    }

    fn recorded() -> CompiledTrace {
        CompiledTrace::compile(gcc(), TraceGeometry::tiny())
    }

    /// `bytes` after `edit`, with the checksum recomputed so the decoder
    /// gets past it to the check under test.
    fn patched(bytes: &[u8], edit: impl FnOnce(&mut [u8])) -> Vec<u8> {
        let mut out = bytes.to_vec();
        let body = out.len() - CHECK_LEN;
        edit(&mut out[..body]);
        let check = fnv1a(&out[..body]);
        out[body..].copy_from_slice(&check.to_le_bytes());
        out
    }

    /// Byte offset of op `op`'s word in a recording of `trace`.
    fn op_offset(trace: &CompiledTrace, op: usize) -> usize {
        HEADER_LEN + trace.runs().len() * RUN_LEN + op * 8
    }

    #[test]
    fn round_trip_is_identity() {
        for name in ["gcc", "lbm", "gamess"] {
            let spec = suite::benchmark(name).unwrap().clone();
            let trace = CompiledTrace::compile(spec.clone(), TraceGeometry::new(3_000, 7));
            let back = CompiledTrace::from_bytes(spec, &trace.to_bytes()).unwrap();
            assert_eq!(trace, back, "{name}");
        }
    }

    /// A recording of `name`'s trace, written and read back.
    fn loaded(name: &str, g: TraceGeometry) -> (CompiledTrace, BenchmarkSpec) {
        let spec = suite::benchmark(name).unwrap().clone();
        let bytes = CompiledTrace::compile(spec.clone(), g).to_bytes();
        (CompiledTrace::from_bytes(spec.clone(), &bytes).unwrap(), spec)
    }

    #[test]
    fn capture_matches_generator_exactly() {
        // Recording then replaying must equal generating directly, item
        // for item, with each run tagged with the generator's phase.
        let g = TraceGeometry::tiny();
        let (trace, spec) = loaded("milc", g);
        let mut stream = TraceStream::new(spec, g);
        for run in trace.runs() {
            assert_eq!(run.phase(), stream.current_phase());
            for op in 0..run.ops().len() {
                assert_eq!(run.ops().item(op), stream.next_item(), "op {op}");
            }
        }
        assert_eq!(stream.position(), g.trace_insns());
    }

    #[test]
    fn replay_matches_items_and_wraps() {
        // Replayed cyclically, a recording is the live stream across a
        // wrap: the stream rewinds to its seed, so one pass covers all.
        let g = TraceGeometry::new(2_000, 5);
        let (trace, spec) = loaded("gcc", g);
        let mut stream = TraceStream::new(spec, g);
        for pass in 0..3 {
            for run in trace.runs() {
                for op in 0..run.ops().len() {
                    assert_eq!(run.ops().item(op), stream.next_item(), "pass {pass} op {op}");
                }
            }
        }
        assert_eq!(stream.wraps(), 2);
        assert_eq!(stream.position(), 3 * g.trace_insns());
    }

    #[test]
    fn decode_rejects_garbage() {
        let bytes = recorded().to_bytes();
        let decode = |b: &[u8]| CompiledTrace::from_bytes(gcc(), b).unwrap_err();
        assert_eq!(decode(b"xx"), DecodeError::Truncated);
        assert_eq!(decode(&bytes[..bytes.len() - 4]), DecodeError::Truncated);
        assert_eq!(decode(&bytes[..HEADER_LEN + CHECK_LEN + 4]), DecodeError::Truncated);
        let mut long = bytes.clone();
        long.extend_from_slice(&[0; 8]);
        assert_eq!(decode(&long), DecodeError::TrailingBytes);
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(decode(&bad_magic), DecodeError::BadMagic);
        let mut bad_version = bytes.clone();
        bad_version[4] = 99;
        assert_eq!(decode(&bad_version), DecodeError::BadVersion(99));
    }

    #[test]
    fn decode_rejects_a_flipped_payload_byte() {
        let trace = recorded();
        let mut bytes = trace.to_bytes();
        bytes[op_offset(&trace, 10) + 1] ^= 0x10;
        assert_eq!(CompiledTrace::from_bytes(gcc(), &bytes), Err(DecodeError::BadChecksum));
    }

    #[test]
    fn decode_rejects_another_spec_or_geometry() {
        let bytes = recorded().to_bytes();
        let lbm = suite::benchmark("lbm").unwrap().clone();
        assert_eq!(CompiledTrace::from_bytes(lbm, &bytes), Err(DecodeError::SpecMismatch));
        // Same name, one parameter off.
        let g = gcc();
        let (phases, schedule) = (g.phases().to_vec(), g.schedule().to_vec());
        let twin = BenchmarkSpec::new(g.name(), g.seed() ^ 1, phases, schedule).unwrap();
        assert_eq!(CompiledTrace::from_bytes(twin, &bytes), Err(DecodeError::SpecMismatch));
        // A header claiming another geometry: the runs no longer tile it.
        let other = patched(&bytes, |b| b[16..24].copy_from_slice(&20_000u64.to_le_bytes()));
        assert_eq!(CompiledTrace::from_bytes(gcc(), &other), Err(DecodeError::RunBoundary(0)));
        let zero = patched(&bytes, |b| b[24..28].copy_from_slice(&0u32.to_le_bytes()));
        assert_eq!(CompiledTrace::from_bytes(gcc(), &zero), Err(DecodeError::BadGeometry));
    }

    #[test]
    fn decode_rejects_an_out_of_range_phase() {
        let trace = recorded();
        let last = trace.runs().len() - 1;
        let at = HEADER_LEN + last * RUN_LEN;
        let bytes =
            patched(&trace.to_bytes(), |b| b[at..at + 4].copy_from_slice(&99u32.to_le_bytes()));
        assert_eq!(CompiledTrace::from_bytes(gcc(), &bytes), Err(DecodeError::BadPhase(last)));
    }

    #[test]
    fn decode_rejects_a_zero_compute_word() {
        let trace = recorded();
        let words = trace.runs()[0].ops().words();
        let op = words.iter().position(|&w| !OpWords::is_access(w)).unwrap();
        let at = op_offset(&trace, op);
        let bytes = patched(&trace.to_bytes(), |b| b[at..at + 8].fill(0));
        assert_eq!(CompiledTrace::from_bytes(gcc(), &bytes), Err(DecodeError::EmptyBatch(op)));
    }

    #[test]
    fn decode_rejects_bad_tag() {
        // A store bit on a compute word, and an access past 2^44 blocks.
        let trace = recorded();
        let words = trace.runs()[0].ops().words();
        let compute = words.iter().position(|&w| !OpWords::is_access(w)).unwrap();
        let access = words.iter().position(|&w| OpWords::is_access(w)).unwrap();
        for (op, bit) in [(compute, 63), (access, BLOCK_BITS)] {
            let at = op_offset(&trace, op);
            let bytes = patched(&trace.to_bytes(), |b| b[at + bit as usize / 8] |= 1 << (bit % 8));
            assert_eq!(CompiledTrace::from_bytes(gcc(), &bytes), Err(DecodeError::BadWord(op)));
        }
    }

    #[test]
    fn decode_never_panics_on_mutated_input() {
        // Random byte edits (checksum recomputed, so they reach every
        // later check) and random truncations decode to a value or a
        // typed error.
        let trace = CompiledTrace::compile(gcc(), TraceGeometry::new(500, 4));
        let bytes = trace.to_bytes();
        let mut rng = SmallRng::seed_from_u64(0x7ACE);
        for _ in 0..2_000 {
            let at = rng.gen_range(0..bytes.len() - CHECK_LEN);
            let value = rng.gen::<u64>().to_le_bytes()[0];
            let edited = patched(&bytes, |b| b[at] = value);
            let _ = CompiledTrace::from_bytes(gcc(), &edited);
            let _ = CompiledTrace::from_bytes(gcc(), &edited[..rng.gen_range(0..edited.len())]);
        }
    }
}
