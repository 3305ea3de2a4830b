//! The columnar on-disk trace format `.twgc`: out-of-core event streams
//! with CRC-framed chunks, per-chunk branch-density summaries, and a
//! trailing directory for macro-block fast-forward.
//!
//! Where `TWGT` (see [`crate::trace`]) is a row-oriented format decoded
//! front to back, `.twgc` splits events into fixed-size chunks and stores
//! each chunk *by column*:
//!
//! ```text
//! file   := header chunk* directory footer
//! header := magic "TWGC" | version u8 (=1) | chunk_target u32
//! chunk  := count u32 | taken u32 | targets u32
//!           | blocks_len u32 | targets_len u32 | crc u32
//!           | taken_bits ⌈count/8⌉ | target_bits ⌈count/8⌉
//!           | blocks (count × LEB128) | target_col (targets × LEB128)
//! dirent := offset u64 | count u32 | taken u32 | targets u32
//! footer := total u64 | dir_offset u64 | chunk_count u32
//!           | dir_crc u32 | footer_crc u32 | end magic "CGWT"
//! ```
//!
//! Every multi-byte integer is little-endian. The chunk `crc` covers the
//! five leading length/summary words plus the payload, so a bit flip or a
//! torn write invalidates exactly the chunk it touches; the footer and
//! directory carry their own CRCs, so a torn tail is rejected at open.
//!
//! Design properties the streaming engine relies on:
//!
//! * **Bounded residency** — the reader ([`ColumnarReader`]) maps the file
//!   ([`crate::MappedBytes`]) and decodes one chunk at a time into a
//!   reusable buffer; consumed pages are returned to the OS, so a
//!   sequential scan of a multi-GB trace holds one chunk (~64Ki events)
//!   plus one mapped window resident.
//! * **Macro-block fast-forward** — each directory entry repeats the
//!   chunk's event count and branch-density summary (taken / has-target
//!   counts), so [`ColumnarReader`] consumers can leap whole chunks
//!   without touching their pages — the trace-level analogue of the
//!   simulator's batched idle stepping.
//! * **Streamed writes** — [`ColumnarWriter`] emits chunks as events
//!   arrive and appends the directory at the end, so a trace larger than
//!   RAM is written through `twig_sched::durable::publish_atomic_with`
//!   without ever being resident ([`write_columnar_file`]).

use std::io::{self, Write};
use std::path::Path;

use twig_bytes::BytesMut;
use twig_sched::durable::publish_atomic_with;
use twig_types::crc::{crc32, Crc32};
use twig_types::BlockId;

use crate::mapped::MappedBytes;
use crate::trace::{put_varint, EventDecoder, TraceError};
use crate::walker::BlockEvent;

const MAGIC: &[u8; 4] = b"TWGC";
const END_MAGIC: &[u8; 4] = b"CGWT";
const VERSION: u8 = 1;

const HEADER_LEN: usize = 4 + 1 + 4;
const CHUNK_HEADER_LEN: usize = 6 * 4;
const DIRENT_LEN: usize = 8 + 3 * 4;
const FOOTER_LEN: usize = 8 + 8 + 4 + 4 + 4 + 4;

/// Default nominal events per chunk. 64Ki events ≈ 200–300 KB encoded:
/// large enough that chunk overhead vanishes, small enough that the
/// reader's decode buffer stays far below the documented RSS bound.
pub const DEFAULT_CHUNK_EVENTS: u32 = 64 * 1024;

/// Branch-density summary of one chunk, replicated in its directory entry
/// so consumers can reason about a region without decoding it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChunkSummary {
    /// Absolute file offset of the chunk.
    pub offset: u64,
    /// Events in the chunk.
    pub events: u32,
    /// Events whose terminator was taken.
    pub taken: u32,
    /// Events carrying a target (taken branches).
    pub targets: u32,
}

impl ChunkSummary {
    /// Fraction of events whose branch was taken — the chunk's branch
    /// density. Quiescent (fall-through-heavy) regions score near zero.
    pub fn taken_density(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            f64::from(self.taken) / f64::from(self.events)
        }
    }
}

/// Streaming `.twgc` encoder over any [`Write`] sink.
///
/// Push events one at a time; chunks are emitted as they fill, and
/// [`ColumnarWriter::finish`] appends the directory and footer. Nothing
/// larger than one chunk is ever buffered.
pub struct ColumnarWriter<W: Write> {
    out: W,
    written: u64,
    chunk_target: u32,
    dir: Vec<ChunkSummary>,
    total: u64,
    // Pending chunk state.
    count: u32,
    taken: u32,
    targets: u32,
    taken_bits: Vec<u8>,
    target_bits: Vec<u8>,
    blocks: BytesMut,
    target_col: BytesMut,
}

impl<W: Write> ColumnarWriter<W> {
    /// Starts a columnar stream with the default chunk size, writing the
    /// file header immediately.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn new(out: W) -> io::Result<Self> {
        Self::with_chunk_events(out, DEFAULT_CHUNK_EVENTS)
    }

    /// Starts a columnar stream with an explicit nominal chunk size
    /// (clamped to at least 1; tests use tiny chunks to exercise many
    /// boundaries).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn with_chunk_events(mut out: W, chunk_target: u32) -> io::Result<Self> {
        let chunk_target = chunk_target.max(1);
        out.write_all(MAGIC)?;
        out.write_all(&[VERSION])?;
        out.write_all(&chunk_target.to_le_bytes())?;
        Ok(ColumnarWriter {
            out,
            written: HEADER_LEN as u64,
            chunk_target,
            dir: Vec::new(),
            total: 0,
            count: 0,
            taken: 0,
            targets: 0,
            taken_bits: Vec::new(),
            target_bits: Vec::new(),
            blocks: BytesMut::new(),
            target_col: BytesMut::new(),
        })
    }

    /// Appends one event, flushing a chunk when full.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn push(&mut self, ev: BlockEvent) -> io::Result<()> {
        let bit = self.count as usize;
        if bit.is_multiple_of(8) {
            self.taken_bits.push(0);
            self.target_bits.push(0);
        }
        if ev.taken {
            self.taken_bits[bit / 8] |= 1 << (bit % 8);
            self.taken += 1;
        }
        put_varint(&mut self.blocks, u64::from(ev.block.raw()));
        if let Some(t) = ev.target {
            self.target_bits[bit / 8] |= 1 << (bit % 8);
            self.targets += 1;
            put_varint(&mut self.target_col, u64::from(t.raw()));
        }
        self.count += 1;
        self.total += 1;
        if self.count >= self.chunk_target {
            self.flush_chunk()?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> io::Result<()> {
        if self.count == 0 {
            return Ok(());
        }
        let mut header = [0u8; CHUNK_HEADER_LEN];
        header[0..4].copy_from_slice(&self.count.to_le_bytes());
        header[4..8].copy_from_slice(&self.taken.to_le_bytes());
        header[8..12].copy_from_slice(&self.targets.to_le_bytes());
        header[12..16].copy_from_slice(&(self.blocks.len() as u32).to_le_bytes());
        header[16..20].copy_from_slice(&(self.target_col.len() as u32).to_le_bytes());
        let crc = crc32_concat(&[
            &header[0..20],
            &self.taken_bits,
            &self.target_bits,
            &self.blocks,
            &self.target_col,
        ]);
        header[20..24].copy_from_slice(&crc.to_le_bytes());
        self.out.write_all(&header)?;
        self.out.write_all(&self.taken_bits)?;
        self.out.write_all(&self.target_bits)?;
        self.out.write_all(&self.blocks)?;
        self.out.write_all(&self.target_col)?;
        self.dir.push(ChunkSummary {
            offset: self.written,
            events: self.count,
            taken: self.taken,
            targets: self.targets,
        });
        self.written += (CHUNK_HEADER_LEN
            + self.taken_bits.len()
            + self.target_bits.len()
            + self.blocks.len()
            + self.target_col.len()) as u64;
        self.count = 0;
        self.taken = 0;
        self.targets = 0;
        self.taken_bits.clear();
        self.target_bits.clear();
        self.blocks.clear();
        self.target_col.clear();
        Ok(())
    }

    /// Flushes the final partial chunk, writes the directory and footer,
    /// and returns the total number of events written.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn finish(mut self) -> io::Result<u64> {
        self.flush_chunk()?;
        let dir_offset = self.written;
        let mut dir_bytes = Vec::with_capacity(self.dir.len() * DIRENT_LEN);
        for entry in &self.dir {
            dir_bytes.extend_from_slice(&entry.offset.to_le_bytes());
            dir_bytes.extend_from_slice(&entry.events.to_le_bytes());
            dir_bytes.extend_from_slice(&entry.taken.to_le_bytes());
            dir_bytes.extend_from_slice(&entry.targets.to_le_bytes());
        }
        self.out.write_all(&dir_bytes)?;
        let mut footer = [0u8; FOOTER_LEN];
        footer[0..8].copy_from_slice(&self.total.to_le_bytes());
        footer[8..16].copy_from_slice(&dir_offset.to_le_bytes());
        footer[16..20].copy_from_slice(&(self.dir.len() as u32).to_le_bytes());
        footer[20..24].copy_from_slice(&crc32(&dir_bytes).to_le_bytes());
        let footer_crc = crc32(&footer[0..24]);
        footer[24..28].copy_from_slice(&footer_crc.to_le_bytes());
        footer[28..32].copy_from_slice(END_MAGIC);
        self.out.write_all(&footer)?;
        Ok(self.total)
    }
}

/// CRC-32 over the concatenation of several slices without materializing
/// it (the chunk checksum spans header words and four columns).
fn crc32_concat(parts: &[&[u8]]) -> u32 {
    let mut crc = Crc32::new();
    for part in parts {
        crc.update(part);
    }
    crc.finish()
}

/// Encodes events into an in-memory `.twgc` buffer (tests, benches).
pub fn encode_columnar(events: &[BlockEvent]) -> Vec<u8> {
    encode_columnar_chunked(events, DEFAULT_CHUNK_EVENTS)
}

/// [`encode_columnar`] with an explicit chunk size.
pub fn encode_columnar_chunked(events: &[BlockEvent], chunk_events: u32) -> Vec<u8> {
    let mut out = Vec::new();
    let mut writer =
        ColumnarWriter::with_chunk_events(&mut out, chunk_events).expect("vec write is infallible");
    for ev in events {
        writer.push(*ev).expect("vec write is infallible");
    }
    writer.finish().expect("vec write is infallible");
    out
}

/// Decodes a full in-memory `.twgc` buffer.
///
/// # Errors
///
/// Returns [`TraceError`] on malformed input.
pub fn decode_columnar(bytes: &[u8]) -> Result<Vec<BlockEvent>, TraceError> {
    ColumnarReader::from_bytes(bytes.to_vec())?.read_all()
}

/// Streams events into a `.twgc` file published atomically (temp +
/// `fsync` + rename via `twig_sched::durable`), without materializing the
/// event stream or the encoded bytes; returns the event count.
///
/// # Errors
///
/// Propagates I/O failures from staging or publishing the file.
pub fn write_columnar_file(
    path: &Path,
    events: impl IntoIterator<Item = BlockEvent>,
) -> io::Result<u64> {
    publish_atomic_with(path, None, None, |out| {
        let mut writer = ColumnarWriter::new(out)?;
        for ev in events {
            writer.push(ev)?;
        }
        writer.finish()
    })
}

/// Zero-copy `.twgc` reader over a mapped file (or owned buffer).
///
/// Opening validates the header, footer, and directory (rejecting torn
/// tails outright); chunk payloads are validated lazily, CRC-checked as
/// each chunk is first decoded, so corruption is detected exactly when it
/// would be consumed and untouched regions never cost a page fault.
#[derive(Debug)]
pub struct ColumnarReader {
    map: MappedBytes,
    dir: Vec<ChunkSummary>,
    total: u64,
    chunk_target: u32,
}

impl ColumnarReader {
    /// Opens and validates a `.twgc` file.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] if the file cannot be mapped, otherwise the
    /// structural error the validation found.
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        Self::from_map(MappedBytes::open(path)?)
    }

    /// Wraps an in-memory buffer (tests; identical validation).
    ///
    /// # Errors
    ///
    /// The structural error the validation found, if any.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, TraceError> {
        Self::from_map(MappedBytes::from_vec(bytes))
    }

    fn from_map(map: MappedBytes) -> Result<Self, TraceError> {
        let bytes = map.bytes();
        if bytes.len() < HEADER_LEN || &bytes[..4] != MAGIC {
            return Err(TraceError::BadMagic);
        }
        if bytes[4] != VERSION {
            return Err(TraceError::BadVersion(bytes[4]));
        }
        let chunk_target = u32::from_le_bytes(bytes[5..9].try_into().unwrap());
        if bytes.len() < HEADER_LEN + FOOTER_LEN {
            return Err(TraceError::Corrupt {
                offset: bytes.len() as u64,
                what: "file too short for footer",
            });
        }
        let footer_at = bytes.len() - FOOTER_LEN;
        let footer = &bytes[footer_at..];
        if &footer[28..32] != END_MAGIC {
            return Err(TraceError::Corrupt {
                offset: footer_at as u64 + 28,
                what: "missing end magic (torn tail)",
            });
        }
        let footer_crc = u32::from_le_bytes(footer[24..28].try_into().unwrap());
        if crc32(&footer[0..24]) != footer_crc {
            return Err(TraceError::Corrupt {
                offset: footer_at as u64,
                what: "footer checksum mismatch",
            });
        }
        let total = u64::from_le_bytes(footer[0..8].try_into().unwrap());
        let dir_offset = u64::from_le_bytes(footer[8..16].try_into().unwrap());
        let chunk_count = u32::from_le_bytes(footer[16..20].try_into().unwrap()) as usize;
        let dir_crc = u32::from_le_bytes(footer[20..24].try_into().unwrap());
        let dir_len = chunk_count
            .checked_mul(DIRENT_LEN)
            .ok_or(TraceError::Corrupt {
                offset: footer_at as u64,
                what: "directory size overflow",
            })?;
        let dir_end = (dir_offset as usize).checked_add(dir_len);
        if dir_end != Some(footer_at) || (dir_offset as usize) < HEADER_LEN {
            return Err(TraceError::Corrupt {
                offset: footer_at as u64,
                what: "directory does not abut footer",
            });
        }
        let dir_bytes = &bytes[dir_offset as usize..footer_at];
        if crc32(dir_bytes) != dir_crc {
            return Err(TraceError::Corrupt {
                offset: dir_offset,
                what: "directory checksum mismatch",
            });
        }
        let mut dir = Vec::with_capacity(chunk_count);
        let mut expected_offset = HEADER_LEN as u64;
        let mut summed = 0u64;
        for entry in dir_bytes.chunks_exact(DIRENT_LEN) {
            let offset = u64::from_le_bytes(entry[0..8].try_into().unwrap());
            let events = u32::from_le_bytes(entry[8..12].try_into().unwrap());
            let taken = u32::from_le_bytes(entry[12..16].try_into().unwrap());
            let targets = u32::from_le_bytes(entry[16..20].try_into().unwrap());
            if offset != expected_offset || events == 0 || taken > events || targets > events {
                return Err(TraceError::Corrupt {
                    offset,
                    what: "inconsistent directory entry",
                });
            }
            // Advance past this chunk using its header (bounds-checked
            // against the directory region).
            let header_end = offset as usize + CHUNK_HEADER_LEN;
            if header_end > dir_offset as usize {
                return Err(TraceError::Corrupt {
                    offset,
                    what: "chunk header out of bounds",
                });
            }
            let chunk = &bytes[offset as usize..header_end];
            let count = u32::from_le_bytes(chunk[0..4].try_into().unwrap());
            let blocks_len = u32::from_le_bytes(chunk[12..16].try_into().unwrap());
            let targets_len = u32::from_le_bytes(chunk[16..20].try_into().unwrap());
            if count != events {
                return Err(TraceError::Corrupt {
                    offset,
                    what: "chunk/directory event count mismatch",
                });
            }
            let bits = count.div_ceil(8) as u64;
            expected_offset = offset
                + CHUNK_HEADER_LEN as u64
                + 2 * bits
                + u64::from(blocks_len)
                + u64::from(targets_len);
            if expected_offset > dir_offset {
                return Err(TraceError::Corrupt {
                    offset,
                    what: "chunk payload out of bounds",
                });
            }
            summed += u64::from(events);
            dir.push(ChunkSummary {
                offset,
                events,
                taken,
                targets,
            });
        }
        if expected_offset != dir_offset {
            return Err(TraceError::Corrupt {
                offset: expected_offset,
                what: "gap between last chunk and directory",
            });
        }
        if summed != total {
            return Err(TraceError::Corrupt {
                offset: footer_at as u64,
                what: "footer event total disagrees with directory",
            });
        }
        Ok(ColumnarReader {
            map,
            dir,
            total,
            chunk_target,
        })
    }

    /// Total events in the trace (exact).
    pub fn total_events(&self) -> u64 {
        self.total
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.dir.len()
    }

    /// The writer's nominal events-per-chunk.
    pub fn chunk_target(&self) -> u32 {
        self.chunk_target
    }

    /// Per-chunk branch-density summaries, in file order — readable
    /// without faulting in any chunk payload.
    pub fn summaries(&self) -> &[ChunkSummary] {
        &self.dir
    }

    /// Decodes chunk `index` into `out` (cleared first), CRC-checking the
    /// payload.
    ///
    /// # Errors
    ///
    /// [`TraceError::ChecksumMismatch`] on a corrupt chunk, or a
    /// structural error if the columns disagree with the header.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn decode_chunk_into(
        &self,
        index: usize,
        out: &mut Vec<BlockEvent>,
    ) -> Result<(), TraceError> {
        out.clear();
        let summary = self.dir[index];
        let bytes = self.map.bytes();
        let at = summary.offset as usize;
        let header = &bytes[at..at + CHUNK_HEADER_LEN];
        let count = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
        let blocks_len = u32::from_le_bytes(header[12..16].try_into().unwrap()) as usize;
        let targets_len = u32::from_le_bytes(header[16..20].try_into().unwrap()) as usize;
        let crc_stored = u32::from_le_bytes(header[20..24].try_into().unwrap());
        let bits_len = count.div_ceil(8);
        let payload_at = at + CHUNK_HEADER_LEN;
        let payload = &bytes[payload_at..payload_at + 2 * bits_len + blocks_len + targets_len];
        if crc32_concat(&[&header[0..20], payload]) != crc_stored {
            return Err(TraceError::ChecksumMismatch {
                chunk: index as u32,
                offset: summary.offset,
            });
        }
        let taken_bits = &payload[..bits_len];
        let target_bits = &payload[bits_len..2 * bits_len];
        let blocks_col = &payload[2 * bits_len..2 * bits_len + blocks_len];
        let target_col = &payload[2 * bits_len + blocks_len..];
        let event_base: u64 = self.dir[..index].iter().map(|s| u64::from(s.events)).sum();
        let mut blocks = EventDecoder::new(blocks_col, (payload_at + 2 * bits_len) as u64, event_base);
        let mut targets = EventDecoder::new(
            target_col,
            (payload_at + 2 * bits_len + blocks_len) as u64,
            event_base,
        );
        out.reserve(count);
        for i in 0..count {
            let bit = 1u8 << (i % 8);
            let taken = taken_bits[i / 8] & bit != 0;
            let block = BlockId::new(blocks.varint()? as u32);
            let target = if target_bits[i / 8] & bit != 0 {
                Some(BlockId::new(targets.varint()? as u32))
            } else {
                None
            };
            out.push(BlockEvent {
                block,
                taken,
                target,
            });
        }
        if blocks.consumed() != blocks_len || targets.consumed() != targets_len {
            return Err(TraceError::Corrupt {
                offset: summary.offset,
                what: "column lengths disagree with event count",
            });
        }
        Ok(())
    }

    /// Returns consumed chunk pages to the OS (best-effort) — called by
    /// the sequential reader after it moves past a chunk.
    pub fn release_chunk(&self, index: usize) {
        let summary = self.dir[index];
        let end = self
            .dir
            .get(index + 1)
            .map(|next| next.offset as usize)
            .unwrap_or(summary.offset as usize);
        self.map
            .advise_dont_need(summary.offset as usize, end.max(summary.offset as usize));
    }

    /// Decodes the entire trace (validation helper; defeats the bounded-
    /// residency design on purpose).
    ///
    /// # Errors
    ///
    /// The first chunk-level error encountered.
    pub fn read_all(&self) -> Result<Vec<BlockEvent>, TraceError> {
        let mut events = Vec::with_capacity((self.total as usize).min(1 << 24));
        let mut chunk = Vec::new();
        for i in 0..self.dir.len() {
            self.decode_chunk_into(i, &mut chunk)?;
            events.extend_from_slice(&chunk);
        }
        Ok(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InputConfig, ProgramGenerator, Walker, WorkloadSpec};

    fn sample_events(n: usize) -> Vec<BlockEvent> {
        let p = ProgramGenerator::new(WorkloadSpec::tiny_test()).generate();
        Walker::new(&p, InputConfig::numbered(0)).take(n).collect()
    }

    #[test]
    fn roundtrip_across_chunk_sizes() {
        let events = sample_events(10_000);
        for chunk in [1u32, 7, 256, 4096, DEFAULT_CHUNK_EVENTS] {
            let bytes = encode_columnar_chunked(&events, chunk);
            assert_eq!(decode_columnar(&bytes).unwrap(), events, "chunk={chunk}");
        }
    }

    #[test]
    fn roundtrip_empty() {
        let bytes = encode_columnar(&[]);
        assert_eq!(decode_columnar(&bytes).unwrap(), Vec::new());
    }

    #[test]
    fn summaries_report_branch_density() {
        let events = sample_events(5_000);
        let bytes = encode_columnar_chunked(&events, 512);
        let reader = ColumnarReader::from_bytes(bytes).unwrap();
        assert_eq!(reader.total_events(), events.len() as u64);
        let mut at = 0usize;
        for summary in reader.summaries() {
            let window = &events[at..at + summary.events as usize];
            let taken = window.iter().filter(|e| e.taken).count() as u32;
            let targets = window.iter().filter(|e| e.target.is_some()).count() as u32;
            assert_eq!((summary.taken, summary.targets), (taken, targets));
            at += summary.events as usize;
        }
        assert_eq!(at, events.len());
    }

    #[test]
    fn rejects_torn_tail() {
        let events = sample_events(3_000);
        let bytes = encode_columnar_chunked(&events, 256);
        for cut in [bytes.len() - 1, bytes.len() - 20, bytes.len() / 2, 10] {
            let torn = bytes[..cut].to_vec();
            assert!(
                ColumnarReader::from_bytes(torn).is_err(),
                "accepted torn tail at {cut}"
            );
        }
    }

    #[test]
    fn rejects_every_single_bit_flip_in_a_chunk() {
        let events = sample_events(300);
        let bytes = encode_columnar_chunked(&events, 128);
        let reader = ColumnarReader::from_bytes(bytes.clone()).unwrap();
        let first_chunk = reader.summaries()[0];
        let chunk_end = reader.summaries()[1].offset as usize;
        drop(reader);
        // Flip one bit at a few positions spread across the first chunk;
        // either open or the chunk decode must reject each.
        for at in (first_chunk.offset as usize..chunk_end).step_by(17) {
            let mut mutated = bytes.clone();
            mutated[at] ^= 0x10;
            let rejected = match ColumnarReader::from_bytes(mutated) {
                Err(_) => true,
                Ok(r) => r.read_all().is_err(),
            };
            assert!(rejected, "bit flip at byte {at} went undetected");
        }
    }

    #[test]
    fn release_chunk_does_not_corrupt_reads() {
        let events = sample_events(4_000);
        let bytes = encode_columnar_chunked(&events, 512);
        let reader = ColumnarReader::from_bytes(bytes).unwrap();
        let mut buf = Vec::new();
        let mut replay = Vec::new();
        for i in 0..reader.chunk_count() {
            reader.decode_chunk_into(i, &mut buf).unwrap();
            replay.extend_from_slice(&buf);
            reader.release_chunk(i);
        }
        assert_eq!(replay, events);
    }

    #[test]
    fn file_roundtrip_via_atomic_publish() {
        let dir = std::env::temp_dir().join(format!("twig-columnar-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.twgc");
        let events = sample_events(20_000);
        let written = write_columnar_file(&path, events.iter().copied()).unwrap();
        assert_eq!(written, events.len() as u64);
        let reader = ColumnarReader::open(&path).unwrap();
        assert_eq!(reader.read_all().unwrap(), events);
        // No temp residue.
        let residue: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.path().to_string_lossy().ends_with(".twig-tmp"))
            .collect();
        assert!(residue.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
