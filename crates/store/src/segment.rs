//! The append-only segment file: the store's one durable artefact.
//!
//! ## On-disk format
//!
//! ```text
//! ┌────────────────────────────┐
//! │ magic  "IMPXSEG1"  (8 B)   │  header, written once at creation
//! │ format version u32 LE      │
//! ├────────────────────────────┤
//! │ payload length  u32 LE     │  ┐
//! │ FNV-1a checksum u64 LE     │  │ one record frame,
//! │ payload (length bytes)     │  ┘ repeated to EOF
//! ├────────────────────────────┤
//! │ …                          │
//! └────────────────────────────┘
//! ```
//!
//! The first payload byte is a record-kind tag interpreted by the typed
//! layer in `lib.rs`; the segment itself treats payloads as opaque.
//!
//! ## Crash safety
//!
//! Records are only ever appended, so the one thing a crash can damage
//! is the tail. [`Segment::open`] rebuilds the record index by scanning
//! frame to frame through a bounded buffer — every checksum is
//! verified, but only each record's offset, length and first bytes are
//! kept, so opening costs memory independent of the segment's size —
//! and distinguishes two failure shapes:
//!
//! * **Torn tail** — the final frame is incomplete (its header or its
//!   declared payload extends past EOF). This is the signature of an
//!   interrupted append: the record never finished writing, so it is
//!   *cleanly ignored* and the file is truncated back to the last fully
//!   valid record. Nothing that was ever durably written is lost.
//! * **Corrupt record** — a frame is fully contained in the file but
//!   its payload does not match its checksum. Appends never produce
//!   this, so it means the bytes changed after they were written
//!   (bit rot, a buggy tool, a hostile edit). That is not safely
//!   ignorable — the damage could be anywhere, not just the tail — so
//!   it surfaces as a typed [`StoreError::CorruptRecord`], never a
//!   panic and never a silent skip.

use crate::StoreError;
use imprecise_pxml::codec::Fnv1a;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// File magic: "IMPX" segment, format generation 1.
pub(crate) const MAGIC: &[u8; 8] = b"IMPXSEG1";
/// On-disk format version (bumped on incompatible layout changes).
/// Version 2: refine-state payloads carry the blocking mode and the
/// pruned/windowed pair counters. Version 3: refine-step delta records.
pub(crate) const FORMAT_VERSION: u32 = 3;
/// Header size: magic + version.
pub(crate) const HEADER_LEN: u64 = 12;
/// Frame overhead per record: payload length + checksum.
pub(crate) const FRAME_LEN: u64 = 12;

/// How many leading payload bytes the open-time scan keeps per record:
/// enough for the record heads the typed layer indexes by (kind, name,
/// version, or a blob's hash) unless a name is unusually long, in which
/// case the typed layer reads the whole record back.
const HEAD_LEN: usize = 256;
/// Buffer size of the open-time scan.
const SCAN_BUF: usize = 1 << 16;

/// A record located during the open-time scan: where its frame starts
/// (the offset later reads address it by), its payload length, and the
/// payload's first [`HEAD_LEN`] bytes.
pub(crate) struct ScannedRecord {
    /// Offset of the record's frame (length field) from file start.
    pub offset: u64,
    /// Length of the verified payload.
    pub len: usize,
    /// The payload's first `min(len, HEAD_LEN)` bytes.
    pub head: Vec<u8>,
}

/// The open segment file plus the end of its valid prefix.
pub(crate) struct Segment {
    file: File,
    /// End of the last fully valid record == the next append offset.
    len: u64,
}

impl Segment {
    /// Open (or create) the segment at `path`, scanning to the last
    /// valid record. Returns the segment positioned for appends plus
    /// every valid record's location and head, in file order. A torn
    /// tail is truncated away; a checksum-mismatched record that is
    /// fully contained in the file is a [`StoreError::CorruptRecord`].
    pub(crate) fn open(path: &Path) -> Result<(Segment, Vec<ScannedRecord>), StoreError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < HEADER_LEN {
            // Fresh file, or a crash mid-header-write (no record can
            // have been written yet either way): only accept bytes that
            // are a prefix of the real header, then (re)write it whole.
            let mut existing = Vec::new();
            file.read_to_end(&mut existing)?;
            let mut header = Vec::with_capacity(HEADER_LEN as usize);
            header.extend_from_slice(MAGIC);
            header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
            if existing != header[..existing.len()] {
                return Err(StoreError::BadHeader);
            }
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&header)?;
            file.sync_data()?;
            return Ok((
                Segment {
                    file,
                    len: HEADER_LEN,
                },
                Vec::new(),
            ));
        }
        let mut reader = BufReader::with_capacity(SCAN_BUF, &file);
        let mut header = [0u8; HEADER_LEN as usize];
        reader.read_exact(&mut header)?;
        if &header[..8] != MAGIC {
            return Err(StoreError::BadHeader);
        }
        // lint:allow(unwrap-in-lib, slice is exactly 4 bytes)
        let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion(version));
        }
        let mut records = Vec::new();
        let mut chunk = vec![0u8; SCAN_BUF];
        let mut pos = HEADER_LEN;
        while pos < file_len {
            if file_len - pos < FRAME_LEN {
                // Incomplete frame header: an append died before the
                // frame was fully written. Clean torn tail.
                break;
            }
            let mut frame = [0u8; FRAME_LEN as usize];
            reader.read_exact(&mut frame)?;
            // lint:allow(unwrap-in-lib, slice is exactly 4 bytes)
            let payload_len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
            // lint:allow(unwrap-in-lib, slice is exactly 8 bytes)
            let checksum = u64::from_le_bytes(frame[4..12].try_into().unwrap());
            let end = pos + FRAME_LEN + payload_len as u64;
            if end > file_len {
                // Declared payload extends past EOF: clean torn tail.
                break;
            }
            let mut digest = Fnv1a::new();
            let mut head = Vec::with_capacity(payload_len.min(HEAD_LEN));
            let mut left = payload_len;
            while left > 0 {
                let piece = &mut chunk[..left.min(SCAN_BUF)];
                reader.read_exact(piece)?;
                digest.update(piece);
                let keep = piece.len().min(HEAD_LEN - head.len());
                head.extend_from_slice(&piece[..keep]);
                left -= piece.len();
            }
            if digest.finish() != checksum {
                return Err(StoreError::CorruptRecord {
                    offset: pos,
                    detail: "payload checksum mismatch",
                });
            }
            records.push(ScannedRecord {
                offset: pos,
                len: payload_len,
                head,
            });
            pos = end;
        }
        drop(reader);
        if pos < file_len {
            // Make the ignored torn tail physical so a later append
            // cannot leave stale bytes dangling after the new record.
            file.set_len(pos)?;
            file.sync_data()?;
        }
        Ok((Segment { file, len: pos }, records))
    }

    /// Append one record; returns the offset its frame was written at.
    /// The frame is assembled in memory and written with a single
    /// `write_all`, so a crash leaves at worst a torn tail that the
    /// next [`open`](Self::open) trims.
    pub(crate) fn append(&mut self, payload: &[u8]) -> Result<u64, StoreError> {
        let offset = self.len;
        let payload_len = u32::try_from(payload.len())
            .map_err(|_| StoreError::RecordTooLarge { len: payload.len() })?;
        let mut frame = Vec::with_capacity(FRAME_LEN as usize + payload.len());
        frame.extend_from_slice(&payload_len.to_le_bytes());
        frame.extend_from_slice(&imprecise_pxml::codec::fnv1a(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.write_all(&frame)?;
        self.len += frame.len() as u64;
        Ok(offset)
    }

    /// Read back and re-verify the record whose frame starts at
    /// `offset` (as returned by [`append`](Self::append) or reported by
    /// the open-time scan).
    pub(crate) fn read_record(&mut self, offset: u64) -> Result<Vec<u8>, StoreError> {
        if offset + FRAME_LEN > self.len {
            return Err(StoreError::CorruptRecord {
                offset,
                detail: "record offset past valid segment length",
            });
        }
        self.file.seek(SeekFrom::Start(offset))?;
        let mut frame_header = [0u8; FRAME_LEN as usize];
        self.file.read_exact(&mut frame_header)?;
        // lint:allow(unwrap-in-lib, slice is exactly 4 bytes)
        let payload_len = u32::from_le_bytes(frame_header[..4].try_into().unwrap()) as u64;
        // lint:allow(unwrap-in-lib, slice is exactly 8 bytes)
        let checksum = u64::from_le_bytes(frame_header[4..12].try_into().unwrap());
        if offset + FRAME_LEN + payload_len > self.len {
            return Err(StoreError::CorruptRecord {
                offset,
                detail: "record payload past valid segment length",
            });
        }
        let mut payload = vec![0u8; payload_len as usize];
        self.file.read_exact(&mut payload)?;
        if imprecise_pxml::codec::fnv1a(&payload) != checksum {
            return Err(StoreError::CorruptRecord {
                offset,
                detail: "payload checksum mismatch",
            });
        }
        Ok(payload)
    }

    /// Flush written records to stable storage (`fdatasync`).
    pub(crate) fn sync(&self) -> Result<(), StoreError> {
        self.file.sync_data()?;
        Ok(())
    }
}
