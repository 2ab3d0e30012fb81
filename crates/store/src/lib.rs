//! # imprecise-store — the durable versioned catalog store
//!
//! IMPrECISE's good-is-good-enough model (ROADMAP item 2) only pays off
//! if a half-finished, budgeted integration is never thrown away. This
//! crate is the persistence tier that guarantees it: a tiered storage
//! layer — the in-memory catalog in `imprecise` (core) in front, this
//! durable backend behind — whose durable form is one **append-only
//! segment file**. Every publish of a document version (an integrate, a
//! refine installment, a feedback application, a compaction) becomes
//! one appended record; recovery is a scan to the last valid record.
//!
//! ## What a publish record carries
//!
//! A version is written in one of two forms.
//!
//! A **full record** carries
//!
//! * the document **name** and **version**,
//! * the [`PxDoc`] arena, bit-exactly (see [`imprecise_pxml::codec`]) —
//!   `save → load → fingerprint` is bitwise-identical,
//! * the open [`RefineState`], if the version is still refinable, so a
//!   fresh process resumes enumeration exactly where this one stopped.
//!
//! A **delta record** carries the name, the version, the offset of the
//! name's previous record (its *base*), and one refine step as
//! [`imprecise_integrate::codec::encode_refine_step`] writes it: the
//! arena slots the step appended or rewrote and the change to each
//! frontier's search state. Its size follows the step, not the
//! document, so a refine installment costs O(delta) on disk as it does
//! in memory. [`Store::append_publish`] writes one exactly when the
//! state is one refine step past the state this store holds as the
//! name's latest version — an in-process lineage check
//! ([`RefineState::step_base`] against the state last appended or
//! loaded under the name, and against its document's arena length),
//! never a guess from sizes or version numbers. Everything else —
//! inserts, integrations, feedback, a compacted or exact result, a
//! state from elsewhere, and the step that would make a chain longer
//! than [`MAX_DELTA_CHAIN`] — is a full record. [`Store::load_publish`]
//! follows the base offsets back to the nearest full record and replays
//! the deltas forward; the result is bit-identical to the versions that
//! were appended.
//!
//! A refine state points into its two *source* documents. Sources are
//! persisted once as content-addressed **blob records** (FNV-1a over
//! the encoded arena) and referenced by offset from every full record
//! that needs them (delta records inherit their base's): the blobs for
//! a publish are always appended *before* the publish record itself,
//! and a delta's base precedes it, so every reference points backward
//! into the already-valid prefix and a torn tail can never orphan a
//! publish. Only sources are deduplicated; every full record writes
//! its document whole.
//!
//! ## Crash safety
//!
//! See [`segment`](self) module docs for the frame format. The policy:
//! an interrupted append leaves a torn tail that [`Store::open`]
//! detects (incomplete frame or payload past EOF) and cleanly ignores —
//! the store reopens at the last fully-written version. Bytes that were
//! fully written but no longer match their checksum are *corruption*,
//! reported as [`StoreError::CorruptRecord`]; recovery never panics.
//!
//! The [`Durability`] knob picks when appends reach stable storage:
//! [`Durability::Always`] issues `fdatasync` on every publish (the
//! honest default the engine uses), [`Durability::OnClose`] defers to
//! [`Store::sync`]/drop for bulk loads.

#![forbid(unsafe_code)]

mod segment;

use imprecise_integrate::codec::{
    apply_refine_step, decode_refine_state, encode_refine_state, encode_refine_step,
};
use imprecise_integrate::RefineState;
use imprecise_pxml::codec::{
    decode_doc, encode_doc, fnv1a, put_str, put_u64, put_u8, CodecError, Reader,
};
use imprecise_pxml::PxDoc;
use segment::Segment;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Payload tag of a catalog publish record.
const KIND_PUBLISH: u8 = 1;
/// Payload tag of a content-addressed source-document blob.
const KIND_BLOB: u8 = 2;
/// Payload tag of a refine-step delta against the name's previous
/// record.
const KIND_DELTA: u8 = 3;

/// Longest run of delta records a full record may anchor; the publish
/// that would extend a chain past it is written whole, so a reopen
/// never replays more than this many deltas.
///
/// Measured on the 4×7 confusable grid (budget 64, installments of 16
/// matchings, 2-vCPU x86-64): each delta adds about 4.4 ms to a reopen,
/// a full record costs 0.1–0.24 s to append, and at 32 deltas the
/// replay adds about as much to a reopen as one full append costs
/// (0.13 s against 0.14 s). The cap keeps a reopen within about twice
/// the reopen of a full record, for one full append per 32 steps.
pub const MAX_DELTA_CHAIN: usize = 32;

/// When appended records reach stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// `fdatasync` after every publish: a publish that returned `Ok`
    /// survives any crash. The engine's default.
    Always,
    /// Sync only on [`Store::sync`] and on drop: a crash may lose the
    /// unsynced suffix (but never tears what an earlier sync covered).
    OnClose,
}

/// A typed store failure. Recovery and appends never panic; every
/// failure mode — I/O, foreign or future file formats, corruption,
/// malformed encodings — surfaces here.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// An operating-system I/O failure.
    Io(std::io::Error),
    /// The file exists but does not begin with the segment magic.
    BadHeader,
    /// The file is a segment of a format generation this build does not
    /// read.
    UnsupportedVersion(u32),
    /// A fully-written record's bytes no longer match its checksum (or
    /// its structure is impossible): the file was damaged after the
    /// fact. Distinct from a torn tail, which is recovered silently.
    CorruptRecord {
        /// Offset of the offending record's frame from file start.
        offset: u64,
        /// What was wrong with it.
        detail: &'static str,
    },
    /// A single record would exceed the frame format's 4 GiB payload
    /// bound.
    RecordTooLarge {
        /// The attempted payload size.
        len: usize,
    },
    /// A checksum-valid record failed to decode — damage that happens
    /// to preserve the checksum, or a logic error upstream.
    Codec(CodecError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::BadHeader => write!(f, "not an imprecise segment file (bad magic)"),
            StoreError::UnsupportedVersion(v) => {
                write!(f, "unsupported segment format version {v}")
            }
            StoreError::CorruptRecord { offset, detail } => {
                write!(f, "corrupt record at offset {offset}: {detail}")
            }
            StoreError::RecordTooLarge { len } => {
                write!(
                    f,
                    "record payload of {len} bytes exceeds the frame format limit"
                )
            }
            StoreError::Codec(e) => write!(f, "undecodable record: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}

/// One recovered catalog entry: the last published version of a name.
#[derive(Debug)]
pub struct RecoveredDoc {
    /// The version number the publish recorded.
    pub version: u64,
    /// The document, bit-identical to the one that was saved.
    pub doc: PxDoc,
    /// The open refinement state, re-attached to its (deduplicated)
    /// source documents — `None` when the version was exact.
    pub refine: Option<RefineState>,
}

/// The refine state in a name's latest record, as far as a delta
/// record extending it needs to know.
#[derive(Debug, Clone, Copy)]
struct Head {
    /// [`RefineState::lineage`] of the state.
    lineage: u64,
    /// Arena length of the record's document.
    arena_len: usize,
    /// Delta records between the record and its full record (0 for a
    /// full record).
    chain: usize,
}

/// Index entry: where a name's latest publish record lives.
#[derive(Debug, Clone, Copy)]
struct PublishEntry {
    version: u64,
    offset: u64,
}

/// The durable tier: an open segment file plus the in-memory offset
/// index rebuilt from it.
///
/// All methods take `&mut self`; the engine serialises access behind
/// its catalog lock (publishes must hit the store in catalog order
/// anyway, so finer-grained locking would buy nothing).
pub struct Store {
    seg: Segment,
    path: PathBuf,
    durability: Durability,
    /// name → latest publish. `BTreeMap` so [`Store::names`] (and thus
    /// recovery order) is deterministic.
    index: BTreeMap<String, PublishEntry>,
    /// content hash → offset of the blob record holding those bytes.
    /// Lookup only — never iterated — so ordering is irrelevant.
    blobs: HashMap<u64, u64>,
    /// content hash → already-decoded source document, so entries that
    /// share a source share one `Arc` after recovery, like they did
    /// before the restart. Lookup only. Entries are never removed.
    decoded: HashMap<u64, Arc<PxDoc>>,
    /// name → the refine state in its latest record, when this process
    /// appended or loaded it: the base a delta record may extend.
    /// Lookup only.
    heads: HashMap<String, Head>,
    /// True when records were appended since the last sync.
    dirty: bool,
}

impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Store")
            .field("path", &self.path)
            .field("durability", &self.durability)
            .field("names", &self.index.len())
            .field("blobs", &self.blobs.len())
            .finish()
    }
}

impl Store {
    /// Open (or create) the store at `path`, scanning the segment to
    /// the last valid record and rebuilding the offset index. A torn
    /// final record — the signature of a crash mid-append — is cleanly
    /// ignored; the store reopens at the last fully-written version.
    pub fn open(path: impl AsRef<Path>, durability: Durability) -> Result<Store, StoreError> {
        let path = path.as_ref().to_path_buf();
        let (mut seg, records) = Segment::open(&path)?;
        let mut index = BTreeMap::new();
        let mut blobs = HashMap::new();
        for rec in records {
            let head = match parse_head(&rec.head) {
                // A name too long for the scanned head: read it all.
                Err(_) if rec.head.len() < rec.len => parse_head(&seg.read_record(rec.offset)?)?,
                other => other?,
            };
            match head {
                // The rest of the payload (arena, refine state, step) is
                // decoded lazily by `load_publish`.
                RecordHead::Publish { name, version } => {
                    index.insert(
                        name,
                        PublishEntry {
                            version,
                            offset: rec.offset,
                        },
                    );
                }
                RecordHead::Blob { hash } => {
                    blobs.insert(hash, rec.offset);
                }
                RecordHead::Unknown => {
                    return Err(StoreError::CorruptRecord {
                        offset: rec.offset,
                        detail: "unknown record kind",
                    })
                }
            }
        }
        Ok(Store {
            seg,
            path,
            durability,
            index,
            blobs,
            decoded: HashMap::new(),
            heads: HashMap::new(),
            dirty: false,
        })
    }

    /// The file this store persists to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The configured durability policy.
    pub fn durability(&self) -> Durability {
        self.durability
    }

    /// Every document name with at least one published version, in
    /// sorted (deterministic) order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.index.keys().map(String::as_str)
    }

    /// Latest published version of `name`, if any.
    pub fn latest_version(&self, name: &str) -> Option<u64> {
        self.index.get(name).map(|e| e.version)
    }

    /// Durably append one published version of `name`.
    ///
    /// When `refine` is exactly one refine step past the state this
    /// store holds as `name`'s latest version (appended or loaded by
    /// this process — see [`RefineState::step_base`]), the version is
    /// written as a delta record against that one; `doc` must then be
    /// the document the step produced. Otherwise it is a full record:
    /// if `refine` is open, its two source documents are persisted first
    /// as content-addressed blobs (skipped when an identical blob is
    /// already on file), then the publish record referencing them — so
    /// by the time the publish is on disk, everything it points at is
    /// inside the file's valid prefix. Under [`Durability::Always`] the
    /// append is `fdatasync`ed before returning.
    pub fn append_publish(
        &mut self,
        name: &str,
        version: u64,
        doc: &PxDoc,
        refine: Option<&RefineState>,
    ) -> Result<(), StoreError> {
        let mut payload = Vec::new();
        let base = refine.and_then(|state| self.delta_base(name, state));
        let chain = base.map_or(0, |(_, chain)| chain + 1);
        let base = base.map(|(offset, _)| offset);
        put_u8(
            &mut payload,
            if base.is_some() {
                KIND_DELTA
            } else {
                KIND_PUBLISH
            },
        );
        put_str(&mut payload, name);
        put_u64(&mut payload, version);
        match (base, refine) {
            (Some(base_offset), Some(state)) => {
                put_u64(&mut payload, base_offset);
                let written = encode_refine_step(doc, state, &mut payload);
                debug_assert!(written, "a delta base implies a step on record");
            }
            _ => {
                encode_doc(doc, &mut payload);
                match refine {
                    None => put_u8(&mut payload, 0),
                    Some(state) => {
                        put_u8(&mut payload, 1);
                        let (src_a, src_b) = state.sources();
                        for src in [src_a, src_b] {
                            let (hash, offset) = self.ensure_blob(src)?;
                            put_u64(&mut payload, hash);
                            put_u64(&mut payload, offset);
                        }
                        encode_refine_state(state, &mut payload);
                    }
                }
            }
        }
        let offset = self.seg.append(&payload)?;
        self.dirty = true;
        if self.durability == Durability::Always {
            self.sync()?;
        }
        self.index
            .insert(name.to_string(), PublishEntry { version, offset });
        self.set_head(name, doc, refine, chain);
        #[cfg(feature = "strict-invariants")]
        if base.is_some() {
            self.verify_replay(name, doc, refine);
        }
        Ok(())
    }

    /// When `state` is exactly one refine step past the state in
    /// `name`'s latest record, and that record's chain may grow by one
    /// more delta: the record's offset — the base a delta record
    /// extends — and the number of deltas it already sits on. `None`
    /// when the version must be written whole.
    fn delta_base(&self, name: &str, state: &RefineState) -> Option<(u64, usize)> {
        let head = self.heads.get(name)?;
        let step = state.step_base()?;
        if step.lineage != head.lineage
            || step.arena_len != head.arena_len
            || head.chain >= MAX_DELTA_CHAIN
        {
            return None;
        }
        self.index.get(name).map(|e| (e.offset, head.chain))
    }

    /// Record `(doc, refine)` as `name`'s latest record, `chain` deltas
    /// past its full record.
    fn set_head(&mut self, name: &str, doc: &PxDoc, refine: Option<&RefineState>, chain: usize) {
        match refine {
            Some(state) => {
                self.heads.insert(
                    name.to_string(),
                    Head {
                        lineage: state.lineage(),
                        arena_len: doc.arena_len(),
                        chain,
                    },
                );
            }
            None => {
                self.heads.remove(name);
            }
        }
    }

    /// Append `doc` as a content-addressed blob unless an identical one
    /// is already on file; returns its content hash and record offset.
    fn ensure_blob(&mut self, doc: &Arc<PxDoc>) -> Result<(u64, u64), StoreError> {
        let mut bytes = Vec::new();
        encode_doc(doc, &mut bytes);
        let hash = fnv1a(&bytes);
        if let Some(&offset) = self.blobs.get(&hash) {
            return Ok((hash, offset));
        }
        let mut payload = Vec::with_capacity(9 + bytes.len());
        put_u8(&mut payload, KIND_BLOB);
        put_u64(&mut payload, hash);
        payload.extend_from_slice(&bytes);
        let offset = self.seg.append(&payload)?;
        self.dirty = true;
        self.blobs.insert(hash, offset);
        // Newly written sources are usually about to be loaded again by
        // a recovery or shared by the next publish; cache the decoded
        // form under the same Arc the caller holds.
        self.decoded.insert(hash, Arc::clone(doc));
        Ok((hash, offset))
    }

    /// Load the latest published version of `name`, or `None` if the
    /// store has never seen it. The returned document is bit-identical
    /// to the one saved; an open refine state comes back attached to
    /// its sources and resumes enumeration bit-for-bit.
    ///
    /// A version written as a delta is rebuilt by replaying its chain
    /// from the nearest full record. The returned state becomes the
    /// name's delta base: refining it and appending the result writes a
    /// delta record.
    pub fn load_publish(&mut self, name: &str) -> Result<Option<RecoveredDoc>, StoreError> {
        let Some((recovered, chain)) = self.replay(name)? else {
            return Ok(None);
        };
        #[cfg(feature = "strict-invariants")]
        imprecise_integrate::verify::shadow_check_state(
            &recovered.doc,
            recovered.refine.as_ref(),
            "store recovery",
        );
        self.set_head(name, &recovered.doc, recovered.refine.as_ref(), chain);
        Ok(Some(recovered))
    }

    /// Rebuild `name`'s latest version from the segment: walk the delta
    /// chain back to its full record, decode that, and apply the deltas
    /// oldest first. Also returns how many deltas were applied.
    fn replay(&mut self, name: &str) -> Result<Option<(RecoveredDoc, usize)>, StoreError> {
        let Some(entry) = self.index.get(name).copied() else {
            return Ok(None);
        };
        // Newest first: (offset, payload, where the step bytes start).
        let mut deltas: Vec<(u64, Vec<u8>, usize)> = Vec::new();
        let mut offset = entry.offset;
        let (mut doc, mut refine) = loop {
            let payload = self.seg.read_record(offset)?;
            let mut r = Reader::new(&payload);
            let kind = r.take_u8("record kind")?;
            let stored_name = r.take_str("document name")?;
            let version = r.take_u64("document version")?;
            // The chain's head is the indexed record; its bases are
            // earlier records of the same name.
            let head = deltas.is_empty();
            if !matches!(kind, KIND_PUBLISH | KIND_DELTA)
                || stored_name != name
                || (head && version != entry.version)
            {
                return Err(StoreError::CorruptRecord {
                    offset,
                    detail: "publish record does not match the index",
                });
            }
            if kind == KIND_DELTA {
                let base = r.take_u64("delta base offset")?;
                if base >= offset {
                    return Err(StoreError::CorruptRecord {
                        offset,
                        detail: "delta base does not precede the delta",
                    });
                }
                let at = r.offset();
                deltas.push((offset, payload, at));
                offset = base;
                continue;
            }
            let doc = decode_doc(&mut r)?;
            let refine = match r.take_u8("refine-state tag")? {
                0 => None,
                1 => {
                    let hash_a = r.take_u64("source-a hash")?;
                    let offset_a = r.take_u64("source-a offset")?;
                    let hash_b = r.take_u64("source-b hash")?;
                    let offset_b = r.take_u64("source-b offset")?;
                    let src_a = self.load_blob(hash_a, offset_a)?;
                    let src_b = self.load_blob(hash_b, offset_b)?;
                    Some(decode_refine_state(
                        &mut r,
                        (src_a, src_b),
                        doc.arena_len(),
                    )?)
                }
                _ => return Err(r.err("refine-state tag").into()),
            };
            r.finish()?;
            break (doc, refine);
        };
        let chain = deltas.len();
        for (offset, payload, at) in deltas.into_iter().rev() {
            let Some(state) = refine else {
                return Err(StoreError::CorruptRecord {
                    offset,
                    detail: "delta record extends a version with no refine state",
                });
            };
            let mut r = Reader::new(&payload[at..]);
            refine = Some(apply_refine_step(&mut r, &mut doc, state)?);
            r.finish()?;
        }
        Ok(Some((
            RecoveredDoc {
                version: entry.version,
                doc,
                refine,
            },
            chain,
        )))
    }

    /// Strict-invariants check of a delta append: replay `name` from the
    /// segment and compare it byte for byte with the full encodings of
    /// what was appended.
    #[cfg(feature = "strict-invariants")]
    fn verify_replay(&mut self, name: &str, doc: &PxDoc, refine: Option<&RefineState>) {
        let full = |doc: &PxDoc, refine: Option<&RefineState>| {
            let mut bytes = Vec::new();
            encode_doc(doc, &mut bytes);
            if let Some(state) = refine {
                encode_refine_state(state, &mut bytes);
            }
            bytes
        };
        let detail = match self.replay(name) {
            Ok(Some((rec, _))) if full(&rec.doc, rec.refine.as_ref()) == full(doc, refine) => {
                return
            }
            Ok(Some(_)) => "different bytes".to_string(),
            other => format!("{other:?}"),
        };
        // lint:allow(panic-in-lib, strict-invariants shadow checks exist to abort on corruption)
        panic!("strict-invariants: delta append of {name} does not replay: {detail}");
    }

    /// Load (or fetch from the decode cache) the source blob at
    /// `offset`, verifying both the stored and the recomputed content
    /// hash against `hash`.
    fn load_blob(&mut self, hash: u64, offset: u64) -> Result<Arc<PxDoc>, StoreError> {
        if let Some(doc) = self.decoded.get(&hash) {
            return Ok(Arc::clone(doc));
        }
        let payload = self.seg.read_record(offset)?;
        let mut r = Reader::new(&payload);
        match r.take_u8("record kind")? {
            KIND_BLOB => {}
            _ => {
                return Err(StoreError::CorruptRecord {
                    offset,
                    detail: "blob offset does not hold a blob record",
                })
            }
        }
        let stored_hash = r.take_u64("blob content hash")?;
        if stored_hash != hash || fnv1a(&payload[9..]) != hash {
            return Err(StoreError::CorruptRecord {
                offset,
                detail: "blob content hash mismatch",
            });
        }
        let doc = Arc::new(decode_doc(&mut r)?);
        r.finish()?;
        self.decoded.insert(hash, Arc::clone(&doc));
        Ok(doc)
    }

    /// Flush every appended record to stable storage. A no-op when
    /// nothing was appended since the last sync.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        if self.dirty {
            self.seg.sync()?;
            self.dirty = false;
        }
        Ok(())
    }
}

/// The indexed head of a record: what [`Store::open`] keeps of it.
enum RecordHead {
    /// A full or delta publish record.
    Publish { name: String, version: u64 },
    /// A content-addressed source blob.
    Blob { hash: u64 },
    /// A record kind this build does not know.
    Unknown,
}

/// Parse a record head from the first bytes of its payload.
fn parse_head(bytes: &[u8]) -> Result<RecordHead, CodecError> {
    let mut r = Reader::new(bytes);
    Ok(match r.take_u8("record kind")? {
        KIND_PUBLISH | KIND_DELTA => RecordHead::Publish {
            name: r.take_str("document name")?,
            version: r.take_u64("document version")?,
        },
        KIND_BLOB => RecordHead::Blob {
            hash: r.take_u64("blob content hash")?,
        },
        _ => RecordHead::Unknown,
    })
}

impl Drop for Store {
    /// Best-effort final sync for [`Durability::OnClose`] stores. Drop
    /// cannot report failure; callers that must observe sync errors
    /// call [`Store::sync`] explicitly before dropping.
    fn drop(&mut self) {
        let _ = self.sync();
    }
}
