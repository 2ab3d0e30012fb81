//! Deterministic binary codec for [`PxDoc`] arenas, plus the low-level
//! primitives the rest of the workspace's persistence codecs build on.
//!
//! The encoding is designed for the durable store (`imprecise-store`):
//!
//! * **Bit-exact.** Floats are written as their IEEE-754 bit patterns
//!   ([`f64::to_bits`]), so `encode → decode → fingerprint` is bitwise
//!   identical to the in-memory document — no shortest-round-trip
//!   formatting, no parsing, no drift.
//! * **Arena-exact.** The arena is serialised slot by slot, *including
//!   detached slots* and the parent links of every node. Persisted
//!   enumeration frontiers hold [`PxNodeId`]s into the arena, so node
//!   ids must survive a round-trip unchanged; re-building the tree
//!   through the public construction API would renumber them.
//! * **Deterministic.** Equal documents encode to equal bytes: every
//!   integer is fixed-width little-endian and every collection is
//!   written in its in-memory (deterministic) order. There is no
//!   padding, no map iteration, no platform dependence.
//!
//! The format is *not* self-describing — framing, versioning and
//! checksums belong to the segment layer in `imprecise-store`. Decoders
//! here defend against truncated or malformed input with a typed
//! [`CodecError`]; they never panic.

use crate::node::{Arena, PxDoc, PxNodeData, PxNodeId, PxNodeKind, NO_WEIGHT};
use imprecise_xmlkit::Attr;
use std::fmt;

/// A malformed or truncated encoding was handed to a decoder.
///
/// Carries the byte offset the decoder had reached and a static
/// description of what it expected; the segment layer wraps this in its
/// own error with the record's location on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodecError {
    /// Byte offset into the buffer at which decoding failed.
    pub offset: usize,
    /// What the decoder expected at that offset.
    pub expected: &'static str,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "malformed encoding at byte {}: expected {}",
            self.offset, self.expected
        )
    }
}

impl std::error::Error for CodecError {}

/// A bounds-checked cursor over an encoded buffer.
///
/// Every `take_*` method fails with a typed [`CodecError`] instead of
/// panicking when the buffer is exhausted — torn records surface as
/// errors the store can report, not as process aborts.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// The typed error for a failure at the current offset.
    pub fn err(&self, expected: &'static str) -> CodecError {
        CodecError {
            offset: self.pos,
            expected,
        }
    }

    fn take(&mut self, n: usize, expected: &'static str) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError {
            offset: self.pos,
            expected,
        })?;
        if end > self.buf.len() {
            return Err(self.err(expected));
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// One byte.
    pub fn take_u8(&mut self, expected: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, expected)?[0])
    }

    /// A little-endian `u32`.
    pub fn take_u32(&mut self, expected: &'static str) -> Result<u32, CodecError> {
        let b = self.take(4, expected)?;
        // lint:allow(unwrap-in-lib, take() returned exactly 4 bytes)
        Ok(u32::from_le_bytes(b.try_into().unwrap()))
    }

    /// A little-endian `u64`.
    pub fn take_u64(&mut self, expected: &'static str) -> Result<u64, CodecError> {
        let b = self.take(8, expected)?;
        // lint:allow(unwrap-in-lib, take() returned exactly 8 bytes)
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }

    /// A `u64` that must fit in `usize` (collection lengths, indices).
    pub fn take_len(&mut self, expected: &'static str) -> Result<usize, CodecError> {
        let v = self.take_u64(expected)?;
        usize::try_from(v).map_err(|_| self.err(expected))
    }

    /// An `f64` stored as its exact bit pattern.
    pub fn take_f64(&mut self, expected: &'static str) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.take_u64(expected)?))
    }

    /// A length-prefixed UTF-8 string.
    pub fn take_str(&mut self, expected: &'static str) -> Result<String, CodecError> {
        let len = self.take_len(expected)?;
        let at = self.pos;
        let bytes = self.take(len, expected)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError {
            offset: at,
            expected,
        })
    }

    /// Fail unless the whole buffer was consumed — decoders call this
    /// last so trailing garbage is detected rather than ignored.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CodecError {
                offset: self.pos,
                expected: "end of record",
            })
        }
    }
}

/// Append one byte.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `usize` as a `u64` (the on-disk width is platform-free).
pub fn put_len(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

/// Append an `f64` as its exact IEEE-754 bit pattern.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_len(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

/// Append a [`PxNodeId`] (its raw `u32` arena index).
pub fn put_node_id(out: &mut Vec<u8>, id: PxNodeId) {
    put_u32(out, id.index() as u32);
}

/// Read a [`PxNodeId`] written by [`put_node_id`].
///
/// The id is *not* validated against any arena here — callers that
/// decode ids referring into a separately decoded document must check
/// them against that document's [`PxDoc::arena_len`].
pub fn take_node_id(r: &mut Reader<'_>, expected: &'static str) -> Result<PxNodeId, CodecError> {
    Ok(PxNodeId(r.take_u32(expected)?))
}

/// FNV-1a over a byte slice: the workspace's standard content hash,
/// used by the store for record checksums and blob deduplication.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

/// [`fnv1a`] over a byte stream fed in pieces: `update` with every
/// piece in order, then `finish`, gives the digest of their
/// concatenation. Lets the store verify a record's checksum while
/// reading it through a bounded buffer.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// The digest state of the empty stream.
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Fold the next piece of the stream in.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

// Node-kind tags of the arena encoding (one byte per node).
const KIND_PROB: u8 = 0;
const KIND_POSS: u8 = 1;
const KIND_ELEM: u8 = 2;
const KIND_TEXT: u8 = 3;

/// Serialise the document's arena exactly: every slot (detached ones
/// included), each node's kind, parent link and child list, and the
/// root id. Appends to `out`.
pub fn encode_doc(doc: &PxDoc, out: &mut Vec<u8>) {
    put_len(out, doc.nodes.len());
    put_u32(out, doc.root.index() as u32);
    for (nodes, weights) in doc.nodes.slices_from(0) {
        for (node, &weight) in nodes.iter().zip(weights) {
            encode_node(node, weight, out);
        }
    }
}

/// Serialise what changed in `doc` since it was `base_len` slots long:
/// the pre-existing nodes listed in `rewritten` (each below
/// `base_len`), then every slot appended since. Appends to `out`.
///
/// Arena edits only ever append slots or rewrite existing ones in
/// place, so applying these bytes with [`apply_doc_delta`] to the
/// `base_len`-slot document reproduces `doc` slot for slot — the same
/// [`encode_doc`] bytes — at a cost proportional to the change, not to
/// the document. Naming a node in `rewritten` that did not change is
/// harmless; leaving out one that did is the caller's bug.
pub fn encode_doc_delta(doc: &PxDoc, base_len: usize, rewritten: &[PxNodeId], out: &mut Vec<u8>) {
    put_len(out, base_len);
    put_len(out, doc.nodes.len());
    put_len(out, rewritten.len());
    for &id in rewritten {
        put_node_id(out, id);
        encode_node(doc.nodes.get(id.index()), doc.nodes.weight(id.index()), out);
    }
    for (nodes, weights) in doc.nodes.slices_from(base_len) {
        for (node, &weight) in nodes.iter().zip(weights) {
            encode_node(node, weight, out);
        }
    }
}

/// Apply [`encode_doc_delta`] bytes at the reader's position to the
/// document they were taken against: overwrite the rewritten slots,
/// then append the new ones.
///
/// The recorded base length must equal `doc`'s arena length, every
/// rewritten id must lie below it, and every id a node holds must lie
/// within the grown arena; anything else is a typed [`CodecError`]. On
/// error `doc` may be partly updated and must be discarded.
pub fn apply_doc_delta(doc: &mut PxDoc, r: &mut Reader<'_>) -> Result<(), CodecError> {
    let base_len = r.take_len("delta base arena length")?;
    if base_len != doc.nodes.len() {
        return Err(r.err("delta base arena length matching the document"));
    }
    let len = r.take_len("delta arena length")?;
    if len < base_len || len > u32::MAX as usize {
        return Err(r.err("delta arena length within id space"));
    }
    let n_rewritten = r.take_len("rewritten node count")?;
    let root = doc.root;
    let mut detached = false;
    for _ in 0..n_rewritten {
        let id = take_node_id(r, "rewritten node id")?;
        if id.index() >= base_len {
            return Err(r.err("rewritten node within the base arena"));
        }
        let (node, weight) = decode_node(r, len)?;
        detached |= id != root && node.parent.is_none();
        doc.nodes_mut().set(id.index(), node, weight);
    }
    for _ in base_len..len {
        let (node, weight) = decode_node(r, len)?;
        detached |= node.parent.is_none();
        doc.nodes_mut().push(node, weight);
    }
    doc.maybe_detached |= detached;
    Ok(())
}

/// One arena slot: kind tag and payload (a possibility's payload is its
/// `weight`), parent link, child list.
fn encode_node(node: &PxNodeData, weight: f64, out: &mut Vec<u8>) {
    match &node.kind {
        PxNodeKind::Prob => put_u8(out, KIND_PROB),
        PxNodeKind::Poss => {
            put_u8(out, KIND_POSS);
            put_f64(out, weight);
        }
        PxNodeKind::Elem { tag, attrs } => {
            put_u8(out, KIND_ELEM);
            put_str(out, tag);
            put_len(out, attrs.len());
            for attr in attrs {
                put_str(out, &attr.name);
                put_str(out, &attr.value);
            }
        }
        PxNodeKind::Text(text) => {
            put_u8(out, KIND_TEXT);
            put_str(out, text);
        }
    }
    match node.parent {
        None => put_u8(out, 0),
        Some(p) => {
            put_u8(out, 1);
            put_u32(out, p.index() as u32);
        }
    }
    put_len(out, node.children.len());
    for &child in &node.children {
        put_u32(out, child.index() as u32);
    }
}

/// Decode one slot written by [`encode_node`] with its weight, checking
/// every id it holds against an arena of `len` slots.
fn decode_node(r: &mut Reader<'_>, len: usize) -> Result<(PxNodeData, f64), CodecError> {
    let check_id = |r: &Reader<'_>, raw: u32| -> Result<PxNodeId, CodecError> {
        if (raw as usize) < len {
            Ok(PxNodeId(raw))
        } else {
            Err(r.err("node id within arena"))
        }
    };
    let mut weight = NO_WEIGHT;
    let kind = match r.take_u8("node kind tag")? {
        KIND_PROB => PxNodeKind::Prob,
        KIND_POSS => {
            weight = r.take_f64("possibility probability")?;
            PxNodeKind::Poss
        }
        KIND_ELEM => {
            let tag = r.take_str("element tag")?;
            let n_attrs = r.take_len("attribute count")?;
            let mut attrs = Vec::with_capacity(n_attrs.min(1 << 16));
            for _ in 0..n_attrs {
                attrs.push(Attr {
                    name: r.take_str("attribute name")?,
                    value: r.take_str("attribute value")?,
                });
            }
            PxNodeKind::Elem { tag, attrs }
        }
        KIND_TEXT => PxNodeKind::Text(r.take_str("text content")?),
        _ => return Err(r.err("node kind tag")),
    };
    let parent = match r.take_u8("parent tag")? {
        0 => None,
        1 => {
            let raw = r.take_u32("parent id")?;
            Some(check_id(r, raw)?)
        }
        _ => return Err(r.err("parent tag")),
    };
    let n_children = r.take_len("child count")?;
    let mut children = Vec::with_capacity(n_children.min(1 << 20));
    for _ in 0..n_children {
        let raw = r.take_u32("child id")?;
        children.push(check_id(r, raw)?);
    }
    let node = PxNodeData {
        kind,
        parent,
        children,
    };
    Ok((node, weight))
}

/// Rebuild a document from [`encode_doc`] bytes at the reader's
/// position.
///
/// The arena is reproduced slot for slot — ids, detached nodes and all —
/// so `decode_doc(encode_doc(d)).fingerprint() == d.fingerprint()` and
/// any [`PxNodeId`] valid for `d` is valid for the copy. Every id is
/// bounds-checked against the declared arena length; structural
/// invariants beyond that (tree-ness, probability sums) are the deep
/// verifier's business, not the codec's.
pub fn decode_doc(r: &mut Reader<'_>) -> Result<PxDoc, CodecError> {
    let len = r.take_len("arena length")?;
    // A u32 id space bounds the arena; also guards the preallocation
    // below against absurd lengths from corrupt input.
    if len > u32::MAX as usize {
        return Err(r.err("arena length within id space"));
    }
    let root_raw = r.take_u32("root id")?;
    if (root_raw as usize) >= len {
        return Err(r.err("root id within arena"));
    }
    let nodes = (0..len)
        .map(|_| decode_node(r, len))
        .collect::<Result<Arena, CodecError>>()?;
    // A persisted document may legitimately carry detached slots (the
    // producer is not required to compact before encoding); a cheap
    // parent-link scan decides whether the decoded arena is fully live,
    // so its `arena_stats` stay O(1) when it is. Detachment always
    // leaves a `None` parent on the subtree root, so the scan is exact.
    let maybe_detached = (0..len).any(|i| i != root_raw as usize && nodes.get(i).parent.is_none());
    Ok(PxDoc {
        nodes,
        root: PxNodeId(root_raw),
        maybe_detached,
        derived: Default::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> PxDoc {
        let mut px = PxDoc::new();
        let root = px.root();
        let w1 = px.add_poss(root, 0.25);
        let ab = px.add_elem(w1, "addressbook");
        let p = px.add_elem(ab, "person");
        px.add_text_elem(p, "nm", "John");
        let w2 = px.add_poss(root, 0.75);
        px.add_elem(w2, "addressbook");
        px
    }

    fn roundtrip(doc: &PxDoc) -> PxDoc {
        let mut bytes = Vec::new();
        encode_doc(doc, &mut bytes);
        let mut r = Reader::new(&bytes);
        let decoded = decode_doc(&mut r).expect("decodes");
        r.finish().expect("consumed exactly");
        decoded
    }

    #[test]
    fn roundtrip_is_bitwise_identical() {
        let doc = sample_doc();
        let decoded = roundtrip(&doc);
        assert_eq!(doc.fingerprint(), decoded.fingerprint());
        assert_eq!(doc.arena_len(), decoded.arena_len());
        assert_eq!(doc.root(), decoded.root());
    }

    #[test]
    fn roundtrip_preserves_detached_slots_and_ids() {
        let mut doc = sample_doc();
        // Detach a subtree: the slots stay allocated (compaction is a
        // separate, explicit step), and the codec must keep them so
        // persisted node ids stay valid.
        let root = doc.root();
        let first_poss = doc.children(root)[0];
        doc.reset_children(root, vec![doc.children(root)[1]]);
        let total_before = doc.arena_len();
        let decoded = roundtrip(&doc);
        assert_eq!(decoded.arena_len(), total_before);
        assert_eq!(doc.fingerprint(), decoded.fingerprint());
        // The detached possibility's payload survived under its old id.
        assert_eq!(doc.kind(first_poss), decoded.kind(first_poss));
    }

    #[test]
    fn probabilities_survive_bit_exactly() {
        let mut px = PxDoc::new();
        let root = px.root();
        // A weight that has no short decimal representation.
        let w = 1.0f64 / 3.0 + 1e-17;
        px.add_poss(root, w);
        px.add_poss(root, 1.0 - w);
        let decoded = roundtrip(&px);
        let child = decoded.children(decoded.root())[0];
        assert_eq!(
            decoded.poss_prob(child).map(f64::to_bits),
            Some(w.to_bits())
        );
    }

    #[test]
    fn truncated_input_is_a_typed_error() {
        let doc = sample_doc();
        let mut bytes = Vec::new();
        encode_doc(&doc, &mut bytes);
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            let result = decode_doc(&mut r).map(|_| ()).and_then(|()| r.finish());
            assert!(result.is_err(), "truncation at {cut} must not decode");
        }
    }

    #[test]
    fn out_of_range_ids_are_rejected() {
        let doc = sample_doc();
        let mut bytes = Vec::new();
        encode_doc(&doc, &mut bytes);
        // Corrupt the root id (offset 8..12) to point past the arena.
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut r = Reader::new(&bytes);
        assert!(decode_doc(&mut r).is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected_by_finish() {
        let doc = sample_doc();
        let mut bytes = Vec::new();
        encode_doc(&doc, &mut bytes);
        bytes.push(0xFF);
        let mut r = Reader::new(&bytes);
        let result = decode_doc(&mut r).map(|_| ()).and_then(|()| r.finish());
        assert_eq!(
            result,
            Err(CodecError {
                offset: bytes.len() - 1,
                expected: "end of record"
            })
        );
    }

    /// `sample_doc` grown the way a refine step grows a document: new
    /// possibilities appended under the root choice point, every
    /// sibling re-weighted, one old possibility dropped. Returns the
    /// grown document and the pre-existing nodes the edit touched.
    fn grown(base: &PxDoc) -> (PxDoc, Vec<PxNodeId>) {
        let mut doc = base.clone();
        let root = doc.root();
        let old = doc.children(root).to_vec();
        let w3 = doc.add_poss(root, 0.5);
        let ab = doc.add_elem(w3, "addressbook");
        doc.add_text_elem(ab, "nm", "Jon");
        doc.reset_children(root, vec![old[1], w3]);
        doc.set_poss_prob(old[1], 0.5);
        let mut rewritten = vec![root];
        rewritten.extend(old);
        (doc, rewritten)
    }

    #[test]
    fn doc_delta_replays_to_identical_bytes() {
        let base = sample_doc();
        let (grown, rewritten) = grown(&base);
        let mut delta = Vec::new();
        encode_doc_delta(&grown, base.arena_len(), &rewritten, &mut delta);
        let mut replayed = base.clone();
        let mut r = Reader::new(&delta);
        apply_doc_delta(&mut replayed, &mut r).expect("applies");
        r.finish().expect("consumed exactly");
        let (mut want, mut got) = (Vec::new(), Vec::new());
        encode_doc(&grown, &mut want);
        encode_doc(&replayed, &mut got);
        assert_eq!(want, got);
        assert_eq!(grown.fingerprint(), replayed.fingerprint());
        assert_eq!(grown.arena_stats(), replayed.arena_stats());
    }

    #[test]
    fn doc_delta_rejects_a_foreign_base_and_truncation() {
        let base = sample_doc();
        let (grown, rewritten) = grown(&base);
        let mut delta = Vec::new();
        encode_doc_delta(&grown, base.arena_len(), &rewritten, &mut delta);
        // Against the grown document the recorded base length is wrong.
        let mut wrong = grown.clone();
        assert!(apply_doc_delta(&mut wrong, &mut Reader::new(&delta)).is_err());
        for cut in 0..delta.len() {
            let mut copy = base.clone();
            let mut r = Reader::new(&delta[..cut]);
            let result = apply_doc_delta(&mut copy, &mut r).and_then(|()| r.finish());
            assert!(result.is_err(), "truncation at {cut} must not apply");
        }
    }

    #[test]
    fn equal_documents_encode_to_equal_bytes() {
        let a = sample_doc();
        let b = sample_doc();
        let (mut ba, mut bb) = (Vec::new(), Vec::new());
        encode_doc(&a, &mut ba);
        encode_doc(&b, &mut bb);
        assert_eq!(ba, bb);
    }
}
