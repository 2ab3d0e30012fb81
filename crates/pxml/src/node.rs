//! Arena representation of probabilistic XML trees.

use imprecise_xmlkit::{Attr, NodeId as XmlNodeId, NodeKind as XmlNodeKind, XmlDoc};
use std::any::Any;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Handle to a node inside a [`PxDoc`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PxNodeId(pub(crate) u32);

impl PxNodeId {
    /// Raw arena index, for dense side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Payload of a probabilistic XML node (see the crate docs for the model).
#[derive(Debug, Clone, PartialEq)]
pub enum PxNodeKind {
    /// A probability node (`▽`): a choice point whose children are
    /// mutually exclusive possibility nodes.
    Prob,
    /// A possibility node (`○`). Its probability of being the chosen
    /// alternative of its parent probability node lives in the
    /// document's weight column: read it with [`PxDoc::poss_prob`].
    Poss,
    /// A regular element node.
    Elem {
        /// Tag name.
        tag: String,
        /// Attributes in document order.
        attrs: Vec<Attr>,
    },
    /// A regular text node.
    Text(String),
}

impl PxNodeKind {
    /// True for regular XML nodes (element or text).
    #[inline]
    pub fn is_regular(&self) -> bool {
        matches!(self, PxNodeKind::Elem { .. } | PxNodeKind::Text(_))
    }
}

#[derive(Debug, Clone)]
pub(crate) struct PxNodeData {
    pub(crate) kind: PxNodeKind,
    pub(crate) parent: Option<PxNodeId>,
    pub(crate) children: Vec<PxNodeId>,
}

impl PxNodeData {
    fn new(kind: PxNodeKind, parent: Option<PxNodeId>) -> Self {
        PxNodeData {
            kind,
            parent,
            children: Vec::new(),
        }
    }
}

/// log2 of [`PxDoc::CHUNK`].
const CHUNK_BITS: u32 = 10;

/// What the weight column holds for every slot that is not a
/// possibility (positive zero, checked bit for bit by
/// [`PxDoc::deep_check`]).
pub(crate) const NO_WEIGHT: f64 = 0.0;

/// One chunk of arena slots: [`PxDoc::CHUNK`] of them, except in the
/// last chunk, which holds the rest.
pub(crate) type Chunk = Arc<Vec<PxNodeData>>;

/// The slots of a [`PxDoc`]: fixed-size copy-on-write chunks, plus the
/// possibility weights in one flat column beside them.
///
/// Cloning copies the chunk pointers and the column, not the nodes. A
/// write to slot `i` copies chunk `i / CHUNK` first if another clone
/// still shares it ([`Arc::make_mut`]), so two versions of a document
/// share every chunk neither of them changed, and dropping one frees
/// only the chunks it did not share. Weights are a column of their own
/// because a refine step renormalises the possibilities of every
/// refined choice point, which lie all over the arena: kept in the
/// nodes, they would make each step copy nearly every chunk.
#[derive(Debug, Clone)]
pub(crate) struct Arena {
    /// Every chunk but the last holds exactly [`PxDoc::CHUNK`] slots;
    /// the last holds between 1 and `CHUNK`.
    chunks: Vec<Chunk>,
    /// One entry per slot: a possibility's weight, [`NO_WEIGHT`] for
    /// every other kind.
    weights: Vec<f64>,
}

impl Arena {
    fn empty() -> Self {
        Arena {
            chunks: Vec::new(),
            weights: Vec::new(),
        }
    }

    /// Number of slots.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.weights.len()
    }

    /// The chunks, for the layout checks and sharing counts.
    pub(crate) fn chunks(&self) -> &[Chunk] {
        &self.chunks
    }

    /// The weight column.
    pub(crate) fn weights(&self) -> &[f64] {
        &self.weights
    }

    #[inline]
    pub(crate) fn get(&self, i: usize) -> &PxNodeData {
        &self.chunks[i >> CHUNK_BITS][i & (PxDoc::CHUNK - 1)]
    }

    /// Slot `i` for writing, copying its chunk first if it is shared.
    #[inline]
    pub(crate) fn get_mut(&mut self, i: usize) -> &mut PxNodeData {
        &mut Arc::make_mut(&mut self.chunks[i >> CHUNK_BITS])[i & (PxDoc::CHUNK - 1)]
    }

    #[inline]
    pub(crate) fn weight(&self, i: usize) -> f64 {
        self.weights[i]
    }

    #[inline]
    pub(crate) fn set_weight(&mut self, i: usize, w: f64) {
        self.weights[i] = w;
    }

    /// Overwrite slot `i`.
    pub(crate) fn set(&mut self, i: usize, node: PxNodeData, weight: f64) {
        *self.get_mut(i) = node;
        self.weights[i] = weight;
    }

    /// Set a node's parent link, touching its chunk only if it changes.
    fn set_parent(&mut self, i: usize, parent: Option<PxNodeId>) {
        if self.get(i).parent != parent {
            self.get_mut(i).parent = parent;
        }
    }

    /// Append a slot to the last chunk, or to a new one when it is full.
    pub(crate) fn push(&mut self, node: PxNodeData, weight: f64) {
        match self.chunks.last_mut() {
            Some(last) if last.len() < PxDoc::CHUNK => {
                let last = Arc::make_mut(last);
                if last.len() == last.capacity() {
                    // Double, but never past a chunk: small documents
                    // stay small, and a full chunk has no slack.
                    let room = PxDoc::CHUNK - last.len();
                    last.reserve_exact(last.len().max(4).min(room));
                }
                last.push(node);
            }
            _ => self.chunks.push(Arc::new(vec![node])),
        }
        self.weights.push(weight);
    }

    /// Drop every slot from `len` on.
    pub(crate) fn truncate(&mut self, len: usize) {
        if len >= self.len() {
            return;
        }
        self.chunks.truncate(len.div_ceil(PxDoc::CHUNK));
        let keep = len - (self.chunks.len().saturating_sub(1) << CHUNK_BITS);
        if let Some(last) = self.chunks.last_mut() {
            if last.len() > keep {
                match Arc::get_mut(last) {
                    Some(last) => last.truncate(keep),
                    // Shared: copy only the slots that stay.
                    None => *last = Arc::new(last[..keep].to_vec()),
                }
            }
        }
        self.weights.truncate(len);
    }

    /// The slots from `start` on, a chunk at a time: each chunk's nodes
    /// (the first chunk's from `start` on) with their weights. Callers
    /// loop over each pair of slices, which compiles to a plain indexed
    /// loop; a flattened per-slot iterator did not, and scanned slower.
    pub(crate) fn slices_from(
        &self,
        start: usize,
    ) -> impl Iterator<Item = (&[PxNodeData], &[f64])> + '_ {
        let first = start >> CHUNK_BITS;
        let weights = self.weights[first << CHUNK_BITS..].chunks(PxDoc::CHUNK);
        self.chunks[first..]
            .iter()
            .zip(weights)
            .enumerate()
            .map(move |(k, (nodes, weights))| {
                let from = if k == 0 {
                    start & (PxDoc::CHUNK - 1)
                } else {
                    0
                };
                (&nodes[from..], &weights[from..])
            })
    }

    /// Every slot with its weight, by value: the chunks no other clone
    /// shares are moved out, the others copied.
    pub(crate) fn into_slots(self) -> impl Iterator<Item = (PxNodeData, f64)> {
        self.chunks
            .into_iter()
            .flat_map(|c| Arc::try_unwrap(c).unwrap_or_else(|c| (*c).clone()))
            .zip(self.weights)
    }
}

impl FromIterator<(PxNodeData, f64)> for Arena {
    fn from_iter<I: IntoIterator<Item = (PxNodeData, f64)>>(slots: I) -> Self {
        let mut arena = Arena::empty();
        for (node, weight) in slots {
            arena.push(node, weight);
        }
        arena
    }
}

/// A probabilistic XML document.
///
/// The root is always a probability node; each of its possibilities holds
/// one root element of a possible world.
///
/// Nodes live in an arena of copy-on-write chunks of [`PxDoc::CHUNK`]
/// slots, and the possibility weights in one flat column beside it. A
/// clone shares every chunk with its original and copies only the chunk
/// pointers and the weights (8 bytes per slot); a later write copies
/// just the chunk it lands in. So the versions of a document that a
/// refine loop publishes one after another share what they did not
/// change, and freeing one frees only what it did not share
/// ([`unshared_chunks`](PxDoc::unshared_chunks) counts it). Mutators
/// write only values that change, so a chunk is copied only when one of
/// its nodes really does.
///
/// Detached nodes can temporarily exist while the integration engine
/// assembles a result; [`PxDoc::reachable_count`] and the counters in
/// [`crate::count`] only consider nodes reachable from the root.
/// [`PxDoc::compact`] reclaims detached slots when they accumulate.
///
/// A document also keeps one value derived from it by a higher layer
/// (the query crate's index), see [`PxDoc::derived`].
#[derive(Debug, Clone)]
pub struct PxDoc {
    pub(crate) nodes: Arena,
    pub(crate) root: PxNodeId,
    /// Conservative detachment marker: `false` guarantees every arena
    /// slot is reachable from the root, so [`PxDoc::arena_stats`] can
    /// answer in O(1) instead of walking the document. Set by the
    /// detaching mutators ([`detach`](PxDoc::detach),
    /// [`splice`](PxDoc::splice), a [`reset_children`](PxDoc::reset_children)
    /// that leaves a former child behind), cleared by
    /// [`compact`](PxDoc::compact). `true` only means a detach *may*
    /// have left garbage — the slow count remains the authority.
    pub(crate) maybe_detached: bool,
    /// The value [`derived`](PxDoc::derived) built, dropped by every
    /// mutation: all of them reach the arena through
    /// [`nodes_mut`](PxDoc::nodes_mut).
    pub(crate) derived: Derived,
}

/// The slot behind [`PxDoc::derived`]: empty, or the one value built
/// from the document as it is now. Clones share it (a clone is the same
/// document until one of them changes).
#[derive(Clone, Default)]
pub(crate) struct Derived(OnceLock<Arc<dyn Any + Send + Sync>>);

impl fmt::Debug for Derived {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = if self.0.get().is_some() {
            "built"
        } else {
            "empty"
        };
        write!(f, "Derived({state})")
    }
}

/// Arena occupancy of a [`PxDoc`]: how many slots are reachable from the
/// root (`live`) out of all allocated slots (`total`). The difference is
/// detached garbage that [`PxDoc::compact`] can reclaim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaStats {
    /// Slots reachable from the root.
    pub live: usize,
    /// All allocated slots, reachable or not.
    pub total: usize,
}

impl ArenaStats {
    /// Detached (unreachable) slots: `total - live`.
    #[inline]
    pub fn detached(self) -> usize {
        self.total - self.live
    }

    /// Fraction of slots that are live (`1.0` for an empty arena).
    pub fn occupancy(self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.live as f64 / self.total as f64
        }
    }
}

/// Stable id-remap returned by [`PxDoc::compact`].
///
/// Surviving nodes keep their relative arena order, so the map is
/// monotone: `old < old'` implies `remap(old) < remap(old')` whenever both
/// survive. Dropped (detached) nodes map to `None`.
#[derive(Debug, Clone)]
pub struct CompactMap {
    map: Vec<Option<PxNodeId>>,
    dropped: usize,
}

impl CompactMap {
    /// New id of `old`, or `None` if the node was detached and dropped.
    #[inline]
    pub fn remap(&self, old: PxNodeId) -> Option<PxNodeId> {
        self.map.get(old.index()).copied().flatten()
    }

    /// Number of arena slots reclaimed by the compaction.
    #[inline]
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// True when the compaction was a no-op (every slot survived with its
    /// original id).
    #[inline]
    pub fn is_identity(&self) -> bool {
        self.dropped == 0
    }
}

/// Id offset applied by [`PxDoc::splice_scratch`]: scratch node `i`
/// (for `i ≥ 1`) became destination node `base + i - 1`.
#[derive(Debug, Clone, Copy)]
pub struct SpliceMap {
    base: usize,
}

impl SpliceMap {
    /// Destination id of scratch node `src` (not the scratch root, which
    /// is never spliced).
    #[inline]
    pub fn remap(self, src: PxNodeId) -> PxNodeId {
        debug_assert!(src.index() > 0, "the scratch root itself is not spliced");
        PxNodeId((self.base + src.index() - 1) as u32)
    }
}

impl Default for PxDoc {
    fn default() -> Self {
        Self::new()
    }
}

impl PxDoc {
    /// Slots per arena chunk, the unit two versions of a document share
    /// or copy (see the [type docs](PxDoc)).
    pub const CHUNK: usize = 1 << CHUNK_BITS;

    /// Create an empty document: a root probability node with no
    /// possibilities yet. Add at least one possibility before use.
    pub fn new() -> Self {
        PxDoc {
            nodes: std::iter::once((PxNodeData::new(PxNodeKind::Prob, None), NO_WEIGHT)).collect(),
            root: PxNodeId(0),
            maybe_detached: false,
            derived: Derived::default(),
        }
    }

    /// The root probability node.
    #[inline]
    pub fn root(&self) -> PxNodeId {
        self.root
    }

    /// Total number of arena slots (including detached nodes).
    #[inline]
    pub fn arena_len(&self) -> usize {
        self.nodes.len()
    }

    /// How many of `base`'s arena chunks this document does not share:
    /// the chunks of `base` that a change made since this document was
    /// cloned from it copied (or dropped). Appended chunks are not
    /// counted; comparing a document with itself gives 0.
    ///
    /// ```
    /// use imprecise_pxml::PxDoc;
    ///
    /// let mut base = PxDoc::new();
    /// let w = base.add_poss(base.root(), 1.0);
    /// let doc = base.add_elem(w, "doc");
    /// for _ in 0..3 * PxDoc::CHUNK {
    ///     base.add_elem(doc, "item");
    /// }
    /// let mut next = base.clone();
    /// assert_eq!(next.unshared_chunks(&base), 0);
    /// next.set_attr(doc, "v", "2"); // a write to chunk 0
    /// next.set_poss_prob(w, 1.0); // the weight column is not chunked
    /// assert_eq!(next.unshared_chunks(&base), 1);
    /// ```
    pub fn unshared_chunks(&self, base: &PxDoc) -> usize {
        let ours = self.nodes.chunks();
        base.nodes
            .chunks()
            .iter()
            .enumerate()
            .filter(|&(i, chunk)| ours.get(i).is_none_or(|c| !Arc::ptr_eq(c, chunk)))
            .count()
    }

    #[inline]
    fn node(&self, id: PxNodeId) -> &PxNodeData {
        self.nodes.get(id.index())
    }

    /// The arena, for a mutation: drops the [`derived`](Self::derived)
    /// value, which described the document before it. Every mutation
    /// goes through here.
    #[inline]
    pub(crate) fn nodes_mut(&mut self) -> &mut Arena {
        self.derived.0.take();
        &mut self.nodes
    }

    #[inline]
    fn node_mut(&mut self, id: PxNodeId) -> &mut PxNodeData {
        self.nodes_mut().get_mut(id.index())
    }

    /// The value `build` derives from this document: built by the first
    /// call, then shared by every later one until the document is next
    /// modified — every mutation drops it. The query crate keeps
    /// its index here, so a document queried many times is indexed once,
    /// and never while it is being built or refined. A document keeps one
    /// derived value; asking for a second type builds it without keeping
    /// it.
    ///
    /// ```
    /// use imprecise_pxml::PxDoc;
    /// use std::sync::Arc;
    ///
    /// let mut px = PxDoc::new();
    /// let w = px.add_poss(px.root(), 1.0);
    /// px.add_elem(w, "doc");
    /// let first = px.derived(PxDoc::reachable_count);
    /// assert!(Arc::ptr_eq(&first, &px.derived(PxDoc::reachable_count)));
    /// px.add_elem(w, "more");
    /// assert_eq!(*px.derived(PxDoc::reachable_count), 4);
    /// ```
    pub fn derived<T: Any + Send + Sync>(&self, build: fn(&PxDoc) -> T) -> Arc<T> {
        let held = self.derived.0.get_or_init(|| Arc::new(build(self)));
        Arc::clone(held)
            .downcast::<T>()
            .unwrap_or_else(|_| Arc::new(build(self)))
    }

    /// The node payload.
    #[inline]
    pub fn kind(&self, id: PxNodeId) -> &PxNodeKind {
        &self.node(id).kind
    }

    /// Parent of a node (`None` for the root).
    #[inline]
    pub fn parent(&self, id: PxNodeId) -> Option<PxNodeId> {
        self.node(id).parent
    }

    /// Children of a node in document order.
    #[inline]
    pub fn children(&self, id: PxNodeId) -> &[PxNodeId] {
        &self.node(id).children
    }

    /// True if `id` is a probability node.
    #[inline]
    pub fn is_prob(&self, id: PxNodeId) -> bool {
        matches!(self.node(id).kind, PxNodeKind::Prob)
    }

    /// True if `id` is a possibility node.
    #[inline]
    pub fn is_poss(&self, id: PxNodeId) -> bool {
        matches!(self.node(id).kind, PxNodeKind::Poss)
    }

    /// True if `id` is an element node.
    #[inline]
    pub fn is_elem(&self, id: PxNodeId) -> bool {
        matches!(self.node(id).kind, PxNodeKind::Elem { .. })
    }

    /// True if `id` is a text node.
    #[inline]
    pub fn is_text(&self, id: PxNodeId) -> bool {
        matches!(self.node(id).kind, PxNodeKind::Text(_))
    }

    /// Element tag, or `None` for other node kinds.
    #[inline]
    pub fn tag(&self, id: PxNodeId) -> Option<&str> {
        match &self.node(id).kind {
            PxNodeKind::Elem { tag, .. } => Some(tag),
            _ => None,
        }
    }

    /// Text payload, or `None` for other node kinds.
    #[inline]
    pub fn text(&self, id: PxNodeId) -> Option<&str> {
        match &self.node(id).kind {
            PxNodeKind::Text(t) => Some(t),
            _ => None,
        }
    }

    /// Probability of a possibility node, or `None` for other kinds.
    #[inline]
    pub fn poss_prob(&self, id: PxNodeId) -> Option<f64> {
        self.is_poss(id).then(|| self.nodes.weight(id.index()))
    }

    /// Set the probability of a possibility node. Only the weight column
    /// is written: no arena chunk is copied.
    ///
    /// # Panics
    /// Panics if `id` is not a possibility node.
    pub fn set_poss_prob(&mut self, id: PxNodeId, p: f64) {
        if !self.is_poss(id) {
            let other = self.kind(id);
            // lint:allow(panic-in-lib, documented API contract: panics with set_poss_prob on non-possibility node other:?)
            panic!("set_poss_prob on non-possibility node {other:?}");
        }
        self.nodes_mut().set_weight(id.index(), p);
    }

    /// Attributes of an element (empty for other kinds).
    pub fn attrs(&self, id: PxNodeId) -> &[Attr] {
        match &self.node(id).kind {
            PxNodeKind::Elem { attrs, .. } => attrs,
            _ => &[],
        }
    }

    /// Value of attribute `name` on element `id`.
    pub fn attr(&self, id: PxNodeId, name: &str) -> Option<&str> {
        self.attrs(id)
            .iter()
            .find(|a| a.name == name)
            .map(|a| a.value.as_str())
    }

    /// Set (or replace) an attribute on an element node.
    ///
    /// # Panics
    /// Panics if `id` is not an element.
    pub fn set_attr(&mut self, id: PxNodeId, name: impl Into<String>, value: impl Into<String>) {
        let name = name.into();
        let value = value.into();
        if self.attr(id, &name) == Some(value.as_str()) {
            return;
        }
        match &mut self.node_mut(id).kind {
            PxNodeKind::Elem { attrs, .. } => {
                if let Some(a) = attrs.iter_mut().find(|a| a.name == name) {
                    a.value = value;
                } else {
                    attrs.push(Attr { name, value });
                }
            }
            // lint:allow(panic-in-lib, documented API contract: panics with set_attr on non-element node other:?)
            other => panic!("set_attr on non-element node {other:?}"),
        }
    }

    fn push(&mut self, parent: PxNodeId, kind: PxNodeKind, weight: f64) -> PxNodeId {
        let id = PxNodeId(self.nodes.len() as u32);
        self.nodes_mut()
            .push(PxNodeData::new(kind, Some(parent)), weight);
        self.node_mut(parent).children.push(id);
        id
    }

    /// Append a probability node under an element or possibility node.
    ///
    /// A probability node directly under a possibility is a *nested
    /// choice* — a choice whose availability depends on the outer
    /// possibility being chosen. Such nodes arise when integrating
    /// documents that already carry uncertainty; the strict layered form
    /// of the paper is recovered by flattening (see `count`).
    pub fn add_prob(&mut self, parent: PxNodeId) -> PxNodeId {
        debug_assert!(
            self.is_elem(parent) || self.is_poss(parent),
            "prob nodes hang under elements or possibilities"
        );
        self.push(parent, PxNodeKind::Prob, NO_WEIGHT)
    }

    /// Append a possibility node with probability `p` under a probability
    /// node.
    pub fn add_poss(&mut self, parent: PxNodeId, p: f64) -> PxNodeId {
        debug_assert!(self.is_prob(parent), "poss nodes hang under prob nodes");
        self.push(parent, PxNodeKind::Poss, p)
    }

    /// Append an element node under a possibility or element node.
    pub fn add_elem(&mut self, parent: PxNodeId, tag: impl Into<String>) -> PxNodeId {
        debug_assert!(
            self.is_poss(parent) || self.is_elem(parent),
            "elements hang under possibilities or elements"
        );
        self.push(
            parent,
            PxNodeKind::Elem {
                tag: tag.into(),
                attrs: Vec::new(),
            },
            NO_WEIGHT,
        )
    }

    /// Append a text node under a possibility or element node.
    pub fn add_text(&mut self, parent: PxNodeId, text: impl Into<String>) -> PxNodeId {
        debug_assert!(
            self.is_poss(parent) || self.is_elem(parent),
            "text hangs under possibilities or elements"
        );
        self.push(parent, PxNodeKind::Text(text.into()), NO_WEIGHT)
    }

    /// Convenience: `<tag>text</tag>` under `parent`.
    pub fn add_text_elem(
        &mut self,
        parent: PxNodeId,
        tag: impl Into<String>,
        text: impl Into<String>,
    ) -> PxNodeId {
        let el = self.add_elem(parent, tag);
        self.add_text(el, text);
        el
    }

    /// Deep-copy a subtree of an ordinary [`XmlDoc`] as a new child of
    /// `parent`. Returns the id of the copied root.
    pub fn graft_xml(&mut self, parent: PxNodeId, src: &XmlDoc, src_node: XmlNodeId) -> PxNodeId {
        match src.kind(src_node) {
            XmlNodeKind::Element { tag, attrs } => {
                let el = self.add_elem(parent, tag.clone());
                for a in attrs {
                    self.set_attr(el, a.name.clone(), a.value.clone());
                }
                for &c in src.children(src_node) {
                    self.graft_xml(el, src, c);
                }
                el
            }
            XmlNodeKind::Text(t) => self.add_text(parent, t.clone()),
        }
    }

    /// Deep-copy a subtree of another [`PxDoc`] (or of `self`, via a
    /// snapshot) as a new child of `parent`.
    pub fn graft_px(&mut self, parent: PxNodeId, src: &PxDoc, src_node: PxNodeId) -> PxNodeId {
        self.graft_px_mapped(parent, src, src_node, &mut |_, _| {})
    }

    /// [`graft_px`](Self::graft_px) that additionally reports the id each
    /// source node was copied to, via `on_copy(src_id, new_id)`. Used when
    /// bookkeeping (e.g. resumable-refinement frontiers) holds ids into
    /// the source arena that must be re-anchored in the destination.
    pub fn graft_px_mapped(
        &mut self,
        parent: PxNodeId,
        src: &PxDoc,
        src_node: PxNodeId,
        on_copy: &mut impl FnMut(PxNodeId, PxNodeId),
    ) -> PxNodeId {
        let id = self.push(
            parent,
            src.kind(src_node).clone(),
            src.nodes.weight(src_node.index()),
        );
        on_copy(src_node, id);
        for &c in src.children(src_node) {
            self.graft_px_mapped(id, src, c, on_copy);
        }
        id
    }

    /// Splice an entire scratch document into this arena in one linear
    /// pass. Every non-root node of `src` moves here with its id shifted
    /// by a constant offset (scratch node `i` becomes node `base + i - 1`
    /// where `base` was this arena's length), and the scratch root's
    /// children are appended, in order, to `parent`'s child list.
    ///
    /// This is a [`graft_px_mapped`](Self::graft_px_mapped) of every root
    /// child at once, but by *moving* arena slots instead of recursively
    /// re-allocating nodes: tags, attributes, text and child vectors
    /// cross arenas untouched, and the id remap is offset arithmetic. It
    /// requires (and panics unless) `src` has no detached slots — true by
    /// construction for a freshly emitted scratch document. Returns the
    /// remapped former children of the scratch root plus the offset map.
    pub fn splice_scratch(&mut self, parent: PxNodeId, src: PxDoc) -> (Vec<PxNodeId>, SpliceMap) {
        assert_eq!(src.root().index(), 0, "scratch root is the first slot");
        let map = SpliceMap {
            base: self.nodes.len(),
        };
        let mut slots = src.nodes.into_slots();
        // lint:allow(expect-in-lib, holds by construction: scratch has a root)
        let (root, _) = slots.next().expect("scratch has a root");
        let attached: Vec<PxNodeId> = root.children.iter().map(|&c| map.remap(c)).collect();
        for (mut node, weight) in slots {
            node.parent = Some(match node.parent {
                Some(p) if p.index() == 0 => parent,
                Some(p) => map.remap(p),
                // lint:allow(panic-in-lib, documented API contract: panics with scratch documents have no detached slots)
                None => panic!("scratch documents have no detached slots"),
            });
            for c in &mut node.children {
                *c = map.remap(*c);
            }
            self.nodes_mut().push(node, weight);
        }
        self.node_mut(parent).children.extend_from_slice(&attached);
        (attached, map)
    }

    /// Detach `child` from its parent's child list (the node stays in the
    /// arena but becomes unreachable). Used by simplification.
    pub fn detach(&mut self, child: PxNodeId) {
        if let Some(parent) = self.node(child).parent {
            let list = &mut self.node_mut(parent).children;
            if let Some(pos) = list.iter().position(|&c| c == child) {
                list.remove(pos);
            }
            self.node_mut(child).parent = None;
            self.maybe_detached = true;
        }
    }

    /// Replace `parent`'s child list wholesale: current children are
    /// detached, every node in `children` is (re-)attached in the given
    /// order. Used by refinement rollback to restore a choice point's
    /// original possibilities after a failed re-emission.
    ///
    /// Every node in `children` must be detached or already a child of
    /// `parent` (re-parenting a node that is still linked elsewhere
    /// would corrupt the other parent's child list).
    ///
    /// Only links that change are written: a child that stays keeps its
    /// parent link untouched, so a reorder copies the chunk of `parent`
    /// alone.
    pub fn reset_children(&mut self, parent: PxNodeId, children: Vec<PxNodeId>) {
        let old = std::mem::take(&mut self.node_mut(parent).children);
        let mut kept = children.clone();
        kept.sort_unstable();
        debug_assert!(
            kept.windows(2).all(|w| w[0] != w[1]),
            "reset_children child listed twice"
        );
        let mut left_behind = false;
        for &c in &old {
            if kept.binary_search(&c).is_err() {
                self.nodes_mut().set_parent(c.index(), None);
                left_behind = true;
            }
        }
        for &c in &children {
            // Old children that are not listed again were detached
            // above, so a link to `parent` here is one that stays.
            debug_assert!(
                self.node(c).parent.is_none() || self.node(c).parent == Some(parent),
                "reset_children child must be detached"
            );
            self.nodes_mut().set_parent(c.index(), Some(parent));
        }
        self.node_mut(parent).children = children;
        // Only a former child that was *not* re-attached leaves garbage
        // behind; the common refine-commit call re-attaches every one.
        if left_behind {
            self.maybe_detached = true;
        }
    }

    /// Drop every arena slot from index `mark` on — the nodes appended
    /// since `mark` was read off [`arena_len`](Self::arena_len). Used by
    /// refinement rollback: node creation only ever appends, so
    /// truncating back to a recorded mark (after re-linking the
    /// surviving structure, see [`reset_children`](Self::reset_children))
    /// restores the arena bit for bit.
    ///
    /// # Panics
    /// Panics in debug builds if a surviving node still references a
    /// dropped one, or if `mark` would drop the root.
    pub fn truncate_arena(&mut self, mark: usize) {
        debug_assert!(mark > self.root.index() && mark <= self.nodes.len());
        #[cfg(debug_assertions)]
        for i in 0..mark {
            debug_assert!(
                self.nodes.get(i).children.iter().all(|c| c.index() < mark),
                "surviving node references a truncated one"
            );
        }
        self.nodes_mut().truncate(mark);
    }

    /// Replace `old` in its parent's child list with `replacements`
    /// (splicing them in at the same position). `old` becomes detached.
    ///
    /// # Panics
    /// Panics if `old` has no parent.
    pub fn splice(&mut self, old: PxNodeId, replacements: &[PxNodeId]) {
        // lint:allow(expect-in-lib, holds by construction: splice target has a parent)
        let parent = self.node(old).parent.expect("splice target has a parent");
        let pos = self
            .node(parent)
            .children
            .iter()
            .position(|&c| c == old)
            // lint:allow(expect-in-lib, holds by construction: old is a child of its parent)
            .expect("old is a child of its parent");
        let mut new_children = self.node(parent).children.clone();
        new_children.splice(pos..=pos, replacements.iter().copied());
        self.node_mut(parent).children = new_children;
        self.node_mut(old).parent = None;
        self.maybe_detached = true;
        for &r in replacements {
            self.nodes_mut().set_parent(r.index(), Some(parent));
        }
    }

    /// Pre-order traversal of the subtree rooted at `id` (inclusive).
    pub fn descendants(&self, id: PxNodeId) -> PxDescendants<'_> {
        PxDescendants {
            doc: self,
            stack: vec![id],
        }
    }

    /// Number of nodes reachable from the root (the factored representation
    /// size; the paper's headline metric is the *unfactored* variant, see
    /// [`crate::count`]).
    pub fn reachable_count(&self) -> usize {
        self.descendants(self.root).count()
    }

    /// Live-vs-total arena occupancy. `live` counts slots reachable from
    /// the root; the rest are detached garbage left behind by
    /// simplification, refinement, or feedback.
    pub fn arena_stats(&self) -> ArenaStats {
        let total = self.arena_len();
        // Documents that never detached anything are fully live — no
        // need to walk the arena to prove it. Refinement is append-only,
        // so its per-step stats hit this path. A wrongly cleared marker
        // cannot hide: [`deep_check`](Self::deep_check) compares this
        // figure against its own independent walk
        // (`ArenaAccountingDrift`), and the strict-invariants shadow
        // checks run that after every mutation.
        if !self.maybe_detached {
            return ArenaStats { live: total, total };
        }
        ArenaStats {
            live: self.reachable_count(),
            total,
        }
    }

    /// Drop every arena slot not reachable from the root, renumbering the
    /// survivors densely while preserving their relative order (so the
    /// returned [`CompactMap`] is monotone and the root keeps id 0).
    ///
    /// Document structure, order, and probabilities are untouched — the
    /// fingerprint, world set, and query answers are identical before and
    /// after. Only arena ids change; callers holding [`PxNodeId`]s across
    /// a compaction must translate them through the returned map.
    pub fn compact(&mut self) -> CompactMap {
        let n = self.nodes.len();
        let mut keep = vec![false; n];
        for id in self.descendants(self.root) {
            keep[id.index()] = true;
        }
        let mut map: Vec<Option<PxNodeId>> = vec![None; n];
        let mut next: u32 = 0;
        for (i, &kept) in keep.iter().enumerate() {
            if kept {
                map[i] = Some(PxNodeId(next));
                next += 1;
            }
        }
        let dropped = n - next as usize;
        // Either way the arena is fully live from here on.
        self.maybe_detached = false;
        if dropped == 0 {
            return CompactMap { map, dropped };
        }
        let old = std::mem::replace(self.nodes_mut(), Arena::empty());
        self.nodes = old
            .into_slots()
            .enumerate()
            .filter(|&(i, _)| keep[i])
            .map(|(_, (node, weight))| {
                let node = PxNodeData {
                    kind: node.kind,
                    parent: node.parent.and_then(|p| map[p.index()]),
                    children: node
                        .children
                        .iter()
                        // lint:allow(expect-in-lib, holds by construction: child of a reachable node is reachable)
                        .map(|c| map[c.index()].expect("child of a reachable node is reachable"))
                        .collect(),
                };
                (node, weight)
            })
            .collect();
        // lint:allow(expect-in-lib, holds by construction: root always survives compaction)
        self.root = map[self.root.index()].expect("root always survives compaction");
        CompactMap { map, dropped }
    }

    /// All probability nodes reachable from the root, in document order.
    pub fn prob_nodes(&self) -> Vec<PxNodeId> {
        self.descendants(self.root)
            .filter(|&n| self.is_prob(n))
            .collect()
    }

    /// True when the document is certain: every reachable probability node
    /// has exactly one possibility with probability (numerically) 1.
    pub fn is_certain(&self) -> bool {
        self.prob_nodes().iter().all(|&p| {
            let kids = self.children(p);
            kids.len() == 1
                && self
                    .poss_prob(kids[0])
                    .is_some_and(|w| (w - 1.0).abs() < crate::PROB_EPSILON)
        })
    }

    /// The possibility children of a probability node together with their
    /// probabilities.
    pub fn possibilities(&self, prob: PxNodeId) -> Vec<(PxNodeId, f64)> {
        debug_assert!(self.is_prob(prob));
        self.children(prob)
            .iter()
            // lint:allow(expect-in-lib, holds by construction: prob child is poss)
            .map(|&c| (c, self.poss_prob(c).expect("prob child is poss")))
            .collect()
    }

    /// Index of `poss` within its parent probability node's child list.
    pub fn poss_index(&self, poss: PxNodeId) -> usize {
        // lint:allow(expect-in-lib, holds by construction: poss has a parent)
        let parent = self.parent(poss).expect("poss has a parent");
        self.children(parent)
            .iter()
            .position(|&c| c == poss)
            // lint:allow(expect-in-lib, holds by construction: poss is a child of its parent)
            .expect("poss is a child of its parent")
    }

    /// Concatenated text of all *certain* descendant text nodes of `id`
    /// (descending through elements only — stops at probability nodes).
    ///
    /// For a fully certain subtree this is the XPath `string()` value.
    pub fn certain_text(&self, id: PxNodeId) -> String {
        let mut out = String::new();
        self.certain_text_into(id, &mut out);
        out
    }

    fn certain_text_into(&self, id: PxNodeId, out: &mut String) {
        match self.kind(id) {
            PxNodeKind::Text(t) => out.push_str(t),
            PxNodeKind::Elem { .. } => {
                for &c in self.children(id) {
                    self.certain_text_into(c, out);
                }
            }
            PxNodeKind::Prob | PxNodeKind::Poss => {}
        }
    }
}

/// Pre-order iterator returned by [`PxDoc::descendants`].
pub struct PxDescendants<'a> {
    doc: &'a PxDoc,
    stack: Vec<PxNodeId>,
}

impl Iterator for PxDescendants<'_> {
    type Item = PxNodeId;

    fn next(&mut self) -> Option<PxNodeId> {
        let id = self.stack.pop()?;
        for &c in self.doc.children(id).iter().rev() {
            self.stack.push(c);
        }
        Some(id)
    }
}

/// Test-only fault injection for the `deep_check` mutation tests:
/// append a raw child id to `parent` without back-linking or
/// bounds-checking it. No public API can create such a link — which is
/// exactly what those tests need to prove the verifier would catch one
/// if a future bug did.
#[cfg(test)]
impl PxDoc {
    pub(crate) fn inject_raw_child_for_tests(&mut self, parent: PxNodeId, child: u32) {
        self.node_mut(parent).children.push(PxNodeId(child));
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use imprecise_xmlkit::parse;

    /// Build the paper's Fig. 2 tree (used by several test modules).
    pub(crate) fn fig2() -> PxDoc {
        let mut px = PxDoc::new();
        let root = px.root();
        let w1 = px.add_poss(root, 0.5);
        let ab1 = px.add_elem(w1, "addressbook");
        let p1 = px.add_elem(ab1, "person");
        px.add_text_elem(p1, "nm", "John");
        let tel_choice = px.add_prob(p1);
        let t1 = px.add_poss(tel_choice, 0.5);
        px.add_text_elem(t1, "tel", "1111");
        let t2 = px.add_poss(tel_choice, 0.5);
        px.add_text_elem(t2, "tel", "2222");
        let w2 = px.add_poss(root, 0.5);
        let ab2 = px.add_elem(w2, "addressbook");
        for tel in ["1111", "2222"] {
            let p = px.add_elem(ab2, "person");
            px.add_text_elem(p, "nm", "John");
            px.add_text_elem(p, "tel", tel);
        }
        px
    }

    #[test]
    fn build_fig2_structure() {
        let px = fig2();
        assert!(px.is_prob(px.root()));
        let poss = px.possibilities(px.root());
        assert_eq!(poss.len(), 2);
        assert!((poss[0].1 - 0.5).abs() < 1e-12);
        assert!(!px.is_certain());
    }

    #[test]
    fn certain_doc_detected() {
        let mut px = PxDoc::new();
        let w = px.add_poss(px.root(), 1.0);
        let e = px.add_elem(w, "a");
        px.add_text(e, "x");
        assert!(px.is_certain());
    }

    #[test]
    fn graft_xml_copies_subtree() {
        let xml = parse("<person><nm>John</nm><tel>1111</tel></person>").unwrap();
        let mut px = PxDoc::new();
        let w = px.add_poss(px.root(), 1.0);
        let copied = px.graft_xml(w, &xml, xml.root());
        assert_eq!(px.tag(copied), Some("person"));
        assert_eq!(px.certain_text(copied), "John1111");
    }

    #[test]
    fn graft_px_copies_probabilistic_subtree() {
        let src = fig2();
        let mut dst = PxDoc::new();
        let w = dst.add_poss(dst.root(), 1.0);
        let e = dst.add_elem(w, "wrapper");
        // Graft the whole first possibility's addressbook.
        let src_poss = src.children(src.root())[0];
        let src_ab = src.children(src_poss)[0];
        let copied = dst.graft_px(e, &src, src_ab);
        assert_eq!(dst.tag(copied), Some("addressbook"));
        // The nested tel choice came along.
        let person = dst.children(copied)[0];
        assert!(dst.children(person).iter().any(|&c| dst.is_prob(c)));
    }

    #[test]
    fn splice_replaces_in_place() {
        let mut px = PxDoc::new();
        let w = px.add_poss(px.root(), 1.0);
        let e = px.add_elem(w, "list");
        let a = px.add_text_elem(e, "i", "a");
        let b = px.add_text_elem(e, "i", "b");
        let c = px.add_text_elem(e, "i", "c");
        // Replace b with two fresh items. Create them detached under e then
        // splice (they are appended first, then moved).
        let x = px.add_text_elem(e, "i", "x");
        let y = px.add_text_elem(e, "i", "y");
        px.detach(x);
        px.detach(y);
        px.splice(b, &[x, y]);
        let kids = px.children(e).to_vec();
        assert_eq!(kids, vec![a, x, y, c]);
        assert_eq!(px.parent(x), Some(e));
        assert_eq!(px.parent(b), None);
    }

    #[test]
    fn detach_makes_unreachable() {
        let mut px = PxDoc::new();
        let w = px.add_poss(px.root(), 1.0);
        let e = px.add_elem(w, "a");
        let before = px.reachable_count();
        let child = px.add_text_elem(e, "b", "t");
        assert_eq!(px.reachable_count(), before + 2);
        px.detach(child);
        assert_eq!(px.reachable_count(), before);
        assert!(px.arena_len() > px.reachable_count());
    }

    #[test]
    fn reset_children_restores_a_detached_list() {
        let mut px = PxDoc::new();
        let root = px.root();
        let p1 = px.add_poss(root, 0.5);
        let p2 = px.add_poss(root, 0.5);
        let original = px.children(root).to_vec();
        // Replace the possibilities, then roll back.
        for c in original.clone() {
            px.detach(c);
        }
        let p3 = px.add_poss(root, 1.0);
        assert_eq!(px.children(root), [p3]);
        px.reset_children(root, original.clone());
        assert_eq!(px.children(root), original.as_slice());
        assert_eq!(px.parent(p1), Some(root));
        assert_eq!(px.parent(p2), Some(root));
        assert_eq!(px.parent(p3), None);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "listed twice")]
    fn reset_children_rejects_a_repeated_child() {
        let mut px = PxDoc::new();
        let root = px.root();
        let p1 = px.add_poss(root, 0.5);
        px.add_poss(root, 0.5);
        px.reset_children(root, vec![p1, p1]);
    }

    #[test]
    fn poss_index_reports_position() {
        let px = fig2();
        let poss = px.children(px.root()).to_vec();
        assert_eq!(px.poss_index(poss[0]), 0);
        assert_eq!(px.poss_index(poss[1]), 1);
    }

    #[test]
    fn attrs_on_px_elements() {
        let mut px = PxDoc::new();
        let w = px.add_poss(px.root(), 1.0);
        let e = px.add_elem(w, "movie");
        px.set_attr(e, "year", "1995");
        assert_eq!(px.attr(e, "year"), Some("1995"));
        px.set_attr(e, "year", "1996");
        assert_eq!(px.attr(e, "year"), Some("1996"));
        assert_eq!(px.attrs(e).len(), 1);
    }

    #[test]
    fn prob_nodes_lists_reachable_choice_points() {
        let px = fig2();
        assert_eq!(px.prob_nodes().len(), 2); // root + tel choice
    }

    #[test]
    fn arena_stats_track_detachment() {
        let mut px = fig2();
        let before = px.arena_stats();
        assert_eq!(before.live, before.total);
        assert_eq!(before.detached(), 0);
        assert!((before.occupancy() - 1.0).abs() < 1e-12);
        let w2 = px.children(px.root())[1];
        let dropped = px.descendants(w2).count();
        px.detach(w2);
        let after = px.arena_stats();
        assert_eq!(after.total, before.total);
        assert_eq!(after.detached(), dropped);
        assert!(after.occupancy() < 1.0);
    }

    #[test]
    fn compact_on_fully_live_arena_is_identity() {
        let mut px = fig2();
        let ids: Vec<PxNodeId> = px.descendants(px.root()).collect();
        let map = px.compact();
        assert!(map.is_identity());
        assert_eq!(map.dropped(), 0);
        for id in ids {
            assert_eq!(map.remap(id), Some(id));
        }
    }

    #[test]
    fn compact_reclaims_detached_slots_and_remaps_monotonically() {
        let mut px = fig2();
        let w1 = px.children(px.root())[0];
        let survivor = px.children(px.root())[1];
        px.detach(w1);
        let live = px.reachable_count();
        let total = px.arena_len();
        assert!(total > live);
        let map = px.compact();
        assert_eq!(map.dropped(), total - live);
        assert_eq!(px.arena_len(), live);
        assert_eq!(px.arena_stats().detached(), 0);
        assert_eq!(map.remap(w1), None);
        let new_survivor = map.remap(survivor).expect("reachable node survives");
        assert!(new_survivor.index() <= survivor.index());
        assert_eq!(px.poss_prob(new_survivor), Some(0.5));
        px.set_poss_prob(new_survivor, 1.0);
        // Relative order of surviving ids is preserved.
        let mut last = None;
        for old in 0..total {
            if let Some(new) = map.remap(PxNodeId(old as u32)) {
                if let Some(prev) = last {
                    assert!(new.index() > prev);
                }
                last = Some(new.index());
            }
        }
        px.validate().expect("compacted doc stays valid");
    }

    #[test]
    fn compact_preserves_structure_and_fingerprint() {
        let mut px = fig2();
        // Leave some garbage behind, as refinement would.
        let w = px.add_poss(px.root(), 0.25);
        let e = px.add_elem(w, "junk");
        px.add_text(e, "gone");
        px.detach(w);
        let fp = px.fingerprint();
        let worlds_before = px.world_count();
        px.compact();
        assert_eq!(px.fingerprint(), fp);
        assert_eq!(px.world_count(), worlds_before);
    }

    /// Shared-state audit for the parallel refinement path: component
    /// workers hold `&PxDoc` references to both sources while they
    /// race over their components, so every arena type must be free of interior mutability (`Send + Sync`
    /// by plain data, not by locking). A `Cell`/`RefCell` smuggled into
    /// a node payload would fail this at compile time. The one exception
    /// is the document's derived-value slot, a `OnceLock` outside the
    /// arena that only queries fill.
    #[test]
    fn arena_types_are_plain_shared_data() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PxDoc>();
        assert_send_sync::<PxNodeId>();
        assert_send_sync::<PxNodeKind>();
        assert_send_sync::<ArenaStats>();
        assert_send_sync::<CompactMap>();
        assert_send_sync::<SpliceMap>();
    }

    /// The derived value is shared until the document changes: every
    /// kind of mutation drops it, including those that keep the arena
    /// size (reweighting, detaching, pruning).
    #[test]
    fn every_mutation_drops_the_derived_value() {
        type Mutation = (&'static str, fn(&mut PxDoc));
        let mutations: [Mutation; 12] = [
            ("set_poss_prob", |px| {
                px.set_poss_prob(px.children(px.root())[0], 0.4)
            }),
            ("set_attr", |px| {
                let book = px.children(px.children(px.root())[0])[0];
                px.set_attr(book, "id", "1");
            }),
            ("add_elem", |px| {
                px.add_elem(px.children(px.root())[0], "extra");
            }),
            ("detach", |px| px.detach(px.children(px.root())[1])),
            ("reset_children", |px| {
                let kids = px.children(px.root()).to_vec();
                px.reset_children(px.root(), kids[..1].to_vec());
            }),
            ("splice", |px| {
                let w = px.children(px.root())[0];
                let book = px.children(w)[0];
                px.splice(book, &[]);
            }),
            ("truncate_arena", |px| {
                let mark = px.arena_len();
                let w = px.children(px.root())[0];
                let extra = px.add_elem(w, "extra");
                px.detach(extra);
                let _ = px.derived(PxDoc::reachable_count);
                px.truncate_arena(mark);
            }),
            ("compact", |px| {
                px.detach(px.children(px.root())[1]);
                let _ = px.derived(PxDoc::reachable_count);
                px.compact();
            }),
            ("prune_below", |px| {
                px.prune_below(0.6);
            }),
            ("simplify", |px| {
                let w = px.children(px.root())[0];
                let c = px.add_prob(w);
                px.add_poss(c, 1.0);
                let _ = px.derived(PxDoc::reachable_count);
                px.simplify();
            }),
            ("splice_scratch", |px| {
                let mut scratch = PxDoc::new();
                scratch.add_poss(scratch.root(), 1.0);
                px.splice_scratch(px.root(), scratch);
            }),
            ("apply_doc_delta", |px| {
                let mut grown = px.clone();
                let w = grown.children(grown.root())[0];
                grown.add_elem(w, "extra");
                let mut bytes = Vec::new();
                crate::codec::encode_doc_delta(&grown, px.arena_len(), &[w], &mut bytes);
                crate::codec::apply_doc_delta(px, &mut crate::codec::Reader::new(&bytes))
                    .expect("delta applies");
            }),
        ];
        for (name, mutate) in mutations {
            let mut px = fig2();
            let before = px.derived(PxDoc::reachable_count);
            assert!(Arc::ptr_eq(&before, &px.derived(PxDoc::reachable_count)));
            assert!(
                Arc::ptr_eq(&before, &px.clone().derived(PxDoc::reachable_count)),
                "a clone shares it"
            );
            let kept = px.clone();
            mutate(&mut px);
            let after = px.derived(PxDoc::reachable_count);
            assert!(!Arc::ptr_eq(&before, &after), "{name}");
            assert_eq!(*after, px.reachable_count(), "{name}");
            assert!(
                Arc::ptr_eq(&before, &kept.derived(PxDoc::reachable_count)),
                "{name}: the unchanged clone keeps it"
            );
        }
        let px = fig2();
        let count = px.derived(PxDoc::reachable_count);
        let other = px.derived(|px| px.arena_len() as u32);
        assert_eq!(*other, px.arena_len() as u32);
        assert!(
            !Arc::ptr_eq(&other, &px.derived(|px| px.arena_len() as u32)),
            "a second type is built, not kept"
        );
        assert!(Arc::ptr_eq(&count, &px.derived(PxDoc::reachable_count)));
    }

    #[test]
    fn graft_px_mapped_reports_every_copied_node() {
        let src = fig2();
        let mut dst = PxDoc::new();
        let w = dst.add_poss(dst.root(), 1.0);
        let src_poss = src.children(src.root())[0];
        let src_ab = src.children(src_poss)[0];
        let mut map = std::collections::HashMap::new();
        let copied = dst.graft_px_mapped(w, &src, src_ab, &mut |from, to| {
            map.insert(from, to);
        });
        assert_eq!(map.get(&src_ab), Some(&copied));
        assert_eq!(map.len(), src.descendants(src_ab).count());
        for (&from, &to) in &map {
            assert_eq!(src.children(from).len(), dst.children(to).len());
        }
    }
}
