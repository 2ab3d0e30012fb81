//! The structural index every query step runs on: [`DocIndex`].
//!
//! A [`DocIndex`] numbers the reachable nodes of one document in
//! document (pre-)order and records each node's region — the last rank
//! inside its subtree — so "the descendants of `e`" is the rank range
//! `(pre(e), last(e)]`. This is the pre/post numbering of MonetDB/XQuery's
//! staircase join, which the original IMPrECISE prototype ran on. On top
//! of the numbering it keeps, for every tag, the ranks of its elements in
//! document order, so `//movie` below a context is a binary search plus a
//! scan of exactly the `movie`s inside the context's region.
//!
//! A node's existence event below a context is the conjunction of the
//! choices on its path: the index links every node to the innermost
//! possibility of a multi-possibility choice point above it, and every
//! such possibility to the next one out, so the event is read off that
//! chain up to the context — never by walking down from the root.
//!
//! For equality predicates the index also maps `(tag, text)` to the
//! elements of that tag whose content is exactly that one text node, and
//! lists per tag the elements whose value is anything else (uncertain,
//! mixed, nested or empty). The elements a predicate `path = "v"` can
//! hold at are the ancestors of those two sets, which is how
//! `//movie[year="1955"]` visits the movies of 1955 instead of every
//! movie. The set is a superset; the predicate still runs exactly on each
//! candidate. Texts are hashed during the build; a tag's map is sorted
//! on its first lookup.
//!
//! The index is built in one iterative pass (no recursion, so document
//! depth is bounded by memory, not by the stack) and never changes: it
//! describes the document as it was. [`DocIndex::of`] keeps it in the
//! document itself ([`PxDoc::derived`]), built by the document's first
//! query and shared by every later one, and every mutation of the
//! document drops it. So integration and refinement never pay for an
//! index, an engine version (an immutable `Arc<PxDoc>`) is indexed once
//! however many snapshots, prepared queries and feedback rounds read it,
//! and no query can run on an index of an older state of its document.

use crate::ast::{Axis, NodeTest, RelPath};
use crate::event::{ChoiceAtom, Event};
use imprecise_pxml::codec::fnv1a;
use imprecise_pxml::{ChoiceWeights, PxDoc, PxNodeId, PxNodeKind};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};

/// "No rank": the virtual document node as a context, the missing
/// element parent of a top-level element, the end of a choice chain.
const NONE: u32 = u32::MAX;

/// One possibility of a multi-possibility choice point, as a link in
/// the chain of choices enclosing a node.
#[derive(Debug, Clone, Copy)]
struct ChoiceLink {
    /// Rank of the possibility node.
    rank: u32,
    /// "Its choice point selects it".
    atom: ChoiceAtom,
    /// The next enclosing link (`NONE` at the outermost).
    up: u32,
}

/// A per-document region/tag/value index; see the [module docs](self).
///
/// ```
/// use imprecise_query::{DocIndex, QueryPlan};
/// use imprecise_pxml::from_xml;
/// use imprecise_xmlkit::parse;
/// use std::sync::Arc;
///
/// let doc = from_xml(&parse(
///     "<catalog><movie><title>Jaws</title><year>1975</year></movie>\
///      <movie><title>Heat</title><year>1995</year></movie></catalog>",
/// ).unwrap());
/// let plan = QueryPlan::parse("//movie[year=\"1995\"]/title").unwrap();
/// // The first query indexes the document, later ones reuse the index.
/// let answers = plan.collect(&doc).unwrap();
/// assert_eq!(answers.items[0].value, "Heat");
/// assert!(Arc::ptr_eq(&DocIndex::of(&doc), &DocIndex::of(&doc)));
/// ```
#[derive(Debug, Clone)]
pub struct DocIndex {
    /// The document's choice weights, shared by every answer stream.
    weights: Arc<ChoiceWeights>,
    /// Rank of every arena slot (`NONE` for a detached slot).
    rank_of: Vec<u32>,
    /// Every reachable node, by rank.
    ranks: Vec<Ranked>,
    links: Vec<ChoiceLink>,
    /// Ranks of every element, in document order (the `*` list).
    elements: Vec<u32>,
    /// Element children lists, CSR-style: the children of rank `r` are
    /// `kids[kid_start[r]..kid_start[r + 1]]`, in document order.
    kid_start: Vec<u32>,
    kids: Vec<u32>,
    /// Top-level elements (no element ancestor), in document order.
    top: Vec<u32>,
    /// Tag name → tag id (lookups only; ids follow first appearance).
    tag_ids: HashMap<String, u32>,
    /// Per tag id: the ranks of its elements, in document order.
    by_tag: Vec<Vec<u32>>,
    /// Per tag id: `(fnv1a(text), rank)` of its elements whose content
    /// is one text node, in document order (hashed while the build visits
    /// them, so a lookup never reads the document's texts in bulk).
    settled: Vec<Vec<(u64, u32)>>,
    /// Per tag id: its other elements (uncertain, mixed, nested, empty).
    unsettled: Vec<Vec<u32>>,
    /// Per tag id: its `settled` pairs sorted — the `(tag, text) →
    /// elements` map, built on the first lookup of the tag.
    value_maps: Vec<OnceLock<Vec<(u64, u32)>>>,
}

/// One reachable node, at its rank.
#[derive(Debug, Clone, Copy)]
struct Ranked {
    node: PxNodeId,
    /// The last rank inside the node's subtree.
    last: u32,
    /// The rank of the nearest element ancestor.
    elem_parent: u32,
    /// The innermost enclosing choice link, self included.
    choice: u32,
}

/// Which of the ranks a step reads it keeps.
#[derive(Clone, Copy)]
enum Keep {
    /// Every one (a descendant scan).
    All,
    /// Those in the step's list (a child list read).
    Listed,
    /// Those whose element parent is the context (a child scan).
    ChildrenOf,
}

/// One pending node of the build's depth-first pass, with what it
/// inherits from its parent.
struct Visit {
    node: PxNodeId,
    /// Rank of the parent (`NONE` for the root).
    parent: u32,
    /// Rank of the nearest element ancestor.
    elem: u32,
    /// The innermost choice link enclosing the parent.
    choice: u32,
    /// The node's index among its parent's possibilities when the parent
    /// is a multi-possibility choice point, else `NONE`.
    poss: u32,
}

/// The part of the sorted rank list `list` inside `lo..=hi`.
fn range(list: &[u32], lo: u32, hi: u32) -> &[u32] {
    let start = list.partition_point(|&r| r < lo);
    let end = list.partition_point(|&r| r <= hi);
    list.get(start..end).unwrap_or(&[])
}

/// The text of an element whose content is one text node.
pub(crate) fn single_text(doc: &PxDoc, node: PxNodeId) -> Option<&str> {
    match doc.children(node) {
        [only] => doc.text(*only),
        _ => None,
    }
}

impl DocIndex {
    /// Index `doc` in one iterative depth-first pass over its reachable
    /// nodes.
    pub fn build(doc: &PxDoc) -> DocIndex {
        let arena_len = doc.arena_len();
        let mut rank_of = vec![NONE; arena_len];
        let mut ranks: Vec<Ranked> = Vec::with_capacity(arena_len);
        let mut links: Vec<ChoiceLink> = Vec::new();
        let mut elements: Vec<u32> = Vec::new();
        // Per element, its element parent; per rank, its number of
        // element children (shifted by one, the CSR offsets to be).
        let mut element_parents: Vec<u32> = Vec::new();
        let mut kid_start = vec![0u32; arena_len + 1];
        let mut top: Vec<u32> = Vec::new();
        let mut tag_of: HashMap<&str, u32> = HashMap::new();
        let mut by_tag: Vec<Vec<u32>> = Vec::new();
        let mut settled: Vec<Vec<(u64, u32)>> = Vec::new();
        let mut unsettled: Vec<Vec<u32>> = Vec::new();
        // The ranks on the path to the node being visited, whose
        // subtrees are still open.
        let mut open: Vec<u32> = Vec::new();
        let mut stack = vec![Visit {
            node: doc.root(),
            parent: NONE,
            elem: NONE,
            choice: NONE,
            poss: NONE,
        }];
        while let Some(v) = stack.pop() {
            match rank_of.get(v.node.index()) {
                Some(&NONE) => {}
                // Seen already or out of the arena: not a tree edge.
                _ => continue,
            }
            let rank = ranks.len() as u32;
            rank_of[v.node.index()] = rank;
            // Every open subtree but the parent's ends just before here.
            while let Some(&r) = open.last() {
                if r == v.parent {
                    break;
                }
                ranks[r as usize].last = rank - 1;
                open.pop();
            }
            open.push(rank);
            let own_choice = match ranks.get(v.parent as usize) {
                Some(&Ranked { node: prob, .. }) if v.poss != NONE => {
                    links.push(ChoiceLink {
                        rank,
                        atom: ChoiceAtom {
                            prob_node: prob,
                            poss_index: v.poss,
                        },
                        up: v.choice,
                    });
                    (links.len() - 1) as u32
                }
                _ => v.choice,
            };
            ranks.push(Ranked {
                node: v.node,
                last: rank,
                elem_parent: v.elem,
                choice: own_choice,
            });
            let children = doc.children(v.node);
            let (elem, multi) = match doc.kind(v.node) {
                PxNodeKind::Elem { tag, .. } => {
                    let t = *tag_of.entry(tag.as_str()).or_insert_with(|| {
                        by_tag.push(Vec::new());
                        settled.push(Vec::new());
                        unsettled.push(Vec::new());
                        (by_tag.len() - 1) as u32
                    }) as usize;
                    elements.push(rank);
                    element_parents.push(v.elem);
                    match v.elem {
                        NONE => top.push(rank),
                        p => kid_start[p as usize + 1] += 1,
                    }
                    by_tag[t].push(rank);
                    match single_text(doc, v.node) {
                        Some(text) => settled[t].push((fnv1a(text.as_bytes()), rank)),
                        None => unsettled[t].push(rank),
                    }
                    (rank, false)
                }
                PxNodeKind::Prob => (v.elem, children.len() > 1),
                PxNodeKind::Poss | PxNodeKind::Text(_) => (v.elem, false),
            };
            for (i, &c) in children.iter().enumerate().rev() {
                stack.push(Visit {
                    node: c,
                    parent: rank,
                    elem,
                    choice: own_choice,
                    poss: if multi { i as u32 } else { NONE },
                });
            }
        }
        let n = ranks.len();
        for &r in &open {
            ranks[r as usize].last = n as u32 - 1;
        }
        kid_start.truncate(n + 1);
        for r in 0..n {
            kid_start[r + 1] += kid_start[r];
        }
        let mut fill = kid_start.clone();
        let mut kids = vec![0u32; elements.len() - top.len()];
        for (&r, &p) in elements.iter().zip(&element_parents) {
            if let Some(at) = fill.get_mut(p as usize) {
                kids[*at as usize] = r;
                *at += 1;
            }
        }
        let tag_ids = tag_of
            .into_iter()
            .map(|(name, t)| (name.to_string(), t))
            .collect();
        DocIndex {
            weights: Arc::new(doc.choice_weights()),
            rank_of,
            ranks,
            links,
            elements,
            kid_start,
            kids,
            top,
            tag_ids,
            value_maps: (0..by_tag.len()).map(|_| OnceLock::new()).collect(),
            by_tag,
            settled,
            unsettled,
        }
    }

    /// The index of `doc` as it is now: built by the first call (or
    /// query) on the document, shared by every later one until the
    /// document is modified (see [`PxDoc::derived`]).
    pub fn of(doc: &PxDoc) -> Arc<DocIndex> {
        doc.derived(DocIndex::build)
    }

    /// The document's choice weights.
    pub(crate) fn weights(&self) -> Arc<ChoiceWeights> {
        Arc::clone(&self.weights)
    }

    /// Reachable nodes indexed.
    pub fn node_count(&self) -> usize {
        self.ranks.len()
    }

    /// Rank of a node, `NONE` when it is not indexed.
    fn rank(&self, node: PxNodeId) -> u32 {
        self.rank_of.get(node.index()).copied().unwrap_or(NONE)
    }

    /// Ranks of the elements a node test selects, in document order.
    pub(crate) fn tagged(&self, test: &NodeTest) -> &[u32] {
        match test {
            NodeTest::Any => &self.elements,
            NodeTest::Tag(t) => self
                .tag_ids
                .get(t.as_str())
                .and_then(|&i| self.by_tag.get(i as usize))
                .map_or(&[], Vec::as_slice),
        }
    }

    /// Element children of a rank (`NONE`: the top-level elements).
    fn kids_of(&self, rank: u32) -> &[u32] {
        if rank == NONE {
            return &self.top;
        }
        let r = rank as usize;
        match (self.kid_start.get(r), self.kid_start.get(r + 1)) {
            (Some(&a), Some(&b)) => self.kids.get(a as usize..b as usize).unwrap_or(&[]),
            _ => &[],
        }
    }

    fn node(&self, rank: u32) -> PxNodeId {
        self.ranks[rank as usize].node
    }

    /// The event under which the element at `rank` exists, given that
    /// the context at rank `ctx` (`NONE`: the document) does: the
    /// conjunction, outermost first, of the multi-possibility choices
    /// between them.
    fn existence(&self, rank: u32, ctx: u32) -> Event {
        let below = |link: u32| {
            self.links
                .get(link as usize)
                .filter(|l| ctx == NONE || l.rank > ctx)
        };
        let Some(inner) = below(self.ranks[rank as usize].choice) else {
            return Event::True;
        };
        let Some(mut outer) = below(inner.up) else {
            return Event::Atom(inner.atom);
        };
        let mut atoms = vec![Event::Atom(inner.atom), Event::Atom(outer.atom)];
        while let Some(l) = below(outer.up) {
            atoms.push(Event::Atom(l.atom));
            outer = l;
        }
        atoms.reverse();
        Event::all(atoms)
    }

    /// The axis part of one step: the elements of `list` (sorted ranks:
    /// a node test's [`tagged`](Self::tagged) list, or a value lookup's
    /// candidates) selected from a context (`None`: the virtual document
    /// node), in document order, with their existence events relative to
    /// it.
    ///
    /// A descendant step is the range scan of the list over the
    /// context's region. A child step scans the same range keeping the
    /// context's children, or reads the context's child list when that
    /// is shorter, so neither axis costs more than its smaller input.
    pub(crate) fn step<'a>(
        &'a self,
        ctx: Option<PxNodeId>,
        axis: Axis,
        list: &'a [u32],
    ) -> impl Iterator<Item = (PxNodeId, Event)> + 'a {
        let ctx_rank = ctx.map_or(NONE, |e| self.rank(e));
        let (lo, hi) = match (ctx, ctx_rank) {
            (None, _) => (0, NONE),
            // A context outside the index selects nothing.
            (Some(_), NONE) => (1, 0),
            (Some(_), r) => (r + 1, self.ranks[r as usize].last),
        };
        let scan = range(list, lo, hi);
        let kids = self.kids_of(ctx_rank);
        let (ranks, keep) = match axis {
            Axis::Descendant => (scan, Keep::All),
            Axis::Child if kids.len() < scan.len() => (kids, Keep::Listed),
            Axis::Child => (scan, Keep::ChildrenOf),
        };
        ranks
            .iter()
            .copied()
            .filter(move |&r| match keep {
                Keep::All => true,
                Keep::Listed => list.binary_search(&r).is_ok(),
                Keep::ChildrenOf => self.ranks[r as usize].elem_parent == ctx_rank,
            })
            .map(move |r| (self.node(r), self.existence(r, ctx_rank)))
    }

    /// Ranks of the elements tagged `tag` whose value may equal
    /// `literal`: those whose single text is `literal`, and those whose
    /// value is not a single text. Unsorted.
    fn value_hits(&self, doc: &PxDoc, tag: &str, literal: &str) -> Vec<u32> {
        let Some(&t) = self.tag_ids.get(tag) else {
            return Vec::new();
        };
        let map = self.value_map(t);
        let key = fnv1a(literal.as_bytes());
        let start = map.partition_point(|&(k, _)| k < key);
        let mut hits: Vec<u32> = map
            .get(start..)
            .unwrap_or(&[])
            .iter()
            .take_while(|&&(k, _)| k == key)
            .map(|&(_, r)| r)
            .filter(|&r| single_text(doc, self.node(r)) == Some(literal))
            .collect();
        if let Some(rest) = self.unsettled.get(t as usize) {
            hits.extend_from_slice(rest);
        }
        hits
    }

    /// Tag `t`'s value map, sorted on first use. Collisions of the
    /// 64-bit digest only add hits, which [`value_hits`](Self::value_hits)
    /// checks against the text.
    fn value_map(&self, t: u32) -> &[(u64, u32)] {
        let (Some(cell), Some(settled)) = (
            self.value_maps.get(t as usize),
            self.settled.get(t as usize),
        ) else {
            return &[];
        };
        cell.get_or_init(|| {
            let mut map = settled.clone();
            map.sort_unstable();
            map
        })
    }

    /// The sorted ranks of the elements matching `test` at which the
    /// predicate `path = "literal"` can hold, or `None` when `path` is
    /// not one a value lookup answers: `.` under a tag test, or one
    /// predicate-free step with a tag test.
    pub(crate) fn eq_candidate_ranks(
        &self,
        doc: &PxDoc,
        test: &NodeTest,
        path: &RelPath,
        literal: &str,
    ) -> Option<Vec<u32>> {
        let (axis, tag) = lookup_shape(test, path)?;
        let hits = self.value_hits(doc, tag, literal);
        let mut out: Vec<u32> = match axis {
            None => hits,
            Some(Axis::Child) => hits
                .iter()
                .map(|&h| self.ranks[h as usize].elem_parent)
                .filter(|&p| p != NONE)
                .collect(),
            Some(Axis::Descendant) => {
                // Every element ancestor; a climb stops at the first
                // ancestor an earlier climb already reached.
                let mut seen: HashSet<u32> = HashSet::new();
                let mut out: Vec<u32> = Vec::new();
                for &h in &hits {
                    let mut p = self.ranks[h as usize].elem_parent;
                    while p != NONE && seen.insert(p) {
                        out.push(p);
                        p = self.ranks[p as usize].elem_parent;
                    }
                }
                out
            }
        };
        if let NodeTest::Tag(_) = test {
            out.retain(|&r| test_matches(doc, self.node(r), test));
        }
        out.sort_unstable();
        out.dedup();
        Some(out)
    }

    /// The elements matching `test` at which the predicate
    /// `path = "literal"` can hold, in document order — every element
    /// where the predicate's event is not `False` is among them — or
    /// `None` when `path` is not one a value lookup answers: a lookup
    /// answers `.` under a tag test, and any one predicate-free step
    /// with a tag test (`year`, `.//genre`).
    pub fn value_candidates(
        &self,
        doc: &PxDoc,
        test: &NodeTest,
        path: &RelPath,
        literal: &str,
    ) -> Option<Vec<PxNodeId>> {
        let ranks = self.eq_candidate_ranks(doc, test, path, literal)?;
        Some(ranks.into_iter().map(|r| self.node(r)).collect())
    }
}

/// The step shape a value lookup answers for `test[path = …]`: the
/// axis of the path's one step (`None` for `.`) and the tag it tests.
pub(crate) fn lookup_shape<'a>(
    test: &'a NodeTest,
    path: &'a RelPath,
) -> Option<(Option<Axis>, &'a str)> {
    match (path.steps.as_slice(), test) {
        ([], NodeTest::Tag(t)) => Some((None, t)),
        ([step], _) if step.predicates.is_empty() => match &step.test {
            NodeTest::Tag(t) => Some((Some(step.axis), t)),
            NodeTest::Any => None,
        },
        _ => None,
    }
}

fn test_matches(doc: &PxDoc, node: PxNodeId, test: &NodeTest) -> bool {
    match test {
        NodeTest::Any => true,
        NodeTest::Tag(t) => doc.tag(node) == Some(t.as_str()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::QueryPlan;

    /// catalog → (movie, optional movie), the second behind a 0.3 choice.
    fn doc() -> (PxDoc, PxNodeId, PxNodeId) {
        let mut px = PxDoc::new();
        let w = px.add_poss(px.root(), 1.0);
        let cat = px.add_elem(w, "catalog");
        let m1 = px.add_elem(cat, "movie");
        px.add_text_elem(m1, "title", "Jaws");
        let c = px.add_prob(cat);
        let yes = px.add_poss(c, 0.3);
        let m2 = px.add_elem(yes, "movie");
        px.add_text_elem(m2, "title", "Jaws 2");
        px.add_poss(c, 0.7);
        (px, cat, m2)
    }

    #[test]
    fn regions_nest_and_children_skip_choice_nodes() {
        let (px, cat, m2) = doc();
        let index = DocIndex::build(&px);
        assert_eq!(index.node_count(), px.reachable_count());
        assert_eq!(index.elements.len(), 5);
        let (c, m) = (index.rank(cat), index.rank(m2));
        assert!(c < m && m <= index.ranks[c as usize].last);
        assert_eq!(
            index.ranks[m as usize].elem_parent, c,
            "through prob and poss"
        );
        let kids: Vec<PxNodeId> = index.kids_of(c).iter().map(|&r| index.node(r)).collect();
        assert_eq!(kids.len(), 2);
        assert_eq!(kids[1], m2);
    }

    #[test]
    fn existence_stops_at_the_context() {
        let (px, cat, m2) = doc();
        let index = DocIndex::build(&px);
        let atom = Event::Atom(ChoiceAtom {
            prob_node: px.parent(px.parent(m2).unwrap()).unwrap(),
            poss_index: 0,
        });
        let m = index.rank(m2);
        assert_eq!(index.existence(m, NONE), atom);
        assert_eq!(index.existence(m, index.rank(cat)), atom);
        assert_eq!(index.existence(m, m), Event::True);
    }

    #[test]
    fn value_lookup_finds_settled_and_unsettled_values() {
        let (mut px, cat, _) = doc();
        let m3 = px.add_elem(cat, "movie");
        let t = px.add_elem(m3, "title");
        let c = px.add_prob(t);
        let a = px.add_poss(c, 0.5);
        px.add_text(a, "Jaws");
        let b = px.add_poss(c, 0.5);
        px.add_text(b, "Heat");
        let index = DocIndex::build(&px);
        let movie = NodeTest::Tag("movie".into());
        let title = RelPath {
            steps: vec![crate::ast::Step {
                axis: Axis::Child,
                test: NodeTest::Tag("title".into()),
                predicates: Vec::new(),
            }],
        };
        let jaws = index.value_candidates(&px, &movie, &title, "Jaws").unwrap();
        assert_eq!(jaws.len(), 2, "the certain Jaws and the uncertain title");
        assert_eq!(jaws[1], m3);
        let heat = index.value_candidates(&px, &movie, &title, "Heat").unwrap();
        assert_eq!(heat, vec![m3]);
        let none = index
            .value_candidates(&px, &movie, &title, "Alien")
            .unwrap();
        assert_eq!(none, vec![m3]);
        let any = NodeTest::Any;
        assert!(index
            .value_candidates(&px, &any, &RelPath::self_path(), "Jaws")
            .is_none());
    }

    /// A document 100 000 elements deep: `a` above 99 998 `b`s above one
    /// `leaf`. Building the index and answering the queries must not
    /// recurse once per level, and the child step of `//b/b/leaf` must
    /// read each `b`'s one child instead of scanning the `b`s below it
    /// (quadratic in the depth).
    #[test]
    fn deep_documents_do_not_overflow_the_stack() {
        const DEPTH: usize = 100_000;
        let mut px = PxDoc::new();
        let w = px.add_poss(px.root(), 1.0);
        let mut node = px.add_elem(w, "a");
        for _ in 2..DEPTH {
            node = px.add_elem(node, "b");
        }
        px.add_text_elem(node, "leaf", "found");
        let index = DocIndex::of(&px);
        assert_eq!(index.elements.len(), DEPTH);
        // `/a` asks for the value of the outermost element: the whole
        // chain's text, "found".
        for query in ["//leaf", "/a//leaf", "//b/b/leaf", "/a"] {
            let answers = QueryPlan::parse(query).unwrap().collect(&px).unwrap();
            assert_eq!(answers.len(), 1, "{query}");
            assert_eq!(answers.items[0].value, "found");
            assert_eq!(answers.items[0].probability, 1.0);
        }
    }
}
