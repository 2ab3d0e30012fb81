//! Possible-world semantics: enumeration, counting, and the most probable
//! world.
//!
//! "In theory, the semantics of a query is the set of possible answers
//! obtained by evaluating the query in each of the possible worlds
//! separately" (§VI). Enumeration is exponential and only used on small
//! documents and as a correctness oracle in tests; the analytic counters
//! scale to the paper's millions-of-worlds documents.
//!
//! There is one enumerator of each kind. Whole worlds come from
//! [`PxDoc::worlds_iter`], which decodes each world lazily from its index;
//! [`PxDoc::worlds`] is its capped, collected form. The local worlds of
//! one child list — the cross product of its choice points, which
//! integration and [`PxDoc::to_unfactored`] work on — come from
//! [`PxDoc::local_alternatives`].

use crate::node::{PxDoc, PxNodeId, PxNodeKind};
use imprecise_xmlkit::{subtree_fingerprint, XmlDoc};
use std::collections::HashMap;
use std::fmt;

/// One possible world: a plain XML document and its probability.
#[derive(Debug, Clone)]
pub struct World {
    /// The world's document.
    pub doc: XmlDoc,
    /// The world's probability (product of the chosen possibilities).
    pub prob: f64,
}

/// Error returned when enumeration would exceed the requested cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooManyWorlds {
    /// The cap that would have been exceeded.
    pub cap: usize,
}

impl fmt::Display for TooManyWorlds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "more than {} possible worlds", self.cap)
    }
}

impl std::error::Error for TooManyWorlds {}

impl PxDoc {
    /// Exact number of possible worlds, saturating at `u128::MAX`.
    pub fn world_count(&self) -> u128 {
        self.world_counts()[self.root().index()]
    }

    /// The saturating world count of every reachable node's subtree, by
    /// arena index. Children come after their parent in document order,
    /// so a reverse walk counts every child first, without recursion.
    fn world_counts(&self) -> Vec<u128> {
        let mut counts = vec![0; self.arena_len()];
        let order: Vec<PxNodeId> = self.descendants(self.root()).collect();
        for &node in order.iter().rev() {
            let kids = self.children(node).iter().map(|c| counts[c.index()]);
            counts[node.index()] = if self.is_prob(node) {
                kids.fold(0, u128::saturating_add)
            } else {
                kids.fold(1, u128::saturating_mul)
            };
        }
        counts
    }

    /// Number of possible worlds as an `f64` (exact until precision runs
    /// out, then a close approximation; never saturates). This is what the
    /// Figure 5 style log-scale plots use.
    pub fn world_count_f64(&self) -> f64 {
        // A reverse document-order walk, as `world_counts`.
        let mut counts = vec![0.0; self.arena_len()];
        let order: Vec<PxNodeId> = self.descendants(self.root()).collect();
        for &node in order.iter().rev() {
            let kids = self.children(node).iter().map(|c| counts[c.index()]);
            counts[node.index()] = match self.kind(node) {
                PxNodeKind::Text(_) => 1.0,
                PxNodeKind::Elem { .. } | PxNodeKind::Poss => kids.product(),
                PxNodeKind::Prob => kids.sum(),
            };
        }
        counts[self.root().index()]
    }

    /// Lazily iterate over all possible worlds in a deterministic order:
    /// possibilities in document order, leftmost choice varying slowest.
    ///
    /// Each world is built on demand by mixed-radix decoding of its index
    /// against the per-subtree world counts (computed once, when the
    /// iterator is created), so short-circuiting searches (`any`, `find`,
    /// `take`) never materialise the full — potentially astronomically
    /// large — world set.
    pub fn worlds_iter(&self) -> WorldIter<'_> {
        let counts = self.world_counts();
        let count = counts[self.root().index()];
        WorldIter {
            doc: self,
            counts,
            next: 0,
            count,
        }
    }

    /// The `k`-th possible world (0-based, [`PxDoc::worlds_iter`] order),
    /// or `None` when `k` is out of range.
    pub fn nth_world(&self, k: u128) -> Option<World> {
        let mut worlds = self.worlds_iter();
        worlds.next = k;
        worlds.next()
    }

    /// All possible worlds with their probabilities, in
    /// [`PxDoc::worlds_iter`] order, or an error when there are more than
    /// `cap` of them.
    pub fn worlds(&self, cap: usize) -> Result<Vec<World>, TooManyWorlds> {
        let worlds = self.worlds_iter();
        if worlds.count > cap as u128 {
            return Err(TooManyWorlds { cap });
        }
        Ok(worlds.collect())
    }

    /// The local alternatives of an item list: every concrete list its
    /// choice points can resolve to, with its probability.
    ///
    /// Regular items stay in place; each probability node expands into
    /// the alternatives of its possibilities' contents (recursively, since
    /// a possibility may itself directly contain choice points). The
    /// result is the cross product over the list's choice points, leftmost
    /// varying slowest, and its weights sum to 1. The alternatives of a
    /// single choice point are `local_alternatives(&[prob], cap)`.
    ///
    /// This is how integration treats an already-probabilistic input
    /// (§I's incremental integration): it integrates each local world of a
    /// child list separately. Fails as soon as more than `cap`
    /// alternatives would be produced, at any level.
    pub fn local_alternatives(
        &self,
        items: &[PxNodeId],
        cap: usize,
    ) -> Result<Vec<(Vec<PxNodeId>, f64)>, TooManyWorlds> {
        let mut acc: Vec<(Vec<PxNodeId>, f64)> = vec![(Vec::new(), 1.0)];
        for &item in items {
            if !self.is_prob(item) {
                for (row, _) in &mut acc {
                    row.push(item);
                }
                continue;
            }
            let mut alternatives: Vec<(Vec<PxNodeId>, f64)> = Vec::new();
            for (poss, w) in self.possibilities(item) {
                for (inner, iw) in self.local_alternatives(self.children(poss), cap)? {
                    alternatives.push((inner, w * iw));
                    if alternatives.len() > cap {
                        return Err(TooManyWorlds { cap });
                    }
                }
            }
            let len = acc.len().saturating_mul(alternatives.len());
            if len > cap {
                return Err(TooManyWorlds { cap });
            }
            let mut next = Vec::with_capacity(len);
            for (row, rw) in &acc {
                for (alt, w) in &alternatives {
                    let mut row2 = row.clone();
                    row2.extend_from_slice(alt);
                    next.push((row2, rw * w));
                }
            }
            acc = next;
        }
        Ok(acc)
    }

    /// Enumerate worlds and aggregate deep-equal documents, summing their
    /// probabilities. Sorted by descending probability (ties: first seen
    /// first). Useful as a semantic oracle: two representations are
    /// equivalent iff their distributions match.
    pub fn world_distribution(&self, cap: usize) -> Result<Vec<World>, TooManyWorlds> {
        let worlds = self.worlds(cap)?;
        let mut order: Vec<World> = Vec::new();
        let mut index: HashMap<u64, usize> = HashMap::new();
        for w in worlds {
            let fp = subtree_fingerprint(&w.doc, w.doc.root());
            match index.get(&fp) {
                Some(&i) => order[i].prob += w.prob,
                None => {
                    index.insert(fp, order.len());
                    order.push(w);
                }
            }
        }
        order.sort_by(|a, b| b.prob.total_cmp(&a.prob));
        Ok(order)
    }

    /// The single most probable world (MAP world), computed exactly by
    /// bottom-up dynamic programming.
    ///
    /// A greedy top-down argmax is *not* exact: a locally less likely
    /// possibility whose contents hold no further choices can dominate a
    /// more likely possibility whose nested choices dilute the product.
    /// The DP scores every node with the best achievable probability of
    /// its subtree first, then reconstructs the choices.
    pub fn most_probable_world(&self) -> World {
        let best = self.map_scores();
        let root_poss = self.best_poss(self.root(), &best);
        let prob = best[self.root().index()];
        // The root possibility holds exactly one element (validated).
        let root_elem = self.children(root_poss)[0];
        // lint:allow(expect-in-lib, holds by construction: root content is an element)
        let tag = self.tag(root_elem).expect("root content is an element");
        let mut doc = XmlDoc::new(tag);
        for a in self.attrs(root_elem) {
            doc.set_attr(doc.root(), a.name.clone(), a.value.clone());
        }
        let root = doc.root();
        self.build_map_world(self.children(root_elem), &best, &mut doc, root);
        World { doc, prob }
    }

    /// Best achievable subtree probability of every reachable node, by
    /// arena index: a reverse document-order walk scores every child
    /// before its parent, without recursion, folding children in order.
    fn map_scores(&self) -> Vec<f64> {
        let mut best = vec![f64::NAN; self.arena_len()];
        let order: Vec<PxNodeId> = self.descendants(self.root()).collect();
        for &node in order.iter().rev() {
            let kids = self.children(node).iter().map(|c| best[c.index()]);
            let score = match self.kind(node) {
                PxNodeKind::Text(_) => 1.0,
                PxNodeKind::Elem { .. } => kids.fold(1.0, |acc, s| acc * s),
                PxNodeKind::Poss => kids.fold(self.nodes.weight(node.index()), |acc, s| acc * s),
                PxNodeKind::Prob => kids.fold(f64::NEG_INFINITY, f64::max),
            };
            best[node.index()] = score;
        }
        best
    }

    /// The possibility of `prob_node` achieving the best score.
    fn best_poss(&self, prob_node: PxNodeId, best: &[f64]) -> PxNodeId {
        self.children(prob_node)
            .iter()
            .copied()
            .max_by(|&a, &b| best[a.index()].total_cmp(&best[b.index()]))
            // lint:allow(expect-in-lib, holds by construction: probability node has possibilities)
            .expect("probability node has possibilities")
    }

    /// Build the MAP choices of `items` under `parent`, in document order,
    /// from an explicit stack.
    fn build_map_world(
        &self,
        items: &[PxNodeId],
        best: &[f64],
        doc: &mut XmlDoc,
        parent: imprecise_xmlkit::NodeId,
    ) {
        let mut stack: Vec<(PxNodeId, imprecise_xmlkit::NodeId)> =
            items.iter().rev().map(|&c| (c, parent)).collect();
        while let Some((node, parent)) = stack.pop() {
            match self.kind(node) {
                PxNodeKind::Text(t) => {
                    doc.add_text(parent, t.clone());
                }
                PxNodeKind::Elem { tag, attrs } => {
                    let el = doc.add_element(parent, tag.clone());
                    for a in attrs {
                        doc.set_attr(el, a.name.clone(), a.value.clone());
                    }
                    stack.extend(self.children(node).iter().rev().map(|&c| (c, el)));
                }
                PxNodeKind::Prob => {
                    let chosen = self.best_poss(node, best);
                    stack.extend(self.children(chosen).iter().rev().map(|&c| (c, parent)));
                }
                // lint:allow(panic-in-lib, statically unreachable: poss reached outside prob handling)
                PxNodeKind::Poss => unreachable!("poss reached outside prob handling"),
            }
        }
    }
}

/// Lazy possible-world iterator, created by [`PxDoc::worlds_iter`].
///
/// `size_hint` is exact when the world count fits a `usize`.
pub struct WorldIter<'a> {
    doc: &'a PxDoc,
    /// World count of every reachable node's subtree, by arena index.
    counts: Vec<u128>,
    next: u128,
    count: u128,
}

impl WorldIter<'_> {
    /// Build world `k` (`k < count`).
    fn world(&self, k: u128) -> World {
        let doc = self.doc;
        // The root is a probability node whose chosen possibility holds a
        // single element (validated).
        let (poss, mut prob, rem) = self.choose(doc.root(), k);
        let elem = doc.children(poss)[0];
        // lint:allow(expect-in-lib, holds by construction: root content is an element)
        let tag = doc.tag(elem).expect("root content is an element");
        let mut out = XmlDoc::new(tag);
        let root = out.root();
        for a in doc.attrs(elem) {
            out.set_attr(root, a.name.clone(), a.value.clone());
        }
        self.decode_children(doc.children(elem), rem, &mut out, root, &mut prob);
        World { doc: out, prob }
    }

    /// The possibility of `prob` that world digit `digit` selects, its
    /// weight, and the digit left over for its content.
    fn choose(&self, prob: PxNodeId, mut digit: u128) -> (PxNodeId, f64, u128) {
        for &poss in self.doc.children(prob) {
            let bucket = self.counts[poss.index()];
            if digit < bucket {
                // A probability node's children are possibilities.
                return (poss, self.doc.poss_prob(poss).unwrap_or(1.0), digit);
            }
            digit -= bucket;
        }
        // lint:allow(panic-in-lib, statically unreachable: a digit below the count falls in a bucket)
        unreachable!("a digit below the count falls in a bucket")
    }

    /// Split digit `k` over a sibling sequence (mixed radix, leftmost
    /// sibling most significant) into each sibling's own digit.
    fn digits(&self, nodes: &[PxNodeId], mut k: u128) -> std::vec::IntoIter<(PxNodeId, u128)> {
        // Suffix products of the per-sibling world counts.
        let mut suffix = vec![1u128; nodes.len() + 1];
        for (i, &n) in nodes.iter().enumerate().rev() {
            suffix[i] = suffix[i + 1].saturating_mul(self.counts[n.index()]);
        }
        let mut out = Vec::with_capacity(nodes.len());
        for (i, &n) in nodes.iter().enumerate() {
            out.push((n, k / suffix[i + 1]));
            k %= suffix[i + 1];
        }
        out.into_iter()
    }

    /// Decode digit `k` over a sibling sequence and build the chosen
    /// fragments under `parent`, multiplying the chosen possibilities'
    /// weights into `prob` in document order. An explicit stack of
    /// sibling sequences replaces recursion, so depth costs heap, not
    /// call stack.
    fn decode_children(
        &self,
        nodes: &[PxNodeId],
        k: u128,
        out: &mut XmlDoc,
        parent: imprecise_xmlkit::NodeId,
        prob: &mut f64,
    ) {
        let doc = self.doc;
        let mut stack = vec![(self.digits(nodes, k), parent)];
        while let Some((siblings, parent)) = stack.last_mut() {
            let parent = *parent;
            let Some((node, digit)) = siblings.next() else {
                stack.pop();
                continue;
            };
            match doc.kind(node) {
                PxNodeKind::Text(t) => {
                    debug_assert_eq!(digit, 0);
                    out.add_text(parent, t.clone());
                }
                PxNodeKind::Elem { tag, attrs } => {
                    let el = out.add_element(parent, tag.clone());
                    for a in attrs {
                        out.set_attr(el, a.name.clone(), a.value.clone());
                    }
                    stack.push((self.digits(doc.children(node), digit), el));
                }
                PxNodeKind::Prob => {
                    let (poss, weight, rem) = self.choose(node, digit);
                    *prob *= weight;
                    stack.push((self.digits(doc.children(poss), rem), parent));
                }
                // lint:allow(panic-in-lib, statically unreachable: poss decoded via its prob parent)
                PxNodeKind::Poss => unreachable!("poss decoded via its prob parent"),
            }
        }
    }
}

impl Iterator for WorldIter<'_> {
    type Item = World;

    fn next(&mut self) -> Option<World> {
        if self.next >= self.count {
            return None;
        }
        let world = self.world(self.next);
        self.next += 1;
        Some(world)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.count.saturating_sub(self.next);
        match usize::try_from(remaining) {
            Ok(n) => (n, Some(n)),
            Err(_) => (usize::MAX, None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imprecise_xmlkit::to_string;

    #[test]
    fn fig2_has_three_worlds() {
        let px = crate::node::tests::fig2();
        assert_eq!(px.world_count(), 3);
        assert_eq!(px.world_count_f64(), 3.0);
        let worlds = px.worlds(100).unwrap();
        assert_eq!(worlds.len(), 3);
        let total: f64 = worlds.iter().map(|w| w.prob).sum();
        assert!((total - 1.0).abs() < 1e-12);
        let texts: Vec<String> = worlds.iter().map(|w| to_string(&w.doc)).collect();
        assert!(texts[0].contains("<tel>1111</tel>"));
        assert!(!texts[0].contains("2222"));
        assert!(texts[1].contains("<tel>2222</tel>"));
        // Third world: two persons.
        assert_eq!(texts[2].matches("<person>").count(), 2);
    }

    #[test]
    fn world_probabilities_multiply_along_choices() {
        let px = crate::node::tests::fig2();
        let worlds = px.worlds(100).unwrap();
        // Worlds 1 and 2 each require two choices of 0.5 → 0.25.
        assert!((worlds[0].prob - 0.25).abs() < 1e-12);
        assert!((worlds[1].prob - 0.25).abs() < 1e-12);
        assert!((worlds[2].prob - 0.5).abs() < 1e-12);
    }

    #[test]
    fn certain_doc_has_one_world() {
        let mut px = PxDoc::new();
        let w = px.add_poss(px.root(), 1.0);
        let e = px.add_elem(w, "a");
        px.add_text_elem(e, "b", "x");
        assert_eq!(px.world_count(), 1);
        let worlds = px.worlds(10).unwrap();
        assert_eq!(worlds.len(), 1);
        assert_eq!(to_string(&worlds[0].doc), "<a><b>x</b></a>");
        assert!((worlds[0].prob - 1.0).abs() < 1e-12);
    }

    #[test]
    fn independent_choices_multiply() {
        // Element with two independent binary choices → 4 worlds.
        let mut px = PxDoc::new();
        let w = px.add_poss(px.root(), 1.0);
        let e = px.add_elem(w, "movie");
        for (tag, v1, v2) in [("year", "1995", "1996"), ("rating", "A", "B")] {
            let c = px.add_prob(e);
            let p1 = px.add_poss(c, 0.5);
            px.add_text_elem(p1, tag, v1);
            let p2 = px.add_poss(c, 0.5);
            px.add_text_elem(p2, tag, v2);
        }
        assert_eq!(px.world_count(), 4);
        let worlds = px.worlds(10).unwrap();
        assert_eq!(worlds.len(), 4);
        for w in &worlds {
            assert!((w.prob - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn cap_is_enforced() {
        let px = crate::node::tests::fig2();
        assert_eq!(px.worlds(2).unwrap_err(), TooManyWorlds { cap: 2 });
    }

    #[test]
    fn nested_choice_worlds_do_not_multiply_across_exclusive_branches() {
        // A choice whose first branch contains a nested choice: worlds = 2 + 1.
        let mut px = PxDoc::new();
        let w = px.add_poss(px.root(), 1.0);
        let e = px.add_elem(w, "doc");
        let outer = px.add_prob(e);
        let a = px.add_poss(outer, 0.6);
        let inner_holder = px.add_elem(a, "x");
        let inner = px.add_prob(inner_holder);
        let a1 = px.add_poss(inner, 0.5);
        px.add_text_elem(a1, "v", "1");
        let a2 = px.add_poss(inner, 0.5);
        px.add_text_elem(a2, "v", "2");
        let b = px.add_poss(outer, 0.4);
        px.add_text_elem(b, "y", "3");
        assert_eq!(px.world_count(), 3);
        let worlds = px.worlds(10).unwrap();
        let probs: Vec<f64> = worlds.iter().map(|w| w.prob).collect();
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((probs[0] - 0.3).abs() < 1e-12);
        assert!((probs[2] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn distribution_merges_equal_worlds() {
        // Two possibilities with identical content → one world at p=1.
        let mut px = PxDoc::new();
        for p in [0.5, 0.5] {
            let w = px.add_poss(px.root(), p);
            let e = px.add_elem(w, "a");
            px.add_text(e, "same");
        }
        let dist = px.world_distribution(10).unwrap();
        assert_eq!(dist.len(), 1);
        assert!((dist[0].prob - 1.0).abs() < 1e-12);
    }

    #[test]
    fn worlds_iter_matches_materialized_enumeration() {
        for px in [crate::node::tests::fig2(), {
            let mut px = PxDoc::new();
            let w = px.add_poss(px.root(), 1.0);
            let e = px.add_elem(w, "movie");
            for (tag, v1, v2) in [("year", "1995", "1996"), ("rating", "A", "B")] {
                let c = px.add_prob(e);
                let p1 = px.add_poss(c, 0.3);
                px.add_text_elem(p1, tag, v1);
                let p2 = px.add_poss(c, 0.7);
                px.add_text_elem(p2, tag, v2);
            }
            px
        }] {
            let eager = px.worlds(1000).unwrap();
            let lazy: Vec<World> = px.worlds_iter().collect();
            assert_eq!(eager.len(), lazy.len());
            for (a, b) in eager.iter().zip(&lazy) {
                assert_eq!(to_string(&a.doc), to_string(&b.doc));
                assert!((a.prob - b.prob).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn worlds_cap_boundary() {
        let px = crate::node::tests::fig2();
        let n = usize::try_from(px.world_count()).unwrap();
        let all = px.worlds(n).unwrap();
        let lazy: Vec<World> = px.worlds_iter().collect();
        assert_eq!(all.len(), lazy.len());
        for (a, b) in all.iter().zip(&lazy) {
            assert_eq!(to_string(&a.doc), to_string(&b.doc));
            assert_eq!(a.prob.to_bits(), b.prob.to_bits());
        }
        assert_eq!(px.worlds(n - 1).unwrap_err(), TooManyWorlds { cap: n - 1 });
    }

    #[test]
    fn deep_documents_count_their_worlds() {
        let mut px = PxDoc::new();
        let w = px.add_poss(px.root(), 1.0);
        let mut node = px.add_elem(w, "a");
        for _ in 1..100_000 {
            node = px.add_elem(node, "b");
        }
        let c = px.add_prob(node);
        for v in ["x", "y"] {
            let p = px.add_poss(c, 0.5);
            px.add_text(p, v);
        }
        assert_eq!(px.world_count(), 2);
    }

    /// Decoding a world and building the MAP world walk explicit stacks:
    /// a 10⁵-deep chain built through the API does not overflow.
    #[test]
    fn deep_documents_decode_their_worlds() {
        let mut px = PxDoc::new();
        let w = px.add_poss(px.root(), 1.0);
        let mut node = px.add_elem(w, "a");
        for _ in 1..100_000 {
            node = px.add_elem(node, "b");
        }
        let c = px.add_prob(node);
        for (v, p) in [("x", 0.4), ("y", 0.6)] {
            let poss = px.add_poss(c, p);
            px.add_text(poss, v);
        }
        assert_eq!(px.world_count_f64(), 2.0);
        let worlds: Vec<World> = px.worlds_iter().collect();
        let probs: Vec<f64> = worlds.iter().map(|w| w.prob).collect();
        assert_eq!(probs, vec![0.4, 0.6]);
        for w in &worlds {
            assert_eq!(w.doc.len(), 100_001, "the chain and its one text");
        }
        let second = px.nth_world(1).expect("two worlds");
        assert_eq!(second.prob.to_bits(), worlds[1].prob.to_bits());
        let map = px.most_probable_world();
        assert_eq!(map.prob, 0.6);
        assert_eq!(map.doc.len(), 100_001);
    }

    #[test]
    fn nth_world_bounds() {
        let px = crate::node::tests::fig2();
        assert!(px.nth_world(2).is_some());
        assert!(px.nth_world(3).is_none());
    }

    #[test]
    fn worlds_iter_short_circuits_on_huge_spaces() {
        // 40 independent binary choices → 2^40 worlds; taking a handful
        // must not enumerate the space.
        let mut px = PxDoc::new();
        let w = px.add_poss(px.root(), 1.0);
        let e = px.add_elem(w, "doc");
        for i in 0..40 {
            let c = px.add_prob(e);
            let a = px.add_poss(c, 0.5);
            px.add_text_elem(a, "v", format!("{i}a"));
            let b = px.add_poss(c, 0.5);
            px.add_text_elem(b, "v", format!("{i}b"));
        }
        assert_eq!(px.world_count(), 1u128 << 40);
        let first: Vec<World> = px.worlds_iter().take(3).collect();
        assert_eq!(first.len(), 3);
        // First world: every choice takes its first possibility.
        assert!(to_string(&first[0].doc).contains("<v>0a</v>"));
        assert!(!to_string(&first[0].doc).contains("<v>0b</v>"));
        // Second world: only the last (least significant) choice flips.
        assert!(to_string(&first[1].doc).contains("<v>39b</v>"));
        assert!(to_string(&first[1].doc).contains("<v>0a</v>"));
        // A short-circuiting search succeeds without materialisation.
        assert!(px
            .worlds_iter()
            .take(10)
            .any(|w| to_string(&w.doc).contains("<v>38b</v>")));
    }

    #[test]
    fn worlds_iter_size_hint_is_exact_when_it_fits() {
        let px = crate::node::tests::fig2();
        let mut it = px.worlds_iter();
        assert_eq!(it.size_hint(), (3, Some(3)));
        it.next();
        assert_eq!(it.size_hint(), (2, Some(2)));
    }

    #[test]
    fn most_probable_world_picks_argmax_everywhere() {
        let mut px = PxDoc::new();
        let w1 = px.add_poss(px.root(), 0.3);
        let e1 = px.add_elem(w1, "doc");
        px.add_text(e1, "minor");
        let w2 = px.add_poss(px.root(), 0.7);
        let e2 = px.add_elem(w2, "doc");
        let c = px.add_prob(e2);
        let c1 = px.add_poss(c, 0.2);
        px.add_text_elem(c1, "v", "rare");
        let c2 = px.add_poss(c, 0.8);
        px.add_text_elem(c2, "v", "common");
        let map = px.most_probable_world();
        assert!((map.prob - 0.56).abs() < 1e-12);
        assert_eq!(to_string(&map.doc), "<doc><v>common</v></doc>");
    }

    #[test]
    fn map_world_is_among_enumerated_worlds_with_max_prob() {
        let px = crate::node::tests::fig2();
        let map = px.most_probable_world();
        let worlds = px.worlds(100).unwrap();
        let max = worlds.iter().map(|w| w.prob).fold(f64::MIN, f64::max);
        assert!((map.prob - max).abs() < 1e-12);
    }

    /// The local alternatives of a child list.
    mod local_alternatives {
        use super::*;

        /// doc element with children: <x/>, prob{0.4: <y1/>; 0.6: <y2/>}, <z/>.
        fn simple() -> (PxDoc, PxNodeId) {
            let mut px = PxDoc::new();
            let w = px.add_poss(px.root(), 1.0);
            let e = px.add_elem(w, "doc");
            px.add_elem(e, "x");
            let p = px.add_prob(e);
            let p1 = px.add_poss(p, 0.4);
            px.add_elem(p1, "y1");
            let p2 = px.add_poss(p, 0.6);
            px.add_elem(p2, "y2");
            px.add_elem(e, "z");
            (px, e)
        }

        #[test]
        fn certain_list_is_single_combo() {
            let mut px = PxDoc::new();
            let w = px.add_poss(px.root(), 1.0);
            let e = px.add_elem(w, "doc");
            px.add_elem(e, "x");
            px.add_elem(e, "y");
            let combos = px.local_alternatives(px.children(e), 100).unwrap();
            assert_eq!(combos.len(), 1);
            assert_eq!(combos[0].0.len(), 2);
            assert!((combos[0].1 - 1.0).abs() < 1e-12);
        }

        #[test]
        fn one_choice_expands_in_order() {
            let (px, e) = simple();
            let combos = px.local_alternatives(px.children(e), 100).unwrap();
            assert_eq!(combos.len(), 2);
            let tags0: Vec<&str> = combos[0].0.iter().filter_map(|&n| px.tag(n)).collect();
            assert_eq!(tags0, vec!["x", "y1", "z"]);
            assert!((combos[0].1 - 0.4).abs() < 1e-12);
            let tags1: Vec<&str> = combos[1].0.iter().filter_map(|&n| px.tag(n)).collect();
            assert_eq!(tags1, vec!["x", "y2", "z"]);
            assert!((combos[1].1 - 0.6).abs() < 1e-12);
        }

        #[test]
        fn two_choices_cross_product() {
            let mut px = PxDoc::new();
            let w = px.add_poss(px.root(), 1.0);
            let e = px.add_elem(w, "doc");
            for (t1, t2) in [("a1", "a2"), ("b1", "b2")] {
                let p = px.add_prob(e);
                let x = px.add_poss(p, 0.5);
                px.add_elem(x, t1);
                let y = px.add_poss(p, 0.5);
                px.add_elem(y, t2);
            }
            let combos = px.local_alternatives(px.children(e), 100).unwrap();
            assert_eq!(combos.len(), 4);
            let total: f64 = combos.iter().map(|c| c.1).sum();
            assert!((total - 1.0).abs() < 1e-12);
        }

        #[test]
        fn nested_choices_flatten() {
            // prob{0.5: prob{0.5: <a/>, 0.5: <b/>}; 0.5: <c/>} → 3 alternatives.
            let mut px = PxDoc::new();
            let w = px.add_poss(px.root(), 1.0);
            let e = px.add_elem(w, "doc");
            let outer = px.add_prob(e);
            let o1 = px.add_poss(outer, 0.5);
            let inner = px.add_prob(o1);
            let i1 = px.add_poss(inner, 0.5);
            px.add_elem(i1, "a");
            let i2 = px.add_poss(inner, 0.5);
            px.add_elem(i2, "b");
            let o2 = px.add_poss(outer, 0.5);
            px.add_elem(o2, "c");
            let combos = px.local_alternatives(px.children(e), 100).unwrap();
            assert_eq!(combos.len(), 3);
            let weights: Vec<f64> = combos.iter().map(|c| c.1).collect();
            assert!((weights[0] - 0.25).abs() < 1e-12);
            assert!((weights[1] - 0.25).abs() < 1e-12);
            assert!((weights[2] - 0.5).abs() < 1e-12);
        }

        #[test]
        fn possibility_with_empty_content_yields_empty_items() {
            let mut px = PxDoc::new();
            let w = px.add_poss(px.root(), 1.0);
            let e = px.add_elem(w, "doc");
            let p = px.add_prob(e);
            let with = px.add_poss(p, 0.5);
            px.add_elem(with, "present");
            let _without = px.add_poss(p, 0.5);
            let combos = px.local_alternatives(px.children(e), 100).unwrap();
            assert_eq!(combos.len(), 2);
            assert_eq!(combos[0].0.len(), 1);
            assert!(combos[1].0.is_empty());
        }

        #[test]
        fn cap_enforced() {
            let mut px = PxDoc::new();
            let w = px.add_poss(px.root(), 1.0);
            let e = px.add_elem(w, "doc");
            for _ in 0..6 {
                let p = px.add_prob(e);
                for weight in [0.5, 0.5] {
                    let poss = px.add_poss(p, weight);
                    px.add_elem(poss, "v");
                }
            }
            // 2^6 = 64 combos > cap 32.
            assert_eq!(
                px.local_alternatives(px.children(e), 32).unwrap_err(),
                TooManyWorlds { cap: 32 }
            );
        }
    }
}
