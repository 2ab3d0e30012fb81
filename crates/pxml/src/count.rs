//! Representation-size accounting.
//!
//! The paper measures uncertainty as "the number of nodes used to represent
//! these possible worlds in the database" (§V) — that is the size of the
//! probabilistic document itself, not the number of worlds. Two sizes
//! matter:
//!
//! * the **factored** size — this crate's native representation, in which
//!   every independent choice point is its own probability node
//!   ([`PxDoc::node_breakdown`]);
//! * the **unfactored** size — the size the document would have if every
//!   element merged all its probability-node children into a single
//!   probability node by cross-product. This is the representation of the
//!   paper's own engine (its integration emits one choice point per element)
//!   and therefore the quantity reproduced in Table I and Figure 5.
//!
//! The unfactored size is computed *analytically* — no cross product is
//! materialised — so counting stays cheap even when the equivalent
//! unfactored document would have 10⁹ nodes. [`PxDoc::to_unfactored`]
//! materialises the transformation (with a node cap) so tests can verify
//! the analytic count and the world-distribution equivalence.

use crate::node::{PxDoc, PxNodeId, PxNodeKind};
use std::fmt;

/// Per-kind node counts of the factored representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeBreakdown {
    /// Probability (choice) nodes.
    pub prob: usize,
    /// Possibility nodes.
    pub poss: usize,
    /// Element nodes.
    pub elem: usize,
    /// Text nodes.
    pub text: usize,
}

impl NodeBreakdown {
    /// Total node count.
    pub fn total(&self) -> usize {
        self.prob + self.poss + self.elem + self.text
    }
}

impl fmt::Display for NodeBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} nodes ({} prob, {} poss, {} elem, {} text)",
            self.total(),
            self.prob,
            self.poss,
            self.elem,
            self.text
        )
    }
}

/// Error from [`PxDoc::to_unfactored`] when materialisation would exceed
/// the node cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnfactoredError {
    /// The node cap that would have been exceeded.
    pub cap: usize,
}

impl fmt::Display for UnfactoredError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unfactored document exceeds {} nodes", self.cap)
    }
}

impl std::error::Error for UnfactoredError {}

impl PxDoc {
    /// Count reachable nodes by kind (factored representation size).
    pub fn node_breakdown(&self) -> NodeBreakdown {
        let mut b = NodeBreakdown::default();
        for n in self.descendants(self.root()) {
            match self.kind(n) {
                PxNodeKind::Prob => b.prob += 1,
                PxNodeKind::Poss => b.poss += 1,
                PxNodeKind::Elem { .. } => b.elem += 1,
                PxNodeKind::Text(_) => b.text += 1,
            }
        }
        b
    }

    /// Size of the equivalent unfactored document (see module docs),
    /// computed analytically as an `f64`.
    ///
    /// The unfactored form is exactly the paper's *strict layered* model:
    /// one probability node per element, alternatives with choice-free
    /// top-level contents. Sibling probability nodes merge by
    /// cross-product; nested choices (a probability node directly under a
    /// possibility) flatten into their enclosing choice point.
    pub fn unfactored_node_count(&self) -> f64 {
        let (n, u) = self.flat_prob_stats(self.root());
        1.0 + n + u
    }

    /// Flattened statistics of a probability node: `(n, U)` where `n` is
    /// the number of flattened alternatives and `U` the total unfactored
    /// size of their contents (excluding the possibility nodes themselves).
    fn flat_prob_stats(&self, prob: PxNodeId) -> (f64, f64) {
        let mut n_total = 0.0;
        let mut u_total = 0.0;
        for &poss in self.children(prob) {
            // Partition the possibility's children into certain regular
            // items and nested choice points.
            let mut s_certain = 0.0;
            let mut nested: Vec<(f64, f64)> = Vec::new();
            for &c in self.children(poss) {
                match self.kind(c) {
                    PxNodeKind::Prob => nested.push(self.flat_prob_stats(c)),
                    _ => s_certain += self.unfactored_regular_count(c),
                }
            }
            let prod_all: f64 = nested.iter().map(|s| s.0).product();
            let mut u_poss = s_certain * prod_all;
            for (i, (_, u_i)) in nested.iter().enumerate() {
                let prod_others: f64 = nested
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(_, s)| s.0)
                    .product();
                u_poss += u_i * prod_others;
            }
            n_total += prod_all;
            u_total += u_poss;
        }
        (n_total, u_total)
    }

    fn unfactored_regular_count(&self, node: PxNodeId) -> f64 {
        match self.kind(node) {
            PxNodeKind::Text(_) => 1.0,
            PxNodeKind::Elem { .. } => {
                let mut total = 1.0;
                let mut probs: Vec<(f64, f64)> = Vec::new();
                for &c in self.children(node) {
                    match self.kind(c) {
                        PxNodeKind::Prob => probs.push(self.flat_prob_stats(c)),
                        _ => total += self.unfactored_regular_count(c),
                    }
                }
                if !probs.is_empty() {
                    // Merge the element's choice points into one probability
                    // node by cross-product:
                    //   1 prob node
                    // + Π nᵢ possibility nodes
                    // + Σᵢ (Uᵢ · Π_{j≠i} nⱼ) content nodes.
                    let prod_all: f64 = probs.iter().map(|s| s.0).product();
                    let mut content_total = 0.0;
                    for (i, (_, u)) in probs.iter().enumerate() {
                        let prod_others: f64 = probs
                            .iter()
                            .enumerate()
                            .filter(|(j, _)| *j != i)
                            .map(|(_, s)| s.0)
                            .product();
                        content_total += u * prod_others;
                    }
                    total += 1.0 + prod_all + content_total;
                }
                total
            }
            PxNodeKind::Prob | PxNodeKind::Poss => {
                // lint:allow(panic-in-lib, statically unreachable: regular count called on choice node)
                unreachable!("regular count called on choice node")
            }
        }
    }

    /// Expected number of nodes of a randomly drawn world (element + text
    /// nodes only; choice machinery does not appear in worlds).
    pub fn expected_world_size(&self) -> f64 {
        self.ews(self.root())
    }

    fn ews(&self, node: PxNodeId) -> f64 {
        match self.kind(node) {
            PxNodeKind::Text(_) => 1.0,
            PxNodeKind::Elem { .. } => {
                1.0 + self
                    .children(node)
                    .iter()
                    .map(|&c| self.ews(c))
                    .sum::<f64>()
            }
            PxNodeKind::Prob => self
                .children(node)
                .iter()
                .map(|&poss| {
                    // lint:allow(expect-in-lib, holds by construction: prob child is poss)
                    let w = self.poss_prob(poss).expect("prob child is poss");
                    let inner: f64 = self.children(poss).iter().map(|&c| self.ews(c)).sum();
                    w * inner
                })
                .sum(),
            // lint:allow(panic-in-lib, statically unreachable: poss handled by prob)
            PxNodeKind::Poss => unreachable!("poss handled by prob"),
        }
    }

    /// Materialise the unfactored equivalent of this document: every
    /// element's probability-node children are merged into one probability
    /// node whose possibilities are the cross-product of the originals,
    /// and nested choices are flattened (the paper's strict layering).
    ///
    /// Worlds (documents and probabilities) are preserved exactly. Fails
    /// with [`UnfactoredError`] if more than `cap` nodes would be created.
    pub fn to_unfactored(&self, cap: usize) -> Result<PxDoc, UnfactoredError> {
        let mut out = PxDoc::new();
        let mut budget = Budget { used: 1, cap };
        let alternatives = self.local_alternatives(&[self.root()], cap);
        for (items, w) in alternatives.map_err(|_| UnfactoredError { cap })? {
            let out_root = out.root();
            let new_poss = out.add_poss(out_root, w);
            budget.take(1)?;
            for item in items {
                self.unfactor_regular(item, &mut out, new_poss, &mut budget)?;
            }
        }
        Ok(out)
    }

    fn unfactor_regular(
        &self,
        node: PxNodeId,
        out: &mut PxDoc,
        out_parent: PxNodeId,
        budget: &mut Budget,
    ) -> Result<(), UnfactoredError> {
        match self.kind(node) {
            PxNodeKind::Text(t) => {
                budget.take(1)?;
                out.add_text(out_parent, t.clone());
                Ok(())
            }
            PxNodeKind::Elem { tag, attrs } => {
                budget.take(1)?;
                let el = out.add_elem(out_parent, tag.clone());
                for a in attrs {
                    out.set_attr(el, a.name.clone(), a.value.clone());
                }
                let mut probs: Vec<PxNodeId> = Vec::new();
                for &c in self.children(node) {
                    match self.kind(c) {
                        PxNodeKind::Prob => probs.push(c),
                        _ => self.unfactor_regular(c, out, el, budget)?,
                    }
                }
                if probs.is_empty() {
                    return Ok(());
                }
                budget.take(1)?;
                let merged = out.add_prob(el);
                // Cross product of the (flattened) alternatives of each
                // sibling choice point, leftmost varying slowest.
                let combos = self.local_alternatives(&probs, budget.cap);
                for (row, w) in combos.map_err(|_| UnfactoredError { cap: budget.cap })? {
                    budget.take(1)?;
                    let poss = out.add_poss(merged, w);
                    for item in row {
                        self.unfactor_regular(item, out, poss, budget)?;
                    }
                }
                Ok(())
            }
            PxNodeKind::Prob | PxNodeKind::Poss => {
                // lint:allow(panic-in-lib, statically unreachable: unfactor_regular called on a choice node)
                unreachable!("unfactor_regular called on a choice node")
            }
        }
    }
}

struct Budget {
    used: usize,
    cap: usize,
}

impl Budget {
    fn take(&mut self, n: usize) -> Result<(), UnfactoredError> {
        self.used += n;
        if self.used > self.cap {
            Err(UnfactoredError { cap: self.cap })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An element with `k` independent binary choices under it.
    fn independent_choices(k: usize) -> PxDoc {
        let mut px = PxDoc::new();
        let w = px.add_poss(px.root(), 1.0);
        let e = px.add_elem(w, "movie");
        for i in 0..k {
            let c = px.add_prob(e);
            let a = px.add_poss(c, 0.5);
            px.add_text_elem(a, "f", format!("a{i}"));
            let b = px.add_poss(c, 0.5);
            px.add_text_elem(b, "f", format!("b{i}"));
        }
        px
    }

    #[test]
    fn breakdown_counts_fig2() {
        let px = crate::node::tests::fig2();
        let b = px.node_breakdown();
        assert_eq!(b.prob, 2);
        assert_eq!(b.poss, 4);
        // Worlds 1: addressbook+person+nm + 2×tel = 5 elems; world 2 side:
        // addressbook + 2×(person+nm+tel) = 7 elems → 12 elements total.
        assert_eq!(b.elem, 12);
        // Texts: world 1 has John + 1111 + 2222 (one per tel option), world
        // 2 has 2×(John + tel) = 4 → 7 total.
        assert_eq!(b.text, 7);
        assert_eq!(b.total(), 25);
        assert_eq!(px.reachable_count(), 25);
    }

    #[test]
    fn factored_equals_unfactored_without_sibling_probs() {
        // Fig. 2 has no element with 2+ prob children, so counts agree.
        let px = crate::node::tests::fig2();
        assert_eq!(px.unfactored_node_count(), px.reachable_count() as f64);
    }

    #[test]
    fn unfactored_count_grows_exponentially_with_choices() {
        for k in 2..=6 {
            let px = independent_choices(k);
            let factored = px.reachable_count() as f64;
            let unfactored = px.unfactored_node_count();
            // Factored: linear in k. Unfactored: 2^k possibilities, each with
            // k elements of 2 nodes each.
            let expected = 4.0 // root prob + root poss + movie elem + merged prob
                + (2f64.powi(k as i32)) // possibility nodes
                + (2f64.powi(k as i32)) * (k as f64) * 2.0; // contents
            assert_eq!(unfactored, expected, "k={k}");
            assert!(unfactored > factored, "k={k}");
        }
    }

    #[test]
    fn materialized_unfactored_matches_analytic_count() {
        for k in 1..=5 {
            let px = independent_choices(k);
            let unf = px.to_unfactored(100_000).unwrap();
            assert_eq!(
                unf.reachable_count() as f64,
                px.unfactored_node_count(),
                "k={k}"
            );
            unf.validate().unwrap();
            // After unfactoring, no element has two prob children.
            for n in unf.descendants(unf.root()) {
                if unf.is_elem(n) {
                    let prob_children = unf.children(n).iter().filter(|&&c| unf.is_prob(c)).count();
                    assert!(prob_children <= 1);
                }
            }
        }
    }

    #[test]
    fn unfactoring_preserves_world_distribution() {
        let px = independent_choices(3);
        let unf = px.to_unfactored(100_000).unwrap();
        assert_eq!(px.world_count(), unf.world_count());
        let d1 = px.world_distribution(1000).unwrap();
        let d2 = unf.world_distribution(1000).unwrap();
        assert_eq!(d1.len(), d2.len());
        for (a, b) in d1.iter().zip(d2.iter()) {
            assert!((a.prob - b.prob).abs() < 1e-12);
            assert!(imprecise_xmlkit::deep_equal(&a.doc, &b.doc));
        }
    }

    #[test]
    fn unfactoring_preserves_fig2() {
        let px = crate::node::tests::fig2();
        let unf = px.to_unfactored(10_000).unwrap();
        let d1 = px.world_distribution(100).unwrap();
        let d2 = unf.world_distribution(100).unwrap();
        assert_eq!(d1.len(), d2.len());
        for (a, b) in d1.iter().zip(d2.iter()) {
            assert!((a.prob - b.prob).abs() < 1e-12);
            assert!(imprecise_xmlkit::deep_equal(&a.doc, &b.doc));
        }
    }

    #[test]
    fn unfactored_cap_is_enforced() {
        let px = independent_choices(10);
        assert!(px.to_unfactored(100).is_err());
    }

    #[test]
    fn expected_world_size_weighs_choices() {
        let px = crate::node::tests::fig2();
        // World 1/2 (p=.5 total… world1: ab(1)+person(1)+nm(1)+txt(1)+tel(1)+txt(1)=6 nodes
        // chosen via tel-choice; both tel options have the same size.
        // World 3 (p=.5): ab + 2×(person+nm+txt+tel+txt) = 11 nodes.
        let expected = 0.5 * 6.0 + 0.5 * 11.0;
        assert!((px.expected_world_size() - expected).abs() < 1e-12);
    }

    /// A document with a nested choice: the outer choice's first
    /// possibility directly contains another probability node (as produced
    /// when integrating an already-probabilistic document).
    fn nested_choice_doc() -> PxDoc {
        let mut px = PxDoc::new();
        let w = px.add_poss(px.root(), 1.0);
        let e = px.add_elem(w, "doc");
        let outer = px.add_prob(e);
        let a = px.add_poss(outer, 0.5);
        px.add_text_elem(a, "pre", "p");
        let inner = px.add_prob(a); // nested: prob directly under poss
        let i1 = px.add_poss(inner, 0.25);
        px.add_text_elem(i1, "v", "1");
        let i2 = px.add_poss(inner, 0.75);
        px.add_text_elem(i2, "v", "2");
        px.add_text_elem(a, "post", "q");
        let b = px.add_poss(outer, 0.5);
        px.add_text_elem(b, "w", "3");
        px
    }

    #[test]
    fn nested_choices_flatten_in_unfactored_form() {
        let px = nested_choice_doc();
        px.validate().unwrap();
        assert_eq!(px.world_count(), 3);
        let unf = px.to_unfactored(10_000).unwrap();
        unf.validate().unwrap();
        assert_eq!(unf.reachable_count() as f64, px.unfactored_node_count());
        // Flattened outer choice has 2·?+1 = 3 alternatives.
        let poss0 = unf.children(unf.root())[0];
        let doc_elem = unf.children(poss0)[0];
        let merged_prob = unf
            .children(doc_elem)
            .iter()
            .copied()
            .find(|&c| unf.is_prob(c))
            .expect("merged prob");
        assert_eq!(unf.children(merged_prob).len(), 3);
        // No prob node sits directly under a poss anymore.
        for n in unf.descendants(unf.root()) {
            if unf.is_poss(n) {
                assert!(unf.children(n).iter().all(|&c| !unf.is_prob(c)));
            }
        }
        // Worlds are preserved.
        let d1 = px.world_distribution(100).unwrap();
        let d2 = unf.world_distribution(100).unwrap();
        assert_eq!(d1.len(), d2.len());
        for (a, b) in d1.iter().zip(d2.iter()) {
            assert!((a.prob - b.prob).abs() < 1e-12);
            assert!(imprecise_xmlkit::deep_equal(&a.doc, &b.doc));
        }
    }

    #[test]
    fn nested_flattening_preserves_item_order() {
        let px = nested_choice_doc();
        let unf = px.to_unfactored(10_000).unwrap();
        // First flattened alternative: pre, v=1, post.
        let poss0 = unf.children(unf.root())[0];
        let doc_elem = unf.children(poss0)[0];
        let prob = unf
            .children(doc_elem)
            .iter()
            .copied()
            .find(|&c| unf.is_prob(c))
            .unwrap();
        let alt0 = unf.children(prob)[0];
        let tags: Vec<&str> = unf
            .children(alt0)
            .iter()
            .filter_map(|&c| unf.tag(c))
            .collect();
        assert_eq!(tags, vec!["pre", "v", "post"]);
        // Its weight: 0.5 × 0.25.
        assert!((unf.poss_prob(alt0).unwrap() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn deeply_nested_unfactored_count_matches_materialization() {
        // Element with two prob children whose contents again hold elements
        // with two prob children: exercises the recursive merge.
        fn nested(px: &mut PxDoc, parent: PxNodeId, depth: usize) {
            if depth == 0 {
                return;
            }
            for _ in 0..2 {
                let c = px.add_prob(parent);
                for (i, w) in [(0, 0.5), (1, 0.5)] {
                    let poss = px.add_poss(c, w);
                    let el = px.add_elem(poss, format!("d{depth}v{i}"));
                    nested(px, el, depth - 1);
                }
            }
        }
        let mut px = PxDoc::new();
        let w = px.add_poss(px.root(), 1.0);
        let e = px.add_elem(w, "root");
        nested(&mut px, e, 2);
        px.validate().unwrap();
        let unf = px.to_unfactored(1_000_000).unwrap();
        assert_eq!(unf.reachable_count() as f64, px.unfactored_node_count());
        assert_eq!(px.world_count(), unf.world_count());
    }
}
