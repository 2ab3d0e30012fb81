//! Dense per-document choice-weight table: the probability memoization
//! hook used by query execution.
//!
//! Exact probability computation (independence decomposition, then
//! Shannon expansion over choice atoms, see `imprecise-query`)
//! repeatedly asks the same two questions of a probability node: *how
//! many possibilities does it have* and *what are their weights*.
//! Answering through the arena means a kind-match and a child walk per
//! visit. A [`ChoiceWeights`] table answers both with one slice lookup,
//! is built in a single pass, and — because it borrows nothing — can be
//! cached for the lifetime of one query execution (the
//! document behind an `Arc` snapshot never changes).

use crate::node::{PxDoc, PxNodeId, PxNodeKind};

/// Choice-point weights of one document, indexed by [`PxNodeId`].
///
/// Built once per query execution with [`PxDoc::choice_weights`]; see the
/// [module docs](self) for why this exists.
///
/// ```
/// use imprecise_pxml::PxDoc;
///
/// let mut px = PxDoc::new();
/// let w = px.add_poss(px.root(), 1.0);
/// let e = px.add_elem(w, "doc");
/// let c = px.add_prob(e);
/// px.add_poss(c, 0.3);
/// px.add_poss(c, 0.7);
/// let weights = px.choice_weights();
/// assert_eq!(weights.of(c), &[0.3, 0.7]);
/// assert_eq!(weights.of(px.root()), &[1.0]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ChoiceWeights {
    /// Flat storage: probability node `id`'s weights live at
    /// `values[offsets[id.index()] .. offsets[id.index() + 1]]` (an
    /// empty range for every other node kind). Two allocations total,
    /// no per-node boxes.
    offsets: Vec<u32>,
    values: Vec<f64>,
}

impl ChoiceWeights {
    /// The possibility weights of probability node `prob`, in child
    /// order. Empty for non-probability nodes.
    #[inline]
    pub fn of(&self, prob: PxNodeId) -> &[f64] {
        let i = prob.index();
        match (self.offsets.get(i), self.offsets.get(i + 1)) {
            (Some(&start), Some(&end)) => &self.values[start as usize..end as usize],
            _ => &[],
        }
    }
}

impl PxDoc {
    /// Build the choice-weight table of this document (the probability
    /// memoization hook — see [`ChoiceWeights`]) in one arena pass.
    pub fn choice_weights(&self) -> ChoiceWeights {
        let len = self.arena_len();
        let mut offsets = Vec::with_capacity(len + 1);
        let mut values = Vec::new();
        for index in 0..len {
            offsets.push(values.len() as u32);
            let id = PxNodeId(index as u32);
            if let PxNodeKind::Prob = self.kind(id) {
                for &c in self.children(id) {
                    // lint:allow(expect-in-lib, holds by construction: prob child is poss)
                    values.push(self.poss_prob(c).expect("prob child is poss"));
                }
            }
        }
        offsets.push(values.len() as u32);
        ChoiceWeights { offsets, values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_mirrors_possibilities() {
        let mut px = PxDoc::new();
        let w = px.add_poss(px.root(), 1.0);
        let e = px.add_elem(w, "doc");
        let c1 = px.add_prob(e);
        px.add_poss(c1, 0.25);
        px.add_poss(c1, 0.75);
        let c2 = px.add_prob(e);
        for weight in [0.2, 0.3, 0.5] {
            px.add_poss(c2, weight);
        }
        let weights = px.choice_weights();
        assert_eq!(weights.of(px.root()), &[1.0]);
        assert_eq!(weights.of(c1), &[0.25, 0.75]);
        assert_eq!(weights.of(c2), &[0.2, 0.3, 0.5]);
        // Non-probability nodes answer with the empty slice.
        assert_eq!(weights.of(e), &[] as &[f64]);
        assert_eq!(weights.of(w), &[] as &[f64]);
    }

    #[test]
    fn detached_choice_points_keep_their_weights() {
        // The table is a flat arena pass: a detached choice point still
        // answers (events never reference detached nodes, so this is
        // only ever a convenience, never a correctness question).
        let mut px = PxDoc::new();
        let w = px.add_poss(px.root(), 1.0);
        let e = px.add_elem(w, "doc");
        let c = px.add_prob(e);
        px.add_poss(c, 1.0);
        px.detach(c);
        let weights = px.choice_weights();
        assert_eq!(weights.of(c), &[1.0]);
    }
}
