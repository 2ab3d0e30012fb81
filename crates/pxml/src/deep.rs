//! Deep structural verification of a [`PxDoc`] arena.
//!
//! [`PxDoc::validate`] checks the probabilistic XML *model* invariants
//! (probability sums, node-kind nesting rules). `deep_check` extends
//! that to the *representation*: the arena's parent/child links must
//! form a tree rooted at [`PxDoc::root`], every link must be mutual,
//! child ids must stay inside the arena, and the reachability
//! accounting reported by [`PxDoc::arena_stats`] must agree with an
//! independent traversal, and the arena's layout (full chunks, one weight
//! per slot, weights only on possibilities) must hold. This is the
//! document half of the
//! `strict-invariants` shadow checks; the refinement-state half
//! (frontier anchors, digests, mass accounting) lives in
//! `imprecise-integrate::verify`.

use crate::node::{PxDoc, PxNodeId, NO_WEIGHT};
use crate::validate::PxInvariantError;
use std::fmt;

/// A corruption of the arena representation (or, via
/// [`Model`](DeepCheckError::Model), of the probabilistic XML model).
#[derive(Debug, Clone, PartialEq)]
pub enum DeepCheckError {
    /// A model invariant is violated (see [`PxInvariantError`]).
    Model(PxInvariantError),
    /// The root node has a parent link.
    RootHasParent {
        /// The offending parent id.
        parent: PxNodeId,
    },
    /// A child id points outside the arena (dangling reference).
    ChildOutOfBounds {
        /// The node whose child list is corrupt.
        node: PxNodeId,
        /// The out-of-bounds child id.
        child: PxNodeId,
        /// Arena size the id must stay below.
        arena_len: usize,
    },
    /// A child's parent link does not point back at the node listing it.
    ParentLinkBroken {
        /// The node listing `child` in its child list.
        node: PxNodeId,
        /// The child whose parent link disagrees.
        child: PxNodeId,
        /// What the child's parent link actually holds.
        actual_parent: Option<PxNodeId>,
    },
    /// A node is reachable through two different paths (the "tree" is a
    /// DAG or worse).
    ReachableTwice {
        /// The node reached a second time.
        node: PxNodeId,
    },
    /// A node lists the same child twice.
    DuplicateChild {
        /// The node with the duplicated entry.
        node: PxNodeId,
        /// The duplicated child id.
        child: PxNodeId,
    },
    /// The arena's own reachability accounting disagrees with an
    /// independent traversal.
    ArenaAccountingDrift {
        /// Live count reported by [`PxDoc::arena_stats`].
        reported_live: usize,
        /// Live count found by the verifier's own walk.
        walked_live: usize,
    },
    /// An arena chunk other than the last is not full, or the last one
    /// is empty.
    ChunkNotFull {
        /// Index of the chunk.
        chunk: usize,
        /// Slots it holds.
        slots: usize,
    },
    /// The weight column's length differs from the arena's.
    WeightColumnLength {
        /// Entries in the weight column.
        weights: usize,
        /// Slots in the chunks.
        slots: usize,
    },
    /// A slot that is not a possibility carries a weight.
    StrayWeight {
        /// The slot.
        node: PxNodeId,
        /// The weight it carries.
        weight: f64,
    },
}

impl fmt::Display for DeepCheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeepCheckError::Model(e) => write!(f, "model invariant violated: {e}"),
            DeepCheckError::RootHasParent { parent } => {
                write!(f, "root has parent link to {parent:?}")
            }
            DeepCheckError::ChildOutOfBounds {
                node,
                child,
                arena_len,
            } => write!(
                f,
                "{node:?} lists child {child:?} outside the arena (len {arena_len})"
            ),
            DeepCheckError::ParentLinkBroken {
                node,
                child,
                actual_parent,
            } => write!(
                f,
                "{child:?} is a child of {node:?} but its parent link says {actual_parent:?}"
            ),
            DeepCheckError::ReachableTwice { node } => {
                write!(f, "{node:?} is reachable through two paths")
            }
            DeepCheckError::DuplicateChild { node, child } => {
                write!(f, "{node:?} lists child {child:?} twice")
            }
            DeepCheckError::ArenaAccountingDrift {
                reported_live,
                walked_live,
            } => write!(
                f,
                "arena_stats reports {reported_live} live nodes, traversal found {walked_live}"
            ),
            DeepCheckError::ChunkNotFull { chunk, slots } => write!(
                f,
                "arena chunk {chunk} holds {slots} slots (chunks hold {} but the last, which is not empty)",
                PxDoc::CHUNK
            ),
            DeepCheckError::WeightColumnLength { weights, slots } => write!(
                f,
                "weight column holds {weights} entries for {slots} arena slots"
            ),
            DeepCheckError::StrayWeight { node, weight } => {
                write!(f, "{node:?} is not a possibility but carries weight {weight}")
            }
        }
    }
}

impl std::error::Error for DeepCheckError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DeepCheckError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PxInvariantError> for DeepCheckError {
    fn from(e: PxInvariantError) -> Self {
        DeepCheckError::Model(e)
    }
}

impl PxDoc {
    /// Verify the arena representation end to end, returning the first
    /// corruption found.
    ///
    /// On top of everything [`validate`](Self::validate) checks (model
    /// invariants: probability sums, nesting rules), `deep_check`
    /// verifies the representation itself:
    ///
    /// 1. the root carries no parent link;
    /// 2. every child id stays inside the arena (no dangling ids);
    /// 3. parent/child links are mutual;
    /// 4. no node is listed twice by one parent, and no node is
    ///    reachable through two paths (the live arena is a tree);
    /// 5. the walk's live count matches [`arena_stats`](Self::arena_stats)
    ///    (two independent traversal implementations agree);
    /// 6. the layout holds: every chunk but the last is full and the last
    ///    is not empty, the weight column has one entry per slot, and
    ///    only possibility slots carry a weight.
    ///
    /// The walk is manual (explicit stack over raw child lists) rather
    /// than via [`descendants`](Self::descendants), precisely so a bug
    /// in the iterator cannot hide a bug in the links it walks.
    pub fn deep_check(&self) -> Result<(), DeepCheckError> {
        self.check_layout()?;
        let arena_len = self.arena_len();
        let root = self.root();
        if let Some(parent) = self.parent(root) {
            return Err(DeepCheckError::RootHasParent { parent });
        }
        let mut seen = vec![false; arena_len];
        let mut stack = vec![root];
        let mut walked_live = 0usize;
        if root.index() >= arena_len {
            return Err(DeepCheckError::ChildOutOfBounds {
                node: root,
                child: root,
                arena_len,
            });
        }
        seen[root.index()] = true;
        while let Some(node) = stack.pop() {
            walked_live += 1;
            let kids = self.children(node);
            for (i, &child) in kids.iter().enumerate() {
                if child.index() >= arena_len {
                    return Err(DeepCheckError::ChildOutOfBounds {
                        node,
                        child,
                        arena_len,
                    });
                }
                if kids[..i].contains(&child) {
                    return Err(DeepCheckError::DuplicateChild { node, child });
                }
                if seen[child.index()] {
                    return Err(DeepCheckError::ReachableTwice { node: child });
                }
                seen[child.index()] = true;
                let actual_parent = self.parent(child);
                if actual_parent != Some(node) {
                    return Err(DeepCheckError::ParentLinkBroken {
                        node,
                        child,
                        actual_parent,
                    });
                }
                stack.push(child);
            }
        }
        let reported_live = self.arena_stats().live;
        if reported_live != walked_live {
            return Err(DeepCheckError::ArenaAccountingDrift {
                reported_live,
                walked_live,
            });
        }
        self.validate()?;
        Ok(())
    }

    /// Check 6 of [`deep_check`](Self::deep_check): the chunk and
    /// weight-column layout.
    fn check_layout(&self) -> Result<(), DeepCheckError> {
        let chunks = self.nodes.chunks();
        for (chunk, c) in chunks.iter().enumerate() {
            let full = if chunk + 1 == chunks.len() {
                (1..=PxDoc::CHUNK).contains(&c.len())
            } else {
                c.len() == PxDoc::CHUNK
            };
            if !full {
                return Err(DeepCheckError::ChunkNotFull {
                    chunk,
                    slots: c.len(),
                });
            }
        }
        let slots: usize = chunks.iter().map(|c| c.len()).sum();
        let weights = self.nodes.weights();
        if weights.len() != slots {
            return Err(DeepCheckError::WeightColumnLength {
                weights: weights.len(),
                slots,
            });
        }
        for (i, &weight) in weights.iter().enumerate() {
            let node = PxNodeId(i as u32);
            if weight.to_bits() != NO_WEIGHT.to_bits() && !self.is_poss(node) {
                return Err(DeepCheckError::StrayWeight { node, weight });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_doc() -> PxDoc {
        let mut px = PxDoc::new();
        let w = px.add_poss(px.root(), 1.0);
        let e = px.add_elem(w, "doc");
        let choice = px.add_prob(e);
        let a = px.add_poss(choice, 0.25);
        px.add_text_elem(a, "year", "1995");
        let b = px.add_poss(choice, 0.75);
        px.add_text_elem(b, "year", "1996");
        px
    }

    #[test]
    fn well_formed_doc_passes() {
        small_doc().deep_check().unwrap();
    }

    #[test]
    fn detached_garbage_is_fine() {
        // Detached slots are expected (refine/feedback leave them);
        // deep_check verifies accounting, not absence of garbage.
        let mut px = small_doc();
        let w = px.add_poss(px.root(), 0.0);
        px.detach(w);
        let before = px.arena_stats();
        assert!(before.detached() > 0);
        // Re-normalise: the detach above dropped a zero-probability
        // possibility, so the weights still sum to 1.
        px.deep_check().unwrap();
    }

    #[test]
    fn dangling_child_id_is_caught() {
        let mut px = small_doc();
        let elem = px
            .descendants(px.root())
            .find(|&n| px.is_elem(n))
            .expect("doc has an element");
        px.inject_raw_child_for_tests(elem, 9999);
        assert!(matches!(
            px.deep_check(),
            Err(DeepCheckError::ChildOutOfBounds { child, .. }) if child.index() == 9999
        ));
    }

    #[test]
    fn duplicated_child_is_caught() {
        let mut px = small_doc();
        let elem = px
            .descendants(px.root())
            .find(|&n| px.is_elem(n) && !px.children(n).is_empty())
            .expect("doc has an element with children");
        let first = px.children(elem)[0];
        px.inject_raw_child_for_tests(elem, first.index() as u32);
        assert!(matches!(
            px.deep_check(),
            Err(DeepCheckError::DuplicateChild { .. })
        ));
    }

    #[test]
    fn cross_linked_child_is_caught() {
        // Listing a node that already belongs to another parent must
        // trip either the mutual-link or the two-paths check, whichever
        // the walk reaches first.
        let mut px = small_doc();
        let text = px
            .descendants(px.root())
            .find(|&n| px.is_text(n))
            .expect("doc has a text node");
        let other = px
            .descendants(px.root())
            .find(|&n| px.is_elem(n) && Some(n) != px.parent(text))
            .expect("doc has a second element");
        px.inject_raw_child_for_tests(other, text.index() as u32);
        assert!(matches!(
            px.deep_check(),
            Err(DeepCheckError::ParentLinkBroken { .. } | DeepCheckError::ReachableTwice { .. })
        ));
    }

    #[test]
    fn bad_probability_sum_is_caught() {
        let mut px = small_doc();
        let poss = px
            .descendants(px.root())
            .find(|&n| px.is_poss(n))
            .expect("doc has a possibility");
        px.set_poss_prob(poss, 0.123);
        assert!(matches!(
            px.deep_check(),
            Err(DeepCheckError::Model(
                PxInvariantError::WeightsDontSumToOne { .. }
            ))
        ));
    }

    #[test]
    fn a_stray_weight_is_caught() {
        let mut px = small_doc();
        let elem = px
            .descendants(px.root())
            .find(|&n| px.is_elem(n))
            .expect("doc has an element");
        px.nodes_mut().set_weight(elem.index(), 0.5);
        assert_eq!(
            px.deep_check(),
            Err(DeepCheckError::StrayWeight {
                node: elem,
                weight: 0.5
            })
        );
    }

    #[test]
    fn a_layout_across_chunks_passes() {
        let mut px = small_doc();
        let elem = px.children(px.children(px.root())[0])[0];
        for len in [PxDoc::CHUNK - 1, PxDoc::CHUNK, PxDoc::CHUNK + 1] {
            while px.arena_len() < len {
                px.add_elem(elem, "pad");
            }
            px.deep_check().unwrap();
            let extra = px.add_elem(elem, "pad");
            px.detach(extra);
            px.truncate_arena(len);
            px.deep_check().unwrap();
        }
    }

    #[test]
    fn model_violations_are_reported() {
        let mut px = PxDoc::new();
        let w = px.add_poss(px.root(), 0.4);
        px.add_elem(w, "doc");
        assert!(matches!(
            px.deep_check(),
            Err(DeepCheckError::Model(
                PxInvariantError::WeightsDontSumToOne { .. }
            ))
        ));
    }
}
