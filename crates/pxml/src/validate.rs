//! Invariant validation for probabilistic XML trees.

use crate::node::{PxDoc, PxNodeId, PxNodeKind};
use crate::PROB_EPSILON;
use std::fmt;

/// A violated invariant of the probabilistic XML model.
#[derive(Debug, Clone, PartialEq)]
pub enum PxInvariantError {
    /// The root node is not a probability node.
    RootNotProb,
    /// A probability node has no possibilities.
    EmptyProb {
        /// Offending probability node.
        node: PxNodeId,
    },
    /// A probability node has a non-possibility child.
    ProbChildNotPoss {
        /// Offending probability node.
        node: PxNodeId,
    },
    /// A possibility carries a probability outside `[0, 1]` or a NaN.
    BadProbability {
        /// Offending possibility node.
        node: PxNodeId,
        /// The bad value.
        p: f64,
    },
    /// The probabilities of a probability node's possibilities do not sum
    /// to 1 (within [`PROB_EPSILON`] times the possibility count).
    WeightsDontSumToOne {
        /// Offending probability node.
        node: PxNodeId,
        /// Actual sum.
        sum: f64,
    },
    /// A possibility node has a possibility child (possibility children
    /// must be regular nodes or nested probability nodes).
    PossChildIsPoss {
        /// Offending possibility node.
        node: PxNodeId,
    },
    /// An element has a possibility child (element children are probability
    /// nodes or regular nodes).
    ElemChildIsPoss {
        /// Offending element node.
        node: PxNodeId,
    },
    /// A text node has children.
    TextWithChildren {
        /// Offending text node.
        node: PxNodeId,
    },
    /// A possibility of the root probability node does not consist of
    /// exactly one element (each world must be a well-formed document).
    RootPossNotSingleElement {
        /// Offending possibility node.
        node: PxNodeId,
    },
}

impl fmt::Display for PxInvariantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PxInvariantError::RootNotProb => write!(f, "root is not a probability node"),
            PxInvariantError::EmptyProb { node } => {
                write!(f, "probability node {node:?} has no possibilities")
            }
            PxInvariantError::ProbChildNotPoss { node } => {
                write!(f, "probability node {node:?} has a non-possibility child")
            }
            PxInvariantError::BadProbability { node, p } => {
                write!(f, "possibility {node:?} has invalid probability {p}")
            }
            PxInvariantError::WeightsDontSumToOne { node, sum } => {
                write!(f, "possibilities of {node:?} sum to {sum}, expected 1")
            }
            PxInvariantError::PossChildIsPoss { node } => {
                write!(f, "possibility {node:?} has a possibility child")
            }
            PxInvariantError::ElemChildIsPoss { node } => {
                write!(f, "element {node:?} has a possibility child")
            }
            PxInvariantError::TextWithChildren { node } => {
                write!(f, "text node {node:?} has children")
            }
            PxInvariantError::RootPossNotSingleElement { node } => write!(
                f,
                "root possibility {node:?} must contain exactly one element"
            ),
        }
    }
}

impl std::error::Error for PxInvariantError {}

impl PxDoc {
    /// Check all structural invariants of the (relaxed) probabilistic XML
    /// model, returning the first violation found.
    ///
    /// Checked invariants:
    /// 1. the root is a probability node;
    /// 2. every reachable probability node has ≥ 1 possibility children and
    ///    nothing else, and their probabilities are valid and sum to 1;
    /// 3. possibility children are regular nodes or nested probability
    ///    nodes (never possibilities);
    /// 4. element children are probability or regular nodes (never
    ///    possibilities);
    /// 5. text nodes are leaves;
    /// 6. every root possibility holds exactly one element (worlds are
    ///    well-formed single-rooted documents).
    pub fn validate(&self) -> Result<(), PxInvariantError> {
        if !self.is_prob(self.root()) {
            return Err(PxInvariantError::RootNotProb);
        }
        for node in self.descendants(self.root()) {
            match self.kind(node) {
                PxNodeKind::Prob => {
                    let kids = self.children(node);
                    if kids.is_empty() {
                        return Err(PxInvariantError::EmptyProb { node });
                    }
                    let mut sum = 0.0;
                    for &k in kids {
                        match self.kind(k) {
                            PxNodeKind::Poss => {
                                let p = self.nodes.weight(k.index());
                                if !p.is_finite()
                                    || !(-PROB_EPSILON..=1.0 + PROB_EPSILON).contains(&p)
                                {
                                    return Err(PxInvariantError::BadProbability { node: k, p });
                                }
                                sum += p;
                            }
                            _ => return Err(PxInvariantError::ProbChildNotPoss { node }),
                        }
                    }
                    let tolerance = PROB_EPSILON * (kids.len() as f64).max(1.0) * 1e3;
                    if (sum - 1.0).abs() > tolerance {
                        return Err(PxInvariantError::WeightsDontSumToOne { node, sum });
                    }
                }
                PxNodeKind::Poss => {
                    for &k in self.children(node) {
                        if self.is_poss(k) {
                            return Err(PxInvariantError::PossChildIsPoss { node });
                        }
                    }
                }
                PxNodeKind::Elem { .. } => {
                    for &k in self.children(node) {
                        if self.is_poss(k) {
                            return Err(PxInvariantError::ElemChildIsPoss { node });
                        }
                    }
                }
                PxNodeKind::Text(_) => {
                    if !self.children(node).is_empty() {
                        return Err(PxInvariantError::TextWithChildren { node });
                    }
                }
            }
        }
        for &poss in self.children(self.root()) {
            let elems = self
                .children(poss)
                .iter()
                .filter(|&&c| self.is_elem(c))
                .count();
            let total = self.children(poss).len();
            if elems != 1 || total != 1 {
                return Err(PxInvariantError::RootPossNotSingleElement { node: poss });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal_valid() -> PxDoc {
        let mut px = PxDoc::new();
        let w = px.add_poss(px.root(), 1.0);
        px.add_elem(w, "doc");
        px
    }

    #[test]
    fn minimal_doc_validates() {
        minimal_valid().validate().unwrap();
    }

    #[test]
    fn empty_root_prob_rejected() {
        let px = PxDoc::new();
        assert_eq!(
            px.validate(),
            Err(PxInvariantError::EmptyProb { node: px.root() })
        );
    }

    #[test]
    fn weights_must_sum_to_one() {
        let mut px = PxDoc::new();
        let w1 = px.add_poss(px.root(), 0.5);
        px.add_elem(w1, "doc");
        let w2 = px.add_poss(px.root(), 0.3);
        px.add_elem(w2, "doc");
        assert!(matches!(
            px.validate(),
            Err(PxInvariantError::WeightsDontSumToOne { .. })
        ));
    }

    #[test]
    fn negative_probability_rejected() {
        let mut px = PxDoc::new();
        let w1 = px.add_poss(px.root(), -0.2);
        px.add_elem(w1, "doc");
        let w2 = px.add_poss(px.root(), 1.2);
        px.add_elem(w2, "doc");
        assert!(matches!(
            px.validate(),
            Err(PxInvariantError::BadProbability { .. })
        ));
    }

    #[test]
    fn nan_probability_rejected() {
        let mut px = PxDoc::new();
        let w1 = px.add_poss(px.root(), f64::NAN);
        px.add_elem(w1, "doc");
        assert!(matches!(
            px.validate(),
            Err(PxInvariantError::BadProbability { .. })
        ));
    }

    #[test]
    fn root_poss_must_hold_one_element() {
        // Two elements under one root possibility.
        let mut px = PxDoc::new();
        let w = px.add_poss(px.root(), 1.0);
        px.add_elem(w, "a");
        px.add_elem(w, "b");
        assert!(matches!(
            px.validate(),
            Err(PxInvariantError::RootPossNotSingleElement { .. })
        ));
        // Text under a root possibility.
        let mut px2 = PxDoc::new();
        let w2 = px2.add_poss(px2.root(), 1.0);
        px2.add_text(w2, "stray");
        assert!(matches!(
            px2.validate(),
            Err(PxInvariantError::RootPossNotSingleElement { .. })
        ));
    }

    #[test]
    fn fig2_validates() {
        crate::node::tests::fig2().validate().unwrap();
    }

    #[test]
    fn nested_probs_validate() {
        let mut px = PxDoc::new();
        let w = px.add_poss(px.root(), 1.0);
        let e = px.add_elem(w, "movie");
        let choice = px.add_prob(e);
        let a = px.add_poss(choice, 0.25);
        px.add_text_elem(a, "year", "1995");
        let b = px.add_poss(choice, 0.75);
        px.add_text_elem(b, "year", "1996");
        px.validate().unwrap();
    }
}
