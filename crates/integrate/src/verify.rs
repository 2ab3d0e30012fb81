//! Deep verification of refinement state against the document it
//! belongs to.
//!
//! [`PxDoc::deep_check`] certifies the arena representation; this
//! module certifies the *integration bookkeeping* layered on top: every
//! persisted [`DocFrontier`] must anchor at a live probability node of
//! the document, the anchor's possibilities must be exactly the kept
//! matchings in canonical (descending-probability) order, and the
//! per-component mass accounting must close (`retained + discarded == 1`).
//! (A frontier can only be paired with the wrong component when it is
//! decoded, and decoding checks the component's content digest.)
//!
//! Two entry points:
//! * [`RefineState::verify`] / [`IntegrationOutcome::verify_invariants`]
//!   — on-demand checks, also surfaced as `Engine::check_invariants`.
//! * The `strict-invariants` cargo feature — shadow-checks every
//!   publish (integrate, refine, feedback, compact) by calling
//!   `shadow_check` (compiled only under the feature) at the end of
//!   each mutation, turning a silent corruption into an immediate,
//!   located panic.

use crate::pipeline::DocFrontier;
use crate::{IntegrationOutcome, RefineState};
use imprecise_pxml::{DeepCheckError, PxDoc};
use std::fmt;

/// Tolerance for mass-accounting and ordering comparisons. Wider than
/// machine epsilon because renormalisation divides by running sums, but
/// far below anything a real corruption would produce.
const MASS_EPSILON: f64 = 1e-9;

/// A violated integration invariant, found by [`RefineState::verify`].
#[derive(Debug, Clone, PartialEq)]
pub enum InvariantViolation {
    /// The document arena itself is corrupt.
    Doc(DeepCheckError),
    /// A frontier's probability anchor points outside the arena — the
    /// classic stale-anchor corruption after an untranslated compaction.
    AnchorOutOfBounds {
        /// Tag-group path of the offending component.
        path: String,
        /// The stale anchor id.
        prob: usize,
        /// Arena size the id must stay below.
        arena_len: usize,
    },
    /// A frontier's anchor exists but is no longer reachable from the
    /// root (it was detached by a later mutation).
    AnchorDetached {
        /// Tag-group path of the offending component.
        path: String,
        /// The detached anchor id.
        prob: usize,
    },
    /// A frontier's anchor is not a probability node.
    AnchorNotProb {
        /// Tag-group path of the offending component.
        path: String,
        /// The anchor id.
        prob: usize,
    },
    /// The anchor's possibility count disagrees with the frontier's
    /// kept-matching count.
    KeptMismatch {
        /// Tag-group path of the offending component.
        path: String,
        /// Possibilities found under the anchor.
        children: usize,
        /// Matchings the frontier says were kept.
        kept: usize,
    },
    /// The anchor's possibilities are not in canonical
    /// descending-probability order.
    NonCanonicalOrder {
        /// Tag-group path of the offending component.
        path: String,
        /// Index of the first out-of-order possibility.
        index: usize,
    },
    /// A component's mass accounting does not close.
    MassAccounting {
        /// Tag-group path of the offending component.
        path: String,
        /// Retained mass recorded on the frontier.
        retained: f64,
        /// Discarded mass recorded on the frontier.
        discarded: f64,
    },
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::Doc(e) => write!(f, "document arena: {e}"),
            InvariantViolation::AnchorOutOfBounds {
                path,
                prob,
                arena_len,
            } => write!(
                f,
                "frontier at {path}: anchor node {prob} outside arena (len {arena_len})"
            ),
            InvariantViolation::AnchorDetached { path, prob } => {
                write!(f, "frontier at {path}: anchor node {prob} is detached")
            }
            InvariantViolation::AnchorNotProb { path, prob } => {
                write!(
                    f,
                    "frontier at {path}: anchor node {prob} is not a probability node"
                )
            }
            InvariantViolation::KeptMismatch {
                path,
                children,
                kept,
            } => write!(
                f,
                "frontier at {path}: anchor holds {children} possibilities but {kept} \
                 matchings were kept"
            ),
            InvariantViolation::NonCanonicalOrder { path, index } => write!(
                f,
                "frontier at {path}: possibility {index} breaks descending-probability order"
            ),
            InvariantViolation::MassAccounting {
                path,
                retained,
                discarded,
            } => write!(
                f,
                "frontier at {path}: retained {retained} + discarded {discarded} != 1"
            ),
        }
    }
}

impl std::error::Error for InvariantViolation {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            InvariantViolation::Doc(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DeepCheckError> for InvariantViolation {
    fn from(e: DeepCheckError) -> Self {
        InvariantViolation::Doc(e)
    }
}

/// Verify one persisted frontier against the document it anchors into.
pub fn verify_frontier(doc: &PxDoc, df: &DocFrontier) -> Result<(), InvariantViolation> {
    let path = || df.path().to_owned();
    let anchor = df.prob();
    let arena_len = doc.arena_len();
    if anchor.index() >= arena_len {
        return Err(InvariantViolation::AnchorOutOfBounds {
            path: path(),
            prob: anchor.index(),
            arena_len,
        });
    }
    // Reachability: walk the parent chain up to the root. The chain is
    // bounded by the arena size; deep_check separately guarantees the
    // live arena is a tree, so no cycle guard beyond that is needed.
    let mut cursor = anchor;
    let mut steps = 0usize;
    while let Some(parent) = doc.parent(cursor) {
        cursor = parent;
        steps += 1;
        if steps > arena_len {
            return Err(InvariantViolation::AnchorDetached {
                path: path(),
                prob: anchor.index(),
            });
        }
    }
    if cursor != doc.root() {
        return Err(InvariantViolation::AnchorDetached {
            path: path(),
            prob: anchor.index(),
        });
    }
    if !doc.is_prob(anchor) {
        return Err(InvariantViolation::AnchorNotProb {
            path: path(),
            prob: anchor.index(),
        });
    }
    let kids = doc.children(anchor);
    if kids.len() != df.kept() {
        return Err(InvariantViolation::KeptMismatch {
            path: path(),
            children: kids.len(),
            kept: df.kept(),
        });
    }
    let mut prev = f64::INFINITY;
    for (i, &kid) in kids.iter().enumerate() {
        if let Some(p) = doc.poss_prob(kid) {
            if p > prev + MASS_EPSILON {
                return Err(InvariantViolation::NonCanonicalOrder {
                    path: path(),
                    index: i,
                });
            }
            prev = p;
        }
    }
    let (retained, discarded) = (df.retained_mass(), df.discarded_mass());
    if (retained + discarded - 1.0).abs() > MASS_EPSILON {
        return Err(InvariantViolation::MassAccounting {
            path: path(),
            retained,
            discarded,
        });
    }
    Ok(())
}

impl RefineState {
    /// Verify this refinement state against the document version it is
    /// stored with: arena deep-check plus every open frontier's anchor,
    /// ordering and mass accounting.
    pub fn verify(&self, doc: &PxDoc) -> Result<(), InvariantViolation> {
        doc.deep_check()?;
        for df in &self.frontiers {
            verify_frontier(doc, df)?;
        }
        Ok(())
    }
}

impl IntegrationOutcome {
    /// Verify the outcome's document and every retained frontier. This
    /// is what the `strict-invariants` feature runs after each
    /// integrate/refine/compact, and what `Engine::check_invariants`
    /// exposes on demand.
    pub fn verify_invariants(&self) -> Result<(), InvariantViolation> {
        self.doc.deep_check()?;
        for df in &self.frontiers {
            verify_frontier(&self.doc, df)?;
        }
        Ok(())
    }
}

/// Shadow-check an outcome after a mutation, aborting with a located
/// message on corruption. Compiled (and called) only under the
/// `strict-invariants` feature: the default build pays nothing.
#[cfg(feature = "strict-invariants")]
pub fn shadow_check(outcome: &IntegrationOutcome, context: &str) {
    if let Err(violation) = outcome.verify_invariants() {
        // lint:allow(panic-in-lib, strict-invariants shadow checks exist to abort on corruption)
        panic!("strict-invariants: after {context}: {violation}");
    }
}

/// Shadow-check a document/state pair (the engine-publish form).
#[cfg(feature = "strict-invariants")]
pub fn shadow_check_state(doc: &PxDoc, state: Option<&RefineState>, context: &str) {
    let result = match state {
        Some(state) => state.verify(doc),
        None => doc.deep_check().map_err(InvariantViolation::from),
    };
    if let Err(violation) = result {
        // lint:allow(panic-in-lib, strict-invariants shadow checks exist to abort on corruption)
        panic!("strict-invariants: after {context}: {violation}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{integrate_xml, IntegrationOptions, IntegrationOutcome, RefineOptions};
    use imprecise_oracle::presets::addressbook_oracle;
    use imprecise_xmlkit::{parse, Schema, XmlDoc};

    fn schema() -> Schema {
        Schema::parse(
            "<!ELEMENT addressbook (person*)><!ELEMENT person (nm, tel?)>\
             <!ELEMENT nm (#PCDATA)><!ELEMENT tel (#PCDATA)>",
        )
        .expect("schema parses")
    }

    fn book(tels: &[&str]) -> XmlDoc {
        let persons: String = tels
            .iter()
            .map(|t| format!("<person><nm>John</nm><tel>{t}</tel></person>"))
            .collect();
        parse(&format!("<addressbook>{persons}</addressbook>")).expect("xml parses")
    }

    /// A budget-truncated integration whose open component persists a
    /// frontier: every-John-matches-every-John, far more matchings than
    /// the budget of 2 keeps.
    fn truncated_outcome() -> IntegrationOutcome {
        let outcome = integrate_xml(
            &book(&["1111", "2222", "3333"]),
            &book(&["4444", "5555", "6666"]),
            &addressbook_oracle(),
            Some(&schema()),
            &IntegrationOptions {
                max_matchings_per_component: 2,
                ..IntegrationOptions::default()
            },
        )
        .expect("integrates");
        assert!(outcome.is_refinable(), "budget of 2 must truncate");
        outcome
    }

    #[test]
    fn clean_truncated_outcome_verifies() {
        truncated_outcome().verify_invariants().expect("clean");
    }

    #[test]
    fn refined_outcome_still_verifies() {
        let mut outcome = truncated_outcome();
        outcome
            .refine(
                &addressbook_oracle(),
                Some(&schema()),
                &RefineOptions {
                    extra_matchings: 2,
                    ..RefineOptions::default()
                },
            )
            .expect("refines");
        outcome.verify_invariants().expect("clean after refine");
    }

    #[test]
    fn non_canonical_anchor_order_is_caught() {
        let mut outcome = truncated_outcome();
        let anchor = outcome.frontiers()[0].prob();
        let kids = outcome.doc.children(anchor).to_vec();
        assert!(kids.len() >= 2, "budget of 2 keeps two possibilities");
        // Ascending weights that still sum to what the siblings summed
        // to before, so only the ordering invariant is violated.
        let total: f64 = kids
            .iter()
            .map(|&k| outcome.doc.poss_prob(k).expect("anchor child is poss"))
            .sum();
        outcome.doc.set_poss_prob(kids[0], 0.25 * total);
        outcome.doc.set_poss_prob(kids[1], 0.75 * total);
        for &k in &kids[2..] {
            outcome.doc.set_poss_prob(k, 0.0);
        }
        assert!(matches!(
            outcome.verify_invariants(),
            Err(InvariantViolation::NonCanonicalOrder { .. })
        ));
    }

    #[test]
    fn detached_frontier_anchor_is_caught() {
        let mut outcome = truncated_outcome();
        let anchor = outcome.frontiers()[0].prob();
        outcome.doc.detach(anchor);
        assert!(matches!(
            outcome.verify_invariants(),
            Err(InvariantViolation::AnchorDetached { .. }
                | InvariantViolation::Doc(DeepCheckError::Model(_)))
        ));
    }

    #[test]
    fn stale_frontier_anchors_are_caught() {
        // The classic stale-anchor corruption: a refine state paired
        // with a document version it does not belong to (the bug the
        // engine's versioned slots exist to prevent). After a refine,
        // the frontiers anchor into the refined arena — against the
        // pre-refine document they must not verify.
        let mut outcome = truncated_outcome();
        let stale_doc = outcome.doc.clone();
        outcome
            .refine(
                &addressbook_oracle(),
                Some(&schema()),
                &RefineOptions {
                    extra_matchings: 2,
                    ..RefineOptions::default()
                },
            )
            .expect("refines");
        assert!(outcome.is_refinable(), "component stays open");
        let state = outcome.detach_refine_state().expect("state persists");
        state.verify(&outcome.doc).expect("matching pair verifies");
        assert!(
            state.verify(&stale_doc).is_err(),
            "stale document/state pairing must not verify"
        );
    }

    #[test]
    fn broken_probability_sum_is_caught() {
        let mut outcome = truncated_outcome();
        let anchor = outcome.frontiers()[0].prob();
        let first = outcome.doc.children(anchor)[0];
        outcome.doc.set_poss_prob(first, 0.123);
        assert!(matches!(
            outcome.verify_invariants(),
            Err(InvariantViolation::Doc(DeepCheckError::Model(_)))
        ));
    }
}
