//! Lazy, threshold-aware answer streaming: [`AnswerStream`].
//!
//! A stream is produced by [`crate::QueryPlan::execute`]. It owns the
//! amalgamated answer *events* (document order) plus the document's
//! choice-weight table, and computes each answer's exact probability on
//! demand as the stream is consumed:
//!
//! * a per-execution [`ProbMemo`] caches the probability of each event
//!   the lazy iterator asks about, so re-asked (structurally identical)
//!   events are answered in one lookup;
//! * when the plan carries a probability threshold, candidates whose
//!   *probability bound* (a cheap structural computation, no expansion)
//!   is already below the threshold are pruned without ever computing an
//!   exact probability, and the remaining expansions abort
//!   branch-and-bound style once the threshold is out of reach — the
//!   paper's good-is-good-enough insight pushed into the evaluator.
//!
//! Collecting a stream with `collect::<RankedAnswers>()` reproduces the
//! classic eager API; at threshold 0 the result is identical to
//! [`crate::eval_px`].
//!
//! ```
//! use imprecise_query::{QueryPlan, RankedAnswers};
//! use imprecise_pxml::PxDoc;
//!
//! let mut px = PxDoc::new();
//! let w = px.add_poss(px.root(), 1.0);
//! let cat = px.add_elem(w, "catalog");
//! let m = px.add_elem(cat, "movie");
//! px.add_text_elem(m, "title", "Jaws");
//! px.add_text_elem(m, "year", "1975");
//!
//! let plan = QueryPlan::parse("//movie/year").unwrap();
//! let mut stream = plan.execute(&px).unwrap();
//! let answer = stream.next().unwrap();
//! assert_eq!(answer.value.as_str(), "1975");
//! assert_eq!(answer.value.as_number(), Some(1975.0)); // typed
//! assert_eq!(answer.probability, 1.0);
//! assert!(stream.next().is_none());
//! ```

use crate::answer::RankedAnswers;
use crate::event::{
    probability_above, probability_bounds, probability_memo, probability_weights, Event, ProbMemo,
    ABOVE_SLACK,
};
use imprecise_pxml::ChoiceWeights;
use std::fmt;
use std::sync::Arc;

/// A typed answer value: the answer's string form, with numeric values
/// recognized (the original text is always preserved).
#[derive(Debug, Clone)]
pub enum AnswerValue {
    /// Free text.
    Text(Arc<str>),
    /// A value whose text parses as a finite number (years, phone-free
    /// counts, ratings …).
    Number {
        /// The original text, exactly as it appears in the document.
        raw: Arc<str>,
        /// The parsed numeric value.
        value: f64,
    },
}

impl AnswerValue {
    /// Classify a raw string value.
    pub fn new(raw: impl Into<Arc<str>>) -> Self {
        let raw: Arc<str> = raw.into();
        match raw.trim().parse::<f64>() {
            Ok(value) if value.is_finite() && !raw.trim().is_empty() => {
                AnswerValue::Number { raw, value }
            }
            _ => AnswerValue::Text(raw),
        }
    }

    /// The value's text, exactly as it appears in the document.
    pub fn as_str(&self) -> &str {
        match self {
            AnswerValue::Text(raw) | AnswerValue::Number { raw, .. } => raw,
        }
    }

    /// The numeric value, when the text parses as a finite number.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            AnswerValue::Text(_) => None,
            AnswerValue::Number { value, .. } => Some(*value),
        }
    }
}

impl PartialEq for AnswerValue {
    /// Values compare by their text (the numeric classification is
    /// derived, not identity-bearing).
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl fmt::Display for AnswerValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One streamed answer: a typed value, its exact probability, and the
/// event under which the value occurs (reusable for feedback
/// conditioning without re-deriving it).
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// The answer value.
    pub value: AnswerValue,
    /// Exact probability that this value occurs in the query answer.
    pub probability: f64,
    /// The event "some occurrence of this value is in the result".
    pub event: Event,
}

/// Lazy iterator over a plan's answers; see the [module docs](self).
///
/// The stream owns everything it needs (events, weights, memo) — it
/// does not borrow the document, so it can outlive the snapshot
/// reference it was built from.
#[derive(Debug)]
pub struct AnswerStream {
    weights: Arc<ChoiceWeights>,
    pending: std::vec::IntoIter<(String, Event)>,
    memo: ProbMemo,
    min_probability: f64,
    pruned_by_bound: usize,
    filtered_exact: usize,
}

impl AnswerStream {
    pub(crate) fn new(
        weights: Arc<ChoiceWeights>,
        events: Vec<(String, Event)>,
        min_probability: f64,
    ) -> Self {
        AnswerStream {
            weights,
            pending: events.into_iter(),
            memo: ProbMemo::new(),
            min_probability,
            pruned_by_bound: 0,
            filtered_exact: 0,
        }
    }

    /// The threshold this stream executes under (0 when none).
    pub fn min_probability(&self) -> f64 {
        self.min_probability
    }

    /// Candidates pruned so far by the probability *bound* alone — their
    /// exact probability was never computed.
    pub fn pruned_by_bound(&self) -> usize {
        self.pruned_by_bound
    }

    /// Candidates the structural bound could not exclude, whose
    /// branch-and-bound expansion was then aborted mid-way (the
    /// threshold became unreachable) or whose exact probability fell
    /// below the threshold.
    pub fn filtered_exact(&self) -> usize {
        self.filtered_exact
    }

    /// Drain the stream into ranked answers. Equivalent to
    /// `collect::<RankedAnswers>()` but moves the value strings straight
    /// into the result instead of round-tripping them through
    /// [`AnswerValue`] — this is the hot path behind
    /// [`crate::QueryPlan::collect`] and [`crate::eval_px`]-compatible
    /// callers.
    pub fn into_ranked(mut self) -> RankedAnswers {
        let mut pairs = Vec::new();
        while let Some((value, event)) = self.pending.next() {
            // Drain-once path: distinct values rarely share identical
            // events, and the per-event clone + hash a memo insert costs
            // outweighs the occasional hit — use the uncached expansion.
            if let Some(p) = self.admit(&event, false) {
                pairs.push((value, p));
            }
        }
        RankedAnswers::from_pairs(pairs)
    }

    /// The shared threshold gate: `Some(probability)` when the event's
    /// answer survives, `None` when it is skipped. With a threshold the
    /// pipeline is structural bound → branch-and-bound expansion (which
    /// aborts as soon as the threshold is out of reach) → exact filter;
    /// without one, a plain exact expansion (memoized on the lazy path).
    /// Updates the pruning counters.
    fn admit(&mut self, event: &Event, memoize: bool) -> Option<f64> {
        if self.min_probability > 0.0 {
            // The bound's float arithmetic differs from the exact
            // expansion's, so prune only with slack: an answer whose
            // exact probability sits exactly at the threshold must never
            // be lost to one ulp of rounding in the bound.
            let (_, upper) = probability_bounds(&self.weights, event);
            if upper < self.min_probability - ABOVE_SLACK {
                self.pruned_by_bound += 1;
                return None;
            }
            let Some(p) = probability_above(&self.weights, event, self.min_probability) else {
                self.filtered_exact += 1;
                return None;
            };
            if p <= 0.0 {
                return None;
            }
            if p < self.min_probability {
                self.filtered_exact += 1;
                return None;
            }
            return Some(p);
        }
        let p = if memoize {
            probability_memo(&self.weights, event, &mut self.memo)
        } else {
            probability_weights(&self.weights, event)
        };
        if p > 0.0 {
            Some(p)
        } else {
            None
        }
    }
}

impl Iterator for AnswerStream {
    type Item = Answer;

    fn next(&mut self) -> Option<Answer> {
        while let Some((value, event)) = self.pending.next() {
            if let Some(p) = self.admit(&event, true) {
                return Some(Answer {
                    value: AnswerValue::new(value),
                    probability: p,
                    event,
                });
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.pending.len()))
    }
}

impl FromIterator<Answer> for RankedAnswers {
    /// Rank a stream's answers: stable sort by descending probability,
    /// ties staying in stream (document) order.
    fn from_iter<I: IntoIterator<Item = Answer>>(iter: I) -> Self {
        RankedAnswers::from_pairs(
            iter.into_iter()
                .map(|a| (a.value.as_str().to_string(), a.probability))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::QueryPlan;
    use imprecise_pxml::PxDoc;

    /// Jaws certain; Jaws 2 in 30% of worlds.
    fn doc() -> PxDoc {
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
        px
    }

    #[test]
    fn stream_yields_in_document_order_with_events() {
        let px = doc();
        let plan = QueryPlan::parse("//movie/title").unwrap();
        let answers: Vec<Answer> = plan.execute(&px).unwrap().collect();
        assert_eq!(answers.len(), 2);
        assert_eq!(answers[0].value.as_str(), "Jaws");
        assert_eq!(answers[0].event, Event::True);
        assert_eq!(answers[1].value.as_str(), "Jaws 2");
        assert!(matches!(answers[1].event, Event::Atom(_)));
        assert!((answers[1].probability - 0.3).abs() < 1e-12);
    }

    #[test]
    fn bound_pruning_is_observable() {
        let px = doc();
        let plan = QueryPlan::parse("//movie/title")
            .unwrap()
            .with_min_probability(0.5);
        let mut stream = plan.execute(&px).unwrap();
        let got: Vec<Answer> = stream.by_ref().collect();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].value.as_str(), "Jaws");
        // "Jaws 2" is a single 0.3 atom: the bound alone excludes it.
        assert_eq!(stream.pruned_by_bound(), 1);
        assert_eq!(stream.filtered_exact(), 0);
        assert_eq!(stream.min_probability(), 0.5);
    }

    #[test]
    fn typed_values_classify_numbers() {
        assert_eq!(AnswerValue::new("1975").as_number(), Some(1975.0));
        assert_eq!(AnswerValue::new(" 3.5 ").as_number(), Some(3.5));
        assert_eq!(AnswerValue::new("Jaws").as_number(), None);
        assert_eq!(AnswerValue::new("").as_number(), None);
        assert_eq!(AnswerValue::new("NaN").as_number(), None);
        assert_eq!(AnswerValue::new("inf").as_number(), None);
        // Equality is by text.
        assert_eq!(AnswerValue::new("1975"), AnswerValue::new("1975"));
        assert_ne!(AnswerValue::new("1975"), AnswerValue::new("1975.0"));
        assert_eq!(AnswerValue::new("1975").to_string(), "1975");
    }

    #[test]
    fn size_hint_shrinks_as_the_stream_drains() {
        let px = doc();
        let plan = QueryPlan::parse("//movie/title").unwrap();
        let mut stream = plan.execute(&px).unwrap();
        assert_eq!(stream.size_hint(), (0, Some(2)));
        stream.next();
        assert_eq!(stream.size_hint(), (0, Some(1)));
    }
}
