//! Compile-then-execute query pipeline: [`QueryPlan`].
//!
//! The one-shot [`crate::eval_px`] API compiles a plan and discards it
//! on every call. A [`QueryPlan`] separates the *plan* from its
//! *execution* (as uncertainty-aware query systems typically do, so
//! pruning and caching can live in the plan layer):
//!
//! * **compile** — logical step normalization (collapsing redundant
//!   `//*`-chain traversals, deduplicating predicates) followed by a
//!   physical operator chain in which value-test predicates are hoisted
//!   into dedicated value-scan operators;
//! * **execute** — a lazy [`crate::AnswerStream`] that yields typed
//!   [`crate::Answer`]s one at a time, computing each answer's exact
//!   probability on demand with a per-execution memo table, and —
//!   when the plan carries a [`min_probability`](QueryPlan::with_min_probability)
//!   threshold — pruning answers whose event probability *bound* already
//!   falls below the threshold before any exact probability is computed.
//!
//! ```
//! use imprecise_query::QueryPlan;
//! use imprecise_pxml::from_xml;
//! use imprecise_xmlkit::parse;
//!
//! let doc = from_xml(&parse(
//!     "<catalog><movie><title>Jaws</title><genre>Horror</genre></movie></catalog>",
//! ).unwrap());
//! let plan = QueryPlan::parse("//movie[genre=\"Horror\"]/title")
//!     .unwrap()
//!     .with_min_probability(0.5);
//! let answers: Vec<_> = plan.execute(&doc).unwrap().collect();
//! assert_eq!(answers.len(), 1);
//! assert_eq!(answers[0].value.as_str(), "Jaws");
//! assert_eq!(answers[0].probability, 1.0);
//! ```

use crate::answer::RankedAnswers;
use crate::ast::{Axis, CmpOp, Expr, NodeTest, Query, RelPath, Step};
use crate::event::Event;
use crate::index::{lookup_shape, DocIndex};
use crate::parse::{parse_query, QueryParseError};
use crate::px_eval::{EvalError, Evaluator, StepPredicate};
use crate::stream::AnswerStream;
use imprecise_pxml::{PxDoc, PxNodeId};
use std::fmt;

/// A hoisted value test: the comparison half of predicates like
/// `genre = "Horror"` or `year >= 1995`, compiled out of the expression
/// tree so the executor applies it as a direct value scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ValueTest {
    /// `path = "literal"`.
    Eq(String),
    /// `path OP literal` for the ordering/inequality operators.
    Cmp(CmpOp, String),
    /// `contains(path, "literal")`.
    Contains(String),
    /// `starts-with(path, "literal")`.
    StartsWith(String),
}

impl ValueTest {
    fn holds(&self, value: &str) -> bool {
        match self {
            ValueTest::Eq(lit) => value == lit,
            ValueTest::Cmp(op, lit) => op.holds(value, lit),
            ValueTest::Contains(lit) => value.contains(lit.as_str()),
            ValueTest::StartsWith(lit) => value.starts_with(lit.as_str()),
        }
    }

    fn symbol(&self) -> String {
        match self {
            ValueTest::Eq(lit) => format!("= {lit:?}"),
            ValueTest::Cmp(op, lit) => format!("{} {lit:?}", op.symbol()),
            ValueTest::Contains(lit) => format!("contains {lit:?}"),
            ValueTest::StartsWith(lit) => format!("starts-with {lit:?}"),
        }
    }
}

/// One compiled predicate of a physical step.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum CompiledPred {
    /// A hoisted value test `path OP literal`, executed as a value scan.
    Value {
        /// The relative path selecting the tested nodes.
        path: RelPath,
        /// The test applied to each possible value.
        test: ValueTest,
    },
    /// Any other predicate, executed by the general expression machinery.
    General(Expr),
}

impl CompiledPred {
    fn compile(expr: &Expr) -> Self {
        match expr {
            Expr::Eq(path, lit) => CompiledPred::Value {
                path: path.clone(),
                test: ValueTest::Eq(lit.clone()),
            },
            Expr::Cmp(path, op, lit) => CompiledPred::Value {
                path: path.clone(),
                test: ValueTest::Cmp(*op, lit.clone()),
            },
            Expr::Contains(path, lit) => CompiledPred::Value {
                path: path.clone(),
                test: ValueTest::Contains(lit.clone()),
            },
            Expr::StartsWith(path, lit) => CompiledPred::Value {
                path: path.clone(),
                test: ValueTest::StartsWith(lit.clone()),
            },
            other => CompiledPred::General(other.clone()),
        }
    }
}

impl StepPredicate for CompiledPred {
    fn event_at(&self, eval: &mut Evaluator<'_>, node: PxNodeId) -> Result<Event, EvalError> {
        match self {
            CompiledPred::Value { path, test } => {
                eval.path_value_event(node, path, |v| test.holds(v))
            }
            CompiledPred::General(expr) => eval.eval_expr_event(node, expr),
        }
    }
}

impl fmt::Display for CompiledPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompiledPred::Value { path, test } => {
                write!(f, "ValueScan({path} {})", test.symbol())
            }
            CompiledPred::General(expr) => write!(f, "Filter({expr})"),
        }
    }
}

/// One physical operator: an axis scan plus its compiled predicates.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StepOp {
    pub(crate) axis: Axis,
    pub(crate) test: NodeTest,
    pub(crate) preds: Vec<CompiledPred>,
}

impl StepOp {
    /// The value lookup that narrows this step, when its first predicate
    /// is `path = "literal"` with a path the index answers (`.` under a
    /// tag test, or one predicate-free tag step). Only the first
    /// predicate may narrow: the others run on a node only after it
    /// passed the first.
    fn lookup(&self) -> Option<(&RelPath, &str)> {
        match self.preds.first() {
            Some(CompiledPred::Value {
                path,
                test: ValueTest::Eq(literal),
            }) if lookup_shape(&self.test, path).is_some() => Some((path, literal)),
            _ => None,
        }
    }
}

impl fmt::Display for StepOp {
    /// Names the physical access: `TagRangeScan(//movie)` scans the
    /// tag's list over each context's region (`/` keeps the context's
    /// children); a value lookup first narrows it to the ancestors of the
    /// elements whose value may match.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let axis = match self.axis {
            Axis::Child => "/",
            Axis::Descendant => "//",
        };
        write!(f, "TagRangeScan({axis}{})", self.test)?;
        if let Some((path, literal)) = self.lookup() {
            let tag = lookup_shape(&self.test, path).map_or("", |(_, tag)| tag);
            write!(
                f,
                " over ValueLookup({path} = {literal:?}) \u{222a} uncertain({tag})"
            )?;
        }
        for p in &self.preds {
            write!(f, " where {p}")?;
        }
        Ok(())
    }
}

/// A compiled query: normalized logical steps lowered to a physical
/// operator chain, plus an optional probability threshold that is pushed
/// down into execution.
///
/// Plans are immutable and cheap to clone; compile once, execute against
/// any number of documents. [`execute`](Self::execute) returns a lazy
/// [`AnswerStream`]; [`collect`](Self::collect) is the eager adapter
/// producing the classic [`RankedAnswers`].
///
/// ```
/// use imprecise_query::{parse_query, QueryPlan};
/// use imprecise_pxml::from_xml;
/// use imprecise_xmlkit::parse;
///
/// let doc = from_xml(&parse("<catalog><movie><title>Jaws</title></movie></catalog>").unwrap());
/// let plan = QueryPlan::compile(&parse_query("//movie/title").unwrap());
/// // Compile once, run against any number of documents.
/// let answers = plan.collect(&doc).unwrap();
/// assert_eq!(answers.items[0].value, "Jaws");
/// ```
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// The original query (pre-normalization), kept for display and for
    /// layers that need the AST (e.g. feedback conditioning).
    source: Query,
    /// The physical operator chain over the normalized steps.
    ops: Vec<StepOp>,
    /// Human-readable log of the logical rewrites that were applied.
    rewrites: Vec<String>,
    /// Answers whose probability falls below this are not produced; the
    /// executor prunes candidates whose probability *upper bound* is
    /// already below it before computing any exact probability.
    min_probability: f64,
}

impl QueryPlan {
    /// Compile a parsed query into a plan (threshold 0: keep every
    /// answer with non-zero probability).
    pub fn compile(query: &Query) -> Self {
        let (steps, rewrites) = normalize(&query.steps);
        let ops = steps
            .iter()
            .map(|s| StepOp {
                axis: s.axis,
                test: s.test.clone(),
                preds: s.predicates.iter().map(CompiledPred::compile).collect(),
            })
            .collect();
        QueryPlan {
            source: query.clone(),
            ops,
            rewrites,
            min_probability: 0.0,
        }
    }

    /// Parse and compile in one call.
    pub fn parse(text: &str) -> Result<Self, QueryParseError> {
        Ok(Self::compile(&parse_query(text)?))
    }

    /// Push a probability threshold down into execution: answers whose
    /// probability is below `threshold` are skipped, and candidates
    /// whose probability *bound* is already below it are pruned before
    /// the exact probability is ever computed. The threshold is clamped
    /// to `[0, 1]`; `NaN` is treated as 0.
    #[must_use]
    pub fn with_min_probability(mut self, threshold: f64) -> Self {
        self.min_probability = sanitize_threshold(threshold);
        self
    }

    /// The pushed-down probability threshold (0 when none was set).
    pub fn min_probability(&self) -> f64 {
        self.min_probability
    }

    /// The original (pre-normalization) query.
    pub fn source(&self) -> &Query {
        &self.source
    }

    /// The logical rewrites compilation applied (empty for most queries).
    pub fn rewrites(&self) -> &[String] {
        &self.rewrites
    }

    /// Number of physical operators in the chain.
    pub fn operator_count(&self) -> usize {
        self.ops.len()
    }

    /// Execute against a document, returning the lazy answer stream.
    ///
    /// Answer *events* are derived eagerly (errors surface here); each
    /// answer's exact probability is computed lazily as the stream is
    /// consumed, so taking only the first `k` answers pays for `k`
    /// probability computations. The stream owns everything it needs — it does
    /// not borrow the document.
    ///
    /// Runs on the document's [`DocIndex`], which the first query of
    /// `doc` builds and later ones reuse until `doc` is modified
    /// ([`DocIndex::of`]).
    pub fn execute(&self, doc: &PxDoc) -> Result<AnswerStream, EvalError> {
        self.execute_at(doc, self.min_probability)
    }

    /// [`execute`](Self::execute) with a per-call threshold override
    /// (same pushdown semantics and sanitization as
    /// [`with_min_probability`](Self::with_min_probability)) — for
    /// callers that reuse one compiled plan across many thresholds
    /// without cloning it.
    pub fn execute_at(&self, doc: &PxDoc, min_probability: f64) -> Result<AnswerStream, EvalError> {
        let index = DocIndex::of(doc);
        let events = self.answer_events(doc, &index)?;
        Ok(AnswerStream::new(
            index.weights(),
            events,
            sanitize_threshold(min_probability),
        ))
    }

    /// Execute and collect into ranked answers (at threshold 0 this is
    /// [`crate::eval_px`]).
    pub fn collect(&self, doc: &PxDoc) -> Result<RankedAnswers, EvalError> {
        Ok(self.execute(doc)?.into_ranked())
    }

    /// The amalgamated (value, event) pairs of this plan on `doc`, whose
    /// index `index` is, in document order — the input the stream ranks
    /// and filters.
    pub(crate) fn answer_events(
        &self,
        doc: &PxDoc,
        index: &DocIndex,
    ) -> Result<Vec<(String, Event)>, EvalError> {
        let mut eval = Evaluator::new(doc, index);
        let mut current: Vec<(PxNodeId, Event)> = Vec::new();
        for (i, op) in self.ops.iter().enumerate() {
            let within = op
                .lookup()
                .and_then(|(path, literal)| index.eq_candidate_ranks(doc, &op.test, path, literal));
            let within = within.as_deref();
            current = if i == 0 {
                let document: Vec<(Option<PxNodeId>, Event)> = vec![(None, Event::True)];
                eval.step_all(document, op.axis, &op.test, &op.preds, within)?
            } else {
                eval.step_all(current, op.axis, &op.test, &op.preds, within)?
            };
        }
        eval.amalgamate(current)
    }
}

/// Clamp a caller-supplied threshold to `[0, 1]` (`NaN` → 0).
fn sanitize_threshold(threshold: f64) -> f64 {
    if threshold.is_nan() {
        0.0
    } else {
        threshold.clamp(0.0, 1.0)
    }
}

/// Logical normalization: rewrite the step chain into an equivalent one
/// that is cheaper to execute, logging every rewrite.
///
/// Rules (each preserves the selected node set — and therefore every
/// existence event — in every possible world):
///
/// 1. **`//*`-chain collapse.** In `…//*//x…`, the second descendant
///    scan is redundant: any element that is a strict descendant of some
///    element is equally a *child* of some element, so the follow-up
///    step relaxes to a child scan (`//*/x`). Overlapping descendant
///    scans from nested contexts, whose results must be merged, become
///    one child scan per context that reaches each node once.
/// 2. **Duplicate predicate elimination.** Structurally identical
///    predicates within one step hold or fail together; only the first
///    is kept.
fn normalize(steps: &[Step]) -> (Vec<Step>, Vec<String>) {
    let mut steps = steps.to_vec();
    let mut rewrites = Vec::new();
    for i in 0..steps.len().saturating_sub(1) {
        let collapsible = steps[i].axis == Axis::Descendant
            && steps[i].test == NodeTest::Any
            && steps[i].predicates.is_empty()
            && steps[i + 1].axis == Axis::Descendant;
        if collapsible {
            steps[i + 1].axis = Axis::Child;
            rewrites.push(format!(
                "collapsed //* chain: step {} `//{}` relaxed to `/{}` (a strict descendant \
                 of some element is a child of some element)",
                i + 2,
                steps[i + 1].test,
                steps[i + 1].test,
            ));
        }
    }
    for (i, step) in steps.iter_mut().enumerate() {
        let before = step.predicates.len();
        let mut seen: Vec<Expr> = Vec::new();
        step.predicates.retain(|p| {
            if seen.contains(p) {
                false
            } else {
                seen.push(p.clone());
                true
            }
        });
        if step.predicates.len() < before {
            rewrites.push(format!(
                "step {}: dropped {} duplicate predicate(s)",
                i + 1,
                before - step.predicates.len()
            ));
        }
    }
    (steps, rewrites)
}

impl fmt::Display for QueryPlan {
    /// The `imprecise explain` rendering: source, rewrites, operators.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "plan for {}", self.source)?;
        if self.min_probability > 0.0 {
            writeln!(
                f,
                "  threshold: {} (pushed down: candidates with probability bound below \
                 it are pruned before exact probability computation)",
                self.min_probability
            )?;
        } else {
            writeln!(f, "  threshold: none (keep every non-zero answer)")?;
        }
        if self.rewrites.is_empty() {
            writeln!(f, "  logical rewrites: none")?;
        } else {
            writeln!(f, "  logical rewrites:")?;
            for r in &self.rewrites {
                writeln!(f, "    - {r}")?;
            }
        }
        writeln!(f, "  physical operators:")?;
        for (i, op) in self.ops.iter().enumerate() {
            writeln!(f, "    {}: {op}", i + 1)?;
        }
        write!(
            f,
            "    {}: Amalgamate -> rank by exact probability (independence decomposition, then \
             Shannon expansion)",
            self.ops.len() + 1
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::eval_px_naive;
    use std::sync::Arc;

    fn movie_doc() -> PxDoc {
        let mut px = PxDoc::new();
        let w = px.add_poss(px.root(), 1.0);
        let cat = px.add_elem(w, "catalog");
        let m1 = px.add_elem(cat, "movie");
        px.add_text_elem(m1, "title", "Jaws");
        px.add_text_elem(m1, "genre", "Horror");
        let c = px.add_prob(cat);
        let yes = px.add_poss(c, 0.3);
        let m2 = px.add_elem(yes, "movie");
        px.add_text_elem(m2, "title", "Jaws 2");
        px.add_text_elem(m2, "genre", "Horror");
        px.add_poss(c, 0.7);
        px
    }

    #[test]
    fn threshold_filters_low_probability_answers() {
        let px = movie_doc();
        let plan = QueryPlan::parse("//movie/title")
            .unwrap()
            .with_min_probability(0.5);
        let answers = plan.collect(&px).unwrap();
        assert_eq!(answers.len(), 1);
        assert!((answers.probability_of("Jaws") - 1.0).abs() < 1e-12);
        assert_eq!(answers.probability_of("Jaws 2"), 0.0);
    }

    #[test]
    fn star_chain_collapses_and_stays_equivalent() {
        let px = movie_doc();
        for q in ["//*//title", "//*//*//title", "//*//movie/title"] {
            let query = parse_query(q).unwrap();
            let plan = QueryPlan::compile(&query);
            assert!(
                !plan.rewrites().is_empty(),
                "{q} should trigger the //* collapse"
            );
            let planned = plan.collect(&px).unwrap();
            let naive = eval_px_naive(&px, &query, 10_000).unwrap();
            assert_eq!(planned.len(), naive.len(), "query {q}");
            for item in &naive.items {
                assert!(
                    (planned.probability_of(&item.value) - item.probability).abs() < 1e-9,
                    "query {q}, value {}",
                    item.value
                );
            }
        }
    }

    #[test]
    fn duplicate_predicates_are_dropped() {
        let single = parse_query("//movie[genre=\"Horror\"]/title").unwrap();
        // Duplicate the predicate inside the first step: the rewrite
        // must collapse the plan back to the single-predicate one.
        let mut dup = single.clone();
        let pred = dup.steps[0].predicates[0].clone();
        dup.steps[0].predicates.push(pred);
        let plan = QueryPlan::compile(&dup);
        assert_eq!(plan.ops[0].preds.len(), 1);
        assert!(plan.rewrites().iter().any(|r| r.contains("duplicate")));
        let px = movie_doc();
        let planned = plan.collect(&px).unwrap();
        let classic = QueryPlan::compile(&single).collect(&px).unwrap();
        assert_eq!(planned.items, classic.items);
    }

    #[test]
    fn value_tests_are_hoisted() {
        let plan = QueryPlan::parse("//movie[genre=\"Horror\"][year >= 1995]/title").unwrap();
        assert!(plan.ops[0]
            .preds
            .iter()
            .all(|p| matches!(p, CompiledPred::Value { .. })));
        let general = QueryPlan::parse("//movie[not(genre=\"X\")]/title").unwrap();
        assert!(matches!(general.ops[0].preds[0], CompiledPred::General(_)));
    }

    #[test]
    fn explain_rendering_names_operators() {
        let plan = QueryPlan::parse("//movie[genre=\"Horror\"]/title")
            .unwrap()
            .with_min_probability(0.5);
        let text = plan.to_string();
        assert!(text.contains("TagRangeScan(//movie)"), "{text}");
        assert!(
            text.contains("ValueLookup(./genre = \"Horror\") \u{222a} uncertain(genre)"),
            "{text}"
        );
        assert!(text.contains("ValueScan"), "{text}");
        assert!(text.contains("TagRangeScan(/title)"), "{text}");
        assert!(text.contains("threshold: 0.5"), "{text}");
        assert!(text.contains("Amalgamate"), "{text}");
    }

    #[test]
    fn comparisons_and_general_predicates_scan_the_tag_range() {
        for q in [
            "//movie[year >= 1995]/title",
            "//movie[contains(title, \"Jaws\")]/title",
            "//movie[not(genre=\"Horror\")]/title",
            "//movie[*=\"Horror\"]/title",
            "//*[.=\"Horror\"]",
        ] {
            let text = QueryPlan::parse(q).unwrap().to_string();
            assert!(!text.contains("ValueLookup"), "{q}: {text}");
        }
        let text = QueryPlan::parse("//genre[.=\"Horror\"]")
            .unwrap()
            .to_string();
        assert!(
            text.contains("ValueLookup(. = \"Horror\") \u{222a} uncertain(genre)"),
            "{text}"
        );
    }

    /// A document keeps the index its first query built until it is
    /// modified; every later query runs on the document as it is, also
    /// after mutations that keep the arena's size (a reweighted choice,
    /// a detached movie).
    #[test]
    fn a_document_keeps_its_index_until_it_is_modified() {
        let mut px = movie_doc();
        let plan = QueryPlan::parse("//movie[genre=\"Horror\"]/title").unwrap();
        let before = plan.collect(&px).unwrap();
        assert_eq!(before.len(), 2);
        let held = DocIndex::of(&px);
        plan.collect(&px).unwrap();
        assert!(Arc::ptr_eq(&held, &DocIndex::of(&px)), "built once");
        let cat = px.children(px.children(px.root())[0])[0];
        let m3 = px.add_elem(cat, "movie");
        px.add_text_elem(m3, "title", "Alien");
        px.add_text_elem(m3, "genre", "Horror");
        let after = plan.collect(&px).unwrap();
        assert_eq!(after.len(), 3);
        assert_eq!(after.probability_of("Alien"), 1.0);
        assert!(!Arc::ptr_eq(&held, &DocIndex::of(&px)));
        let arena = px.arena_len();
        let choice = px.children(cat)[1];
        let (yes, no) = (px.children(choice)[0], px.children(choice)[1]);
        px.set_poss_prob(yes, 0.6);
        px.set_poss_prob(no, 0.4);
        let reweighted = plan.collect(&px).unwrap();
        assert!((reweighted.probability_of("Jaws 2") - 0.6).abs() < 1e-12);
        px.detach(m3);
        assert_eq!(px.arena_len(), arena);
        let detached = plan.collect(&px).unwrap();
        assert_eq!(detached.probability_of("Alien"), 0.0);
        assert_eq!(detached.len(), 2);
        assert_eq!(
            plan.answer_events(&px, &DocIndex::of(&px)).unwrap(),
            plan.answer_events(&px, &DocIndex::build(&px)).unwrap()
        );
    }

    #[test]
    fn threshold_is_sanitized() {
        let plan = QueryPlan::parse("//a").unwrap();
        assert_eq!(
            plan.clone().with_min_probability(-3.0).min_probability(),
            0.0
        );
        assert_eq!(
            plan.clone().with_min_probability(7.0).min_probability(),
            1.0
        );
        assert_eq!(plan.with_min_probability(f64::NAN).min_probability(), 0.0);
    }
}
