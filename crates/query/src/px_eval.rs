//! Exact probabilistic query evaluation over the compact representation.
//!
//! Instead of enumerating worlds, the evaluator carries for every
//! intermediate node the [`Event`] under which that node exists in a
//! world. Predicates evaluate to events too. The answer probability of a
//! value is the exact probability of the disjunction of all its
//! occurrence events, built once per value ([`Event::any`]) and computed
//! by independence decomposition, then Shannon expansion
//! ([`crate::event::probability`]).
//!
//! This is the paper's "amalgamated answer" — merged over worlds, ranked
//! by likelihood — computed without touching worlds.
//!
//! Every step, of the query or of a predicate's relative path, is
//! answered from the document's [`DocIndex`]: a range scan over the
//! step's tag list inside the context's region, with each node's
//! existence event read off its chain of enclosing choices up to the
//! context. A hoisted equality predicate first narrows the step to the
//! index's value candidates. Nothing walks the tree.
//!
//! The per-execution `Evaluator` context also memoizes each node's
//! `value_events` so predicates and amalgamation never recompute the
//! value distribution of the same subtree twice. [`crate::QueryPlan`]
//! drives it over a normalized step chain; the one-shot [`eval_px`] and
//! [`answer_events`] are thin wrappers that compile a plan and run it.

use crate::answer::RankedAnswers;
use crate::ast::{Axis, Expr, NodeTest, Query, RelPath};
use crate::event::{ChoiceAtom, Event};
use crate::index::{single_text, DocIndex};
use crate::plan::QueryPlan;
use imprecise_pxml::{PxDoc, PxNodeId, PxNodeKind};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// Cap on the number of distinct string values one element may take
/// across worlds (guards `value_events` against pathological nesting).
const MAX_VALUE_VARIANTS: usize = 4096;

/// Probabilistic evaluation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// An element's string value takes too many distinct forms.
    TooManyValueVariants {
        /// The cap that was exceeded.
        cap: usize,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::TooManyValueVariants { cap } => {
                write!(f, "an element's value takes more than {cap} distinct forms")
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// The event "`value` occurs in the query answer", or `None` when the
/// value cannot occur in any world. Used by the feedback layer to
/// condition a document on user confirmation/rejection of an answer.
pub fn answer_event(doc: &PxDoc, query: &Query, value: &str) -> Result<Option<Event>, EvalError> {
    let events = answer_events(doc, query)?;
    Ok(events.into_iter().find(|(v, _)| v == value).map(|(_, e)| e))
}

/// The events of all possible answer values (unranked, document order).
pub fn answer_events(doc: &PxDoc, query: &Query) -> Result<Vec<(String, Event)>, EvalError> {
    QueryPlan::compile(query).answer_events(doc, &DocIndex::of(doc))
}

/// Evaluate a query over a probabilistic document; returns ranked answers.
///
/// This is the one-shot API: it compiles a [`QueryPlan`] and collects it
/// at threshold 0 on every call. When the same query runs more than
/// once, or only answers above a threshold are wanted, compile the plan
/// once and stream.
pub fn eval_px(doc: &PxDoc, query: &Query) -> Result<RankedAnswers, EvalError> {
    QueryPlan::compile(query).collect(doc)
}

/// A step predicate: evaluates, at one selected node, to the event "the
/// predicate holds". Plain AST predicates (inside relative paths) and
/// the plan's compiled predicates both implement it, so every step goes
/// through the one [`Evaluator::apply_step`].
pub(crate) trait StepPredicate {
    /// The event under which this predicate holds at `node`.
    fn event_at(&self, eval: &mut Evaluator<'_>, node: PxNodeId) -> Result<Event, EvalError>;
}

impl StepPredicate for Expr {
    fn event_at(&self, eval: &mut Evaluator<'_>, node: PxNodeId) -> Result<Event, EvalError> {
        eval.eval_expr_event(node, self)
    }
}

/// One query execution over one document: the step-walk machinery plus a
/// per-execution memo of each node's value events.
///
/// The memo is sound because a node's value distribution depends only on
/// the (immutable) document; it pays off because predicates and the final
/// amalgamation frequently revisit the same nodes through different
/// contexts.
pub(crate) struct Evaluator<'d> {
    doc: &'d PxDoc,
    index: &'d DocIndex,
    values: HashMap<PxNodeId, Rc<Vec<(String, Event)>>>,
}

impl<'d> Evaluator<'d> {
    /// An execution over `doc`, whose index `index` is
    /// ([`DocIndex::of`]).
    pub(crate) fn new(doc: &'d PxDoc, index: &'d DocIndex) -> Self {
        Evaluator {
            doc,
            index,
            values: HashMap::new(),
        }
    }

    /// Amalgamate a final context set: every node contributes each of
    /// its possible string values under (existence ∧ value) events.
    /// Returns (value, event) pairs in document order of first
    /// occurrence.
    pub(crate) fn amalgamate(
        &mut self,
        contexts: Vec<(PxNodeId, Event)>,
    ) -> Result<Vec<(String, Event)>, EvalError> {
        let mut disjuncts = KeyedDisjuncts::new();
        for (node, ctx_event) in contexts {
            // One text child: one value, under no further condition. The
            // memoized path costs the catalog's `//movie/title` 1.45x as
            // much (paired A/B on the integrated large_source(10_000)).
            if let Some(text) = single_text(self.doc, node) {
                disjuncts.add(text.to_string(), ctx_event);
                continue;
            }
            for (value, val_event) in self.value_events(node)?.iter() {
                disjuncts.add(
                    value.clone(),
                    Event::and(ctx_event.clone(), val_event.clone()),
                );
            }
        }
        Ok(disjuncts.into_events())
    }

    /// Apply one step from every context, merging the events of a node
    /// reached from several contexts ([`KeyedDisjuncts`]).
    ///
    /// `within` restricts the step to a value lookup's candidates for
    /// the first predicate (see [`DocIndex::value_candidates`]): at any
    /// other node that predicate's event is `False`, so the node would be
    /// dropped, and no later predicate would have run on it.
    pub(crate) fn step_all<C: Into<Option<PxNodeId>>, P: StepPredicate>(
        &mut self,
        contexts: Vec<(C, Event)>,
        axis: Axis,
        test: &NodeTest,
        preds: &[P],
        within: Option<&[u32]>,
    ) -> Result<Vec<(PxNodeId, Event)>, EvalError> {
        let index = self.index;
        let list = within.unwrap_or_else(|| index.tagged(test));
        let mut merger = KeyedDisjuncts::new();
        for (ctx, ctx_event) in contexts {
            for (node, ev) in self.apply_step(ctx.into(), &ctx_event, axis, list, preds)? {
                merger.add(node, ev);
            }
        }
        Ok(merger.into_events())
    }

    /// Apply one step — axis scan over `list`, predicates — from a
    /// context node (None = virtual document node): every selected node
    /// carries the conjunction of the context's event, its own existence
    /// event and its predicates' events. The one step function absolute
    /// (planned) and relative (predicate) paths share.
    fn apply_step<P: StepPredicate>(
        &mut self,
        ctx: Option<PxNodeId>,
        ctx_event: &Event,
        axis: Axis,
        list: &[u32],
        preds: &[P],
    ) -> Result<Vec<(PxNodeId, Event)>, EvalError> {
        let mut out = Vec::new();
        for (node, local_event) in self.index.step(ctx, axis, list) {
            let mut ev = Event::and(ctx_event.clone(), local_event);
            for pred in preds {
                if matches!(ev, Event::False) {
                    break;
                }
                let pe = pred.event_at(self, node)?;
                ev = Event::and(ev, pe);
            }
            if !matches!(ev, Event::False) {
                out.push((node, ev));
            }
        }
        Ok(out)
    }

    /// Evaluate a predicate to the event "the predicate holds", with
    /// `ctx` as context node. Events are relative to `ctx`'s own
    /// existence (they only mention choice points at or below the places
    /// the expression inspects).
    pub(crate) fn eval_expr_event(
        &mut self,
        ctx: PxNodeId,
        expr: &Expr,
    ) -> Result<Event, EvalError> {
        match expr {
            Expr::Exists(path) => {
                let nodes = self.eval_rel_events(ctx, path)?;
                Ok(Event::any(nodes.into_iter().map(|(_, e)| e)))
            }
            Expr::Eq(path, lit) => self.path_value_event(ctx, path, |v| v == lit.as_str()),
            Expr::Cmp(path, op, lit) => {
                self.path_value_event(ctx, path, |v| op.holds(v, lit.as_str()))
            }
            Expr::Contains(path, lit) => {
                self.path_value_event(ctx, path, |v| v.contains(lit.as_str()))
            }
            Expr::StartsWith(path, lit) => {
                self.path_value_event(ctx, path, |v| v.starts_with(lit.as_str()))
            }
            Expr::Some { path, cond } => {
                let nodes = self.eval_rel_events(ctx, path)?;
                let mut out = Event::False;
                for (n, e) in nodes {
                    let c = self.eval_expr_event(n, cond)?;
                    out = Event::or(out, Event::and(e, c));
                }
                Ok(out)
            }
            Expr::And(a, b) => Ok(Event::and(
                self.eval_expr_event(ctx, a)?,
                self.eval_expr_event(ctx, b)?,
            )),
            Expr::Or(a, b) => Ok(Event::or(
                self.eval_expr_event(ctx, a)?,
                self.eval_expr_event(ctx, b)?,
            )),
            Expr::Not(inner) => Ok(Event::not(self.eval_expr_event(ctx, inner)?)),
        }
    }

    /// The event "some node selected by `path` from `ctx` has a value
    /// satisfying `test`" (the shared body of every value predicate).
    pub(crate) fn path_value_event(
        &mut self,
        ctx: PxNodeId,
        path: &RelPath,
        test: impl Fn(&str) -> bool,
    ) -> Result<Event, EvalError> {
        let nodes = self.eval_rel_events(ctx, path)?;
        let mut out = Event::False;
        for (n, e) in nodes {
            let val = self.value_match_event(n, &test)?;
            out = Event::or(out, Event::and(e, val));
        }
        Ok(out)
    }

    /// Evaluate a relative path from `ctx`, returning nodes with the
    /// events under which the path reaches them.
    fn eval_rel_events(
        &mut self,
        ctx: PxNodeId,
        path: &RelPath,
    ) -> Result<Vec<(PxNodeId, Event)>, EvalError> {
        let mut current: Vec<(PxNodeId, Event)> = vec![(ctx, Event::True)];
        for step in &path.steps {
            current = self.step_all(current, step.axis, &step.test, &step.predicates, None)?;
        }
        Ok(current)
    }

    /// The event "the string value of `node` satisfies `test`".
    fn value_match_event(
        &mut self,
        node: PxNodeId,
        test: impl Fn(&str) -> bool,
    ) -> Result<Event, EvalError> {
        // As in `amalgamate`: without this, a `contains` predicate over
        // the catalog's directors costs 1.5x as much.
        if let Some(text) = single_text(self.doc, node) {
            return Ok(if test(text) {
                Event::True
            } else {
                Event::False
            });
        }
        let variants = self.value_events(node)?;
        Ok(Event::any(
            variants
                .iter()
                .filter(|(v, _)| test(v))
                .map(|(_, e)| e.clone()),
        ))
    }

    /// All possible string values of `node` with the events selecting
    /// them, memoized per execution (see [`value_events`] for the
    /// grouping semantics).
    pub(crate) fn value_events(
        &mut self,
        node: PxNodeId,
    ) -> Result<Rc<Vec<(String, Event)>>, EvalError> {
        if let Some(cached) = self.values.get(&node) {
            return Ok(Rc::clone(cached));
        }
        let computed = Rc::new(value_events(self.doc, node)?);
        self.values.insert(node, Rc::clone(&computed));
        Ok(computed)
    }
}

/// Events collected per key, each key's disjuncts OR-ed once at the end
/// ([`Event::any`]): folding them in one at a time re-flattens the
/// growing disjunction per disjunct, cubic in a key's occurrences.
/// Keys come out in first-encounter (document) order; the hash map only
/// finds a key's slot. The single home of the merge logic amalgamation,
/// value grouping and both path walks (merging nodes reached through
/// several derivations) rely on — they must never diverge.
pub(crate) struct KeyedDisjuncts<K> {
    /// Each key with its first disjunct, in first-encounter order. Held
    /// apart from the rest so that a path step reaching no node twice
    /// (the common case) hands its contexts on without a per-key
    /// allocation or rebuild.
    firsts: Vec<(K, Event)>,
    /// Every later disjunct, with its key's index in `firsts`.
    later: Vec<(usize, Event)>,
    slot_of: HashMap<K, usize>,
}

impl<K: Clone + Eq + std::hash::Hash> KeyedDisjuncts<K> {
    pub(crate) fn new() -> Self {
        KeyedDisjuncts {
            firsts: Vec::new(),
            later: Vec::new(),
            slot_of: HashMap::new(),
        }
    }

    /// Record `ev` as one more disjunct of `key`'s event.
    pub(crate) fn add(&mut self, key: K, ev: Event) {
        match self.slot_of.get(&key) {
            Some(&i) => self.later.push((i, ev)),
            None => {
                self.slot_of.insert(key.clone(), self.firsts.len());
                self.firsts.push((key, ev));
            }
        }
    }

    /// Each key with the disjunction of its events, in first-encounter
    /// order.
    pub(crate) fn into_events(self) -> Vec<(K, Event)> {
        // Every key seen once: nothing to merge.
        if self.later.is_empty() {
            return self.firsts;
        }
        let mut rest: Vec<Vec<Event>> = Vec::new();
        rest.resize_with(self.firsts.len(), Vec::new);
        for (i, ev) in self.later {
            rest[i].push(ev);
        }
        self.firsts
            .into_iter()
            .zip(rest)
            .map(|((k, first), rest)| (k, Event::any(std::iter::once(first).chain(rest))))
            .collect()
    }
}

/// The atom for choosing possibility `idx` of `prob` — or `True` when the
/// choice point has a single possibility (a certain choice contributes no
/// uncertainty, and keeping it out of events preserves their
/// decomposability for the feedback layer).
fn atom_for(doc: &PxDoc, prob: PxNodeId, idx: usize) -> Event {
    if doc.children(prob).len() == 1 {
        Event::True
    } else {
        Event::Atom(ChoiceAtom {
            prob_node: prob,
            poss_index: idx as u32,
        })
    }
}

/// All possible string values of `node` with the events selecting them.
///
/// Values are grouped (equal values' events are disjoined), so the result
/// has one entry per distinct possible value.
pub fn value_events(doc: &PxDoc, node: PxNodeId) -> Result<Vec<(String, Event)>, EvalError> {
    let mut disjuncts = KeyedDisjuncts::new();
    for (v, e) in node_value_events(doc, node)? {
        disjuncts.add(v, e);
    }
    Ok(disjuncts.into_events())
}

/// A pending combination of [`node_value_events`]' explicit stack.
enum ValueFrame<'a> {
    /// Concatenating a child list: `acc` holds the values of
    /// `items[..next]`.
    Items {
        items: &'a [PxNodeId],
        next: usize,
        acc: Vec<(String, Event)>,
    },
    /// Gathering a choice point's values: `out` holds those of its
    /// possibilities `..next`.
    Choice {
        prob: PxNodeId,
        next: usize,
        out: Vec<(String, Event)>,
    },
}

/// Start the value computation of `node`: a text's value is immediate,
/// an element starts on its children, a choice point pushes its frame.
fn enter<'a>(
    doc: &'a PxDoc,
    node: PxNodeId,
    stack: &mut Vec<ValueFrame<'a>>,
) -> Option<Vec<(String, Event)>> {
    match doc.kind(node) {
        PxNodeKind::Text(t) => Some(vec![(t.clone(), Event::True)]),
        PxNodeKind::Elem { .. } => enter_items(doc, doc.children(node), stack),
        PxNodeKind::Prob => {
            stack.push(ValueFrame::Choice {
                prob: node,
                next: 0,
                out: Vec::new(),
            });
            None
        }
        // lint:allow(panic-in-lib, statically unreachable: poss visited outside its prob)
        PxNodeKind::Poss => unreachable!("poss visited outside its prob"),
    }
}

/// Start the value computation of a child list: the value of a list of
/// texts only (the common leaf) is immediate, any other list pushes its
/// frame.
fn enter_items<'a>(
    doc: &'a PxDoc,
    items: &'a [PxNodeId],
    stack: &mut Vec<ValueFrame<'a>>,
) -> Option<Vec<(String, Event)>> {
    if let Some(text) = items
        .iter()
        .map(|&c| doc.text(c))
        .collect::<Option<String>>()
    {
        return Some(vec![(text, Event::True)]);
    }
    stack.push(ValueFrame::Items {
        items,
        next: 0,
        acc: vec![(String::new(), Event::True)],
    });
    None
}

/// The possible values of `node` with their events, ungrouped. Walks an
/// explicit stack, so a value nested 10⁵ levels deep costs heap, not
/// call stack; the events and their order of combination are those of
/// the natural recursion (a text is its own value, an element
/// concatenates its children's values, a choice point gathers its
/// possibilities' under their atoms).
fn node_value_events(doc: &PxDoc, node: PxNodeId) -> Result<Vec<(String, Event)>, EvalError> {
    let too_many = EvalError::TooManyValueVariants {
        cap: MAX_VALUE_VARIANTS,
    };
    let mut stack: Vec<ValueFrame<'_>> = Vec::new();
    // The values of the most recently finished node or list, not yet
    // folded into the frame on top of the stack.
    let mut done = enter(doc, node, &mut stack);
    while let Some(frame) = stack.last_mut() {
        match frame {
            ValueFrame::Items { items, next, acc } => {
                if let Some(parts) = done.take() {
                    *acc = concat_values(std::mem::take(acc), parts);
                    *next += 1;
                    if acc.len() > MAX_VALUE_VARIANTS {
                        return Err(too_many);
                    }
                }
                match items.get(*next) {
                    Some(&item) => done = enter(doc, item, &mut stack),
                    None => {
                        done = Some(std::mem::take(acc));
                        stack.pop();
                    }
                }
            }
            ValueFrame::Choice { prob, next, out } => {
                if let Some(parts) = done.take() {
                    let atom = atom_for(doc, *prob, *next);
                    for (v, e) in parts {
                        out.push((v, Event::and(atom.clone(), e)));
                        if out.len() > MAX_VALUE_VARIANTS {
                            return Err(too_many);
                        }
                    }
                    *next += 1;
                }
                match doc.children(*prob).get(*next) {
                    Some(&poss) => done = enter_items(doc, doc.children(poss), &mut stack),
                    None => {
                        done = Some(std::mem::take(out));
                        stack.pop();
                    }
                }
            }
        }
    }
    Ok(done.unwrap_or_default())
}

/// Every value of a list prefix (`acc`) followed by every value of its
/// next item (`parts`).
fn concat_values(
    mut acc: Vec<(String, Event)>,
    parts: Vec<(String, Event)>,
) -> Vec<(String, Event)> {
    if parts.len() == 1 {
        let (v, e) = &parts[0];
        for (av, ae) in &mut acc {
            av.push_str(v);
            if !matches!(e, Event::True) {
                let old = std::mem::replace(ae, Event::False);
                *ae = Event::and(old, e.clone());
            }
        }
        return acc;
    }
    let mut next = Vec::with_capacity(acc.len() * parts.len());
    for (av, ae) in &acc {
        for (v, e) in &parts {
            let mut combined_v = av.clone();
            combined_v.push_str(v);
            let combined_e = Event::and(ae.clone(), e.clone());
            if !matches!(combined_e, Event::False) {
                next.push((combined_v, combined_e));
            }
        }
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_query;
    use imprecise_pxml::from_xml;
    use imprecise_xmlkit::parse;

    #[test]
    fn certain_document_matches_xml_eval() {
        let xml = parse(
            "<catalog><movie><title>Jaws</title><genre>Horror</genre></movie>\
             <movie><title>Heat</title><genre>Crime</genre></movie></catalog>",
        )
        .unwrap();
        let px = from_xml(&xml);
        let q = parse_query("//movie[genre=\"Horror\"]/title").unwrap();
        let answers = eval_px(&px, &q).unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers.items[0].value, "Jaws");
        assert!((answers.items[0].probability - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uncertain_movie_probability() {
        // Jaws 2 exists with p = 0.3.
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
        let q = parse_query("//movie/title").unwrap();
        let answers = eval_px(&px, &q).unwrap();
        assert!((answers.probability_of("Jaws") - 1.0).abs() < 1e-12);
        assert!((answers.probability_of("Jaws 2") - 0.3).abs() < 1e-12);
    }

    #[test]
    fn uncertain_value_splits_probability() {
        // One movie whose title is a 60/40 choice.
        let mut px = PxDoc::new();
        let w = px.add_poss(px.root(), 1.0);
        let cat = px.add_elem(w, "catalog");
        let m = px.add_elem(cat, "movie");
        let t = px.add_elem(m, "title");
        let c = px.add_prob(t);
        let a = px.add_poss(c, 0.6);
        px.add_text(a, "Jaws");
        let b = px.add_poss(c, 0.4);
        px.add_text(b, "Jaws!");
        let q = parse_query("//movie/title").unwrap();
        let answers = eval_px(&px, &q).unwrap();
        assert!((answers.probability_of("Jaws") - 0.6).abs() < 1e-12);
        assert!((answers.probability_of("Jaws!") - 0.4).abs() < 1e-12);
    }

    #[test]
    fn predicate_and_value_in_same_choice_are_correlated() {
        // A movie that is EITHER (genre Horror, title Jaws) OR (genre
        // Action, title Heat). P(title of Horror movie = Jaws) = 0.5 and
        // Heat must NOT appear in the Horror answer.
        let mut px = PxDoc::new();
        let w = px.add_poss(px.root(), 1.0);
        let cat = px.add_elem(w, "catalog");
        let c = px.add_prob(cat);
        let p1 = px.add_poss(c, 0.5);
        let m1 = px.add_elem(p1, "movie");
        px.add_text_elem(m1, "title", "Jaws");
        px.add_text_elem(m1, "genre", "Horror");
        let p2 = px.add_poss(c, 0.5);
        let m2 = px.add_elem(p2, "movie");
        px.add_text_elem(m2, "title", "Heat");
        px.add_text_elem(m2, "genre", "Action");
        let q = parse_query("//movie[genre=\"Horror\"]/title").unwrap();
        let answers = eval_px(&px, &q).unwrap();
        assert!((answers.probability_of("Jaws") - 0.5).abs() < 1e-12);
        assert_eq!(answers.probability_of("Heat"), 0.0);
        assert_eq!(answers.len(), 1);
    }

    #[test]
    fn same_value_from_exclusive_worlds_adds() {
        // "Jaws" appears in both branches of a choice: P = 0.4 + 0.6 = 1.
        let mut px = PxDoc::new();
        let w = px.add_poss(px.root(), 1.0);
        let cat = px.add_elem(w, "catalog");
        let c = px.add_prob(cat);
        for (weight, extra) in [(0.4, "A"), (0.6, "B")] {
            let poss = px.add_poss(c, weight);
            let m = px.add_elem(poss, "movie");
            px.add_text_elem(m, "title", "Jaws");
            px.add_text_elem(m, "note", extra);
        }
        let q = parse_query("//movie/title").unwrap();
        let answers = eval_px(&px, &q).unwrap();
        assert!((answers.probability_of("Jaws") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn contains_predicate_over_uncertain_director() {
        let mut px = PxDoc::new();
        let w = px.add_poss(px.root(), 1.0);
        let cat = px.add_elem(w, "catalog");
        let m = px.add_elem(cat, "movie");
        px.add_text_elem(m, "title", "MI2");
        let d = px.add_elem(m, "director");
        let c = px.add_prob(d);
        let a = px.add_poss(c, 0.8);
        px.add_text(a, "John Woo");
        let b = px.add_poss(c, 0.2);
        px.add_text(b, "Woo Jon"); // no "John"
        let q =
            parse_query("//movie[some $d in .//director satisfies contains($d,\"John\")]/title")
                .unwrap();
        let answers = eval_px(&px, &q).unwrap();
        assert!((answers.probability_of("MI2") - 0.8).abs() < 1e-12);
    }

    #[test]
    fn not_predicate_is_exact() {
        let mut px = PxDoc::new();
        let w = px.add_poss(px.root(), 1.0);
        let cat = px.add_elem(w, "catalog");
        let m = px.add_elem(cat, "movie");
        px.add_text_elem(m, "title", "X");
        let g = px.add_elem(m, "genre");
        let c = px.add_prob(g);
        let a = px.add_poss(c, 0.25);
        px.add_text(a, "Horror");
        let b = px.add_poss(c, 0.75);
        px.add_text(b, "Action");
        let q = parse_query("//movie[not(genre=\"Horror\")]/title").unwrap();
        let answers = eval_px(&px, &q).unwrap();
        assert!((answers.probability_of("X") - 0.75).abs() < 1e-12);
    }

    #[test]
    fn numeric_comparison_over_uncertain_year() {
        // A movie whose year is 1994 (0.3) or 1996 (0.7): P(year >= 1995)
        // must be exactly the 1996 branch.
        let mut px = PxDoc::new();
        let w = px.add_poss(px.root(), 1.0);
        let cat = px.add_elem(w, "catalog");
        let m = px.add_elem(cat, "movie");
        px.add_text_elem(m, "title", "X");
        let y = px.add_elem(m, "year");
        let c = px.add_prob(y);
        let a = px.add_poss(c, 0.3);
        px.add_text(a, "1994");
        let b = px.add_poss(c, 0.7);
        px.add_text(b, "1996");
        let q = parse_query("//movie[year >= 1995]/title").unwrap();
        let answers = eval_px(&px, &q).unwrap();
        assert!((answers.probability_of("X") - 0.7).abs() < 1e-12);
        let q = parse_query("//movie[year != 1996]/title").unwrap();
        let answers = eval_px(&px, &q).unwrap();
        assert!((answers.probability_of("X") - 0.3).abs() < 1e-12);
    }

    #[test]
    fn starts_with_over_uncertain_title() {
        let mut px = PxDoc::new();
        let w = px.add_poss(px.root(), 1.0);
        let cat = px.add_elem(w, "catalog");
        let m = px.add_elem(cat, "movie");
        let t = px.add_elem(m, "title");
        let c = px.add_prob(t);
        let a = px.add_poss(c, 0.6);
        px.add_text(a, "Die Hard 2");
        let b = px.add_poss(c, 0.4);
        px.add_text(b, "Live Free or Die Hard");
        px.add_text_elem(m, "year", "1990");
        let q = parse_query("//movie[starts-with(title, \"Die Hard\")]/year").unwrap();
        let answers = eval_px(&px, &q).unwrap();
        assert!((answers.probability_of("1990") - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_result_set() {
        let px = from_xml(&parse("<catalog/>").unwrap());
        let q = parse_query("//movie/title").unwrap();
        let answers = eval_px(&px, &q).unwrap();
        assert!(answers.is_empty());
    }

    #[test]
    fn evaluator_memoizes_value_events() {
        let mut px = PxDoc::new();
        let w = px.add_poss(px.root(), 1.0);
        let cat = px.add_elem(w, "catalog");
        let m = px.add_elem(cat, "movie");
        let t = px.add_text_elem(m, "title", "Jaws");
        let index = DocIndex::build(&px);
        let mut eval = Evaluator::new(&px, &index);
        let first = eval.value_events(t).unwrap();
        let second = eval.value_events(t).unwrap();
        assert!(Rc::ptr_eq(&first, &second), "second lookup hits the memo");
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].0, "Jaws");
    }
}
