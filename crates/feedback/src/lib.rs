//! # imprecise-feedback — user feedback on query answers
//!
//! The paper's information cycle (§I, Fig. 1) closes with user feedback:
//! *"Feedback on query answers can be traced back to possible worlds and
//! be used to remove data related to impossible worlds from the database,
//! hence incrementally improving the integration result."* The demo notes
//! the mechanism "has not been implemented, hence cannot be demonstrated
//! yet" — this crate implements it, following the semantics of the
//! authors' technical report (TR-CTIT-07-25, the paper's reference \[4\]):
//! conditioning the possible-world distribution on the (in)correctness of
//! an answer value.
//!
//! Three conditioning strategies, all exact:
//!
//! * **Local conditioning** — when the answer's event decomposes into
//!   independent per-choice-point constraints (conjunction of constraints
//!   on distinct choice points), the affected possibilities are zeroed
//!   and the document renormalised in place. Compact: the representation
//!   only shrinks.
//! * **Event expansion** — for events that correlate choice points (e.g.
//!   negating a conjunction), the event's satisfying assignments are
//!   enumerated by Shannon expansion over *only the choice points the
//!   event mentions*; the result is a choice over restricted copies of
//!   the document, one per satisfying assignment, with every unmentioned
//!   choice point kept intact. Exact because the event is independent of
//!   the unmentioned choice points, so conditioning leaves their
//!   (conditionally independent) distributions unchanged.
//! * **World rebuild** — last resort when the event's satisfying
//!   assignments exceed [`ASSIGNMENT_CAP`]: worlds are enumerated
//!   (capped), filtered by re-evaluating the query, and a new document is
//!   built as a single choice over the surviving distinct worlds.
//!
//! [`apply_feedback`] picks the first strategy that applies, in the order
//! above.

#![forbid(unsafe_code)]

use imprecise_pxml::{PxDoc, PxNodeId, PxNodeKind, TooManyWorlds};
use imprecise_query::event::satisfying_assignments;
use imprecise_query::xml_eval::eval_xml_values;
use imprecise_query::{answer_event, EvalError, Event, Query};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

/// Satisfying-assignment budget of the event-expansion strategy. An
/// answer value's event mentions one choice point per occurrence of the
/// value, so real feedback events stay far below this; the cap only
/// guards pathological hand-built events.
pub const ASSIGNMENT_CAP: usize = 4096;

/// Why feedback could not be applied.
#[derive(Debug, Clone, PartialEq)]
pub enum FeedbackError {
    /// The feedback contradicts every possible world (e.g. confirming a
    /// value that occurs in none, or rejecting one that occurs in all).
    Contradiction,
    /// World enumeration exceeded the cap during the rebuild fallback.
    TooManyWorlds(TooManyWorlds),
    /// Query evaluation failed while deriving the answer event.
    Eval(EvalError),
}

impl fmt::Display for FeedbackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeedbackError::Contradiction => {
                write!(f, "feedback contradicts every possible world")
            }
            FeedbackError::TooManyWorlds(e) => write!(f, "world rebuild failed: {e}"),
            FeedbackError::Eval(e) => write!(f, "query evaluation failed: {e}"),
        }
    }
}

impl std::error::Error for FeedbackError {}

impl From<TooManyWorlds> for FeedbackError {
    fn from(e: TooManyWorlds) -> Self {
        FeedbackError::TooManyWorlds(e)
    }
}

impl From<EvalError> for FeedbackError {
    fn from(e: EvalError) -> Self {
        FeedbackError::Eval(e)
    }
}

/// Which conditioning strategy was used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// In-place zeroing of possibilities (independent constraints).
    Local,
    /// Shannon expansion over the event's choice points; unmentioned
    /// choice points are kept intact.
    EventExpansion,
    /// Enumerate–filter–rebuild over possible worlds.
    WorldRebuild,
}

/// What the feedback did to the document.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedbackReport {
    /// Strategy used.
    pub method: Method,
    /// Possible worlds before conditioning.
    pub worlds_before: f64,
    /// Possible worlds after conditioning.
    pub worlds_after: f64,
    /// Representation nodes before.
    pub nodes_before: usize,
    /// Representation nodes after.
    pub nodes_after: usize,
    /// Prior probability of the confirmed/rejected event.
    pub event_probability: f64,
}

/// Condition `doc` on the user's verdict that `value` is a correct
/// (`correct = true`) or incorrect (`correct = false`) answer to `query`.
///
/// Returns the conditioned document and a report. `world_cap` bounds the
/// rebuild fallback.
pub fn apply_feedback(
    doc: &PxDoc,
    query: &Query,
    value: &str,
    correct: bool,
    world_cap: usize,
) -> Result<(PxDoc, FeedbackReport), FeedbackError> {
    let worlds_before = doc.world_count_f64();
    let nodes_before = doc.reachable_count();
    let event = answer_event(doc, query, value)?.unwrap_or(Event::False);
    let target = if correct { event } else { Event::not(event) };
    let p_event = imprecise_query::event::probability(doc, &target);
    if p_event <= 0.0 {
        return Err(FeedbackError::Contradiction);
    }
    let (out, method) = match decompose_independent(doc, &target) {
        Some(constraints) => {
            let mut conditioned = doc.clone();
            for (prob_node, allowed) in constraints {
                for (idx, &poss) in conditioned.children(prob_node).to_vec().iter().enumerate() {
                    if !allowed.contains(&(idx as u32)) {
                        conditioned.set_poss_prob(poss, 0.0);
                    }
                }
            }
            conditioned.simplify();
            (conditioned, Method::Local)
        }
        None => match condition_by_expansion(doc, &target) {
            Some(conditioned) => (conditioned, Method::EventExpansion),
            None => (
                rebuild_from_worlds(doc, query, value, correct, world_cap)?,
                Method::WorldRebuild,
            ),
        },
    };
    let report = FeedbackReport {
        method,
        worlds_before,
        worlds_after: out.world_count_f64(),
        nodes_before,
        nodes_after: out.reachable_count(),
        event_probability: p_event,
    };
    Ok((out, report))
}

/// Try to decompose an event into a conjunction of independent per-choice
/// constraints: `∧_v (v ∈ allowed_v)` over *distinct* choice points.
fn decompose_independent(doc: &PxDoc, event: &Event) -> Option<BTreeMap<PxNodeId, BTreeSet<u32>>> {
    let mut constraints: BTreeMap<PxNodeId, BTreeSet<u32>> = BTreeMap::new();
    if collect_conjuncts(doc, event, &mut constraints) {
        Some(constraints)
    } else {
        None
    }
}

fn collect_conjuncts(
    doc: &PxDoc,
    event: &Event,
    constraints: &mut BTreeMap<PxNodeId, BTreeSet<u32>>,
) -> bool {
    match event {
        Event::True => true,
        Event::False => false,
        Event::Atom(a) => insert_constraint(constraints, a.prob_node, [a.poss_index]),
        Event::And(parts) => parts.iter().all(|p| collect_conjuncts(doc, p, constraints)),
        Event::Or(parts) => {
            // A disjunction is a single constraint only when every disjunct
            // is an atom of the same choice point.
            let mut var: Option<PxNodeId> = None;
            let mut allowed: BTreeSet<u32> = BTreeSet::new();
            for p in parts {
                match p {
                    Event::Atom(a) => {
                        if *var.get_or_insert(a.prob_node) != a.prob_node {
                            return false;
                        }
                        allowed.insert(a.poss_index);
                    }
                    _ => return false,
                }
            }
            match var {
                Some(v) => insert_constraint(constraints, v, allowed),
                None => true,
            }
        }
        Event::Not(inner) => match inner.as_ref() {
            // ¬(v = i) ⇒ v ∈ all \ {i}.
            Event::Atom(a) => {
                let n = doc.children(a.prob_node).len() as u32;
                let allowed: BTreeSet<u32> = (0..n).filter(|&i| i != a.poss_index).collect();
                insert_constraint(constraints, a.prob_node, allowed)
            }
            // ¬(v ∈ S) for single-variable S.
            Event::Or(parts) => {
                let mut var: Option<PxNodeId> = None;
                let mut excluded: BTreeSet<u32> = BTreeSet::new();
                for p in parts {
                    match p {
                        Event::Atom(a) => {
                            if *var.get_or_insert(a.prob_node) != a.prob_node {
                                return false;
                            }
                            excluded.insert(a.poss_index);
                        }
                        _ => return false,
                    }
                }
                match var {
                    Some(v) => {
                        let n = doc.children(v).len() as u32;
                        let allowed: BTreeSet<u32> =
                            (0..n).filter(|i| !excluded.contains(i)).collect();
                        insert_constraint(constraints, v, allowed)
                    }
                    None => true,
                }
            }
            _ => false,
        },
    }
}

fn insert_constraint(
    constraints: &mut BTreeMap<PxNodeId, BTreeSet<u32>>,
    var: PxNodeId,
    allowed: impl IntoIterator<Item = u32>,
) -> bool {
    let allowed: BTreeSet<u32> = allowed.into_iter().collect();
    match constraints.get_mut(&var) {
        // Repeated constraints on one variable would need intersection
        // semantics *and* correlation analysis with the enclosing shape;
        // only identical repeats are safe to accept.
        Some(existing) => *existing == allowed,
        None => {
            constraints.insert(var, allowed);
            true
        }
    }
}

/// Exact conditioning by Shannon expansion over the event's choice
/// points. Returns `None` when the event has more than [`ASSIGNMENT_CAP`]
/// satisfying assignments.
///
/// Each satisfying partial assignment σ (weight w(σ), mutually exclusive
/// by construction) becomes one possibility of the result's root choice,
/// holding a copy of the document in which every choice point assigned by
/// σ is collapsed to its chosen possibility and every other choice point
/// is copied unchanged. Weights are normalised by the event probability.
fn condition_by_expansion(doc: &PxDoc, target: &Event) -> Option<PxDoc> {
    let sat = satisfying_assignments(doc, target, ASSIGNMENT_CAP)?;
    let total: f64 = sat.iter().map(|(_, w)| w).sum();
    if total <= 0.0 {
        // Callers check the event probability first; this only guards
        // degenerate zero-weight assignments.
        return None;
    }
    let mut out = PxDoc::new();
    for (assignment, weight) in sat {
        let sigma: HashMap<PxNodeId, u32> = assignment.into_iter().collect();
        match sigma.get(&doc.root()) {
            // The root choice is part of the assignment: one possibility.
            Some(&idx) => {
                let chosen = doc.children(doc.root())[idx as usize];
                let root = out.root();
                let poss = out.add_poss(root, weight / total);
                copy_restricted(doc, chosen, &mut out, poss, &sigma);
            }
            // Root left free: expand it here so the result keeps the
            // layered prob-root shape.
            None => {
                for &src_poss in doc.children(doc.root()) {
                    // lint:allow(expect-in-lib, holds by construction: root child is poss)
                    let p = doc.poss_prob(src_poss).expect("root child is poss");
                    if p == 0.0 {
                        continue;
                    }
                    let root = out.root();
                    let poss = out.add_poss(root, weight * p / total);
                    copy_restricted(doc, src_poss, &mut out, poss, &sigma);
                }
            }
        }
    }
    out.simplify();
    Some(out)
}

/// Copy the *contents* of `src_node` (a possibility or element) beneath
/// `dst_parent`, collapsing every choice point assigned in `sigma` to its
/// chosen possibility (inlined as certain content).
fn copy_restricted(
    src: &PxDoc,
    src_node: PxNodeId,
    dst: &mut PxDoc,
    dst_parent: PxNodeId,
    sigma: &HashMap<PxNodeId, u32>,
) {
    for &child in src.children(src_node) {
        copy_restricted_node(src, child, dst, dst_parent, sigma);
    }
}

fn copy_restricted_node(
    src: &PxDoc,
    node: PxNodeId,
    dst: &mut PxDoc,
    dst_parent: PxNodeId,
    sigma: &HashMap<PxNodeId, u32>,
) {
    match src.kind(node) {
        PxNodeKind::Text(t) => {
            dst.add_text(dst_parent, t.clone());
        }
        PxNodeKind::Elem { tag, attrs } => {
            let el = dst.add_elem(dst_parent, tag.clone());
            for a in attrs {
                dst.set_attr(el, a.name.clone(), a.value.clone());
            }
            copy_restricted(src, node, dst, el, sigma);
        }
        PxNodeKind::Prob => match sigma.get(&node) {
            // Collapsed: splice the chosen possibility's contents in as
            // certain content of the parent.
            Some(&idx) => {
                let chosen = src.children(node)[idx as usize];
                copy_restricted(src, chosen, dst, dst_parent, sigma);
            }
            None => {
                let prob = dst.add_prob(dst_parent);
                for &src_poss in src.children(node) {
                    // lint:allow(expect-in-lib, holds by construction: prob child is poss)
                    let p = src.poss_prob(src_poss).expect("prob child is poss");
                    let poss = dst.add_poss(prob, p);
                    copy_restricted(src, src_poss, dst, poss, sigma);
                }
            }
        },
        // lint:allow(panic-in-lib, statically unreachable: poss copied via its prob parent)
        PxNodeKind::Poss => unreachable!("poss copied via its prob parent"),
    }
}

/// Enumerate worlds, keep the ones consistent with the verdict, rebuild.
fn rebuild_from_worlds(
    doc: &PxDoc,
    query: &Query,
    value: &str,
    correct: bool,
    world_cap: usize,
) -> Result<PxDoc, FeedbackError> {
    let worlds = doc.worlds(world_cap)?;
    // Group surviving worlds by document fingerprint.
    let mut order: Vec<(imprecise_xmlkit::XmlDoc, f64)> = Vec::new();
    let mut index: BTreeMap<u64, usize> = BTreeMap::new();
    let mut total = 0.0;
    for w in worlds {
        let has_value = eval_xml_values(&w.doc, query).iter().any(|v| v == value);
        if has_value != correct {
            continue;
        }
        total += w.prob;
        let fp = imprecise_xmlkit::subtree_fingerprint(&w.doc, w.doc.root());
        match index.get(&fp) {
            Some(&i) => order[i].1 += w.prob,
            None => {
                index.insert(fp, order.len());
                order.push((w.doc, w.prob));
            }
        }
    }
    if order.is_empty() || total <= 0.0 {
        return Err(FeedbackError::Contradiction);
    }
    let mut out = PxDoc::new();
    for (world_doc, p) in order {
        let root = out.root();
        let poss = out.add_poss(root, p / total);
        out.graft_xml(poss, &world_doc, world_doc.root());
    }
    out.simplify();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use imprecise_query::{eval_px, parse_query, ChoiceAtom};

    /// Fig. 2: John with phone 1111 or 2222, or two Johns.
    fn fig2() -> PxDoc {
        let mut px = PxDoc::new();
        let root = px.root();
        let w1 = px.add_poss(root, 0.5);
        let ab1 = px.add_elem(w1, "addressbook");
        let p1 = px.add_elem(ab1, "person");
        px.add_text_elem(p1, "nm", "John");
        let tel_choice = px.add_prob(p1);
        let t1 = px.add_poss(tel_choice, 0.5);
        px.add_text_elem(t1, "tel", "1111");
        let t2 = px.add_poss(tel_choice, 0.5);
        px.add_text_elem(t2, "tel", "2222");
        let w2 = px.add_poss(root, 0.5);
        let ab2 = px.add_elem(w2, "addressbook");
        for tel in ["1111", "2222"] {
            let p = px.add_elem(ab2, "person");
            px.add_text_elem(p, "nm", "John");
            px.add_text_elem(p, "tel", tel);
        }
        px
    }

    #[test]
    fn confirming_an_answer_conditions_the_distribution() {
        let px = fig2();
        let q = parse_query("//person/tel").unwrap();
        // Prior: P(1111 in answer) = 0.25 + 0.5 = 0.75.
        let before = eval_px(&px, &q).unwrap();
        assert!((before.probability_of("1111") - 0.75).abs() < 1e-12);
        let (after, report) = apply_feedback(&px, &q, "1111", true, 10_000).unwrap();
        after.validate().unwrap();
        assert!((report.event_probability - 0.75).abs() < 1e-12);
        let posterior = eval_px(&after, &q).unwrap();
        assert!((posterior.probability_of("1111") - 1.0).abs() < 1e-9);
        // Uncertainty shrank.
        assert!(report.worlds_after < report.worlds_before);
    }

    #[test]
    fn rejecting_an_answer_removes_its_worlds() {
        let px = fig2();
        let q = parse_query("//person/tel").unwrap();
        let (after, report) = apply_feedback(&px, &q, "2222", false, 10_000).unwrap();
        after.validate().unwrap();
        let posterior = eval_px(&after, &q).unwrap();
        assert_eq!(posterior.probability_of("2222"), 0.0);
        assert!((posterior.probability_of("1111") - 1.0).abs() < 1e-9);
        // Only the John-with-1111 world survives: P was 0.25.
        assert!((report.event_probability - 0.25).abs() < 1e-12);
        assert!(after.is_certain());
    }

    #[test]
    fn contradictory_feedback_is_detected() {
        let px = fig2();
        let q = parse_query("//person/tel").unwrap();
        // "9999" never occurs: confirming it is a contradiction.
        assert_eq!(
            apply_feedback(&px, &q, "9999", true, 10_000).unwrap_err(),
            FeedbackError::Contradiction
        );
        // "John" occurs in every world of //person/nm: rejecting it is too.
        let qn = parse_query("//person/nm").unwrap();
        assert_eq!(
            apply_feedback(&px, &qn, "John", false, 10_000).unwrap_err(),
            FeedbackError::Contradiction
        );
    }

    #[test]
    fn apply_feedback_agrees_with_direct_rebuild() {
        // Whatever strategy apply_feedback picks, the conditioned world
        // distribution must equal the brute-force rebuild.
        let px = fig2();
        let q = parse_query("//person/tel").unwrap();
        let (chosen, _) = apply_feedback(&px, &q, "2222", false, 10_000).unwrap();
        let rebuilt = rebuild_from_worlds(&px, &q, "2222", false, 10_000).unwrap();
        let d1 = chosen.world_distribution(1000).unwrap();
        let d2 = rebuilt.world_distribution(1000).unwrap();
        assert_eq!(d1.len(), d2.len());
        for (a, b) in d1.iter().zip(d2.iter()) {
            assert!((a.prob - b.prob).abs() < 1e-9);
            assert!(imprecise_xmlkit::deep_equal(&a.doc, &b.doc));
        }
    }

    #[test]
    fn single_choice_feedback_uses_local_conditioning() {
        // One binary choice: the answer event is a single atom, so the
        // compact local strategy applies and never enumerates worlds.
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
        let (after, report) = apply_feedback(&px, &q, "Jaws!", false, 10_000).unwrap();
        assert_eq!(report.method, Method::Local);
        assert!(after.is_certain());
        let posterior = eval_px(&after, &q).unwrap();
        assert!((posterior.probability_of("Jaws") - 1.0).abs() < 1e-12);
        // World cap of 0 would break a rebuild; local path never needs it.
        let (after2, report2) = apply_feedback(&px, &q, "Jaws", true, 0).unwrap();
        assert_eq!(report2.method, Method::Local);
        assert!(after2.is_certain());
    }

    #[test]
    fn feedback_loop_monotonically_reduces_uncertainty() {
        let mut px = fig2();
        let q = parse_query("//person/tel").unwrap();
        let mut last_worlds = px.world_count_f64();
        // Confirm 1111, which keeps worlds where some person has 1111.
        let (next, report) = apply_feedback(&px, &q, "1111", true, 10_000).unwrap();
        assert!(report.worlds_after <= last_worlds);
        px = next;
        last_worlds = px.world_count_f64();
        // Then reject 2222: only the single-John-1111 world remains.
        let (fin, report2) = apply_feedback(&px, &q, "2222", false, 10_000).unwrap();
        assert!(report2.worlds_after <= last_worlds);
        assert!(fin.is_certain());
    }

    #[test]
    fn decompose_handles_negated_atoms() {
        let px = fig2();
        let tel_choice = px.prob_nodes()[1];
        let e = Event::not(Event::Atom(ChoiceAtom {
            prob_node: tel_choice,
            poss_index: 0,
        }));
        let d = decompose_independent(&px, &e).expect("decomposable");
        assert_eq!(d[&tel_choice], BTreeSet::from([1u32]));
    }

    #[test]
    fn correlated_feedback_uses_event_expansion() {
        // Rejecting "2222" in Fig. 2 correlates the top-level world choice
        // with the nested telephone choice — not locally decomposable.
        let px = fig2();
        let q = parse_query("//person/tel").unwrap();
        let (after, report) = apply_feedback(&px, &q, "2222", false, 0).unwrap();
        // world_cap of 0 proves the rebuild fallback was never consulted.
        assert_eq!(report.method, Method::EventExpansion);
        after.validate().unwrap();
        assert!(after.is_certain());
        let posterior = eval_px(&after, &q).unwrap();
        assert!((posterior.probability_of("1111") - 1.0).abs() < 1e-9);
    }

    #[test]
    fn event_expansion_matches_world_rebuild_distribution() {
        let px = fig2();
        let q = parse_query("//person/tel").unwrap();
        for (value, correct) in [("1111", true), ("2222", false), ("1111", false)] {
            let expanded = condition_by_expansion(&px, &verdict_event(&px, &q, value, correct))
                .expect("under cap");
            let rebuilt = rebuild_from_worlds(&px, &q, value, correct, 10_000).unwrap();
            let d1 = expanded.world_distribution(1000).unwrap();
            let d2 = rebuilt.world_distribution(1000).unwrap();
            assert_eq!(d1.len(), d2.len(), "{value} {correct}");
            for (a, b) in d1.iter().zip(d2.iter()) {
                assert!((a.prob - b.prob).abs() < 1e-9);
                assert!(imprecise_xmlkit::deep_equal(&a.doc, &b.doc));
            }
        }
    }

    #[test]
    fn event_expansion_keeps_unmentioned_choices_intact() {
        // A document with a choice the query never touches: conditioning
        // on the queried value must leave the other choice uncertain.
        let mut px = PxDoc::new();
        let w = px.add_poss(px.root(), 1.0);
        let movie = px.add_elem(w, "movie");
        let title = px.add_elem(movie, "title");
        let tc = px.add_prob(title);
        let t1 = px.add_poss(tc, 0.5);
        px.add_text(t1, "Jaws");
        let t2 = px.add_poss(tc, 0.5);
        px.add_text(t2, "Jaws 2");
        let year = px.add_elem(movie, "year");
        let yc = px.add_prob(year);
        let y1 = px.add_poss(yc, 0.6);
        px.add_text(y1, "1975");
        let y2 = px.add_poss(yc, 0.4);
        px.add_text(y2, "1978");
        let q = parse_query("//movie/title").unwrap();
        let (after, _) = apply_feedback(&px, &q, "Jaws", true, 0).unwrap();
        let years = eval_px(&after, &parse_query("//movie/year").unwrap()).unwrap();
        assert!((years.probability_of("1975") - 0.6).abs() < 1e-9);
        assert!((years.probability_of("1978") - 0.4).abs() < 1e-9);
        assert!((eval_px(&after, &q).unwrap().probability_of("Jaws") - 1.0).abs() < 1e-9);
    }

    fn verdict_event(px: &PxDoc, q: &Query, value: &str, correct: bool) -> Event {
        let e = answer_event(px, q, value).unwrap().unwrap_or(Event::False);
        if correct {
            e
        } else {
            Event::not(e)
        }
    }

    #[test]
    fn correlated_events_fall_back_to_rebuild() {
        // ¬(a=0 ∧ b=0) is not an independent product constraint.
        let px = fig2();
        let probs = px.prob_nodes();
        let e = Event::not(Event::and(
            Event::Atom(ChoiceAtom {
                prob_node: probs[0],
                poss_index: 0,
            }),
            Event::Atom(ChoiceAtom {
                prob_node: probs[1],
                poss_index: 0,
            }),
        ));
        assert!(decompose_independent(&px, &e).is_none());
    }
}
