//! The event algebra over choice points, and exact probability
//! computation.
//!
//! Every probability node of a [`PxDoc`] is an independent random variable
//! that selects one of its possibilities. Any query-related event (a node
//! exists, a predicate holds, a value appears in the answer) is a boolean
//! combination of *atoms* "probability node v selected possibility i".
//!
//! Probabilities are computed exactly, without enumerating worlds, by one
//! decomposition core that every probability path shares:
//!
//! 1. **Independence decomposition.** The parts of an `And`/`Or` are split
//!    into groups that share no variable. Variable-disjoint events over
//!    independent choice points are independent, so
//!    P(⋀gᵢ) = ∏P(gᵢ) and P(⋁gᵢ) = 1 − ∏(1 − P(gᵢ)) with no expansion at
//!    all (the union is accumulated as P(a) + P(b)(1 − P(a)), which keeps
//!    tiny probabilities precise). A `Not` flips the polarity (De Morgan)
//!    instead of being subtracted from one, so a certainly-false event
//!    stays exactly 0.
//! 2. **Shannon expansion** runs only on a group that does not split: it
//!    picks the group's smallest variable, splits on its possibilities and
//!    decomposes every cofactor again. Expansion in ascending node-id
//!    order follows document order, which keeps cofactors small because
//!    an outer choice's atoms dominate the events of everything beneath
//!    it.
//!
//! Groups are ordered by their smallest part index and the expansion
//! variable is the smallest node id, so a result depends only on the
//! event's structure and the relative order of its variables: it is
//! bit-stable under any monotone renumbering of choice points (compaction).
//! The threshold path ([`probability_above`]) runs the same core with the
//! same grouping and arithmetic order, so every answer it keeps carries
//! the exact path's bits.

use imprecise_pxml::{ChoiceWeights, PxDoc, PxNodeId};
use std::collections::{HashMap, HashSet};

/// An atom: "probability node `prob_node` selects possibility `poss_index`".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChoiceAtom {
    /// The probability node (the variable).
    pub prob_node: PxNodeId,
    /// Index of the selected possibility within it.
    pub poss_index: u32,
}

/// Up to this many parts, [`Event::any`] finds repeated parts by a linear
/// scan of the parts kept so far; above it, with a hash set. Hashing an
/// event walks all of it while a comparison of distinct events usually
/// stops at the first atom, so the scan wins on the two- and three-part
/// disjunctions cofactors form, and the hash set on the disjunctions of
/// hundreds to thousands of occurrences that amalgamation forms on a
/// refined document. They cross near 32 parts.
const LINEAR_DEDUP_PARTS: usize = 32;

/// A boolean event over choice atoms.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Event {
    /// Always true.
    True,
    /// Always false.
    False,
    /// A single atom.
    Atom(ChoiceAtom),
    /// All of the inner events (flattened, never empty).
    And(Vec<Event>),
    /// Any of the inner events (flattened, never empty).
    Or(Vec<Event>),
    /// Negation.
    Not(Box<Event>),
}

impl Event {
    /// Smart conjunction with eager simplification (see [`Event::all`]).
    pub fn and(a: Event, b: Event) -> Event {
        match (a, b) {
            (Event::False, _) | (_, Event::False) => Event::False,
            (Event::True, x) | (x, Event::True) => x,
            (a, b) => Event::all([a, b]),
        }
    }

    /// Smart disjunction with eager simplification (see [`Event::any`]).
    pub fn or(a: Event, b: Event) -> Event {
        match (a, b) {
            (Event::True, _) | (_, Event::True) => Event::True,
            (Event::False, x) | (x, Event::False) => x,
            (a, b) => Event::any([a, b]),
        }
    }

    /// Negation with eager simplification (an associated constructor in
    /// the spirit of `Event::and`/`Event::or`, not the `!` operator).
    #[allow(clippy::should_implement_trait)]
    pub fn not(e: Event) -> Event {
        match e {
            Event::True => Event::False,
            Event::False => Event::True,
            Event::Not(inner) => *inner,
            other => Event::Not(Box::new(other)),
        }
    }

    /// Disjunction of many events, built in one pass: a `True` input
    /// decides it, `False` inputs drop out, nested disjunctions are
    /// flattened and a part repeated anywhere keeps only its first
    /// occurrence. Structurally equal to folding [`Event::or`] from
    /// `False`, without re-flattening the growing disjunction per input.
    pub fn any(events: impl IntoIterator<Item = Event>) -> Event {
        let parts = match collect_parts(events, Event::True, flatten_or) {
            Ok(parts) => parts,
            Err(decided) => return decided,
        };
        let mut out = dedup_first(parts);
        match out.len() {
            0 => Event::False,
            1 => out.swap_remove(0),
            _ => Event::Or(out),
        }
    }

    /// Conjunction of many events, built in one pass: a `False` input or
    /// two atoms selecting different possibilities of one variable decide
    /// it, `True` inputs drop out, nested conjunctions are flattened and a
    /// repeated atom keeps only its first occurrence. Structurally equal
    /// to folding [`Event::and`] from `True`.
    pub fn all(events: impl IntoIterator<Item = Event>) -> Event {
        let parts = match collect_parts(events, Event::False, flatten_and) {
            Ok(parts) => parts,
            Err(decided) => return decided,
        };
        let mut atoms: Vec<ChoiceAtom> = Vec::new();
        let mut out: Vec<Event> = Vec::with_capacity(parts.len());
        for e in parts {
            if let Event::Atom(atom) = &e {
                if let Some(prev) = atoms.iter().find(|x| x.prob_node == atom.prob_node) {
                    if prev.poss_index == atom.poss_index {
                        continue; // duplicate
                    }
                    return Event::False; // contradiction
                }
                atoms.push(*atom);
            }
            out.push(e);
        }
        match out.len() {
            0 => Event::True,
            1 => out.swap_remove(0),
            _ => Event::And(out),
        }
    }

    /// The smallest variable (probability node) occurring in the event.
    fn first_variable(&self) -> Option<PxNodeId> {
        match self {
            Event::True | Event::False => None,
            Event::Atom(a) => Some(a.prob_node),
            Event::And(parts) | Event::Or(parts) => {
                parts.iter().filter_map(Event::first_variable).min()
            }
            Event::Not(inner) => inner.first_variable(),
        }
    }

    /// Push `(variable, part)` for every atom occurring in the event.
    fn push_variables(&self, part: u32, out: &mut Vec<(PxNodeId, u32)>) {
        match self {
            Event::True | Event::False => {}
            Event::Atom(a) => out.push((a.prob_node, part)),
            Event::And(parts) | Event::Or(parts) => {
                for p in parts {
                    p.push_variables(part, out);
                }
            }
            Event::Not(inner) => inner.push_variables(part, out),
        }
    }

    /// Substitute "variable `v` selects possibility `idx`" and simplify.
    fn assign(&self, v: PxNodeId, idx: u32) -> Event {
        match self {
            Event::True => Event::True,
            Event::False => Event::False,
            Event::Atom(a) => {
                if a.prob_node == v {
                    if a.poss_index == idx {
                        Event::True
                    } else {
                        Event::False
                    }
                } else {
                    Event::Atom(*a)
                }
            }
            Event::And(parts) => Event::all(parts.iter().map(|p| p.assign(v, idx))),
            Event::Or(parts) => Event::any(parts.iter().map(|p| p.assign(v, idx))),
            Event::Not(inner) => Event::not(inner.assign(v, idx)),
        }
    }
}

/// The shared input pass of [`Event::any`] and [`Event::all`]: `Err` with
/// the result when the inputs decide it — the deciding constant when an
/// input equals `decisive`, or a lone non-constant input as-is (folding
/// the pairwise constructors returns it untouched too); otherwise every
/// input flattened into parts, the other constant's inputs dropped.
fn collect_parts(
    events: impl IntoIterator<Item = Event>,
    decisive: Event,
    flatten: fn(Event, &mut Vec<Event>),
) -> Result<Vec<Event>, Event> {
    let mut first: Option<Event> = None;
    let mut parts: Vec<Event> = Vec::new();
    let mut inputs = 0usize;
    for e in events {
        if e == decisive {
            return Err(decisive);
        }
        if matches!(e, Event::True | Event::False) {
            continue;
        }
        inputs += 1;
        if inputs == 1 {
            first = Some(e);
            continue;
        }
        if let Some(f) = first.take() {
            flatten(f, &mut parts);
        }
        flatten(e, &mut parts);
    }
    match first {
        Some(only) => Err(only),
        None => Ok(parts),
    }
}

/// `parts` with every repeated part dropped after its first occurrence,
/// in input order. The hash set only answers membership; the order comes
/// from the input.
fn dedup_first(parts: Vec<Event>) -> Vec<Event> {
    if parts.len() <= LINEAR_DEDUP_PARTS {
        let mut out: Vec<Event> = Vec::with_capacity(parts.len());
        for e in parts {
            if !out.contains(&e) {
                out.push(e);
            }
        }
        return out;
    }
    let keep: Vec<bool> = {
        let mut firsts: HashSet<&Event> = HashSet::with_capacity(parts.len());
        parts.iter().map(|e| firsts.insert(e)).collect()
    };
    parts
        .into_iter()
        .zip(keep)
        .filter_map(|(e, first)| first.then_some(e))
        .collect()
}

/// A partial assignment of choice points: each listed probability node is
/// fixed to the possibility at the paired index. Unlisted variables stay
/// free (their distributions are untouched).
pub type PartialAssignment = Vec<(PxNodeId, u32)>;

/// All satisfying partial assignments of `event`, each with its prior
/// weight (the product of the assigned possibilities' probabilities).
///
/// The assignments are produced by Shannon expansion in ascending variable
/// order, so they are mutually exclusive and cover the event exactly:
/// the weights sum to [`probability`]`(doc, event)`. An assignment stops
/// extending as soon as the cofactor is decided, so variables the event no
/// longer depends on are left free (their weight is marginalised out).
///
/// Returns `None` when more than `cap` satisfying assignments would be
/// produced — the caller should fall back to coarser machinery.
pub fn satisfying_assignments(
    doc: &PxDoc,
    event: &Event,
    cap: usize,
) -> Option<Vec<(PartialAssignment, f64)>> {
    let mut sat: Vec<(PartialAssignment, f64)> = Vec::new();
    let mut pending: Vec<(Event, PartialAssignment, f64)> = vec![(event.clone(), Vec::new(), 1.0)];
    while let Some((e, assignment, weight)) = pending.pop() {
        match e {
            Event::False => {}
            Event::True => {
                if sat.len() >= cap {
                    return None;
                }
                sat.push((assignment, weight));
            }
            other => {
                let v = other
                    .first_variable()
                    // lint:allow(expect-in-lib, holds by construction: non-constant event has a variable)
                    .expect("non-constant event has a variable");
                for (idx, &poss) in doc.children(v).iter().enumerate() {
                    // lint:allow(expect-in-lib, holds by construction: prob child is poss)
                    let p = doc.poss_prob(poss).expect("prob child is poss");
                    if p == 0.0 {
                        continue;
                    }
                    let cofactor = other.assign(v, idx as u32);
                    if cofactor == Event::False {
                        continue;
                    }
                    let mut extended = assignment.clone();
                    extended.push((v, idx as u32));
                    pending.push((cofactor, extended, weight * p));
                }
            }
        }
    }
    Some(sat)
}

fn flatten_and(e: Event, out: &mut Vec<Event>) {
    match e {
        Event::And(parts) => {
            for p in parts {
                flatten_and(p, out);
            }
        }
        other => out.push(other),
    }
}

fn flatten_or(e: Event, out: &mut Vec<Event>) {
    match e {
        Event::Or(parts) => {
            for p in parts {
                flatten_or(p, out);
            }
        }
        other => out.push(other),
    }
}

/// Exact probability of an event under the document's choice weights
/// (independence decomposition, then Shannon expansion — see the
/// [module docs](self)). Builds the document's [`ChoiceWeights`] table
/// once per call; callers asking about many events should build it once
/// and use [`probability_memo`] or [`probability_above`].
pub fn probability(doc: &PxDoc, event: &Event) -> f64 {
    probability_weights(&doc.choice_weights(), event)
}

/// Cheap, sound bounds `(lower, upper)` on the probability of an event,
/// computed structurally in one pass (no Shannon expansion).
///
/// The bounds are the Fréchet inequalities — they hold for *any*
/// dependence between the sub-events, so they are safe to use for
/// threshold pruning: if `upper < t`, the exact probability is `< t`.
/// Atoms are exact (an atom's probability *is* its possibility weight).
pub fn probability_bounds(weights: &ChoiceWeights, event: &Event) -> (f64, f64) {
    match event {
        Event::True => (1.0, 1.0),
        Event::False => (0.0, 0.0),
        Event::Atom(a) => {
            let w = weights.of(a.prob_node)[a.poss_index as usize];
            (w, w)
        }
        Event::And(parts) => {
            // P(⋀) ≤ min Pᵢ and P(⋀) ≥ 1 - Σ(1 - Pᵢ).
            let mut lo_deficit = 0.0;
            let mut hi = 1.0f64;
            for p in parts {
                let (l, h) = probability_bounds(weights, p);
                lo_deficit += 1.0 - l;
                hi = hi.min(h);
            }
            ((1.0 - lo_deficit).max(0.0), hi)
        }
        Event::Or(parts) => {
            // P(⋁) ≥ max Pᵢ and P(⋁) ≤ Σ Pᵢ.
            let mut lo = 0.0f64;
            let mut hi_sum = 0.0;
            for p in parts {
                let (l, h) = probability_bounds(weights, p);
                lo = lo.max(l);
                hi_sum += h;
            }
            (lo, hi_sum.min(1.0))
        }
        Event::Not(inner) => {
            let (l, h) = probability_bounds(weights, inner);
            (1.0 - h, 1.0 - l)
        }
    }
}

/// Memo table for [`probability_memo`]: exact probabilities of queried
/// events, valid for one document version.
///
/// Caching is at whole-event granularity: re-asking the probability of
/// an event already computed this execution (e.g. the same answer event
/// reached through a later step, or a re-run over the same snapshot) is
/// a single lookup. Cofactors are deliberately *not* cached — hashing
/// every intermediate event costs more than the decomposition saves.
/// A hit never changes a result: it returns a value previously computed
/// by the identical decomposition.
#[derive(Debug, Clone, Default)]
pub struct ProbMemo {
    cache: HashMap<Event, f64>,
}

impl ProbMemo {
    /// An empty memo table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached (event, probability) entries.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }
}

/// Exact probability of an event over a precomputed [`ChoiceWeights`]
/// table, memoized per event in `memo` (see [`ProbMemo`]). Bit-identical
/// to [`probability`].
pub fn probability_memo(weights: &ChoiceWeights, event: &Event, memo: &mut ProbMemo) -> f64 {
    match event {
        Event::True => 1.0,
        Event::False => 0.0,
        _ => {
            if let Some(&p) = memo.cache.get(event) {
                return p;
            }
            let p = probability_weights(weights, event);
            memo.cache.insert(event.clone(), p);
            p
        }
    }
}

/// Slack subtracted from pruning thresholds (both the structural-bound
/// gate and [`probability_above`]'s aborts) so floating-point drift in a
/// bound can never prune an answer whose true probability sits exactly
/// at the threshold.
pub(crate) const ABOVE_SLACK: f64 = 1e-12;

/// Threshold-aware exact probability: the exact probability of `event`,
/// or `None` as soon as the computation *proves* it is below
/// `min_required`.
///
/// This is the shared core with a live threshold. A product of
/// independent groups (a conjunction, or a negated disjunction) aborts
/// once one group, or the running product, falls below the threshold
/// (every factor is at most 1); a Shannon expansion aborts once the
/// remaining probability mass can no longer lift its running total to
/// the threshold. A union of independent groups (a disjunction, or a
/// negated conjunction) is computed in full. For events that pass, the
/// returned value is bit-identical to [`probability`] — the bound checks
/// add comparisons, never arithmetic, on the surviving path. The abort
/// checks carry a tiny slack so an answer whose true probability equals
/// the threshold is never aborted by rounding drift in the bound itself.
pub fn probability_above(weights: &ChoiceWeights, event: &Event, min_required: f64) -> Option<f64> {
    decompose(weights, event, false, min_required)
}

/// Exact probability over the flat [`ChoiceWeights`] table, uncached:
/// the right call when each event is asked exactly once. Bit-identical
/// to [`probability`].
pub(crate) fn probability_weights(weights: &ChoiceWeights, event: &Event) -> f64 {
    // With no threshold nothing can abort; 0.0 is unreachable.
    decompose(weights, event, false, 0.0).unwrap_or(0.0)
}

/// The decomposition core: P(`event`), or P(¬`event`) when `negated`,
/// or `None` once the result is proven below `min_required` (never when
/// `min_required` ≤ 0).
fn decompose(
    weights: &ChoiceWeights,
    event: &Event,
    negated: bool,
    min_required: f64,
) -> Option<f64> {
    match event {
        Event::True => Some(if negated { 0.0 } else { 1.0 }),
        Event::False => Some(if negated { 1.0 } else { 0.0 }),
        Event::Atom(a) if !negated => Some(
            weights
                .of(a.prob_node)
                .get(a.poss_index as usize)
                .copied()
                .unwrap_or(0.0),
        ),
        Event::Atom(a) => expand(weights, &[event], true, negated, a.prob_node, min_required),
        Event::Not(inner) => decompose(weights, inner, !negated, min_required),
        Event::And(parts) => decompose_parts(weights, parts, true, negated, min_required),
        Event::Or(parts) => decompose_parts(weights, parts, false, negated, min_required),
    }
}

/// P of the conjunction (`conj`) or disjunction of `parts`, negated when
/// `negated`: the product or union of its independent groups, each group
/// that does not split further expanded on its smallest variable.
fn decompose_parts(
    weights: &ChoiceWeights,
    parts: &[Event],
    conj: bool,
    negated: bool,
    min_required: f64,
) -> Option<f64> {
    let groups = IndependentGroups::of(parts);
    // Under negation a conjunction is a disjunction of negated parts and
    // vice versa (De Morgan), so the polarity picks the combination.
    let product = conj != negated;
    // A factor below the threshold sinks the whole product, so product
    // groups inherit it; a union's groups are computed in full, unless
    // the one group is the whole event.
    let group_required = if product || groups.len() == 1 {
        min_required
    } else {
        0.0
    };
    let mut acc = if product { 1.0 } else { 0.0 };
    for g in 0..groups.len() {
        let members = groups.members(g);
        let q = match groups.first_var[g] {
            Some(v) if members.len() > 1 => {
                let members: Vec<&Event> = members.iter().map(|&i| &parts[i as usize]).collect();
                expand(weights, &members, conj, negated, v, group_required)?
            }
            // A single part (parts without variables never join a group).
            _ => decompose(
                weights,
                &parts[members[0] as usize],
                negated,
                group_required,
            )?,
        };
        if product {
            acc *= q;
            if acc < min_required - ABOVE_SLACK {
                return None;
            }
        } else {
            // P(a ∨ b) = P(a) + P(b)(1 − P(a)) for independent a, b: the
            // union 1 − ∏(1 − qᵢ) accumulated so that tiny probabilities
            // keep their precision.
            acc += q * (1.0 - acc);
        }
    }
    Some(acc)
}

/// Shannon expansion of the conjunction (`conj`) or disjunction of
/// `parts` (one group that does not split) on its smallest variable `v`:
/// Σ w·P(cofactor), each cofactor decomposed again. Aborts once the
/// remaining mass cannot lift the total to `min_required`.
fn expand(
    weights: &ChoiceWeights,
    parts: &[&Event],
    conj: bool,
    negated: bool,
    v: PxNodeId,
    min_required: f64,
) -> Option<f64> {
    let ws = weights.of(v);
    let mut remaining: f64 = ws.iter().sum();
    let mut total = 0.0;
    for (idx, &w) in ws.iter().enumerate() {
        remaining -= w;
        if w == 0.0 {
            continue;
        }
        // Even if this and every later possibility contributed fully,
        // can the total still reach the threshold?
        if total + w + remaining < min_required - ABOVE_SLACK {
            return None;
        }
        let assigned = parts.iter().map(|p| p.assign(v, idx as u32));
        let cofactor = if conj {
            Event::all(assigned)
        } else {
            Event::any(assigned)
        };
        // What this cofactor must contribute for the total to still be
        // reachable, given the rest contributes fully.
        let need = min_required - total - remaining;
        let sub_required = if need > 0.0 { need / w } else { 0.0 };
        total += w * decompose(weights, &cofactor, negated, sub_required)?;
    }
    Some(total)
}

/// The parts of one `And`/`Or` split into groups that share no variable,
/// ordered by their smallest part index (never by hash order), with each
/// group's smallest variable.
///
/// Every part's variables are read once into sorted `(variable, part)`
/// pairs; parts sharing a variable are adjacent there and are joined by
/// a union-find whose root is always the smallest part index.
struct IndependentGroups {
    /// Part indices, grouped, ascending within each group.
    order: Vec<u32>,
    /// Group `g` is `order[starts[g]..starts[g + 1]]`.
    starts: Vec<usize>,
    /// The smallest variable of each group (`None`: constants only).
    first_var: Vec<Option<PxNodeId>>,
}

impl IndependentGroups {
    fn of(parts: &[Event]) -> Self {
        let n = parts.len();
        let mut pairs: Vec<(PxNodeId, u32)> = Vec::new();
        for (i, p) in parts.iter().enumerate() {
            p.push_variables(i as u32, &mut pairs);
        }
        pairs.sort_unstable();
        pairs.dedup();
        let mut root_of: Vec<u32> = (0..n as u32).collect();
        for pair in pairs.windows(2) {
            if pair[0].0 == pair[1].0 {
                let (a, b) = (root(&mut root_of, pair[0].1), root(&mut root_of, pair[1].1));
                root_of[a.max(b) as usize] = a.min(b);
            }
        }
        let mut split = false;
        for i in 0..n as u32 {
            let r = root(&mut root_of, i);
            root_of[i as usize] = r;
            split |= r != 0;
        }
        // Most events do not split: one group, whose smallest variable
        // is the smallest variable of all.
        if n > 0 && !split {
            return IndependentGroups {
                order: (0..n as u32).collect(),
                starts: vec![0, n],
                first_var: vec![pairs.first().map(|&(v, _)| v)],
            };
        }
        // A root is its group's smallest part index, so a stable sort by
        // root orders groups by smallest part and keeps each ascending.
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&i| root_of[i as usize]);
        let mut first_var_of: Vec<Option<PxNodeId>> = vec![None; n];
        for &(v, part) in &pairs {
            first_var_of[root_of[part as usize] as usize].get_or_insert(v);
        }
        let mut starts = Vec::new();
        let mut first_var = Vec::new();
        for (k, &i) in order.iter().enumerate() {
            let r = root_of[i as usize];
            if k == 0 || r != root_of[order[k - 1] as usize] {
                starts.push(k);
                first_var.push(first_var_of[r as usize]);
            }
        }
        starts.push(n);
        IndependentGroups {
            order,
            starts,
            first_var,
        }
    }

    fn len(&self) -> usize {
        self.first_var.len()
    }

    fn members(&self, g: usize) -> &[u32] {
        &self.order[self.starts[g]..self.starts[g + 1]]
    }
}

/// Union-find root of `i`, halving the path on the way.
fn root(parent: &mut [u32], mut i: u32) -> u32 {
    while parent[i as usize] != i {
        let up = parent[parent[i as usize] as usize];
        parent[i as usize] = up;
        i = up;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference the decomposition core is checked against: plain
    /// Shannon expansion on the smallest variable, no decomposition,
    /// weights read from the arena.
    fn shannon_reference(doc: &PxDoc, event: &Event) -> f64 {
        match event {
            Event::True => 1.0,
            Event::False => 0.0,
            _ => {
                let v = event
                    .first_variable()
                    .expect("non-constant event has a variable");
                let mut total = 0.0;
                for (idx, &poss) in doc.children(v).iter().enumerate() {
                    let w = doc.poss_prob(poss).expect("prob child is poss");
                    if w == 0.0 {
                        continue;
                    }
                    total += w * shannon_reference(doc, &event.assign(v, idx as u32));
                }
                total
            }
        }
    }

    /// A document with two independent binary choices (30/70 and 40/60).
    fn doc2() -> (PxDoc, PxNodeId, PxNodeId) {
        let mut px = PxDoc::new();
        let w = px.add_poss(px.root(), 1.0);
        let e = px.add_elem(w, "doc");
        let c1 = px.add_prob(e);
        let a = px.add_poss(c1, 0.3);
        px.add_text_elem(a, "x", "1");
        let b = px.add_poss(c1, 0.7);
        px.add_text_elem(b, "x", "2");
        let c2 = px.add_prob(e);
        let c = px.add_poss(c2, 0.4);
        px.add_text_elem(c, "y", "1");
        let d = px.add_poss(c2, 0.6);
        px.add_text_elem(d, "y", "2");
        (px, c1, c2)
    }

    fn atom(v: PxNodeId, i: u32) -> Event {
        Event::Atom(ChoiceAtom {
            prob_node: v,
            poss_index: i,
        })
    }

    #[test]
    fn constants() {
        let (px, _, _) = doc2();
        assert_eq!(probability(&px, &Event::True), 1.0);
        assert_eq!(probability(&px, &Event::False), 0.0);
    }

    #[test]
    fn single_atom_probability() {
        let (px, c1, _) = doc2();
        assert!((probability(&px, &atom(c1, 0)) - 0.3).abs() < 1e-12);
        assert!((probability(&px, &atom(c1, 1)) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn independent_conjunction_multiplies() {
        let (px, c1, c2) = doc2();
        let e = Event::and(atom(c1, 0), atom(c2, 1));
        assert!((probability(&px, &e) - 0.3 * 0.6).abs() < 1e-12);
    }

    #[test]
    fn disjunction_inclusion_exclusion() {
        let (px, c1, c2) = doc2();
        let e = Event::or(atom(c1, 0), atom(c2, 0));
        let expected = 0.3 + 0.4 - 0.3 * 0.4;
        assert!((probability(&px, &e) - expected).abs() < 1e-12);
    }

    #[test]
    fn contradictory_atoms_conjoin_to_false() {
        let (_, c1, _) = doc2();
        assert_eq!(Event::and(atom(c1, 0), atom(c1, 1)), Event::False);
        assert_eq!(Event::and(atom(c1, 0), atom(c1, 0)), atom(c1, 0));
    }

    #[test]
    fn exclusive_atoms_add() {
        let (px, c1, _) = doc2();
        let e = Event::or(atom(c1, 0), atom(c1, 1));
        assert!((probability(&px, &e) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn negation_complements() {
        let (px, c1, _) = doc2();
        let e = Event::not(atom(c1, 0));
        assert!((probability(&px, &e) - 0.7).abs() < 1e-12);
        assert_eq!(Event::not(Event::not(atom(c1, 0))), atom(c1, 0));
    }

    #[test]
    fn shared_variable_correlation_is_exact() {
        let (px, c1, c2) = doc2();
        // (c1=0 ∧ c2=0) ∨ (c1=0 ∧ c2=1) = c1=0 → 0.3, not 0.12+0.18 minus
        // anything approximate.
        let e = Event::or(
            Event::and(atom(c1, 0), atom(c2, 0)),
            Event::and(atom(c1, 0), atom(c2, 1)),
        );
        assert!((probability(&px, &e) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn de_morgan_consistency() {
        let (px, c1, c2) = doc2();
        let a = atom(c1, 0);
        let b = atom(c2, 0);
        let lhs = Event::not(Event::and(a.clone(), b.clone()));
        let rhs = Event::or(Event::not(a), Event::not(b));
        assert!((probability(&px, &lhs) - probability(&px, &rhs)).abs() < 1e-12);
    }

    #[test]
    fn any_and_all_helpers() {
        let (px, c1, c2) = doc2();
        let e = Event::all([atom(c1, 1), atom(c2, 1), Event::True]);
        assert!((probability(&px, &e) - 0.42).abs() < 1e-12);
        let e = Event::any([Event::False, atom(c1, 0)]);
        assert!((probability(&px, &e) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn satisfying_assignments_cover_the_event_exactly() {
        let (px, c1, c2) = doc2();
        for event in [
            atom(c1, 0),
            Event::or(atom(c1, 0), atom(c2, 0)),
            Event::and(atom(c1, 1), atom(c2, 0)),
            Event::not(Event::and(atom(c1, 0), atom(c2, 0))),
            Event::or(
                Event::and(atom(c1, 0), atom(c2, 0)),
                Event::and(atom(c1, 0), atom(c2, 1)),
            ),
        ] {
            let sat = satisfying_assignments(&px, &event, 1000).expect("under cap");
            let total: f64 = sat.iter().map(|(_, w)| w).sum();
            assert!(
                (total - probability(&px, &event)).abs() < 1e-12,
                "{event:?}: weights {total} vs probability"
            );
            // Assignments are mutually exclusive: they differ on their
            // first shared variable or one extends the other — never both
            // satisfied in one world. Verified pairwise on the variables.
            for (i, (a, _)) in sat.iter().enumerate() {
                for (b, _) in &sat[i + 1..] {
                    let conflict = a
                        .iter()
                        .any(|(v, x)| b.iter().any(|(w, y)| v == w && x != y));
                    assert!(conflict, "{a:?} and {b:?} overlap");
                }
            }
        }
    }

    #[test]
    fn satisfying_assignments_constants_and_cap() {
        let (px, c1, _) = doc2();
        assert_eq!(satisfying_assignments(&px, &Event::False, 10), Some(vec![]));
        let all = satisfying_assignments(&px, &Event::True, 10).unwrap();
        assert_eq!(all, vec![(vec![], 1.0)]);
        // Cap of 1 cannot hold the two satisfying assignments of a
        // disjunction across two variables.
        let e = Event::or(atom(c1, 0), atom(c1, 1));
        assert!(satisfying_assignments(&px, &e, 1).is_none());
    }

    #[test]
    fn satisfying_assignments_leave_decided_variables_free() {
        let (px, c1, _) = doc2();
        // c1=0 decides the event: c2 never appears in any assignment.
        let sat = satisfying_assignments(&px, &atom(c1, 0), 10).unwrap();
        assert_eq!(sat.len(), 1);
        assert_eq!(sat[0].0, vec![(c1, 0)]);
        assert!((sat[0].1 - 0.3).abs() < 1e-12);
    }

    #[test]
    fn bounds_bracket_exact_probability() {
        let (px, c1, c2) = doc2();
        let weights = px.choice_weights();
        let events = [
            Event::True,
            Event::False,
            atom(c1, 0),
            Event::not(atom(c1, 0)),
            Event::and(atom(c1, 0), atom(c2, 1)),
            Event::or(atom(c1, 0), atom(c2, 0)),
            Event::or(
                Event::and(atom(c1, 0), atom(c2, 0)),
                Event::and(atom(c1, 1), atom(c2, 1)),
            ),
            Event::not(Event::and(atom(c1, 0), atom(c2, 0))),
        ];
        for e in events {
            let (lo, hi) = probability_bounds(&weights, &e);
            let p = probability(&px, &e);
            assert!(
                lo <= p + 1e-12 && p <= hi + 1e-12,
                "{e:?}: {p} outside [{lo}, {hi}]"
            );
            assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
        }
        // Atoms are exact.
        let (lo, hi) = probability_bounds(&weights, &atom(c1, 0));
        assert_eq!((lo, hi), (0.3, 0.3));
    }

    #[test]
    fn branch_and_bound_is_exact_for_survivors_and_sound_for_prunees() {
        let (px, c1, c2) = doc2();
        let weights = px.choice_weights();
        let events = [
            atom(c1, 0),                                      // 0.3
            atom(c1, 1),                                      // 0.7
            Event::or(atom(c1, 0), atom(c2, 0)),              // 0.58
            Event::and(atom(c1, 1), atom(c2, 1)),             // 0.42
            Event::not(Event::and(atom(c1, 0), atom(c2, 0))), // 0.88
        ];
        for e in &events {
            let p = probability(&px, e);
            for t in [0.0, 0.25, 0.5, 0.75, 1.0] {
                match probability_above(&weights, e, t) {
                    Some(got) => assert_eq!(got.to_bits(), p.to_bits(), "{e:?} at {t}"),
                    None => assert!(p < t, "{e:?}: aborted at {t} but p = {p}"),
                }
            }
            // A threshold exactly at the probability never aborts.
            assert_eq!(
                probability_above(&weights, e, p).map(f64::to_bits),
                Some(p.to_bits()),
                "{e:?}"
            );
        }
        // Constants short-circuit.
        assert_eq!(probability_above(&weights, &Event::True, 0.9), Some(1.0));
        assert_eq!(probability_above(&weights, &Event::False, 0.9), Some(0.0));
    }

    #[test]
    fn memoized_probability_matches_plain() {
        let (px, c1, c2) = doc2();
        let weights = px.choice_weights();
        let mut memo = ProbMemo::new();
        let events = [
            atom(c1, 0),
            Event::or(atom(c1, 0), atom(c2, 0)),
            Event::not(Event::and(atom(c1, 0), atom(c2, 0))),
            Event::or(atom(c1, 0), atom(c2, 0)), // repeat: served from cache
        ];
        for e in &events {
            let exact = probability(&px, e);
            let memoized = probability_memo(&weights, e, &mut memo);
            assert_eq!(exact.to_bits(), memoized.to_bits(), "{e:?}");
            assert_eq!(
                exact.to_bits(),
                probability_weights(&weights, e).to_bits(),
                "{e:?}"
            );
        }
        assert!(!memo.is_empty());
        assert!(memo.len() >= 2);
    }

    #[test]
    fn three_way_choice() {
        let mut px = PxDoc::new();
        let w = px.add_poss(px.root(), 1.0);
        let e = px.add_elem(w, "doc");
        let c = px.add_prob(e);
        for (i, weight) in [0.2, 0.3, 0.5].iter().enumerate() {
            let poss = px.add_poss(c, *weight);
            px.add_text_elem(poss, "v", format!("{i}"));
        }
        let ev = Event::or(atom(c, 0), atom(c, 2));
        assert!((probability(&px, &ev) - 0.7).abs() < 1e-12);
    }

    /// Three independent choices (c1: 30/70, c2: 40/60, c3: 0/50/50 with
    /// a zero-weight possibility) and a battery of events mixing shared
    /// and disjoint variables under nesting and negation.
    fn doc3_events() -> (PxDoc, Vec<Event>) {
        let (mut px, c1, c2) = doc2();
        let root_elem = px.children(px.children(px.root())[0])[0];
        let c3 = px.add_prob(root_elem);
        for (i, weight) in [0.0, 0.5, 0.5].into_iter().enumerate() {
            let poss = px.add_poss(c3, weight);
            px.add_text_elem(poss, "z", format!("{i}"));
        }
        let (a, b, c) = (atom(c1, 0), atom(c2, 1), atom(c3, 2));
        let events = vec![
            Event::and(a.clone(), Event::or(b.clone(), c.clone())),
            Event::or(Event::and(a.clone(), b.clone()), c.clone()),
            Event::or(
                Event::and(a.clone(), b.clone()),
                Event::and(Event::not(a.clone()), c.clone()),
            ),
            Event::not(Event::or(
                Event::and(a.clone(), atom(c3, 0)),
                Event::not(b.clone()),
            )),
            Event::all([
                Event::or(a.clone(), b.clone()),
                Event::or(b.clone(), c.clone()),
                Event::not(atom(c3, 1)),
            ]),
            Event::any([
                Event::not(Event::and(a.clone(), c.clone())),
                Event::and(atom(c1, 1), atom(c2, 0)),
            ]),
            Event::or(atom(c3, 0), Event::and(atom(c3, 0), b.clone())),
        ];
        (px, events)
    }

    #[test]
    fn decomposition_matches_shannon_reference() {
        let (px, c1, c2) = doc2();
        let (px3, events3) = doc3_events();
        let events2 = [
            Event::or(atom(c1, 0), atom(c2, 0)),
            Event::and(atom(c1, 1), atom(c2, 1)),
            Event::not(Event::and(atom(c1, 0), atom(c2, 0))),
            Event::not(Event::or(atom(c1, 0), atom(c1, 1))),
        ];
        for (doc, events) in [(&px, &events2[..]), (&px3, &events3[..])] {
            for e in events {
                let (got, want) = (probability(doc, e), shannon_reference(doc, e));
                assert!((got - want).abs() < 1e-12, "{e:?}: {got} vs {want}");
            }
        }
        // A certainly-false negation stays exactly 0 (the complement is
        // pushed to the leaves, never subtracted from one).
        assert_eq!(probability(&px, &events2[3]), 0.0);
    }

    #[test]
    fn threshold_core_agrees_bitwise_on_decomposed_events() {
        let (px, events) = doc3_events();
        let weights = px.choice_weights();
        for e in &events {
            let p = probability(&px, e);
            for t in [0.0, 0.1, 0.25, 0.5, 0.75, 1.0, p] {
                match probability_above(&weights, e, t) {
                    Some(got) => assert_eq!(got.to_bits(), p.to_bits(), "{e:?} at {t}"),
                    None => assert!(p < t, "{e:?}: aborted at {t} but p = {p}"),
                }
            }
        }
    }

    #[test]
    fn independent_groups_follow_part_order() {
        let (px, c1, c2) = doc2();
        let root = px.root();
        let parts = [
            atom(c2, 0),
            atom(c1, 0),
            Event::or(atom(c2, 1), atom(root, 0)),
            Event::True,
        ];
        let groups = IndependentGroups::of(&parts);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups.members(0), &[0, 2]);
        assert_eq!(groups.members(1), &[1]);
        assert_eq!(groups.members(2), &[3]);
        assert_eq!(groups.first_var, vec![Some(root), Some(c1), None]);
        // Parts chained through shared variables form one group.
        let chained = [
            atom(c2, 0),
            Event::and(atom(c1, 1), atom(c2, 1)),
            atom(c1, 0),
        ];
        let one = IndependentGroups::of(&chained);
        assert_eq!(one.len(), 1);
        assert_eq!(one.members(0), &[0, 1, 2]);
        assert_eq!(one.first_var, vec![Some(c1)]);
        // A hand-built empty conjunction or disjunction has no groups.
        assert_eq!(IndependentGroups::of(&[]).len(), 0);
        let w = px.choice_weights();
        assert_eq!(probability_weights(&w, &Event::And(Vec::new())), 1.0);
        assert_eq!(probability_weights(&w, &Event::Or(Vec::new())), 0.0);
    }
}
