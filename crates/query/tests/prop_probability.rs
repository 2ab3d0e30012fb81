//! Property tests for exact event probability: the decomposition core
//! (independence decomposition, then Shannon expansion) against
//! brute-force enumeration of every full assignment of the choice points,
//! the threshold and memoized paths against the exact path bit for bit,
//! and bit-stability under a monotone renumbering of choice points.
//! Also pins the one-pass `Event::any`/`Event::all` constructors to the
//! pairwise simplification they replace.

use imprecise_pxml::{PxDoc, PxNodeId};
use imprecise_query::event::probability;
use imprecise_query::{probability_above, probability_memo, ChoiceAtom, Event, ProbMemo};
use proptest::prelude::*;
use std::collections::HashMap;

/// Choice points as raw possibility weights (0..=4 each, zero allowed;
/// normalised per choice point when the document is built).
fn choices_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(0u8..=4, 1..=3), 2..=6)
}

/// Bytes an event is decoded from (see [`EventDecoder`]).
fn recipe_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..=255, 1..48)
}

/// Build a document with one choice point per entry of `choices`, each
/// preceded by `pad` certain elements (padding shifts every choice
/// point's id while keeping their order). Returns the document and the
/// choice points with their possibility counts.
fn build_doc(choices: &[Vec<u8>], pad: usize) -> (PxDoc, Vec<(PxNodeId, usize)>) {
    let mut px = PxDoc::new();
    let w = px.add_poss(px.root(), 1.0);
    let root = px.add_elem(w, "doc");
    let mut vars = Vec::new();
    for (k, raw) in choices.iter().enumerate() {
        for _ in 0..pad {
            px.add_text_elem(root, "pad", "x");
        }
        let c = px.add_prob(root);
        let sum: u32 = raw.iter().map(|&r| u32::from(r)).sum();
        for (i, &r) in raw.iter().enumerate() {
            // An all-zero draw becomes a certain first possibility.
            let weight = if sum == 0 {
                if i == 0 {
                    1.0
                } else {
                    0.0
                }
            } else {
                f64::from(r) / f64::from(sum)
            };
            let poss = px.add_poss(c, weight);
            px.add_text_elem(poss, "v", format!("{k}.{i}"));
        }
        vars.push((c, raw.len()));
    }
    px.validate().expect("generated doc is valid");
    (px, vars)
}

/// Decodes a byte recipe into a random event over `vars`, through the
/// public smart constructors (so events are shaped like the evaluator's):
/// atoms, binary and n-ary `and`/`or`, and `not`, nested up to depth 4,
/// sharing variables freely. A recipe that runs out of bytes reads zeros.
struct EventDecoder<'a> {
    bytes: std::slice::Iter<'a, u8>,
    vars: &'a [(PxNodeId, usize)],
}

impl EventDecoder<'_> {
    fn byte(&mut self) -> usize {
        usize::from(self.bytes.next().copied().unwrap_or(0))
    }

    fn atom(&mut self) -> Event {
        let (v, n) = self.vars[self.byte() % self.vars.len()];
        Event::Atom(ChoiceAtom {
            prob_node: v,
            poss_index: (self.byte() % n) as u32,
        })
    }

    fn event(&mut self, depth: usize) -> Event {
        if depth >= 4 {
            return self.atom();
        }
        match self.byte() % 8 {
            0..=2 => self.atom(),
            3 => Event::and(self.event(depth + 1), self.event(depth + 1)),
            4 => Event::or(self.event(depth + 1), self.event(depth + 1)),
            5 => Event::not(self.event(depth + 1)),
            6 => {
                let n = 2 + self.byte() % 3;
                Event::all((0..n).map(|_| self.event(depth + 1)).collect::<Vec<_>>())
            }
            _ => {
                let n = 2 + self.byte() % 3;
                Event::any((0..n).map(|_| self.event(depth + 1)).collect::<Vec<_>>())
            }
        }
    }
}

fn decode(recipe: &[u8], vars: &[(PxNodeId, usize)]) -> Event {
    EventDecoder {
        bytes: recipe.iter(),
        vars,
    }
    .event(0)
}

/// Does `event` hold when every choice point takes the possibility in
/// `world`?
fn holds(event: &Event, world: &HashMap<PxNodeId, u32>) -> bool {
    match event {
        Event::True => true,
        Event::False => false,
        Event::Atom(a) => world[&a.prob_node] == a.poss_index,
        Event::And(parts) => parts.iter().all(|p| holds(p, world)),
        Event::Or(parts) => parts.iter().any(|p| holds(p, world)),
        Event::Not(inner) => !holds(inner, world),
    }
}

/// P(event) by enumerating every full assignment of the choice points.
fn brute_force(px: &PxDoc, vars: &[(PxNodeId, usize)], event: &Event) -> f64 {
    let weights = px.choice_weights();
    let mut world: HashMap<PxNodeId, u32> = HashMap::new();
    let mut counter = vec![0usize; vars.len()];
    let mut total = 0.0;
    loop {
        let mut weight = 1.0;
        for (&(v, _), &i) in vars.iter().zip(&counter) {
            world.insert(v, i as u32);
            weight *= weights.of(v)[i];
        }
        if holds(event, &world) {
            total += weight;
        }
        // Next assignment (odometer order).
        let mut k = 0;
        loop {
            if k == vars.len() {
                return total;
            }
            counter[k] += 1;
            if counter[k] < vars[k].1 {
                break;
            }
            counter[k] = 0;
            k += 1;
        }
    }
}

/// Rewrite every atom's variable through `map`.
fn renumber(event: &Event, map: &HashMap<PxNodeId, PxNodeId>) -> Event {
    match event {
        Event::True | Event::False => event.clone(),
        Event::Atom(a) => Event::Atom(ChoiceAtom {
            prob_node: map[&a.prob_node],
            poss_index: a.poss_index,
        }),
        Event::And(parts) => Event::And(parts.iter().map(|p| renumber(p, map)).collect()),
        Event::Or(parts) => Event::Or(parts.iter().map(|p| renumber(p, map)).collect()),
        Event::Not(inner) => Event::Not(Box::new(renumber(inner, map))),
    }
}

/// The pairwise disjunction the one-pass constructors replaced: flatten
/// both sides, drop repeated parts.
fn reference_or(a: Event, b: Event) -> Event {
    match (a, b) {
        (Event::True, _) | (_, Event::True) => Event::True,
        (Event::False, x) | (x, Event::False) => x,
        (a, b) => {
            let mut parts = Vec::new();
            flatten(a, &mut parts, true);
            flatten(b, &mut parts, true);
            let mut out: Vec<Event> = Vec::new();
            for e in parts {
                if !out.contains(&e) {
                    out.push(e);
                }
            }
            match out.len() {
                0 => Event::False,
                1 => out.pop().unwrap(),
                _ => Event::Or(out),
            }
        }
    }
}

/// The pairwise conjunction the one-pass constructors replaced: flatten
/// both sides, drop repeated atoms, contradictory atoms give `False`.
fn reference_and(a: Event, b: Event) -> Event {
    match (a, b) {
        (Event::False, _) | (_, Event::False) => Event::False,
        (Event::True, x) | (x, Event::True) => x,
        (a, b) => {
            let mut parts = Vec::new();
            flatten(a, &mut parts, false);
            flatten(b, &mut parts, false);
            let mut atoms: Vec<ChoiceAtom> = Vec::new();
            let mut out: Vec<Event> = Vec::new();
            for e in parts {
                if let Event::Atom(atom) = &e {
                    if let Some(prev) = atoms.iter().find(|x| x.prob_node == atom.prob_node) {
                        if prev.poss_index == atom.poss_index {
                            continue;
                        }
                        return Event::False;
                    }
                    atoms.push(*atom);
                }
                out.push(e);
            }
            match out.len() {
                0 => Event::True,
                1 => out.pop().unwrap(),
                _ => Event::And(out),
            }
        }
    }
}

fn flatten(e: Event, out: &mut Vec<Event>, or: bool) {
    match e {
        Event::Or(parts) if or => parts.into_iter().for_each(|p| flatten(p, out, or)),
        Event::And(parts) if !or => parts.into_iter().for_each(|p| flatten(p, out, or)),
        other => out.push(other),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The core is exact: within 1e-12 of summing the weights of every
    /// full assignment that satisfies the event.
    #[test]
    fn core_matches_brute_force_enumeration(
        choices in choices_strategy(),
        recipe in recipe_strategy(),
    ) {
        let (px, vars) = build_doc(&choices, 0);
        let event = decode(&recipe, &vars);
        let exact = probability(&px, &event);
        let brute = brute_force(&px, &vars, &event);
        prop_assert!(
            (exact - brute).abs() < 1e-12,
            "{:?}: core {} vs brute force {}", event, exact, brute
        );
    }

    /// The threshold path keeps the exact path's bits for survivors and
    /// aborts only when the probability really is below the threshold;
    /// the memoized path (cold and warm) keeps the exact path's bits.
    #[test]
    fn threshold_and_memo_paths_agree_bitwise(
        choices in choices_strategy(),
        recipe in recipe_strategy(),
    ) {
        let (px, vars) = build_doc(&choices, 0);
        let event = decode(&recipe, &vars);
        let weights = px.choice_weights();
        let exact = probability(&px, &event);
        let brute = brute_force(&px, &vars, &event);
        for t in [0.0, 0.25, 0.5, 0.75, 1.0, exact] {
            match probability_above(&weights, &event, t) {
                Some(p) => prop_assert_eq!(p.to_bits(), exact.to_bits(), "{:?} at {}", event, t),
                None => prop_assert!(
                    exact < t && brute < t + 1e-12,
                    "{:?}: aborted at {} but p = {} (brute force {})", event, t, exact, brute
                ),
            }
        }
        let mut memo = ProbMemo::new();
        for _ in 0..2 {
            let memoized = probability_memo(&weights, &event, &mut memo);
            prop_assert_eq!(memoized.to_bits(), exact.to_bits(), "{:?}", event);
        }
    }

    /// Renumbering the choice points monotonically (what compaction does)
    /// changes no bit of any probability.
    #[test]
    fn monotone_renumbering_keeps_every_bit(
        choices in choices_strategy(),
        recipe in recipe_strategy(),
        pad in 1usize..4,
    ) {
        let (px, vars) = build_doc(&choices, 0);
        let (padded, padded_vars) = build_doc(&choices, pad);
        let map: HashMap<PxNodeId, PxNodeId> = vars
            .iter()
            .zip(&padded_vars)
            .map(|(&(a, _), &(b, _))| (a, b))
            .collect();
        prop_assert!(vars.iter().zip(&padded_vars).all(|(a, b)| a.0 < b.0));
        let event = decode(&recipe, &vars);
        let moved = renumber(&event, &map);
        prop_assert_eq!(
            probability(&px, &event).to_bits(),
            probability(&padded, &moved).to_bits(),
            "{:?}", event
        );
        let (w, pw) = (px.choice_weights(), padded.choice_weights());
        for t in [0.25, 0.5] {
            prop_assert_eq!(
                probability_above(&w, &event, t).map(f64::to_bits),
                probability_above(&pw, &moved, t).map(f64::to_bits)
            );
        }
    }

    /// `Event::any` is structurally equal to folding `Event::or` from
    /// `False`, and `Event::all` to folding `Event::and` from `True` —
    /// and both pairwise constructors to the flatten-and-scan forms they
    /// replaced — so every answer event is unchanged. Inputs repeat parts,
    /// nest disjunctions and mix in constants; long lists exercise the
    /// hashed de-duplication.
    #[test]
    fn one_pass_constructors_equal_pairwise_folds(
        choices in choices_strategy(),
        recipes in proptest::collection::vec(recipe_strategy(), 1..6),
        picks in proptest::collection::vec(0u8..=255, 0..80),
    ) {
        let (_, vars) = build_doc(&choices, 0);
        let pool: Vec<Event> = recipes.iter().map(|r| decode(r, &vars)).collect();
        let xs: Vec<Event> = picks
            .iter()
            .map(|&k| match k % 16 {
                0 => Event::False,
                1 if k > 128 => Event::True,
                _ => pool[usize::from(k) % pool.len()].clone(),
            })
            .collect();
        let any = Event::any(xs.clone());
        prop_assert_eq!(&any, &xs.iter().cloned().fold(Event::False, Event::or));
        prop_assert_eq!(&any, &xs.iter().cloned().fold(Event::False, reference_or));
        let all = Event::all(xs.clone());
        prop_assert_eq!(&all, &xs.iter().cloned().fold(Event::True, Event::and));
        prop_assert_eq!(&all, &xs.iter().cloned().fold(Event::True, reference_and));
    }
}
