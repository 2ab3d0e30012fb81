//! Property test: index-driven evaluation equals the tree walk it
//! replaced.
//!
//! The reference below is the evaluator as it was before the document
//! index existed: every step walks the probabilistic tree below its
//! context, conjoining one choice atom per multi-possibility choice point
//! it passes, and every predicate runs on every node the walk selects.
//! On random documents (uncertain titles and years, optional and
//! alternative movies, genres under a wrapper element, mixed content,
//! nested movies) and random queries (child and descendant steps, `//*`
//! chains, equality on child, descendant and self paths, comparisons,
//! `contains`, `starts-with`, `some … satisfies`, `not`), the indexed
//! answer events must be *structurally* equal to the walk's, and every
//! streamed probability bitwise equal at thresholds 0 and 0.5. The value
//! lookup's candidates must contain every context at which the looked-up
//! predicate's event is not `False`.

use imprecise_pxml::{PxDoc, PxNodeId, PxNodeKind};
use imprecise_query::ast::Step;
use imprecise_query::px_eval::value_events;
use imprecise_query::{
    answer_events, parse_query, probability_above, probability_memo, Axis, ChoiceAtom, DocIndex,
    Event, Expr, NodeTest, ProbMemo, Query, QueryPlan, RelPath,
};
use proptest::prelude::*;

/// The tree walk, kept as test support: the reference every indexed
/// answer is checked against.
mod walk {
    use super::*;

    /// Events collected per key in first-encounter order, each key's
    /// disjuncts OR-ed once.
    fn merge<K: PartialEq>(items: Vec<(K, Event)>) -> Vec<(K, Event)> {
        let mut keys: Vec<(K, Vec<Event>)> = Vec::new();
        for (k, e) in items {
            match keys.iter_mut().find(|(seen, _)| *seen == k) {
                Some((_, events)) => events.push(e),
                None => keys.push((k, vec![e])),
            }
        }
        keys.into_iter()
            .map(|(k, events)| (k, Event::any(events)))
            .collect()
    }

    /// The plan's logical rewrites: collapse `//*//x` to `//*/x` and drop
    /// repeated predicates.
    fn normalize(steps: &[Step]) -> Vec<Step> {
        let mut steps = steps.to_vec();
        for i in 0..steps.len().saturating_sub(1) {
            if steps[i].axis == Axis::Descendant
                && steps[i].test == NodeTest::Any
                && steps[i].predicates.is_empty()
                && steps[i + 1].axis == Axis::Descendant
            {
                steps[i + 1].axis = Axis::Child;
            }
        }
        for step in &mut steps {
            let mut seen: Vec<Expr> = Vec::new();
            step.predicates.retain(|p| {
                let fresh = !seen.contains(p);
                if fresh {
                    seen.push(p.clone());
                }
                fresh
            });
        }
        steps
    }

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

    /// Items reachable from `node` without entering an element.
    fn items(doc: &PxDoc, node: PxNodeId, event: Event, out: &mut Vec<(PxNodeId, Event)>) {
        match doc.kind(node) {
            PxNodeKind::Prob => {
                for (idx, &poss) in doc.children(node).iter().enumerate() {
                    let ev = Event::and(event.clone(), atom_for(doc, node, idx));
                    for &c in doc.children(poss) {
                        items(doc, c, ev.clone(), out);
                    }
                }
            }
            PxNodeKind::Poss => unreachable!("poss outside its prob"),
            _ => out.push((node, event)),
        }
    }

    /// Every element at or below `node`, through choices.
    fn descendants(doc: &PxDoc, node: PxNodeId, event: Event, out: &mut Vec<(PxNodeId, Event)>) {
        match doc.kind(node) {
            PxNodeKind::Prob => {
                for (idx, &poss) in doc.children(node).iter().enumerate() {
                    let ev = Event::and(event.clone(), atom_for(doc, node, idx));
                    for &c in doc.children(poss) {
                        descendants(doc, c, ev.clone(), out);
                    }
                }
            }
            PxNodeKind::Poss => unreachable!("poss outside its prob"),
            PxNodeKind::Elem { .. } => {
                out.push((node, event.clone()));
                for &c in doc.children(node) {
                    descendants(doc, c, event.clone(), out);
                }
            }
            PxNodeKind::Text(_) => {}
        }
    }

    fn matches(doc: &PxDoc, node: PxNodeId, test: &NodeTest) -> bool {
        doc.is_elem(node)
            && match test {
                NodeTest::Any => true,
                NodeTest::Tag(t) => doc.tag(node) == Some(t.as_str()),
            }
    }

    fn step(
        doc: &PxDoc,
        ctx: Option<PxNodeId>,
        ctx_event: &Event,
        step: &Step,
    ) -> Vec<(PxNodeId, Event)> {
        let mut found = Vec::new();
        match (ctx, step.axis) {
            (None, Axis::Child) => items(doc, doc.root(), Event::True, &mut found),
            (None, Axis::Descendant) => descendants(doc, doc.root(), Event::True, &mut found),
            (Some(e), Axis::Child) => {
                for &c in doc.children(e) {
                    items(doc, c, Event::True, &mut found);
                }
            }
            (Some(e), Axis::Descendant) => {
                for &c in doc.children(e) {
                    descendants(doc, c, Event::True, &mut found);
                }
            }
        }
        let mut out = Vec::new();
        for (node, local) in found {
            if !matches(doc, node, &step.test) {
                continue;
            }
            let mut ev = Event::and(ctx_event.clone(), local);
            for pred in &step.predicates {
                if ev == Event::False {
                    break;
                }
                ev = Event::and(ev, expr(doc, node, pred));
            }
            if ev != Event::False {
                out.push((node, ev));
            }
        }
        out
    }

    fn rel(doc: &PxDoc, ctx: PxNodeId, path: &RelPath) -> Vec<(PxNodeId, Event)> {
        let mut current = vec![(ctx, Event::True)];
        for s in &path.steps {
            let mut reached = Vec::new();
            for (c, ce) in current {
                reached.extend(step(doc, Some(c), &ce, s));
            }
            current = merge(reached);
        }
        current
    }

    fn value_test(
        doc: &PxDoc,
        ctx: PxNodeId,
        path: &RelPath,
        test: impl Fn(&str) -> bool,
    ) -> Event {
        let mut out = Event::False;
        for (n, e) in rel(doc, ctx, path) {
            let variants = value_events(doc, n).expect("small values");
            let val = Event::any(
                variants
                    .iter()
                    .filter(|(v, _)| test(v))
                    .map(|(_, e)| e.clone()),
            );
            out = Event::or(out, Event::and(e, val));
        }
        out
    }

    /// The event "predicate `e` holds at `ctx`".
    pub fn expr(doc: &PxDoc, ctx: PxNodeId, e: &Expr) -> Event {
        match e {
            Expr::Exists(path) => Event::any(rel(doc, ctx, path).into_iter().map(|(_, e)| e)),
            Expr::Eq(path, lit) => value_test(doc, ctx, path, |v| v == lit.as_str()),
            Expr::Cmp(path, op, lit) => value_test(doc, ctx, path, |v| op.holds(v, lit)),
            Expr::Contains(path, lit) => value_test(doc, ctx, path, |v| v.contains(lit.as_str())),
            Expr::StartsWith(path, lit) => {
                value_test(doc, ctx, path, |v| v.starts_with(lit.as_str()))
            }
            Expr::Some { path, cond } => {
                let mut out = Event::False;
                for (n, e) in rel(doc, ctx, path) {
                    out = Event::or(out, Event::and(e, expr(doc, n, cond)));
                }
                out
            }
            Expr::And(a, b) => Event::and(expr(doc, ctx, a), expr(doc, ctx, b)),
            Expr::Or(a, b) => Event::or(expr(doc, ctx, a), expr(doc, ctx, b)),
            Expr::Not(inner) => Event::not(expr(doc, ctx, inner)),
        }
    }

    /// Every element of the document matching `test`.
    pub fn elements(doc: &PxDoc, test: &NodeTest) -> Vec<PxNodeId> {
        let mut all = Vec::new();
        descendants(doc, doc.root(), Event::True, &mut all);
        all.into_iter()
            .map(|(n, _)| n)
            .filter(|&n| matches(doc, n, test))
            .collect()
    }

    /// The amalgamated (value, event) pairs of `query`, document order.
    pub fn answer_events(doc: &PxDoc, query: &Query) -> Vec<(String, Event)> {
        let steps = normalize(&query.steps);
        let Some((first, rest)) = steps.split_first() else {
            return Vec::new();
        };
        let mut current = merge(step(doc, None, &Event::True, first));
        for s in rest {
            let mut reached = Vec::new();
            for (c, ce) in current {
                reached.extend(step(doc, Some(c), &ce, s));
            }
            current = merge(reached);
        }
        let mut values = Vec::new();
        for (node, ctx_event) in current {
            for (v, e) in value_events(doc, node).expect("small values") {
                values.push((v, Event::and(ctx_event.clone(), e)));
            }
        }
        merge(values)
    }
}

const TITLES: [&str; 4] = ["Jaws", "Jaws 2", "Die Hard", "MI2"];
const GENRES: [&str; 3] = ["Horror", "Action", "Crime"];
const DIRECTORS: [&str; 3] = ["John Woo", "Spielberg", "John McTiernan"];

/// Recipe for one movie element.
#[derive(Debug, Clone)]
struct MovieSpec {
    title: u8,
    /// A choice between `title` and this one.
    alt_title: Option<u8>,
    /// Title as mixed content: text, then an `<i>` element.
    mixed_title: bool,
    /// Genres, under a `<genres>` wrapper; all but the first may be
    /// uncertain.
    genres: Vec<u8>,
    uncertain_genre: bool,
    director: Option<u8>,
    /// Year offset from 1990, a choice with `alt_year` when set; no year
    /// element when `empty_year` (an empty `<year/>` instead).
    year: u8,
    alt_year: Option<u8>,
    empty_year: bool,
    /// A nested `<movie>` holding only a title, behind a choice when
    /// `w` is odd.
    nested: Option<u8>,
    /// Weight of this movie's binary choices, 1..=9 tenths.
    w: u8,
}

#[derive(Debug, Clone)]
struct DocSpec {
    certain: Vec<MovieSpec>,
    optional: Vec<MovieSpec>,
    /// Pairs of alternative movies: exactly one of the two exists.
    alternatives: Vec<(MovieSpec, MovieSpec)>,
}

fn movie_strategy() -> impl Strategy<Value = MovieSpec> {
    (
        (
            0u8..TITLES.len() as u8,
            proptest::option::of(0u8..TITLES.len() as u8),
            0u8..6,
            proptest::collection::vec(0u8..GENRES.len() as u8, 0..3),
            proptest::bool::ANY,
        ),
        (
            proptest::option::of(0u8..DIRECTORS.len() as u8),
            0u8..12,
            proptest::option::of(0u8..12),
            0u8..8,
            proptest::option::of(0u8..TITLES.len() as u8),
            1u8..=9,
        ),
    )
        .prop_map(
            |(
                (title, alt_title, mixed, genres, uncertain_genre),
                (director, year, alt_year, empty, nested, w),
            )| MovieSpec {
                title,
                alt_title,
                mixed_title: mixed == 0,
                genres,
                uncertain_genre,
                director,
                year,
                alt_year,
                empty_year: empty == 0,
                nested,
                w,
            },
        )
}

fn doc_strategy() -> impl Strategy<Value = DocSpec> {
    (
        proptest::collection::vec(movie_strategy(), 0..3),
        proptest::collection::vec(movie_strategy(), 0..3),
        proptest::collection::vec((movie_strategy(), movie_strategy()), 0..2),
    )
        .prop_map(|(certain, optional, alternatives)| DocSpec {
            certain,
            optional,
            alternatives,
        })
}

/// A binary choice below `parent` between `a` and `b` (weights `w` and
/// `1 - w`), returning the two possibility nodes.
fn choice(px: &mut PxDoc, parent: PxNodeId, w: u8) -> (PxNodeId, PxNodeId) {
    let c = px.add_prob(parent);
    let w = f64::from(w) / 10.0;
    (px.add_poss(c, w), px.add_poss(c, 1.0 - w))
}

fn build_movie(px: &mut PxDoc, parent: PxNodeId, spec: &MovieSpec) {
    let m = px.add_elem(parent, "movie");
    let title = TITLES[spec.title as usize];
    match (spec.alt_title, spec.mixed_title) {
        (_, true) => {
            let t = px.add_elem(m, "title");
            px.add_text(t, title);
            px.add_text_elem(t, "i", "2");
        }
        (None, false) => {
            px.add_text_elem(m, "title", title);
        }
        (Some(alt), false) => {
            let t = px.add_elem(m, "title");
            let (a, b) = choice(px, t, spec.w);
            px.add_text(a, title);
            px.add_text(b, TITLES[alt as usize]);
        }
    }
    if !spec.genres.is_empty() {
        let wrapper = px.add_elem(m, "genres");
        for (i, &g) in spec.genres.iter().enumerate() {
            if i > 0 && spec.uncertain_genre {
                let (a, _) = choice(px, wrapper, spec.w);
                px.add_text_elem(a, "genre", GENRES[g as usize]);
            } else {
                px.add_text_elem(wrapper, "genre", GENRES[g as usize]);
            }
        }
    }
    let year = (1990 + u32::from(spec.year)).to_string();
    match (spec.alt_year, spec.empty_year) {
        (_, true) => {
            px.add_elem(m, "year");
        }
        (None, false) => {
            px.add_text_elem(m, "year", year);
        }
        (Some(alt), false) => {
            let y = px.add_elem(m, "year");
            let (a, b) = choice(px, y, spec.w);
            px.add_text(a, year);
            px.add_text(b, (1990 + u32::from(alt)).to_string());
        }
    }
    if let Some(d) = spec.director {
        px.add_text_elem(m, "director", DIRECTORS[d as usize]);
    }
    if let Some(t) = spec.nested {
        let at = if spec.w % 2 == 1 {
            choice(px, m, spec.w).0
        } else {
            m
        };
        let inner = px.add_elem(at, "movie");
        px.add_text_elem(inner, "title", TITLES[t as usize]);
    }
}

fn build_doc(spec: &DocSpec) -> PxDoc {
    let mut px = PxDoc::new();
    let w = px.add_poss(px.root(), 1.0);
    let cat = px.add_elem(w, "catalog");
    for m in &spec.certain {
        build_movie(&mut px, cat, m);
    }
    for m in &spec.optional {
        let (yes, _) = choice(&mut px, cat, m.w);
        build_movie(&mut px, yes, m);
    }
    for (a, b) in &spec.alternatives {
        let (pa, pb) = choice(&mut px, cat, a.w);
        build_movie(&mut px, pa, a);
        build_movie(&mut px, pb, b);
    }
    px.validate().expect("generated doc is valid");
    px
}

/// Node tests, `movie` and `title` weighted up so that more queries
/// reach the uncertain parts of the catalog.
const TESTS: [&str; 12] = [
    "movie", "movie", "movie", "title", "title", "genre", "genres", "year", "director", "catalog",
    "i", "*",
];

const PREDICATES: [&str; 14] = [
    "year=\"1995\"",
    "year=\"1990\"",
    ".//genre=\"Action\"",
    "genre=\"Horror\"",
    "title=\"Jaws\"",
    ".=\"Jaws\"",
    ".=\"Jaws2\"",
    ".//title=\"Die Hard\"",
    "year >= 1995",
    "contains(title,\"Jaws\")",
    "starts-with(.//title,\"Die\")",
    "some $d in .//director satisfies contains($d,\"John\")",
    "not(.//genre=\"Horror\")",
    "director and .//genre=\"Action\"",
];

/// One step recipe: axis, node test, optional predicate.
type StepSpec = (bool, u8, Option<u8>);

fn query_strategy() -> impl Strategy<Value = Vec<StepSpec>> {
    proptest::collection::vec(
        (
            proptest::bool::ANY,
            0u8..TESTS.len() as u8,
            proptest::option::of(0u8..PREDICATES.len() as u8),
        ),
        1..4,
    )
}

fn query_text(steps: &[StepSpec]) -> String {
    let mut text = String::new();
    for &(descendant, test, pred) in steps {
        text.push_str(if descendant { "//" } else { "/" });
        text.push_str(TESTS[test as usize]);
        if let Some(p) = pred {
            text.push('[');
            text.push_str(PREDICATES[p as usize]);
            text.push(']');
        }
    }
    text
}

/// The reference answers at threshold `t`, in stream order: each
/// (value, probability, event) whose probability is positive and at
/// least `t`.
fn reference_answers(px: &PxDoc, events: &[(String, Event)], t: f64) -> Vec<(String, u64, Event)> {
    let weights = px.choice_weights();
    let mut memo = ProbMemo::new();
    events
        .iter()
        .filter_map(|(v, e)| {
            let p = if t > 0.0 {
                probability_above(&weights, e, t)?
            } else {
                probability_memo(&weights, e, &mut memo)
            };
            (p > 0.0 && p >= t).then(|| (v.clone(), p.to_bits(), e.clone()))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn indexed_evaluation_equals_the_walk(spec in doc_strategy(), steps in query_strategy()) {
        let px = build_doc(&spec);
        let text = query_text(&steps);
        let query = parse_query(&text).expect("generated query parses");
        let reference = walk::answer_events(&px, &query);
        let indexed = answer_events(&px, &query).expect("evaluates");
        prop_assert_eq!(&indexed, &reference, "query {}", text);
        let plan = QueryPlan::compile(&query);
        for t in [0.0, 0.5] {
            let want = reference_answers(&px, &reference, t);
            // The index `answer_events` left in `px`, and a new one.
            for stream in [
                plan.execute_at(&px, t).expect("evaluates"),
                plan.execute_at(&build_doc(&spec), t).expect("evaluates"),
            ] {
                let got: Vec<(String, u64, Event)> = stream
                    .map(|a| (a.value.as_str().to_string(), a.probability.to_bits(), a.event))
                    .collect();
                prop_assert_eq!(&got, &want, "query {} at threshold {}", text, t);
            }
        }
    }

    #[test]
    fn value_candidates_cover_every_possible_context(
        spec in doc_strategy(),
        test in 0u8..TESTS.len() as u8,
        pred in 0u8..PREDICATES.len() as u8,
    ) {
        let px = build_doc(&spec);
        let text = format!("//{}[{}]", TESTS[test as usize], PREDICATES[pred as usize]);
        let query = parse_query(&text).expect("generated query parses");
        let step = &query.steps[0];
        let Expr::Eq(path, literal) = &step.predicates[0] else {
            return Ok(());
        };
        let index = DocIndex::build(&px);
        let Some(candidates) = index.value_candidates(&px, &step.test, path, literal) else {
            return Ok(());
        };
        prop_assert!(candidates.windows(2).all(|w| w[0] != w[1]));
        for node in walk::elements(&px, &step.test) {
            let holds = walk::expr(&px, node, &step.predicates[0]);
            if holds != Event::False {
                prop_assert!(
                    candidates.contains(&node),
                    "{}: {:?} (event {:?}) missing from {:?}", text, node, holds, candidates
                );
            }
        }
    }
}
