//! Property test: the exact symbolic evaluator agrees with the naive
//! possible-worlds evaluator on arbitrary probabilistic documents and a
//! battery of query shapes. This is the central correctness argument for
//! the §VI query semantics.

use imprecise_pxml::{PxDoc, PxNodeId};
use imprecise_query::{eval_px, eval_px_naive, parse_query, QueryPlan};
use proptest::prelude::*;

const TITLES: [&str; 4] = ["Jaws", "Jaws 2", "Die Hard", "MI2"];
const GENRES: [&str; 3] = ["Horror", "Action", "Crime"];
const DIRECTORS: [&str; 3] = ["John Woo", "Spielberg", "John McTiernan"];

/// Recipe for one movie element, possibly with uncertain fields.
#[derive(Debug, Clone)]
struct MovieSpec {
    title: u8,
    /// When set, the title is a choice between `title` and this variant.
    alt_title: Option<u8>,
    genre: u8,
    director: Option<u8>,
    /// Year offset from 1990; when `alt_year` is set the year is a choice.
    year: u8,
    alt_year: Option<u8>,
    /// Probability weight used for binary choices in this movie.
    w: u8, // 1..=9 → 0.1..=0.9
}

/// Recipe for the catalog: certain movies plus optional movies.
#[derive(Debug, Clone)]
struct DocSpec {
    certain: Vec<MovieSpec>,
    optional: Vec<MovieSpec>,
}

fn movie_strategy() -> impl Strategy<Value = MovieSpec> {
    (
        0u8..TITLES.len() as u8,
        proptest::option::of(0u8..TITLES.len() as u8),
        0u8..GENRES.len() as u8,
        proptest::option::of(0u8..DIRECTORS.len() as u8),
        0u8..12u8,
        proptest::option::of(0u8..12u8),
        1u8..=9u8,
    )
        .prop_map(
            |(title, alt_title, genre, director, year, alt_year, w)| MovieSpec {
                title,
                alt_title,
                genre,
                director,
                year,
                alt_year,
                w,
            },
        )
}

fn doc_strategy() -> impl Strategy<Value = DocSpec> {
    (
        proptest::collection::vec(movie_strategy(), 0..3),
        proptest::collection::vec(movie_strategy(), 0..3),
    )
        .prop_map(|(certain, optional)| DocSpec { certain, optional })
}

fn build_movie(px: &mut PxDoc, parent: PxNodeId, spec: &MovieSpec) {
    let m = px.add_elem(parent, "movie");
    match spec.alt_title {
        None => {
            px.add_text_elem(m, "title", TITLES[spec.title as usize]);
        }
        Some(alt) => {
            let t = px.add_elem(m, "title");
            let c = px.add_prob(t);
            let w = f64::from(spec.w) / 10.0;
            let a = px.add_poss(c, w);
            px.add_text(a, TITLES[spec.title as usize]);
            let b = px.add_poss(c, 1.0 - w);
            px.add_text(b, TITLES[alt as usize]);
        }
    }
    px.add_text_elem(m, "genre", GENRES[spec.genre as usize]);
    match spec.alt_year {
        None => {
            px.add_text_elem(m, "year", (1990 + spec.year as u32).to_string());
        }
        Some(alt) => {
            let y = px.add_elem(m, "year");
            let c = px.add_prob(y);
            let w = f64::from(spec.w) / 10.0;
            let a = px.add_poss(c, w);
            px.add_text(a, (1990 + spec.year as u32).to_string());
            let b = px.add_poss(c, 1.0 - w);
            px.add_text(b, (1990 + alt as u32).to_string());
        }
    }
    if let Some(d) = spec.director {
        px.add_text_elem(m, "director", DIRECTORS[d as usize]);
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
        let c = px.add_prob(cat);
        let weight = f64::from(m.w) / 10.0;
        let yes = px.add_poss(c, weight);
        build_movie(&mut px, yes, m);
        px.add_poss(c, 1.0 - weight);
    }
    px.validate().expect("generated doc is valid");
    px
}

const QUERIES: [&str; 13] = [
    "//movie/title",
    "//title",
    "//movie[genre=\"Horror\"]/title",
    "//movie[genre=\"Horror\" or genre=\"Action\"]/title",
    "//movie[not(genre=\"Horror\")]/title",
    "//movie[contains(title,\"Jaws\")]/genre",
    "//movie[some $d in .//director satisfies contains($d,\"John\")]/title",
    "//movie[director and genre=\"Action\"]/title",
    "//movie[year >= 1995]/title",
    "//movie[year != 1995]/title",
    "//movie[year < 1996 and not(genre=\"Crime\")]/title",
    "//movie[starts-with(title,\"Jaws\")]/year",
    "//movie[starts-with(title,\"Jaws\") or year > 2000]/genre",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exact_equals_naive(spec in doc_strategy(), query_idx in 0usize..QUERIES.len()) {
        let px = build_doc(&spec);
        let query = parse_query(QUERIES[query_idx]).unwrap();
        let naive = eval_px_naive(&px, &query, 100_000).unwrap();
        let exact = eval_px(&px, &query).unwrap();
        prop_assert_eq!(naive.len(), exact.len());
        for item in &naive.items {
            let p = exact.probability_of(&item.value);
            prop_assert!(
                (p - item.probability).abs() < 1e-9,
                "value {}: naive {} vs exact {}", item.value, item.probability, p
            );
        }
    }

    /// Threshold pushdown streams exactly the naive evaluator's answers
    /// filtered at the threshold — pruning never drops an answer whose
    /// true probability meets it, and never distorts a probability.
    /// (Thresholds sit away from the probabilities the generated docs can
    /// produce, so the comparison has no floating-point boundary cases.)
    #[test]
    fn stream_with_threshold_equals_filtered_naive(
        spec in doc_strategy(),
        query_idx in 0usize..QUERIES.len(),
        threshold_idx in 0usize..4,
    ) {
        let threshold = [0.15037171, 0.33017171, 0.55071717, 0.90031717][threshold_idx];
        let px = build_doc(&spec);
        let query = parse_query(QUERIES[query_idx]).unwrap();
        let naive = eval_px_naive(&px, &query, 100_000).unwrap();
        let streamed: Vec<_> = QueryPlan::compile(&query)
            .with_min_probability(threshold)
            .execute(&px)
            .unwrap()
            .collect();
        let expected: Vec<_> = naive
            .items
            .iter()
            .filter(|a| a.probability >= threshold)
            .collect();
        prop_assert_eq!(streamed.len(), expected.len(),
            "threshold {}: stream {:?} vs naive-filtered {:?}",
            threshold, streamed, expected);
        for answer in &streamed {
            let p = naive.probability_of(answer.value.as_str());
            prop_assert!(p >= threshold - 1e-9);
            prop_assert!(
                (p - answer.probability).abs() < 1e-9,
                "value {}: stream {} vs naive {}", answer.value, answer.probability, p
            );
        }
    }

    #[test]
    fn answer_probabilities_are_valid(spec in doc_strategy(), query_idx in 0usize..QUERIES.len()) {
        let px = build_doc(&spec);
        let query = parse_query(QUERIES[query_idx]).unwrap();
        let exact = eval_px(&px, &query).unwrap();
        for item in &exact.items {
            prop_assert!(item.probability > 0.0 && item.probability <= 1.0 + 1e-12);
        }
        // Ranking is monotone.
        for pair in exact.items.windows(2) {
            prop_assert!(pair[0].probability >= pair[1].probability - 1e-12);
        }
    }
}
