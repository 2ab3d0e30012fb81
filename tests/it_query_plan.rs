//! End-to-end tests of the planned, streaming query pipeline:
//! `QueryPlan` / `AnswerStream` against the naive evaluator, with the
//! threshold-pushdown edge cases the plan layer must get right.

use imprecise::datagen::scenarios;
use imprecise::integrate::{integrate_xml, IntegrationOptions};
use imprecise::oracle::presets::{movie_oracle, MovieOracleConfig};
use imprecise::pxml::PxDoc;
use imprecise::query::{eval_px_naive, parse_query, QueryPlan};
use imprecise::Engine;

/// The §VI integrated query database (same configuration as the
/// `imprecise-bench` experiments: confusing conditions, graded prior).
fn query_db() -> PxDoc {
    let scenario = scenarios::query_db();
    let oracle = movie_oracle(MovieOracleConfig {
        genre_rule: true,
        title_rule: true,
        year_rule: false,
        graded_prior: true,
        ..MovieOracleConfig::default()
    });
    let options = IntegrationOptions {
        source_weights: (0.8, 0.2),
        ..IntegrationOptions::default()
    };
    integrate_xml(
        &scenario.mpeg7,
        &scenario.imdb,
        &oracle,
        Some(&scenario.schema),
        &options,
    )
    .expect("query db integrates")
    .doc
}

const QUERIES: [&str; 4] = [
    "//movie/title",
    "//movie[.//genre=\"Horror\"]/title",
    "//movie[some $d in .//director satisfies contains($d,\"John\")]/title",
    "//title",
];

/// Threshold 1.0 returns exactly the certain answers.
#[test]
fn threshold_one_returns_only_certain_answers() {
    // "Jaws" exists in every world (event True → probability exactly 1);
    // "Jaws 2" only in 30% of them.
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

    let plan = QueryPlan::parse("//movie/title")
        .unwrap()
        .with_min_probability(1.0);
    let answers = plan.collect(&px).unwrap();
    assert_eq!(answers.len(), 1);
    assert_eq!(answers.items[0].value, "Jaws");
    assert_eq!(answers.items[0].probability, 1.0);
}

/// The pushdown must never drop an answer whose *total* probability
/// meets the threshold, even when every individual contribution to it
/// sits below the threshold.
#[test]
fn pruning_never_drops_split_mass_answers() {
    // "Jaws" appears in two mutually exclusive branches (0.4 and 0.3):
    // each occurrence alone is below a 0.5 threshold, but the
    // amalgamated probability 0.7 meets it.
    let mut px = PxDoc::new();
    let w = px.add_poss(px.root(), 1.0);
    let cat = px.add_elem(w, "catalog");
    let c = px.add_prob(cat);
    for (weight, title) in [(0.4, "Jaws"), (0.3, "Jaws"), (0.3, "Heat")] {
        let poss = px.add_poss(c, weight);
        let m = px.add_elem(poss, "movie");
        px.add_text_elem(m, "title", title);
    }

    let plan = QueryPlan::parse("//movie/title")
        .unwrap()
        .with_min_probability(0.5);
    let mut stream = plan.execute(&px).unwrap();
    let answers: Vec<_> = stream.by_ref().collect();
    assert_eq!(answers.len(), 1, "{answers:?}");
    assert_eq!(answers[0].value.as_str(), "Jaws");
    assert!((answers[0].probability - 0.7).abs() < 1e-12);
    // "Heat" (0.3) is excluded by its probability bound alone.
    assert_eq!(stream.pruned_by_bound(), 1);

    // Cross-check against the naive possible-worlds semantics.
    let naive = eval_px_naive(&px, &parse_query("//movie/title").unwrap(), 1000).unwrap();
    assert!((naive.probability_of("Jaws") - 0.7).abs() < 1e-12);
}

/// Threshold 0 keeps everything `eval_px` keeps (the explicit edge of
/// the pushdown contract), and the same holds through the `Engine` API.
#[test]
fn threshold_zero_through_the_engine_equals_unthresholded() {
    let engine = Engine::new();
    let db = engine
        .insert("db", query_db())
        .expect("store-less insert cannot fail");
    for q in QUERIES {
        let plain = engine.query(&db, q, None).unwrap();
        let at_zero = engine.query(&db, q, Some(0.0)).unwrap();
        assert_eq!(plain.items, at_zero.items, "query {q}");
    }
    // And a mid-range threshold equals the post-filtered full answer.
    let full = engine.query(&db, QUERIES[2], None).unwrap();
    let at = engine.query(&db, QUERIES[2], Some(0.5)).unwrap();
    let expected: Vec<_> = full.items.iter().filter(|a| a.probability >= 0.5).collect();
    assert_eq!(at.items.len(), expected.len());
    for (got, want) in at.items.iter().zip(expected) {
        assert_eq!(got.value, want.value);
        assert_eq!(got.probability.to_bits(), want.probability.to_bits());
    }
}

/// The lazy stream computes probabilities on demand: taking the first
/// answer of a large result set must not compute the rest. (Observable
/// through the memo/prune counters staying put until consumption.)
#[test]
fn stream_is_lazy_and_reports_pruning() {
    let db = query_db();
    let plan = QueryPlan::parse("//movie/title")
        .unwrap()
        .with_min_probability(0.5);
    let mut stream = plan.execute(&db).unwrap();
    assert_eq!(stream.pruned_by_bound(), 0, "nothing consumed yet");
    let first = stream.next().expect("the db has certain titles");
    assert!(first.probability >= 0.5);
    let consumed_after_one = stream.pruned_by_bound() + stream.filtered_exact();
    let rest: Vec<_> = stream.by_ref().collect();
    assert!(!rest.is_empty());
    assert!(
        stream.pruned_by_bound() + stream.filtered_exact() >= consumed_after_one,
        "counters only grow as the stream is consumed"
    );
    // On this workload the threshold actually prunes something.
    assert!(
        stream.pruned_by_bound() + stream.filtered_exact() > 0,
        "the §VI db has sub-threshold title variants"
    );
}
