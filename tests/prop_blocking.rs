//! Recall-safe blocking is invisible: integrating with
//! `BlockingMode::RecallSafe` must produce the bit-identical document
//! (same fingerprint, same serialized bytes) as integrating with
//! blocking off, on every workload — named scenarios and random ones.
//! The only permitted difference is *work*: fewer oracle calls, with
//! the pruned pairs accounted in `IntegrationStats::pairs_pruned`.

use imprecise::datagen::addressbook::{addressbook_schema, addressbook_to_xml, fig2_sources};
use imprecise::datagen::scenarios::{confusable, large_source, sequels_t1, MovieScenario};
use imprecise::integrate::{integrate_xml, BlockingMode, IntegrationOptions, IntegrationOutcome};
use imprecise::oracle::presets::{addressbook_oracle, movie_oracle, MovieOracleConfig};
use imprecise::oracle::Oracle;
use imprecise::pxml::px_fingerprint;
use imprecise::xml::XmlDoc;
use proptest::prelude::*;

fn opts(blocking: BlockingMode) -> IntegrationOptions {
    IntegrationOptions {
        blocking,
        ..IntegrationOptions::default()
    }
}

fn run(
    a: &XmlDoc,
    b: &XmlDoc,
    oracle: &Oracle,
    schema: Option<&imprecise::xml::Schema>,
    blocking: BlockingMode,
) -> IntegrationOutcome {
    integrate_xml(a, b, oracle, schema, &opts(blocking)).expect("integration succeeds")
}

/// Assert blocked ≡ unblocked bitwise and return (unblocked, blocked).
fn assert_recall_safe(
    a: &XmlDoc,
    b: &XmlDoc,
    oracle: &Oracle,
    schema: Option<&imprecise::xml::Schema>,
    label: &str,
) -> (IntegrationOutcome, IntegrationOutcome) {
    let off = run(a, b, oracle, schema, BlockingMode::Off);
    let safe = run(a, b, oracle, schema, BlockingMode::RecallSafe);
    assert_eq!(
        px_fingerprint(&off.doc, off.doc.root()),
        px_fingerprint(&safe.doc, safe.doc.root()),
        "{label}: recall-safe blocking changed the integrated document"
    );
    // Match/possible tallies are judgments that actually reached the
    // candidate set — pruning must not remove any of those.
    assert_eq!(off.stats.judged_match, safe.stats.judged_match, "{label}");
    assert_eq!(
        off.stats.judged_possible, safe.stats.judged_possible,
        "{label}"
    );
    assert_eq!(
        safe.stats.pairs_judged + safe.stats.pairs_pruned,
        off.stats.pairs_judged,
        "{label}: every skipped judgment must be accounted as pruned"
    );
    assert_eq!(safe.stats.pairs_windowed_out, 0, "{label}");
    (off, safe)
}

fn movie_scenario_oracle() -> Oracle {
    movie_oracle(MovieOracleConfig::default())
}

fn check_movie_scenario(s: &MovieScenario) {
    assert_recall_safe(
        &s.mpeg7,
        &s.imdb,
        &movie_scenario_oracle(),
        Some(&s.schema),
        &s.info.name,
    );
}

#[test]
fn movies_sequels_fingerprints_match() {
    check_movie_scenario(&sequels_t1());
}

#[test]
fn movies_confusable_fingerprints_match() {
    check_movie_scenario(&confusable(6));
}

#[test]
fn addressbook_fingerprints_match() {
    let (a, b) = fig2_sources();
    assert_recall_safe(
        &a,
        &b,
        &addressbook_oracle(),
        Some(&addressbook_schema()),
        "fig2-addressbook",
    );
}

#[test]
fn large_source_fingerprints_match_and_pruning_bites() {
    let s = large_source(240);
    let (off, safe) = assert_recall_safe(
        &s.mpeg7,
        &s.imdb,
        &movie_scenario_oracle(),
        Some(&s.schema),
        &s.info.name,
    );
    // The whole point: on the year-bucketed large workload the plan
    // prunes the vast majority of the cross product.
    assert!(
        safe.stats.pairs_pruned * 2 > off.stats.pairs_judged,
        "pruned only {} of {} pairs",
        safe.stats.pairs_pruned,
        off.stats.pairs_judged
    );
}

#[test]
fn heuristic_windowing_reports_dropped_pairs() {
    let s = large_source(240);
    let oracle = movie_scenario_oracle();
    let windowed = run(
        &s.mpeg7,
        &s.imdb,
        &oracle,
        Some(&s.schema),
        BlockingMode::Heuristic { window: 8 },
    );
    let off = run(
        &s.mpeg7,
        &s.imdb,
        &oracle,
        Some(&s.schema),
        BlockingMode::Off,
    );
    // Heuristic mode is honest about its recall risk: the unexamined
    // pairs are reported, and it does strictly less judging work.
    assert!(windowed.stats.pairs_windowed_out > 0);
    assert!(windowed.stats.pairs_judged < off.stats.pairs_judged);
    windowed.doc.validate().expect("valid px document");
}

// Random persons exercise the addressbook plan (similarity filter only —
// no equality join), random movies the movie plan (year join + title
// bound + genre text filter).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_addressbooks_are_blocking_invariant(
        names_a in proptest::collection::vec((0usize..8, 0usize..26), 0..5),
        names_b in proptest::collection::vec((0usize..8, 0usize..26), 0..5),
    ) {
        use imprecise::datagen::addressbook::Person;
        const FIRST: [&str; 8] = [
            "John", "Jon", "Mary", "Maria", "Alice", "Bob", "Carol", "Dave",
        ];
        let mk = |specs: &[(usize, usize)], base: u64| -> Vec<Person> {
            specs
                .iter()
                .enumerate()
                .map(|(i, &(f, l))| Person {
                    rwo: base + i as u64,
                    name: format!("{} {}", FIRST[f], (b'A' + l as u8) as char),
                    tel: Some(format!("{}", 1000 + 7 * (f + 13 * l))),
                })
                .collect()
        };
        let a = addressbook_to_xml(&mk(&names_a, 0));
        let b = addressbook_to_xml(&mk(&names_b, 100));
        assert_recall_safe(
            &a,
            &b,
            &addressbook_oracle(),
            Some(&addressbook_schema()),
            "random-addressbook",
        );
    }

    #[test]
    fn random_movie_catalogs_are_blocking_invariant(
        specs_a in proptest::collection::vec((0usize..6, 0u32..6, 0usize..3), 0..5),
        specs_b in proptest::collection::vec((0usize..6, 0u32..6, 0usize..3), 0..5),
    ) {
        use imprecise::datagen::movies::{catalog_to_xml, movie_schema, Movie, MovieBuilder, SourceStyle};
        const TITLES: [&str; 6] = ["Jaws", "Jaws 2", "Heat", "Fargo", "Die Hard", "Casino"];
        const GENRES: [&str; 3] = ["Horror", "Action", "Crime"];
        let mk = |specs: &[(usize, u32, usize)], base: u64| -> Vec<Movie> {
            specs
                .iter()
                .enumerate()
                .map(|(i, &(t, y, g))| {
                    MovieBuilder::new(base + i as u64, TITLES[t], 1970 + y)
                        .genre(GENRES[g])
                        .build()
                })
                .collect()
        };
        let a = catalog_to_xml(&mk(&specs_a, 0), SourceStyle::Mpeg7);
        let b = catalog_to_xml(&mk(&specs_b, 100), SourceStyle::Imdb);
        let schema = movie_schema();
        assert_recall_safe(
            &a,
            &b,
            &movie_scenario_oracle(),
            Some(&schema),
            "random-movies",
        );
    }
}

// ---------------------------------------------------------------------
// Indexed candidate generation ≡ the pairwise predicate.
//
// `BlockingPlan::candidates` generates pairs through a join on the
// equality filter, a per-bucket gram index and row-batched edit checks.
// Whatever it does inside, its output must be exactly the pairs
// `prunes` keeps over the full cross product, in row-major order.
// ---------------------------------------------------------------------

use imprecise::oracle::{
    BlockingPlan, DeepEqualRule, ElemRef, ElementFeatures, KeyInequalityRule, SimMeasure,
    SimilarityThresholdRule,
};
use imprecise::pxml::{PxDoc, PxNodeId};

/// The per-value cap of the rules' feature extraction: more title
/// variants than this make the title unknown (wild).
const VARIANT_CAP: usize = 16;

const MEASURES: [SimMeasure; 6] = [
    SimMeasure::Title,
    SimMeasure::PersonName,
    SimMeasure::Levenshtein,
    SimMeasure::JaroWinkler,
    SimMeasure::TokenJaccard,
    SimMeasure::TrigramDice,
];

const THRESHOLDS: [f64; 7] = [0.0, 0.25, 0.5, 0.55, 0.75, 0.9, 1.0];

/// Title words: shared and near-shared tokens, sequel numerals, short
/// strings whose bound is reached with no shared gram, the empty string
/// and non-ASCII values.
const WORDS: [&str; 16] = [
    "jaws",
    "Jaws",
    "die",
    "hard",
    "2",
    "II",
    "mission:",
    "impossible",
    "café",
    "Ærø",
    "★",
    "",
    "a",
    "ab",
    "abc",
    "bakori",
];

/// One random item: `(title mode, title words, variant count, year)`.
/// Title mode 0 is a missing title, 1 an uncertain one with `variants`
/// possible values (one past the cap makes it unknown), else certain.
/// Years 0–3 are certain, 4 missing, 5 uncertain between two years.
type ItemSpec = (usize, Vec<usize>, usize, usize);

fn item_strategy() -> impl Strategy<Value = ItemSpec> {
    (
        0usize..6,
        proptest::collection::vec(0usize..WORDS.len(), 0..4),
        2usize..VARIANT_CAP + 2,
        0usize..6,
    )
}

fn title_text(words: &[usize]) -> String {
    words
        .iter()
        .map(|&w| WORDS[w])
        .collect::<Vec<_>>()
        .join(" ")
}

/// A document of `<item>` elements built through the API, and the items.
fn items_doc(specs: &[ItemSpec]) -> (PxDoc, Vec<PxNodeId>) {
    let mut px = PxDoc::new();
    let w = px.add_poss(px.root(), 1.0);
    let catalog = px.add_elem(w, "catalog");
    let mut items = Vec::new();
    for (mode, words, variants, year) in specs {
        let item = px.add_elem(catalog, "item");
        let title = title_text(words);
        match mode {
            0 => {}
            1 => {
                let choice = px.add_prob(item);
                for v in 0..*variants {
                    let p = px.add_poss(choice, 1.0 / *variants as f64);
                    let variant = format!("{title} {}", WORDS[v % WORDS.len()]);
                    let variant = if v < WORDS.len() {
                        variant
                    } else {
                        format!("{variant}{v}")
                    };
                    px.add_text_elem(p, "title", variant);
                }
            }
            _ => {
                px.add_text_elem(item, "title", title);
            }
        }
        match year {
            0..=3 => {
                px.add_text_elem(item, "year", format!("{}", 1990 + year));
            }
            4 => {}
            _ => {
                let choice = px.add_prob(item);
                for y in ["1990", "1991"] {
                    let p = px.add_poss(choice, 0.5);
                    px.add_text_elem(p, "year", y);
                }
            }
        }
        items.push(item);
    }
    (px, items)
}

/// A plan with one similarity filter on `title`, and with a year
/// equality join before or after it, or none.
fn item_plan(measure: SimMeasure, threshold: f64, join: usize) -> BlockingPlan {
    let mut o = Oracle::uninformed();
    o.push_rule(Box::new(DeepEqualRule));
    let year = || {
        Box::new(KeyInequalityRule {
            rule_name: "item-year".into(),
            tag: "item".into(),
            value_path: "year".into(),
        })
    };
    if join == 1 {
        o.push_rule(year());
    }
    o.push_rule(Box::new(SimilarityThresholdRule {
        rule_name: "item-title".into(),
        tag: "item".into(),
        value_path: "title".into(),
        threshold,
        measure,
    }));
    if join == 2 {
        o.push_rule(year());
    }
    o.blocking_plan("item")
}

fn features(plan: &BlockingPlan, doc: &PxDoc, items: &[PxNodeId]) -> Vec<ElementFeatures> {
    items
        .iter()
        .map(|&node| plan.features(&ElemRef { doc, node }))
        .collect()
}

/// `{(a, b) : !prunes(a, b)}` over the full cross product, row-major.
fn unpruned_pairs(
    plan: &BlockingPlan,
    fa: &[ElementFeatures],
    fb: &[ElementFeatures],
) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for (a, x) in fa.iter().enumerate() {
        for (b, y) in fb.iter().enumerate() {
            if !plan.prunes(x, y) {
                pairs.push((a, b));
            }
        }
    }
    pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn indexed_candidates_equal_the_pairwise_predicate(
        specs_a in proptest::collection::vec(item_strategy(), 0..12),
        specs_b in proptest::collection::vec(item_strategy(), 0..12),
        measure in 0usize..MEASURES.len(),
        threshold in 0usize..THRESHOLDS.len(),
        join in 0usize..3,
    ) {
        let plan = item_plan(MEASURES[measure], THRESHOLDS[threshold], join);
        prop_assert_eq!(plan.join_filter().is_some(), join != 0);
        let (da, ia) = items_doc(&specs_a);
        let (db, ib) = items_doc(&specs_b);
        let fa = features(&plan, &da, &ia);
        let fb = features(&plan, &db, &ib);
        prop_assert_eq!(plan.candidates(&fa, &fb), unpruned_pairs(&plan, &fa, &fb));
    }
}

#[test]
fn large_source_candidates_equal_the_pairwise_predicate() {
    let s = large_source(2_000);
    let plan = movie_scenario_oracle().blocking_plan("movie");
    let movies = |doc: &PxDoc| -> Vec<PxNodeId> {
        doc.descendants(doc.root())
            .filter(|&n| doc.tag(n) == Some("movie"))
            .collect()
    };
    let (da, db) = (
        imprecise::pxml::from_xml(&s.mpeg7),
        imprecise::pxml::from_xml(&s.imdb),
    );
    let fa = features(&plan, &da, &movies(&da));
    let fb = features(&plan, &db, &movies(&db));
    assert_eq!(fa.len(), 2_000);
    let pairs = plan.candidates(&fa, &fb);
    assert_eq!(pairs, unpruned_pairs(&plan, &fa, &fb));
    assert!(pairs.len() >= 1_000, "the shared movies survive");
}
