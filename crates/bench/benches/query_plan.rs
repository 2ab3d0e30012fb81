//! Criterion bench for the planned, streaming query pipeline.
//!
//! Three execution tiers are compared on the §VI movie database, a
//! larger confusing-conditions movie integration, an integrated
//! address-book database, and the un-refined confusable grid the
//! end-to-end benchmark's `query-uncertain` workload queries
//! (`confusable_grid(4, 7)` at budget 32: thousands of choice points
//! whose answer events share variables, so exact event probability —
//! independence decomposition, then Shannon expansion — is what costs),
//! with its genre, director and title query shapes, and the same grid
//! refined to budget 64 by 8 installments of 64 (the end-to-end
//! benchmark's `refine-durable` end state), whose genre answers are
//! disjunctions of hundreds to thousands of uncertain occurrences:
//!
//! * `eval_px-unplanned` — the one-shot API: compiles a throwaway plan,
//!   re-derives answer events and recomputes every probability on every
//!   call;
//! * `plan-t0` / `plan-t0.5` — cold planned execution: compiled once,
//!   events rebuilt per call, probabilities via the flat choice-weight
//!   table, with threshold pushdown (structural bound pruning +
//!   branch-and-bound expansion) at 0.5;
//! * `prepared-t0.5-rebound` — the `Engine::prepare` wiring: the
//!   `PreparedQuery` re-binds its plan to the snapshot and serves
//!   repeated runs from the version-keyed binding instead of
//!   recomputing — the per-call recomputation `eval_px` cannot avoid is
//!   gone entirely;
//! * `naive-all-worlds` — the §VI baseline, where world counts permit
//!   enumeration (the larger movie integration has ~1e9 worlds and the
//!   grids 3e27 and more, so the naive evaluator is structurally infeasible there
//!   — that gap *is* the paper's point).
//!
//! The `query_plan_catalog` group runs the end-to-end benchmark's
//! `ingest-catalog` queries on the integrated `large_source(10_000)`
//! (317 754 nodes): the [`DocIndex`] build, and each query shape with a
//! warm index (kept in the document by its first query; a cold query
//! costs the build plus the warm one). Under
//! `--bench` the harness ends with a scaling gate: with a warm index,
//! `//movie[year="1955"]/title` (168 answers) must cost at most
//! [`CATALOG_QUERY_GATE_CEILING`] of `//movie/title` (17 500 answers) —
//! a selective query pays for its answers, not for the catalog. Set
//! `IMPRECISE_BENCH_GATE=off` to skip the gate on noisy machines.

use criterion::{criterion_group, Criterion};
use imprecise::datagen::scenarios;
use imprecise::integrate::{integrate_xml, BlockingMode, IntegrationOptions, RefineOptions};
use imprecise::oracle::presets::{movie_oracle, MovieOracleConfig};
use imprecise::pxml::PxDoc;
use imprecise::query::{eval_px, eval_px_naive, parse_query, DocIndex, QueryPlan};
use imprecise::xml::to_string;
use imprecise::Engine;
use imprecise_bench::{
    addressbook_query_db, build_query_db, catalog_query_db, measure_catalog_query_ratio,
    query_oracle, CATALOG_FULL_QUERY, CATALOG_QUERY_GATE_CEILING, CATALOG_SELECTIVE_QUERY,
};
use std::hint::black_box;

/// The fig5 sequels workload at n=12 under the §VI oracle and source
/// weights: ~1.9e9 possible worlds, answer events spanning many
/// correlated choice points.
fn large_movie_db() -> PxDoc {
    let scenario = scenarios::fig5(12);
    let options = IntegrationOptions {
        source_weights: (0.8, 0.2),
        ..IntegrationOptions::default()
    };
    integrate_xml(
        &scenario.mpeg7,
        &scenario.imdb,
        &query_oracle(),
        Some(&scenario.schema),
        &options,
    )
    .expect("fig5 workload integrates")
    .doc
}

/// The `query-uncertain` document: `confusable_grid(4, 7)` integrated at
/// a matching budget of 32 with the title rule off (every pair inside a
/// grid block stays undecided) and blocking off, not refined.
fn grid_query_db() -> PxDoc {
    let scenario = scenarios::confusable_grid(4, 7);
    let oracle = movie_oracle(MovieOracleConfig {
        title_rule: false,
        ..MovieOracleConfig::default()
    });
    let options = IntegrationOptions {
        max_matchings_per_component: 32,
        blocking: BlockingMode::Off,
        ..IntegrationOptions::default()
    };
    integrate_xml(
        &scenario.mpeg7,
        &scenario.imdb,
        &oracle,
        Some(&scenario.schema),
        &options,
    )
    .expect("grid workload integrates")
    .doc
}

/// The `refine-durable` end state: the same grid integrated at a budget
/// of 64 and refined by 8 installments of 64 matchings. Its answer
/// values are disjunctions of hundreds to thousands of uncertain
/// occurrences, so building answer events leans on `Event::any`'s hashed
/// duplicate check, where the grid at budget 32 only forms small ones.
fn refined_grid_query_db() -> PxDoc {
    let scenario = scenarios::confusable_grid(4, 7);
    let engine = Engine::builder()
        .oracle(movie_oracle(MovieOracleConfig {
            title_rule: false,
            ..MovieOracleConfig::default()
        }))
        .schema(scenario.schema.clone())
        .options(IntegrationOptions {
            max_matchings_per_component: 64,
            blocking: BlockingMode::Off,
            ..IntegrationOptions::default()
        })
        .build();
    let a = engine
        .load_xml("mpeg7", &to_string(&scenario.mpeg7))
        .expect("grid source loads");
    let b = engine
        .load_xml("imdb", &to_string(&scenario.imdb))
        .expect("grid source loads");
    let (merged, _) = engine
        .integrate(&a, &b, "grid")
        .expect("grid workload integrates");
    let installment = RefineOptions {
        extra_matchings: 64,
        ..RefineOptions::default()
    };
    for _ in 0..8 {
        engine
            .refine(&merged, &installment)
            .expect("grid workload refines");
    }
    engine
        .snapshot(&merged)
        .expect("document exists")
        .doc()
        .clone()
}

fn bench_scenario(c: &mut Criterion, scenario: &str, db: &PxDoc, query_text: &str, naive: bool) {
    let query = parse_query(query_text).expect("bench query parses");
    let plan = QueryPlan::compile(&query);
    let plan_t05 = plan.clone().with_min_probability(0.5);
    // The Engine::prepare path: compiled once, re-bound per snapshot,
    // repeated runs served from the version-keyed binding.
    let engine = Engine::new();
    let handle = engine
        .insert(scenario, db.clone())
        .expect("store-less insert cannot fail");
    let prepared = engine.prepare(query_text).expect("bench query prepares");
    let snapshot = engine.snapshot(&handle).expect("document exists");

    let mut group = c.benchmark_group("query_plan");
    group.sample_size(20);
    group.bench_function(format!("{scenario}/eval_px-unplanned"), |b| {
        b.iter(|| black_box(eval_px(black_box(db), &query).expect("evaluates")))
    });
    group.bench_function(format!("{scenario}/plan-t0"), |b| {
        b.iter(|| black_box(plan.collect(black_box(db)).expect("evaluates")))
    });
    group.bench_function(format!("{scenario}/plan-t0.5"), |b| {
        b.iter(|| black_box(plan_t05.collect(black_box(db)).expect("evaluates")))
    });
    group.bench_function(format!("{scenario}/prepared-t0.5-rebound"), |b| {
        b.iter(|| {
            black_box(
                prepared
                    .run_at(black_box(&snapshot), 0.5)
                    .expect("evaluates"),
            )
        })
    });
    if naive {
        group.sample_size(10);
        group.bench_function(format!("{scenario}/naive-all-worlds"), |b| {
            b.iter(|| {
                black_box(
                    eval_px_naive(black_box(db), &query, 1_000_000).expect("worlds enumerate"),
                )
            })
        });
    }
    group.finish();
}

fn bench_query_plan(c: &mut Criterion) {
    let movies = build_query_db().doc;
    bench_scenario(c, "movies", &movies, "//movie/title", true);
    let large = large_movie_db();
    bench_scenario(c, "movies-large", &large, "//movie/director", false);
    let addrbook = addressbook_query_db();
    bench_scenario(c, "addrbook", &addrbook, "//person/tel", true);
    let grid = grid_query_db();
    for (shape, query) in [
        ("genre", "//movie[.//genre=\"Action\"]/title"),
        (
            "director",
            "//movie[some $d in .//director satisfies contains($d,\"Woo\")]/title",
        ),
        ("title", "//movie/title"),
    ] {
        bench_scenario(c, &format!("grid-{shape}"), &grid, query, false);
    }
    let refined = refined_grid_query_db();
    bench_scenario(c, "grid-refined-genre", &refined, "//movie/genre", false);
}

/// The catalog group (see the module docs). The shim's test mode runs
/// each body once in the debug profile, so it shrinks the catalog.
fn bench_catalog(c: &mut Criterion) {
    let n = if bench_mode() { 10_000 } else { 300 };
    let db = catalog_query_db(n);
    DocIndex::of(&db);
    let mut group = c.benchmark_group("query_plan_catalog");
    group.sample_size(10);
    group.bench_function(format!("n={n}/index-build"), |b| {
        b.iter(|| black_box(DocIndex::build(black_box(&db))))
    });
    for (shape, query) in [
        ("year", CATALOG_SELECTIVE_QUERY),
        ("genre", "//movie[.//genre=\"action\"]/title"),
        (
            "director",
            "//movie[some $d in .//director satisfies contains($d,\"Harlin\")]/title",
        ),
        ("title", CATALOG_FULL_QUERY),
    ] {
        let plan = QueryPlan::parse(query).expect("bench query parses");
        group.bench_function(format!("n={n}/{shape}-warm"), |b| {
            b.iter(|| black_box(plan.collect(black_box(&db))))
        });
    }
    group.finish();
}

/// Whether the harness runs timed (`cargo bench`) rather than in the
/// shim's once-per-body test mode.
fn bench_mode() -> bool {
    std::env::args().any(|a| a == "--bench")
}

/// The catalog scaling gate (see the module docs), under `--bench` only.
fn catalog_query_gate() {
    if std::env::var("IMPRECISE_BENCH_GATE").is_ok_and(|v| v == "off") {
        println!("gate: skipped (IMPRECISE_BENCH_GATE=off)");
        return;
    }
    let db = catalog_query_db(10_000);
    let m = measure_catalog_query_ratio(&db);
    let ratio = m.ratio();
    println!(
        "gate: warm year query {:?} / title query {:?} = {ratio:.3} (ceiling \
         {CATALOG_QUERY_GATE_CEILING})",
        m.measured, m.base
    );
    assert!(
        m.holds(CATALOG_QUERY_GATE_CEILING),
        "the selective catalog query cost {ratio:.3} of the full one (ceiling \
         {CATALOG_QUERY_GATE_CEILING}): value predicates are no longer index-driven"
    );
}

criterion_group!(benches, bench_query_plan, bench_catalog);

fn main() {
    benches();
    if bench_mode() {
        catalog_query_gate();
    }
}
