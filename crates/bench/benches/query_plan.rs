//! Criterion bench for the planned, streaming query pipeline.
//!
//! Three execution tiers are compared on the §VI movie database, a
//! larger confusing-conditions movie integration, and an integrated
//! address-book database:
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
//!   enumeration (the larger movie integration has ~1e9 worlds, so the
//!   naive evaluator is structurally infeasible there — that gap *is*
//!   the paper's point).

use criterion::{criterion_group, criterion_main, Criterion};
use imprecise::datagen::scenarios;
use imprecise::integrate::{integrate_xml, IntegrationOptions};
use imprecise::pxml::PxDoc;
use imprecise::query::{eval_px, eval_px_naive, parse_query, QueryPlan};
use imprecise::Engine;
use imprecise_bench::{addressbook_query_db, build_query_db, query_oracle};
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
}

criterion_group!(benches, bench_query_plan);
criterion_main!(benches);
