//! Criterion bench for the durable versioned store (PR 8): what a
//! crash-safe publish costs, and what recovery costs at reopen.
//!
//! * `append/*` — one durable publish (encode arenas + frontier, frame,
//!   checksum, write) of a small exact document vs a large budgeted one
//!   carrying an open refinement frontier, under both durability modes:
//!   `fsync-always` pays an fsync per publish, `onclose` defers it.
//! * `recover/*` — `Store::open` (scan to the last valid record,
//!   verifying every checksum) plus `load_publish` (decode the arenas,
//!   rebuild Arc sharing) on the same two segments.
//! * `engine-reopen/*` — the end-to-end `Engine::open` path: recover a
//!   three-document catalog (two sources + a budgeted integration with
//!   its frontier) and re-attach the refine state.
//!
//! Append is the hot path (every integrate/refine/feedback publish
//! pays it); recovery runs once per process start, so its budget is
//! "human-noticeable", not "per-operation".
//!
//! Under `cargo bench` the harness then runs the durable-vs-in-memory
//! gate: 8 staged refine installments on a store-backed engine must
//! stay within [`DURABLE_GATE_CEILING`]× of the same installments on a
//! store-less engine, failing the run if durable refinement regresses
//! toward re-appending the whole document per installment.

use criterion::{criterion_group, Criterion};
use imprecise::datagen::scenarios;
use imprecise::integrate::{integrate_xml, IntegrationOptions, RefineState};
use imprecise::pxml::PxDoc;
use imprecise::store::{Durability, Store};
use imprecise::Engine;
use imprecise_bench::{confusion_oracle, measure_durable_vs_in_memory, DURABLE_GATE_CEILING};
use std::hint::black_box;
use std::path::PathBuf;

/// Unique temp-file path, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "imprecise-bench-store-{tag}-{}-{n}.seg",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        Scratch(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn options(budget: usize) -> IntegrationOptions {
    IntegrationOptions {
        max_matchings_per_component: budget,
        ..IntegrationOptions::default()
    }
}

/// A small exact document: confusable(3), exhaustive.
fn small_doc() -> PxDoc {
    let s = scenarios::confusable(3);
    integrate_xml(
        &s.mpeg7,
        &s.imdb,
        &confusion_oracle(),
        Some(&s.schema),
        &options(usize::MAX),
    )
    .expect("integrates")
    .doc
}

/// A large budgeted document with an open refinement frontier:
/// confusable(6) at budget 64.
fn large_doc_with_state() -> (PxDoc, RefineState) {
    let s = scenarios::confusable(6);
    let mut outcome = integrate_xml(
        &s.mpeg7,
        &s.imdb,
        &confusion_oracle(),
        Some(&s.schema),
        &options(64),
    )
    .expect("integrates");
    let state = outcome
        .detach_refine_state()
        .expect("budget 64 leaves the frontier open");
    (outcome.doc, state)
}

fn bench_append(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_roundtrip");
    group.sample_size(10);

    let small = small_doc();
    let (large, state) = large_doc_with_state();

    for (mode, tag) in [
        (Durability::Always, "fsync-always"),
        (Durability::OnClose, "onclose"),
    ] {
        let scratch = Scratch::new(&format!("append-small-{tag}"));
        let mut store = Store::open(&scratch.0, mode).expect("opens");
        let mut version = 0u64;
        group.bench_function(format!("append/small-exact/{tag}"), |b| {
            b.iter(|| {
                version += 1;
                store
                    .append_publish("db", version, black_box(&small), None)
                    .expect("appends")
            })
        });

        let scratch = Scratch::new(&format!("append-large-{tag}"));
        let mut store = Store::open(&scratch.0, mode).expect("opens");
        let mut version = 0u64;
        group.bench_function(format!("append/large-budgeted/{tag}"), |b| {
            b.iter(|| {
                version += 1;
                store
                    .append_publish("db", version, black_box(&large), Some(black_box(&state)))
                    .expect("appends")
            })
        });
    }

    // Recovery: open (full scan + checksum verification) and decode.
    let scratch = Scratch::new("recover-small");
    Store::open(&scratch.0, Durability::Always)
        .expect("opens")
        .append_publish("db", 1, &small, None)
        .expect("appends");
    group.bench_function("recover/small-exact", |b| {
        b.iter(|| {
            let mut store = Store::open(black_box(&scratch.0), Durability::OnClose).expect("opens");
            black_box(store.load_publish("db").expect("loads").expect("present"))
        })
    });

    let scratch = Scratch::new("recover-large");
    Store::open(&scratch.0, Durability::Always)
        .expect("opens")
        .append_publish("db", 1, &large, Some(&state))
        .expect("appends");
    group.bench_function("recover/large-budgeted", |b| {
        b.iter(|| {
            let mut store = Store::open(black_box(&scratch.0), Durability::OnClose).expect("opens");
            black_box(store.load_publish("db").expect("loads").expect("present"))
        })
    });

    group.finish();
}

fn bench_engine_reopen(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_roundtrip");
    group.sample_size(10);

    // Populate a three-document catalog: two sources plus a budgeted
    // integration whose frontier must be re-attached at reopen.
    let scratch = Scratch::new("engine-reopen");
    {
        let s = scenarios::confusable(5);
        let engine = Engine::builder()
            .oracle(confusion_oracle())
            .schema(s.schema.clone())
            .options(options(8))
            .with_store(&scratch.0)
            .open()
            .expect("opens");
        let a = engine
            .load_xml("a", &imprecise::xml::to_string(&s.mpeg7))
            .expect("loads");
        let b = engine
            .load_xml("b", &imprecise::xml::to_string(&s.imdb))
            .expect("loads");
        let (db, _) = engine.integrate(&a, &b, "db").expect("integrates");
        assert!(engine.refine_state(&db).expect("exists").is_some());
    }
    group.bench_function("engine-reopen/confusable5-budget8", |b| {
        b.iter(|| black_box(Engine::open(black_box(&scratch.0)).expect("reopens")))
    });

    group.finish();
}

/// Regression gate for O(delta) durable refinement (see
/// [`DURABLE_GATE_CEILING`]).
fn durable_vs_in_memory_gate() {
    if std::env::var("IMPRECISE_BENCH_GATE").is_ok_and(|v| v == "off") {
        println!("gate: skipped (IMPRECISE_BENCH_GATE=off)");
        return;
    }
    let m = measure_durable_vs_in_memory();
    let ratio = m.ratio();
    println!(
        "gate: durable-8x64 {:?} / in-memory-8x64 {:?} = {ratio:.2}x (ceiling {DURABLE_GATE_CEILING}x)",
        m.measured, m.base
    );
    assert!(
        m.holds(DURABLE_GATE_CEILING),
        "durable staged refinement regressed to {ratio:.2}x the in-memory cost \
         (ceiling {DURABLE_GATE_CEILING}x): each installment should append a delta, \
         not the whole document"
    );
}

criterion_group!(benches, bench_append, bench_engine_reopen);

fn main() {
    benches();
    // Gate only under `cargo bench` (the shim's test mode runs each
    // bench body once for compile/behaviour coverage; timing there is
    // meaningless).
    if std::env::args().any(|a| a == "--bench") {
        durable_vs_in_memory_gate();
    }
}
