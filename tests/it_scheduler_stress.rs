//! Seeded-scheduler stress harness for the engine's determinism claims
//! (PR 7): permuted interleavings of refine steps, snapshot readers,
//! query evaluation, and stats probes must all converge to the same
//! bit-identical document — the fingerprint of the one-shot exhaustive
//! integration. Two layers:
//!
//! * a *deterministic* scheduler drives one engine per seed through an
//!   LCG-chosen operation sequence (the interleavings a concurrent run
//!   could serialize into), asserting invariants between steps;
//! * a *racing* harness lets several refiner threads and reader threads
//!   loose on one engine and asserts the same convergence — whatever
//!   order the OS scheduler picked.
//!
//! Run with `--features strict-invariants` to additionally shadow-check
//! every publish these schedules produce.

use imprecise::integrate::{IntegrationOptions, Parallelism, RefineOptions};
use imprecise::oracle::presets::addressbook_oracle;
use imprecise::xml::parse;
use imprecise::{DocHandle, Engine};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A minimal deterministic PRNG (Numerical Recipes LCG) so schedules
/// are reproducible from their seed without any RNG dependency.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Two address books with `n` people of each name in `names`: one
/// all-undecided n×n matching component per name (people of different
/// names never match) — dozens of distinct refinement schedules under
/// small budgets. `n = 3` gives 34 matchings per component; several
/// names give several components, which refine steps fan out over
/// when threads are granted.
fn engine_with_books(budget: usize, names: &[&str], n: usize) -> (Engine, DocHandle, DocHandle) {
    let book = |prefix: usize| {
        let persons: String = names
            .iter()
            .enumerate()
            .flat_map(|(k, name)| {
                (0..n).map(move |i| {
                    format!("<person><nm>{name}</nm><tel>{prefix}{k}{i:02}</tel></person>")
                })
            })
            .collect();
        format!("<addressbook>{persons}</addressbook>")
    };
    let engine = Engine::builder()
        .oracle(addressbook_oracle())
        .schema_text(
            "<!ELEMENT addressbook (person*)><!ELEMENT person (nm, tel?)>\
             <!ELEMENT nm (#PCDATA)><!ELEMENT tel (#PCDATA)>",
        )
        .expect("schema parses")
        .options(IntegrationOptions {
            max_matchings_per_component: budget,
            ..IntegrationOptions::default()
        })
        .build();
    let a = engine.load_xml("a", &book(1)).expect("a loads");
    let b = engine.load_xml("b", &book(2)).expect("b loads");
    (engine, a, b)
}

fn engine_with_sources(budget: usize) -> (Engine, DocHandle, DocHandle) {
    engine_with_books(budget, &["John"], 3)
}

/// The one-shot exhaustive fingerprint every schedule must converge to.
fn books_exhaustive_fingerprint(names: &[&str], n: usize) -> u64 {
    let (engine, a, b) = engine_with_books(usize::MAX, names, n);
    let (db, stats) = engine.integrate(&a, &b, "db").expect("integrates");
    assert!(stats.is_exact(), "unbudgeted run is exact");
    engine.snapshot(&db).expect("db exists").doc().fingerprint()
}

fn exhaustive_fingerprint() -> u64 {
    books_exhaustive_fingerprint(&["John"], 3)
}

/// Seven names: seven 3×3 components, so a refine step's component
/// fan-out has work for every worker count the tests below grant.
const SEVEN_NAMES: [&str; 7] = ["John", "Mary", "Pete", "Anna", "Bill", "Kate", "Omar"];

#[test]
fn seeded_schedules_converge_to_the_exhaustive_fingerprint() {
    let expected = exhaustive_fingerprint();
    let query_text = "//person/tel";
    for seed in 0..12u64 {
        let mut rng = Lcg(seed.wrapping_mul(0x9E3779B97F4A7C15) + 1);
        let (engine, a, b) = engine_with_sources(2);
        let (db, stats) = engine.integrate(&a, &b, "db").expect("integrates");
        assert!(!stats.is_exact(), "budget of 2 truncates");
        let query = engine.prepare(query_text).expect("query parses");
        // Interleave refinement installments with reader operations in
        // a seed-determined order until refinement is exhausted.
        let mut steps = 0usize;
        loop {
            match rng.next() % 4 {
                0 | 1 => {
                    let step = engine
                        .refine(
                            &db,
                            &RefineOptions {
                                extra_matchings: 1 + (rng.next() % 3) as usize,
                                ..RefineOptions::default()
                            },
                        )
                        .expect("refine succeeds");
                    steps += 1;
                    if step.remaining == 0 && step.refined.is_empty() {
                        break;
                    }
                }
                2 => {
                    let snapshot = engine.snapshot(&db).expect("db exists");
                    query.run(&snapshot).expect("query runs");
                }
                _ => {
                    engine.stats(&db).expect("db exists");
                }
            }
            engine
                .check_invariants(&db)
                .unwrap_or_else(|e| panic!("seed {seed}: invariants broken mid-schedule: {e}"));
            assert!(steps < 1000, "seed {seed}: schedule failed to converge");
        }
        let got = engine.snapshot(&db).expect("db exists").doc().fingerprint();
        assert_eq!(
            got, expected,
            "seed {seed}: schedule of {steps} refinement installments diverged"
        );
    }
}

#[test]
fn racing_refiners_and_readers_converge_to_the_exhaustive_fingerprint() {
    const REFINERS: usize = 3;
    const READERS: usize = 2;

    let expected = exhaustive_fingerprint();
    let (engine, a, b) = engine_with_sources(2);
    let (db, _) = engine.integrate(&a, &b, "db").expect("integrates");
    let query = engine.prepare("//person/tel").expect("query parses");
    let exhausted = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..REFINERS {
            let engine = engine.clone();
            let db = db.clone();
            let exhausted = &exhausted;
            scope.spawn(move || loop {
                let step = engine
                    .refine(
                        &db,
                        &RefineOptions {
                            extra_matchings: 2,
                            ..RefineOptions::default()
                        },
                    )
                    .expect("refine succeeds");
                if step.remaining == 0 && step.refined.is_empty() {
                    exhausted.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            });
        }
        for _ in 0..READERS {
            let engine = engine.clone();
            let db = db.clone();
            let query = query.clone();
            let exhausted = &exhausted;
            scope.spawn(move || {
                while exhausted.load(Ordering::Relaxed) < REFINERS {
                    let snapshot = engine.snapshot(&db).expect("db exists");
                    query.run(&snapshot).expect("query runs");
                }
            });
        }
    });

    engine.check_invariants(&db).expect("invariants hold");
    let got = engine.snapshot(&db).expect("db exists").doc().fingerprint();
    assert_eq!(got, expected, "racing refiners diverged from one-shot");
    // The document parses back: the converged state is a real document,
    // not merely a matching fingerprint.
    let exported = engine.export(&db).expect("exports");
    parse(&exported).expect("exported document re-parses");
}

/// Engine-level half of the serial ≡ parallel contract: the *same*
/// staged refinement schedule over seven components, re-run with 2/4/7
/// component workers, publishes a bit-identical document after every
/// installment — not just at convergence.
#[test]
fn component_worker_counts_are_bitwise_identical() {
    let run = |threads: usize| {
        let (engine, a, b) = engine_with_books(3, &SEVEN_NAMES, 3);
        let (db, stats) = engine.integrate(&a, &b, "db").expect("integrates");
        assert_eq!(
            stats.components_truncated(),
            SEVEN_NAMES.len(),
            "budget of 3 truncates every 3×3 component"
        );
        let options = RefineOptions {
            extra_matchings: 7,
            threads: Some(Parallelism::new(threads)),
            ..RefineOptions::default()
        };
        let mut fingerprints = Vec::new();
        loop {
            let step = engine.refine(&db, &options).expect("refine succeeds");
            fingerprints.push(engine.snapshot(&db).expect("db exists").doc().fingerprint());
            if step.remaining == 0 && step.refined.is_empty() {
                break;
            }
            assert!(
                step.refined.is_empty() || step.refined.len() == SEVEN_NAMES.len(),
                "every open component is refined, so the step fans out"
            );
            assert!(fingerprints.len() < 1000, "failed to converge");
        }
        fingerprints
    };
    let serial = run(1);
    assert_eq!(
        *serial.last().expect("at least one step"),
        books_exhaustive_fingerprint(&SEVEN_NAMES, 3),
        "staged refinement converges to the one-shot document"
    );
    for threads in [2, 4, 7] {
        assert_eq!(
            run(threads),
            serial,
            "{threads} workers diverged from the serial installment sequence"
        );
    }
}

/// Racing refiners that each bring their *own* component fan-out:
/// optimistic engine rounds interleave parallel refine steps over the
/// same components, and the result must still converge to the
/// exhaustive fingerprint.
#[test]
fn racing_fan_outs_converge_to_the_exhaustive_fingerprint() {
    let expected = books_exhaustive_fingerprint(&SEVEN_NAMES, 3);
    let (engine, a, b) = engine_with_books(3, &SEVEN_NAMES, 3);
    let (db, _) = engine.integrate(&a, &b, "db").expect("integrates");
    std::thread::scope(|scope| {
        for threads in [2, 4, 7] {
            let engine = engine.clone();
            let db = db.clone();
            scope.spawn(move || loop {
                let step = engine
                    .refine(
                        &db,
                        &RefineOptions {
                            extra_matchings: 5,
                            threads: Some(Parallelism::new(threads)),
                            ..RefineOptions::default()
                        },
                    )
                    .expect("refine succeeds");
                if step.remaining == 0 && step.refined.is_empty() {
                    return;
                }
            });
        }
    });
    engine.check_invariants(&db).expect("invariants hold");
    let got = engine.snapshot(&db).expect("db exists").doc().fingerprint();
    assert_eq!(got, expected, "racing parallel refine steps diverged");
}
