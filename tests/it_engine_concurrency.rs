//! Concurrency smoke test for the [`Engine`] API: many reader threads
//! query one engine through snapshots and a shared [`PreparedQuery`]
//! while a writer thread keeps publishing new document versions
//! (re-integration and feedback conditioning). Readers must only ever
//! observe one of the *coherent* states — never a torn or
//! half-conditioned document.

use imprecise::oracle::presets::addressbook_oracle;
use imprecise::{DocHandle, DocSnapshot, Engine, EngineBuilder, ImpreciseError, PreparedQuery};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;

/// The engine's whole public surface must be shareable across threads.
#[test]
fn engine_types_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
    assert_send_sync::<EngineBuilder>();
    assert_send_sync::<DocHandle>();
    assert_send_sync::<DocSnapshot>();
    assert_send_sync::<PreparedQuery>();
    assert_send_sync::<ImpreciseError>();
}

fn john_engine() -> (Engine, DocHandle, DocHandle) {
    let engine = Engine::builder()
        .oracle(addressbook_oracle())
        .schema_text(
            "<!ELEMENT addressbook (person*)><!ELEMENT person (nm, tel?)>\
             <!ELEMENT nm (#PCDATA)><!ELEMENT tel (#PCDATA)>",
        )
        .expect("schema parses")
        .build();
    let a = engine
        .load_xml(
            "a",
            "<addressbook><person><nm>John</nm><tel>1111</tel></person></addressbook>",
        )
        .expect("source a loads");
    let b = engine
        .load_xml(
            "b",
            "<addressbook><person><nm>John</nm><tel>2222</tel></person></addressbook>",
        )
        .expect("source b loads");
    (engine, a, b)
}

/// The John document has exactly two coherent states:
///
/// * freshly integrated — 3 worlds, p(1111) = p(2222) = 0.75;
/// * conditioned on "2222 is incorrect" — 1 world, p(1111) = 1, 2222 gone.
///
/// Anything else means a reader saw a torn document.
fn assert_coherent(snapshot: &DocSnapshot, tel: &PreparedQuery) {
    let answers = tel.run(snapshot).expect("query evaluates");
    let p1111 = answers.probability_of("1111");
    let p2222 = answers.probability_of("2222");
    let stats = snapshot.stats();
    let integrated = (p1111 - 0.75).abs() < 1e-9 && (p2222 - 0.75).abs() < 1e-9;
    let conditioned = (p1111 - 1.0).abs() < 1e-9 && p2222 == 0.0;
    assert!(
        integrated || conditioned,
        "torn read at version {}: p(1111) = {p1111}, p(2222) = {p2222}, worlds = {}",
        snapshot.version(),
        stats.worlds
    );
    if integrated {
        assert_eq!(stats.worlds, 3.0, "integrated state must have 3 worlds");
        assert!(!stats.certain);
    } else {
        assert_eq!(stats.worlds, 1.0, "conditioned state must be certain");
        assert!(stats.certain);
    }
}

/// PreparedQuery on the John document reproduces the paper's numbers
/// exactly: 0.75 after integration, certainty after feedback.
#[test]
fn prepared_query_reproduces_paper_results() {
    let (engine, a, b) = john_engine();
    let (merged, stats) = engine.integrate(&a, &b, "merged").expect("integrates");
    assert_eq!(stats.judged_possible, 1);
    let tel = engine.prepare("//person/tel").expect("query parses");
    let answers = tel
        .run(&engine.snapshot(&merged).expect("exists"))
        .expect("runs");
    assert!((answers.probability_of("1111") - 0.75).abs() < 1e-9);
    assert!((answers.probability_of("2222") - 0.75).abs() < 1e-9);
    let report = engine
        .feedback(&merged, &tel, "2222", false)
        .expect("feedback applies");
    assert!(report.worlds_after < report.worlds_before);
    assert!(engine.stats(&merged).expect("exists").certain);
}

/// N reader threads hammer snapshots of one document while a writer
/// thread alternates between re-integrating (3 uncertain worlds) and
/// conditioning via feedback (1 certain world). Every observation must
/// be one of the two coherent states, and versions must be monotone per
/// reader.
#[test]
fn readers_never_observe_torn_documents() {
    const READERS: usize = 4;
    const WRITER_CYCLES: usize = 25;

    let (engine, a, b) = john_engine();
    let (merged, _) = engine.integrate(&a, &b, "merged").expect("integrates");
    let tel = engine.prepare("//person/tel").expect("query parses");

    let done = AtomicBool::new(false);
    let observations = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..READERS {
            // Each reader gets a clone of the engine (same shared catalog)
            // and of the prepared query, as server worker threads would.
            let engine = engine.clone();
            let merged = merged.clone();
            let tel = tel.clone();
            let done = &done;
            let observations = &observations;
            scope.spawn(move || {
                let mut last_version = 0;
                let mut seen = 0usize;
                // Keep reading until the writer is done, but always make
                // a minimum number of observations: on a loaded machine
                // the writer may finish before readers are scheduled.
                while !done.load(Ordering::Relaxed) || seen < 50 {
                    let snapshot = engine.snapshot(&merged).expect("document exists");
                    assert!(
                        snapshot.version() >= last_version,
                        "version went backwards: {} then {}",
                        last_version,
                        snapshot.version()
                    );
                    last_version = snapshot.version();
                    assert_coherent(&snapshot, &tel);
                    seen += 1;
                }
                observations.fetch_add(seen, Ordering::Relaxed);
            });
        }

        // A long-lived snapshot taken before any conditioning: it must
        // keep showing the original distribution through every publish.
        let pinned = engine.snapshot(&merged).expect("document exists");

        for _ in 0..WRITER_CYCLES {
            // Condition the current version down to the certain world…
            engine
                .feedback(&merged, &tel, "2222", false)
                .expect("feedback applies");
            // …then publish a fresh uncertain integration into the slot.
            engine.integrate(&a, &b, "merged").expect("re-integrates");
        }
        done.store(true, Ordering::Relaxed);

        let answers = tel.run(&pinned).expect("pinned snapshot still evaluates");
        assert!((answers.probability_of("2222") - 0.75).abs() < 1e-9);
        assert_eq!(pinned.stats().worlds, 3.0);
    });

    assert!(
        observations.load(Ordering::Relaxed) > 0,
        "readers never got to observe anything"
    );
}

/// Writers racing on the same document slot: optimistic retry in
/// `Engine::feedback` must not lose updates or deadlock. Two threads
/// each confirm a different *consistent* fact; afterwards the document
/// reflects both (single certain world with John's number 1111).
#[test]
fn concurrent_feedback_converges() {
    let (engine, a, b) = john_engine();
    let (merged, _) = engine.integrate(&a, &b, "merged").expect("integrates");
    let tel = engine.prepare("//person/tel").expect("query parses");

    std::thread::scope(|scope| {
        let confirm = {
            let engine = engine.clone();
            let merged = merged.clone();
            let tel = tel.clone();
            scope.spawn(move || engine.feedback(&merged, &tel, "1111", true))
        };
        let reject = {
            let engine = engine.clone();
            let merged = merged.clone();
            let tel = tel.clone();
            scope.spawn(move || engine.feedback(&merged, &tel, "2222", false))
        };
        // "1111 correct" and "2222 incorrect" are individually and jointly
        // satisfiable, so neither application may fail.
        confirm.join().expect("no panic").expect("feedback applies");
        reject.join().expect("no panic").expect("feedback applies");
    });

    let answers = tel
        .run(&engine.snapshot(&merged).expect("exists"))
        .expect("runs");
    assert!((answers.probability_of("1111") - 1.0).abs() < 1e-9);
    assert_eq!(answers.probability_of("2222"), 0.0);
    assert!(engine.stats(&merged).expect("exists").certain);
}

/// Incremental integration into its own input slot racing feedback on
/// that slot. Both writers read the slot they publish into, so every
/// successful write must land as its own version on top of the one it
/// read (no lost update), and the final version must pass the deep
/// invariant check.
#[test]
fn incremental_integration_races_feedback_without_lost_updates() {
    const THREADS_PER_KIND: usize = 2;
    const WRITES_PER_THREAD: usize = 6;

    let (engine, a, b) = john_engine();
    let (merged, _) = engine.integrate(&a, &b, "merged").expect("integrates");
    let tel = engine.prepare("//person/tel").expect("query parses");
    let start = Barrier::new(2 * THREADS_PER_KIND);
    let writes = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..THREADS_PER_KIND {
            let (engine, merged, b, tel) = (&engine, &merged, &b, &tel);
            let (start, writes) = (&start, &writes);
            scope.spawn(move || {
                start.wait();
                for _ in 0..WRITES_PER_THREAD {
                    engine
                        .integrate(merged, b, "merged")
                        .expect("incremental integration applies");
                    writes.fetch_add(1, Ordering::SeqCst);
                }
            });
            scope.spawn(move || {
                start.wait();
                for _ in 0..WRITES_PER_THREAD {
                    // "2222 is incorrect" is contradicted by no version
                    // either writer can publish, so it always applies.
                    engine
                        .feedback(merged, tel, "2222", false)
                        .expect("feedback applies");
                    writes.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
    });

    let version = engine.snapshot(&merged).expect("exists").version();
    assert_eq!(version, 1 + writes.load(Ordering::SeqCst) as u64);
    engine
        .check_invariants(&merged)
        .expect("final version is sound");
}
