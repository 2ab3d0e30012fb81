//! End-to-end tests of the [`Engine`] façade over the movie workload —
//! the assertions of the retired `Session` suite, migrated onto the
//! thread-safe API (the `Session` shim itself was removed after its one
//! release of grace). Concurrency-specific behaviour lives in
//! `it_engine_concurrency.rs`.

use imprecise::datagen::movies::movie_schema_text;
use imprecise::datagen::scenarios;
use imprecise::oracle::presets::{movie_oracle, MovieOracleConfig};
use imprecise::xml::to_string;
use imprecise::{DocHandle, Engine, ImpreciseError};

/// Unique temp-file path for durable-store tests, removed on drop.
struct ScratchStore(std::path::PathBuf);

impl ScratchStore {
    fn new(tag: &str) -> Self {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("imprecise-it-{tag}-{}-{n}.seg", std::process::id()));
        let _ = std::fs::remove_file(&path);
        ScratchStore(path)
    }
}

impl Drop for ScratchStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn movie_engine() -> (Engine, DocHandle, DocHandle) {
    let scenario = scenarios::query_db();
    let engine = Engine::builder()
        .oracle(movie_oracle(MovieOracleConfig {
            year_rule: false,
            graded_prior: true,
            ..MovieOracleConfig::default()
        }))
        .schema_text(movie_schema_text())
        .expect("schema parses")
        .build();
    let mpeg7 = engine
        .load_xml("mpeg7", &to_string(&scenario.mpeg7))
        .expect("loads");
    let imdb = engine
        .load_xml("imdb", &to_string(&scenario.imdb))
        .expect("loads");
    (engine, mpeg7, imdb)
}

#[test]
fn movie_engine_full_cycle() {
    let (engine, mpeg7, imdb) = movie_engine();
    let (db, stats) = engine.integrate(&mpeg7, &imdb, "db").expect("integrates");
    assert!(stats.judged_possible > 0);
    assert!(stats.is_exact(), "default budget is ample here");
    let doc_stats = engine.stats(&db).expect("exists");
    assert!(doc_stats.worlds > 1.0);
    assert!(!doc_stats.certain);
    let horror = engine
        .prepare("//movie[.//genre=\"Horror\"]/title")
        .expect("parses");
    let answers = horror
        .run(&engine.snapshot(&db).expect("exists"))
        .expect("query runs");
    assert_eq!(answers.len(), 2);
    // Feedback through the engine.
    let title = engine.prepare("//movie/title").expect("parses");
    let report = engine
        .feedback(&db, &title, "Jaws", true)
        .expect("feedback applies");
    assert!(report.worlds_after <= report.worlds_before);
}

#[test]
fn incremental_three_source_integration() {
    let (engine, mpeg7, imdb) = movie_engine();
    let (db, _) = engine.integrate(&mpeg7, &imdb, "db").expect("first");
    // A third source arrives: integrate it into the probabilistic result.
    let late = engine
        .load_xml(
            "late",
            "<catalog><movie><title>Alien</title><year>1979</year>\
             <genre>Horror</genre><director>Ridley Scott</director></movie></catalog>",
        )
        .expect("loads");
    let (db2, _) = engine.integrate(&db, &late, "db2").expect("incremental");
    let horror = engine
        .prepare("//movie[.//genre=\"Horror\"]/title")
        .expect("parses");
    let answers = horror
        .run(&engine.snapshot(&db2).expect("exists"))
        .expect("query runs");
    assert!((answers.probability_of("Alien") - 1.0).abs() < 1e-9);
    assert!(answers.probability_of("Jaws") > 0.9);
}

#[test]
fn integrate_many_matches_manual_fold() {
    let (engine, mpeg7, imdb) = movie_engine();
    let late = engine
        .load_xml(
            "late",
            "<catalog><movie><title>Alien</title><year>1979</year>\
             <genre>Horror</genre><director>Ridley Scott</director></movie></catalog>",
        )
        .expect("loads");
    // The N-source fold is the two manual steps in one call.
    let (db_manual, _) = engine.integrate(&mpeg7, &imdb, "manual-1").expect("step 1");
    let (db_manual, _) = engine
        .integrate(&db_manual, &late, "manual-2")
        .expect("step 2");
    let (db_fold, steps) = engine
        .integrate_many(&[mpeg7, imdb, late], "fold")
        .expect("folds");
    assert_eq!(steps.len(), 2);
    let manual = engine.stats(&db_manual).expect("exists");
    let folded = engine.stats(&db_fold).expect("exists");
    assert_eq!(manual.worlds, folded.worlds);
    assert_eq!(manual.breakdown, folded.breakdown);
}

#[test]
fn many_sources_scenario_folds_with_bounded_uncertainty() {
    let scenario = imprecise::datagen::scenarios::many_sources(4, 1);
    let engine = Engine::builder()
        .oracle(movie_oracle(MovieOracleConfig::default()))
        .schema(scenario.schema.clone())
        .build();
    let handles: Vec<DocHandle> = scenario
        .sources
        .iter()
        .enumerate()
        .map(|(i, doc)| {
            engine
                .load_xml(&format!("src-{i}"), &to_string(doc))
                .expect("loads")
        })
        .collect();
    let (db, steps) = engine.integrate_many(&handles, "db").expect("folds");
    assert_eq!(steps.len(), 3);
    // The deep-equal backbone folds certainly; only the same-year
    // re-editions stay undecided, and more of them per step.
    assert!(steps.iter().all(|s| s.judged_possible > 0));
    let stats = engine.stats(&db).expect("exists");
    assert!(stats.worlds > 1.0);
    assert!(stats.worlds < 1e6, "uncertainty stays bounded at N=4");
    // Certain backbone titles answer with probability 1 after the fold.
    let q = engine.prepare("//movie/title").expect("parses");
    let answers = q.run(&engine.snapshot(&db).expect("exists")).expect("runs");
    assert!((answers.probability_of("Die Hard") - 1.0).abs() < 1e-9);
    assert!((answers.probability_of("Mission: Impossible II") - 1.0).abs() < 1e-9);
}

#[test]
fn export_reimport_preserves_distribution() {
    let (engine, mpeg7, imdb) = movie_engine();
    let (db, _) = engine.integrate(&mpeg7, &imdb, "db").expect("integrates");
    let worlds_before = engine.stats(&db).expect("exists").worlds;
    let text = engine.export(&db).expect("exports");
    assert!(text.contains("px:prob"));
    let engine2 = Engine::new();
    let copy = engine2.load_xml("db", &text).expect("reimports");
    assert_eq!(engine2.stats(&copy).expect("exists").worlds, worlds_before);
}

#[test]
fn errors_are_descriptive() {
    let engine = Engine::new();
    let ghost = {
        // A handle from another engine is this engine's "no such
        // document" case (names alone no longer dangle).
        let other = Engine::new();
        other.load_xml("ghost", "<a/>").expect("loads")
    };
    let err = engine.query(&ghost, "//a", None).unwrap_err();
    assert!(err.to_string().contains("ghost"));
    let x = engine.load_xml("x", "<a/>").expect("loads");
    let err = engine.query(&x, "not a query", None).unwrap_err();
    assert!(matches!(err, ImpreciseError::QueryParse(_)));
    let err = engine.load_xml("bad", "<a><b></a>").unwrap_err();
    assert!(matches!(err, ImpreciseError::Xml(_)));
    let err = Engine::builder().schema_text("<!GIBBERISH>").unwrap_err();
    assert!(matches!(err, ImpreciseError::Xml(_)));
}

#[test]
fn pay_as_you_go_refinement_cycle() {
    use imprecise::integrate::{IntegrationOptions, RefineOptions};
    // The confusable block truncated hard, then refined between queries:
    // the integrate → query → refine → query loop of the README.
    let scenario = scenarios::confusable(4);
    let engine = Engine::builder()
        .oracle(movie_oracle(MovieOracleConfig {
            title_rule: false,
            ..MovieOracleConfig::default()
        }))
        .schema(scenario.schema)
        .options(IntegrationOptions {
            max_matchings_per_component: 8,
            ..IntegrationOptions::default()
        })
        .build();
    let a = engine
        .load_xml("a", &to_string(&scenario.mpeg7))
        .expect("loads");
    let b = engine
        .load_xml("b", &to_string(&scenario.imdb))
        .expect("loads");
    let (db, stats) = engine.integrate(&a, &b, "db").expect("integrates");
    assert_eq!(stats.components_truncated(), 1);
    let query = engine.prepare("//movie/title").expect("parses");
    // Queries work on the truncated document…
    let before = query
        .run(&engine.snapshot(&db).expect("exists"))
        .expect("evaluates");
    assert!(!before.is_empty());
    // …and keep working, with exact probabilities, after refinement.
    let step = engine
        .refine(&db, &RefineOptions::to_exhaustive())
        .expect("refines");
    assert_eq!(step.remaining, 0);
    assert_eq!(engine.refine_state(&db).expect("exists"), None);
    let after = query
        .run(&engine.snapshot(&db).expect("exists"))
        .expect("evaluates");
    assert_eq!(before.len(), after.len());
    // The version bump invalidated the prepared query's run cache; the
    // re-run reflects the refined distribution.
    assert!(before
        .items
        .iter()
        .any(|ans| (ans.probability - after.probability_of(&ans.value)).abs() > 1e-12));
}

/// Each published version keeps the query index its first query built.
/// After a refine step and after feedback, the next query must run on
/// the new version's index, never on the previous one: every answer
/// (value and probability bits) equals an evaluation of the same version
/// on a freshly built index.
#[test]
fn query_index_follows_every_published_version() {
    use imprecise::integrate::{IntegrationOptions, RefineOptions};
    use imprecise::query::{Answer, DocIndex};
    use imprecise::DocSnapshot;
    use std::sync::Arc;
    let scenario = scenarios::confusable(4);
    let engine = Engine::builder()
        .oracle(movie_oracle(MovieOracleConfig {
            title_rule: false,
            ..MovieOracleConfig::default()
        }))
        .schema(scenario.schema)
        .options(IntegrationOptions {
            max_matchings_per_component: 8,
            ..IntegrationOptions::default()
        })
        .build();
    let a = engine
        .load_xml("a", &to_string(&scenario.mpeg7))
        .expect("loads");
    let b = engine
        .load_xml("b", &to_string(&scenario.imdb))
        .expect("loads");
    let (db, _) = engine.integrate(&a, &b, "db").expect("integrates");
    let query = engine.prepare("//movie/title").expect("parses");
    let checked = |label: &str| -> DocSnapshot {
        let snapshot = engine.snapshot(&db).expect("exists");
        let cached: Vec<Answer> = query.stream(&snapshot, None).expect("evaluates").collect();
        // A copy whose no-op mutation drops the shared index.
        let mut copy = snapshot.doc().clone();
        copy.truncate_arena(copy.arena_len());
        let fresh: Vec<Answer> = query.plan().execute(&copy).expect("evaluates").collect();
        assert!(!cached.is_empty(), "{label}");
        assert_eq!(cached, fresh, "{label}");
        let index = DocIndex::of(snapshot.doc());
        assert!(!Arc::ptr_eq(&index, &DocIndex::of(&copy)), "{label}");
        assert_eq!(
            index.node_count(),
            snapshot.doc().reachable_count(),
            "{label}"
        );
        snapshot
    };

    let integrated = checked("integrated");
    let again = engine.snapshot(&db).expect("exists");
    assert!(
        Arc::ptr_eq(&DocIndex::of(integrated.doc()), &DocIndex::of(again.doc())),
        "snapshots of one version share its index"
    );

    let step = engine
        .refine(
            &db,
            &RefineOptions {
                extra_matchings: 8,
                ..RefineOptions::default()
            },
        )
        .expect("refines");
    assert!(step.emitted_nodes > 0, "the step changed the document");
    let refined = checked("refined");
    assert_eq!(refined.version(), integrated.version() + 1);
    assert!(!Arc::ptr_eq(
        &DocIndex::of(integrated.doc()),
        &DocIndex::of(refined.doc())
    ));

    let uncertain = query
        .run(&refined)
        .expect("evaluates")
        .items
        .into_iter()
        .find(|a| a.probability < 1.0)
        .expect("an uncertain title");
    engine
        .feedback(&db, &query, &uncertain.value, false)
        .expect("feedback applies");
    let conditioned = checked("after feedback");
    assert_eq!(conditioned.version(), refined.version() + 1);
    assert!(!Arc::ptr_eq(
        &DocIndex::of(refined.doc()),
        &DocIndex::of(conditioned.doc())
    ));
    let after = query.run(&conditioned).expect("evaluates");
    assert_eq!(after.probability_of(&uncertain.value), 0.0);
}

#[test]
fn staged_refinement_emits_deltas_and_keeps_the_arena_clean() {
    use imprecise::integrate::{IntegrationOptions, RefineOptions};
    let scenario = scenarios::confusable(4);
    let engine = Engine::builder()
        .oracle(movie_oracle(MovieOracleConfig {
            title_rule: false,
            ..MovieOracleConfig::default()
        }))
        .schema(scenario.schema)
        .options(IntegrationOptions {
            max_matchings_per_component: 8,
            ..IntegrationOptions::default()
        })
        .build();
    let a = engine
        .load_xml("a", &to_string(&scenario.mpeg7))
        .expect("loads");
    let b = engine
        .load_xml("b", &to_string(&scenario.imdb))
        .expect("loads");
    let (db, stats) = engine.integrate(&a, &b, "db").expect("integrates");
    assert!(stats.components_truncated() > 0);
    let options = RefineOptions {
        extra_matchings: 4,
        min_retained_mass: None,
        max_components: usize::MAX,
        threads: None,
    };
    let mut detached_baseline: Option<usize> = None;
    let mut steps = 0usize;
    loop {
        let step = engine.refine(&db, &options).expect("refines");
        if step.refined.is_empty() {
            break;
        }
        steps += 1;
        assert!(steps < 10_000, "refinement failed to converge");
        // Incremental emission appends only the delta subtrees…
        assert!(step.emitted_nodes > 0, "a refining step grafts new nodes");
        assert!(step.arena_live <= step.arena_total);
        if step.remaining > 0 {
            // …and detaches nothing while frontiers stay open: arena
            // garbage does not grow with the number of installments.
            // (The final step runs the deferred simplification pass,
            // which legitimately strands nodes — hence the guard.)
            let detached = step.arena_total - step.arena_live;
            let base = *detached_baseline.get_or_insert(detached);
            assert!(
                detached <= base,
                "detached slots grew across refine steps: {base} -> {detached}"
            );
        }
        if step.remaining == 0 {
            break;
        }
    }
    assert!(steps > 1, "budget 8 + extra 4 takes several installments");
    // Occupancy of the published document stays sane after the cycle —
    // feedback included (conditioning detaches pruned possibilities but
    // never grows the arena).
    let before = engine.snapshot(&db).expect("exists").doc().arena_stats();
    let title = engine.prepare("//movie/title").expect("parses");
    let first_title = {
        let answers = title
            .run(&engine.snapshot(&db).expect("exists"))
            .expect("evaluates");
        answers.items[0].value.clone()
    };
    engine
        .feedback(&db, &title, &first_title, true)
        .expect("feedback applies");
    let after = engine.snapshot(&db).expect("exists").doc().arena_stats();
    assert!(
        after.total <= before.total,
        "feedback never grows the arena"
    );
    assert!(after.live <= after.total);
}

/// Per refine installment on `confusable_grid(groups, 7)` at budget 64
/// (8 installments of 64 matchings, at most 4 components each): the
/// arena chunks of the previous version that the new one does not
/// share, and the number of components the installment refined.
fn unshared_chunks_per_installment(groups: usize) -> Vec<(usize, usize)> {
    use imprecise::integrate::{IntegrationOptions, Parallelism, RefineOptions};
    let grid = scenarios::confusable_grid(groups, 7);
    let engine = Engine::builder()
        .oracle(movie_oracle(MovieOracleConfig {
            title_rule: false,
            ..MovieOracleConfig::default()
        }))
        .schema(grid.schema)
        .options(IntegrationOptions {
            max_matchings_per_component: 64,
            parallelism: Parallelism::SERIAL,
            ..IntegrationOptions::default()
        })
        .build();
    let a = engine
        .load_xml("a", &to_string(&grid.mpeg7))
        .expect("loads");
    let b = engine.load_xml("b", &to_string(&grid.imdb)).expect("loads");
    let (m, _) = engine.integrate(&a, &b, "m").expect("integrates");
    let options = RefineOptions {
        extra_matchings: 64,
        min_retained_mass: None,
        max_components: 4,
        threads: Some(Parallelism::SERIAL),
    };
    (0..8)
        .map(|_| {
            let before = engine.snapshot(&m).expect("exists");
            let step = engine.refine(&m, &options).expect("refines");
            assert!(step.remaining > 0 && !step.compacted);
            let after = engine.snapshot(&m).expect("exists");
            (
                after.doc().unshared_chunks(before.doc()),
                step.refined.len(),
            )
        })
        .collect()
}

/// Consecutive versions of a refined document share memory: an
/// installment copies the chunk of each refined anchor (whose child list
/// it rewrites) and the partly filled last chunk it appends to, and
/// shares every other chunk with the version before it, however large
/// the document is.
#[test]
fn refine_installments_share_all_but_the_chunks_they_change() {
    let small = unshared_chunks_per_installment(4);
    let large = unshared_chunks_per_installment(16);
    for &(unshared, refined) in small.iter().chain(&large) {
        assert_eq!(refined, 4);
        assert!(
            unshared <= refined + 1,
            "{unshared} chunks copied for {refined} refined anchors"
        );
    }
    assert_eq!(small, large, "the copy does not grow with the document");
}

#[test]
fn durable_store_resumes_refinement_across_processes() {
    use imprecise::integrate::{IntegrationOptions, RefineOptions};
    // The full crash-safe cycle of the durable store: integrate under a
    // tight budget with a store attached, drop the Engine entirely (the
    // "process" dies mid-refinement), reopen from the segment file in a
    // fresh Engine, refine to exhaustion, and land bit-for-bit on the
    // one-shot exhaustive fingerprint.
    let scratch = ScratchStore::new("resume");
    // Oracle is not Clone, so each engine rebuilds the configuration.
    let builder = |budget: usize| {
        let scenario = scenarios::confusable(4);
        Engine::builder()
            .oracle(movie_oracle(MovieOracleConfig {
                title_rule: false,
                ..MovieOracleConfig::default()
            }))
            .schema(scenario.schema)
            .options(IntegrationOptions {
                max_matchings_per_component: budget,
                ..IntegrationOptions::default()
            })
    };
    let scenario = scenarios::confusable(4);
    // Ground truth: the same workload integrated exhaustively, no store.
    let truth = {
        let engine = builder(usize::MAX).build();
        let a = engine
            .load_xml("a", &to_string(&scenario.mpeg7))
            .expect("loads");
        let b = engine
            .load_xml("b", &to_string(&scenario.imdb))
            .expect("loads");
        let (db, stats) = engine.integrate(&a, &b, "db").expect("integrates");
        assert!(stats.is_exact());
        engine.snapshot(&db).expect("exists").doc().fingerprint()
    };
    // "Process one": integrate under budget, publish durably, die.
    {
        let engine = builder(8).with_store(&scratch.0).open().expect("opens");
        let a = engine
            .load_xml("a", &to_string(&scenario.mpeg7))
            .expect("loads");
        let b = engine
            .load_xml("b", &to_string(&scenario.imdb))
            .expect("loads");
        let (db, stats) = engine.integrate(&a, &b, "db").expect("integrates");
        assert!(stats.components_truncated() > 0, "budget 8 must truncate");
        assert!(engine.refine_state(&db).expect("exists").is_some());
    }
    // "Process two": recover the catalog and the refine frontier.
    let engine = builder(8).with_store(&scratch.0).open().expect("reopens");
    let db = engine.handle("db").expect("recovered from the store");
    let info = engine
        .refine_state(&db)
        .expect("exists")
        .expect("frontier survives recovery");
    assert_eq!(info.recovered_at, Some(1), "provenance marks the recovery");
    assert!(info.open_components > 0);
    let step = engine
        .refine(&db, &RefineOptions::to_exhaustive())
        .expect("refines");
    assert_eq!(step.remaining, 0);
    assert_eq!(engine.refine_state(&db).expect("exists"), None);
    assert_eq!(
        engine.snapshot(&db).expect("exists").doc().fingerprint(),
        truth,
        "cross-process resume must converge to the one-shot exhaustive result"
    );
}

#[test]
fn document_names_listed() {
    let (engine, _, _) = movie_engine();
    assert_eq!(engine.document_names(), vec!["imdb", "mpeg7"]);
}

#[test]
fn stats_report_both_representations() {
    let (engine, mpeg7, imdb) = movie_engine();
    let (db, _) = engine.integrate(&mpeg7, &imdb, "db").expect("integrates");
    let stats = engine.stats(&db).expect("exists");
    // Factored representation never exceeds the unfactored equivalent.
    assert!(stats.breakdown.total() as f64 <= stats.unfactored_nodes);
    assert!(stats.expected_world_size > 0.0);
}
