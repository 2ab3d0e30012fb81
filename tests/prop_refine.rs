//! Property tests of resumable integration (PR 5's tentpole):
//!
//! * a budget-truncated integration refined to an unlimited budget is
//!   **byte-identical** (document fingerprint) to the one-shot
//!   exhaustive integration — the frontier really does persist the whole
//!   search state;
//! * per-component mass accounting closes (`retained + discarded ==
//!   1 ± 1e-9`) after *every* staged refinement step, not only at the
//!   ends;
//! * the worst-case discarded mass shrinks monotonically as refinement
//!   steps are applied, and staged refinement converges to the same
//!   exhaustive fingerprint as a single unlimited refinement;
//! * arena compaction is invisible to every observer — fingerprint,
//!   world enumeration, query answers — and interleaving compaction
//!   with refinement steps does not disturb the bitwise convergence
//!   (PR 6's incremental emitter + arena hygiene).

use imprecise::datagen::movies::{catalog_to_xml, movie_schema, Movie, MovieBuilder, SourceStyle};
use imprecise::integrate::{integrate_px, integrate_xml, IntegrationOptions, RefineOptions};
use imprecise::oracle::presets::{movie_oracle, MovieOracleConfig};
use imprecise::query::{eval_px, parse_query};
use imprecise::xml::to_string;
use imprecise::Engine;
use proptest::prelude::*;

/// Unique temp-file path for durable-store properties, removed on drop.
struct ScratchStore(std::path::PathBuf);

impl ScratchStore {
    fn new() -> Self {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "imprecise-prop-refine-{}-{n}.seg",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        ScratchStore(path)
    }
}

impl Drop for ScratchStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A store-backed engine over the confusion workload; rebuilt per open
/// because [`imprecise::oracle::Oracle`] is not `Clone`.
fn store_engine(budget: usize, path: &std::path::Path) -> Engine {
    Engine::builder()
        .oracle(confusion_oracle())
        .schema(movie_schema())
        .options(IntegrationOptions {
            max_matchings_per_component: budget,
            ..IntegrationOptions::default()
        })
        .with_store(path)
        .open()
        .expect("store opens")
}

const TITLE_POOL: [&str; 5] = ["Jaws", "Jaws 2", "Heat", "Die Hard", "Casino"];

fn movie_from(title: u8, year: u8, rwo: u64) -> Movie {
    MovieBuilder::new(
        rwo,
        TITLE_POOL[title as usize % TITLE_POOL.len()],
        1970 + u32::from(year % 4),
    )
    .genre("Drama")
    .build()
}

fn confusion_oracle() -> imprecise::oracle::Oracle {
    // Title and year rules off: most pairs stay undecided, so even small
    // catalogs produce components with many matchings.
    movie_oracle(MovieOracleConfig {
        genre_rule: false,
        title_rule: false,
        year_rule: false,
        graded_prior: true,
        ..MovieOracleConfig::default()
    })
}

fn catalogs(
    a_specs: &[(u8, u8)],
    b_specs: &[(u8, u8)],
) -> (imprecise::xml::XmlDoc, imprecise::xml::XmlDoc) {
    let a: Vec<Movie> = a_specs
        .iter()
        .enumerate()
        .map(|(i, &(t, y))| movie_from(t, y, i as u64))
        .collect();
    let b: Vec<Movie> = b_specs
        .iter()
        .enumerate()
        .map(|(i, &(t, y))| movie_from(t, y, 100 + i as u64))
        .collect();
    (
        catalog_to_xml(&a, SourceStyle::Mpeg7),
        catalog_to_xml(&b, SourceStyle::Imdb),
    )
}

/// Length and FNV-1a digest of the encoded refine state of the 4×7
/// confusable grid at budget 64 after two 64-matching installments. The
/// store persists exactly these bytes, so a change here is an on-disk
/// format change (and needs a segment `FORMAT_VERSION` bump).
const PINNED_REFINE_STATE: (usize, u64) = (5_362_134, 17_803_913_712_546_686_512);

#[test]
fn encoded_refine_state_bytes_are_pinned() {
    use imprecise::datagen::scenarios;
    use imprecise::integrate::codec::encode_refine_state;
    let grid = scenarios::confusable_grid(4, 7);
    let oracle = movie_oracle(MovieOracleConfig {
        title_rule: false,
        ..MovieOracleConfig::default()
    });
    let mut outcome = integrate_xml(
        &grid.mpeg7,
        &grid.imdb,
        &oracle,
        Some(&grid.schema),
        &IntegrationOptions {
            max_matchings_per_component: 64,
            ..IntegrationOptions::default()
        },
    )
    .expect("budgeted never errors");
    let installment = RefineOptions {
        extra_matchings: 64,
        ..RefineOptions::default()
    };
    for _ in 0..2 {
        outcome
            .refine(&oracle, Some(&grid.schema), &installment)
            .expect("refine succeeds");
    }
    let state = outcome
        .detach_refine_state()
        .expect("two installments leave the grid open");
    let mut bytes = Vec::new();
    encode_refine_state(&state, &mut bytes);
    assert_eq!(
        (bytes.len(), imprecise::pxml::codec::fnv1a(&bytes)),
        PINNED_REFINE_STATE
    );
}

/// Reopen the durable store after every installment of the staged
/// 8 × 64 refinement of the 4×7 grid (budget 64), and refine what was
/// recovered, one installment per "process". Each recovered version must
/// equal the in-memory run byte for byte — document encoding, refine
/// state encoding, fingerprint — and refining it must report the same
/// next step. Every installment after the first reopen extends the
/// recovered state, so each is written as a delta record, and the
/// chain the reopen replays grows by one per installment.
#[test]
fn durable_refine_deltas_recover_every_installment_bitwise() {
    use imprecise::datagen::scenarios;
    use imprecise::integrate::codec::encode_refine_state;
    use imprecise::integrate::{IntegrationOutcome, RefineState};
    use imprecise::pxml::codec::encode_doc;
    use imprecise::pxml::PxDoc;
    use imprecise::store::{Durability, Store};

    fn encoded(doc: &PxDoc, state: Option<&RefineState>) -> (Vec<u8>, Vec<u8>) {
        let (mut d, mut s) = (Vec::new(), Vec::new());
        encode_doc(doc, &mut d);
        if let Some(state) = state {
            encode_refine_state(state, &mut s);
        }
        (d, s)
    }

    let grid = scenarios::confusable_grid(4, 7);
    let oracle = movie_oracle(MovieOracleConfig {
        title_rule: false,
        ..MovieOracleConfig::default()
    });
    let schema = Some(&grid.schema);
    let installment = RefineOptions {
        extra_matchings: 64,
        ..RefineOptions::default()
    };
    let mut memory = integrate_xml(
        &grid.mpeg7,
        &grid.imdb,
        &oracle,
        schema,
        &IntegrationOptions {
            max_matchings_per_component: 64,
            ..IntegrationOptions::default()
        },
    )
    .expect("budgeted never errors");
    let scratch = ScratchStore::new();
    {
        let mut durable = memory.clone();
        let state = durable.detach_refine_state();
        let mut store = Store::open(&scratch.0, Durability::OnClose).expect("opens");
        store
            .append_publish("m", 1, &durable.doc, state.as_ref())
            .expect("appends the integration");
    }
    let (mut appended_bytes, mut full_bytes) = (0usize, 0usize);
    for k in 1..=8u64 {
        let mut store = Store::open(&scratch.0, Durability::OnClose).expect("reopens");
        let recovered = store
            .load_publish("m")
            .expect("recovers")
            .expect("m is on file");
        assert_eq!(recovered.version, k);
        let mut expected = memory.clone();
        let state = expected.detach_refine_state();
        assert_eq!(
            encoded(&recovered.doc, recovered.refine.as_ref()),
            encoded(&expected.doc, state.as_ref()),
            "version {k} recovers to different bytes"
        );
        assert_eq!(recovered.doc.fingerprint(), memory.doc.fingerprint());
        let Some(open) = recovered.refine else {
            assert!(!memory.is_refinable());
            break;
        };
        let want = memory
            .refine(&oracle, schema, &installment)
            .expect("in-memory refine succeeds");
        let mut resumed = IntegrationOutcome::with_refine_state(recovered.doc, open);
        let got = resumed
            .refine(&oracle, schema, &installment)
            .expect("recovered refine succeeds");
        assert_eq!(got, want, "installment {k} after reopen differs");
        let next = resumed.detach_refine_state();
        let before = std::fs::metadata(&scratch.0).expect("stat").len();
        store
            .append_publish("m", k + 1, &resumed.doc, next.as_ref())
            .expect("appends the installment");
        let appended = std::fs::metadata(&scratch.0).expect("stat").len() - before;
        let (doc_bytes, state_bytes) = encoded(&resumed.doc, next.as_ref());
        appended_bytes += appended as usize;
        full_bytes += doc_bytes.len() + state_bytes.len();
    }
    // Measured: 31 MB of deltas against 142 MB of full records.
    assert!(
        appended_bytes * 4 < full_bytes,
        "deltas must stay well below full records: {appended_bytes} vs {full_bytes} bytes"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn refine_to_unlimited_is_bitwise_exhaustive(
        a_specs in proptest::collection::vec((0u8..5, 0u8..4), 2..5),
        b_specs in proptest::collection::vec((0u8..5, 0u8..4), 2..5),
        budget in 2usize..6,
    ) {
        let (doc_a, doc_b) = catalogs(&a_specs, &b_specs);
        let schema = movie_schema();
        let oracle = confusion_oracle();
        let exact = integrate_xml(&doc_a, &doc_b, &oracle, Some(&schema),
            &IntegrationOptions::default()).expect("exhaustive integrates");
        prop_assert!(!exact.is_refinable());
        let mut budgeted = integrate_xml(&doc_a, &doc_b, &oracle, Some(&schema),
            &IntegrationOptions {
                max_matchings_per_component: budget,
                ..IntegrationOptions::default()
            }).expect("budgeted never errors");
        let step = budgeted
            .refine(&oracle, Some(&schema), &RefineOptions::to_exhaustive())
            .expect("refine succeeds");
        prop_assert_eq!(step.remaining, 0);
        prop_assert!(!budgeted.is_refinable());
        prop_assert!(budgeted.stats.is_exact());
        prop_assert_eq!(
            exact.doc.fingerprint(),
            budgeted.doc.fingerprint(),
            "refined-to-unlimited differs from the one-shot exhaustive run"
        );
    }

    #[test]
    fn staged_refinement_closes_mass_and_shrinks_monotonically(
        a_specs in proptest::collection::vec((0u8..5, 0u8..4), 2..5),
        b_specs in proptest::collection::vec((0u8..5, 0u8..4), 2..5),
        budget in 2usize..6,
        extra in 1usize..8,
        top in 1usize..3,
    ) {
        let (doc_a, doc_b) = catalogs(&a_specs, &b_specs);
        let schema = movie_schema();
        let oracle = confusion_oracle();
        let exact = integrate_xml(&doc_a, &doc_b, &oracle, Some(&schema),
            &IntegrationOptions::default()).expect("exhaustive integrates");
        let mut outcome = integrate_xml(&doc_a, &doc_b, &oracle, Some(&schema),
            &IntegrationOptions {
                max_matchings_per_component: budget,
                ..IntegrationOptions::default()
            }).expect("budgeted never errors");
        let options = RefineOptions {
            extra_matchings: extra,
            min_retained_mass: None,
            max_components: top,
            threads: None,
        };
        let mut last_mass = outcome.max_discarded_mass();
        let mut guard = 0usize;
        while outcome.is_refinable() {
            let step = outcome
                .refine(&oracle, Some(&schema), &options)
                .expect("refine succeeds");
            // Mass closure per component, after every step.
            for f in outcome.frontiers() {
                prop_assert!(
                    (f.retained_mass() + f.discarded_mass() - 1.0).abs() < 1e-9,
                    "{}: retained {} + discarded {} != 1",
                    f.path(), f.retained_mass(), f.discarded_mass()
                );
            }
            // The refined components' own accounting closes too.
            for r in &step.refined {
                prop_assert!(r.discarded_after >= 0.0 && r.discarded_after <= 1.0);
                prop_assert!(r.kept_after >= r.kept_before);
            }
            // Monotone convergence of the headline figure.
            prop_assert!(
                step.max_discarded_mass <= last_mass + 1e-9,
                "max discarded mass grew: {last_mass} -> {}",
                step.max_discarded_mass
            );
            last_mass = step.max_discarded_mass;
            // The intermediate document stays a valid distribution.
            outcome.doc.validate().expect("valid px invariants");
            // Stats track the live frontiers.
            prop_assert_eq!(outcome.stats.components_truncated(), step.remaining);
            guard += 1;
            prop_assert!(guard < 10_000, "refinement failed to converge");
        }
        prop_assert_eq!(
            exact.doc.fingerprint(),
            outcome.doc.fingerprint(),
            "staged refinement must converge to the exhaustive result"
        );
    }

    #[test]
    fn refining_probabilistic_inputs_converges_too(
        a_specs in proptest::collection::vec((0u8..5, 0u8..4), 2..4),
        b_specs in proptest::collection::vec((0u8..5, 0u8..4), 2..4),
        budget in 3usize..6,
    ) {
        // Incremental integration: the (exact) result of one integration
        // — already probabilistic — integrated against a third source
        // under a budget, then refined. Truncated components here live
        // under local-world cross products, the arena sites the frontier
        // machinery must handle beyond plain element parents.
        let (doc_a, doc_b) = catalogs(&a_specs, &b_specs);
        let schema = movie_schema();
        let oracle = confusion_oracle();
        let first = integrate_xml(&doc_a, &doc_b, &oracle, Some(&schema),
            &IntegrationOptions::default()).expect("first step integrates");
        let third: Vec<Movie> = (0..2)
            .map(|i| movie_from(i as u8, i as u8, 500 + i as u64))
            .collect();
        let doc_c = imprecise::pxml::from_xml(&catalog_to_xml(&third, SourceStyle::Mpeg7));
        let exact = integrate_px(&first.doc, &doc_c, &oracle, Some(&schema),
            &IntegrationOptions::default()).expect("exhaustive second step");
        let mut budgeted = integrate_px(&first.doc, &doc_c, &oracle, Some(&schema),
            &IntegrationOptions {
                max_matchings_per_component: budget,
                ..IntegrationOptions::default()
            }).expect("budgeted second step");
        budgeted
            .refine(&oracle, Some(&schema), &RefineOptions::to_exhaustive())
            .expect("refine succeeds");
        prop_assert!(!budgeted.is_refinable());
        prop_assert_eq!(exact.doc.fingerprint(), budgeted.doc.fingerprint());
    }

    #[test]
    fn store_roundtrip_mid_refinement_resumes_bitwise(
        a_specs in proptest::collection::vec((0u8..5, 0u8..4), 2..5),
        b_specs in proptest::collection::vec((0u8..5, 0u8..4), 2..5),
        budget in 2usize..6,
        extra in 1usize..8,
    ) {
        // The durable store dropped mid-staged-refinement must recover a
        // frontier that resumes exactly where the dead process stopped:
        // reopen + refine-to-exhaustive lands on the one-shot exhaustive
        // fingerprint, bit for bit, for arbitrary interruption points.
        let (doc_a, doc_b) = catalogs(&a_specs, &b_specs);
        let schema = movie_schema();
        let oracle = confusion_oracle();
        let exact = integrate_xml(&doc_a, &doc_b, &oracle, Some(&schema),
            &IntegrationOptions::default()).expect("exhaustive integrates");
        let scratch = ScratchStore::new();
        let options = RefineOptions {
            extra_matchings: extra,
            min_retained_mass: None,
            max_components: usize::MAX,
            threads: None,
        };
        // "Process one": integrate under budget, apply one partial
        // installment, die with the frontier still open (usually).
        let interrupted_fp = {
            let engine = store_engine(budget, &scratch.0);
            let a = engine.load_xml("a", &to_string(&doc_a)).expect("loads");
            let b = engine.load_xml("b", &to_string(&doc_b)).expect("loads");
            let (db, _) = engine.integrate(&a, &b, "db").expect("integrates");
            if engine.refine_state(&db).expect("exists").is_some() {
                engine.refine(&db, &options).expect("refines");
            }
            engine.snapshot(&db).expect("exists").doc().fingerprint()
        };
        // "Process two": recovery is bitwise-faithful to the interrupted
        // document, and the recovered frontier finishes the job.
        let engine = store_engine(budget, &scratch.0);
        let db = engine.handle("db").expect("recovered");
        prop_assert_eq!(
            engine.snapshot(&db).expect("exists").doc().fingerprint(),
            interrupted_fp,
            "recovery must reproduce the interrupted document exactly"
        );
        if let Some(info) = engine.refine_state(&db).expect("exists") {
            prop_assert!(info.recovered_at.is_some(),
                "a recovered frontier carries provenance");
        }
        let step = engine
            .refine(&db, &RefineOptions::to_exhaustive())
            .expect("refines");
        prop_assert_eq!(step.remaining, 0);
        prop_assert_eq!(
            engine.snapshot(&db).expect("exists").doc().fingerprint(),
            exact.doc.fingerprint(),
            "store round-trip mid-refinement must still converge exactly"
        );
    }

    #[test]
    fn compaction_is_invisible_to_every_observer(
        a_specs in proptest::collection::vec((0u8..5, 0u8..4), 2..5),
        b_specs in proptest::collection::vec((0u8..5, 0u8..4), 2..5),
        budget in 2usize..6,
    ) {
        // Refinement-to-exhaustive runs the deferred simplification
        // pass, which strands the collapsed nodes in the arena: the
        // compaction target. Compacting must change nothing any reader
        // can see — fingerprint, world distribution, query answers.
        let (doc_a, doc_b) = catalogs(&a_specs, &b_specs);
        let schema = movie_schema();
        let oracle = confusion_oracle();
        let mut outcome = integrate_xml(&doc_a, &doc_b, &oracle, Some(&schema),
            &IntegrationOptions {
                max_matchings_per_component: budget,
                ..IntegrationOptions::default()
            }).expect("budgeted never errors");
        outcome
            .refine(&oracle, Some(&schema), &RefineOptions::to_exhaustive())
            .expect("refine succeeds");
        let fingerprint = outcome.doc.fingerprint();
        let worlds = outcome.doc.worlds(1_000_000).expect("bounded");
        let query = parse_query("//movie/title").expect("parses");
        let answers = eval_px(&outcome.doc, &query).expect("evaluates");
        let before = outcome.doc.arena_stats();
        let map = outcome.compact_arena();
        prop_assert_eq!(map.dropped(), before.detached(),
            "compaction reclaims exactly the detached slots");
        let after = outcome.doc.arena_stats();
        prop_assert_eq!(after.live, after.total, "no garbage survives");
        prop_assert_eq!(after.live, before.live, "no live node is lost");
        outcome.doc.validate().expect("valid px invariants");
        prop_assert_eq!(fingerprint, outcome.doc.fingerprint(),
            "compaction must not change the fingerprint");
        let worlds_after = outcome.doc.worlds(1_000_000).expect("bounded");
        prop_assert_eq!(worlds.len(), worlds_after.len());
        for (w, v) in worlds.iter().zip(&worlds_after) {
            prop_assert_eq!(w.prob.to_bits(), v.prob.to_bits());
            prop_assert_eq!(to_string(&w.doc), to_string(&v.doc));
        }
        let answers_after = eval_px(&outcome.doc, &query).expect("evaluates");
        prop_assert_eq!(answers.items.len(), answers_after.items.len());
        for (x, y) in answers.items.iter().zip(&answers_after.items) {
            prop_assert_eq!(&x.value, &y.value);
            prop_assert_eq!(x.probability.to_bits(), y.probability.to_bits());
        }
    }

    #[test]
    fn compaction_between_refine_steps_keeps_bitwise_convergence(
        a_specs in proptest::collection::vec((0u8..5, 0u8..4), 2..5),
        b_specs in proptest::collection::vec((0u8..5, 0u8..4), 2..5),
        budget in 2usize..6,
        extra in 1usize..8,
    ) {
        // Compacting mid-flight renumbers the arena under the open
        // frontiers' feet; the re-anchored frontiers must still drive
        // the staged refinement to the exact one-shot fingerprint.
        let (doc_a, doc_b) = catalogs(&a_specs, &b_specs);
        let schema = movie_schema();
        let oracle = confusion_oracle();
        let exact = integrate_xml(&doc_a, &doc_b, &oracle, Some(&schema),
            &IntegrationOptions::default()).expect("exhaustive integrates");
        let mut outcome = integrate_xml(&doc_a, &doc_b, &oracle, Some(&schema),
            &IntegrationOptions {
                max_matchings_per_component: budget,
                ..IntegrationOptions::default()
            }).expect("budgeted never errors");
        let options = RefineOptions {
            extra_matchings: extra,
            min_retained_mass: None,
            max_components: usize::MAX,
            threads: None,
        };
        let mut guard = 0usize;
        while outcome.is_refinable() {
            let step = outcome
                .refine(&oracle, Some(&schema), &options)
                .expect("refine succeeds");
            // Incremental emission appends without detaching: while
            // frontiers stay open the arena holds no garbage, so the
            // interleaved compaction is exercised as both the identity
            // remap and (after the final simplify) a real reclaim.
            prop_assert!(step.arena_live <= step.arena_total);
            outcome.compact_arena();
            outcome.doc.validate().expect("valid px invariants");
            guard += 1;
            prop_assert!(guard < 10_000, "refinement failed to converge");
        }
        prop_assert_eq!(
            exact.doc.fingerprint(),
            outcome.doc.fingerprint(),
            "compaction between steps must not disturb convergence"
        );
    }
}
