//! Shared experiment runners behind the `table1`, `fig5`, `queries`,
//! `typical` and ablation harnesses (both the printable binaries and the
//! Criterion benches call into these, so the numbers in EXPERIMENTS.md and
//! the timings come from the same code paths).

#![forbid(unsafe_code)]

use imprecise::datagen::scenarios::{self, MovieScenario};
use imprecise::integrate::{
    block_candidates, integrate_xml, BlockingMode, IntegrationOptions, IntegrationOutcome,
};
use imprecise::oracle::presets::{movie_oracle, MovieOracleConfig, TableIRuleSet};
use imprecise::oracle::{Decision, ElemRef, Oracle};
use imprecise::pxml::{from_xml, PxDoc, PxNodeId};
use imprecise::quality::{evaluate, QualityReport};
use imprecise::query::RankedAnswers;
use imprecise::{DocHandle, Engine};

/// One measured integration outcome.
#[derive(Debug, Clone)]
pub struct IntegrationMeasurement {
    /// Workload / rule-set label.
    pub label: String,
    /// Nodes of the compact factored representation.
    pub factored_nodes: usize,
    /// Nodes of the paper-equivalent unfactored representation
    /// (the quantity of Table I / Figure 5).
    pub unfactored_nodes: f64,
    /// Possible worlds.
    pub worlds: f64,
    /// Matchings enumerated across all components.
    pub matchings: usize,
    /// Largest single component's matching count.
    pub max_component_matchings: usize,
    /// Pairs the Oracle could not decide.
    pub undecided_pairs: usize,
}

/// Integrate a scenario under an oracle and measure the result.
pub fn measure(
    label: impl Into<String>,
    scenario: &MovieScenario,
    oracle: &Oracle,
) -> IntegrationMeasurement {
    let options = IntegrationOptions::default();
    let result = integrate_xml(
        &scenario.mpeg7,
        &scenario.imdb,
        oracle,
        Some(&scenario.schema),
        &options,
    )
    .unwrap_or_else(|e| panic!("integration failed for {:?}: {e}", scenario.info.name));
    measurement(label, &result)
}

fn measurement(label: impl Into<String>, result: &IntegrationOutcome) -> IntegrationMeasurement {
    IntegrationMeasurement {
        label: label.into(),
        factored_nodes: result.doc.reachable_count(),
        unfactored_nodes: result.doc.unfactored_node_count(),
        worlds: result.doc.world_count_f64(),
        matchings: result.stats.matchings_enumerated,
        max_component_matchings: result.stats.max_component_matchings,
        undecided_pairs: result.stats.judged_possible,
    }
}

/// Table I: the sequels workload under the five effective rule sets.
pub fn run_table1() -> Vec<IntegrationMeasurement> {
    let scenario = scenarios::sequels_t1();
    TableIRuleSet::ALL
        .iter()
        .map(|rule_set| measure(rule_set.label(), &scenario, &rule_set.oracle()))
        .collect()
}

/// The two rule configurations of Figure 5.
pub fn fig5_oracles() -> [(&'static str, Oracle); 2] {
    let title_only = movie_oracle(MovieOracleConfig {
        genre_rule: false,
        title_rule: true,
        year_rule: false,
        graded_prior: false,
        ..MovieOracleConfig::default()
    });
    let title_year = movie_oracle(MovieOracleConfig {
        genre_rule: false,
        title_rule: true,
        year_rule: true,
        graded_prior: false,
        ..MovieOracleConfig::default()
    });
    [
        ("Only movie title rule", title_only),
        ("Movie title+year rule", title_year),
    ]
}

/// Figure 5: sweep the number of IMDB movies for both rule configurations.
/// Returns `(series label, n, measurement)` rows.
pub fn run_fig5(ns: &[usize]) -> Vec<(String, usize, IntegrationMeasurement)> {
    let mut rows = Vec::new();
    for (label, oracle) in fig5_oracles() {
        for &n in ns {
            let scenario = scenarios::fig5(n);
            let m = measure(format!("{label} n={n}"), &scenario, &oracle);
            rows.push((label.to_string(), n, m));
        }
    }
    rows
}

/// The oracle for the §VI query experiments: confusing conditions (no
/// year rule — "the II may be a typing mistake"), graded prior so ranks
/// spread.
pub fn query_oracle() -> Oracle {
    movie_oracle(MovieOracleConfig {
        genre_rule: true,
        title_rule: true,
        year_rule: false,
        graded_prior: true,
        ..MovieOracleConfig::default()
    })
}

/// Result of the §VI query experiments.
#[derive(Debug, Clone)]
pub struct QueryExperiment {
    /// Possible worlds of the integrated query database.
    pub worlds: f64,
    /// Nodes of the integrated database (factored).
    pub nodes: usize,
    /// Ranked answers of the Horror query.
    pub horror: RankedAnswers,
    /// Quality of the Horror answer against ground truth.
    pub horror_quality: QualityReport,
    /// Ranked answers of the John query.
    pub john: RankedAnswers,
    /// Quality of the John answer against ground truth.
    pub john_quality: QualityReport,
}

/// The §VI horror query.
pub const HORROR_QUERY: &str = "//movie[.//genre=\"Horror\"]/title";
/// The §VI John query.
pub const JOHN_QUERY: &str =
    "//movie[some $d in .//director satisfies contains($d,\"John\")]/title";

/// Ground truth of the Horror query (which movies really are Horror).
pub const HORROR_TRUTH: [&str; 2] = ["Jaws", "Jaws 2"];
/// Ground truth of the John query.
pub const JOHN_TRUTH: [&str; 2] = ["Die Hard: With a Vengeance", "Mission: Impossible II"];

/// Integration options of the §VI query experiments. The MPEG-7 source
/// is the curated one, so value conflicts trust it 4:1 — this is the
/// "domain knowledge" a user would configure alongside the rules.
/// (Shared by [`query_engine`] and [`build_query_db`] so the two §VI
/// build paths can never drift apart.)
pub fn query_db_options() -> IntegrationOptions {
    IntegrationOptions {
        source_weights: (0.8, 0.2),
        ..IntegrationOptions::default()
    }
}

/// Build an [`Engine`] configured for the §VI query experiments with
/// the integrated query database published inside it, returning the
/// engine and the database's handle. The database is the one
/// [`build_query_db`] constructs — the engine-path and raw-path benches
/// measure the *same* document by construction.
pub fn query_engine() -> (Engine, DocHandle) {
    let scenario = scenarios::query_db();
    let engine = Engine::builder()
        .oracle(query_oracle())
        .schema(scenario.schema)
        .options(query_db_options())
        .build();
    let db = engine
        .insert("query-db", build_query_db().doc)
        .expect("store-less insert cannot fail");
    (engine, db)
}

/// Build an integrated *address-book* database for the `query_plan`
/// bench: two generated books with overlapping, partially conflicting
/// entries, integrated under the address-book oracle. Sized so the naive
/// all-worlds evaluator stays feasible as a baseline.
pub fn addressbook_query_db() -> imprecise::pxml::PxDoc {
    use imprecise::datagen::addressbook::{
        addressbook_schema, addressbook_to_xml, random_addressbook_pair,
    };
    use imprecise::oracle::presets::addressbook_oracle;
    let (a, b) = random_addressbook_pair(42, 10, 6, 0.5);
    integrate_xml(
        &addressbook_to_xml(&a),
        &addressbook_to_xml(&b),
        &addressbook_oracle(),
        Some(&addressbook_schema()),
        &IntegrationOptions::default(),
    )
    .expect("address books integrate")
    .doc
}

/// The oracle of the budgeted-pipeline benches: year rule on (it is
/// what factors the confusable grid into independent components), title
/// rule off so similar titles are never force-separated, similarity
/// prior graded — every cross pair inside a component stays undecided
/// with a probability graded by title similarity. This is the
/// "weak-knowledge" regime where matching possibilities explode and
/// budgets earn their keep.
pub fn confusion_oracle() -> Oracle {
    movie_oracle(MovieOracleConfig {
        title_rule: false,
        ..MovieOracleConfig::default()
    })
}

/// Integrate a two-source scenario under explicit pipeline options
/// (used by the `integrate_pipeline` bench and its tests).
pub fn integrate_scenario(
    scenario: &MovieScenario,
    oracle: &Oracle,
    options: &IntegrationOptions,
) -> IntegrationOutcome {
    integrate_xml(
        &scenario.mpeg7,
        &scenario.imdb,
        oracle,
        Some(&scenario.schema),
        options,
    )
    .unwrap_or_else(|e| panic!("integration failed for {:?}: {e}", scenario.info.name))
}

/// Build the integrated §VI query database directly (no engine), for
/// callers that want the raw [`IntegrationOutcome`] statistics.
pub fn build_query_db() -> IntegrationOutcome {
    let scenario = scenarios::query_db();
    integrate_xml(
        &scenario.mpeg7,
        &scenario.imdb,
        &query_oracle(),
        Some(&scenario.schema),
        &query_db_options(),
    )
    .expect("query db integrates")
}

/// Run both §VI queries against the integrated query database, as one
/// prepared batch over a single consistent snapshot.
pub fn run_queries() -> QueryExperiment {
    let (engine, db) = query_engine();
    let queries = [
        engine.prepare(HORROR_QUERY).expect("static query parses"),
        engine.prepare(JOHN_QUERY).expect("static query parses"),
    ];
    let mut answers = engine
        .query_many(&db, &queries, None)
        .expect("queries evaluate")
        .into_iter();
    let horror = answers.next().expect("two answers");
    let john = answers.next().expect("two answers");
    let stats = engine.stats(&db).expect("db exists");
    QueryExperiment {
        worlds: stats.worlds,
        nodes: stats.breakdown.total(),
        horror_quality: evaluate(&horror, &HORROR_TRUTH),
        john_quality: evaluate(&john, &JOHN_TRUTH),
        horror,
        john,
    }
}

/// The typical-conditions experiment (§V prose).
pub struct TypicalOutcome {
    /// Measurement of the integration.
    pub measurement: IntegrationMeasurement,
    /// Pairs the Oracle left undecided (paper: 2).
    pub undecided: usize,
}

/// Run the typical-conditions integration with the full rule set.
pub fn run_typical() -> TypicalOutcome {
    let scenario = scenarios::typical();
    let oracle = movie_oracle(MovieOracleConfig {
        graded_prior: false,
        ..MovieOracleConfig::default()
    });
    let m = measure("typical 6x60", &scenario, &oracle);
    let undecided = m.undecided_pairs;
    TypicalOutcome {
        measurement: m,
        undecided,
    }
}

/// One row of the answer-quality experiment: prune at `epsilon`, then
/// measure both §VI queries against ground truth.
#[derive(Debug, Clone)]
pub struct QualityRow {
    /// Prune threshold (possibilities below it are discarded).
    pub epsilon: f64,
    /// Representation nodes after pruning.
    pub nodes: usize,
    /// Possible worlds after pruning.
    pub worlds: f64,
    /// Quality of the Horror query after pruning.
    pub horror: QualityReport,
    /// Quality of the John query after pruning.
    pub john: QualityReport,
}

/// The answer-quality experiment the paper announces in §V ("we are
/// currently setting up answer quality experiments"): sweep the
/// possibility-reduction threshold and measure how the §VI answers
/// degrade. Mild pruning removes low-probability noise (precision rises);
/// aggressive pruning eliminates valid possibilities (recall falls) —
/// exactly the "reduction should not be pushed too far" warning.
pub fn run_answer_quality(epsilons: &[f64]) -> Vec<QualityRow> {
    let (engine, db) = query_engine();
    let base = engine.snapshot(&db).expect("db exists");
    let horror_query = engine.prepare(HORROR_QUERY).expect("static query parses");
    let john_query = engine.prepare(JOHN_QUERY).expect("static query parses");
    epsilons
        .iter()
        .map(|&epsilon| {
            let mut doc = base.doc().clone();
            doc.prune_below(epsilon);
            let horror = horror_query.run_doc(&doc).expect("horror query evaluates");
            let john = john_query.run_doc(&doc).expect("john query evaluates");
            QualityRow {
                epsilon,
                nodes: doc.reachable_count(),
                worlds: doc.world_count_f64(),
                horror: evaluate(&horror, &HORROR_TRUTH),
                john: evaluate(&john, &JOHN_TRUTH),
            }
        })
        .collect()
}

/// Render a measurement table like the paper prints Table I
/// (nodes ×1000, one row per rule set).
pub fn format_table1(rows: &[IntegrationMeasurement]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<36} {:>16} {:>14} {:>14} {:>12}\n",
        "Effective rules", "#nodes (x1000)", "factored", "worlds", "matchings"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<36} {:>16.1} {:>14} {:>14.3e} {:>12}\n",
            r.label,
            r.unfactored_nodes / 1000.0,
            r.factored_nodes,
            r.worlds,
            r.matchings,
        ));
    }
    out
}

/// Regression ceiling for the staged-vs-one-shot gate: staged 8 × 64
/// refinement must stay within this factor of one-shot 512 on the
/// confusable(8) workload. The pre-incremental emitter sat at ~4.4×;
/// with live resident enumerators, O(1) per-step arena stats, and
/// arena-splice grafting the staged path measures ~1.05–1.10×, so the
/// ceiling both enforces the live-enumerator budget and still catches
/// a return to detach-and-re-emit behaviour. Measurement noise is
/// handled by the paired min-of-ratios protocol of [`cleanest_pair`],
/// not by slack in the ceiling.
pub const STAGED_GATE_CEILING: f64 = 1.15;

/// Paired wall-clock comparison of a gated path against its baseline,
/// from the cleanest of several interleaved pairs (see
/// [`cleanest_pair`]).
#[derive(Debug, Clone, Copy)]
pub struct GateMeasurement {
    /// The baseline's time in the cleanest pair.
    pub base: std::time::Duration,
    /// The gated path's time in the same pair.
    pub measured: std::time::Duration,
}

impl GateMeasurement {
    /// The gated path's cost as a multiple of the baseline's.
    pub fn ratio(&self) -> f64 {
        self.measured.as_secs_f64() / self.base.as_secs_f64().max(1e-9)
    }

    /// Whether the ratio is within `ceiling`.
    pub fn holds(&self, ceiling: f64) -> bool {
        self.ratio() <= ceiling
    }
}

/// Time `base` and `measured` as `pairs` interleaved pairs and keep the
/// pair with the smallest measured/base ratio.
///
/// A load spike on a busy (or single-core CI) machine inflates both
/// halves of the pair it lands in; taking the cleanest pair rejects
/// that noise, where a best-of-N on each half independently would
/// happily divide a noisy numerator by a quiet denominator (or vice
/// versa) and report a phantom regression. One quiet window is enough
/// for a faithful ratio.
pub fn cleanest_pair(
    pairs: usize,
    mut base: impl FnMut() -> std::time::Duration,
    mut measured: impl FnMut() -> std::time::Duration,
) -> GateMeasurement {
    let mut best: Option<GateMeasurement> = None;
    for _ in 0..pairs {
        let pair = GateMeasurement {
            base: base(),
            measured: measured(),
        };
        if best.is_none_or(|b| pair.ratio() < b.ratio()) {
            best = Some(pair);
        }
    }
    best.expect("at least one measurement pair")
}

/// Wall-clock time of one call of `f`.
fn timed<T>(f: impl FnOnce() -> T) -> std::time::Duration {
    let start = std::time::Instant::now();
    std::hint::black_box(f());
    start.elapsed()
}

/// Integrate a scenario under `opts`, then apply up to `steps`
/// refinement installments of `extra` matchings each (stopping early if
/// the outcome drains). The staged half of the gate; also used by the
/// `integrate_refine` bench groups.
pub fn integrate_then_refine(
    scenario: &MovieScenario,
    oracle: &Oracle,
    opts: &IntegrationOptions,
    extra: usize,
    steps: usize,
) -> IntegrationOutcome {
    use imprecise::integrate::RefineOptions;
    let mut outcome = integrate_xml(
        &scenario.mpeg7,
        &scenario.imdb,
        oracle,
        Some(&scenario.schema),
        opts,
    )
    .expect("integrates");
    let refine = RefineOptions {
        extra_matchings: extra,
        min_retained_mass: None,
        max_components: usize::MAX,
        threads: None,
    };
    for _ in 0..steps {
        if !outcome.is_refinable() {
            break;
        }
        outcome
            .refine(oracle, Some(&scenario.schema), &refine)
            .expect("refines");
    }
    outcome
}

/// Measure the staged-vs-one-shot gate workload: one-shot budget 512
/// (the base) vs staged 8 × 64 (measured) on confusable(8), cleanest of
/// five interleaved pairs. Shared by the `integrate_refine` bench gate
/// and the `gate` integration test so CI and local runs assert the same
/// numbers; checked against [`STAGED_GATE_CEILING`].
pub fn measure_staged_vs_one_shot() -> GateMeasurement {
    let oracle = confusion_oracle();
    let c8 = scenarios::confusable(8);
    let options = |budget: usize| IntegrationOptions {
        max_matchings_per_component: budget,
        ..IntegrationOptions::default()
    };
    cleanest_pair(
        5,
        || {
            timed(|| {
                integrate_xml(
                    &c8.mpeg7,
                    &c8.imdb,
                    &oracle,
                    Some(&c8.schema),
                    &options(512),
                )
                .expect("integrates")
            })
        },
        || timed(|| integrate_then_refine(&c8, &oracle, &options(64), 64, 7)),
    )
}

/// Regression ceiling for the durable-vs-in-memory gate: 8 staged
/// refine installments on an engine with a durable store
/// ([`Durability::Always`](imprecise::Durability::Always)) must stay
/// within this factor of the same installments on a store-less engine,
/// on the 4×7 confusable grid at budget 64. With one delta record per
/// installment, and versions that share their arena chunks, the durable
/// path measures 1.10–1.28× (the remainder is the encoding, write and
/// fsync of ~4 MB per step); before the shared arena made the in-memory
/// installments ~30% cheaper it measured 1.13–1.14×, and re-appending
/// the whole document and frontier on every installment measured
/// 2.18–2.35× (2-vCPU container, three runs each), so the ceiling
/// fails a return to O(document) appends. Noise is handled by the
/// paired min-of-ratios protocol of [`cleanest_pair`].
pub const DURABLE_GATE_CEILING: f64 = 1.5;

/// Time `installments` refine installments of `extra` matchings on
/// `engine`, after loading and integrating `scenario` (not timed).
fn timed_installments(
    engine: &Engine,
    scenario: &MovieScenario,
    installments: usize,
    extra: usize,
) -> std::time::Duration {
    use imprecise::integrate::RefineOptions;
    let a = engine
        .load_xml("a", &imprecise::xml::to_string(&scenario.mpeg7))
        .expect("loads");
    let b = engine
        .load_xml("b", &imprecise::xml::to_string(&scenario.imdb))
        .expect("loads");
    let (m, _) = engine.integrate(&a, &b, "m").expect("integrates");
    let refine = RefineOptions {
        extra_matchings: extra,
        ..RefineOptions::default()
    };
    let start = std::time::Instant::now();
    for _ in 0..installments {
        std::hint::black_box(engine.refine(&m, &refine).expect("refines"));
    }
    start.elapsed()
}

/// Measure the durable-vs-in-memory gate workload: 8 installments of 64
/// matchings on `confusable_grid(4, 7)` integrated at budget 64, on a
/// store-less engine and on one with a fresh durable store under
/// [`Durability::Always`](imprecise::Durability::Always) in the system
/// temp directory: the store-less engine is the base, the durable one is
/// measured, cleanest of three interleaved pairs; checked against
/// [`DURABLE_GATE_CEILING`].
pub fn measure_durable_vs_in_memory() -> GateMeasurement {
    let grid = scenarios::confusable_grid(4, 7);
    let builder = || {
        Engine::builder()
            .oracle(confusion_oracle())
            .schema(grid.schema.clone())
            .options(IntegrationOptions {
                max_matchings_per_component: 64,
                ..IntegrationOptions::default()
            })
    };
    let path = std::env::temp_dir().join(format!("durable-gate-{}.seg", std::process::id()));
    cleanest_pair(
        3,
        || timed_installments(&builder().build(), &grid, 8, 64),
        || {
            let _ = std::fs::remove_file(&path);
            let engine = builder().with_store(&path).open().expect("store opens");
            let durable = timed_installments(&engine, &grid, 8, 64);
            drop(engine);
            let _ = std::fs::remove_file(&path);
            durable
        },
    )
}

/// The default movie oracle (title + year + genre rules), whose blocking
/// plan carries both a year equality join and a title-similarity bound —
/// the configuration the candidate-generation benches and gate measure.
pub fn blocking_oracle() -> Oracle {
    movie_oracle(MovieOracleConfig::default())
}

/// A candidate-generation workload: one `large_source(n)` scenario
/// converted to probabilistic documents with the `movie` element rows
/// collected per side, so the generation stage can be driven in
/// isolation from the rest of the pipeline.
#[derive(Debug)]
pub struct CandidateWorkload {
    /// Probabilistic form of the MPEG-7 side.
    pub a: PxDoc,
    /// Probabilistic form of the IMDB side.
    pub b: PxDoc,
    /// `movie` elements of `a` in document order.
    pub ga: Vec<PxNodeId>,
    /// `movie` elements of `b` in document order.
    pub gb: Vec<PxNodeId>,
}

fn movie_elems(doc: &PxDoc) -> Vec<PxNodeId> {
    let mut out = Vec::new();
    let mut stack = vec![doc.root()];
    while let Some(n) = stack.pop() {
        if doc.tag(n) == Some("movie") {
            out.push(n);
            continue;
        }
        for &c in doc.children(n).iter().rev() {
            stack.push(c);
        }
    }
    out
}

/// Build the `large_source(n)` candidate workload (n movies per side).
pub fn candidate_workload(n: usize) -> CandidateWorkload {
    let s = scenarios::large_source(n);
    let a = from_xml(&s.mpeg7);
    let b = from_xml(&s.imdb);
    let ga = movie_elems(&a);
    let gb = movie_elems(&b);
    CandidateWorkload { a, b, ga, gb }
}

/// What one candidate-generation strategy did on a workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CandidateGeneration {
    /// Pairs put to the Oracle (scored).
    pub scored: usize,
    /// Scored pairs the Oracle did not reject (the candidates).
    pub survivors: usize,
    /// Pairs dismissed by the blocking prefilter without scoring.
    pub pruned: usize,
    /// Pairs never examined at all (heuristic windowing only).
    pub windowed_out: usize,
}

/// Baseline: every cross pair scored with one Oracle call at a time.
pub fn generate_pairwise(w: &CandidateWorkload, oracle: &Oracle) -> CandidateGeneration {
    let mut gen = CandidateGeneration::default();
    for &an in &w.ga {
        let a_ref = ElemRef {
            doc: &w.a,
            node: an,
        };
        for &bn in &w.gb {
            let j = oracle.judge(
                &a_ref,
                &ElemRef {
                    doc: &w.b,
                    node: bn,
                },
            );
            gen.scored += 1;
            if !matches!(j.decision, Decision::NonMatch) {
                gen.survivors += 1;
            }
        }
    }
    gen
}

/// Every cross pair scored, but row-at-a-time through
/// [`Oracle::judge_row`] so rules amortise their left-hand
/// preprocessing and the SIMD kernels see batches.
pub fn generate_batched(w: &CandidateWorkload, oracle: &Oracle) -> CandidateGeneration {
    let mut gen = CandidateGeneration::default();
    let b_refs: Vec<ElemRef<'_>> =
        w.gb.iter()
            .map(|&bn| ElemRef {
                doc: &w.b,
                node: bn,
            })
            .collect();
    for &an in &w.ga {
        let a_ref = ElemRef {
            doc: &w.a,
            node: an,
        };
        let judged = oracle.judge_row(&a_ref, &b_refs);
        gen.scored += judged.len();
        gen.survivors += judged
            .iter()
            .filter(|j| !matches!(j.decision, Decision::NonMatch))
            .count();
    }
    gen
}

/// Blocked generation: [`block_candidates`] first, then only the
/// surviving pairs are scored (batched, row at a time).
pub fn generate_blocked(
    w: &CandidateWorkload,
    oracle: &Oracle,
    mode: BlockingMode,
) -> CandidateGeneration {
    let blocked = block_candidates(&w.a, &w.ga, &w.b, &w.gb, oracle, "movie", mode);
    let mut gen = CandidateGeneration {
        pruned: blocked.pruned,
        windowed_out: blocked.windowed_out,
        ..CandidateGeneration::default()
    };
    let pairs = &blocked.pairs;
    let mut i = 0;
    while i < pairs.len() {
        let ai = pairs[i].0;
        let mut j = i;
        while j < pairs.len() && pairs[j].0 == ai {
            j += 1;
        }
        let a_ref = ElemRef {
            doc: &w.a,
            node: w.ga[ai],
        };
        let b_refs: Vec<ElemRef<'_>> = pairs[i..j]
            .iter()
            .map(|&(_, bi)| ElemRef {
                doc: &w.b,
                node: w.gb[bi],
            })
            .collect();
        let judged = oracle.judge_row(&a_ref, &b_refs);
        gen.scored += judged.len();
        gen.survivors += judged
            .iter()
            .filter(|jd| !matches!(jd.decision, Decision::NonMatch))
            .count();
        i = j;
    }
    gen
}

/// Scaling ceiling for recall-safe blocked candidate generation:
/// t(n=10 000) as a multiple of t(n=1 000) on `large_source`. A
/// quadratic generator grows 100× across that decade; the hash-join
/// blocker leaves a year-bucketed residual (~n²/120 cheap prefilter
/// probes) plus a near-linear scored set, which measures well under
/// half the quadratic growth. As with the staged gate, noise is
/// handled by the paired min-of-ratios protocol in
/// [`measure_candidate_scaling`], not by slack in the ceiling.
pub const CANDIDATE_GATE_CEILING: f64 = 50.0;

/// Fraction of the 10k² cross product the blocked generator may score.
pub const CANDIDATE_COVERAGE_CEILING: f64 = 0.10;

/// Paired wall-clock comparison of blocked candidate generation at
/// n=1 000 vs n=10 000 (see [`measure_candidate_scaling`]).
#[derive(Debug, Clone, Copy)]
pub struct CandidateGateMeasurement {
    /// Blocked generation time at n=1 000 of the cleanest pair.
    pub small: std::time::Duration,
    /// Blocked generation time at n=10 000 of the same pair.
    pub large: std::time::Duration,
    /// Pairs the n=10 000 run scored (out of 10 000² cross pairs).
    pub large_scored: usize,
}

impl CandidateGateMeasurement {
    /// Large-workload cost as a multiple of the small-workload cost.
    pub fn ratio(&self) -> f64 {
        self.large.as_secs_f64() / self.small.as_secs_f64().max(1e-9)
    }

    /// Whether the growth is within [`CANDIDATE_GATE_CEILING`].
    pub fn holds(&self) -> bool {
        self.ratio() <= CANDIDATE_GATE_CEILING
    }

    /// Fraction of the n=10 000 cross product that was scored.
    pub fn coverage(&self) -> f64 {
        self.large_scored as f64 / (10_000.0 * 10_000.0)
    }

    /// Whether blocking kept scoring under [`CANDIDATE_COVERAGE_CEILING`].
    pub fn coverage_holds(&self) -> bool {
        self.coverage() < CANDIDATE_COVERAGE_CEILING
    }
}

/// Measure the candidate-generation scaling gate: recall-safe blocked
/// generation on `large_source(1_000)` vs `large_source(10_000)`.
///
/// The two sizes are timed as *interleaved pairs* and the pair with the
/// smallest large/small ratio wins, for the same reason as
/// [`measure_staged_vs_one_shot`]: a load spike inflates both halves of
/// the pair it lands in, so the cleanest pair rejects the noise that
/// independent best-of-N runs would keep.
pub fn measure_candidate_scaling() -> CandidateGateMeasurement {
    let oracle = blocking_oracle();
    let small_w = candidate_workload(1_000);
    let large_w = candidate_workload(10_000);
    let mut best: Option<CandidateGateMeasurement> = None;
    for _ in 0..3 {
        let start = std::time::Instant::now();
        std::hint::black_box(generate_blocked(
            &small_w,
            &oracle,
            BlockingMode::RecallSafe,
        ));
        let small = start.elapsed();
        let start = std::time::Instant::now();
        let gen = std::hint::black_box(generate_blocked(
            &large_w,
            &oracle,
            BlockingMode::RecallSafe,
        ));
        let large = start.elapsed();
        let pair = CandidateGateMeasurement {
            small,
            large,
            large_scored: gen.scored,
        };
        if best.is_none_or(|b| pair.ratio() < b.ratio()) {
            best = Some(pair);
        }
    }
    best.expect("at least one measurement pair")
}

/// The `ingest-catalog` document: `large_source(n)` integrated the way
/// the end-to-end benchmark integrates it (default movie oracle,
/// recall-safe blocking, a budget of 64, serial). At n = 10 000 it has
/// 317 754 nodes.
pub fn catalog_query_db(n: usize) -> PxDoc {
    use imprecise::integrate::Parallelism;
    let scenario = scenarios::large_source(n);
    integrate_xml(
        &scenario.mpeg7,
        &scenario.imdb,
        &movie_oracle(MovieOracleConfig::default()),
        Some(&scenario.schema),
        &IntegrationOptions {
            max_matchings_per_component: 64,
            blocking: BlockingMode::RecallSafe,
            parallelism: Parallelism::SERIAL,
            ..IntegrationOptions::default()
        },
    )
    .expect("catalog integrates")
    .doc
}

/// The selective catalog query of the scaling gate: 168 answers on
/// `catalog_query_db(10_000)`.
pub const CATALOG_SELECTIVE_QUERY: &str = "//movie[year=\"1955\"]/title";

/// The catalog query that answers with every title, the gate's base.
pub const CATALOG_FULL_QUERY: &str = "//movie/title";

/// Ceiling of the catalog query gate: with a warm [`DocIndex`], the
/// selective query must cost at most this fraction of the full one. A
/// value predicate evaluated on every `movie` (the tree walk's way)
/// costs 0.7–0.9 of it; an index-driven one follows its answer count.
///
/// [`DocIndex`]: imprecise::query::DocIndex
pub const CATALOG_QUERY_GATE_CEILING: f64 = 0.1;

/// Measure the catalog query gate on `doc` with its index warm (built
/// before the first timed run): [`CATALOG_SELECTIVE_QUERY`] (measured)
/// against [`CATALOG_FULL_QUERY`] (base), both at threshold 0, cleanest
/// of five interleaved pairs (see [`cleanest_pair`]).
pub fn measure_catalog_query_ratio(doc: &PxDoc) -> GateMeasurement {
    use imprecise::query::{DocIndex, QueryPlan};
    let full = QueryPlan::parse(CATALOG_FULL_QUERY).expect("gate query parses");
    let selective = QueryPlan::parse(CATALOG_SELECTIVE_QUERY).expect("gate query parses");
    DocIndex::of(doc);
    cleanest_pair(
        5,
        || timed(|| full.collect(doc).expect("evaluates")),
        || timed(|| selective.collect(doc).expect("evaluates")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confusable_is_one_full_component_under_the_confusion_oracle() {
        // The budgeted-pipeline bench relies on this shape: all n² cross
        // pairs undecided, one component, graded probabilities.
        let scenario = scenarios::confusable(5);
        let result = integrate_scenario(
            &scenario,
            &confusion_oracle(),
            &IntegrationOptions::default(),
        );
        // All 25 movie cross pairs stay undecided (further undecided
        // pairs arise below movie level, e.g. director credits).
        assert_eq!(result.stats.undecided_by_tag.get("movie"), Some(&25));
        // 5×5 complete bipartite graph: 1546 matchings in one component.
        assert_eq!(result.stats.max_component_matchings, 1546);
        assert!(result.stats.is_exact(), "default budget is ample at n=5");
    }

    #[test]
    fn confusable_8_dies_strictly_but_completes_under_budget() {
        // The acceptance scenario of the budgeted pipeline: 1 441 729
        // matchings exceed the default cap in strict mode…
        let scenario = scenarios::confusable(8);
        let strict = integrate_xml(
            &scenario.mpeg7,
            &scenario.imdb,
            &confusion_oracle(),
            Some(&scenario.schema),
            &IntegrationOptions {
                strict_matchings: true,
                ..IntegrationOptions::default()
            },
        );
        assert!(matches!(
            strict,
            Err(imprecise::integrate::IntegrateError::TooManyMatchings { .. })
        ));
        // …while the budgeted pipeline completes and accounts the tail.
        let budgeted = integrate_scenario(
            &scenario,
            &confusion_oracle(),
            &IntegrationOptions {
                max_matchings_per_component: 64,
                ..IntegrationOptions::default()
            },
        );
        let t = &budgeted.stats.truncated_components[0];
        assert_eq!(t.live_pairs, 64);
        assert_eq!(t.kept, 64);
        assert!(t.discarded_mass > 0.0 && t.discarded_mass < 1.0);
    }

    #[test]
    fn staged_refinement_equals_the_one_shot_budget() {
        use imprecise::integrate::RefineOptions;
        // The integrate_refine bench's premise: spending a budget of 128
        // as 64 + one 64-matching refinement keeps exactly the same
        // matchings — and builds the bit-identical document — as
        // spending 128 at once.
        let scenario = scenarios::confusable(5);
        let oracle = confusion_oracle();
        let one_shot = integrate_scenario(
            &scenario,
            &oracle,
            &IntegrationOptions {
                max_matchings_per_component: 128,
                ..IntegrationOptions::default()
            },
        );
        let mut staged = integrate_scenario(
            &scenario,
            &oracle,
            &IntegrationOptions {
                max_matchings_per_component: 64,
                ..IntegrationOptions::default()
            },
        );
        staged
            .refine(
                &oracle,
                Some(&scenario.schema),
                &RefineOptions {
                    extra_matchings: 64,
                    min_retained_mass: None,
                    max_components: usize::MAX,
                    threads: None,
                },
            )
            .expect("refines");
        assert_eq!(one_shot.doc.fingerprint(), staged.doc.fingerprint());
        assert_eq!(
            one_shot.stats.max_discarded_mass.to_bits(),
            staged.stats.max_discarded_mass.to_bits(),
            "exact mass accounting must agree between the two paths"
        );
    }

    #[test]
    fn fig5_small_sweep_is_monotone() {
        let rows = run_fig5(&[0, 3, 6]);
        assert_eq!(rows.len(), 6);
        // Within a series, unfactored size grows with n.
        for series in ["Only movie title rule", "Movie title+year rule"] {
            let sizes: Vec<f64> = rows
                .iter()
                .filter(|(s, _, _)| s == series)
                .map(|(_, _, m)| m.unfactored_nodes)
                .collect();
            assert!(
                sizes.windows(2).all(|w| w[0] <= w[1]),
                "{series}: {sizes:?}"
            );
        }
    }

    #[test]
    fn addressbook_query_db_is_uncertain_but_enumerable() {
        let db = addressbook_query_db();
        let worlds = db.world_count_f64();
        assert!(worlds > 1.0, "conflicts must create uncertainty");
        assert!(
            worlds <= 1_000_000.0,
            "the naive bench baseline needs enumerable worlds, got {worlds}"
        );
        // The bench queries find answers on it.
        let q = imprecise::query::parse_query("//person/tel").unwrap();
        let answers = imprecise::query::eval_px(&db, &q).unwrap();
        assert!(!answers.is_empty());
    }

    #[test]
    fn typical_has_two_undecided_pairs() {
        let t = run_typical();
        assert_eq!(t.undecided, 2, "{:?}", t.measurement);
        assert_eq!(t.measurement.worlds, 4.0);
    }

    #[test]
    fn answer_quality_sweep_shapes() {
        let rows = run_answer_quality(&[0.0, 0.2, 1.1]);
        assert_eq!(rows.len(), 3);
        // Pruning only shrinks the representation.
        assert!(rows.windows(2).all(|w| w[0].nodes >= w[1].nodes));
        assert!(rows.windows(2).all(|w| w[0].worlds >= w[1].worlds));
        // ε beyond every probability yields the certain MAP-shaped db.
        assert_eq!(rows[2].worlds, 1.0);
        // Unpruned quality matches the direct query experiment.
        let q = run_queries();
        assert!((rows[0].horror.f_measure - q.horror_quality.f_measure).abs() < 1e-12);
        assert!((rows[0].john.f_measure - q.john_quality.f_measure).abs() < 1e-12);
        // The §V warning's signature: somewhere in the sweep a valid
        // possibility is eliminated while noise survives — quality is not
        // monotone in ε (the ε=0.2 John precision dips below ε=0).
        assert!(rows[1].john.precision < rows[0].john.precision);
    }

    #[test]
    fn queries_reproduce_paper_shape() {
        let q = run_queries();
        // Horror: exactly the two Jaws movies, high and (nearly) equal.
        assert_eq!(q.horror.len(), 2);
        assert!(q.horror.probability_of("Jaws") > 0.9);
        assert!(q.horror.probability_of("Jaws 2") > 0.9);
        assert_eq!(q.horror_quality.precision, 1.0);
        // John: Die Hard certain, MI2 high, MI low but present.
        assert!((q.john.probability_of("Die Hard: With a Vengeance") - 1.0).abs() < 1e-9);
        assert!(q.john.probability_of("Mission: Impossible II") > 0.7);
        let mi = q.john.probability_of("Mission: Impossible");
        assert!(mi > 0.0 && mi < 0.5, "MI at {mi}");
    }
}
