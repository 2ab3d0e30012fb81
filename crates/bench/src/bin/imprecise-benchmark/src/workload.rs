//! The three workloads: inputs made from the seed, the set-up that
//! computes reference answers, and the untraced closed loop (one client,
//! one warm-up iteration that is checked but not timed).

use crate::report::{peak_rss_mb, Checker, Metric, Report};
use crate::stats::{median, percentile};
use imprecise::datagen::scenarios;
use imprecise::integrate::{
    BlockingMode, IntegrationOptions, IntegrationStats, Parallelism, RefineOptions, RefineStep,
};
use imprecise::oracle::presets::{movie_oracle, MovieOracleConfig};
use imprecise::oracle::Oracle;
use imprecise::query::RankedAnswers;
use imprecise::xml::{to_string, Schema};
use imprecise::{DocHandle, DocSnapshot, Engine, EngineBuilder, PreparedQuery};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    IngestCatalog,
    RefineDurable,
    QueryUncertain,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::IngestCatalog,
        Workload::RefineDurable,
        Workload::QueryUncertain,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestCatalog => "ingest-catalog",
            Workload::RefineDurable => "refine-durable",
            Workload::QueryUncertain => "query-uncertain",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn durable(self) -> bool {
        self == Workload::RefineDurable
    }

    pub fn refines(self) -> bool {
        self == Workload::RefineDurable
    }

    pub fn queries(self) -> bool {
        matches!(self, Workload::IngestCatalog | Workload::QueryUncertain)
    }
}

/// Input sizes and repetition counts. The benchmark always runs
/// [`FULL`]; the tests run [`TINY`].
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Movies per source of ingest-catalog's `large_source`.
    pub catalog: usize,
    /// `confusable_grid(groups, n)` of the two other workloads.
    pub grid: (usize, usize),
    /// Matching budget of refine-durable's integration.
    pub refine_budget: usize,
    /// Matching budget of query-uncertain's integration.
    pub query_budget: usize,
    /// Refine installments per iteration.
    pub installments: usize,
    /// Extra matchings each installment spends per component.
    pub extra_matchings: usize,
    /// Measured iterations a run makes at least, whatever `--seconds`
    /// says: 13 iterations of 8 operations give the 100 samples a
    /// 90th percentile needs to have ten beyond it.
    pub min_iterations: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// (untraced, traced) iteration pairs a traced run makes at least.
    pub traced_pairs: usize,
}

pub const FULL: Scale = Scale {
    catalog: 10_000,
    grid: (4, 7),
    refine_budget: 64,
    // At budget 64 one round of queries on the grid takes ~7 s, which
    // no run budget fits; at 32 a round takes ~0.8 s and the cost is
    // still dominated by event-probability expansion.
    query_budget: 32,
    installments: 8,
    extra_matchings: 64,
    min_iterations: 13,
    setup_reps: 3,
    traced_pairs: 2,
};

#[cfg(test)]
pub const TINY: Scale = Scale {
    catalog: 200,
    grid: (2, 4),
    refine_budget: 8,
    query_budget: 8,
    installments: 2,
    extra_matchings: 8,
    min_iterations: 1,
    setup_reps: 1,
    traced_pairs: 1,
};

/// The four query shapes every querying workload runs, each at
/// thresholds 0 and 0.5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Genre,
    Director,
    Year,
    Title,
}

impl Shape {
    pub const ALL: [Shape; 4] = [Shape::Genre, Shape::Director, Shape::Year, Shape::Title];

    pub fn name(self) -> &'static str {
        match self {
            Shape::Genre => "genre",
            Shape::Director => "director",
            Shape::Year => "year",
            Shape::Title => "title",
        }
    }

    fn text(self, literal: &str) -> String {
        match self {
            Shape::Genre => format!("//movie[.//genre=\"{literal}\"]/title"),
            Shape::Director => format!(
                "//movie[some $d in .//director satisfies contains($d,\"{literal}\")]/title"
            ),
            Shape::Year => format!("//movie[year=\"{literal}\"]/title"),
            Shape::Title => "//movie/title".to_string(),
        }
    }
}

const THRESHOLDS: [f64; 2] = [0.0, 0.5];

/// Literal pools per shape, in [`Shape::ALL`] order. The members of a
/// pool cost about the same on the workload's document, so the seed
/// changes which literals run without changing the timing distribution
/// (on the grid, "Horror" costs 7 ms where "Action" costs 90 ms).
fn pools(w: Workload) -> [&'static [&'static str]; 4] {
    match w {
        Workload::IngestCatalog => [
            &["action", "thriller"],
            &["Harlin", "Palma"],
            &["1920", "1955"],
            &[""],
        ],
        _ => [
            &["Action", "action"],
            &["Woo", "John"],
            &["1900", "1910", "1920", "1930"],
            &[""],
        ],
    }
}

/// splitmix64: the seed's only consumer, so inputs repeat per seed.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One query of a round.
#[derive(Debug, Clone, Copy)]
pub struct QuerySpec {
    pub shape: Shape,
    pub literal: usize,
    pub threshold: f64,
}

/// The seeded query mix: every round runs each shape at both
/// thresholds. Round `r` takes literal `offset + r` of each pool, so a
/// run cycles through the pools evenly, and the seed shuffles the order
/// of the eight queries within each round.
pub struct QueryMix {
    seed: u64,
    offsets: [usize; 4],
    /// Query texts per shape, one per pool literal.
    pub texts: [Vec<String>; 4],
    /// The same queries parsed and compiled once.
    pub prepared: [Vec<PreparedQuery>; 4],
}

impl QueryMix {
    fn new(w: Workload, seed: u64) -> Result<QueryMix, String> {
        let mut offsets = [0; 4];
        let mut texts: [Vec<String>; 4] = Default::default();
        let mut prepared: [Vec<PreparedQuery>; 4] = Default::default();
        for ((i, shape), pool) in Shape::ALL.into_iter().enumerate().zip(pools(w)) {
            offsets[i] = (mix64(seed ^ ((i as u64 + 1) << 32)) % pool.len() as u64) as usize;
            for literal in pool {
                let text = shape.text(literal);
                prepared[i].push(PreparedQuery::parse(&text).map_err(|e| format!("{text}: {e}"))?);
                texts[i].push(text);
            }
        }
        Ok(QueryMix {
            seed,
            offsets,
            texts,
            prepared,
        })
    }

    pub fn round(&self, r: usize) -> Vec<QuerySpec> {
        let mut specs = Vec::with_capacity(8);
        for (i, shape) in Shape::ALL.into_iter().enumerate() {
            let literal = (self.offsets[i] + r) % self.texts[i].len();
            for threshold in THRESHOLDS {
                specs.push(QuerySpec {
                    shape,
                    literal,
                    threshold,
                });
            }
        }
        let mut state = mix64(self.seed ^ (r as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        for i in (1..specs.len()).rev() {
            state = mix64(state);
            specs.swap(i, (state % (i as u64 + 1)) as usize);
        }
        specs
    }

    pub fn text(&self, q: &QuerySpec) -> &str {
        &self.texts[q.shape as usize][q.literal]
    }

    pub fn prepared(&self, q: &QuerySpec) -> &PreparedQuery {
        &self.prepared[q.shape as usize][q.literal]
    }
}

/// Everything an iteration needs, made from the seed and the scale.
pub struct Inputs {
    pub workload: Workload,
    pub scale: Scale,
    pub a_xml: String,
    pub b_xml: String,
    pub schema: Schema,
    pub oracle: Arc<Oracle>,
    pub options: IntegrationOptions,
    pub refine: RefineOptions,
    pub mix: QueryMix,
}

impl Inputs {
    pub fn builder(&self) -> EngineBuilder {
        Engine::builder()
            .oracle_shared(Arc::clone(&self.oracle))
            .schema(self.schema.clone())
            .options(self.options)
    }

    pub fn input_bytes(&self) -> usize {
        self.a_xml.len() + self.b_xml.len()
    }
}

/// What a correct run must reproduce, computed once per set-up on a
/// store-less engine.
pub struct Reference {
    pub fingerprint: u64,
    pub stats: IntegrationStats,
    /// Per installment: the step report and the document fingerprint.
    pub steps: Vec<(RefineStep, u64)>,
    /// Query text → its threshold-0 answers.
    pub answers: BTreeMap<String, RankedAnswers>,
}

pub struct Setup {
    pub inputs: Inputs,
    pub reference: Reference,
    /// Wall time of each set-up.
    pub seconds: Vec<f64>,
    /// query-uncertain's engine and document, integrated during set-up.
    pub resident: Option<(Engine, DocHandle)>,
}

pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

pub fn ingest(engine: &Engine, inputs: &Inputs) -> Result<(DocHandle, IntegrationStats), String> {
    let a = engine.load_xml("a", &inputs.a_xml).map_err(err)?;
    let b = engine.load_xml("b", &inputs.b_xml).map_err(err)?;
    engine.integrate(&a, &b, "m").map_err(err)
}

/// Datagen, serialisation, engine build and reference answers, repeated
/// `scale.setup_reps` times; the last repetition's products are kept.
pub fn setup(w: Workload, seed: u64, scale: Scale) -> Result<Setup, String> {
    let mut seconds = Vec::new();
    let mut kept = None;
    for _ in 0..scale.setup_reps.max(1) {
        let start = Instant::now();
        let once = set_up_once(w, seed, scale)?;
        seconds.push(start.elapsed().as_secs_f64());
        // Drop the previous repetition outside the timed region.
        kept = Some(once);
    }
    let (inputs, reference, resident) = kept.ok_or("no set-up ran")?;
    Ok(Setup {
        inputs,
        reference,
        seconds,
        resident,
    })
}

type SetUp = (Inputs, Reference, Option<(Engine, DocHandle)>);

fn set_up_once(w: Workload, seed: u64, scale: Scale) -> Result<SetUp, String> {
    let (scenario, oracle, budget, blocking) = match w {
        Workload::IngestCatalog => (
            scenarios::large_source(scale.catalog),
            movie_oracle(MovieOracleConfig::default()),
            64,
            BlockingMode::RecallSafe,
        ),
        _ => (
            scenarios::confusable_grid(scale.grid.0, scale.grid.1),
            // Title rule off: every pair inside a grid block stays
            // undecided, graded by title similarity.
            movie_oracle(MovieOracleConfig {
                title_rule: false,
                ..MovieOracleConfig::default()
            }),
            if w == Workload::QueryUncertain {
                scale.query_budget
            } else {
                scale.refine_budget
            },
            BlockingMode::Off,
        ),
    };
    let inputs = Inputs {
        workload: w,
        scale,
        a_xml: to_string(&scenario.mpeg7),
        b_xml: to_string(&scenario.imdb),
        schema: scenario.schema,
        oracle: Arc::new(oracle),
        options: IntegrationOptions {
            max_matchings_per_component: budget,
            blocking,
            parallelism: Parallelism::SERIAL,
            ..IntegrationOptions::default()
        },
        refine: RefineOptions {
            extra_matchings: scale.extra_matchings,
            min_retained_mass: None,
            max_components: usize::MAX,
            threads: Some(Parallelism::SERIAL),
        },
        mix: QueryMix::new(w, seed)?,
    };
    let engine = inputs.builder().build();
    let (m, stats) = ingest(&engine, &inputs)?;
    let snapshot = engine.snapshot(&m).map_err(err)?;
    let fingerprint = snapshot.fingerprint();
    let mut answers = BTreeMap::new();
    if w.queries() {
        for (texts, prepared) in inputs.mix.texts.iter().zip(&inputs.mix.prepared) {
            for (text, query) in texts.iter().zip(prepared) {
                let ranked = query
                    .stream(&snapshot, Some(0.0))
                    .map_err(err)?
                    .into_ranked();
                answers.insert(text.clone(), ranked);
            }
        }
    }
    let mut steps = Vec::new();
    if w.refines() {
        for _ in 0..scale.installments {
            let step = engine.refine(&m, &inputs.refine).map_err(err)?;
            steps.push((step, engine.snapshot(&m).map_err(err)?.fingerprint()));
        }
    }
    let reference = Reference {
        fingerprint,
        stats,
        steps,
        answers,
    };
    let resident = (w == Workload::QueryUncertain).then_some((engine, m));
    Ok((inputs, reference, resident))
}

pub fn check_ingest(
    fingerprint: u64,
    stats: &IntegrationStats,
    r: &Reference,
) -> Result<(), String> {
    if fingerprint != r.fingerprint {
        return Err(format!(
            "integrated fingerprint {fingerprint:#x} != reference {:#x}",
            r.fingerprint
        ));
    }
    if *stats != r.stats {
        return Err("integration statistics differ from the reference".into());
    }
    Ok(())
}

pub fn check_step(
    k: usize,
    step: &RefineStep,
    fingerprint: u64,
    r: &Reference,
) -> Result<(), String> {
    let Some((want, want_fp)) = r.steps.get(k) else {
        return Err(format!("installment {k} has no reference"));
    };
    if step != want {
        return Err(format!("installment {k} report differs from the reference"));
    }
    if fingerprint != *want_fp {
        return Err(format!(
            "installment {k} fingerprint differs from the reference"
        ));
    }
    Ok(())
}

/// Threshold-`t` answers must be the reference threshold-0 answers with
/// probability at least `t`, in the same order and with the same bits.
pub fn check_answers(
    got: &RankedAnswers,
    text: &str,
    threshold: f64,
    r: &Reference,
) -> Result<(), String> {
    let Some(reference) = r.answers.get(text) else {
        return Err(format!("{text}: no reference answers"));
    };
    let want = reference
        .items
        .iter()
        .filter(|a| a.probability >= threshold);
    let same =
        got.items.len() == want.clone().count()
            && got.items.iter().zip(want).all(|(g, w)| {
                g.value == w.value && g.probability.to_bits() == w.probability.to_bits()
            });
    if same {
        Ok(())
    } else {
        Err(format!(
            "{text} at {threshold}: answers differ from the reference"
        ))
    }
}

/// Run, time and check one round of queries against `snapshot`.
/// Returns each query's latency in seconds and, per shape, the answer
/// count at threshold 0.
fn query_round(
    inputs: &Inputs,
    reference: &Reference,
    snapshot: &DocSnapshot,
    round: usize,
    ck: &mut Checker,
) -> (Vec<f64>, [usize; 4]) {
    let mut latencies = Vec::with_capacity(8);
    let mut answers = [0; 4];
    for q in inputs.mix.round(round) {
        let start = Instant::now();
        let result = inputs
            .mix
            .prepared(&q)
            .stream(snapshot, Some(q.threshold))
            .map(|stream| stream.into_ranked());
        latencies.push(start.elapsed().as_secs_f64());
        ck.op(result.map_err(err).and_then(|ranked| {
            if q.threshold == 0.0 {
                answers[q.shape as usize] = ranked.items.len();
            }
            check_answers(&ranked, inputs.mix.text(&q), q.threshold, reference)
        }));
    }
    (latencies, answers)
}

/// One measured iteration.
#[derive(Debug, Default)]
pub struct Iteration {
    pub ingest_s: Option<f64>,
    /// Latencies of the workload's repeated operation (queries or
    /// refine installments), seconds.
    pub ops: Vec<f64>,
    pub reopen_s: Option<f64>,
    /// Exact figures of the iteration, for the record.
    pub counters: Vec<Metric>,
    pub final_fingerprint: Option<u64>,
}

impl Iteration {
    /// The iteration's user-visible time: every timed operation.
    pub fn total(&self) -> f64 {
        self.ingest_s.unwrap_or(0.0) + self.ops.iter().sum::<f64>() + self.reopen_s.unwrap_or(0.0)
    }
}

fn ingest_counters(stats: &IntegrationStats) -> Vec<Metric> {
    vec![
        Metric::new("oracle.pairs_judged", stats.pairs_judged as f64, "count"),
        Metric::new("integrate.pairs_pruned", stats.pairs_pruned as f64, "count"),
        Metric::new(
            "integrate.matchings_enumerated",
            stats.matchings_enumerated as f64,
            "count",
        ),
    ]
}

pub fn step_counters(steps: &[RefineStep]) -> Vec<Metric> {
    let sum = |f: fn(&RefineStep) -> u64| steps.iter().map(f).sum::<u64>() as f64;
    vec![
        Metric::new(
            "integrate.emitted_nodes",
            sum(|s| s.emitted_nodes as u64),
            "count",
        ),
        Metric::new("integrate.search_popped", sum(|s| s.search.popped), "count"),
        Metric::new(
            "integrate.search_expanded",
            sum(|s| s.search.expanded),
            "count",
        ),
        Metric::new(
            "integrate.search_cutoffs",
            sum(|s| s.search.cutoffs),
            "count",
        ),
        Metric::new("integrate.search_rounds", sum(|s| s.search.rounds), "count"),
    ]
}

pub fn answer_counters(answers: &[usize; 4]) -> Vec<Metric> {
    Shape::ALL
        .into_iter()
        .map(|s| {
            Metric::new(
                format!("query.answers.{}", s.name()),
                answers[s as usize] as f64,
                "count",
            )
        })
        .collect()
}

pub fn run_iteration(setup: &Setup, work: &Path, r: usize, ck: &mut Checker) -> Option<Iteration> {
    let (inputs, reference) = (&setup.inputs, &setup.reference);
    let w = inputs.workload;
    let mut it = Iteration::default();
    match w {
        Workload::QueryUncertain => {
            // A checked, store-less ingest of the same sources gives
            // ingest_s one sample per round, spread over the whole run;
            // the queries read the document integrated during set-up.
            let fresh = inputs.builder().build();
            let start = Instant::now();
            let ingested = ingest(&fresh, inputs);
            it.ingest_s = Some(start.elapsed().as_secs_f64());
            ck.op(ingested.and_then(|(m, stats)| {
                let fp = fresh.snapshot(&m).map_err(err)?.fingerprint();
                check_ingest(fp, &stats, reference)
            }));
            drop(fresh);
            let (engine, m) = setup.resident.as_ref()?;
            let snapshot = match engine.snapshot(m) {
                Ok(s) => s,
                Err(e) => {
                    ck.op(Err(err(e)));
                    return None;
                }
            };
            let (ops, answers) = query_round(inputs, reference, &snapshot, r, ck);
            it.ops = ops;
            it.counters = answer_counters(&answers);
            it.counters.push(Metric::new(
                "integrate.max_discarded_mass",
                reference.stats.max_discarded_mass,
                "probability",
            ));
            it.final_fingerprint = Some(snapshot.fingerprint());
        }
        Workload::IngestCatalog | Workload::RefineDurable => {
            let path = work.join(format!("segment-{r}.imps"));
            let engine = if w.durable() {
                match inputs.builder().with_store(&path).open() {
                    Ok(e) => e,
                    Err(e) => {
                        ck.op(Err(err(e)));
                        return None;
                    }
                }
            } else {
                inputs.builder().build()
            };
            let start = Instant::now();
            let ingested = ingest(&engine, inputs);
            it.ingest_s = Some(start.elapsed().as_secs_f64());
            let (m, stats) = match ingested {
                Ok(x) => x,
                Err(e) => {
                    ck.op(Err(e));
                    return None;
                }
            };
            let snapshot = engine.snapshot(&m).ok()?;
            ck.op(check_ingest(snapshot.fingerprint(), &stats, reference));
            it.counters = ingest_counters(&stats);
            if w == Workload::IngestCatalog {
                let (ops, answers) = query_round(inputs, reference, &snapshot, r, ck);
                it.ops = ops;
                it.counters.extend(answer_counters(&answers));
                it.counters.push(Metric::new(
                    "integrate.max_discarded_mass",
                    stats.max_discarded_mass,
                    "probability",
                ));
                it.final_fingerprint = Some(snapshot.fingerprint());
                return Some(it);
            }
            drop(snapshot);
            let mut steps = Vec::new();
            for k in 0..inputs.scale.installments {
                let start = Instant::now();
                let step = engine.refine(&m, &inputs.refine);
                it.ops.push(start.elapsed().as_secs_f64());
                let checked = step.map_err(err).and_then(|step| {
                    let fp = engine.snapshot(&m).map_err(err)?.fingerprint();
                    let verdict = check_step(k, &step, fp, reference);
                    steps.push(step);
                    verdict
                });
                ck.op(checked);
            }
            it.counters.extend(step_counters(&steps));
            let discarded = steps.last().map_or(0.0, |s| s.max_discarded_mass);
            it.counters.push(Metric::new(
                "integrate.max_discarded_mass",
                discarded,
                "probability",
            ));
            let fingerprint = engine.snapshot(&m).ok()?.fingerprint();
            it.final_fingerprint = Some(fingerprint);
            if w.durable() {
                let open_before = engine
                    .refine_state(&m)
                    .ok()?
                    .map_or(0, |s| s.open_components);
                drop(engine);
                let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
                it.counters.push(Metric::new(
                    "store.bytes_per_input_byte",
                    bytes as f64 / inputs.input_bytes() as f64,
                    "ratio",
                ));
                let start = Instant::now();
                let reopened = inputs.builder().with_store(&path).open();
                it.reopen_s = Some(start.elapsed().as_secs_f64());
                ck.op(reopened.map_err(err).and_then(|engine| {
                    let m = engine
                        .handle("m")
                        .ok_or("reopened store lost the document")?;
                    let fp = engine.snapshot(&m).map_err(err)?.fingerprint();
                    let open = engine
                        .refine_state(&m)
                        .map_err(err)?
                        .map_or(0, |s| s.open_components);
                    if (fp, open) == (fingerprint, open_before) {
                        Ok(())
                    } else {
                        Err(format!(
                            "after reopen: fingerprint {fp:#x}, {open} open components; \
                             before: {fingerprint:#x}, {open_before}"
                        ))
                    }
                }));
                // A segment per iteration, removed once checked: the
                // next iteration starts from an empty store again.
                let _ = std::fs::remove_file(&path);
            }
        }
    }
    Some(it)
}

/// The untraced closed loop: one checked warm-up iteration, then
/// measured iterations until `seconds` have passed and at least
/// `scale.min_iterations` ran.
pub fn run(setup: &Setup, work: &Path, seconds: f64) -> Report {
    let inputs = &setup.inputs;
    let w = inputs.workload;
    let mut ck = Checker::default();
    run_iteration(setup, work, 0, &mut ck);
    let mut measured: Vec<Iteration> = Vec::new();
    // Peak memory is read after a fixed amount of work, so it does not
    // depend on how many iterations the time budget allowed.
    let mut peak_rss = None;
    let start = Instant::now();
    while measured.len() < inputs.scale.min_iterations.max(1)
        || start.elapsed().as_secs_f64() < seconds
    {
        match run_iteration(setup, work, measured.len() + 1, &mut ck) {
            Some(it) => measured.push(it),
            // An iteration that could not finish is counted as failed
            // and has no timings; stop rather than spin on it.
            None => break,
        }
        if measured.len() == inputs.scale.min_iterations {
            peak_rss = Some(peak_rss_mb());
        }
    }
    let ingest: Vec<f64> = measured.iter().filter_map(|it| it.ingest_s).collect();
    let mut report = ck.into_report();
    let ops: Vec<f64> = measured
        .iter()
        .flat_map(|it| it.ops.iter().copied())
        .collect();
    let totals: Vec<f64> = measured.iter().map(Iteration::total).collect();
    report.metrics = vec![
        Metric::new("setup_s", median(&setup.seconds), "s"),
        Metric::new("ingest_s", median(&ingest), "s"),
        Metric::new("iteration_s", median(&totals), "s"),
        Metric::new("op_p50_ms", percentile(&ops, 0.5) * 1e3, "ms"),
        Metric::new("op_p90_ms", percentile(&ops, 0.9) * 1e3, "ms"),
        Metric::new("peak_rss_mb", peak_rss.unwrap_or_else(peak_rss_mb), "MB"),
    ];
    report.extras = vec![
        Metric::new("iterations", measured.len() as f64, "count"),
        Metric::new("op_samples", ops.len() as f64, "count"),
        Metric::new("input_bytes", inputs.input_bytes() as f64, "bytes"),
    ];
    if w.refines() {
        let refine: Vec<f64> = measured.iter().map(|it| it.ops.iter().sum()).collect();
        report
            .extras
            .push(Metric::new("refine_total_s", median(&refine), "s"));
    }
    if w.durable() {
        let reopen: Vec<f64> = measured.iter().filter_map(|it| it.reopen_s).collect();
        report
            .extras
            .push(Metric::new("reopen_s", median(&reopen), "s"));
    }
    if let Some(first) = measured.first() {
        report.extras.extend(first.counters.iter().cloned());
        report.final_fingerprint = first.final_fingerprint;
    }
    report
}
