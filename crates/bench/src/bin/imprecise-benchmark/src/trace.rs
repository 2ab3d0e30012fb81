//! The traced run: each workload repeated in decomposed form, with a
//! span around every call the engine would make into a layer's public
//! functions. Spans live in memory and go to the record file at exit.
//!
//! A span marked *probe* re-runs a stage beside the pipeline only to
//! time it (blocking and judging, which `integrate_px_shared` does
//! internally; and, on workloads that do not exercise a layer, that
//! layer on the workload's own document). Probes are left out of stage
//! sums, of the iteration's wall time and of the coverage figure.

use crate::report::{Checker, Metric, Report};
use crate::stats::median;
use crate::workload::{
    check_answers, check_ingest, check_step, err, ingest, run_iteration, Setup, Shape,
};
use imprecise::integrate::{
    block_candidates, integrate_px_shared, IntegrationOptions, IntegrationOutcome, RefineState,
    RefineStep,
};
use imprecise::oracle::ElemRef;
use imprecise::pxml::{parse_annotated, PxDoc, PxNodeId};
use imprecise::query::{parse_query, QueryPlan};
use imprecise::store::{Durability, Store};
use imprecise::xml::parse;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub iteration: usize,
    pub probe: bool,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    iteration: usize,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            iteration: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the current one. It is a probe when `probe` is
    /// set or it sits inside a probe.
    pub fn enter(&mut self, name: impl Into<String>, probe: bool) {
        let parent = self.stack.last().copied();
        let probe = probe || parent.is_some_and(|p| self.spans[p].probe);
        self.stack.push(self.spans.len());
        self.spans.push(Span {
            name: name.into(),
            start_ns: 0,
            end_ns: 0,
            parent,
            iteration: self.iteration,
            probe,
        });
        let now = self.now();
        if let Some(span) = self.spans.last_mut() {
            span.start_ns = now;
        }
    }

    pub fn exit(&mut self) {
        let now = self.now();
        if let Some(i) = self.stack.pop() {
            self.spans[i].end_ns = now;
        }
    }

    /// Close every open span (after an error left some open).
    fn unwind(&mut self) {
        while !self.stack.is_empty() {
            self.exit();
        }
    }

    /// Time `f` as a span with no children.
    pub fn leaf<T>(&mut self, name: impl Into<String>, f: impl FnOnce() -> T) -> T {
        self.enter(name, false);
        let out = f();
        self.exit();
        out
    }

    pub fn probe<T>(&mut self, name: impl Into<String>, f: impl FnOnce() -> T) -> T {
        self.enter(name, true);
        let out = f();
        self.exit();
        out
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_seconds(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::seconds).collect();
    for span in spans {
        if let Some(p) = span.parent {
            own[p] -= span.seconds();
        }
    }
    own
}

/// Run a check as a probe span, so checking never counts as work.
fn check(tr: &mut Tracer, ck: &mut Checker, f: impl FnOnce() -> Result<(), String>) {
    let outcome = tr.probe("bench.check", f);
    ck.op(outcome);
}

fn movies(doc: &PxDoc) -> Vec<PxNodeId> {
    let mut out = Vec::new();
    let mut stack = vec![doc.root()];
    while let Some(n) = stack.pop() {
        if doc.tag(n) == Some("movie") {
            out.push(n);
            continue;
        }
        stack.extend(doc.children(n).iter().rev());
    }
    out
}

/// `Oracle::judge_row` over the surviving pairs, a row at a time as the
/// pipeline batches them. Returns the number of pairs judged.
fn judge(
    oracle: &imprecise::oracle::Oracle,
    (a, ga): (&PxDoc, &[PxNodeId]),
    (b, gb): (&PxDoc, &[PxNodeId]),
    pairs: &[(usize, usize)],
) -> usize {
    let mut judged = 0;
    for row in pairs.chunk_by(|x, y| x.0 == y.0) {
        let a_ref = ElemRef {
            doc: a,
            node: ga[row[0].0],
        };
        let b_refs: Vec<ElemRef<'_>> = row
            .iter()
            .map(|&(_, bi)| ElemRef {
                doc: b,
                node: gb[bi],
            })
            .collect();
        judged += oracle.judge_row(&a_ref, &b_refs).len();
    }
    judged
}

/// The decomposed store of one traced iteration: an `OnClose` segment
/// with an explicit sync after each publish, which is what
/// `Durability::Always` does inside one append.
struct Segment {
    store: Option<Store>,
    path: PathBuf,
    probe: bool,
    /// File size after each publish.
    sizes: Vec<u64>,
}

impl Segment {
    fn persist(
        &mut self,
        tr: &mut Tracer,
        name: &str,
        version: u64,
        doc: &PxDoc,
        state: Option<&RefineState>,
    ) -> Result<(), String> {
        let store = self.store.as_mut().ok_or("segment already closed")?;
        tr.enter("store.publish", self.probe);
        let appended = tr.leaf("store.append", || {
            store.append_publish(name, version, doc, state)
        });
        let synced = tr.leaf("store.sync", || store.sync());
        self.sizes
            .push(std::fs::metadata(&self.path).map_or(0, |m| m.len()));
        tr.exit();
        appended.and(synced).map_err(|e| e.to_string())
    }
}

/// One decomposed iteration. Returns the exact counters it saw.
fn traced_iteration(
    tr: &mut Tracer,
    setup: &Setup,
    work: &Path,
    r: usize,
    ck: &mut Checker,
) -> Result<Vec<Metric>, String> {
    let (inputs, reference) = (&setup.inputs, &setup.reference);
    let w = inputs.workload;
    let (oracle, schema) = (&*inputs.oracle, Some(&inputs.schema));
    let engine = inputs.builder().build();
    let path = work.join(format!("traced-{r}.imps"));
    let _ = std::fs::remove_file(&path);
    let mut seg = Segment {
        store: Some(Store::open(&path, Durability::OnClose).map_err(err)?),
        path,
        probe: !w.durable(),
        sizes: Vec::new(),
    };
    let mut counters = Vec::new();
    tr.iteration = r;
    tr.enter("iteration", false);

    let mut body = || -> Result<(), String> {
        // Engine::load_xml, decomposed.
        tr.enter("core.load_xml", false);
        let mut sources = Vec::new();
        for (name, text) in [("a", &inputs.a_xml), ("b", &inputs.b_xml)] {
            let xml = tr.leaf("xmlkit.parse", || parse(text)).map_err(err)?;
            let px = tr
                .leaf("pxml.convert", || parse_annotated(&xml))
                .map_err(err)?;
            let px = Arc::new(px);
            seg.persist(tr, name, 1, &px, None)?;
            tr.leaf("core.publish", || engine.insert_arc(name, Arc::clone(&px)))
                .map_err(err)?;
            sources.push(px);
        }
        tr.exit();

        // Engine::integrate, decomposed.
        let (pa, pb) = (&sources[0], &sources[1]);
        tr.enter("core.integrate", false);
        let (ga, gb) = (movies(pa), movies(pb));
        let blocked = tr.probe("integrate.blocking", || {
            block_candidates(pa, &ga, pb, &gb, oracle, "movie", inputs.options.blocking)
        });
        let judged = tr.probe("oracle.judge", || {
            judge(oracle, (pa, &ga), (pb, &gb), &blocked.pairs)
        });
        let unsimplified = IntegrationOptions {
            simplify: false,
            ..inputs.options
        };
        let mut outcome = tr
            .leaf("integrate.integrate", || {
                integrate_px_shared(pa, pb, oracle, schema, &unsimplified)
            })
            .map_err(err)?;
        if outcome.is_refinable() {
            // Simplification waits until the last frontier drains, so
            // it is only timed here, on a copy.
            tr.enter("probe.simplify", true);
            let mut copy = outcome.doc.clone();
            tr.leaf("pxml.simplify", || copy.simplify());
            tr.exit();
        } else {
            tr.leaf("pxml.simplify", || outcome.doc.simplify());
            // Every component is exact: a refine step finds nothing to
            // do. Time what that costs in each layer.
            tr.enter("probe.refine", true);
            tr.leaf("pxml.clone", || outcome.doc.clone());
            tr.leaf("integrate.refine", || {
                outcome.refine(oracle, schema, &inputs.refine)
            })
            .map_err(err)?;
            tr.exit();
        }
        check(tr, ck, || {
            check_ingest(outcome.doc.fingerprint(), &outcome.stats, reference)
        });
        let stats = outcome.stats.clone();
        let mut state = outcome.detach_refine_state();
        let mut doc = Arc::new(outcome.doc);
        seg.persist(tr, "m", 1, &doc, state.as_ref())?;
        let m = tr
            .leaf("core.publish", || engine.insert_arc("m", Arc::clone(&doc)))
            .map_err(err)?;
        tr.exit();
        let considered = ga.len() * gb.len();
        counters.extend([
            Metric::new("integrate.pairs_considered", considered as f64, "count"),
            Metric::new("integrate.pairs_pruned", stats.pairs_pruned as f64, "count"),
            Metric::new(
                "integrate.blocking_survival",
                blocked.pairs.len() as f64 / considered.max(1) as f64,
                "ratio",
            ),
            Metric::new("oracle.pairs_judged", stats.pairs_judged as f64, "count"),
            Metric::new(
                "oracle.judged_possible",
                stats.judged_possible as f64,
                "count",
            ),
            Metric::new("oracle.probe_pairs", judged as f64, "count"),
            Metric::new(
                "integrate.components",
                stats.components_total as f64,
                "count",
            ),
            Metric::new(
                "integrate.components_with_choice",
                stats.components_with_choice as f64,
                "count",
            ),
            Metric::new(
                "integrate.matchings_enumerated",
                stats.matchings_enumerated as f64,
                "count",
            ),
            Metric::new("pxml.doc_nodes", doc.reachable_count() as f64, "count"),
        ]);

        // Prepared queries on the integrated document, decomposed into
        // compile and execute. refine-durable has no reference answers
        // for them, so there they are unchecked probes.
        tr.enter("core.query", !w.queries());
        let mut answers = [0usize; 4];
        for q in inputs.mix.round(r) {
            let text = inputs.mix.text(&q);
            let plan = tr
                .leaf("query.compile", || {
                    parse_query(text).map(|ast| QueryPlan::compile(&ast))
                })
                .map_err(err)?;
            let ranked = tr
                .leaf(format!("query.execute.{}", q.shape.name()), || {
                    plan.execute_at(&doc, q.threshold).map(|s| s.into_ranked())
                })
                .map_err(err)?;
            if q.threshold == 0.0 {
                answers[q.shape as usize] = ranked.items.len();
            }
            if w.queries() {
                check(tr, ck, || {
                    check_answers(&ranked, text, q.threshold, reference)
                });
            }
        }
        tr.exit();
        counters.extend(crate::workload::answer_counters(&answers));

        // Engine::refine, decomposed: the per-step document clone, the
        // refine call and the durable publish.
        let installments = if w.refines() {
            inputs.scale.installments
        } else {
            1
        };
        let mut steps: Vec<RefineStep> = Vec::new();
        tr.enter("core.refine", !w.refines());
        for k in 0..installments {
            let Some(open) = state.take() else { break };
            tr.enter("core.refine_step", false);
            let copy = tr.leaf("pxml.clone", || (*doc).clone());
            let mut o = IntegrationOutcome::with_refine_state(copy, open.clone());
            let mut step = tr
                .leaf("integrate.refine", || {
                    o.refine(oracle, schema, &inputs.refine)
                })
                .map_err(err)?;
            // Follow the engine's compaction decision, which it reports
            // on the step, so both paths store the same arena.
            if reference.steps.get(k).is_some_and(|(s, _)| s.compacted) {
                o.compact_arena();
                let arena = o.doc.arena_stats();
                (step.arena_live, step.arena_total, step.compacted) =
                    (arena.live, arena.total, true);
            }
            state = o.detach_refine_state();
            doc = Arc::new(o.doc);
            if w.refines() {
                check(tr, ck, || {
                    check_step(k, &step, doc.fingerprint(), reference)
                });
            }
            seg.persist(tr, "m", k as u64 + 2, &doc, state.as_ref())?;
            tr.leaf("core.publish", || engine.insert_arc("m", Arc::clone(&doc)))
                .map_err(err)?;
            tr.exit();
            steps.push(step);
        }
        tr.exit();
        if !w.refines() {
            // The engine's own refine call, for core.refine_overhead_ms.
            // A refinable document is refined on a fresh engine, so the
            // pipeline's stays as integrated.
            tr.enter("probe.engine_refine", true);
            let result = if steps.is_empty() {
                tr.leaf("core.engine_refine", || engine.refine(&m, &inputs.refine))
            } else {
                let fresh = inputs.builder().build();
                let (fm, _) = ingest(&fresh, inputs)?;
                tr.leaf("core.engine_refine", || fresh.refine(&fm, &inputs.refine))
            };
            tr.exit();
            result.map_err(err)?;
        }
        let arena = doc.arena_stats();
        counters.extend(crate::workload::step_counters(&steps));
        counters.extend([
            Metric::new("pxml.arena_live", arena.live as f64, "count"),
            Metric::new("pxml.arena_total", arena.total as f64, "count"),
            Metric::new(
                "integrate.max_discarded_mass",
                match steps.last() {
                    Some(s) if w.refines() => s.max_discarded_mass,
                    _ => stats.max_discarded_mass,
                },
                "probability",
            ),
        ]);

        // Engine::open, decomposed: scan and checksum, then load every
        // name.
        seg.store = None;
        tr.enter("core.reopen", !w.durable());
        let mut store = tr
            .leaf("store.open", || Store::open(&seg.path, Durability::OnClose))
            .map_err(err)?;
        let names: Vec<String> = store.names().map(str::to_string).collect();
        let loaded = tr
            .leaf("store.load", || {
                names
                    .iter()
                    .map(|n| store.load_publish(n))
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(err)?;
        let open_now = state.as_ref().map_or(0, RefineState::open_components);
        let fingerprint = doc.fingerprint();
        if w.durable() {
            check(tr, ck, || {
                let m = names
                    .iter()
                    .position(|n| n == "m")
                    .ok_or("store lost the document")?;
                let rec = loaded[m].as_ref().ok_or("store lost the document")?;
                let open = rec.refine.as_ref().map_or(0, RefineState::open_components);
                if (rec.doc.fingerprint(), open) == (fingerprint, open_now) {
                    Ok(())
                } else {
                    Err("reloaded document differs from the one stored".to_string())
                }
            });
        }
        tr.probe("bench.cleanup", || drop((loaded, store)));
        let reopened = tr.probe("core.engine_open", || {
            inputs.builder().with_store(&seg.path).open()
        });
        tr.probe("bench.cleanup", || drop(reopened));
        tr.exit();

        let bytes = seg.sizes.last().copied().unwrap_or(0) as f64;
        let publishes: Vec<f64> = seg.sizes.windows(2).map(|p| (p[1] - p[0]) as f64).collect();
        // Publishes: a, b, the integration, then one per installment.
        let per_step = if publishes.len() > 2 {
            publishes[2..].iter().sum::<f64>() / (publishes.len() - 2) as f64
        } else {
            publishes.last().copied().unwrap_or(0.0)
        };
        counters.extend([
            Metric::new("store.bytes_per_step", per_step, "bytes"),
            Metric::new(
                "store.bytes_per_input_byte",
                bytes / inputs.input_bytes() as f64,
                "ratio",
            ),
        ]);
        Ok(())
    };
    let outcome = body();
    tr.unwind();
    let _ = std::fs::remove_file(work.join(format!("traced-{r}.imps")));
    outcome.map(|()| counters)
}

/// One traced iteration's spans, as indices into the run's spans.
struct IterationSpans<'a> {
    all: &'a [Span],
    own: &'a [f64],
    members: Vec<usize>,
}

impl IterationSpans<'_> {
    fn named<'s>(&'s self, name: &'s str) -> impl Iterator<Item = usize> + 's {
        self.members
            .iter()
            .copied()
            .filter(move |&i| self.all[i].name == name)
    }

    fn total(&self, name: &str) -> f64 {
        self.named(name).map(|i| self.all[i].seconds()).sum()
    }

    /// Time in spans called `name` that sit inside a span called `outer`.
    fn within(&self, outer: &str, name: &str) -> f64 {
        self.named(name)
            .filter(|&i| {
                let mut p = self.all[i].parent;
                while let Some(j) = p {
                    if self.all[j].name == outer {
                        return true;
                    }
                    p = self.all[j].parent;
                }
                false
            })
            .map(|i| self.all[i].seconds())
            .sum()
    }

    /// The iteration's wall time without its top-level probes.
    fn wall(&self) -> f64 {
        let probes: f64 = self
            .members
            .iter()
            .map(|&i| &self.all[i])
            .filter(|s| s.probe && s.parent.is_some_and(|p| !self.all[p].probe))
            .map(Span::seconds)
            .sum();
        self.total("iteration") - probes
    }

    /// Share of the wall time spent inside some layer's span: everything
    /// but the iteration span's own (unattributed) time.
    fn coverage(&self) -> f64 {
        let unattributed: f64 = self.named("iteration").map(|i| self.own[i]).sum();
        1.0 - unattributed / self.wall()
    }
}

/// The traced run: untraced and traced iterations alternate (so drift
/// hits both alike) until `seconds` have passed and at least
/// `scale.traced_pairs` pairs ran; per-layer times are medians over the
/// traced iterations, counters come from the first one.
pub fn run(setup: &Setup, work: &Path, seconds: f64) -> Report {
    let w = setup.inputs.workload;
    let mut ck = Checker::default();
    let mut tr = Tracer::new();
    run_iteration(setup, work, 0, &mut ck);
    let mut untraced = Vec::new();
    let mut counters: Option<Vec<Metric>> = None;
    let mut traced = Vec::new();
    let min_pairs = setup.inputs.scale.traced_pairs.max(1);
    let start = Instant::now();
    let mut r = 1;
    while r <= min_pairs || start.elapsed().as_secs_f64() < seconds {
        let Some(it) = run_iteration(setup, work, r, &mut ck) else {
            break;
        };
        untraced.push(it);
        match traced_iteration(&mut tr, setup, work, r, &mut ck) {
            Ok(c) => {
                counters.get_or_insert(c);
                traced.push(r);
            }
            Err(why) => {
                ck.op(Err(why));
                break;
            }
        }
        r += 1;
    }
    let mut report = ck.into_report();
    let spans = std::mem::take(&mut tr.spans);
    let own = self_seconds(&spans);
    let per_iteration: Vec<IterationSpans<'_>> = traced
        .iter()
        .map(|&r| IterationSpans {
            all: &spans,
            own: &own,
            members: (0..spans.len())
                .filter(|&i| spans[i].iteration == r)
                .collect(),
        })
        .collect();
    let med = |f: &dyn Fn(&IterationSpans<'_>) -> f64| -> f64 {
        median(&per_iteration.iter().map(f).collect::<Vec<_>>())
    };
    let refine_overhead_ms = if w.refines() {
        // Engine::refine's time comes from the untraced iterations.
        let engine_steps: Vec<f64> = untraced.iter().map(|it| it.ops.iter().sum()).collect();
        let layers = med(&|it| {
            let store = if w.durable() {
                it.within("core.refine", "store.append") + it.within("core.refine", "store.sync")
            } else {
                0.0
            };
            it.total("pxml.clone") + it.total("integrate.refine") + store
        });
        (median(&engine_steps) - layers) * 1e3
    } else {
        med(&|it| {
            it.total("core.engine_refine")
                - it.within("core.refine", "pxml.clone")
                - it.total("integrate.refine")
        }) * 1e3
    };
    let untraced_wall = median(&untraced.iter().map(|it| it.total()).collect::<Vec<_>>());
    let blocking = med(&|it| it.total("integrate.blocking"));
    let judge = med(&|it| it.total("oracle.judge"));
    let counters = counters.unwrap_or_default();
    let counter = |name: &str| {
        counters
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    };
    let mut metrics = vec![
        Metric::new("xmlkit.parse_s", med(&|it| it.total("xmlkit.parse")), "s"),
        Metric::new("pxml.convert_s", med(&|it| it.total("pxml.convert")), "s"),
        Metric::new("core.publish_s", med(&|it| it.total("core.publish")), "s"),
        Metric::new("integrate.blocking_s", blocking, "s"),
        Metric::new("oracle.judge_s", judge, "s"),
        Metric::new(
            "oracle.ns_per_pair",
            judge * 1e9 / counter("oracle.probe_pairs").max(1.0),
            "ns",
        ),
        Metric::new(
            "integrate.integrate_s",
            med(&|it| it.total("integrate.integrate")),
            "s",
        ),
        Metric::new(
            "integrate.merge_s",
            med(&|it| {
                it.total("integrate.integrate")
                    - it.total("integrate.blocking")
                    - it.total("oracle.judge")
            }),
            "s",
        ),
        Metric::new("pxml.simplify_s", med(&|it| it.total("pxml.simplify")), "s"),
        Metric::new("pxml.clone_s", med(&|it| it.total("pxml.clone")), "s"),
        Metric::new(
            "integrate.refine_s",
            med(&|it| it.total("integrate.refine")),
            "s",
        ),
        Metric::new("core.refine_overhead_ms", refine_overhead_ms, "ms"),
        Metric::new("store.append_s", med(&|it| it.total("store.append")), "s"),
        Metric::new("store.sync_s", med(&|it| it.total("store.sync")), "s"),
        Metric::new("store.open_s", med(&|it| it.total("store.open")), "s"),
        Metric::new("store.load_s", med(&|it| it.total("store.load")), "s"),
        Metric::new(
            "core.reopen_overhead_s",
            med(&|it| {
                it.total("core.engine_open") - it.total("store.open") - it.total("store.load")
            }),
            "s",
        ),
        Metric::new("query.compile_s", med(&|it| it.total("query.compile")), "s"),
    ];
    for shape in Shape::ALL {
        let span = format!("query.execute.{}", shape.name());
        metrics.push(Metric::new(
            format!("query.execute_ms.{}", shape.name()),
            med(&|it| it.total(&span)) * 1e3,
            "ms",
        ));
    }
    metrics.extend(
        counters
            .iter()
            .filter(|m| m.name != "oracle.probe_pairs")
            .cloned(),
    );
    metrics.push(Metric::new(
        "trace.overhead",
        med(&|it| it.wall()) / untraced_wall,
        "ratio",
    ));
    metrics.push(Metric::new(
        "trace.coverage",
        med(&|it| it.coverage()),
        "ratio",
    ));
    report.metrics = metrics;
    report.extras = vec![
        Metric::new("traced_iterations", traced.len() as f64, "count"),
        Metric::new("spans", spans.len() as f64, "count"),
    ];
    report.spans = spans;
    report
}
