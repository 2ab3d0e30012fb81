//! The staged integration pipeline for one tag group.
//!
//! Matching a multi-valued tag group runs as four explicit stages,
//! after an optional blocking stage 0 ([`block_candidates`]) that picks
//! which pairs of the cross product the Oracle judges at all:
//!
//! 1. **Candidate generation** — Oracle judgments over the surviving
//!    pairs become a [`CandidateSet`]: forced pairs (certain matches,
//!    made injective by demotion) plus undecided [`Candidate`]s.
//! 2. **Component split** — [`split`] factors the candidate graph into
//!    independent connected [`Component`]s.
//! 3. **Budgeted enumeration** — [`enumerate_components`] turns each
//!    component into a [`ComponentOutcome`]: its matchings in
//!    descending weight, cut off at the configured [`MatchBudget`] with
//!    the dropped probability mass accounted (or, in strict mode, a
//!    [`TooManyMatchings`] error). Components are independent, so this
//!    stage fans out over [`std::thread::scope`] when
//!    [`IntegrationOptions::parallelism`] allows.
//! 4. **Merge** — the builder in `merge` consumes the outcomes and
//!    assembles the output document; it never sees how (or on how many
//!    threads) the matchings were produced.
//!
//! Every stage is deterministic: outcomes are reassembled in component
//! order and each component's enumeration is self-contained, so serial
//! and parallel runs build bit-identical documents.

use crate::matching::{
    enumerate_matchings, live_candidates, split_components, Candidate, Component,
    FrontierEnumerator, MatchBudget, Matching, TooManyMatchings,
};
use crate::{BlockingMode, BudgetPlan, IntegrationOptions};
use imprecise_oracle::value::PossibleValues;
use imprecise_oracle::{BlockingPlan, ElemRef, ElementFeatures, Oracle, PruneFilter};
use imprecise_pxml::{PxDoc, PxNodeId};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

/// Stage-1 output: the judged cross product of one tag group.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CandidateSet {
    /// Certainly matched pairs, injective (see [`CandidateSet::resolve`]).
    pub forced: Vec<(usize, usize)>,
    /// Undecided pairs with their match probabilities.
    pub possible: Vec<Candidate>,
    /// Forced pairs demoted to near-certain candidates because they
    /// conflicted with an earlier forced pair on the same element.
    pub demoted: usize,
}

impl CandidateSet {
    /// Build a candidate set from raw Oracle output, demoting forced
    /// pairs that would break injectivity (contradictory certain
    /// knowledge — e.g. one source holding two elements deep-equal to
    /// the same element of the other source) to highly probable
    /// undecided pairs.
    pub fn resolve(raw_forced: Vec<(usize, usize)>, mut possible: Vec<Candidate>) -> Self {
        let mut forced: Vec<(usize, usize)> = Vec::new();
        let n_a = raw_forced.iter().map(|&(a, _)| a + 1).max().unwrap_or(0);
        let n_b = raw_forced.iter().map(|&(_, b)| b + 1).max().unwrap_or(0);
        let mut used_a = vec![false; n_a];
        let mut used_b = vec![false; n_b];
        let mut demoted = 0;
        for (ai, bi) in raw_forced {
            if used_a[ai] || used_b[bi] {
                demoted += 1;
                possible.push(Candidate {
                    a: ai,
                    b: bi,
                    p: 1.0 - 1e-6,
                });
            } else {
                used_a[ai] = true;
                used_b[bi] = true;
                forced.push((ai, bi));
            }
        }
        CandidateSet {
            forced,
            possible,
            demoted,
        }
    }
}

/// Stage 2: factor the candidate graph of a `n_a × n_b` tag group into
/// independent connected components.
pub fn split(set: &CandidateSet, n_a: usize, n_b: usize) -> Vec<Component> {
    split_components(n_a, n_b, &set.forced, &set.possible)
}

/// Stage-0 output: the pairs of one tag group that survive blocking.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockedPairs {
    /// Surviving `(a_index, b_index)` pairs in row-major order — exactly
    /// the iteration order of the unblocked double loop.
    pub pairs: Vec<(usize, usize)>,
    /// Pairs dropped by recall-safe filters (provable `NonMatch`es).
    pub pruned: usize,
    /// Pairs dropped unexamined by heuristic windowing (recall risk).
    pub windowed_out: usize,
}

/// Stage 0 (optional): generate the candidate pairs of one tag group
/// without judging the full cross product.
///
/// In [`BlockingMode::RecallSafe`] the surviving pairs are exactly the
/// pairs the oracle's [`BlockingPlan`] cannot prove `NonMatch`, from
/// [`BlockingPlan::candidates`]: a hash join on the plan's equality
/// filter, a per-bucket gram index for its similarity filter and
/// row-batched edit checks, with [`BlockingPlan::prunes`] run on every
/// pair before it is emitted. Pruned pairs are provably `NonMatch`, so
/// downstream output is bit-identical to judging everything, and
/// `pruned` is the cross product minus the survivors.
///
/// [`BlockingMode::Heuristic`] additionally restricts candidates to a
/// sorted-neighbourhood window and may therefore miss true matches; the
/// unexamined count is reported as `windowed_out`.
pub fn block_candidates(
    a: &PxDoc,
    ga: &[PxNodeId],
    b: &PxDoc,
    gb: &[PxNodeId],
    oracle: &Oracle,
    tag: &str,
    mode: BlockingMode,
) -> BlockedPairs {
    let total = ga.len() * gb.len();
    if mode == BlockingMode::Off {
        return BlockedPairs {
            pairs: cross_product(ga.len(), gb.len()),
            pruned: 0,
            windowed_out: 0,
        };
    }
    let plan = oracle.blocking_plan(tag);
    let fa: Vec<ElementFeatures> = ga
        .iter()
        .map(|&n| plan.features(&ElemRef { doc: a, node: n }))
        .collect();
    let fb: Vec<ElementFeatures> = gb
        .iter()
        .map(|&n| plan.features(&ElemRef { doc: b, node: n }))
        .collect();
    if let BlockingMode::Heuristic { window } = mode {
        let considered = window_pairs(&plan, a, ga, b, gb, window);
        let windowed_out = total - considered.len();
        let mut pairs = Vec::with_capacity(considered.len());
        let mut pruned = 0;
        for (ai, bi) in considered {
            if plan.prunes(&fa[ai], &fb[bi]) {
                pruned += 1;
            } else {
                pairs.push((ai, bi));
            }
        }
        BlockedPairs {
            pairs,
            pruned,
            windowed_out,
        }
    } else {
        let pairs = plan.candidates(&fa, &fb);
        BlockedPairs {
            pruned: total - pairs.len(),
            windowed_out: 0,
            pairs,
        }
    }
}

fn cross_product(n_a: usize, n_b: usize) -> Vec<(usize, usize)> {
    let mut pairs = Vec::with_capacity(n_a * n_b);
    for ai in 0..n_a {
        for bi in 0..n_b {
            pairs.push((ai, bi));
        }
    }
    pairs
}

/// Sorted-neighbourhood candidates: both groups sort together on a
/// normalised key; only pairs within `window` positions of each other in
/// the combined order are considered. Returned in row-major order.
fn window_pairs(
    plan: &BlockingPlan,
    a: &PxDoc,
    ga: &[PxNodeId],
    b: &PxDoc,
    gb: &[PxNodeId],
    window: usize,
) -> Vec<(usize, usize)> {
    // (key, side, index): side and index break key ties deterministically.
    let mut entries: Vec<(String, u8, usize)> = Vec::with_capacity(ga.len() + gb.len());
    for (ai, &n) in ga.iter().enumerate() {
        entries.push((window_key(plan, &ElemRef { doc: a, node: n }), 0, ai));
    }
    for (bi, &n) in gb.iter().enumerate() {
        entries.push((window_key(plan, &ElemRef { doc: b, node: n }), 1, bi));
    }
    entries.sort();
    let mut pairs: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (i, (_, side_i, idx_i)) in entries.iter().enumerate() {
        for (_, side_j, idx_j) in entries.iter().skip(i + 1).take(window) {
            match (side_i, side_j) {
                (0, 1) => {
                    pairs.insert((*idx_i, *idx_j));
                }
                (1, 0) => {
                    pairs.insert((*idx_j, *idx_i));
                }
                _ => {}
            }
        }
    }
    pairs.into_iter().collect()
}

/// The key heuristic windowing sorts elements by: the first value of the
/// plan's first similarity filter (where near-matches share prefixes),
/// else the first equality key, else the element's own text.
fn window_key(plan: &BlockingPlan, e: &ElemRef<'_>) -> String {
    const KEY_CAP: usize = 4;
    let first_value = |path: &str| match e.possible_values_at(path, KEY_CAP) {
        PossibleValues::Values(vs) => vs.into_iter().next(),
        _ => None,
    };
    let key = plan
        .filters()
        .iter()
        .find_map(|f| match f {
            PruneFilter::SimilarityBelow { value_path, .. } => first_value(value_path),
            _ => None,
        })
        .or_else(|| {
            plan.filters().iter().find_map(|f| match f {
                PruneFilter::KeyDiffers { value_path } => first_value(value_path),
                PruneFilter::TextDiffers => e
                    .possible_own_texts(KEY_CAP)
                    .and_then(|t| t.into_iter().next()),
                PruneFilter::SimilarityBelow { .. } => None,
            })
        })
        .or_else(|| {
            e.possible_own_texts(KEY_CAP)
                .and_then(|t| t.into_iter().next())
        });
    key.unwrap_or_default().trim().to_lowercase()
}

/// Stage-3 output: one component's enumerated matchings plus the mass
/// accounting the merge layer records into `IntegrationStats`. The
/// merge layer is agnostic to how the outcome was produced — strict or
/// budgeted, serial or parallel.
#[derive(Debug, Clone)]
pub struct ComponentOutcome {
    /// The component these matchings belong to (shared with the
    /// enumerator a truncated outcome keeps resident).
    pub component: Arc<Component>,
    /// Matchings in canonical (descending weight) order, weights
    /// normalised to sum to 1 over the *kept* matchings.
    pub matchings: Vec<Matching>,
    /// Live undecided pairs the enumerator actually searched over.
    pub live_pairs: usize,
    /// Guaranteed lower bound on the probability mass the kept
    /// matchings cover (1.0 when enumeration completed).
    pub retained_mass: f64,
    /// Conservative upper bound on the mass dropped by the budget
    /// (`retained_mass + discarded_mass == 1`).
    pub discarded_mass: f64,
    /// True when the budget cut this component's enumeration short.
    pub truncated: bool,
    /// The enumerator of a truncated enumeration, positioned where the
    /// budget stopped it: what a later refinement pass resumes. `None`
    /// when the enumeration completed (or ran in strict mode, which
    /// never truncates).
    pub frontier: Option<FrontierEnumerator>,
}

/// A resumable truncation site inside an integrated document: one
/// truncated component's resident enumerator and where its
/// possibilities live — the output probability node plus the source
/// element groups re-emission walks again.
///
/// Everything inside is owned data (`Send + Sync`), so frontiers can be
/// stored in a catalog next to the document version they belong to and
/// refined from any thread.
#[derive(Debug, Clone)]
pub struct DocFrontier {
    /// Element path of the component's tag group (e.g. `/catalog/movie`).
    path: String,
    /// The output document's probability node holding this component's
    /// possibilities; refinement replaces its children in place.
    prob: PxNodeId,
    /// The tag group's element nodes in source a, in group order.
    ga: Vec<PxNodeId>,
    /// The tag group's element nodes in source b, in group order.
    gb: Vec<PxNodeId>,
    /// The component's best-first search, where the last run stopped.
    /// Shared, so that cloning a refinable state (once per refine step)
    /// copies a pointer; a step advances a clone of it and installs that.
    enumerator: Arc<FrontierEnumerator>,
}

impl DocFrontier {
    /// Serialise this truncation site for the durable store (appends to
    /// `out`). Node ids are written raw: the store persists the output
    /// document and both sources alongside the frontier, so the ids
    /// stay valid across the round-trip.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        use imprecise_pxml::codec::{put_len, put_node_id, put_str};
        put_str(out, &self.path);
        put_node_id(out, self.prob);
        put_len(out, self.ga.len());
        for &id in &self.ga {
            put_node_id(out, id);
        }
        put_len(out, self.gb.len());
        for &id in &self.gb {
            put_node_id(out, id);
        }
        crate::codec::encode_component(self.enumerator.component(), out);
        self.enumerator.encode(out);
    }

    /// Decode a truncation site written by [`encode`](Self::encode),
    /// validating every node id against the arenas it points into
    /// (`doc_len` for the output document, `a_len`/`b_len` for the
    /// sources) and the search state's content digest against the
    /// decoded component — corrupted or mismatched state is a typed
    /// error, never a latent out-of-bounds id.
    pub(crate) fn decode(
        r: &mut imprecise_pxml::codec::Reader<'_>,
        doc_len: usize,
        a_len: usize,
        b_len: usize,
    ) -> Result<Self, imprecise_pxml::codec::CodecError> {
        use imprecise_pxml::codec::take_node_id;
        let path = r.take_str("frontier path")?;
        let prob = take_node_id(r, "frontier prob node")?;
        if prob.index() >= doc_len {
            return Err(r.err("prob node within output arena"));
        }
        let n_ga = r.take_len("group-a size")?;
        let mut ga = Vec::with_capacity(n_ga.min(1 << 20));
        for _ in 0..n_ga {
            let id = take_node_id(r, "group-a node")?;
            if id.index() >= a_len {
                return Err(r.err("group-a node within source arena"));
            }
            ga.push(id);
        }
        let n_gb = r.take_len("group-b size")?;
        let mut gb = Vec::with_capacity(n_gb.min(1 << 20));
        for _ in 0..n_gb {
            let id = take_node_id(r, "group-b node")?;
            if id.index() >= b_len {
                return Err(r.err("group-b node within source arena"));
            }
            gb.push(id);
        }
        let component = crate::codec::decode_component(r)?;
        let enumerator = FrontierEnumerator::decode(r, Arc::new(component))?;
        Ok(DocFrontier::new(path, prob, ga, gb, enumerator))
    }

    pub(crate) fn new(
        path: String,
        prob: PxNodeId,
        ga: Vec<PxNodeId>,
        gb: Vec<PxNodeId>,
        enumerator: FrontierEnumerator,
    ) -> Self {
        DocFrontier {
            path,
            prob,
            ga,
            gb,
            enumerator: Arc::new(enumerator),
        }
    }

    /// Element path of the truncated component's tag group.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The output probability node the component's possibilities hang
    /// off.
    pub fn prob(&self) -> PxNodeId {
        self.prob
    }

    /// Guaranteed lower bound on the probability mass the kept matchings
    /// cover (`retained_mass() + discarded_mass() == 1`).
    pub fn retained_mass(&self) -> f64 {
        self.enumerator.retained_mass()
    }

    /// Conservative upper bound on the probability mass still
    /// unenumerated — the refinement priority.
    pub fn discarded_mass(&self) -> f64 {
        self.enumerator.discarded_mass()
    }

    /// Matchings kept so far.
    pub fn kept(&self) -> usize {
        self.enumerator.kept()
    }

    /// Open search states on the frontier.
    pub fn open_nodes(&self) -> usize {
        self.enumerator.open_nodes()
    }

    /// Live undecided pairs of the component.
    pub fn live_pairs(&self) -> usize {
        self.enumerator.live_pairs()
    }

    /// True when the enumeration state is the synthesised all-excluded
    /// fallback (see [`FrontierEnumerator::run_delta`]).
    pub fn is_synthetic(&self) -> bool {
        self.enumerator.is_synthetic()
    }

    /// The candidate-graph component this frontier belongs to.
    pub fn component(&self) -> &Arc<Component> {
        self.enumerator.component()
    }

    /// A clone of the resident enumerator (open states share their
    /// `taken` prefixes, so this is cheap). Advancing the clone does not
    /// touch this site — refinement installs the advanced enumerator
    /// back via [`install`](Self::install) only after the step commits.
    pub(crate) fn enumerator(&self) -> FrontierEnumerator {
        (*self.enumerator).clone()
    }

    /// The source element groups (left, right) re-emission walks.
    pub(crate) fn groups(&self) -> (&[PxNodeId], &[PxNodeId]) {
        (&self.ga, &self.gb)
    }

    /// Write what the current refine step changed in this site's search
    /// state (see [`FrontierEnumerator::encode_step`]); the path, anchor
    /// and groups never change within a step.
    pub(crate) fn encode_step(&self, out: &mut Vec<u8>) {
        self.enumerator.encode_step(out);
    }

    /// Replay [`encode_step`](Self::encode_step) bytes on the site the
    /// step started from.
    pub(crate) fn apply_step(
        &mut self,
        r: &mut imprecise_pxml::codec::Reader<'_>,
    ) -> Result<(), imprecise_pxml::codec::CodecError> {
        Arc::make_mut(&mut self.enumerator).apply_step(r)
    }

    /// Keep the enumerator a committed refine step advanced resident for
    /// the next step.
    pub(crate) fn install(&mut self, en: FrontierEnumerator) {
        self.enumerator = Arc::new(en);
    }

    /// Re-anchor the output probability node after an arena compaction
    /// renumbered the document's ids.
    pub(crate) fn set_prob(&mut self, prob: PxNodeId) {
        self.prob = prob;
    }
}

/// Distribute a total matching budget across a tag group's components
/// proportionally to their live-pair counts ([`BudgetPlan::Total`]).
///
/// Every component is guaranteed a budget of at least 1 (the matching
/// that always exists); the remainder after the proportional floor
/// split goes to the components with the largest fractional shares
/// (ties: earlier component first), so the split is deterministic and
/// sums to `max(total, number of components)`.
pub fn plan_budgets(live_pairs: &[usize], total: usize) -> Vec<usize> {
    let n = live_pairs.len();
    if n == 0 {
        return Vec::new();
    }
    let sum: u128 = live_pairs.iter().map(|&p| p as u128).sum();
    if sum == 0 {
        return vec![1; n];
    }
    let total = total.max(1) as u128;
    let mut budgets: Vec<usize> = Vec::with_capacity(n);
    let mut remainders: Vec<(u128, usize)> = Vec::with_capacity(n);
    let mut assigned: u128 = 0;
    for (i, &pairs) in live_pairs.iter().enumerate() {
        let exact = total * pairs as u128;
        let floor = exact / sum;
        budgets.push(floor.min(usize::MAX as u128) as usize);
        assigned += floor;
        remainders.push((exact % sum, i));
    }
    // Hand the unassigned remainder to the largest fractional shares.
    let mut leftover = total.saturating_sub(assigned) as usize;
    remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for &(_, i) in &remainders {
        if leftover == 0 {
            break;
        }
        budgets[i] = budgets[i].saturating_add(1);
        leftover -= 1;
    }
    // The guaranteed minimum: no component is ever starved below the
    // one matching it certainly has.
    for b in &mut budgets {
        *b = (*b).max(1);
    }
    budgets
}

/// The per-component matching caps of one tag group under the options'
/// budget plan.
fn component_budgets(components: &[Component], options: &IntegrationOptions) -> Vec<usize> {
    match options.budget_plan {
        BudgetPlan::PerComponent => {
            vec![options.max_matchings_per_component; components.len()]
        }
        BudgetPlan::Total(total) => {
            let live: Vec<usize> = components
                .iter()
                .map(|c| live_candidates(c).len())
                .collect();
            plan_budgets(&live, total)
        }
    }
}

/// A component is worth shipping to a worker thread only when its
/// enumeration is non-trivial; below this many undecided pairs the
/// search is cheaper than the scheduling.
const MIN_PARALLEL_PAIRS: usize = 8;

/// Stage 3: enumerate the matchings of every component under the
/// options' budget, in parallel when allowed and worthwhile.
///
/// With several busy components the work fans out *across* components
/// (`fan_out`), each enumeration self-contained and serial; results
/// are bit-identical to the serial path.
///
/// In budgeted mode (the default) this never fails: over-budget
/// components are truncated to their heaviest matchings with the
/// dropped mass recorded on the outcome. In strict mode
/// ([`IntegrationOptions::strict_matchings`]) an over-budget component
/// aborts with [`TooManyMatchings`] carrying `path` (the tag group's
/// element path).
pub fn enumerate_components(
    components: Vec<Component>,
    options: &IntegrationOptions,
    path: &str,
) -> Result<Vec<ComponentOutcome>, TooManyMatchings> {
    let budgets = component_budgets(&components, options);
    let components: Vec<Arc<Component>> = components.into_iter().map(Arc::new).collect();
    let threads = options.parallelism.effective();
    let busy = components
        .iter()
        .filter(|c| c.possible.len() >= MIN_PARALLEL_PAIRS)
        .count();
    if threads > 1 && busy >= 2 {
        fan_out(components.len(), threads.min(components.len()), |i| {
            enumerate_one(&components[i], options, budgets[i])
        })
        .into_iter()
        .map(|result| result.map_err(|e| e.at_path(path)))
        .collect()
    } else {
        // Serial over components: a strict-mode failure short-circuits
        // before later components are enumerated.
        components
            .iter()
            .zip(&budgets)
            .map(|(component, &budget)| {
                enumerate_one(component, options, budget).map_err(|e| e.at_path(path))
            })
            .collect()
    }
}

/// Enumerate one component under the options' policy, capped at
/// `max_matchings` (the per-component figure the budget plan assigned),
/// on the calling thread.
fn enumerate_one(
    component: &Arc<Component>,
    options: &IntegrationOptions,
    max_matchings: usize,
) -> Result<ComponentOutcome, TooManyMatchings> {
    if options.strict_matchings {
        let live_pairs = live_candidates(component).len();
        let matchings = enumerate_matchings(component, max_matchings)?;
        Ok(ComponentOutcome {
            component: Arc::clone(component),
            matchings,
            live_pairs,
            retained_mass: 1.0,
            discarded_mass: 0.0,
            truncated: false,
            frontier: None,
        })
    } else {
        let budget = MatchBudget {
            max_matchings,
            min_retained_mass: options.min_retained_mass,
        };
        let mut enumerator = FrontierEnumerator::new(Arc::clone(component));
        let result = enumerator.run(&budget);
        Ok(ComponentOutcome {
            component: Arc::clone(component),
            matchings: result.matchings,
            live_pairs: result.live_pairs,
            retained_mass: result.retained_mass,
            discarded_mass: result.discarded_mass,
            truncated: result.truncated,
            frontier: result.truncated.then_some(enumerator),
        })
    }
}

/// Run `job(i)` for every `i < n` on `threads` scoped worker threads
/// (no extra deps: plain [`std::thread::scope`]) and return the results
/// in index order, so the output is identical to the serial path.
/// Workers pull indices from a shared counter — natural load balancing
/// when jobs are skewed.
///
/// Every index is claimed exactly once, so each slot is filled; a slot
/// left empty anyway is recomputed serially, which yields exactly what a
/// worker would have produced because jobs are deterministic. A job that
/// panics makes the whole call panic once every worker has stopped
/// (`std::thread::scope` propagates it).
pub(crate) fn fan_out<T: Send>(
    n: usize,
    threads: usize,
    job: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let (next, job) = (&next, &job);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n || tx.send((i, job(i))).is_err() {
                    break;
                }
            });
        }
    });
    drop(tx);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, result) in rx {
        slots[i] = Some(result);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| slot.unwrap_or_else(|| job(i)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_graph(n: usize, m: usize, p: f64) -> Component {
        let mut possible = Vec::new();
        for a in 0..n {
            for b in 0..m {
                possible.push(Candidate { a, b, p });
            }
        }
        Component {
            a_nodes: (0..n).collect(),
            b_nodes: (0..m).collect(),
            forced: Vec::new(),
            possible,
        }
    }

    #[test]
    fn resolve_demotes_conflicting_forced_pairs() {
        let set = CandidateSet::resolve(vec![(0, 0), (1, 0)], vec![]);
        assert_eq!(set.forced, vec![(0, 0)]);
        assert_eq!(set.demoted, 1);
        assert_eq!(set.possible.len(), 1);
        assert_eq!((set.possible[0].a, set.possible[0].b), (1, 0));
        assert!(set.possible[0].p > 0.99);
    }

    #[test]
    fn split_matches_split_components() {
        let set = CandidateSet::resolve(vec![(0, 1)], vec![Candidate { a: 1, b: 0, p: 0.5 }]);
        let comps = split(&set, 2, 2);
        assert_eq!(comps, split_components(2, 2, &set.forced, &set.possible));
        assert_eq!(comps.len(), 2);
    }

    #[test]
    fn strict_mode_errors_with_path() {
        let components = vec![full_graph(3, 3, 0.5)];
        let opts = IntegrationOptions {
            strict_matchings: true,
            max_matchings_per_component: 10,
            ..IntegrationOptions::default()
        };
        let err = enumerate_components(components, &opts, "/catalog/movie").unwrap_err();
        assert_eq!(err.path, "/catalog/movie");
        assert_eq!(err.cap, 10);
    }

    #[test]
    fn budgeted_mode_truncates_instead_of_erroring() {
        let components = vec![full_graph(3, 3, 0.5)];
        let opts = IntegrationOptions {
            max_matchings_per_component: 10,
            ..IntegrationOptions::default()
        };
        let outcomes = enumerate_components(components, &opts, "/catalog/movie").unwrap();
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].truncated);
        assert_eq!(outcomes[0].matchings.len(), 10);
        assert!(outcomes[0].discarded_mass > 0.0);
        assert!(
            (outcomes[0].retained_mass + outcomes[0].discarded_mass - 1.0).abs() < 1e-9,
            "mass accounting must close"
        );
    }

    #[test]
    fn parallel_and_serial_agree() {
        let components: Vec<Component> = (0..6)
            .map(|i| full_graph(3, 3, 0.3 + 0.05 * i as f64))
            .collect();
        let serial_opts = IntegrationOptions {
            max_matchings_per_component: 12,
            parallelism: crate::Parallelism::SERIAL,
            ..IntegrationOptions::default()
        };
        let parallel_opts = IntegrationOptions {
            parallelism: crate::Parallelism::new(4),
            ..serial_opts
        };
        let serial = enumerate_components(components.clone(), &serial_opts, "/x").unwrap();
        let parallel = enumerate_components(components, &parallel_opts, "/x").unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.matchings.len(), p.matchings.len());
            for (a, b) in s.matchings.iter().zip(&p.matchings) {
                assert_eq!(a.pairs, b.pairs);
                assert_eq!(a.weight.to_bits(), b.weight.to_bits());
            }
            assert_eq!(s.discarded_mass.to_bits(), p.discarded_mass.to_bits());
        }
    }

    #[test]
    fn parallelism_zero_means_all_cores() {
        assert!(crate::Parallelism::AUTO.effective() >= 1);
        assert_eq!(crate::Parallelism::new(3).effective(), 3);
        assert_eq!(crate::Parallelism::default(), crate::Parallelism::SERIAL);
    }

    #[test]
    fn plan_splits_total_proportionally_to_live_pairs() {
        // 25 + 9 + 2 live pairs, total 36: exact proportional shares.
        assert_eq!(plan_budgets(&[25, 9, 2], 36), vec![25, 9, 2]);
        // Uneven split: floors plus largest-remainder distribution
        // (shares 62.5 / 31.25 / 6.25 — the first fraction wins the
        // leftover unit).
        let split = plan_budgets(&[10, 5, 1], 100);
        assert_eq!(split.iter().sum::<usize>(), 100);
        assert_eq!(split, vec![63, 31, 6]);
        // Proportionality is monotone in live pairs.
        assert!(split[0] > split[1] && split[1] > split[2]);
    }

    #[test]
    fn plan_guarantees_one_matching_per_component() {
        // Total smaller than the component count: everyone still gets 1.
        assert_eq!(plan_budgets(&[50, 50, 50, 50], 2), vec![1, 1, 1, 1]);
        // Pair-less components get their single matching without
        // consuming anything from the busy ones.
        assert_eq!(plan_budgets(&[0, 12, 0], 10), vec![1, 10, 1]);
        // No components, no budgets; all-trivial groups get all ones.
        assert_eq!(plan_budgets(&[], 10), Vec::<usize>::new());
        assert_eq!(plan_budgets(&[0, 0], 10), vec![1, 1]);
    }

    #[test]
    fn plan_remainder_split_is_deterministic() {
        // Equal live pairs, indivisible total: earlier components win
        // the remainder, and repeated calls agree.
        let split = plan_budgets(&[7, 7, 7], 10);
        assert_eq!(split, vec![4, 3, 3]);
        assert_eq!(split, plan_budgets(&[7, 7, 7], 10));
    }

    #[test]
    fn total_plan_budgets_group_as_a_whole() {
        // Two busy components under a shared total of 24: the bigger
        // one gets the bigger share, and the whole group respects the
        // total (up to the min-1 floor).
        let components = vec![full_graph(3, 3, 0.4), full_graph(2, 2, 0.4)];
        let opts = IntegrationOptions {
            budget_plan: crate::BudgetPlan::Total(24),
            ..IntegrationOptions::default()
        };
        let outcomes = enumerate_components(components, &opts, "/x").unwrap();
        let kept: Vec<usize> = outcomes.iter().map(|o| o.matchings.len()).collect();
        // 9 vs 4 live pairs: shares 17 and 7. The 2×2 component only has
        // 7 matchings total, so it completes exactly under its share.
        assert_eq!(kept, vec![17, 7]);
        assert!(outcomes[0].truncated && !outcomes[1].truncated);
        assert!(outcomes[0].frontier.is_some());
        assert!(outcomes[1].frontier.is_none());
    }

    #[test]
    fn truncated_outcomes_carry_resumable_frontiers() {
        let components = vec![full_graph(3, 3, 0.5)];
        let opts = IntegrationOptions {
            max_matchings_per_component: 10,
            ..IntegrationOptions::default()
        };
        let outcomes = enumerate_components(components, &opts, "/x").unwrap();
        let mut frontier = outcomes[0].frontier.clone().expect("truncated");
        assert_eq!(frontier.kept(), 10);
        assert!(frontier.open_nodes() > 0);
        // Resuming to completion reproduces the exhaustive enumeration.
        let full = frontier.run(&MatchBudget::UNLIMITED);
        assert!(frontier.is_drained());
        let exhaustive = enumerate_matchings(&outcomes[0].component, usize::MAX).unwrap();
        assert_eq!(full.matchings.len(), exhaustive.len());
        for (a, b) in full.matchings.iter().zip(&exhaustive) {
            assert_eq!(a.pairs, b.pairs);
            assert_eq!(a.weight.to_bits(), b.weight.to_bits());
        }
    }
}
