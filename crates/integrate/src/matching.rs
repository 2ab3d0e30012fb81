//! Candidate graphs and enumeration of injective matchings.
//!
//! For a tag group with `n_a` left and `n_b` right elements the Oracle
//! produces, per cross pair, a certain match (forced), a certain non-match
//! (discarded), or an undecided probability. A *matching* is a set of
//! undecided pairs that, together with the forced pairs, uses every element
//! at most once — injectivity is the structural form of the paper's "no
//! two siblings in one source refer to the same rwo" rule.
//!
//! The number of matchings of a complete bipartite n×m candidate graph is
//! `Σ_k C(n,k)·C(m,k)·k!` — 13 327 already for 6×6, which is precisely the
//! paper's "exploding number of theoretical possibilities". Rules shrink
//! the graph; connected components factor the enumeration.
//!
//! Two enumerators share one canonical output form (matchings sorted by
//! descending weight, normalised in that order):
//!
//! * [`enumerate_matchings`] — the exhaustive recursion; errors with
//!   [`TooManyMatchings`] past a cap (strict mode);
//! * [`FrontierEnumerator`] — a best-first branch-and-bound search that
//!   yields matchings in descending weight and stops at a
//!   [`MatchBudget`], renormalising what was kept and accounting the
//!   probability mass it dropped (the paper's "good is good enough"
//!   trade, made explicit).
//!
//! A truncated [`FrontierEnumerator`] stays resident and is *resumed*
//! later with more budget; it also encodes to bytes and decodes against
//! its component, so the search survives a process restart. Resuming to
//! an unlimited budget reproduces the exhaustive enumeration bit for bit
//! — the foundation of pay-as-you-go refinement.

use imprecise_pxml::codec::{CodecError, Reader};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, OnceLock};

/// An undecided candidate pair with its match probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Index into the left (source a) element list.
    pub a: usize,
    /// Index into the right (source b) element list.
    pub b: usize,
    /// Oracle probability that the pair co-refers, strictly in `(0, 1)`.
    pub p: f64,
}

/// A connected component of the candidate graph over one tag group.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Component {
    /// Left element indices in this component (ascending).
    pub a_nodes: Vec<usize>,
    /// Right element indices in this component (ascending).
    pub b_nodes: Vec<usize>,
    /// Certainly matched pairs (always part of every matching).
    pub forced: Vec<(usize, usize)>,
    /// Undecided pairs to enumerate over.
    pub possible: Vec<Candidate>,
}

/// One enumerated matching with its normalised probability.
#[derive(Debug, Clone, PartialEq)]
pub struct Matching {
    /// The matched pairs (forced pairs included), in deterministic order.
    pub pairs: Vec<(usize, usize)>,
    /// Normalised probability of this matching within its component.
    pub weight: f64,
}

/// Error: a component admits more matchings than the configured cap
/// (strict mode only — budgeted enumeration truncates instead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TooManyMatchings {
    /// Undecided pairs in the offending component.
    pub component_pairs: usize,
    /// The cap that was exceeded.
    pub cap: usize,
    /// Element path of the component's tag group (e.g. `/catalog/movie`),
    /// empty when the enumerator was called outside the merge pipeline.
    pub path: String,
}

impl TooManyMatchings {
    /// Attach the tag-group element path the pipeline was working under.
    pub(crate) fn at_path(mut self, path: &str) -> Self {
        self.path = path.to_string();
        self
    }
}

impl fmt::Display for TooManyMatchings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "component with {} undecided pairs exceeds {} matchings",
            self.component_pairs, self.cap
        )?;
        if !self.path.is_empty() {
            write!(f, " at {}", self.path)?;
        }
        Ok(())
    }
}

impl std::error::Error for TooManyMatchings {}

/// How much of a component's matching distribution to enumerate.
///
/// The budget stops best-first enumeration once *either* limit is hit:
/// at most `max_matchings` matchings, or — when `min_retained_mass` is
/// set — as soon as the retained (heaviest-first) matchings are
/// guaranteed to cover that fraction of the component's total
/// probability mass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchBudget {
    /// Keep at most this many matchings (the heaviest ones).
    pub max_matchings: usize,
    /// Stop early once the retained mass fraction reaches this value.
    pub min_retained_mass: Option<f64>,
}

impl MatchBudget {
    /// No budget: enumerate everything (equivalent to the exhaustive
    /// enumerator, byte for byte).
    pub const UNLIMITED: MatchBudget = MatchBudget {
        max_matchings: usize::MAX,
        min_retained_mass: None,
    };
}

/// The result of budgeted enumeration of one component.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetedMatchings {
    /// The retained matchings in canonical order (descending weight),
    /// renormalised so their weights sum to 1.
    pub matchings: Vec<Matching>,
    /// Live undecided pairs the search ran over (undecided pairs whose
    /// endpoints were not consumed by forced pairs).
    pub live_pairs: usize,
    /// Fraction of the component's probability mass the retained
    /// matchings cover: `1.0` when enumeration completed, otherwise a
    /// guaranteed lower bound (the frontier bound over-estimates what
    /// remains, never what was kept).
    pub retained_mass: f64,
    /// Fraction of mass dropped by the budget — a conservative upper
    /// bound on the true loss; `retained_mass + discarded_mass == 1`.
    pub discarded_mass: f64,
    /// True when the budget cut enumeration short.
    pub truncated: bool,
    /// Open search states left on the frontier (0 when enumeration
    /// completed): the size of the state a resumed run would start from.
    pub frontier_nodes: usize,
    /// Search-side work counters of the run that produced this result.
    pub search: SearchStats,
}

/// The one parallelism knob: how many component workers the pipeline's
/// fan-out runs, when integration enumerates or refine resumes several
/// independent components. `0` means "all available cores" (resolved
/// once and cached — `available_parallelism` is a cgroup/sysfs read),
/// `1` is serial, `N` pins the worker count. Each component's own
/// best-first search always runs on one thread.
///
/// The worker count is a pure *scheduling* hint: the fan-out
/// reassembles results in component order, so documents, stats and
/// frontiers are identical at every value. It is not part of stored
/// state: the refine-state codec writes a fixed value in its slot, and
/// the engine refines a decoded state on its own worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism(usize);

impl Parallelism {
    /// Serial execution (the default).
    pub const SERIAL: Parallelism = Parallelism(1);
    /// Use every core `available_parallelism` reports.
    pub const AUTO: Parallelism = Parallelism(0);

    /// Wrap a raw `0|1|N` knob value (`0` = all cores).
    pub fn new(raw: usize) -> Self {
        Parallelism(raw)
    }

    /// The raw `0|1|N` value (what the CLI accepted and the codec
    /// stores — *not* resolved against the host's core count).
    pub fn raw(self) -> usize {
        self.0
    }

    /// The concrete thread count: `0` resolves to the cached core count.
    pub fn effective(self) -> usize {
        match self.0 {
            0 => {
                static CORES: OnceLock<usize> = OnceLock::new();
                *CORES.get_or_init(|| {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                })
            }
            n => n,
        }
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::SERIAL
    }
}

/// Search-side work counters of one [`FrontierEnumerator`] run,
/// aggregated upward into [`RefineStep`](crate::RefineStep) so the
/// cost of a refine step is observable without a profiler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// States popped off the best-first heap (complete and incomplete).
    pub popped: u64,
    /// Incomplete states expanded into children.
    pub expanded: u64,
    /// Rounds whose expansion batch was cut short by the shared bound:
    /// a complete matching surfaced at the heap top, so everything
    /// below it was left unexpanded until the certified phase ruled on
    /// it.
    pub cutoffs: u64,
    /// Expansion rounds driven (each round pops one batch and pushes
    /// its children back).
    pub rounds: u64,
}

impl SearchStats {
    /// Fold another run's counters into this one: counters add.
    pub fn absorb(&mut self, other: &SearchStats) {
        self.popped += other.popped;
        self.expanded += other.expanded;
        self.cutoffs += other.cutoffs;
        self.rounds += other.rounds;
    }
}

/// Split a tag group's candidate graph into connected components.
///
/// Every left/right element index in `0..n_a` / `0..n_b` appears in exactly
/// one component; elements without any edge become singleton components.
/// Components are ordered by their smallest member (left-first), which
/// keeps integration output deterministic.
pub fn split_components(
    n_a: usize,
    n_b: usize,
    forced: &[(usize, usize)],
    possible: &[Candidate],
) -> Vec<Component> {
    // Union-find over n_a + n_b node slots (left first).
    let mut parent: Vec<usize> = (0..n_a + n_b).collect();
    fn find(parent: &mut [usize], x: usize) -> usize {
        let mut root = x;
        while parent[root] != root {
            root = parent[root];
        }
        let mut cur = x;
        while parent[cur] != root {
            let next = parent[cur];
            parent[cur] = root;
            cur = next;
        }
        root
    }
    let union = |parent: &mut [usize], x: usize, y: usize| {
        let rx = find(parent, x);
        let ry = find(parent, y);
        if rx != ry {
            parent[rx.max(ry)] = rx.min(ry);
        }
    };
    for &(a, b) in forced {
        union(&mut parent, a, n_a + b);
    }
    for c in possible {
        union(&mut parent, c.a, n_a + c.b);
    }
    // Group by root, in order of first appearance (ascending slot id =
    // left elements first in index order, then right).
    let mut components: Vec<Component> = Vec::new();
    let mut root_to_idx: Vec<Option<usize>> = vec![None; n_a + n_b];
    for slot in 0..n_a + n_b {
        let root = find(&mut parent, slot);
        let idx = match root_to_idx[root] {
            Some(i) => i,
            None => {
                root_to_idx[root] = Some(components.len());
                components.push(Component::default());
                components.len() - 1
            }
        };
        if slot < n_a {
            components[idx].a_nodes.push(slot);
        } else {
            components[idx].b_nodes.push(slot - n_a);
        }
    }
    for &(a, b) in forced {
        let root = find(&mut parent, a);
        // lint:allow(expect-in-lib, holds by construction: component exists)
        let idx = root_to_idx[root].expect("component exists");
        components[idx].forced.push((a, b));
    }
    for c in possible {
        let root = find(&mut parent, c.a);
        // lint:allow(expect-in-lib, holds by construction: component exists)
        let idx = root_to_idx[root].expect("component exists");
        components[idx].possible.push(*c);
    }
    components
}

/// The undecided candidates that can actually be taken: pairs whose
/// endpoints are consumed by forced pairs can never be part of a
/// matching; their `(1 − p)` factors are constant across matchings and
/// cancel under normalisation, so they are excluded up front.
pub fn live_candidates(component: &Component) -> Vec<Candidate> {
    let mut used_a: Vec<usize> = component.forced.iter().map(|&(a, _)| a).collect();
    let mut used_b: Vec<usize> = component.forced.iter().map(|&(_, b)| b).collect();
    used_a.sort_unstable();
    used_b.sort_unstable();
    component
        .possible
        .iter()
        .copied()
        .filter(|c| used_a.binary_search(&c.a).is_err() && used_b.binary_search(&c.b).is_err())
        .collect()
}

/// Canonical output form shared by both enumerators: descending weight,
/// ties broken by the pair list, normalised by a sum taken in that
/// order. Two enumerators producing the same matching set therefore
/// produce bit-identical weights.
fn canonicalise(out: Vec<Matching>) -> Vec<Matching> {
    canonicalise_tagged(out, 0).0
}

/// [`canonicalise`] that additionally reports, per canonical entry,
/// whether its source index was at or past `watermark` — i.e. whether it
/// is *new* relative to a previously emitted prefix of `yielded`. The
/// sort, the normalisation sum (taken in canonical order) and the
/// divisions are exactly those of [`canonicalise`], so the weights stay
/// bit-identical; only the provenance flags are extra.
fn canonicalise_tagged(yielded: Vec<Matching>, watermark: usize) -> (Vec<Matching>, Vec<bool>) {
    let mut tagged: Vec<(Matching, bool)> = yielded
        .into_iter()
        .enumerate()
        .map(|(i, m)| (m, i >= watermark))
        .collect();
    tagged.sort_by(|x, y| {
        y.0.weight
            .total_cmp(&x.0.weight)
            .then_with(|| x.0.pairs.cmp(&y.0.pairs))
    });
    // lint:allow(float-accumulation, summed in the canonical weight-then-pairs order fixed by the sort_by above, so every run adds in the same order)
    let total: f64 = tagged.iter().map(|t| t.0.weight).sum();
    debug_assert!(total > 0.0, "at least the empty matching exists");
    let mut out = Vec::with_capacity(tagged.len());
    let mut is_new = Vec::with_capacity(tagged.len());
    for (mut m, fresh) in tagged {
        m.weight /= total;
        out.push(m);
        is_new.push(fresh);
    }
    (out, is_new)
}

/// Enumerate all injective matchings of a component, normalised, in
/// canonical (descending weight) order. Errors past `cap` — this is the
/// strict-mode enumerator; see [`FrontierEnumerator`] for the graceful
/// one.
pub fn enumerate_matchings(
    component: &Component,
    cap: usize,
) -> Result<Vec<Matching>, TooManyMatchings> {
    let live = live_candidates(component);
    let mut out: Vec<Matching> = Vec::new();
    let mut taken: Vec<(usize, usize)> = Vec::new();
    let mut err: Option<TooManyMatchings> = None;
    recurse(
        &live, 0, 1.0, &mut taken, &mut out, cap, &mut err, component,
    );
    if let Some(e) = err {
        return Err(e);
    }
    Ok(canonicalise(out))
}

/// A frontier state of the best-first search: the first `idx` live
/// candidates are decided, `weight` is the product of their factors.
#[derive(Debug, Clone)]
struct SearchState {
    /// Admissible bound on the weight of any completion (`weight` times
    /// the best possible remaining factors). Complete states have
    /// `bound == weight`, so states pop in descending true weight.
    bound: f64,
    /// Insertion sequence number; equal bounds at equal depth pop
    /// newest-first, which keeps the search deterministic.
    seq: u64,
    idx: usize,
    weight: f64,
    /// Included pairs of the prefix. Shared (`Arc`) because every
    /// exclude-branch child and every enumerator clone carries its
    /// parent's inclusions unchanged — with tens of thousands of open
    /// states, per-state vector clones dominate resume cost otherwise.
    taken: Arc<[(usize, usize)]>,
}

impl PartialEq for SearchState {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound && self.seq == other.seq
    }
}
impl Eq for SearchState {}
impl PartialOrd for SearchState {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for SearchState {
    fn cmp(&self, other: &Self) -> Ordering {
        // Equal bounds break toward the DEEPER state (then newest):
        // admissibility already guarantees completes pop in descending
        // true weight, and on tie plateaus (e.g. a uniform-p component,
        // where every bound is identical) depth-first reaches complete
        // matchings after O(depth) pops where breadth-first would
        // materialise the whole exponential frontier first.
        self.bound
            .total_cmp(&other.bound)
            .then_with(|| self.idx.cmp(&other.idx))
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// The per-suffix ingredients of the branch-and-bound weight bound.
///
/// For a state that has decided the first `i` candidates with `k`
/// further inclusions still structurally possible, the best completion
/// weight is at most `base[i] · gain[i][min(k, gain[i].len())]`:
/// `base[i]` excludes every remaining candidate, and `gain[i]` holds
/// cumulative products of the sorted inclusion ratios `p/(1−p) > 1` —
/// the most any `k` inclusions could multiply the all-excluded weight
/// by, ignoring which endpoints they need. This is what makes the
/// search dive instead of drowning in high-probability dense graphs.
#[derive(Debug, Clone)]
struct SuffixBounds {
    base: Vec<f64>,
    gain: Vec<Vec<f64>>,
}

impl SuffixBounds {
    fn new(live: &[Candidate], max_take: usize) -> Self {
        let n = live.len();
        let mut base = vec![1.0f64; n + 1];
        for i in (0..n).rev() {
            base[i] = base[i + 1] * (1.0 - live[i].p);
        }
        let mut gain: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
        for i in 0..=n {
            let mut ratios: Vec<f64> = live[i..]
                .iter()
                .map(|c| c.p / (1.0 - c.p))
                .filter(|r| *r > 1.0)
                .collect();
            ratios.sort_by(|a, b| b.total_cmp(a));
            ratios.truncate(max_take);
            let mut cum = Vec::with_capacity(ratios.len());
            let mut acc = 1.0f64;
            for r in ratios {
                acc *= r;
                cum.push(acc);
            }
            gain.push(cum);
        }
        SuffixBounds { base, gain }
    }

    /// Upper bound on the product of the undecided factors of a state at
    /// candidate index `i` that can still include at most `k` edges.
    fn remaining(&self, i: usize, k: usize) -> f64 {
        let gain = &self.gain[i];
        match k.min(gain.len()) {
            0 => self.base[i],
            t => self.base[i] * gain[t - 1],
        }
    }
}

/// Exact total mass of all injective matchings over the live edges:
/// `Σ_M Π_{e∈M} p_e · Π_{e∉M} (1−p_e)`, computed *without* enumeration
/// by a bitmask inclusion–exclusion scan over the smaller side
/// (processing the larger side node by node, tracking which smaller-side
/// nodes are matched). `O(larger · 2^smaller · degree)` — a dense
/// ratio-space table up to [`EXACT_MASS_MAX_SIDE`] smaller-side nodes,
/// then a Ryser-style log-domain scan up to
/// [`EXACT_MASS_LOG_MAX_SIDE`] (also the fallback when ratio space
/// over- or underflows), and `None` beyond that (callers fall back to
/// the conservative frontier bound).
fn exact_total_mass(live: &[Candidate]) -> Option<f64> {
    if live.is_empty() {
        return Some(1.0);
    }
    let sides = MassSides::of(live);
    if sides.small.len() <= EXACT_MASS_MAX_SIDE {
        let z = exact_total_mass_ratio(live, &sides);
        if z.is_finite() && z > 0.0 {
            return Some(z);
        }
        // Ratio-space over/underflow (e.g. many near-1 demoted pairs):
        // redo the inclusion–exclusion in the log domain.
    } else if sides.small.len() > EXACT_MASS_LOG_MAX_SIDE
        || (live.len() as u64) << sides.small.len() > EXACT_MASS_LOG_MAX_WORK
    {
        return None;
    }
    Some(exact_total_mass_log(live, &sides))
}

/// The two endpoint sets of the live edges, smaller side first — the DP
/// masks the smaller side and walks the larger one.
struct MassSides {
    small: Vec<usize>,
    large: Vec<usize>,
    small_is_a: bool,
}

impl MassSides {
    fn of(live: &[Candidate]) -> Self {
        let mut a_ids: Vec<usize> = live.iter().map(|c| c.a).collect();
        let mut b_ids: Vec<usize> = live.iter().map(|c| c.b).collect();
        a_ids.sort_unstable();
        a_ids.dedup();
        b_ids.sort_unstable();
        b_ids.dedup();
        if a_ids.len() <= b_ids.len() {
            MassSides {
                small: a_ids,
                large: b_ids,
                small_is_a: true,
            }
        } else {
            MassSides {
                small: b_ids,
                large: a_ids,
                small_is_a: false,
            }
        }
    }

    /// The live edges of larger-side node `l`, as `(small bit, value)`
    /// with `value = f(p)` (the inclusion ratio, or its log).
    fn edges_of(&self, live: &[Candidate], l: usize, f: impl Fn(f64) -> f64) -> Vec<(usize, f64)> {
        // lint:allow(expect-in-lib, holds by construction: live endpoint)
        let small_index = |id: usize| self.small.binary_search(&id).expect("live endpoint");
        live.iter()
            .filter(|c| if self.small_is_a { c.b == l } else { c.a == l })
            .map(|c| {
                let s = small_index(if self.small_is_a { c.a } else { c.b });
                (1usize << s, f(c.p))
            })
            .collect()
    }
}

fn exact_total_mass_ratio(live: &[Candidate], sides: &MassSides) -> f64 {
    // All-excluded product, factored out so the DP runs in ratio space.
    let base: f64 = live.iter().map(|c| 1.0 - c.p).product();
    let mut dp = vec![0.0f64; 1 << sides.small.len()];
    dp[0] = 1.0;
    for &l in &sides.large {
        let edges = sides.edges_of(live, l, |p| p / (1.0 - p));
        for mask in (0..dp.len()).rev() {
            if dp[mask] == 0.0 {
                continue;
            }
            for &(bit, r) in &edges {
                if mask & bit == 0 {
                    dp[mask | bit] += dp[mask] * r;
                }
            }
        }
    }
    // lint:allow(float-accumulation, the DP vector is indexed by subset mask, so the summation order is the fixed 0..2^n mask order)
    base * dp.iter().sum::<f64>()
}

/// The same subset inclusion–exclusion, Ryser-style in the log domain:
/// every table entry holds `ln` of its ratio-space value and additions
/// become `log-sum-exp`, so the scan neither overflows (demoted forced
/// pairs contribute ratios near `1/ε`) nor underflows (the all-excluded
/// base is a product of hundreds of `1−p` factors). Extends the exact
/// accounting to [`EXACT_MASS_LOG_MAX_SIDE`] smaller-side nodes, where
/// the dense ratio table stops at [`EXACT_MASS_MAX_SIDE`].
fn exact_total_mass_log(live: &[Candidate], sides: &MassSides) -> f64 {
    // lint:allow(float-accumulation, live candidates are a Vec in canonical component order, so the log-sum order is reproducible)
    let log_base: f64 = live.iter().map(|c| (1.0 - c.p).ln()).sum();
    let mut dp = vec![f64::NEG_INFINITY; 1 << sides.small.len()];
    dp[0] = 0.0;
    for &l in &sides.large {
        let edges = sides.edges_of(live, l, |p| p.ln() - (1.0 - p).ln());
        for mask in (0..dp.len()).rev() {
            if dp[mask] == f64::NEG_INFINITY {
                continue;
            }
            for &(bit, lr) in &edges {
                if mask & bit == 0 {
                    dp[mask | bit] = log_add(dp[mask | bit], dp[mask] + lr);
                }
            }
        }
    }
    let log_sum = dp.iter().fold(f64::NEG_INFINITY, |acc, &v| log_add(acc, v));
    (log_base + log_sum).exp()
}

/// `ln(e^a + e^b)` without leaving the log domain.
fn log_add(a: f64, b: f64) -> f64 {
    if a == f64::NEG_INFINITY {
        return b;
    }
    if b == f64::NEG_INFINITY {
        return a;
    }
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    hi + (lo - hi).exp().ln_1p()
}

/// Largest smaller-side size the ratio-space exact-mass DP handles
/// (`2^16` masks of dense `f64`s).
const EXACT_MASS_MAX_SIDE: usize = 16;

/// Largest smaller side the log-domain scan extends exactness to. The
/// table is `2^20` entries (8 MiB) and each inner step is a `log-sum-exp`
/// rather than a fused multiply-add, so a work guard
/// ([`EXACT_MASS_LOG_MAX_WORK`] table-times-edges steps) keeps worst-case
/// components from stalling a refine step; past it the conservative
/// frontier bound applies as before.
const EXACT_MASS_LOG_MAX_SIDE: usize = 20;

/// Work guard for the log-domain scan: `edges · 2^small` inner steps.
const EXACT_MASS_LOG_MAX_WORK: u64 = 1 << 26;

/// `min_retained_mass` never truncates a component below this many
/// matchings: cutting a handful of matchings saves nothing and would
/// destroy small components' uncertainty outright (a single undecided
/// pair at p ≥ t would collapse to its match case).
const MASS_STOP_FLOOR: usize = 16;

/// Serialise one matching (pairs + bit-exact weight). Appends to `out`.
fn encode_matching(m: &Matching, out: &mut Vec<u8>) {
    use imprecise_pxml::codec::{put_f64, put_len};
    put_len(out, m.pairs.len());
    for &(a, b) in &m.pairs {
        put_len(out, a);
        put_len(out, b);
    }
    put_f64(out, m.weight);
}

/// Decode a matching written by [`encode_matching`].
fn decode_matching(r: &mut Reader<'_>) -> Result<Matching, CodecError> {
    let n = r.take_len("matching pair count")?;
    let mut pairs = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let a = r.take_len("matching pair a")?;
        let b = r.take_len("matching pair b")?;
        pairs.push((a, b));
    }
    let weight = r.take_f64("matching weight")?;
    Ok(Matching { pairs, weight })
}

/// Serialise a set of open search states. Appends to `out`.
///
/// The states are written in descending pop order, a form independent
/// of the heap's physical layout, so the encoding is a pure function of
/// the set. `taken` prefix vectors are heavily shared between open
/// states (children extend their parent's `Arc`); they are written once
/// into a content-deduplicated pool, in first-reference order, and each
/// state stores a pool index — the decoder re-shares them.
fn encode_states<'s>(states: impl Iterator<Item = &'s SearchState>, out: &mut Vec<u8>) {
    use imprecise_pxml::codec::{put_f64, put_len, put_u64};
    let mut open: Vec<&SearchState> = states.collect();
    open.sort_by(|x, y| y.cmp(x));
    let mut pool: Vec<&[(usize, usize)]> = Vec::new();
    let mut by_content: HashMap<&[(usize, usize)], usize, BuildHasherDefault<WordHasher>> =
        HashMap::default();
    let mut state_prefix: Vec<usize> = Vec::with_capacity(open.len());
    for state in &open {
        let idx = *by_content.entry(&state.taken[..]).or_insert_with(|| {
            pool.push(&state.taken);
            pool.len() - 1
        });
        state_prefix.push(idx);
    }
    put_len(out, pool.len());
    for prefix in &pool {
        put_len(out, prefix.len());
        for &(a, b) in prefix.iter() {
            put_len(out, a);
            put_len(out, b);
        }
    }
    put_len(out, open.len());
    for (state, &prefix) in open.iter().zip(&state_prefix) {
        put_len(out, state.idx);
        put_f64(out, state.weight);
        put_f64(out, state.bound);
        put_u64(out, state.seq);
        put_len(out, prefix);
    }
}

/// Decode states written by [`encode_states`], re-sharing their pooled
/// `taken` prefixes.
fn decode_states(r: &mut Reader<'_>) -> Result<Vec<SearchState>, CodecError> {
    let n_pool = r.take_len("taken-prefix pool size")?;
    let mut pool: Vec<Arc<[(usize, usize)]>> = Vec::with_capacity(n_pool.min(1 << 20));
    for _ in 0..n_pool {
        let n = r.take_len("taken-prefix length")?;
        let mut prefix = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let a = r.take_len("taken pair a")?;
            let b = r.take_len("taken pair b")?;
            prefix.push((a, b));
        }
        pool.push(prefix.into());
    }
    let n_open = r.take_len("open state count")?;
    let mut open = Vec::with_capacity(n_open.min(1 << 20));
    for _ in 0..n_open {
        let idx = r.take_len("open state idx")?;
        let weight = r.take_f64("open state weight")?;
        let bound = r.take_f64("open state bound")?;
        let seq = r.take_u64("open state seq")?;
        let prefix = r.take_len("open state prefix index")?;
        let taken = pool
            .get(prefix)
            .cloned()
            .ok_or_else(|| r.err("prefix index within pool"))?;
        open.push(SearchState {
            bound,
            seq,
            idx,
            weight,
            taken,
        });
    }
    Ok(open)
}

/// FNV-1a digest of a component's matching-relevant content: forced
/// pairs plus every live candidate's endpoints and probability bits.
/// Two components whose digests differ can never legally exchange
/// search states; equal digests differ only with hash probability.
fn component_digest(forced: &[(usize, usize)], live: &[Candidate]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    mix(forced.len() as u64);
    for &(a, b) in forced {
        mix(a as u64);
        mix(b as u64);
    }
    for c in live {
        mix(c.a as u64);
        mix(c.b as u64);
        mix(c.p.to_bits());
    }
    h
}

/// A fast deterministic hasher for lookup-only maps keyed by integer
/// slices: one multiply-rotate per word (the scheme of rustc's FxHash).
/// It is never seeded from the OS, and no map built on it is iterated,
/// so it cannot influence any output; it only replaces SipHash's cost
/// where the pool of `taken` prefixes is deduplicated.
#[derive(Debug, Default)]
struct WordHasher(u64);

impl WordHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Where the current refine step started, so the step's change to the
/// search state can be written as a delta (see
/// [`FrontierEnumerator::encode_step`]): states with `seq` above
/// `seq` were pushed during the step, `popped` lists the older states
/// the step took off the heap, and the first `yielded` matchings are
/// the ones that were already kept before it.
#[derive(Debug, Clone, Default)]
struct StepMark {
    seq: u64,
    yielded: usize,
    popped: Vec<u64>,
}

impl StepMark {
    /// Note a state leaving the heap.
    fn popped(&mut self, seq: u64) {
        if seq <= self.seq {
            self.popped.push(seq);
        }
    }
}

/// A resumable best-first branch-and-bound enumerator over one
/// component's live candidates.
///
/// The enumerator owns its component (`Arc`-shared with the pipeline)
/// and the heap of open search states, so it stays *resident* across
/// refine steps. [`run`] drives it until a [`MatchBudget`] is satisfied
/// (budgets count *total* kept matchings, across runs). Cloning is
/// cheap: the open states' `taken` prefixes are `Arc`-shared. [`encode`]
/// writes the search state for the durable store, and [`decode`]
/// rebuilds it against its component in a later process.
///
/// The contract that makes resumption safe: running to
/// [`MatchBudget::UNLIMITED`] — after any number of budgeted runs,
/// clones and encode/decode round-trips — produces the same canonical
/// matching list, bit for bit, as an unbudgeted run from scratch
/// (prefix weights, pop order and normalisation order are all
/// preserved), so pay-as-you-go refinement converges to the exhaustive
/// result instead of merely near it.
///
/// [`run`]: FrontierEnumerator::run
/// [`encode`]: FrontierEnumerator::encode
/// [`decode`]: FrontierEnumerator::decode
#[derive(Debug, Clone)]
pub struct FrontierEnumerator {
    component: Arc<Component>,
    live: Vec<Candidate>,
    max_take: usize,
    bounds: SuffixBounds,
    heap: BinaryHeap<SearchState>,
    seq: u64,
    /// Yielded matchings with raw weights, in yield order.
    yielded: Vec<Matching>,
    retained: f64,
    synthetic: bool,
    /// Mass accounting of the latest [`run`](Self::run).
    retained_mass: f64,
    discarded_mass: f64,
    /// Lazily computed exact total mass (see [`exact_total_mass`]).
    total_mass_cache: Option<Option<f64>>,
    /// The start of the current refine step (see [`StepMark`]).
    mark: StepMark,
}

impl FrontierEnumerator {
    /// A fresh enumerator over `component`, nothing yielded yet.
    pub fn new(component: Arc<Component>) -> Self {
        let live = live_candidates(&component);
        // Inclusions can never exceed the free endpoints on either side
        // (forced pairs already consumed theirs, and live candidates
        // avoid them by construction).
        let max_take = component
            .a_nodes
            .len()
            .min(component.b_nodes.len())
            .saturating_sub(component.forced.len());
        let bounds = SuffixBounds::new(&live, max_take);
        let mut heap = BinaryHeap::new();
        heap.push(SearchState {
            bound: bounds.remaining(0, max_take),
            seq: 0,
            idx: 0,
            weight: 1.0,
            taken: Arc::from(Vec::new()),
        });
        FrontierEnumerator {
            component,
            live,
            max_take,
            bounds,
            heap,
            seq: 0,
            yielded: Vec::new(),
            retained: 0.0,
            synthetic: false,
            retained_mass: 1.0,
            discarded_mass: 0.0,
            total_mass_cache: None,
            mark: StepMark::default(),
        }
    }

    /// Start a refine step here: from now on the enumerator records what
    /// [`encode_step`](Self::encode_step) needs to write the step's
    /// change as a delta.
    pub(crate) fn mark_step(&mut self) {
        self.mark = StepMark {
            seq: self.seq,
            yielded: self.yielded.len(),
            popped: Vec::new(),
        };
    }

    /// True when the search space is exhausted: the yielded matchings
    /// are the complete canonical enumeration.
    pub fn is_drained(&self) -> bool {
        self.heap.is_empty()
    }

    /// The component this enumerator searches.
    pub fn component(&self) -> &Arc<Component> {
        &self.component
    }

    /// Matchings yielded so far.
    pub fn kept(&self) -> usize {
        self.yielded.len()
    }

    /// Open search states on the heap.
    pub fn open_nodes(&self) -> usize {
        self.heap.len()
    }

    /// Live undecided pairs the search runs over.
    pub fn live_pairs(&self) -> usize {
        self.live.len()
    }

    /// Retained-mass figure of the latest run (`1.0` before any run).
    pub fn retained_mass(&self) -> f64 {
        self.retained_mass
    }

    /// Discarded-mass figure of the latest run (`0.0` before any run).
    pub fn discarded_mass(&self) -> f64 {
        self.discarded_mass
    }

    /// True when the latest run ended in the synthesised all-excluded
    /// fallback matching (see [`run_delta`](Self::run_delta)).
    pub fn is_synthetic(&self) -> bool {
        self.synthetic
    }

    /// Serialise the search state for the durable store (appends to
    /// `out`). The component itself is not written: the caller persists
    /// it alongside and hands it back to [`decode`](Self::decode).
    ///
    /// Open states are written in descending pop order, with their
    /// `taken` prefixes pooled, so the encoding is a pure function of
    /// the search state.
    pub fn encode(&self, out: &mut Vec<u8>) {
        use imprecise_pxml::codec::{put_f64, put_len, put_u64, put_u8};
        encode_states(self.heap.iter(), out);
        put_u64(out, self.seq);
        put_len(out, self.yielded.len());
        for m in &self.yielded {
            encode_matching(m, out);
        }
        put_f64(out, self.retained);
        put_u8(out, u8::from(self.synthetic));
        put_u64(out, component_digest(&self.component.forced, &self.live));
        put_len(out, self.live.len());
        put_f64(out, self.retained_mass);
        put_f64(out, self.discarded_mass);
    }

    /// Serialise what the current refine step changed (appends to
    /// `out`): the seqs of the open states it popped from before the
    /// step, the states it pushed that are still open, the matchings it
    /// yielded, and the new scalars. Costs O(delta) bytes; the open
    /// states that survived the step are not written.
    ///
    /// [`apply_step`](Self::apply_step) on the enumerator as it was at
    /// [`mark_step`](Self::mark_step) reproduces this one: the same
    /// [`encode`](Self::encode) bytes and the same future runs.
    pub(crate) fn encode_step(&self, out: &mut Vec<u8>) {
        use imprecise_pxml::codec::{put_f64, put_len, put_u64, put_u8};
        let mark = &self.mark;
        put_len(out, mark.popped.len());
        for &seq in &mark.popped {
            put_u64(out, seq);
        }
        encode_states(self.heap.iter().filter(|s| s.seq > mark.seq), out);
        put_u64(out, self.seq);
        put_len(out, mark.yielded);
        put_len(out, self.yielded.len() - mark.yielded);
        for m in &self.yielded[mark.yielded..] {
            encode_matching(m, out);
        }
        put_f64(out, self.retained);
        put_u8(out, u8::from(self.synthetic));
        put_f64(out, self.retained_mass);
        put_f64(out, self.discarded_mass);
    }

    /// Replay [`encode_step`](Self::encode_step) bytes on the enumerator
    /// the step started from. States that are not open, pushed states
    /// outside the step's seq range or outside the component, and a
    /// kept prefix longer than what is kept are typed errors.
    pub(crate) fn apply_step(&mut self, r: &mut Reader<'_>) -> Result<(), CodecError> {
        let base_seq = self.seq;
        let n_popped = r.take_len("popped state count")?;
        let mut popped = Vec::with_capacity(n_popped.min(1 << 20));
        for _ in 0..n_popped {
            popped.push(r.take_u64("popped state seq")?);
        }
        popped.sort_unstable();
        let mut open = std::mem::take(&mut self.heap).into_vec();
        let before = open.len();
        open.retain(|s| popped.binary_search(&s.seq).is_err());
        if before - open.len() != n_popped {
            return Err(r.err("popped states among the open ones"));
        }
        let pushed = decode_states(r)?;
        let next_seq = r.take_u64("next_seq")?;
        if pushed.iter().any(|s| s.seq <= base_seq || s.seq > next_seq) {
            return Err(r.err("pushed states within the step's seq range"));
        }
        self.check_open(&pushed, r)?;
        let kept = r.take_len("kept matching count")?;
        if kept > self.yielded.len() {
            return Err(r.err("kept matchings among the yielded ones"));
        }
        self.yielded.truncate(kept);
        let n_yielded = r.take_len("yielded count")?;
        for _ in 0..n_yielded {
            self.yielded.push(decode_matching(r)?);
        }
        self.retained = r.take_f64("retained")?;
        self.synthetic = crate::codec::take_bool(r, "synthetic flag")?;
        self.retained_mass = r.take_f64("retained mass")?;
        self.discarded_mass = r.take_f64("discarded mass")?;
        open.extend(pushed);
        self.heap = BinaryHeap::from(open);
        self.seq = next_seq;
        self.mark_step();
        Ok(())
    }

    /// Fail unless every state lies within this enumerator's component.
    fn check_open(&self, states: &[SearchState], r: &Reader<'_>) -> Result<(), CodecError> {
        if states
            .iter()
            .any(|s| s.idx > self.live.len() || s.taken.len() > self.max_take)
        {
            return Err(r.err("open states within their component"));
        }
        Ok(())
    }

    /// Decode a search state written by [`encode`](Self::encode) into an
    /// enumerator over `component`, positioned exactly where the
    /// encoding run stopped.
    ///
    /// The bytes record a content digest of the component that produced
    /// them (forced pairs plus every live candidate's endpoints and
    /// probability bits). Decoding against a different component, or
    /// bytes whose open states reach past it, is a typed [`CodecError`]
    /// — never a wrong enumeration or a later out-of-bounds panic.
    pub fn decode(r: &mut Reader<'_>, component: Arc<Component>) -> Result<Self, CodecError> {
        let open = decode_states(r)?;
        let next_seq = r.take_u64("next_seq")?;
        let n_yielded = r.take_len("yielded count")?;
        let mut yielded = Vec::with_capacity(n_yielded.min(1 << 20));
        for _ in 0..n_yielded {
            yielded.push(decode_matching(r)?);
        }
        let retained = r.take_f64("retained")?;
        let synthetic = crate::codec::take_bool(r, "synthetic flag")?;
        let digest = r.take_u64("component digest")?;
        let live_pairs = r.take_len("live pair count")?;
        let retained_mass = r.take_f64("retained mass")?;
        let discarded_mass = r.take_f64("discarded mass")?;
        let mut this = Self::new(component);
        if digest != component_digest(&this.component.forced, &this.live)
            || live_pairs != this.live.len()
        {
            return Err(r.err("frontier digest matching its component"));
        }
        this.check_open(&open, r)?;
        this.heap = BinaryHeap::from(open);
        this.seq = next_seq;
        this.yielded = yielded;
        this.retained = retained;
        this.synthetic = synthetic;
        this.retained_mass = retained_mass;
        this.discarded_mass = discarded_mass;
        this.mark_step();
        Ok(this)
    }

    /// Continue best-first enumeration until `budget` is satisfied and
    /// return the canonical form of *everything* yielded so far (this
    /// run and all previous ones): matchings in descending weight,
    /// renormalised over the kept set, with the unenumerated tail's mass
    /// accounted.
    ///
    /// `budget.max_matchings` counts total kept matchings — a resumed
    /// run that should add `k` more passes `kept() + k`. With
    /// [`MatchBudget::UNLIMITED`] the search drains completely and the
    /// result is bit-identical to [`enumerate_matchings`], no matter how
    /// many budgeted runs came before.
    pub fn run(&mut self, budget: &MatchBudget) -> BudgetedMatchings {
        self.run_delta(budget).0
    }

    /// [`run`](Self::run) for incremental emitters: the same canonical
    /// result (bit-identical weights — the sort and the normalisation sum
    /// are shared), plus a parallel flag vector marking which canonical
    /// entries were yielded by *this* call. A caller that already emitted
    /// the previous kept set only has to materialise the flagged entries
    /// and rescale the surviving siblings to the returned weights — the
    /// renormalisation factor is folded into every weight.
    ///
    /// When the previous run ended in the synthesised all-excluded
    /// fallback, that matching is discarded and re-derived honestly, so
    /// *every* entry comes back flagged new: emitters must replace, not
    /// extend, what they emitted for a synthetic frontier (they can tell
    /// by the flagged-old count no longer matching what they hold).
    ///
    /// # Determinism across stagings
    ///
    /// The search proceeds in *rounds*: a "certified" phase yields
    /// complete matchings while one sits at the top of the heap (no
    /// unexpanded state's admissible bound outranks it), then a batch —
    /// the maximal run of consecutive incomplete states at the top of
    /// the heap, capped at `EXPAND_BATCH` — is popped whole, and its
    /// children are pushed back in batch order with sequentially
    /// assigned tie-break numbers. Batch composition, `seq` numbering and
    /// every stop decision are pure functions of the heap's pop order,
    /// so the yielded matchings, the mass sums and the encoded search
    /// state are canonical properties of the component. Stops (budget,
    /// retained-mass, expansion valve) only ever fire between rounds
    /// with the heap intact, which is what makes a staged
    /// stop-and-resume replay the one-shot run exactly.
    pub fn run_delta(&mut self, budget: &MatchBudget) -> (BudgetedMatchings, Vec<bool>) {
        if self.synthetic {
            // Discard the synthesised fallback: the open states cover
            // the entire space (including the all-excluded matching), so
            // continuing the search re-derives it honestly.
            self.yielded.clear();
            self.retained = 0.0;
            self.synthetic = false;
            self.mark.yielded = 0;
        }
        let watermark = self.yielded.len();
        let live_len = self.live.len();
        // Safety valve: with the ratio-capped bound the search dives
        // almost straight at complete matchings, but a pathological
        // component could still explore far more partial states than it
        // yields; cap the expansions (never active when unlimited, never
        // before the first matching) and fall back to honest mass
        // accounting for whatever was not reached.
        let max_expansions = if budget.max_matchings == usize::MAX {
            usize::MAX
        } else {
            budget
                .max_matchings
                .saturating_mul(live_len.max(1))
                .saturating_mul(8)
                .max(1 << 14)
                // Round-based expansion explores up to one batch of
                // breadth per depth level before the first completion
                // (a uniform-p tie plateau is the worst case), so the
                // valve floor must scale with the batch size too.
                .max(
                    EXPAND_BATCH
                        .saturating_mul(live_len.max(1))
                        .saturating_mul(4),
                )
        };
        let mut stats = SearchStats::default();
        if self.yielded.len() < budget.max_matchings {
            self.drive(budget, max_expansions, &mut stats);
        }
        if self.yielded.is_empty() {
            // The expansion valve fired before any complete matching was
            // reached (a pathological bound landscape): fall back to the
            // one matching that always exists — everything excluded.
            self.retained = self.bounds.base[0];
            self.yielded.push(Matching {
                pairs: self.component.forced.clone(),
                weight: self.retained,
            });
            self.synthetic = true;
        }
        // The enumeration is complete exactly when the frontier drained;
        // then the kept matchings carry everything regardless of float
        // residue in the mass figures.
        let truncated = !self.heap.is_empty();
        let (retained_mass, discarded_mass) = if !truncated {
            (1.0, 0.0)
        } else {
            match self.total_mass() {
                // Exact: the tail mass is the total minus what was kept
                // (clamped — the two are summed in different orders).
                Some(z) if z > 0.0 => {
                    let kept = (self.retained / z).clamp(0.0, 1.0);
                    (kept, 1.0 - kept)
                }
                // Conservative: the frontier bound over-estimates the
                // tail.
                _ => {
                    let pending = frontier_mass(&self.heap);
                    let total = self.retained + pending;
                    (self.retained / total, pending / total)
                }
            }
        };
        self.retained_mass = retained_mass;
        self.discarded_mass = discarded_mass;
        let (matchings, is_new) = canonicalise_tagged(self.yielded.clone(), watermark);
        (
            BudgetedMatchings {
                matchings,
                live_pairs: live_len,
                retained_mass,
                discarded_mass,
                truncated,
                frontier_nodes: self.heap.len(),
                search: stats,
            },
            is_new,
        )
    }

    /// The round loop of [`run_delta`](Self::run_delta): certified
    /// yields, batch selection, then the batch's children pushed back in
    /// batch order.
    fn drive(&mut self, budget: &MatchBudget, max_expansions: usize, stats: &mut SearchStats) {
        let live_len = self.live.len();
        // Without an exact total, early-stop checks cost O(frontier), so
        // they run at exponentially spaced yield counts — total checking
        // cost stays linear, at the price of overshooting the requested
        // mass by at most one doubling of the kept matchings.
        let mut next_mass_check = MASS_STOP_FLOOR;
        let mut expansions = 0usize;
        loop {
            // Certified phase: while the globally best open state is a
            // complete matching, no unexpanded state's admissible bound
            // outranks it — yield it. Every stop (budget, retained
            // mass, valve) fires between rounds with the heap intact
            // and no half-expanded batch in flight, so a staged
            // stop-and-resume replays the remaining rounds bit for bit.
            while self.heap.peek().is_some_and(|s| s.idx == live_len) {
                let Some(state) = self.heap.pop() else { break };
                stats.popped += 1;
                self.mark.popped(state.seq);
                let mut pairs = self.component.forced.to_vec();
                pairs.extend_from_slice(&state.taken);
                pairs.sort_unstable();
                self.retained += state.weight;
                self.yielded.push(Matching {
                    pairs,
                    weight: state.weight,
                });
                if self.yielded.len() >= budget.max_matchings {
                    return;
                }
                if let Some(t) = budget.min_retained_mass {
                    if self.yielded.len() >= MASS_STOP_FLOOR {
                        match self.total_mass() {
                            Some(z) => {
                                if self.retained >= t * z {
                                    return;
                                }
                            }
                            None => {
                                if self.yielded.len() >= next_mass_check {
                                    next_mass_check = self.yielded.len().saturating_mul(2);
                                    let pending = frontier_mass(&self.heap);
                                    if self.retained / (self.retained + pending) >= t {
                                        return;
                                    }
                                }
                            }
                        }
                    }
                }
            }
            // Batch selection: pop a run of *consecutive* incomplete
            // states off the top of the heap, capped at the batch size.
            // Two canonical cutoffs keep the batch work-optimal:
            //
            // * a complete matching surfacing at the top ends the run —
            //   every batched incomplete outranked it (pop order
            //   descends under admissible bounds), but nothing below it
            //   can outrank it except this batch's own children, so
            //   expanding past it would do work the certified phase may
            //   be about to make unnecessary;
            // * an exact `(bound, idx)` tie run longer than
            //   [`TIE_WIDTH`] ends the run — on a tie plateau (uniform
            //   probabilities make these common) a depth-first dive
            //   reaches complete matchings through one tied branch at a
            //   time, and a wide batch would instead materialise the
            //   whole exponential breadth of the plateau; capping the
            //   tied take keeps the dive, [`TIE_WIDTH`] branches
            //   abreast.
            //
            // Both cutoffs read only the heap's pop order and constants
            // — never the budget — so the expansion schedule (and with
            // it every seq number, yield and frontier) stays a canonical
            // property of the component, identical across stagings.
            let target = EXPAND_BATCH.min(max_expansions - expansions);
            if target == 0 {
                // The expansion valve fired. The heap is intact, so the
                // final accounting still sees every subtree's mass. (If
                // nothing complete was reached yet, the caller
                // synthesises the all-excluded matching.)
                return;
            }
            let mut batch = Vec::with_capacity(TIE_WIDTH.min(self.heap.len()));
            let mut tie_key = (0u64, 0usize);
            let mut tie_run = 0usize;
            while batch.len() < target {
                match self.heap.peek() {
                    Some(s) if s.idx == live_len => {
                        // The certified phase pops completes off the
                        // top, so a cutoff always strikes a non-empty
                        // batch.
                        stats.cutoffs += 1;
                        break;
                    }
                    Some(s) => {
                        let key = (s.bound.to_bits(), s.idx);
                        if tie_run > 0 && key == tie_key {
                            tie_run += 1;
                            if tie_run > TIE_WIDTH {
                                break;
                            }
                        } else {
                            tie_key = key;
                            tie_run = 1;
                        }
                        let Some(s) = self.heap.pop() else { break };
                        stats.popped += 1;
                        self.mark.popped(s.seq);
                        batch.push(s);
                    }
                    None => break,
                }
            }
            if batch.is_empty() {
                // Drained: the certified phase consumed every complete
                // state above this point, so an empty batch means an
                // empty heap.
                return;
            }
            expansions += batch.len();
            stats.expanded += batch.len() as u64;
            stats.rounds += 1;
            // Expand the whole popped batch, in batch order: the
            // exclude child, then the include child, each numbered by
            // the next `seq`.
            for state in batch {
                let c = self.live[state.idx];
                let idx = state.idx + 1;
                let takeable = self.max_take - state.taken.len();
                // Include edge idx when both endpoints are free; a
                // blocked inclusion's mass never existed among valid
                // matchings, so it simply vanishes from the frontier
                // (tightening the bound).
                let free = takeable > 0 && !state.taken.iter().any(|&(a, b)| a == c.a || b == c.b);
                let include = free.then(|| {
                    let weight = state.weight * c.p;
                    let mut taken = Vec::with_capacity(state.taken.len() + 1);
                    taken.extend_from_slice(&state.taken);
                    taken.push((c.a, c.b));
                    let bound = weight * self.bounds.remaining(idx, takeable - 1);
                    (bound, weight, Arc::from(taken))
                });
                // Exclude edge idx: the child reuses the parent's prefix.
                let weight = state.weight * (1.0 - c.p);
                self.seq += 1;
                self.heap.push(SearchState {
                    bound: weight * self.bounds.remaining(idx, takeable),
                    seq: self.seq,
                    idx,
                    weight,
                    taken: state.taken,
                });
                if let Some((bound, weight, taken)) = include {
                    self.seq += 1;
                    self.heap.push(SearchState {
                        bound,
                        seq: self.seq,
                        idx,
                        weight,
                        taken,
                    });
                }
            }
        }
    }

    /// The exact total matching mass, when the component is small enough
    /// for the bitmask DP: makes both the `min_retained_mass` stop and
    /// the final discarded-mass figure exact. Computed lazily — a run
    /// that completes without truncation (the common case) never pays
    /// for the DP.
    fn total_mass(&mut self) -> Option<f64> {
        let live = &self.live;
        *self
            .total_mass_cache
            .get_or_insert_with(|| exact_total_mass(live))
    }
}

/// How many of the best open (incomplete) states one expansion round
/// pops before it pushes any child back. The pop/expansion schedule —
/// and with it every yielded matching, mass sum and encoded search
/// state — follows from this constant, so changing it changes
/// published bytes and the meaning of stored frontiers.
const EXPAND_BATCH: usize = 256;

/// How many *exactly tied* `(bound, depth)` states one batch may take
/// before cutting the round short. On tie plateaus this reproduces the
/// sequential search's depth-first dive — this many branches abreast —
/// instead of materialising the plateau's exponential breadth. A fixed
/// constant for the same reason as [`EXPAND_BATCH`]: the batch schedule
/// must be a pure function of the heap's pop order.
const TIE_WIDTH: usize = 8;

/// Fallback frontier bound: each open state's subtree mass is at most
/// its weight (remaining factors sum to at most 1 per candidate, and
/// injectivity only removes terms). The weights are summed in ascending
/// `total_cmp` order — a canonical order independent of the heap's
/// physical layout, which differs between a live resident enumerator
/// and one decoded from bytes (heapify) even when the open set is
/// identical; sorting first keeps the mass figures bitwise
/// equal across that boundary. Recomputed from the heap on demand — an
/// incrementally maintained running sum would be destroyed by
/// floating-point absorption once weights shrink tens of orders of
/// magnitude below the root's 1.0.
fn frontier_mass(heap: &BinaryHeap<SearchState>) -> f64 {
    let mut weights: Vec<f64> = heap.iter().map(|s| s.weight).collect();
    weights.sort_unstable_by(|a, b| a.total_cmp(b));
    // lint:allow(float-accumulation, summed in ascending total_cmp order — canonical and independent of heap layout)
    weights.iter().sum::<f64>()
}

#[allow(clippy::too_many_arguments)]
fn recurse(
    live: &[Candidate],
    i: usize,
    weight: f64,
    taken: &mut Vec<(usize, usize)>,
    out: &mut Vec<Matching>,
    cap: usize,
    err: &mut Option<TooManyMatchings>,
    component: &Component,
) {
    if err.is_some() {
        return;
    }
    if i == live.len() {
        if out.len() >= cap {
            *err = Some(TooManyMatchings {
                component_pairs: live.len(),
                cap,
                path: String::new(),
            });
            return;
        }
        let mut pairs = component.forced.clone();
        pairs.extend_from_slice(taken);
        pairs.sort_unstable();
        out.push(Matching { pairs, weight });
        return;
    }
    let c = live[i];
    // Exclude edge i.
    recurse(
        live,
        i + 1,
        weight * (1.0 - c.p),
        taken,
        out,
        cap,
        err,
        component,
    );
    // Include edge i when both endpoints are free.
    let free = !taken.iter().any(|&(a, b)| a == c.a || b == c.b);
    if free {
        taken.push((c.a, c.b));
        recurse(live, i + 1, weight * c.p, taken, out, cap, err, component);
        taken.pop();
    }
}

/// Closed-form count of matchings of the complete bipartite graph
/// `n × m`: `Σ_k C(n,k)·C(m,k)·k!`. Used by tests and by the experiment
/// harnesses to report the theoretical possibility count.
pub fn complete_bipartite_matchings(n: u64, m: u64) -> u128 {
    let k_max = n.min(m);
    let mut total: u128 = 0;
    for k in 0..=k_max {
        total = total.saturating_add(
            binomial(n, k)
                .saturating_mul(binomial(m, k))
                .saturating_mul(factorial(k)),
        );
    }
    total
}

fn binomial(n: u64, k: u64) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut num: u128 = 1;
    for i in 0..k {
        num = num.saturating_mul((n - i) as u128) / (i + 1) as u128;
    }
    num
}

fn factorial(k: u64) -> u128 {
    (1..=k as u128).fold(1u128, |acc, x| acc.saturating_mul(x))
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

    /// One budgeted run of a fresh enumerator over `c`.
    fn budgeted(c: &Component, budget: &MatchBudget) -> BudgetedMatchings {
        FrontierEnumerator::new(Arc::new(c.clone())).run(budget)
    }

    /// Encode `en` and decode the bytes against `component`.
    fn decode_against(
        en: &FrontierEnumerator,
        component: Component,
    ) -> Result<FrontierEnumerator, CodecError> {
        let mut bytes = Vec::new();
        en.encode(&mut bytes);
        let mut r = Reader::new(&bytes);
        let decoded = FrontierEnumerator::decode(&mut r, Arc::new(component))?;
        r.finish()?;
        Ok(decoded)
    }

    #[test]
    fn closed_form_counts() {
        assert_eq!(complete_bipartite_matchings(1, 1), 2);
        assert_eq!(complete_bipartite_matchings(2, 2), 7);
        assert_eq!(complete_bipartite_matchings(3, 3), 34);
        assert_eq!(complete_bipartite_matchings(6, 6), 13_327);
        assert_eq!(complete_bipartite_matchings(2, 20), 421);
        assert_eq!(complete_bipartite_matchings(0, 5), 1);
    }

    #[test]
    fn enumeration_matches_closed_form() {
        for (n, m) in [(1, 1), (2, 2), (2, 3), (3, 3), (2, 5)] {
            let c = full_graph(n, m, 0.5);
            let matchings = enumerate_matchings(&c, 1_000_000).unwrap();
            assert_eq!(
                matchings.len() as u128,
                complete_bipartite_matchings(n as u64, m as u64),
                "{n}x{m}"
            );
        }
    }

    #[test]
    fn weights_normalise_to_one() {
        let c = full_graph(2, 2, 0.3);
        let matchings = enumerate_matchings(&c, 1000).unwrap();
        let total: f64 = matchings.iter().map(|m| m.weight).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_probability_gives_uniform_matchings() {
        // p = 0.5 makes every matching weight (0.5)^|edges|, uniform.
        let c = full_graph(2, 2, 0.5);
        let matchings = enumerate_matchings(&c, 1000).unwrap();
        assert_eq!(matchings.len(), 7);
        for m in &matchings {
            assert!((m.weight - 1.0 / 7.0).abs() < 1e-12);
        }
    }

    #[test]
    fn high_probability_favours_larger_matchings() {
        let c = full_graph(1, 1, 0.9);
        let matchings = enumerate_matchings(&c, 10).unwrap();
        assert_eq!(matchings.len(), 2);
        let empty = matchings.iter().find(|m| m.pairs.is_empty()).unwrap();
        let taken = matchings.iter().find(|m| !m.pairs.is_empty()).unwrap();
        assert!((taken.weight - 0.9).abs() < 1e-12);
        assert!((empty.weight - 0.1).abs() < 1e-12);
    }

    #[test]
    fn forced_pairs_appear_in_every_matching() {
        let c = Component {
            a_nodes: vec![0, 1],
            b_nodes: vec![0, 1],
            forced: vec![(0, 0)],
            possible: vec![Candidate { a: 1, b: 1, p: 0.5 }],
        };
        let matchings = enumerate_matchings(&c, 100).unwrap();
        assert_eq!(matchings.len(), 2);
        for m in &matchings {
            assert!(m.pairs.contains(&(0, 0)));
        }
    }

    #[test]
    fn dead_candidates_are_pruned() {
        // (0,0) forced; candidate (0,1) can never be taken.
        let c = Component {
            a_nodes: vec![0],
            b_nodes: vec![0, 1],
            forced: vec![(0, 0)],
            possible: vec![Candidate { a: 0, b: 1, p: 0.7 }],
        };
        let matchings = enumerate_matchings(&c, 100).unwrap();
        assert_eq!(matchings.len(), 1);
        assert!((matchings[0].weight - 1.0).abs() < 1e-12);
        assert_eq!(matchings[0].pairs, vec![(0, 0)]);
    }

    #[test]
    fn injectivity_is_enforced() {
        // Two candidates sharing a left node can never both be taken.
        let c = Component {
            a_nodes: vec![0],
            b_nodes: vec![0, 1],
            forced: vec![],
            possible: vec![
                Candidate { a: 0, b: 0, p: 0.5 },
                Candidate { a: 0, b: 1, p: 0.5 },
            ],
        };
        let matchings = enumerate_matchings(&c, 100).unwrap();
        // ∅, {(0,0)}, {(0,1)} — not both.
        assert_eq!(matchings.len(), 3);
        for m in &matchings {
            assert!(m.pairs.len() <= 1);
        }
    }

    #[test]
    fn cap_is_enforced() {
        let c = full_graph(3, 3, 0.5);
        let err = enumerate_matchings(&c, 10).unwrap_err();
        assert_eq!(err.cap, 10);
    }

    #[test]
    fn component_split_groups_connected_elements() {
        // Edges: (0,0), (1,0) → one component {a0,a1,b0}; a2, b1 isolated.
        let possible = vec![
            Candidate { a: 0, b: 0, p: 0.5 },
            Candidate { a: 1, b: 0, p: 0.5 },
        ];
        let comps = split_components(3, 2, &[], &possible);
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0].a_nodes, vec![0, 1]);
        assert_eq!(comps[0].b_nodes, vec![0]);
        assert_eq!(comps[0].possible.len(), 2);
        assert_eq!(comps[1].a_nodes, vec![2]);
        assert!(comps[1].b_nodes.is_empty());
        assert_eq!(comps[2].b_nodes, vec![1]);
        assert!(comps[2].a_nodes.is_empty());
    }

    #[test]
    fn forced_edges_also_connect() {
        let comps = split_components(2, 2, &[(0, 1)], &[]);
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0].a_nodes, vec![0]);
        assert_eq!(comps[0].b_nodes, vec![1]);
        assert_eq!(comps[0].forced, vec![(0, 1)]);
    }

    #[test]
    fn empty_group_is_one_empty_matching() {
        let c = Component {
            a_nodes: vec![0],
            b_nodes: vec![],
            forced: vec![],
            possible: vec![],
        };
        let matchings = enumerate_matchings(&c, 10).unwrap();
        assert_eq!(matchings.len(), 1);
        assert!(matchings[0].pairs.is_empty());
        assert!((matchings[0].weight - 1.0).abs() < 1e-12);
    }

    #[test]
    fn matchings_come_out_heaviest_first() {
        let c = full_graph(2, 2, 0.8);
        let matchings = enumerate_matchings(&c, 1000).unwrap();
        assert!(matchings
            .windows(2)
            .all(|w| w[0].weight >= w[1].weight - 1e-15));
        // The heaviest matching of a high-p graph is a maximum matching.
        assert_eq!(matchings[0].pairs.len(), 2);
    }

    #[test]
    fn unlimited_budget_equals_exhaustive_bitwise() {
        for (n, m, p) in [(2, 2, 0.3), (3, 3, 0.7), (2, 5, 0.5), (4, 3, 0.9)] {
            let c = full_graph(n, m, p);
            let exhaustive = enumerate_matchings(&c, usize::MAX).unwrap();
            let budgeted = budgeted(&c, &MatchBudget::UNLIMITED);
            assert!(!budgeted.truncated);
            assert_eq!(budgeted.retained_mass, 1.0);
            assert_eq!(budgeted.discarded_mass, 0.0);
            assert_eq!(budgeted.matchings.len(), exhaustive.len());
            for (a, b) in budgeted.matchings.iter().zip(&exhaustive) {
                assert_eq!(a.pairs, b.pairs);
                assert_eq!(a.weight.to_bits(), b.weight.to_bits(), "{n}x{m} p={p}");
            }
        }
    }

    /// A full bipartite graph whose edge probabilities are all distinct,
    /// so every matching weight is distinct and the top-K is unique.
    fn graded_graph(n: usize, m: usize) -> Component {
        let mut possible = Vec::new();
        for a in 0..n {
            for b in 0..m {
                possible.push(Candidate {
                    a,
                    b,
                    p: 0.30 + 0.047 * (a * m + b) as f64,
                });
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
    fn budget_keeps_the_heaviest_matchings() {
        let c = graded_graph(3, 3);
        let all = enumerate_matchings(&c, usize::MAX).unwrap();
        let kept = budgeted(
            &c,
            &MatchBudget {
                max_matchings: 5,
                min_retained_mass: None,
            },
        );
        assert!(kept.truncated);
        assert_eq!(kept.matchings.len(), 5);
        // The kept set is exactly the 5 heaviest of the full enumeration
        // (comparing unnormalised rank via the pair lists).
        for (k, a) in kept.matchings.iter().zip(&all) {
            assert_eq!(k.pairs, a.pairs);
        }
        // Renormalised among themselves…
        let total: f64 = kept.matchings.iter().map(|m| m.weight).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // …with the dropped mass accounted.
        assert!(kept.discarded_mass > 0.0);
        assert!((kept.retained_mass + kept.discarded_mass - 1.0).abs() < 1e-12);
        // The bound is conservative: true retained mass ≥ reported.
        let true_retained: f64 = all[..5].iter().map(|m| m.weight).sum();
        assert!(kept.retained_mass <= true_retained + 1e-12);
    }

    #[test]
    fn min_retained_mass_stops_early() {
        let c = full_graph(3, 3, 0.2);
        let result = budgeted(
            &c,
            &MatchBudget {
                max_matchings: usize::MAX,
                min_retained_mass: Some(0.6),
            },
        );
        assert!(result.truncated);
        assert!(result.retained_mass >= 0.6, "{}", result.retained_mass);
        assert!(result.matchings.len() < 34, "did not stop early");
    }

    #[test]
    fn budgeted_empty_component_is_one_empty_matching() {
        let c = Component {
            a_nodes: vec![0],
            b_nodes: vec![],
            forced: vec![],
            possible: vec![],
        };
        let result = budgeted(
            &c,
            &MatchBudget {
                max_matchings: 1,
                min_retained_mass: None,
            },
        );
        assert!(!result.truncated);
        assert_eq!(result.matchings.len(), 1);
        assert!(result.matchings[0].pairs.is_empty());
        assert_eq!(result.discarded_mass, 0.0);
    }

    #[test]
    fn budgeted_respects_forced_pairs() {
        let c = Component {
            a_nodes: vec![0, 1],
            b_nodes: vec![0, 1],
            forced: vec![(0, 0)],
            possible: vec![Candidate { a: 1, b: 1, p: 0.5 }],
        };
        let result = budgeted(
            &c,
            &MatchBudget {
                max_matchings: 1,
                min_retained_mass: None,
            },
        );
        assert_eq!(result.matchings.len(), 1);
        assert!(result.matchings[0].pairs.contains(&(0, 0)));
        assert!((result.retained_mass - 0.5).abs() < 1e-9);
    }

    #[test]
    fn uniform_probability_plateau_stays_fast() {
        // p = 0.5 everywhere makes every inclusion ratio 1.0, so every
        // search-state bound ties — the tie-break must dive (depth
        // first) instead of materialising the exponential frontier
        // breadth-first. A 10×10 component has ~2.3e10 matchings; a
        // budget of 16 must return promptly with sane accounting.
        let c = full_graph(10, 10, 0.5);
        let result = budgeted(
            &c,
            &MatchBudget {
                max_matchings: 16,
                min_retained_mass: None,
            },
        );
        assert_eq!(result.matchings.len(), 16);
        assert!(result.truncated);
        assert!(result.discarded_mass > 0.0);
        assert!((result.retained_mass + result.discarded_mass - 1.0).abs() < 1e-9);
    }

    fn budget(max: usize) -> MatchBudget {
        MatchBudget {
            max_matchings: max,
            min_retained_mass: None,
        }
    }

    #[test]
    fn resumed_enumeration_matches_exhaustive_bitwise() {
        for (n, m, p) in [(3, 3, 0.7), (4, 3, 0.35), (4, 4, 0.5)] {
            let c = full_graph(n, m, p);
            let exhaustive = enumerate_matchings(&c, usize::MAX).unwrap();
            // Truncate, encode, decode, run to completion.
            let mut first = FrontierEnumerator::new(Arc::new(c.clone()));
            let partial = first.run(&budget(5));
            assert!(partial.truncated);
            assert_eq!(partial.frontier_nodes, first.open_nodes());
            assert_eq!(first.kept(), 5);
            let mut resumed = decode_against(&first, c.clone()).expect("same component");
            let full = resumed.run(&MatchBudget::UNLIMITED);
            assert!(resumed.is_drained());
            assert!(!full.truncated);
            assert_eq!(full.frontier_nodes, 0);
            assert_eq!(full.matchings.len(), exhaustive.len(), "{n}x{m} p={p}");
            for (a, b) in full.matchings.iter().zip(&exhaustive) {
                assert_eq!(a.pairs, b.pairs);
                assert_eq!(a.weight.to_bits(), b.weight.to_bits(), "{n}x{m} p={p}");
            }
        }
    }

    #[test]
    fn staged_resumes_shrink_discarded_mass_monotonically() {
        // A 4×4 graph with distinct probabilities strictly inside (0, 1).
        let mut possible = Vec::new();
        for a in 0..4usize {
            for b in 0..4usize {
                possible.push(Candidate {
                    a,
                    b,
                    p: 0.15 + 0.05 * (a * 4 + b) as f64,
                });
            }
        }
        let c = Component {
            a_nodes: (0..4).collect(),
            b_nodes: (0..4).collect(),
            forced: Vec::new(),
            possible,
        };
        let mut en = FrontierEnumerator::new(Arc::new(c.clone()));
        let mut last = en.run(&budget(3));
        assert!(last.truncated);
        let mut steps = 0;
        // Round-trip through the encoded bytes every step.
        while !en.is_drained() {
            en = decode_against(&en, c.clone()).expect("same component");
            let next = en.run(&budget(en.kept() + 7));
            assert!(
                next.discarded_mass <= last.discarded_mass + 1e-12,
                "discarded mass grew: {} -> {}",
                last.discarded_mass,
                next.discarded_mass
            );
            assert!((next.retained_mass + next.discarded_mass - 1.0).abs() < 1e-9);
            // Kept weights stay a proper distribution at every stage.
            let total: f64 = next.matchings.iter().map(|m| m.weight).sum();
            assert!((total - 1.0).abs() < 1e-9);
            if en.is_drained() {
                assert_eq!(next.discarded_mass, 0.0);
                break;
            }
            last = next;
            steps += 1;
            assert!(steps < 1000, "refinement failed to converge");
        }
        assert!(steps >= 1, "budget 3 on 209 matchings must need stages");
    }

    #[test]
    fn decode_rejects_foreign_component() {
        let c = graded_graph(3, 3);
        let mut en = FrontierEnumerator::new(Arc::new(c.clone()));
        en.run(&budget(2));
        let err = decode_against(&en, full_graph(2, 2, 0.5))
            .expect_err("mismatched component must be rejected");
        assert_eq!(err.expected, "frontier digest matching its component");
        // Same shape and live-pair count, different probabilities: the
        // content digest still rejects it.
        let err = decode_against(&en, full_graph(3, 3, 0.4))
            .expect_err("lookalike component must be rejected");
        assert_eq!(err.expected, "frontier digest matching its component");
        decode_against(&en, c).expect("own component decodes");
    }

    #[test]
    fn decode_rejects_open_states_past_the_component() {
        // A fresh enumerator encodes a one-entry pool holding the empty
        // prefix, then one open root state whose idx sits at byte 24.
        let c = graded_graph(3, 3);
        let mut bytes = Vec::new();
        FrontierEnumerator::new(Arc::new(c.clone())).encode(&mut bytes);
        assert_eq!(bytes[24..32], 0u64.to_le_bytes());
        bytes[24..32].copy_from_slice(&100u64.to_le_bytes());
        let err = FrontierEnumerator::decode(&mut Reader::new(&bytes), Arc::new(c))
            .expect_err("an open state past the last candidate must be rejected");
        assert_eq!(err.expected, "open states within their component");
    }

    #[test]
    fn too_many_matchings_reports_path() {
        let err = TooManyMatchings {
            component_pairs: 9,
            cap: 4,
            path: "/catalog/movie".into(),
        };
        assert!(err.to_string().contains("/catalog/movie"), "{err}");
        let bare = TooManyMatchings {
            component_pairs: 9,
            cap: 4,
            path: String::new(),
        };
        assert!(!bare.to_string().contains(" at "), "{bare}");
    }

    #[test]
    fn chain_component_counts() {
        // a0-b0, a1-b0, a1-b1: matchings: ∅, {a0b0}, {a1b0}, {a1b1},
        // {a0b0,a1b1} = 5.
        let possible = vec![
            Candidate { a: 0, b: 0, p: 0.5 },
            Candidate { a: 1, b: 0, p: 0.5 },
            Candidate { a: 1, b: 1, p: 0.5 },
        ];
        let c = Component {
            a_nodes: vec![0, 1],
            b_nodes: vec![0, 1],
            forced: vec![],
            possible,
        };
        let matchings = enumerate_matchings(&c, 100).unwrap();
        assert_eq!(matchings.len(), 5);
    }

    /// A 4×4 graph with distinct probabilities strictly inside (0, 1)
    /// (unlike `graded_graph(4, 4)`, whose last edges exceed 1).
    fn proper_graph44() -> Component {
        let mut possible = Vec::new();
        for a in 0..4usize {
            for b in 0..4usize {
                possible.push(Candidate {
                    a,
                    b,
                    p: 0.15 + 0.05 * (a * 4 + b) as f64,
                });
            }
        }
        Component {
            a_nodes: (0..4).collect(),
            b_nodes: (0..4).collect(),
            forced: Vec::new(),
            possible,
        }
    }

    #[test]
    fn run_delta_flags_exactly_the_new_matchings() {
        let c = proper_graph44();
        let mut en = FrontierEnumerator::new(Arc::new(c.clone()));
        let first = en.run(&budget(5));
        assert!(first.truncated);
        let first_pairs: Vec<Vec<(usize, usize)>> =
            first.matchings.iter().map(|m| m.pairs.clone()).collect();
        let (next, is_new) = en.run_delta(&budget(5 + 4));
        assert_eq!(next.matchings.len(), 9);
        assert_eq!(is_new.len(), next.matchings.len());
        assert_eq!(is_new.iter().filter(|&&n| n).count(), 4);
        // Old entries are exactly the first run's matchings (same pairs),
        // rescaled; new ones were not in the first kept set.
        for (m, &fresh) in next.matchings.iter().zip(&is_new) {
            assert_eq!(!first_pairs.contains(&m.pairs), fresh, "{:?}", m.pairs);
        }
        // Bitwise agreement with a single-shot run over the same budget:
        // the delta form only adds provenance, never changes weights.
        let oneshot = FrontierEnumerator::new(Arc::new(c.clone())).run(&budget(9));
        for (a, b) in next.matchings.iter().zip(&oneshot.matchings) {
            assert_eq!(a.pairs, b.pairs);
            assert_eq!(a.weight.to_bits(), b.weight.to_bits());
        }
    }

    #[test]
    fn run_delta_survives_the_frontier_round_trip() {
        let c = proper_graph44();
        let mut en = FrontierEnumerator::new(Arc::new(c.clone()));
        en.run(&budget(3));
        let mut resumed = decode_against(&en, c.clone()).expect("same component");
        let (full, is_new) = resumed.run_delta(&MatchBudget::UNLIMITED);
        assert!(!full.truncated);
        assert_eq!(is_new.iter().filter(|&&n| !n).count(), 3);
        let exhaustive = enumerate_matchings(&c, usize::MAX).unwrap();
        for (a, b) in full.matchings.iter().zip(&exhaustive) {
            assert_eq!(a.weight.to_bits(), b.weight.to_bits());
        }
    }

    #[test]
    fn log_domain_mass_agrees_with_the_ratio_table() {
        for c in [proper_graph44(), full_graph(3, 5, 0.42)] {
            let live = live_candidates(&c);
            let sides = MassSides::of(&live);
            let ratio = exact_total_mass_ratio(&live, &sides);
            let log = exact_total_mass_log(&live, &sides);
            assert!(
                ((ratio - log) / ratio).abs() < 1e-12,
                "ratio {ratio} vs log {log}"
            );
        }
    }

    #[test]
    fn log_domain_mass_extends_past_the_dense_cap() {
        // Six disjoint 3×3 gadgets: an 18-node smaller side (past the
        // dense ratio table's 16) whose exact mass is the product of the
        // per-gadget masses, each small enough for the ratio table.
        let gadget_edges = |g: usize| -> Vec<Candidate> {
            let mut edges = Vec::new();
            for i in 0..3usize {
                for j in 0..3usize {
                    edges.push(Candidate {
                        a: 3 * g + i,
                        b: 3 * g + j,
                        p: 0.2 + 0.09 * ((g + 3 * i + j) % 7) as f64,
                    });
                }
            }
            edges
        };
        let mut possible = Vec::new();
        let mut expected = 1.0f64;
        for g in 0..6 {
            let edges = gadget_edges(g);
            let sides = MassSides::of(&edges);
            expected *= exact_total_mass_ratio(&edges, &sides);
            possible.extend(edges);
        }
        let got = exact_total_mass(&possible).expect("log-domain scan covers 18 nodes");
        assert!(
            ((got - expected) / expected).abs() < 1e-9,
            "got {got}, expected {expected}"
        );
    }

    #[test]
    fn mass_past_the_log_cap_stays_conservative() {
        // 21 disjoint edges: both sides have 21 nodes, past every exact
        // cap — callers get the conservative frontier bound.
        let possible: Vec<Candidate> = (0..21).map(|i| Candidate { a: i, b: i, p: 0.5 }).collect();
        assert_eq!(exact_total_mass(&possible), None);
    }

    /// Shared-state audit: a live enumerator is kept resident inside
    /// `RefineState`, which crosses threads behind an `Arc` in the
    /// engine — it must be plain `Send + Sync` data (its `Arc`-shared
    /// prefixes are immutable; nothing inside locks).
    #[test]
    fn enumerator_is_plain_shared_data() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FrontierEnumerator>();
        assert_send_sync::<SearchStats>();
        assert_send_sync::<Parallelism>();
    }

    /// A 5×5 graph with distinct probabilities: 25 live pairs and a
    /// unique top-K at every budget.
    fn graph55() -> Component {
        let mut possible = Vec::new();
        for a in 0..5usize {
            for b in 0..5usize {
                possible.push(Candidate {
                    a,
                    b,
                    p: 0.10 + 0.031 * (a * 5 + b) as f64,
                });
            }
        }
        Component {
            a_nodes: (0..5).collect(),
            b_nodes: (0..5).collect(),
            forced: Vec::new(),
            possible,
        }
    }

    /// Two staged installments leave the enumerator exactly where one
    /// run over the summed budget does: same matchings and flags, same
    /// mass figures, the staged work counters summing to the one-shot
    /// ones, and the same encoded bytes.
    #[test]
    fn run_delta_staged_installments_equal_one_shot_bitwise() {
        let c = Arc::new(graph55());
        let mut staged = FrontierEnumerator::new(Arc::clone(&c));
        let (first, first_new) = staged.run_delta(&budget(40));
        let (second, second_new) = staged.run_delta(&budget(40 + 33));
        assert!(!staged.is_drained(), "still truncated");
        assert!(first_new.iter().all(|&n| n));
        assert_eq!(second_new.iter().filter(|&&n| n).count(), 33);
        let mut one_shot = FrontierEnumerator::new(Arc::clone(&c));
        let (whole, whole_new) = one_shot.run_delta(&budget(40 + 33));
        assert!(whole_new.iter().all(|&n| n));
        assert_eq!(second.matchings.len(), whole.matchings.len());
        for (a, b) in second.matchings.iter().zip(&whole.matchings) {
            assert_eq!(a.pairs, b.pairs);
            assert_eq!(a.weight.to_bits(), b.weight.to_bits());
        }
        assert_eq!(
            second.retained_mass.to_bits(),
            whole.retained_mass.to_bits()
        );
        assert_eq!(
            second.discarded_mass.to_bits(),
            whole.discarded_mass.to_bits()
        );
        assert_eq!(second.frontier_nodes, whole.frontier_nodes);
        let mut summed = first.search;
        summed.absorb(&second.search);
        assert!(summed.popped > 0 && summed.expanded > 0);
        assert_eq!(summed, whole.search);
        let (mut staged_bytes, mut one_shot_bytes) = (Vec::new(), Vec::new());
        staged.encode(&mut staged_bytes);
        one_shot.encode(&mut one_shot_bytes);
        assert_eq!(staged_bytes, one_shot_bytes, "encoded search state");
    }

    #[test]
    fn decoded_resume_matches_the_live_continuation() {
        let c = Arc::new(graph55());
        let mut en = FrontierEnumerator::new(Arc::clone(&c));
        en.run(&budget(25));
        let mut decoded = decode_against(&en, (*c).clone()).expect("same component");
        // Continue the live enumerator and a decoded copy of it.
        let live = en.run(&MatchBudget::UNLIMITED);
        let resumed = decoded.run(&MatchBudget::UNLIMITED);
        assert!(!live.truncated && !resumed.truncated);
        assert_eq!(live.matchings.len(), resumed.matchings.len());
        for (a, b) in live.matchings.iter().zip(&resumed.matchings) {
            assert_eq!(a.pairs, b.pairs);
            assert_eq!(a.weight.to_bits(), b.weight.to_bits());
        }
        assert_eq!(live.search, resumed.search);
    }

    #[test]
    fn conservative_mass_is_layout_independent_across_restore() {
        // 21 disjoint edges: past every exact-mass cap, so truncated
        // accounting takes the conservative frontier bound — the one
        // path whose float sum ranges over the whole open heap. A live
        // enumerator's heap layout differs from a decoded (re-heapified)
        // one even with an identical open set; the canonical-order sum
        // must make the mass figures agree bit for bit anyway.
        let possible: Vec<Candidate> = (0..21)
            .map(|i| Candidate {
                a: i,
                b: i,
                p: 0.30 + 0.02 * (i % 10) as f64,
            })
            .collect();
        let c = Component {
            a_nodes: (0..21).collect(),
            b_nodes: (0..21).collect(),
            forced: Vec::new(),
            possible,
        };
        let mut live_en = FrontierEnumerator::new(Arc::new(c.clone()));
        live_en.run(&budget(32));
        assert!(!live_en.is_drained(), "2^21 matchings stay truncated");
        let mut decoded = decode_against(&live_en, c).expect("same component");
        let live = live_en.run(&budget(64));
        let resumed = decoded.run(&budget(64));
        assert!(live.truncated && resumed.truncated);
        assert_eq!(
            live.retained_mass.to_bits(),
            resumed.retained_mass.to_bits()
        );
        assert_eq!(
            live.discarded_mass.to_bits(),
            resumed.discarded_mass.to_bits()
        );
        for (a, b) in live.matchings.iter().zip(&resumed.matchings) {
            assert_eq!(a.pairs, b.pairs);
            assert_eq!(a.weight.to_bits(), b.weight.to_bits());
        }
    }
}
