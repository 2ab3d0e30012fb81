//! Blocking plans: recall-safe prefilters derived from an Oracle's rules.
//!
//! Candidate generation judges every cross-source pair, which is O(n·m)
//! oracle calls. A [`BlockingPlan`] extracts, from the configured rule
//! list, cheap per-element features (normalised keys, token sets, q-gram
//! profiles) and a pairwise `prunes` predicate with one guarantee:
//!
//! > If the plan prunes a pair, the oracle judges that pair `NonMatch`.
//!
//! Pruned pairs can therefore be dropped *before* any oracle call without
//! changing the integration result — the recall-safe property the
//! blocking property tests check bitwise.
//!
//! # How soundness is derived
//!
//! Each rule reports a [`BlockingHint`]. Walking the rule list in
//! consultation order for one element tag:
//!
//! * [`BlockingHint::Transparent`] rules (deep-equal) only ever `Match`
//!   content-identical pairs. No filter below can prune such a pair —
//!   equality filters see a shared value pairing, and similarity filters
//!   bound `sim(x, x) = 1 ≥ threshold` — so collection continues.
//! * Tag-gated rules for a *different* tag abstain on every pair of this
//!   tag; collection continues.
//! * Tag-gated rules for *this* tag contribute their `NonMatch` condition
//!   as a [`PruneFilter`] (an under-approximation: the filter fires only
//!   where the rule certainly fires). A rule that can also `Match`
//!   (exact-text) ends collection after contributing, because a later
//!   filter could otherwise prune a pair this rule would have matched.
//! * Unknown ([`BlockingHint::Opaque`]) rules end collection.
//!
//! Similarity filters compare *upper bounds*: exact values where the
//! measure is set arithmetic (Jaccard, Dice), and q-gram and
//! character-multiset bounds for the edit-based measures, padded with a
//! slack that absorbs any f64 rounding asymmetry. When a cheap bound is
//! too loose to prune, the edit-based filters fall back to evaluating the
//! measure itself on the precomputed (normalised) values — still a
//! fraction of a full oracle consultation. A pair is pruned only when
//! every possible-value pairing is provably below the rule's threshold.
//!
//! # How candidates are generated
//!
//! [`BlockingPlan::candidates`] returns `{(a, b) : !prunes(a, b)}` in
//! row-major order without calling [`BlockingPlan::prunes`] on the whole
//! cross product. A group with one element on either side has nothing to
//! skip, so it runs `prunes` pair by pair with no index at all. Larger
//! groups go through four steps:
//!
//! 1. **Hash join.** The plan's first equality filter splits the b side
//!    into one bucket per certain key. Elements without certain keys are
//!    wild and meet every row. A plan with no equality filter has one
//!    bucket.
//! 2. **Gram index.** Each bucket indexes its b values for the plan's
//!    first similarity filter with a count-bounded measure (`Title`,
//!    `Levenshtein`, `TokenJaccard`): postings from each bigram (packed
//!    into one integer) and each token (a dense id per call) to the
//!    values holding it. For one a value, a pass over the postings of its
//!    grams yields every b value's exact shared-token and shared-bigram
//!    counts (ScanCount), and the bucket's character runs give the shared
//!    characters of the values that need them.
//! 3. **Integer bound test.** The bound is `count_bound`, the function
//!    the per-pair path calls: the larger of the token Jaccard and an
//!    edit bound from two lower bounds on the distance, the q-gram count
//!    filter of Gravano et al. (VLDB 2001) and the character-frequency
//!    bound `d ≥ max(|a|, |b|) − |chars(a) ∩ chars(b)|` of Kahveci and
//!    Singh (VLDB 2001). Rather than evaluate it per value, each row
//!    looks up, per distinct b shape (characters and tokens), the least
//!    shared counts at which `count_bound` reaches the threshold, found by
//!    searching `count_bound` itself the first time the call meets that
//!    pair of shapes and remembered for the rest of it; the per-value
//!    test is then integer compares with the float comparison's answer.
//!    A value that passes on shared tokens alone is certain and skips the
//!    exact check.
//! 4. **Row-batched exact check.** The edit measures' other bound
//!    survivors of one a value are checked in one
//!    [`sim::levenshtein_batch`] call, so the pattern is preprocessed
//!    once per value, not once per pair.
//!
//! The join and steps 2–4 each drop a pair exactly where their own filter
//! fires — the bound and the exact check use the per-pair arithmetic on
//! the same counts — so the pairs left need only the plan's *other*
//! filters before they are emitted. The measures the index does not
//! serve — `PersonName` and `JaroWinkler`, whose bounds read character
//! multisets with no selective gram, and `TrigramDice` — leave every
//! bucket member to those per-pair filters.
//!
//! # What the work counts say
//!
//! [`BlockingWork`] reports, per call, the in-bucket value pairs
//! scanned, the bound survivors and the exact checks (and the pairs
//! kept). On `large_source(10 000)` with the default movie oracle the
//! index scans 833 359 pairs. The q-gram bound alone let 309 628 of
//! them through to an exact check; with the character bound 58 116
//! survive, 2 500 of them certain on tokens, so 55 616 are checked, and
//! 5 027 pairs are kept.
//!
//! There is no prefix or length filter. At the title threshold 0.55 the
//! q-gram count filter already passes 37% of in-bucket pairs, and a
//! prefix filter, which keeps every pair the count filter keeps, can
//! only pass more. The character bound subsumes the length bound, as
//! `max_len − shared chars ≥ |len_a − len_b|`.

use crate::rules::{Rule, SimMeasure};
use crate::value::{ElemRef, PossibleValues};
use imprecise_sim as sim;
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};

/// Variant budget for feature extraction — must equal the rules' own cap
/// so "certain values" means the same thing on both paths.
use crate::rules::VALUE_VARIANT_CAP;

/// Safety margin added to every similarity upper bound: pruning uses a
/// strict `ub < threshold` comparison, so the margin only ever *keeps*
/// borderline pairs, never drops them.
const UB_SLACK: f64 = 1e-9;

/// How a rule behaves for blocking purposes. See the module docs for how
/// the plan derivation consumes these.
#[derive(Debug, Clone)]
pub enum BlockingHint {
    /// Decides `Match` only on content-identical pairs and never decides
    /// `NonMatch`; invisible to every filter below it.
    Transparent,
    /// Abstains unless both elements have `tag`; may decide `NonMatch`
    /// exactly where `filter` fires, and can decide `Match` at all only
    /// if `decides_match`.
    TagGated {
        /// Tag the rule is gated on.
        tag: String,
        /// Sound under-approximation of the rule's `NonMatch` condition,
        /// if one is extractable.
        filter: Option<PruneFilter>,
        /// Whether the rule can ever decide `Match`.
        decides_match: bool,
    },
    /// Behaviour unknown; blocks filter collection at this point.
    Opaque,
}

/// One prunable `NonMatch` condition, evaluated on cached features.
#[derive(Debug, Clone, PartialEq)]
pub enum PruneFilter {
    /// Every pairing of trimmed key values differs (key-inequality rules).
    KeyDiffers {
        /// Path from the element to the key value.
        value_path: String,
    },
    /// Every pairing of own-text values differs (exact-text rules).
    TextDiffers,
    /// Every pairing of values is provably below the threshold.
    SimilarityBelow {
        /// Path from the element to the compared value.
        value_path: String,
        /// The rule's threshold.
        threshold: f64,
        /// The rule's measure (selects the upper-bound features).
        measure: SimMeasure,
    },
}

impl PruneFilter {
    /// Whether this filter prunes on pure value equality, making it
    /// usable as a hash-join key by the candidate generator.
    pub fn is_equality(&self) -> bool {
        matches!(
            self,
            PruneFilter::KeyDiffers { .. } | PruneFilter::TextDiffers
        )
    }
}

/// The prefilters that are sound for one element tag under one oracle.
#[derive(Debug, Clone)]
pub struct BlockingPlan {
    tag: String,
    filters: Vec<PruneFilter>,
}

/// What one [`BlockingPlan::candidates`] call did, in the units of its
/// module docs: a deterministic measure of blocking work that, unlike
/// wall-clock time, does not move with the host.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockingWork {
    /// In-bucket value pairs whose count bound was evaluated.
    pub scanned: usize,
    /// Scanned pairs whose count bound reaches the threshold.
    pub bound_survivors: usize,
    /// Exact edit distances computed for bound survivors.
    pub exact_checks: usize,
    /// Element pairs returned: the pairs no filter prunes.
    pub kept: usize,
}

/// The output of [`BlockingPlan::candidates`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Candidates {
    /// Every pair `(a, b)` the plan cannot prove `NonMatch`, row-major.
    pub pairs: Vec<(usize, usize)>,
    /// The work the gram index did to find them.
    pub work: BlockingWork,
}

impl BlockingPlan {
    /// Derive the plan for `tag` by walking `rules` in consultation order.
    pub(crate) fn derive(rules: &[Box<dyn Rule>], tag: &str) -> BlockingPlan {
        let mut filters = Vec::new();
        for rule in rules {
            match rule.blocking_hint() {
                BlockingHint::Transparent => continue,
                BlockingHint::TagGated { tag: t, .. } if t != tag => continue,
                BlockingHint::TagGated {
                    filter,
                    decides_match,
                    ..
                } => {
                    if let Some(f) = filter {
                        filters.push(f);
                    }
                    if decides_match {
                        break;
                    }
                }
                BlockingHint::Opaque => break,
            }
        }
        BlockingPlan {
            tag: tag.to_string(),
            filters,
        }
    }

    /// Tag this plan applies to.
    pub fn tag(&self) -> &str {
        &self.tag
    }

    /// The collected filters, in rule-consultation order.
    pub fn filters(&self) -> &[PruneFilter] {
        &self.filters
    }

    /// Whether the plan can prune anything at all.
    pub fn is_empty(&self) -> bool {
        self.filters.is_empty()
    }

    /// Index of the first equality filter — the natural hash-join key for
    /// sub-quadratic pair generation.
    pub fn join_filter(&self) -> Option<usize> {
        self.filters.iter().position(PruneFilter::is_equality)
    }

    /// Extract this plan's per-element features. Cheap for elements of
    /// another tag (every filter becomes inapplicable and never prunes).
    pub fn features(&self, e: &ElemRef<'_>) -> ElementFeatures {
        if e.tag() != self.tag {
            return ElementFeatures {
                per_filter: vec![FilterFeatures::Inapplicable; self.filters.len()],
            };
        }
        let per_filter = self
            .filters
            .iter()
            .map(|f| match f {
                PruneFilter::KeyDiffers { value_path } => {
                    match e.possible_values_at(value_path, VALUE_VARIANT_CAP) {
                        PossibleValues::Values(vs) if !vs.is_empty() => FilterFeatures::Equality(
                            vs.iter().map(|v| v.trim().to_string()).collect(),
                        ),
                        _ => FilterFeatures::Inapplicable,
                    }
                }
                PruneFilter::TextDiffers => match e.possible_own_texts(VALUE_VARIANT_CAP) {
                    Some(ts) if !ts.is_empty() => {
                        FilterFeatures::Equality(ts.into_iter().map(Cow::into_owned).collect())
                    }
                    _ => FilterFeatures::Inapplicable,
                },
                PruneFilter::SimilarityBelow {
                    value_path,
                    measure,
                    ..
                } => match e.possible_values_at(value_path, VALUE_VARIANT_CAP) {
                    PossibleValues::Values(vs) if !vs.is_empty() => FilterFeatures::Similarity(
                        vs.iter().map(|v| SimFeature::new(*measure, v)).collect(),
                    ),
                    _ => FilterFeatures::Inapplicable,
                },
            })
            .collect();
        ElementFeatures { per_filter }
    }

    /// Whether the pair `(a, b)` is provably a `NonMatch` for the oracle
    /// this plan was derived from.
    pub fn prunes(&self, a: &ElementFeatures, b: &ElementFeatures) -> bool {
        self.filters
            .iter()
            .zip(a.per_filter.iter().zip(&b.per_filter))
            .any(|(f, (fa, fb))| filter_fires(f, fa, fb))
    }

    /// Whether any of the filters at `filters` prunes the pair `(a, b)`.
    fn prunes_on(&self, filters: &[usize], a: &ElementFeatures, b: &ElementFeatures) -> bool {
        filters
            .iter()
            .any(|&i| filter_fires(&self.filters[i], &a.per_filter[i], &b.per_filter[i]))
    }

    /// Every pair `(a, b)` this plan cannot prove `NonMatch` — exactly
    /// `{(a, b) : !self.prunes(&fa[a], &fb[b])}` — in row-major order,
    /// with the work it took.
    ///
    /// See the module docs for how the pairs are generated without
    /// calling [`BlockingPlan::prunes`] on the whole cross product.
    pub fn candidates(&self, fa: &[ElementFeatures], fb: &[ElementFeatures]) -> Candidates {
        let mut out = Candidates::default();
        if self.filters.is_empty() {
            // Nothing can prune: the cross product, without building
            // buckets for the many small groups of unruled tags.
            out.pairs = (0..fa.len())
                .flat_map(|a| (0..fb.len()).map(move |b| (a, b)))
                .collect();
        } else if fa.len() <= 1 || fb.len() <= 1 {
            // One element on a side: every pair meets every other side's
            // element once, so an index could not skip any of them.
            out.pairs = (0..fa.len())
                .flat_map(|a| (0..fb.len()).map(move |b| (a, b)))
                .filter(|&(a, b)| !self.prunes(&fa[a], &fb[b]))
                .collect();
        } else {
            out = self.indexed_candidates(fa, fb);
        }
        out.work.kept = out.pairs.len();
        out
    }

    /// [`BlockingPlan::candidates`] through the join and the gram index.
    fn indexed_candidates(&self, fa: &[ElementFeatures], fb: &[ElementFeatures]) -> Candidates {
        let filter = self.indexed_filter();
        let join = self.join_filter();
        // Hash join on the equality filter's certain keys. Elements
        // without certain keys are wild: that filter can never prune
        // them, so they meet every row. With no equality filter every
        // element is wild: one bucket.
        let mut keyed: Vec<(&str, usize)> = Vec::new();
        let mut wild: Vec<usize> = Vec::new();
        for (bi, f) in fb.iter().enumerate() {
            match join.and_then(|j| f.join_keys(j)) {
                Some(ks) => keyed.extend(ks.iter().map(|k| (k.as_str(), bi))),
                None => wild.push(bi),
            }
        }
        keyed.sort_unstable();
        keyed.dedup();
        let mut index = Index::new(filter);
        let mut keys: Vec<&str> = Vec::new();
        let mut buckets: Vec<Bucket<'_>> = Vec::new();
        for run in keyed.chunk_by(|x, y| x.0 == y.0) {
            keys.push(run[0].0);
            let members = run.iter().map(|&(_, bi)| bi).collect();
            buckets.push(Bucket::new(members, fb, &mut index));
        }
        // The rows that meet each bucket: a row meets the buckets of its
        // keys, a wild row meets them all, and every row meets the wild
        // elements.
        let mut rows: Vec<Vec<usize>> = vec![Vec::new(); buckets.len()];
        for (ai, f) in fa.iter().enumerate() {
            match join.and_then(|j| f.join_keys(j)) {
                Some(ks) => {
                    for k in ks {
                        if let Ok(i) = keys.binary_search(&k.as_str()) {
                            rows[i].push(ai);
                        }
                    }
                }
                None => rows.iter_mut().for_each(|r| r.push(ai)),
            }
        }
        if !wild.is_empty() {
            buckets.push(Bucket::new(wild, fb, &mut index));
            rows.push((0..fa.len()).collect());
        }
        // The join and the index decide their own filters exactly: a row
        // meets a member only where the join filter cannot fire, and the
        // index keeps a member only where the indexed filter does not.
        // The plan's other filters decide the rest.
        let decided = [join, filter.map(|f| f.idx)];
        let rest: Vec<usize> = (0..self.filters.len())
            .filter(|&i| !decided.contains(&Some(i)))
            .collect();

        // Bucket by bucket, so a bucket's index stays in cache while its
        // rows scan it. Each row keeps only the pairs no filter prunes, so
        // memory follows the output, not the bucket sizes.
        let mut scan = Scan::default();
        let mut work = BlockingWork::default();
        let mut found: Vec<usize> = Vec::new();
        let mut kept: Vec<Vec<usize>> = vec![Vec::new(); fa.len()];
        for (bucket, rows) in buckets.iter().zip(&rows) {
            for &ai in rows {
                found.clear();
                bucket.survivors(&mut index, &fa[ai], &mut scan, &mut work, &mut found);
                kept[ai].extend(
                    found
                        .iter()
                        .filter(|&&bi| !self.prunes_on(&rest, &fa[ai], &fb[bi])),
                );
            }
        }
        let mut pairs = Vec::new();
        for (ai, mut row) in kept.into_iter().enumerate() {
            // Buckets interleave, and a multi-valued key can meet a
            // member twice: sorted-dedup restores row-major order.
            row.sort_unstable();
            row.dedup();
            pairs.extend(row.into_iter().map(|bi| (ai, bi)));
        }
        Candidates { pairs, work }
    }

    /// The plan's first similarity filter with a count-bounded measure:
    /// the one [`BlockingPlan::candidates`] indexes.
    fn indexed_filter(&self) -> Option<IndexedFilter> {
        self.filters
            .iter()
            .enumerate()
            .find_map(|(idx, f)| match f {
                PruneFilter::SimilarityBelow {
                    threshold, measure, ..
                } if count_bounded(*measure) => Some(IndexedFilter {
                    idx,
                    measure: *measure,
                    threshold: *threshold,
                }),
                _ => None,
            })
    }
}

/// Per-element cached inputs to one plan's filters, index-aligned with
/// [`BlockingPlan::filters`].
#[derive(Debug, Clone)]
pub struct ElementFeatures {
    per_filter: Vec<FilterFeatures>,
}

impl ElementFeatures {
    /// Join keys for an equality filter: `Some(values)` when the element
    /// has certain values there, `None` when the filter cannot prune this
    /// element (uncertain/missing value — must pair with everything).
    pub fn join_keys(&self, filter_idx: usize) -> Option<&[String]> {
        match self.per_filter.get(filter_idx) {
            Some(FilterFeatures::Equality(ks)) => Some(ks),
            _ => None,
        }
    }
}

#[derive(Debug, Clone)]
enum FilterFeatures {
    /// The filter abstains for this element (wrong tag, missing or
    /// uncertain value) and must never prune a pair involving it.
    Inapplicable,
    /// Certain values for an equality filter, trimmed where the rule
    /// trims.
    Equality(Vec<String>),
    /// Upper-bound features, one per possible value.
    Similarity(Vec<SimFeature>),
}

fn filter_fires(f: &PruneFilter, a: &FilterFeatures, b: &FilterFeatures) -> bool {
    match (f, a, b) {
        (
            PruneFilter::KeyDiffers { .. } | PruneFilter::TextDiffers,
            FilterFeatures::Equality(ka),
            FilterFeatures::Equality(kb),
        ) => ka.iter().all(|x| kb.iter().all(|y| x != y)),
        (
            PruneFilter::SimilarityBelow { threshold, .. },
            FilterFeatures::Similarity(sa),
            FilterFeatures::Similarity(sb),
        ) => sa.iter().all(|x| {
            sb.iter().all(|y| {
                x.upper_bound(y) < *threshold
                    || x.exact(y).is_some_and(|v| v + UB_SLACK < *threshold)
            })
        }),
        _ => false,
    }
}

/// Sorted `(key, count)` runs of a key list, sorting `keys` in place,
/// in one allocation of the exact size.
fn sorted_counts<K: Ord + Copy>(keys: &mut [K]) -> Box<[(K, u32)]> {
    keys.sort_unstable();
    let runs = keys.chunk_by(|x, y| x == y);
    let mut out = Vec::with_capacity(runs.clone().count());
    out.extend(runs.map(|run| (run[0], run.len() as u32)));
    out.into_boxed_slice()
}

/// Multiset intersection size of two sorted run-length vectors.
fn multiset_common<K: Ord + Copy>(a: &[(K, u32)], b: &[(K, u32)]) -> usize {
    let (mut i, mut j, mut common) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                common += a[i].1.min(b[j].1) as usize;
                i += 1;
                j += 1;
            }
        }
    }
    common
}

fn char_counts(s: &str) -> Box<[(char, u32)]> {
    sorted_counts(&mut s.chars().collect::<Vec<_>>())
}

/// Shared members of two sorted, deduplicated token lists, by a
/// two-pointer merge.
fn set_common<'t>(
    mut a: impl Iterator<Item = &'t str>,
    mut b: impl Iterator<Item = &'t str>,
) -> usize {
    let (mut x, mut y, mut common) = (a.next(), b.next(), 0);
    while let (Some(s), Some(t)) = (x, y) {
        match s.cmp(t) {
            std::cmp::Ordering::Less => x = a.next(),
            std::cmp::Ordering::Greater => y = b.next(),
            std::cmp::Ordering::Equal => {
                common += 1;
                x = a.next();
                y = b.next();
            }
        }
    }
    common
}

/// Jaccard of two token sets from their sizes and their intersection:
/// the same counts, and therefore the same f64 bits, as
/// [`sim::jaccard_token_sets`] on the sets themselves.
fn jaccard_count(len_a: usize, len_b: usize, common: usize) -> f64 {
    if len_a == 0 && len_b == 0 {
        return 1.0;
    }
    common as f64 / (len_a + len_b - common) as f64
}

/// Upper bound on `1 − d/max_len` from two edit-distance lower bounds,
/// where `len_a` and `len_b` count characters and `common` holds the
/// values' shared bigrams and shared characters (multiset intersections):
///
/// * the q-gram (q = 2) bound `d ≥ ⌈(max_grams − bigrams) / 2⌉`: each
///   edit disturbs at most two bigrams;
/// * the character-frequency bound `d ≥ max_len − chars` (Kahveci &
///   Singh, VLDB 2001): an alignment keeps only equal characters, at
///   most `chars` of them, and every other character of the longer
///   value costs an edit. It subsumes the length bound, as
///   `max_len − chars ≥ |len_a − len_b|`.
fn lev_similarity_ub(len_a: usize, len_b: usize, common: Common) -> f64 {
    let max_len = len_a.max(len_b);
    if max_len == 0 {
        return 1.0;
    }
    let max_grams = max_len - 1;
    let qgram_lb = max_grams.saturating_sub(common.bigrams).div_ceil(2);
    let char_lb = max_len.saturating_sub(common.chars);
    1.0 - qgram_lb.max(char_lb) as f64 / max_len as f64
}

/// `1 − distance/max_len` for a known edit distance: the arithmetic of
/// [`sim::levenshtein_similarity`], bit for bit.
fn lev_similarity(len_a: usize, len_b: usize, distance: usize) -> f64 {
    let max_len = len_a.max(len_b);
    if max_len == 0 {
        return 1.0;
    }
    1.0 - distance as f64 / max_len as f64
}

/// Bins of the character profile: one per ASCII character and one
/// overflow bin every other character shares. Lumping characters
/// together can only over-count the characters two values share, which
/// loosens the bound, so the profile stays sound with a fixed size.
const CHAR_BINS: usize = 129;

fn char_bin(c: char) -> u8 {
    if c.is_ascii() {
        c as u8
    } else {
        (CHAR_BINS - 1) as u8
    }
}

/// A character bigram packed into one integer key.
fn bigram_code(a: char, b: char) -> u64 {
    (u64::from(a) << 32) | u64::from(b)
}

/// What the count-based bounds read of one value: its shape, its
/// distinct tokens (sorted, each ended by `'\0'`, which no token holds),
/// its character-bigram multiset and its binned character multiset, as
/// sorted runs. A measure leaves empty the parts it does not use.
#[derive(Debug, Clone)]
struct GramProfile {
    shape: Shape,
    tokens: Box<str>,
    bigrams: Box<[(u64, u32)]>,
    chars: Box<[(u8, u32)]>,
}

/// The sizes the count-based bounds read: characters and distinct tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Shape {
    chars: usize,
    tokens: usize,
}

/// Gram overlap of two values: shared tokens, shared bigrams and shared
/// characters (by bin).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Common {
    tokens: usize,
    bigrams: usize,
    chars: usize,
}

impl Common {
    /// The largest counts two values of these shapes can share.
    fn most(a: Shape, b: Shape) -> Common {
        let chars = a.chars.min(b.chars);
        Common {
            tokens: a.tokens.min(b.tokens),
            bigrams: chars.saturating_sub(1),
            chars,
        }
    }
}

/// Reused buffers of profile construction, one set per thread, so a
/// profile allocates only the parts it keeps.
#[derive(Default)]
struct ProfileScratch {
    tokens: String,
    spans: Vec<std::ops::Range<usize>>,
    codes: Vec<u64>,
    /// Characters per bin, all zero between calls.
    bins: Vec<u32>,
}

thread_local! {
    static PROFILE_SCRATCH: RefCell<ProfileScratch> = RefCell::new(ProfileScratch::default());
}

impl GramProfile {
    /// The profile of `text`, with tokens if `tokens` and with bigram
    /// and character runs if `grams`.
    fn new(text: &str, tokens: bool, grams: bool) -> GramProfile {
        PROFILE_SCRATCH.with(|s| {
            let s = &mut *s.borrow_mut();
            let mut packed = String::new();
            let mut n_tokens = 0;
            if tokens {
                sim::tokenize_into(text, &mut s.tokens, &mut s.spans);
                let buf = &s.tokens;
                s.spans
                    .sort_unstable_by(|x, y| buf[x.clone()].cmp(&buf[y.clone()]));
                s.spans.dedup_by(|x, y| buf[x.clone()] == buf[y.clone()]);
                n_tokens = s.spans.len();
                packed.reserve_exact(s.spans.iter().map(|r| r.len() + 1).sum());
                for span in &s.spans {
                    packed.push_str(&buf[span.clone()]);
                    packed.push('\0');
                }
            }
            let (mut chars, mut bigrams, mut bins) = (0, Box::default(), Box::default());
            if grams {
                s.codes.clear();
                s.bins.resize(CHAR_BINS, 0);
                let mut prev = None;
                for c in text.chars() {
                    if let Some(p) = prev {
                        s.codes.push(bigram_code(p, c));
                    }
                    s.bins[usize::from(char_bin(c))] += 1;
                    chars += 1;
                    prev = Some(c);
                }
                bigrams = sorted_counts(&mut s.codes);
                // The bins are counted in place, so their runs come out
                // sorted without a sort.
                let mut runs = Vec::with_capacity(s.bins.iter().filter(|&&n| n > 0).count());
                for (bin, n) in s.bins.iter_mut().enumerate() {
                    if *n > 0 {
                        runs.push((bin as u8, std::mem::take(n)));
                    }
                }
                bins = runs.into_boxed_slice();
            }
            GramProfile {
                shape: Shape {
                    chars,
                    tokens: n_tokens,
                },
                tokens: packed.into_boxed_str(),
                bigrams,
                chars: bins,
            }
        })
    }

    fn tokens(&self) -> impl Iterator<Item = &str> {
        self.tokens.split_terminator('\0')
    }

    fn common(&self, other: &GramProfile) -> Common {
        Common {
            tokens: set_common(self.tokens(), other.tokens()),
            bigrams: multiset_common(&self.bigrams, &other.bigrams),
            chars: multiset_common(&self.chars, &other.chars),
        }
    }
}

/// Whether `measure`'s upper bound is a function of gram counts alone,
/// so a gram index can evaluate it for a whole bucket at once.
fn count_bounded(measure: SimMeasure) -> bool {
    matches!(
        measure,
        SimMeasure::Title | SimMeasure::Levenshtein | SimMeasure::TokenJaccard
    )
}

/// The upper bound of a count-bounded measure from the two values'
/// [`Shape`]s and their [`Common`] counts. The per-pair path
/// ([`SimFeature::upper_bound`]) and the candidate index (through
/// [`Need::derive`]) both call this, so the two cannot drift.
fn count_bound(measure: SimMeasure, a: Shape, b: Shape, common: Common) -> f64 {
    let jaccard = || jaccard_count(a.tokens, b.tokens, common.tokens);
    let lev = || lev_similarity_ub(a.chars, b.chars, common);
    match measure {
        // title_similarity = max(token Jaccard, Levenshtein sim) on the
        // normalised titles: Jaccard is exact here, the edit part is
        // bounded.
        SimMeasure::Title => jaccard().max(lev()) + UB_SLACK,
        SimMeasure::Levenshtein => lev() + UB_SLACK,
        SimMeasure::TokenJaccard => jaccard() + UB_SLACK,
        _ => 1.0,
    }
}

/// The exact measure of a count-bounded edit measure (`Title`,
/// `Levenshtein`) from the two [`Shape`]s, their shared tokens and the
/// edit distance of the compared texts — what [`SimMeasure::apply`]
/// computes after its normalisation step. `None` for the set-arithmetic
/// measures, whose bound already is the measure.
fn edit_exact(
    measure: SimMeasure,
    a: Shape,
    b: Shape,
    shared_tokens: usize,
    distance: usize,
) -> Option<f64> {
    let lev = lev_similarity(a.chars, b.chars, distance);
    match measure {
        // Two empty titles: Jaccard and the edit part are both 1.0, as
        // `title_similarity`'s both-empty short-circuit.
        SimMeasure::Title => Some(jaccard_count(a.tokens, b.tokens, shared_tokens).max(lev)),
        SimMeasure::Levenshtein => Some(lev),
        _ => None,
    }
}

/// Count that no pair reaches: a [`Need`] part that never passes.
const NEVER: u32 = u32::MAX;

/// The least shared counts at which [`count_bound`] reaches a filter's
/// threshold, for one pair of shapes. A pair passes the bound exactly
/// when it shares at least `tokens` tokens, or at least `bigrams`
/// bigrams and `chars` characters: `count_bound` is the larger of a
/// token part that grows with shared tokens and an edit part whose two
/// lower bounds each fall as their own count grows, so its threshold
/// region is that union. A pair that passes on tokens alone survives
/// the exact check too, and needs none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Need {
    tokens: u32,
    bigrams: u32,
    chars: u32,
}

impl Need {
    /// Derive the need by searching [`count_bound`] itself, so the
    /// integer test gives the float comparison's answer on every count.
    fn derive(measure: SimMeasure, threshold: f64, a: Shape, b: Shape) -> Need {
        let reaches = |c: Common| count_bound(measure, a, b, c) >= threshold;
        let most = Common::most(a, b);
        let tokens = least(most.tokens, |t| {
            reaches(Common {
                tokens: t,
                bigrams: 0,
                chars: 0,
            })
        });
        let bigrams = least(most.bigrams, |g| {
            reaches(Common {
                bigrams: g,
                chars: most.chars,
                tokens: 0,
            })
        });
        let chars = least(most.chars, |c| {
            reaches(Common {
                chars: c,
                bigrams: most.bigrams,
                tokens: 0,
            })
        });
        Need {
            tokens,
            bigrams,
            chars,
        }
    }

    /// Whether a pair sharing `tokens` tokens reaches the threshold on
    /// them alone; such a pair is certain and needs no exact check.
    fn by_tokens(&self, tokens: u32) -> bool {
        tokens >= self.tokens
    }

    /// Whether a pair sharing `bigrams` bigrams, and characters of which
    /// `shares_chars(n)` tells whether there are at least `n`, reaches
    /// the threshold; the characters are counted only when it matters.
    fn by_edits(&self, bigrams: u32, shares_chars: impl FnOnce(u32) -> bool) -> bool {
        bigrams >= self.bigrams && (self.chars == 0 || shares_chars(self.chars))
    }
}

/// The least `x` in `0..=hi` with `pred(x)`, for a `pred` that stays
/// true once true; [`NEVER`] when `pred(hi)` is false.
fn least(hi: usize, pred: impl Fn(usize) -> bool) -> u32 {
    if !pred(hi) {
        return NEVER;
    }
    let (mut lo, mut hi) = (0, hi);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    u32::try_from(lo).unwrap_or(NEVER)
}

/// Precomputed per-value features for one similarity measure, supporting
/// a sound (never smaller than the true similarity) pairwise upper bound.
#[derive(Debug, Clone)]
enum SimFeature {
    /// Title, Levenshtein and token-Jaccard values: the bound is
    /// [`count_bound`] over the profile; `text` is what the edit
    /// distance compares (the normalised title, or the raw value).
    Counted {
        measure: SimMeasure,
        text: Box<str>,
        profile: GramProfile,
    },
    PersonName {
        norm: String,
        chars: usize,
        counts: Box<[(char, u32)]>,
    },
    JaroWinkler {
        value: String,
        chars: usize,
        counts: Box<[(char, u32)]>,
    },
    TrigramDice {
        lower: String,
        trigrams: BTreeSet<Vec<char>>,
    },
}

thread_local! {
    /// Reused buffer for normalised titles.
    static NORMALIZED: RefCell<String> = const { RefCell::new(String::new()) };
}

impl SimFeature {
    fn new(measure: SimMeasure, v: &str) -> SimFeature {
        let counted = |text: &str, tokens: bool, grams: bool| SimFeature::Counted {
            measure,
            profile: GramProfile::new(text, tokens, grams),
            text: if grams { text.into() } else { Box::default() },
        };
        match measure {
            SimMeasure::Title => NORMALIZED.with(|n| {
                let n = &mut *n.borrow_mut();
                sim::normalize_title_into(v, n);
                counted(n, true, true)
            }),
            SimMeasure::Levenshtein => counted(v, false, true),
            SimMeasure::TokenJaccard => counted(v, true, false),
            SimMeasure::PersonName => {
                let n = sim::normalize_person_name(v);
                SimFeature::PersonName {
                    chars: n.chars().count(),
                    counts: char_counts(&n),
                    norm: n,
                }
            }
            SimMeasure::JaroWinkler => SimFeature::JaroWinkler {
                value: v.to_string(),
                chars: v.chars().count(),
                counts: char_counts(v),
            },
            SimMeasure::TrigramDice => {
                let lower = v.to_lowercase();
                let trigrams = sim::token::trigram_set(&lower);
                SimFeature::TrigramDice { lower, trigrams }
            }
        }
    }

    /// The count profile of a count-bounded value.
    fn profile(&self) -> Option<&GramProfile> {
        match self {
            SimFeature::Counted { profile, .. } => Some(profile),
            _ => None,
        }
    }

    /// An upper bound on the measure applied to the two underlying
    /// values. Mismatched feature kinds (impossible through
    /// [`BlockingPlan::features`]) return `1.0`, which never prunes.
    fn upper_bound(&self, other: &SimFeature) -> f64 {
        match (self, other) {
            (
                SimFeature::Counted {
                    measure,
                    profile: pa,
                    ..
                },
                SimFeature::Counted {
                    measure: mb,
                    profile: pb,
                    ..
                },
            ) if measure == mb => count_bound(*measure, pa.shape, pb.shape, pa.common(pb)),
            (
                SimFeature::PersonName {
                    chars: ca,
                    counts: na,
                    ..
                },
                SimFeature::PersonName {
                    chars: cb,
                    counts: nb,
                    ..
                },
            )
            | (
                SimFeature::JaroWinkler {
                    chars: ca,
                    counts: na,
                    ..
                },
                SimFeature::JaroWinkler {
                    chars: cb,
                    counts: nb,
                    ..
                },
            ) => jaro_winkler_ub(*ca, *cb, na, nb),
            (
                SimFeature::TrigramDice {
                    lower: la,
                    trigrams: ta,
                },
                SimFeature::TrigramDice {
                    lower: lb,
                    trigrams: tb,
                },
            ) => sim::token::dice_trigram_sets(la, ta, lb, tb) + UB_SLACK,
            _ => 1.0,
        }
    }

    /// The measure itself, evaluated on the stored (already-normalised)
    /// values — the tight fallback [`filter_fires`] uses when the cheap
    /// bound cannot prune. `None` for the set-arithmetic measures, whose
    /// "bound" already *is* the measure, and for mismatched kinds.
    ///
    /// Each arm replays exactly what [`SimMeasure::apply`] computes after
    /// its normalisation step (including the both-empty short-circuits),
    /// so the returned value equals the rule's own similarity bitwise.
    fn exact(&self, other: &SimFeature) -> Option<f64> {
        match (self, other) {
            (
                SimFeature::Counted {
                    measure,
                    text: ta,
                    profile: pa,
                },
                SimFeature::Counted {
                    measure: mb,
                    text: tb,
                    profile: pb,
                },
            ) if measure == mb => edit_exact(
                *measure,
                pa.shape,
                pb.shape,
                set_common(pa.tokens(), pb.tokens()),
                sim::levenshtein(ta, tb),
            ),
            (SimFeature::PersonName { norm: na, .. }, SimFeature::PersonName { norm: nb, .. }) => {
                if na.is_empty() && nb.is_empty() {
                    return Some(1.0);
                }
                Some(sim::jaro_winkler(na, nb))
            }
            (
                SimFeature::JaroWinkler { value: va, .. },
                SimFeature::JaroWinkler { value: vb, .. },
            ) => Some(sim::jaro_winkler(va, vb)),
            _ => None,
        }
    }
}

/// Jaro-Winkler upper bound from character multisets: Jaro's match count
/// is an injective pairing of equal characters, so `m ≤ |multiset
/// intersection|`, and the transposition term is at most 1; Winkler's
/// boost is maximal at a full 4-character prefix.
fn jaro_winkler_ub(ca: usize, cb: usize, na: &[(char, u32)], nb: &[(char, u32)]) -> f64 {
    if ca == 0 || cb == 0 {
        // Both empty is exactly 1.0 (and `person_name_similarity` short-
        // circuits to 1.0 before Jaro); one empty side scores 0.0, but
        // 1.0 is still a sound bound and keeps the edge case trivial.
        return 1.0;
    }
    let c = multiset_common(na, nb);
    if c == 0 {
        // No shared character: no Jaro matches and no shared prefix.
        return UB_SLACK;
    }
    let c = c as f64;
    let ub_jaro = (c / ca as f64 + c / cb as f64 + 1.0) / 3.0;
    let ub_jaro = ub_jaro.min(1.0);
    ub_jaro + 0.4 * (1.0 - ub_jaro) + UB_SLACK
}

/// The filter the candidate index serves: the plan's first similarity
/// filter whose measure is count-bounded.
#[derive(Debug, Clone, Copy)]
struct IndexedFilter {
    idx: usize,
    measure: SimMeasure,
    threshold: f64,
}

/// What every bucket of one [`BlockingPlan::candidates`] call shares:
/// the indexed filter, a dense id per token of the b side, and the
/// [`Need`] of each (a shape, b shape) pair met so far. A row looks up
/// one need per distinct shape of the bucket it scans, so the memo holds
/// no more entries than the scan has pairs.
struct Index<'f> {
    filter: Option<IndexedFilter>,
    token_ids: HashMap<&'f str, u32>,
    needs: HashMap<(Shape, Shape), Need>,
}

impl<'f> Index<'f> {
    fn new(filter: Option<IndexedFilter>) -> Self {
        Index {
            filter,
            token_ids: HashMap::new(),
            needs: HashMap::new(),
        }
    }

    /// The indexed filter's values of one element; empty when the filter
    /// cannot prune it.
    fn values<'e>(&self, e: &'e ElementFeatures) -> &'e [SimFeature] {
        match self.filter.map(|f| e.per_filter.get(f.idx)) {
            Some(Some(FilterFeatures::Similarity(vs))) => vs,
            _ => &[],
        }
    }

    /// The need of an a value of shape `a` against a b value of shape
    /// `b`, derived on first sight.
    fn need(&mut self, f: IndexedFilter, a: Shape, b: Shape) -> Need {
        *self
            .needs
            .entry((a, b))
            .or_insert_with(|| Need::derive(f.measure, f.threshold, a, b))
    }

    /// The dense id of a b-side token, assigned on first sight.
    fn intern(&mut self, token: &'f str) -> u32 {
        let next = self.token_ids.len() as u32;
        *self.token_ids.entry(token).or_insert(next)
    }
}

/// An inverted index from gram key to the slots (b values) holding it,
/// with the gram's multiplicity in each. A key's postings are one
/// contiguous run of `entries`, in no particular slot order: ScanCount
/// only sums them.
struct Postings<K> {
    keys: Vec<K>,
    starts: Vec<usize>,
    entries: Vec<(u32, u32)>,
}

impl<K: Ord + Copy> Postings<K> {
    /// Index `(key, slot, count)` occurrences.
    fn new(mut items: Vec<(K, u32, u32)>) -> Self {
        items.sort_unstable_by_key(|&(key, _, _)| key);
        let mut keys = Vec::new();
        let mut starts = Vec::new();
        let mut entries = Vec::with_capacity(items.len());
        for (key, slot, n) in items {
            if keys.last() != Some(&key) {
                keys.push(key);
                starts.push(entries.len());
            }
            entries.push((slot, n));
        }
        starts.push(entries.len());
        Postings {
            keys,
            starts,
            entries,
        }
    }

    /// The `(slot, count)` postings of `key`; empty when no slot has it.
    fn get(&self, key: K) -> &[(u32, u32)] {
        match self.keys.binary_search(&key) {
            Ok(id) => &self.entries[self.starts[id]..self.starts[id + 1]],
            Err(_) => &[],
        }
    }
}

/// One indexed b value: the bucket member it belongs to, its shape (an
/// index into the bucket's `shapes`), the text its exact check compares
/// and its profile.
struct Slot<'f> {
    member: u32,
    shape: u32,
    text: &'f str,
    profile: &'f GramProfile,
}

/// The b elements of one join bucket, with a gram index over their
/// values for the plan's [`IndexedFilter`].
struct Bucket<'f> {
    /// The bucket's b elements, ascending.
    members: Vec<usize>,
    /// Per member: the indexed filter cannot prune it (no certain value),
    /// so it survives every row.
    always: Vec<bool>,
    slots: Vec<Slot<'f>>,
    /// The slots' character runs back to back, slot `s`'s at
    /// `chars[char_starts[s]..char_starts[s + 1]]`: the scan reads them
    /// for every bigram survivor, so they sit together.
    chars: Vec<(u8, u32)>,
    char_starts: Vec<usize>,
    /// The slots' distinct shapes, ascending.
    shapes: Vec<Shape>,
    tokens: Postings<u32>,
    bigrams: Postings<u64>,
}

/// Per-row scratch of the bucket scans, reused across rows and buckets.
#[derive(Default)]
struct Scan<'f> {
    /// Per slot: tokens shared with the current a value.
    tokens: Vec<u32>,
    /// Per slot: bigrams shared with the current a value (multiset).
    bigrams: Vec<u32>,
    /// The current a value's character counts, by bin.
    chars: Vec<u32>,
    /// The current a value's token ids (tokens no b value holds left out).
    token_ids: Vec<u32>,
    /// Per bucket shape: the current a value's [`Need`] against it.
    needs: Vec<Need>,
    /// Per member: some value pairing may reach the threshold.
    alive: Vec<bool>,
    /// Slots whose bound reaches the threshold, awaiting the exact check.
    pending: Vec<usize>,
    texts: Vec<&'f str>,
}

impl<'f> Bucket<'f> {
    fn new(members: Vec<usize>, fb: &'f [ElementFeatures], index: &mut Index<'f>) -> Self {
        let filter = index.filter;
        let values = move |bi: usize| match filter.map(|f| fb[bi].per_filter.get(f.idx)) {
            Some(Some(FilterFeatures::Similarity(vs))) => vs.as_slice(),
            _ => &[],
        };
        // Size every list in one pass, so none of them regrows.
        let (mut n_slots, mut n_tokens, mut n_bigrams, mut n_chars) = (0, 0, 0, 0);
        for p in members
            .iter()
            .flat_map(|&bi| values(bi))
            .filter_map(SimFeature::profile)
        {
            n_slots += 1;
            n_tokens += p.shape.tokens;
            n_bigrams += p.bigrams.len();
            n_chars += p.chars.len();
        }
        let mut always = Vec::with_capacity(members.len());
        let mut slots = Vec::with_capacity(n_slots);
        let mut tokens = Vec::with_capacity(n_tokens);
        let mut bigrams = Vec::with_capacity(n_bigrams);
        let mut chars = Vec::with_capacity(n_chars);
        let mut char_starts = Vec::with_capacity(n_slots + 1);
        char_starts.push(0);
        for (member, &bi) in members.iter().enumerate() {
            let values = values(bi);
            always.push(values.is_empty());
            for v in values {
                if let SimFeature::Counted { text, profile, .. } = v {
                    let s = slots.len() as u32;
                    for t in profile.tokens() {
                        tokens.push((index.intern(t), s, 1));
                    }
                    bigrams.extend(profile.bigrams.iter().map(|&(g, n)| (g, s, n)));
                    chars.extend_from_slice(&profile.chars);
                    char_starts.push(chars.len());
                    slots.push(Slot {
                        member: member as u32,
                        shape: 0,
                        text,
                        profile,
                    });
                }
            }
        }
        let mut shapes: Vec<Shape> = slots.iter().map(|s| s.profile.shape).collect();
        shapes.sort_unstable();
        shapes.dedup();
        for slot in &mut slots {
            slot.shape = shapes
                .binary_search(&slot.profile.shape)
                .unwrap_or_default() as u32;
        }
        Bucket {
            members,
            always,
            slots,
            chars,
            char_starts,
            shapes,
            tokens: Postings::new(tokens),
            bigrams: Postings::new(bigrams),
        }
    }

    /// ScanCount: every slot's shared-token and shared-bigram counts with
    /// the a value `x`, accumulated from the postings of `x`'s grams, and
    /// `x`'s character counts for [`Bucket::shared_chars`].
    fn count(&self, index: &Index<'_>, x: &GramProfile, scan: &mut Scan<'_>) {
        scan.tokens.clear();
        scan.tokens.resize(self.slots.len(), 0);
        scan.bigrams.clear();
        scan.bigrams.resize(self.slots.len(), 0);
        scan.token_ids.clear();
        scan.token_ids
            .extend(x.tokens().filter_map(|t| index.token_ids.get(t).copied()));
        for &id in &scan.token_ids {
            for &(s, _) in self.tokens.get(id) {
                scan.tokens[s as usize] += 1;
            }
        }
        for &(g, n) in x.bigrams.iter() {
            for &(s, m) in self.bigrams.get(g) {
                scan.bigrams[s as usize] += m.min(n);
            }
        }
        scan.chars.clear();
        scan.chars.resize(CHAR_BINS, 0);
        for &(bin, n) in x.chars.iter() {
            scan.chars[bin as usize] = n;
        }
    }

    /// Whether slot `s` shares at least `need` characters with the
    /// counted a value, by bin. The sum stops as soon as it reaches
    /// `need`, or as soon as the slot's characters not yet counted could
    /// no longer take it there.
    fn shares_chars(&self, s: usize, scan: &Scan<'_>, need: u32) -> bool {
        let (mut shared, mut left) = (0, self.slots[s].profile.shape.chars as u32);
        for &(bin, n) in &self.chars[self.char_starts[s]..self.char_starts[s + 1]] {
            if shared + left < need {
                return false;
            }
            shared += n.min(scan.chars[bin as usize]);
            left -= n;
            if shared >= need {
                return true;
            }
        }
        shared >= need
    }

    /// The [`Common`] counts of slot `s` with the counted a value.
    #[cfg(test)]
    fn common(&self, s: usize, scan: &Scan<'_>) -> Common {
        let chars = self.chars[self.char_starts[s]..self.char_starts[s + 1]]
            .iter()
            .map(|&(bin, n)| n.min(scan.chars[bin as usize]) as usize)
            .sum();
        Common {
            tokens: scan.tokens[s] as usize,
            bigrams: scan.bigrams[s] as usize,
            chars,
        }
    }

    /// Append to `out`, ascending, the members the indexed filter cannot
    /// prove below its threshold against row `a`: a superset of the
    /// members `a` forms an unpruned pair with.
    fn survivors(
        &self,
        index: &mut Index<'_>,
        a: &ElementFeatures,
        scan: &mut Scan<'f>,
        work: &mut BlockingWork,
        out: &mut Vec<usize>,
    ) {
        let xs = index.values(a);
        let Some(f) = index.filter.filter(|_| !xs.is_empty()) else {
            out.extend_from_slice(&self.members);
            return;
        };
        scan.alive.clear();
        scan.alive.extend_from_slice(&self.always);
        for x in xs {
            let SimFeature::Counted { text, profile, .. } = x else {
                out.extend_from_slice(&self.members);
                return;
            };
            self.count(index, profile, scan);
            scan.needs.clear();
            for &b_shape in &self.shapes {
                scan.needs.push(index.need(f, profile.shape, b_shape));
            }
            scan.pending.clear();
            work.scanned += self.slots.len();
            for (s, slot) in self.slots.iter().enumerate() {
                if scan.alive[slot.member as usize] {
                    continue;
                }
                let need = scan.needs[slot.shape as usize];
                if need.by_tokens(scan.tokens[s]) {
                    work.bound_survivors += 1;
                    scan.alive[slot.member as usize] = true;
                } else if need.by_edits(scan.bigrams[s], |n| self.shares_chars(s, scan, n)) {
                    work.bound_survivors += 1;
                    scan.pending.push(s);
                }
            }
            if scan.pending.is_empty() {
                continue;
            }
            // The exact check for the whole row at once: one pattern,
            // preprocessed once, against every bound survivor.
            work.exact_checks += scan.pending.len();
            scan.texts.clear();
            let slots = &self.slots;
            scan.texts
                .extend(scan.pending.iter().map(|&s| slots[s].text));
            let distances = sim::levenshtein_batch(text, &scan.texts);
            for (&s, d) in scan.pending.iter().zip(distances) {
                let slot = &self.slots[s];
                let tokens = scan.tokens[s] as usize;
                let exact = edit_exact(f.measure, profile.shape, slot.profile.shape, tokens, d);
                if !exact.is_some_and(|v| v + UB_SLACK < f.threshold) {
                    scan.alive[slot.member as usize] = true;
                }
            }
        }
        out.extend(
            self.members
                .iter()
                .zip(&scan.alive)
                .filter(|&(_, &alive)| alive)
                .map(|(&b, _)| b),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{DeepEqualRule, ExactTextRule, KeyInequalityRule, SimilarityThresholdRule};
    use crate::Oracle;
    use imprecise_pxml::{from_xml, PxDoc};
    use imprecise_xmlkit::parse;

    fn px(xml: &str) -> PxDoc {
        from_xml(&parse(xml).unwrap())
    }

    fn root_elem(doc: &PxDoc) -> ElemRef<'_> {
        let poss = doc.children(doc.root())[0];
        ElemRef {
            doc,
            node: doc.children(poss)[0],
        }
    }

    fn movie_oracle_like() -> Oracle {
        let mut o = Oracle::uninformed();
        o.push_rule(Box::new(DeepEqualRule));
        o.push_rule(Box::new(ExactTextRule::new("genre")));
        o.push_rule(Box::new(SimilarityThresholdRule::movie_title(0.55)));
        o.push_rule(Box::new(KeyInequalityRule::movie_year()));
        o
    }

    #[test]
    fn plan_collects_movie_filters_past_transparent_rules() {
        let plan = movie_oracle_like().blocking_plan("movie");
        assert_eq!(plan.filters().len(), 2, "title similarity + year key");
        assert!(matches!(
            plan.filters()[0],
            PruneFilter::SimilarityBelow { .. }
        ));
        assert!(matches!(plan.filters()[1], PruneFilter::KeyDiffers { .. }));
        assert_eq!(plan.join_filter(), Some(1));
    }

    #[test]
    fn plan_stops_at_match_capable_rules() {
        // The genre exact-text rule can Match, so for the `genre` tag only
        // its own filter is collected even with later genre-gated rules.
        let mut o = movie_oracle_like();
        o.push_rule(Box::new(KeyInequalityRule {
            rule_name: "genre-key".into(),
            tag: "genre".into(),
            value_path: ".".into(),
        }));
        let plan = o.blocking_plan("genre");
        assert_eq!(plan.filters(), &[PruneFilter::TextDiffers]);
    }

    #[test]
    fn unknown_rules_block_collection() {
        struct Mystery;
        impl Rule for Mystery {
            fn name(&self) -> &str {
                "mystery"
            }
            fn judge(&self, _: &ElemRef<'_>, _: &ElemRef<'_>) -> Option<crate::Decision> {
                None
            }
        }
        let mut o = Oracle::uninformed();
        o.push_rule(Box::new(Mystery));
        o.push_rule(Box::new(SimilarityThresholdRule::movie_title(0.55)));
        let plan = o.blocking_plan("movie");
        assert!(plan.is_empty(), "opaque rule must stop collection");
    }

    #[test]
    fn over_unit_thresholds_emit_no_filter() {
        // threshold > 1 makes the rule reject even identical titles,
        // which conflicts with deep-equal transparency — no filter.
        let mut o = Oracle::uninformed();
        o.push_rule(Box::new(DeepEqualRule));
        o.push_rule(Box::new(SimilarityThresholdRule {
            rule_name: "impossible".into(),
            tag: "movie".into(),
            value_path: "title".into(),
            threshold: 1.5,
            measure: SimMeasure::Title,
        }));
        assert!(o.blocking_plan("movie").is_empty());
    }

    /// Movies with certain, missing and shared keys and titles.
    fn movie_docs() -> Vec<PxDoc> {
        [
            "<movie><title>Jaws</title><year>1975</year></movie>",
            "<movie><title>Jaws 2</title><year>1978</year></movie>",
            "<movie><title>Die Hard: With a Vengeance</title><year>1995</year></movie>",
            "<movie><title>Die Hard</title><year>1988</year></movie>",
            "<movie><title>Mission: Impossible II</title><year>2000</year></movie>",
            "<movie><title>Mission Impossible 2</title><year>2000</year></movie>",
            "<movie><title>jaws</title></movie>",
            "<movie><year>1975</year></movie>",
        ]
        .iter()
        .map(|x| px(x))
        .collect()
    }

    /// The central soundness property on concrete documents: whenever the
    /// plan prunes, the oracle says NonMatch.
    #[test]
    fn pruning_implies_nonmatch() {
        let oracle = movie_oracle_like();
        let plan = oracle.blocking_plan("movie");
        let docs = movie_docs();
        let mut pruned = 0;
        for da in &docs {
            for db in &docs {
                let (a, b) = (root_elem(da), root_elem(db));
                let fa = plan.features(&a);
                let fb = plan.features(&b);
                if plan.prunes(&fa, &fb) {
                    pruned += 1;
                    let j = oracle.judge(&a, &b);
                    assert_eq!(
                        j.decision,
                        crate::Decision::NonMatch,
                        "pruned a pair the oracle would not reject"
                    );
                }
            }
        }
        assert!(pruned > 0, "plan should prune at least the obvious pairs");
    }

    /// Values the bound and fallback tests compare pairwise (repeated
    /// bigrams and non-ASCII included). "kitten"/"sitting" and
    /// "abcdef"/"uvwxyz" are pairs only the character bound prunes at
    /// thresholds the bigram bound passes (see
    /// `the_char_bound_prunes_where_the_bigram_bound_cannot`).
    const VALUES: [&str; 16] = [
        "Jaws",
        "Jaws 2",
        "Die Hard: With a Vengeance",
        "Mission: Impossible II",
        "mission impossible 2",
        "McTiernan, John",
        "John Woo",
        "",
        "tv",
        "Amélie ★",
        "banana bandana",
        "aaaa",
        "kitten",
        "sitting",
        "abcdef",
        "uvwxyz",
    ];

    #[test]
    fn similarity_upper_bounds_dominate_the_measures() {
        for measure in [
            SimMeasure::Title,
            SimMeasure::PersonName,
            SimMeasure::Levenshtein,
            SimMeasure::JaroWinkler,
            SimMeasure::TokenJaccard,
            SimMeasure::TrigramDice,
        ] {
            for a in VALUES {
                let fa = SimFeature::new(measure, a);
                for b in VALUES {
                    let fb = SimFeature::new(measure, b);
                    let ub = fa.upper_bound(&fb);
                    let actual = measure.apply(a, b);
                    assert!(
                        ub >= actual,
                        "{measure:?} ub {ub} < actual {actual} for {a:?} vs {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn exact_fallback_matches_the_measure_bitwise() {
        // The edit-based measures must offer the exact fallback, and it
        // must reproduce the rule's own similarity to the bit — that is
        // what makes pruning on it recall-safe.
        for measure in [
            SimMeasure::Title,
            SimMeasure::PersonName,
            SimMeasure::Levenshtein,
            SimMeasure::JaroWinkler,
        ] {
            for a in VALUES {
                let fa = SimFeature::new(measure, a);
                for b in VALUES {
                    let fb = SimFeature::new(measure, b);
                    let exact = fa
                        .exact(&fb)
                        .unwrap_or_else(|| panic!("{measure:?} must provide an exact fallback"));
                    let actual = measure.apply(a, b);
                    assert_eq!(
                        exact.to_bits(),
                        actual.to_bits(),
                        "{measure:?} exact {exact} != measure {actual} for {a:?} vs {b:?}"
                    );
                }
            }
        }
        // Set-arithmetic measures already bound exactly; no fallback.
        for measure in [SimMeasure::TokenJaccard, SimMeasure::TrigramDice] {
            let fa = SimFeature::new(measure, "Jaws");
            let fb = SimFeature::new(measure, "Jaws 2");
            assert_eq!(fa.exact(&fb), None);
        }
    }

    #[test]
    fn join_keys_surface_trimmed_certain_values() {
        let plan = movie_oracle_like().blocking_plan("movie");
        let d = px("<movie><title>Jaws</title><year> 1975 </year></movie>");
        let f = plan.features(&root_elem(&d));
        assert_eq!(f.join_keys(1), Some(&["1975".to_string()][..]));
        let missing = px("<movie><title>Jaws</title></movie>");
        let fm = plan.features(&root_elem(&missing));
        assert_eq!(fm.join_keys(1), None, "missing year must stay wild");
    }

    #[test]
    fn other_tag_features_never_prune() {
        let plan = movie_oracle_like().blocking_plan("movie");
        let movie = px("<movie><title>Jaws</title><year>1975</year></movie>");
        let person = px("<person><nm>Jaws</nm></person>");
        let fm = plan.features(&root_elem(&movie));
        let fp = plan.features(&root_elem(&person));
        assert!(!plan.prunes(&fm, &fp));
        assert!(!plan.prunes(&fp, &fm));
    }

    /// The count-based bound the index evaluates, from ScanCount's
    /// token and bigram counts and the bucket's character counts, is the
    /// per-pair `upper_bound` to the bit, and the row's integer [`Need`]
    /// test gives the float comparison's answer.
    #[test]
    fn index_counts_reproduce_the_pairwise_bound() {
        for measure in [
            SimMeasure::Title,
            SimMeasure::Levenshtein,
            SimMeasure::TokenJaccard,
        ] {
            let feature = |v: &str| ElementFeatures {
                per_filter: vec![FilterFeatures::Similarity(vec![SimFeature::new(
                    measure, v,
                )])],
            };
            let fb: Vec<ElementFeatures> = VALUES.iter().map(|v| feature(v)).collect();
            for threshold in [0.0, 0.3, 0.5, 0.55, 0.75, 1.0] {
                let filter = IndexedFilter {
                    idx: 0,
                    measure,
                    threshold,
                };
                let mut index = Index::new(Some(filter));
                let bucket = Bucket::new((0..fb.len()).collect(), &fb, &mut index);
                assert_eq!(bucket.slots.len(), VALUES.len());
                let mut scan = Scan::default();
                for (a, fa) in VALUES.iter().zip(&fb) {
                    let x = &index.values(fa)[0];
                    let profile = x.profile().expect("count-bounded");
                    bucket.count(&index, profile, &mut scan);
                    for (s, slot) in bucket.slots.iter().enumerate() {
                        let b = VALUES[bucket.members[slot.member as usize]];
                        let common = bucket.common(s, &scan);
                        let pairwise = profile.common(slot.profile);
                        assert_eq!(common, pairwise, "{measure:?} {a:?} vs {b:?}");
                        let indexed =
                            count_bound(measure, profile.shape, slot.profile.shape, common);
                        let upper = x.upper_bound(&SimFeature::new(measure, b));
                        assert_eq!(
                            indexed.to_bits(),
                            upper.to_bits(),
                            "{measure:?} {a:?} vs {b:?}"
                        );
                        let need = index.need(filter, profile.shape, slot.profile.shape);
                        let passes = need.by_tokens(scan.tokens[s])
                            || need.by_edits(scan.bigrams[s], |n| common.chars as u32 >= n);
                        let early = need.by_tokens(scan.tokens[s])
                            || need.by_edits(scan.bigrams[s], |n| bucket.shares_chars(s, &scan, n));
                        assert_eq!(early, passes, "{measure:?} {a:?} vs {b:?}");
                        assert_eq!(passes, indexed >= threshold, "{measure:?} {a:?} vs {b:?}");
                    }
                }
            }
        }
    }

    /// Over every count two small shapes can share, the integer [`Need`]
    /// test gives the float comparison's answer, and a pair passing on
    /// tokens alone cannot be pruned by its exact check at any distance.
    #[test]
    fn needs_reproduce_the_float_comparison_on_every_count() {
        let shapes: Vec<Shape> = (0..=9)
            .flat_map(|chars| (0..=3).map(move |tokens| Shape { chars, tokens }))
            .collect();
        for measure in [
            SimMeasure::Title,
            SimMeasure::Levenshtein,
            SimMeasure::TokenJaccard,
        ] {
            for threshold in [0.0, 1e-10, 0.2, 0.5, 0.55, 0.6, 0.75, 0.9, 1.0, 1.5] {
                for &a in &shapes {
                    for &b in &shapes {
                        let need = Need::derive(measure, threshold, a, b);
                        let most = Common::most(a, b);
                        for tokens in 0..=most.tokens {
                            for bigrams in 0..=most.bigrams {
                                for chars in 0..=most.chars {
                                    let common = Common {
                                        tokens,
                                        bigrams,
                                        chars,
                                    };
                                    let reaches = count_bound(measure, a, b, common) >= threshold;
                                    let certain = need.by_tokens(tokens as u32);
                                    let passes = certain
                                        || need.by_edits(bigrams as u32, |n| chars as u32 >= n);
                                    assert_eq!(
                                        passes, reaches,
                                        "{measure:?} t={threshold} {a:?} {b:?} {common:?}"
                                    );
                                    for d in 0..=a.chars.max(b.chars) {
                                        let exact = edit_exact(measure, a, b, tokens, d);
                                        assert!(
                                            !certain
                                                || !exact.is_some_and(|v| v + UB_SLACK < threshold),
                                            "{measure:?} t={threshold} {a:?} {b:?} {common:?} d={d}"
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// The character count alone proves "kitten"/"sitting" below 0.6
    /// (three edits in seven characters), where the bigram count leaves
    /// 0.71; "abcdef"/"uvwxyz" share no character at all.
    #[test]
    fn the_char_bound_prunes_where_the_bigram_bound_cannot() {
        for (a, b, threshold) in [("kitten", "sitting", 0.6), ("abcdef", "uvwxyz", 0.4)] {
            let fa = SimFeature::new(SimMeasure::Levenshtein, a);
            let fb = SimFeature::new(SimMeasure::Levenshtein, b);
            let (pa, pb) = (fa.profile().unwrap(), fb.profile().unwrap());
            let common = pa.common(pb);
            let without_chars = Common { chars: 7, ..common };
            let bigram_only = lev_similarity_ub(pa.shape.chars, pb.shape.chars, without_chars);
            assert!(bigram_only >= threshold, "{a} vs {b}: {bigram_only}");
            assert!(fa.upper_bound(&fb) < threshold, "{a} vs {b}");
        }
    }

    /// Arbitrary text over an alphabet: ASCII, non-ASCII and a
    /// two-letter alphabet that repeats characters.
    fn text(alphabet: &'static [char]) -> impl proptest::Strategy<Value = String> {
        use proptest::prelude::*;
        proptest::collection::vec(0..alphabet.len(), 0..24)
            .prop_map(move |ix| ix.into_iter().map(|i| alphabet[i]).collect())
    }

    const ASCII: &[char] = &['a', 'b', 'c', 'd', 'e', ' ', 'X', '1'];
    const NON_ASCII: &[char] = &['a', 'é', 'è', '★', 'ß', 'Æ', ' ', 'e'];
    const REPEATS: &[char] = &['a', 'b'];

    fn char_bound_holds(a: &str, b: &str) -> Result<(), proptest::TestCaseError> {
        let pa = GramProfile::new(a, false, true);
        let pb = GramProfile::new(b, false, true);
        let max_len = pa.shape.chars.max(pb.shape.chars);
        let common = pa.common(&pb);
        proptest::prop_assert!(max_len - common.chars <= sim::levenshtein(a, b));
        let ub = lev_similarity_ub(pa.shape.chars, pb.shape.chars, common);
        proptest::prop_assert!(ub >= sim::levenshtein_similarity(a, b));
        Ok(())
    }

    proptest::proptest! {
        /// `max_len − shared characters` never exceeds the edit distance,
        /// with non-ASCII characters lumped into one bin.
        #[test]
        fn the_char_bound_stays_below_the_edit_distance(
            a in text(ASCII), b in text(ASCII),
            c in text(NON_ASCII), d in text(NON_ASCII),
            e in text(REPEATS), f in text(REPEATS),
        ) {
            for (x, y) in [(&a, &b), (&c, &d), (&e, &f), (&a, &c), (&a, &String::new())] {
                char_bound_holds(x, y)?;
            }
        }
    }

    #[test]
    fn candidates_are_the_unpruned_cross_product() {
        let plan = movie_oracle_like().blocking_plan("movie");
        let docs = movie_docs();
        let features: Vec<ElementFeatures> =
            docs.iter().map(|d| plan.features(&root_elem(d))).collect();
        let mut expect = Vec::new();
        for (a, fa) in features.iter().enumerate() {
            for (b, fb) in features.iter().enumerate() {
                if !plan.prunes(fa, fb) {
                    expect.push((a, b));
                }
            }
        }
        assert!(expect.len() < features.len() * features.len());
        assert_eq!(plan.candidates(&features, &features).pairs, expect);
    }
}
