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
//! measure is set arithmetic (Jaccard, Dice), and length/q-gram/character
//! -multiset bounds for the edit-based measures, padded with a slack that
//! absorbs any f64 rounding asymmetry. When a cheap bound is too loose to
//! prune, the edit-based filters fall back to evaluating the measure
//! itself on the precomputed (normalised) values — still a fraction of a
//! full oracle consultation. A pair is pruned only when every
//! possible-value pairing is provably below the rule's threshold.
//!
//! # How candidates are generated
//!
//! [`BlockingPlan::candidates`] returns `{(a, b) : !prunes(a, b)}` in
//! row-major order without calling [`BlockingPlan::prunes`] on the whole
//! cross product:
//!
//! 1. **Hash join.** The plan's first equality filter splits the b side
//!    into one bucket per certain key. Elements without certain keys are
//!    wild and meet every row. A plan with no equality filter has one
//!    bucket.
//! 2. **Gram index.** Each bucket indexes its b values for the plan's
//!    first similarity filter with a count-bounded measure (`Title`,
//!    `Levenshtein`, `TokenJaccard`): postings from each bigram and each
//!    token to the values holding it, keyed by dense ids into a sorted
//!    intern table. For one a value, a pass over the postings of its grams
//!    yields every b value's exact shared-token and shared-bigram counts
//!    (ScanCount), and those counts feed `count_bound`, the same function
//!    the per-pair bound calls — the q-gram count filter of Gravano et
//!    al. (VLDB 2001). Values with no shared gram get counts of zero and
//!    are bounded like the rest.
//! 3. **Row-batched exact check.** The edit measures' bound survivors of
//!    one a value are checked in one [`sim::levenshtein_batch`] call, so
//!    the pattern is preprocessed once per value, not once per pair.
//! 4. **The predicate.** Every pair still left runs
//!    [`BlockingPlan::prunes`] before it is emitted.
//!
//! Steps 2 and 3 drop a pair only where that filter's own bound or exact
//! check proves every value pairing below the threshold, with the same
//! arithmetic on the same counts, so the pair would fire the filter in
//! `prunes` too: the index yields a superset of the survivors, and step 4
//! cuts it to exactly the survivors. The measures the index does not
//! serve — `PersonName` and `JaroWinkler`, whose bounds read character
//! multisets with no selective gram, and `TrigramDice` — leave every
//! bucket member to step 4, which bounds each pair on its own.

use crate::rules::{Rule, SimMeasure};
use crate::value::{ElemRef, PossibleValues};
use imprecise_sim as sim;
use std::collections::BTreeSet;

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
                    Some(ts) if !ts.is_empty() => FilterFeatures::Equality(ts),
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

    /// Every pair `(a, b)` this plan cannot prove `NonMatch` — exactly
    /// `{(a, b) : !self.prunes(&fa[a], &fb[b])}` — in row-major order.
    ///
    /// See the module docs for how the pairs are generated without
    /// calling [`BlockingPlan::prunes`] on the whole cross product.
    pub fn candidates(
        &self,
        fa: &[ElementFeatures],
        fb: &[ElementFeatures],
    ) -> Vec<(usize, usize)> {
        if self.filters.is_empty() {
            // Nothing can prune: the cross product, without building
            // buckets for the many small groups of unruled tags.
            return (0..fa.len())
                .flat_map(|a| (0..fb.len()).map(move |b| (a, b)))
                .collect();
        }
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
        let mut keys: Vec<&str> = Vec::new();
        let mut buckets: Vec<Bucket<'_>> = Vec::new();
        for run in keyed.chunk_by(|x, y| x.0 == y.0) {
            keys.push(run[0].0);
            buckets.push(Bucket::new(
                run.iter().map(|&(_, bi)| bi).collect(),
                fb,
                filter,
            ));
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
            buckets.push(Bucket::new(wild, fb, filter));
            rows.push((0..fa.len()).collect());
        }

        // Bucket by bucket, so a bucket's index stays in cache while its
        // rows scan it. Each row keeps only the pairs `prunes` passes, so
        // memory follows the output, not the bucket sizes.
        let mut scan = Scan::default();
        let mut found: Vec<usize> = Vec::new();
        let mut kept: Vec<Vec<usize>> = vec![Vec::new(); fa.len()];
        for (bucket, rows) in buckets.iter().zip(&rows) {
            for &ai in rows {
                found.clear();
                bucket.survivors(filter, &fa[ai], &mut scan, &mut found);
                kept[ai].extend(found.iter().filter(|&&bi| !self.prunes(&fa[ai], &fb[bi])));
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
        pairs
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

/// Character-bigram multiset of a string — each edit operation disturbs
/// at most two bigrams, giving the q-gram edit-distance lower bound.
/// Stored as a sorted run-length vector: the per-pair bound merges two
/// of these, and the candidate index keys its postings on the same runs.
type Bigrams = Vec<((char, char), usize)>;

fn sorted_counts<K: Ord + Copy>(mut keys: Vec<K>) -> Vec<(K, usize)> {
    keys.sort_unstable();
    let mut out: Vec<(K, usize)> = Vec::with_capacity(keys.len());
    for k in keys {
        match out.last_mut() {
            Some((last, n)) if *last == k => *n += 1,
            _ => out.push((k, 1)),
        }
    }
    out
}

fn bigrams(s: &str) -> Bigrams {
    let grams = s.chars().zip(s.chars().skip(1)).collect();
    sorted_counts(grams)
}

/// Distinct tokens, sorted: [`sim::token_set`]'s members in its order.
fn sorted_tokens(s: &str) -> Vec<String> {
    let mut tokens = sim::tokenize(s);
    tokens.sort_unstable();
    tokens.dedup();
    tokens
}

fn multiset_common<K: Ord + Copy>(a: &[(K, usize)], b: &[(K, usize)]) -> usize {
    let (mut i, mut j, mut common) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                common += a[i].1.min(b[j].1);
                i += 1;
                j += 1;
            }
        }
    }
    common
}

fn char_counts(s: &str) -> Vec<(char, usize)> {
    sorted_counts(s.chars().collect())
}

/// Shared members of two sorted, deduplicated token vectors, by a
/// two-pointer merge.
fn set_common(a: &[String], b: &[String]) -> usize {
    let (mut i, mut j, mut common) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                common += 1;
                i += 1;
                j += 1;
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

/// Upper bound on `1 − d/max_len` from two edit-distance lower bounds:
/// the length difference and the q-gram (q = 2) bound
/// `d ≥ ⌈(max_grams − common) / 2⌉`. `len_a` and `len_b` count
/// characters, `common` the bigrams the two values share (multiset
/// intersection).
fn lev_similarity_ub(len_a: usize, len_b: usize, common: usize) -> f64 {
    let max_len = len_a.max(len_b);
    if max_len == 0 {
        return 1.0;
    }
    let len_lb = len_a.abs_diff(len_b);
    let max_grams = len_a.saturating_sub(1).max(len_b.saturating_sub(1));
    let qgram_lb = (max_grams - common).div_ceil(2);
    let d_lb = len_lb.max(qgram_lb);
    1.0 - d_lb as f64 / max_len as f64
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

/// What the count-based bounds read of one value: its length in
/// characters, its distinct tokens (sorted) and its character-bigram
/// multiset. A measure leaves empty the part it does not use.
#[derive(Debug, Clone)]
struct GramProfile {
    chars: usize,
    tokens: Vec<String>,
    bigrams: Bigrams,
}

/// The sizes the count-based bounds read: characters and distinct tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Shape {
    chars: usize,
    tokens: usize,
}

/// Gram overlap of two values: shared tokens and shared bigrams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Common {
    tokens: usize,
    bigrams: usize,
}

impl GramProfile {
    fn shape(&self) -> Shape {
        Shape {
            chars: self.chars,
            tokens: self.tokens.len(),
        }
    }

    fn common(&self, other: &GramProfile) -> Common {
        Common {
            tokens: set_common(&self.tokens, &other.tokens),
            bigrams: multiset_common(&self.bigrams, &other.bigrams),
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
/// ([`SimFeature::upper_bound`]) and the candidate index both call this,
/// so the two cannot drift.
fn count_bound(measure: SimMeasure, a: Shape, b: Shape, common: Common) -> f64 {
    let jaccard = || jaccard_count(a.tokens, b.tokens, common.tokens);
    let lev = || lev_similarity_ub(a.chars, b.chars, common.bigrams);
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
/// `Levenshtein`) from the two [`Shape`]s, their [`Common`] counts and the edit
/// distance of the compared texts — what [`SimMeasure::apply`] computes
/// after its normalisation step. `None` for the set-arithmetic measures,
/// whose bound already is the measure.
fn edit_exact(
    measure: SimMeasure,
    a: Shape,
    b: Shape,
    common: Common,
    distance: usize,
) -> Option<f64> {
    let lev = lev_similarity(a.chars, b.chars, distance);
    match measure {
        // Two empty titles: Jaccard and the edit part are both 1.0, as
        // `title_similarity`'s both-empty short-circuit.
        SimMeasure::Title => Some(jaccard_count(a.tokens, b.tokens, common.tokens).max(lev)),
        SimMeasure::Levenshtein => Some(lev),
        _ => None,
    }
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
        text: String,
        profile: GramProfile,
    },
    PersonName {
        norm: String,
        chars: usize,
        counts: Vec<(char, usize)>,
    },
    JaroWinkler {
        value: String,
        chars: usize,
        counts: Vec<(char, usize)>,
    },
    TrigramDice {
        lower: String,
        trigrams: BTreeSet<Vec<char>>,
    },
}

impl SimFeature {
    fn new(measure: SimMeasure, v: &str) -> SimFeature {
        match measure {
            SimMeasure::Title => {
                let n = sim::normalize_title(v);
                SimFeature::Counted {
                    measure,
                    profile: GramProfile {
                        chars: n.chars().count(),
                        tokens: sorted_tokens(&n),
                        bigrams: bigrams(&n),
                    },
                    text: n,
                }
            }
            SimMeasure::Levenshtein => SimFeature::Counted {
                measure,
                text: v.to_string(),
                profile: GramProfile {
                    chars: v.chars().count(),
                    tokens: Vec::new(),
                    bigrams: bigrams(v),
                },
            },
            SimMeasure::TokenJaccard => SimFeature::Counted {
                measure,
                text: String::new(),
                profile: GramProfile {
                    chars: 0,
                    tokens: sorted_tokens(v),
                    bigrams: Vec::new(),
                },
            },
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
            ) if measure == mb => count_bound(*measure, pa.shape(), pb.shape(), pa.common(pb)),
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
                pa.shape(),
                pb.shape(),
                pa.common(pb),
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
fn jaro_winkler_ub(ca: usize, cb: usize, na: &[(char, usize)], nb: &[(char, usize)]) -> f64 {
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

/// An inverted index from gram to the slots (b values) holding it, with
/// the gram's multiplicity in each. A gram's id is its position in the
/// sorted intern table `grams`; its postings are one contiguous run of
/// `entries`, slots ascending.
struct Postings<K> {
    grams: Vec<K>,
    starts: Vec<usize>,
    entries: Vec<(u32, u32)>,
}

impl<K: Ord + Copy> Postings<K> {
    /// Index `(gram, slot, count)` occurrences.
    fn new(mut items: Vec<(K, u32, u32)>) -> Self {
        items.sort_unstable();
        let mut grams = Vec::new();
        let mut starts = Vec::new();
        let mut entries = Vec::with_capacity(items.len());
        for (gram, slot, n) in items {
            if grams.last() != Some(&gram) {
                grams.push(gram);
                starts.push(entries.len());
            }
            entries.push((slot, n));
        }
        starts.push(entries.len());
        Postings {
            grams,
            starts,
            entries,
        }
    }

    /// The `(slot, count)` postings of `gram`; empty when no slot has it.
    fn get(&self, gram: &K) -> &[(u32, u32)] {
        match self.grams.binary_search(gram) {
            Ok(id) => &self.entries[self.starts[id]..self.starts[id + 1]],
            Err(_) => &[],
        }
    }
}

/// One indexed b value: the bucket member it belongs to, the text its
/// exact check compares and its shape (inline: the bound loop reads it
/// for every slot of the bucket).
struct Slot<'f> {
    member: usize,
    text: &'f str,
    shape: Shape,
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
    tokens: Postings<&'f str>,
    bigrams: Postings<(char, char)>,
}

/// Per-row scratch of the bucket scans, reused across rows and buckets.
#[derive(Default)]
struct Scan<'f> {
    /// Per slot: tokens shared with the current a value.
    tokens: Vec<u32>,
    /// Per slot: bigrams shared with the current a value (multiset).
    bigrams: Vec<u32>,
    /// Per member: some value pairing may reach the threshold.
    alive: Vec<bool>,
    /// Slots whose bound reaches the threshold, awaiting the exact check.
    pending: Vec<usize>,
    texts: Vec<&'f str>,
}

impl Scan<'_> {
    fn common(&self, slot: usize) -> Common {
        Common {
            tokens: self.tokens[slot] as usize,
            bigrams: self.bigrams[slot] as usize,
        }
    }
}

impl<'f> Bucket<'f> {
    fn new(members: Vec<usize>, fb: &'f [ElementFeatures], filter: Option<IndexedFilter>) -> Self {
        let mut always = Vec::with_capacity(members.len());
        let mut slots = Vec::new();
        let mut tokens = Vec::new();
        let mut bigrams = Vec::new();
        for (member, &bi) in members.iter().enumerate() {
            let values = filter.and_then(|f| match fb[bi].per_filter.get(f.idx) {
                Some(FilterFeatures::Similarity(vs)) => Some(vs),
                _ => None,
            });
            always.push(values.is_none());
            for v in values.into_iter().flatten() {
                if let SimFeature::Counted { text, profile, .. } = v {
                    let s = slots.len() as u32;
                    tokens.extend(profile.tokens.iter().map(|t| (t.as_str(), s, 1)));
                    bigrams.extend(profile.bigrams.iter().map(|&(g, n)| (g, s, n as u32)));
                    slots.push(Slot {
                        member,
                        text,
                        shape: profile.shape(),
                    });
                }
            }
        }
        Bucket {
            members,
            always,
            slots,
            tokens: Postings::new(tokens),
            bigrams: Postings::new(bigrams),
        }
    }

    /// ScanCount: every slot's [`Common`] counts with the a value `x`,
    /// accumulated from the postings of `x`'s grams.
    fn count(&self, x: &GramProfile, scan: &mut Scan<'_>) {
        scan.tokens.clear();
        scan.tokens.resize(self.slots.len(), 0);
        scan.bigrams.clear();
        scan.bigrams.resize(self.slots.len(), 0);
        for t in &x.tokens {
            for &(s, _) in self.tokens.get(&t.as_str()) {
                scan.tokens[s as usize] += 1;
            }
        }
        for &(g, n) in &x.bigrams {
            for &(s, m) in self.bigrams.get(&g) {
                scan.bigrams[s as usize] += m.min(n as u32);
            }
        }
    }

    /// Append to `out`, ascending, the members the indexed filter cannot
    /// prove below its threshold against row `a`: a superset of the
    /// members `a` forms an unpruned pair with.
    fn survivors(
        &self,
        filter: Option<IndexedFilter>,
        a: &ElementFeatures,
        scan: &mut Scan<'f>,
        out: &mut Vec<usize>,
    ) {
        let (f, xs) = match filter.map(|f| (f, a.per_filter.get(f.idx))) {
            Some((f, Some(FilterFeatures::Similarity(xs)))) => (f, xs),
            _ => {
                out.extend_from_slice(&self.members);
                return;
            }
        };
        scan.alive.clear();
        scan.alive.extend_from_slice(&self.always);
        for x in xs {
            let SimFeature::Counted { text, profile, .. } = x else {
                out.extend_from_slice(&self.members);
                return;
            };
            self.count(profile, scan);
            let shape = profile.shape();
            scan.pending.clear();
            for (s, slot) in self.slots.iter().enumerate() {
                if scan.alive[slot.member]
                    || count_bound(f.measure, shape, slot.shape, scan.common(s)) < f.threshold
                {
                    continue;
                }
                if f.measure == SimMeasure::TokenJaccard {
                    scan.alive[slot.member] = true;
                } else {
                    scan.pending.push(s);
                }
            }
            if scan.pending.is_empty() {
                continue;
            }
            // The exact check for the whole row at once: one pattern,
            // preprocessed once, against every bound survivor.
            scan.texts.clear();
            let slots = &self.slots;
            scan.texts
                .extend(scan.pending.iter().map(|&s| slots[s].text));
            let distances = sim::levenshtein_batch(text, &scan.texts);
            for (&s, d) in scan.pending.iter().zip(distances) {
                let slot = &self.slots[s];
                let exact = edit_exact(f.measure, shape, slot.shape, scan.common(s), d);
                if !exact.is_some_and(|v| v + UB_SLACK < f.threshold) {
                    scan.alive[slot.member] = true;
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
    /// bigrams and non-ASCII included).
    const VALUES: [&str; 12] = [
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
    /// counts, is the per-pair `upper_bound` to the bit.
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
            let filter = IndexedFilter {
                idx: 0,
                measure,
                threshold: 0.5,
            };
            let bucket = Bucket::new((0..fb.len()).collect(), &fb, Some(filter));
            assert_eq!(bucket.slots.len(), VALUES.len());
            let mut scan = Scan::default();
            for a in VALUES {
                let fa = SimFeature::new(measure, a);
                let SimFeature::Counted { profile, .. } = &fa else {
                    panic!("{measure:?} is count-bounded");
                };
                bucket.count(profile, &mut scan);
                for (s, slot) in bucket.slots.iter().enumerate() {
                    let b = VALUES[bucket.members[slot.member]];
                    let indexed = count_bound(measure, profile.shape(), slot.shape, scan.common(s));
                    let pairwise = fa.upper_bound(&SimFeature::new(measure, b));
                    assert_eq!(
                        indexed.to_bits(),
                        pairwise.to_bits(),
                        "{measure:?} {a:?} vs {b:?}"
                    );
                }
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
        assert_eq!(plan.candidates(&features, &features), expect);
    }
}
