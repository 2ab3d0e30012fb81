//! Knowledge rules.
//!
//! "The rules need to be as simple as possible, because the purpose of
//! probabilistic integration is to significantly reduce manual effort, so
//! rule specification overhead should be minimal" (§V). Each rule here is
//! one sentence of domain knowledge; a rule either decides a pair with
//! certainty or abstains.

use crate::blocking::{BlockingHint, PruneFilter};
use crate::decision::Decision;
use crate::value::{ElemRef, PossibleValues};
use imprecise_pxml::{px_deep_equal, px_fingerprint};
use imprecise_sim as sim;

/// Variant budget when a rule inspects values through choice points. An
/// element whose value takes more variants than this makes rules abstain.
pub(crate) const VALUE_VARIANT_CAP: usize = 16;

/// A knowledge rule consulted by the Oracle.
pub trait Rule: Send + Sync {
    /// Short stable name used in traces and statistics.
    fn name(&self) -> &str;

    /// Judge the pair, or abstain with `None`.
    fn judge(&self, a: &ElemRef<'_>, b: &ElemRef<'_>) -> Option<Decision>;

    /// Judge one left element against a row of right elements, writing
    /// into the `None` slots of `out` (a decided slot belongs to an
    /// earlier rule and must be left alone).
    ///
    /// The default is the per-pair loop; rules whose left-hand work is
    /// amortisable (normalisation, tokenisation) override this. Overrides
    /// must stay *bit-identical* to per-pair judging.
    fn judge_row(&self, a: &ElemRef<'_>, bs: &[ElemRef<'_>], out: &mut [Option<Decision>]) {
        for (b, slot) in bs.iter().zip(out.iter_mut()) {
            if slot.is_none() {
                *slot = self.judge(a, b);
            }
        }
    }

    /// How this rule behaves for blocking-plan derivation (see
    /// [`crate::blocking`]). The conservative default marks the rule
    /// opaque, which stops prefilter collection at it — always sound.
    fn blocking_hint(&self) -> BlockingHint {
        BlockingHint::Opaque
    }
}

/// Generic rule: *two deep-equal elements refer to the same rwo*.
///
/// Only ever produces [`Decision::Match`]; unequal elements are left to
/// other rules (inequality is no evidence of distinctness — the whole point
/// of the system is that differing descriptions may still co-refer).
#[derive(Debug, Clone, Copy, Default)]
pub struct DeepEqualRule;

impl Rule for DeepEqualRule {
    fn name(&self) -> &str {
        "deep-equal"
    }

    fn judge(&self, a: &ElemRef<'_>, b: &ElemRef<'_>) -> Option<Decision> {
        // Fingerprint as a cheap pre-filter, structural compare to confirm.
        if px_fingerprint(a.doc, a.node) == px_fingerprint(b.doc, b.node)
            && px_deep_equal(a.doc, a.node, b.doc, b.node)
        {
            Some(Decision::Match)
        } else {
            None
        }
    }

    fn blocking_hint(&self) -> BlockingHint {
        // Matches only content-identical pairs; never non-matches.
        BlockingHint::Transparent
    }
}

/// Value-identity rule for elements identified by their text, like the
/// paper's genre rule ("no typos occur in genres"): two `tag` elements
/// refer to the same rwo iff their text is equal.
///
/// Decides in *both* directions (match on equal, non-match on different),
/// which is what makes it so effective at pruning: every genre pair gets
/// an absolute decision. When a side's text is uncertain (a value-conflict
/// choice from an earlier integration round) the rule still decides if
/// every possible value combination yields the same verdict, and abstains
/// otherwise.
#[derive(Debug, Clone)]
pub struct ExactTextRule {
    /// Element tag this rule applies to.
    pub tag: String,
}

impl ExactTextRule {
    /// Rule for elements with the given tag.
    pub fn new(tag: impl Into<String>) -> Self {
        ExactTextRule { tag: tag.into() }
    }
}

impl Rule for ExactTextRule {
    fn name(&self) -> &str {
        "exact-text"
    }

    fn judge(&self, a: &ElemRef<'_>, b: &ElemRef<'_>) -> Option<Decision> {
        if a.tag() != self.tag || b.tag() != self.tag {
            return None;
        }
        let ta = a.possible_own_texts(VALUE_VARIANT_CAP)?;
        let tb = b.possible_own_texts(VALUE_VARIANT_CAP)?;
        decide_over_pairs(&ta, &tb, |x, y| x == y)
    }

    fn blocking_hint(&self) -> BlockingHint {
        BlockingHint::TagGated {
            tag: self.tag.clone(),
            filter: Some(PruneFilter::TextDiffers),
            // Equal texts decide Match, so no later filter may prune
            // pairs this rule would accept.
            decides_match: true,
        }
    }
}

/// The uniform verdict over every cross pair of possible values: `Match`
/// when `same` holds for all pairs, `NonMatch` when it holds for none,
/// abstention when the pairs disagree (or either side is empty).
fn decide_over_pairs<T: AsRef<str>>(
    a: &[T],
    b: &[T],
    same: impl Fn(&str, &str) -> bool,
) -> Option<Decision> {
    if a.is_empty() || b.is_empty() {
        return None;
    }
    let mut any_same = false;
    let mut any_diff = false;
    for x in a {
        for y in b {
            if same(x.as_ref(), y.as_ref()) {
                any_same = true;
            } else {
                any_diff = true;
            }
            if any_same && any_diff {
                return None;
            }
        }
    }
    Some(if any_same {
        Decision::Match
    } else {
        Decision::NonMatch
    })
}

/// Similarity measure used by [`SimilarityThresholdRule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimMeasure {
    /// Normalised movie-title similarity ([`sim::title_similarity`]).
    Title,
    /// Person-name similarity with convention normalisation
    /// ([`sim::person_name_similarity`]).
    PersonName,
    /// Character-level normalised Levenshtein similarity.
    Levenshtein,
    /// Jaro-Winkler.
    JaroWinkler,
    /// Token-set Jaccard.
    TokenJaccard,
    /// Character-trigram Dice coefficient.
    TrigramDice,
}

impl SimMeasure {
    /// Apply the measure to two strings.
    pub fn apply(&self, a: &str, b: &str) -> f64 {
        match self {
            SimMeasure::Title => sim::title_similarity(a, b),
            SimMeasure::PersonName => sim::person_name_similarity(a, b),
            SimMeasure::Levenshtein => sim::levenshtein_similarity(a, b),
            SimMeasure::JaroWinkler => sim::jaro_winkler(a, b),
            SimMeasure::TokenJaccard => sim::jaccard_tokens(a, b),
            SimMeasure::TrigramDice => sim::dice_trigram(a, b),
        }
    }

    /// Preprocess the left-hand string for repeated one-vs-many
    /// application. `prepared.apply(y)` is bit-identical to
    /// `measure.apply(x, y)`.
    fn prepare(&self, x: &str) -> PreparedMeasure {
        match self {
            SimMeasure::Title => PreparedMeasure::Title(sim::PreparedTitle::new(x)),
            SimMeasure::PersonName => PreparedMeasure::PersonName(sim::PreparedPersonName::new(x)),
            other => PreparedMeasure::Other(*other, x.to_string()),
        }
    }
}

/// A [`SimMeasure`] with the left-hand operand preprocessed (normalised,
/// tokenised) once, for batch judging.
enum PreparedMeasure {
    Title(sim::PreparedTitle),
    PersonName(sim::PreparedPersonName),
    Other(SimMeasure, String),
}

impl PreparedMeasure {
    fn apply(&self, y: &str) -> f64 {
        match self {
            PreparedMeasure::Title(p) => p.similarity(y),
            PreparedMeasure::PersonName(p) => p.similarity(y),
            PreparedMeasure::Other(measure, x) => measure.apply(x, y),
        }
    }
}

/// Dissimilarity rule, like the paper's title rule: *two `tag` elements
/// cannot match if the value at `value_path` is not sufficiently similar*.
///
/// Only ever produces [`Decision::NonMatch`] (high similarity is not proof
/// of identity — "Mission: Impossible" vs "Mission: Impossible II").
/// Abstains when either value is missing or uncertain.
#[derive(Debug, Clone)]
pub struct SimilarityThresholdRule {
    /// Rule name for traces (e.g. `"movie-title"`).
    pub rule_name: String,
    /// Element tag this rule applies to (e.g. `"movie"`).
    pub tag: String,
    /// Path from the element to the compared value (e.g. `"title"`).
    pub value_path: String,
    /// Similarity below this threshold ⇒ certainly not the same rwo.
    pub threshold: f64,
    /// Similarity measure.
    pub measure: SimMeasure,
}

impl SimilarityThresholdRule {
    /// The paper's movie-title rule with the given threshold.
    pub fn movie_title(threshold: f64) -> Self {
        SimilarityThresholdRule {
            rule_name: "movie-title".into(),
            tag: "movie".into(),
            value_path: "title".into(),
            threshold,
            measure: SimMeasure::Title,
        }
    }

    /// A person-name gate for address-book persons: persons whose names are
    /// dissimilar cannot be the same person.
    pub fn person_name(threshold: f64) -> Self {
        SimilarityThresholdRule {
            rule_name: "person-name".into(),
            tag: "person".into(),
            value_path: "nm".into(),
            threshold,
            measure: SimMeasure::PersonName,
        }
    }
}

impl Rule for SimilarityThresholdRule {
    fn name(&self) -> &str {
        &self.rule_name
    }

    fn judge(&self, a: &ElemRef<'_>, b: &ElemRef<'_>) -> Option<Decision> {
        if a.tag() != self.tag || b.tag() != self.tag {
            return None;
        }
        match (
            a.possible_values_at(&self.value_path, VALUE_VARIANT_CAP),
            b.possible_values_at(&self.value_path, VALUE_VARIANT_CAP),
        ) {
            (PossibleValues::Values(va), PossibleValues::Values(vb)) => {
                // Non-match only when *every* possible title pairing is
                // dissimilar; high similarity never proves identity.
                let all_below = va
                    .iter()
                    .all(|x| vb.iter().all(|y| self.measure.apply(x, y) < self.threshold));
                if all_below {
                    Some(Decision::NonMatch)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// Batch path: normalise/tokenise each of `a`'s possible values once
    /// and reuse them across the whole row. Bit-identical to [`Rule::judge`]
    /// per pair because `PreparedMeasure::apply` is bit-identical to
    /// [`SimMeasure::apply`].
    fn judge_row(&self, a: &ElemRef<'_>, bs: &[ElemRef<'_>], out: &mut [Option<Decision>]) {
        if a.tag() != self.tag {
            return;
        }
        let va = match a.possible_values_at(&self.value_path, VALUE_VARIANT_CAP) {
            PossibleValues::Values(va) => va,
            _ => return,
        };
        let prepared: Vec<PreparedMeasure> = va.iter().map(|x| self.measure.prepare(x)).collect();
        for (b, slot) in bs.iter().zip(out.iter_mut()) {
            if slot.is_some() || b.tag() != self.tag {
                continue;
            }
            if let PossibleValues::Values(vb) =
                b.possible_values_at(&self.value_path, VALUE_VARIANT_CAP)
            {
                let all_below = prepared
                    .iter()
                    .all(|x| vb.iter().all(|y| x.apply(y) < self.threshold));
                if all_below {
                    *slot = Some(Decision::NonMatch);
                }
            }
        }
    }

    fn blocking_hint(&self) -> BlockingHint {
        BlockingHint::TagGated {
            tag: self.tag.clone(),
            // A threshold above 1 rejects even identical values, which
            // contradicts deep-equal transparency — emit no filter there.
            filter: (self.threshold <= 1.0).then(|| PruneFilter::SimilarityBelow {
                value_path: self.value_path.clone(),
                threshold: self.threshold,
                measure: self.measure,
            }),
            decides_match: false,
        }
    }
}

/// Key-inequality rule, like the paper's year rule: *two `tag` elements
/// with different values at `value_path` cannot match*.
///
/// Equal keys abstain (same year is no proof of identity); missing or
/// uncertain keys abstain.
#[derive(Debug, Clone)]
pub struct KeyInequalityRule {
    /// Rule name for traces (e.g. `"movie-year"`).
    pub rule_name: String,
    /// Element tag this rule applies to.
    pub tag: String,
    /// Path from the element to the key value.
    pub value_path: String,
}

impl KeyInequalityRule {
    /// The paper's year rule: movies of different years cannot match.
    pub fn movie_year() -> Self {
        KeyInequalityRule {
            rule_name: "movie-year".into(),
            tag: "movie".into(),
            value_path: "year".into(),
        }
    }
}

impl Rule for KeyInequalityRule {
    fn name(&self) -> &str {
        &self.rule_name
    }

    fn judge(&self, a: &ElemRef<'_>, b: &ElemRef<'_>) -> Option<Decision> {
        if a.tag() != self.tag || b.tag() != self.tag {
            return None;
        }
        match (
            a.possible_values_at(&self.value_path, VALUE_VARIANT_CAP),
            b.possible_values_at(&self.value_path, VALUE_VARIANT_CAP),
        ) {
            (PossibleValues::Values(va), PossibleValues::Values(vb)) => {
                // Different keys in every world ⇒ certainly distinct rwos;
                // a single possibly-equal key pair forces abstention.
                let all_differ = va.iter().all(|x| vb.iter().all(|y| x.trim() != y.trim()));
                if all_differ {
                    Some(Decision::NonMatch)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    fn blocking_hint(&self) -> BlockingHint {
        BlockingHint::TagGated {
            tag: self.tag.clone(),
            filter: Some(PruneFilter::KeyDiffers {
                value_path: self.value_path.clone(),
            }),
            decides_match: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn deep_equal_rule_matches_identical_elements() {
        let a = px("<movie><title>Jaws</title><year>1975</year></movie>");
        let b = px("<movie><title>Jaws</title><year>1975</year></movie>");
        assert_eq!(
            DeepEqualRule.judge(&root_elem(&a), &root_elem(&b)),
            Some(Decision::Match)
        );
    }

    #[test]
    fn deep_equal_rule_abstains_on_difference() {
        let a = px("<movie><title>Jaws</title></movie>");
        let b = px("<movie><title>Jaws 2</title></movie>");
        assert_eq!(DeepEqualRule.judge(&root_elem(&a), &root_elem(&b)), None);
    }

    #[test]
    fn genre_rule_decides_both_ways() {
        let rule = ExactTextRule::new("genre");
        let horror1 = px("<genre>Horror</genre>");
        let horror2 = px("<genre>Horror</genre>");
        let action = px("<genre>Action</genre>");
        assert_eq!(
            rule.judge(&root_elem(&horror1), &root_elem(&horror2)),
            Some(Decision::Match)
        );
        assert_eq!(
            rule.judge(&root_elem(&horror1), &root_elem(&action)),
            Some(Decision::NonMatch)
        );
    }

    #[test]
    fn genre_rule_ignores_other_tags() {
        let rule = ExactTextRule::new("genre");
        let a = px("<title>Horror</title>");
        let b = px("<title>Horror</title>");
        assert_eq!(rule.judge(&root_elem(&a), &root_elem(&b)), None);
    }

    #[test]
    fn title_rule_rejects_dissimilar_movies() {
        let rule = SimilarityThresholdRule::movie_title(0.5);
        let jaws = px("<movie><title>Jaws</title></movie>");
        let die_hard = px("<movie><title>Die Hard</title></movie>");
        assert_eq!(
            rule.judge(&root_elem(&jaws), &root_elem(&die_hard)),
            Some(Decision::NonMatch)
        );
    }

    #[test]
    fn title_rule_abstains_on_similar_movies() {
        let rule = SimilarityThresholdRule::movie_title(0.5);
        let mi = px("<movie><title>Mission: Impossible</title></movie>");
        let mi2 = px("<movie><title>Mission: Impossible II</title></movie>");
        assert_eq!(rule.judge(&root_elem(&mi), &root_elem(&mi2)), None);
    }

    #[test]
    fn title_rule_abstains_on_missing_title() {
        let rule = SimilarityThresholdRule::movie_title(0.5);
        let a = px("<movie><year>1995</year></movie>");
        let b = px("<movie><title>Jaws</title></movie>");
        assert_eq!(rule.judge(&root_elem(&a), &root_elem(&b)), None);
    }

    #[test]
    fn year_rule_rejects_different_years() {
        let rule = KeyInequalityRule::movie_year();
        let a = px("<movie><title>Jaws</title><year>1975</year></movie>");
        let b = px("<movie><title>Jaws</title><year>1978</year></movie>");
        assert_eq!(
            rule.judge(&root_elem(&a), &root_elem(&b)),
            Some(Decision::NonMatch)
        );
    }

    #[test]
    fn year_rule_abstains_on_equal_or_missing_years() {
        let rule = KeyInequalityRule::movie_year();
        let a = px("<movie><title>Jaws</title><year>1975</year></movie>");
        let b = px("<movie><title>Jaws (TV)</title><year>1975</year></movie>");
        let c = px("<movie><title>Jaws</title></movie>");
        assert_eq!(rule.judge(&root_elem(&a), &root_elem(&b)), None);
        assert_eq!(rule.judge(&root_elem(&a), &root_elem(&c)), None);
    }

    /// A movie whose title is a choice between the two given variants.
    fn movie_with_uncertain_title(t1: &str, t2: &str) -> PxDoc {
        let mut px = px("<movie><year>1996</year></movie>");
        let poss = px.children(px.root())[0];
        let movie = px.children(poss)[0];
        let title = px.add_elem(movie, "title");
        let c = px.add_prob(title);
        let p1 = px.add_poss(c, 0.5);
        px.add_text(p1, t1.to_string());
        let p2 = px.add_poss(c, 0.5);
        px.add_text(p2, t2.to_string());
        px
    }

    #[test]
    fn title_rule_decides_when_all_variants_are_dissimilar() {
        // Both variants of the uncertain title are dissimilar to "Alien":
        // the rule can reject with certainty despite the uncertainty.
        let rule = SimilarityThresholdRule::movie_title(0.55);
        let merged = movie_with_uncertain_title("Mission: Impossible", "Mission: Impossible II");
        let alien = px("<movie><title>Alien</title></movie>");
        let m = ElemRef {
            doc: &merged,
            node: {
                let poss = merged.children(merged.root())[0];
                merged.children(poss)[0]
            },
        };
        assert_eq!(rule.judge(&m, &root_elem(&alien)), Some(Decision::NonMatch));
        // But a candidate similar to one variant keeps the rule abstaining.
        let mi = px("<movie><title>Mission Impossible</title></movie>");
        assert_eq!(rule.judge(&m, &root_elem(&mi)), None);
    }

    #[test]
    fn exact_text_rule_sees_through_value_conflicts() {
        let rule = ExactTextRule::new("genre");
        // genre that is a choice between two values.
        let mut uncertain = px("<genre/>");
        let poss = uncertain.children(uncertain.root())[0];
        let genre = uncertain.children(poss)[0];
        let c = uncertain.add_prob(genre);
        let p1 = uncertain.add_poss(c, 0.5);
        uncertain.add_text(p1, "Horror");
        let p2 = uncertain.add_poss(c, 0.5);
        uncertain.add_text(p2, "Thriller");
        let g = ElemRef {
            doc: &uncertain,
            node: genre,
        };
        // Against "Action": both variants differ → certain non-match.
        let action = px("<genre>Action</genre>");
        assert_eq!(
            rule.judge(&g, &root_elem(&action)),
            Some(Decision::NonMatch)
        );
        // Against "Horror": one variant agrees → abstain.
        let horror = px("<genre>Horror</genre>");
        assert_eq!(rule.judge(&g, &root_elem(&horror)), None);
    }

    #[test]
    fn year_rule_decides_when_every_year_variant_differs() {
        let rule = KeyInequalityRule::movie_year();
        let mut a = px("<movie><title>Jaws</title></movie>");
        let poss = a.children(a.root())[0];
        let movie = a.children(poss)[0];
        let c = a.add_prob(movie);
        let p1 = a.add_poss(c, 0.5);
        a.add_text_elem(p1, "year", "1975");
        let p2 = a.add_poss(c, 0.5);
        a.add_text_elem(p2, "year", "1976");
        let a_ref = ElemRef {
            doc: &a,
            node: movie,
        };
        let far = px("<movie><title>Jaws</title><year>1990</year></movie>");
        assert_eq!(
            rule.judge(&a_ref, &root_elem(&far)),
            Some(Decision::NonMatch)
        );
    }

    #[test]
    fn decide_over_pairs_verdicts() {
        let v = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(
            decide_over_pairs(&v(&["a"]), &v(&["a"]), |x, y| x == y),
            Some(Decision::Match)
        );
        assert_eq!(
            decide_over_pairs(&v(&["a", "b"]), &v(&["c"]), |x, y| x == y),
            Some(Decision::NonMatch)
        );
        assert_eq!(
            decide_over_pairs(&v(&["a", "b"]), &v(&["a"]), |x, y| x == y),
            None
        );
        assert_eq!(decide_over_pairs(&v(&[]), &v(&["a"]), |x, y| x == y), None);
    }

    #[test]
    fn uncertain_values_make_rules_abstain() {
        // A movie whose year is a choice between 1975 and 1978.
        let mut a = px("<movie><title>Jaws</title></movie>");
        let poss = a.children(a.root())[0];
        let movie = a.children(poss)[0];
        let c = a.add_prob(movie);
        let p1 = a.add_poss(c, 0.5);
        a.add_text_elem(p1, "year", "1975");
        let p2 = a.add_poss(c, 0.5);
        a.add_text_elem(p2, "year", "1978");
        let b = px("<movie><title>Jaws</title><year>1978</year></movie>");
        let rule = KeyInequalityRule::movie_year();
        let a_ref = ElemRef {
            doc: &a,
            node: movie,
        };
        assert_eq!(rule.judge(&a_ref, &root_elem(&b)), None);
    }

    #[test]
    fn measures_dispatch() {
        assert_eq!(SimMeasure::Levenshtein.apply("abc", "abc"), 1.0);
        assert_eq!(SimMeasure::TokenJaccard.apply("a b", "b a"), 1.0);
        assert!(SimMeasure::Title.apply("Jaws", "Jaws 2") > 0.4);
        assert!(SimMeasure::PersonName.apply("Woo, John", "John Woo") > 0.99);
        assert!(SimMeasure::JaroWinkler.apply("martha", "marhta") > 0.9);
        assert!(SimMeasure::TrigramDice.apply("die hard", "die harder") > 0.5);
    }
}
