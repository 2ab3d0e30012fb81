//! # imprecise-sim — string similarity substrate
//!
//! The Oracle's domain rules compare element values: *"two movies cannot
//! match if their titles are not sufficiently similar"*, and the movie
//! sources "use different conventions for, e.g., naming directors, so these
//! never match exactly" (§V). This crate supplies the string machinery that
//! those rules are built on — edit distance, Jaro/Jaro-Winkler, token-set
//! measures, and the normalisers that reconcile source conventions
//! (`"Woo, John"` vs `"John Woo"`, roman vs arabic sequel numbers).
//!
//! Everything is implemented here (no third-party similarity crates), is
//! allocation-conscious, and is deterministic across platforms. Edit
//! distance has one kernel on every machine, portable Myers bit-parallel
//! code in [`simd::generic`]: no runtime CPU detection, no `unsafe`, and
//! no environment knob, so the same inputs give the same integers
//! everywhere.

#![forbid(unsafe_code)]

pub mod edit;
pub mod jaro;
pub mod normalize;
pub mod simd;
pub mod token;

pub use edit::{levenshtein, levenshtein_batch, levenshtein_similarity, similarity_batch};
pub use jaro::{jaro, jaro_winkler};
pub use normalize::{normalize_person_name, normalize_title, normalize_token};
pub use token::{dice_trigram, jaccard_token_sets, jaccard_tokens, token_set, tokenize};

use std::collections::BTreeSet;

/// Similarity between two movie titles in `[0, 1]`.
///
/// Titles are normalised (case, punctuation, roman numerals) and compared
/// with a blend of token-set Jaccard (robust to re-ordering and subtitle
/// punctuation) and character-level Levenshtein (robust to typos). The
/// blend takes the maximum: either signal alone suffices to call two titles
/// "sufficiently similar" in the sense of the paper's title rule.
pub fn title_similarity(a: &str, b: &str) -> f64 {
    let na = normalize_title(a);
    let nb = normalize_title(b);
    if na.is_empty() && nb.is_empty() {
        return 1.0;
    }
    let token_sim = jaccard_tokens(&na, &nb);
    let char_sim = levenshtein_similarity(&na, &nb);
    token_sim.max(char_sim)
}

/// Similarity between two person names in `[0, 1]`.
///
/// Names are normalised into `given family` order (fixing the
/// `"Family, Given"` convention of one source) before a Jaro-Winkler
/// comparison, which is the standard measure for short person names.
pub fn person_name_similarity(a: &str, b: &str) -> f64 {
    let na = normalize_person_name(a);
    let nb = normalize_person_name(b);
    if na.is_empty() && nb.is_empty() {
        return 1.0;
    }
    jaro_winkler(&na, &nb)
}

/// One movie title preprocessed for one-vs-many comparison.
///
/// Normalisation and tokenisation of the left-hand title happen once at
/// construction; [`PreparedTitle::similarity`] then produces exactly the
/// same bits as [`title_similarity`] for every right-hand title, and
/// [`PreparedTitle::similarity_batch`] additionally preprocesses the
/// left-hand title once for the character-level comparisons.
#[derive(Debug, Clone)]
pub struct PreparedTitle {
    norm: String,
    tokens: BTreeSet<String>,
}

impl PreparedTitle {
    pub fn new(a: &str) -> Self {
        let norm = normalize_title(a);
        let tokens = token_set(&norm);
        PreparedTitle { norm, tokens }
    }

    /// Bit-identical to `title_similarity(a, b)`.
    pub fn similarity(&self, b: &str) -> f64 {
        let nb = normalize_title(b);
        if self.norm.is_empty() && nb.is_empty() {
            return 1.0;
        }
        let token_sim = jaccard_token_sets(&self.tokens, &token_set(&nb));
        let char_sim = levenshtein_similarity(&self.norm, &nb);
        token_sim.max(char_sim)
    }

    /// One-vs-many [`PreparedTitle::similarity`], batching the edit
    /// distances ([`similarity_batch`]). Bit-identical per element.
    pub fn similarity_batch(&self, bs: &[&str]) -> Vec<f64> {
        let nbs: Vec<String> = bs.iter().map(|b| normalize_title(b)).collect();
        let refs: Vec<&str> = nbs.iter().map(String::as_str).collect();
        let char_sims = similarity_batch(&self.norm, &refs);
        nbs.iter()
            .zip(char_sims)
            .map(|(nb, char_sim)| {
                if self.norm.is_empty() && nb.is_empty() {
                    1.0
                } else {
                    jaccard_token_sets(&self.tokens, &token_set(nb)).max(char_sim)
                }
            })
            .collect()
    }
}

/// One person name preprocessed for one-vs-many comparison: the
/// normalisation of the left-hand name is done once. Bit-identical to
/// [`person_name_similarity`] per right-hand name.
#[derive(Debug, Clone)]
pub struct PreparedPersonName {
    norm: String,
}

impl PreparedPersonName {
    pub fn new(a: &str) -> Self {
        PreparedPersonName {
            norm: normalize_person_name(a),
        }
    }

    /// Bit-identical to `person_name_similarity(a, b)`.
    pub fn similarity(&self, b: &str) -> f64 {
        let nb = normalize_person_name(b);
        if self.norm.is_empty() && nb.is_empty() {
            return 1.0;
        }
        jaro_winkler(&self.norm, &nb)
    }

    /// One-vs-many [`PreparedPersonName::similarity`]. Jaro-Winkler has no
    /// batch kernel; this amortises the left-hand normalisation only.
    pub fn similarity_batch(&self, bs: &[&str]) -> Vec<f64> {
        bs.iter().map(|b| self.similarity(b)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepared_title_matches_the_free_function() {
        let lhs = [
            "Mission: Impossible II",
            "Jaws",
            "",
            "Die Hard: With a Vengeance",
        ];
        let rhs = [
            "Mission Impossible 2",
            "Jaws 2",
            "",
            "Die Hard",
            "Live Free or Die Hard",
        ];
        for a in lhs {
            let prep = PreparedTitle::new(a);
            let batch = prep.similarity_batch(&rhs);
            for (b, batched) in rhs.iter().zip(batch) {
                let expect = title_similarity(a, b);
                assert_eq!(prep.similarity(b).to_bits(), expect.to_bits(), "{a} vs {b}");
                assert_eq!(batched.to_bits(), expect.to_bits(), "{a} vs {b} (batch)");
            }
        }
    }

    #[test]
    fn prepared_person_name_matches_the_free_function() {
        let lhs = ["McTiernan, John", "John Woo", ""];
        let rhs = ["John McTiernan", "Woo, John", "Jan de Bont", ""];
        for a in lhs {
            let prep = PreparedPersonName::new(a);
            let batch = prep.similarity_batch(&rhs);
            for (b, batched) in rhs.iter().zip(batch) {
                let expect = person_name_similarity(a, b);
                assert_eq!(prep.similarity(b).to_bits(), expect.to_bits(), "{a} vs {b}");
                assert_eq!(batched.to_bits(), expect.to_bits(), "{a} vs {b} (batch)");
            }
        }
    }

    #[test]
    fn identical_titles_score_one() {
        assert_eq!(title_similarity("Jaws", "Jaws"), 1.0);
    }

    #[test]
    fn sequels_are_similar_but_not_identical() {
        let s = title_similarity("Mission: Impossible", "Mission: Impossible II");
        assert!(s > 0.6 && s < 1.0, "similarity {s}");
    }

    #[test]
    fn roman_and_arabic_sequel_numbers_unify() {
        let s = title_similarity("Mission: Impossible II", "Mission Impossible 2");
        assert_eq!(
            s, 1.0,
            "roman numeral normalisation should make these equal"
        );
    }

    #[test]
    fn unrelated_titles_score_low() {
        let s = title_similarity("Jaws", "Die Hard: With a Vengeance");
        assert!(s < 0.35, "similarity {s}");
    }

    #[test]
    fn director_conventions_unify() {
        let s = person_name_similarity("McTiernan, John", "John McTiernan");
        assert!(s > 0.99, "similarity {s}");
    }

    #[test]
    fn different_johns_are_distinguishable() {
        let s = person_name_similarity("John Woo", "John McTiernan");
        assert!(s < 0.9, "similarity {s}");
    }

    #[test]
    fn empty_strings() {
        assert_eq!(title_similarity("", ""), 1.0);
        assert_eq!(person_name_similarity("", ""), 1.0);
        assert!(title_similarity("Jaws", "") < 0.1);
    }
}
