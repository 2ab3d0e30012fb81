//! Property tests for the edit-distance kernel: the one-vs-many batch
//! kernel (Myers' bit-parallel recurrence) and the per-pair tiers
//! compute the same integers as an independent reference DP, on
//! arbitrary ASCII and Unicode input and on patterns on both sides of
//! the 64-byte word, so every derived `f64` similarity is bit-identical.

use imprecise_sim::{
    levenshtein, levenshtein_batch, levenshtein_similarity, similarity_batch, PreparedTitle,
};
use proptest::prelude::*;

/// Reference two-row DP over Unicode scalars — independent of every
/// implementation under test.
fn reference_levenshtein(a: &str, b: &str) -> usize {
    let ac: Vec<char> = a.chars().collect();
    let bc: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=bc.len()).collect();
    let mut cur = vec![0usize; bc.len() + 1];
    for (i, ca) in ac.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in bc.iter().enumerate() {
            cur[j + 1] = (prev[j] + usize::from(ca != cb))
                .min(cur[j] + 1)
                .min(prev[j + 1] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[bc.len()]
}

fn ascii_string(max_len: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(0u8..128, 0..=max_len)
        .prop_map(|bytes| bytes.into_iter().map(|b| b as char).collect())
}

/// ASCII over a four-letter alphabet, `min_len..=max_len` bytes: long
/// strings that still share many characters, so distances stay well
/// below the lengths and the recurrence's carries are exercised.
fn dense_ascii_string(min_len: usize, max_len: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(0u8..4, min_len..=max_len)
        .prop_map(|bytes| bytes.into_iter().map(|b| (b'a' + b) as char).collect())
}

fn unicode_string(max_len: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(0u32..0x2FFF, 0..=max_len).prop_map(|codes| {
        codes
            .into_iter()
            .filter_map(char::from_u32)
            .collect::<String>()
    })
}

/// The batch kernel against the reference DP, element by element.
fn batch_matches_reference(a: &str, bs: &[String]) -> Result<(), TestCaseError> {
    let refs: Vec<&str> = bs.iter().map(String::as_str).collect();
    let reference: Vec<usize> = refs.iter().map(|b| reference_levenshtein(a, b)).collect();
    prop_assert_eq!(levenshtein_batch(a, &refs), reference);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The single-pair entry point agrees with the reference DP on ASCII —
    /// this covers the Myers tier (pattern ≤ 64 bytes) and the byte DP.
    #[test]
    fn ascii_pair_matches_reference(a in ascii_string(90), b in ascii_string(90)) {
        prop_assert_eq!(levenshtein(&a, &b), reference_levenshtein(&a, &b));
    }

    /// ... and on arbitrary Unicode (the char DP tier).
    #[test]
    fn unicode_pair_matches_reference(a in unicode_string(40), b in unicode_string(40)) {
        prop_assert_eq!(levenshtein(&a, &b), reference_levenshtein(&a, &b));
    }

    /// The batch kernel agrees with the reference DP on batches of ASCII
    /// texts of any length against a word-sized pattern.
    #[test]
    fn kernels_are_bit_identical_on_ascii_batches(
        a in ascii_string(64),
        bs in proptest::collection::vec(ascii_string(120), 0..24),
    ) {
        batch_matches_reference(&a, &bs)?;
    }

    /// Batches mixing ASCII and Unicode texts: non-ASCII texts (and
    /// non-ASCII patterns) take the per-pair fallback inside the batch,
    /// and must still agree with the reference DP exactly.
    #[test]
    fn kernels_are_bit_identical_on_mixed_batches(
        ascii_pattern in ascii_string(30),
        unicode_pattern in unicode_string(30),
        ascii_texts in proptest::collection::vec(ascii_string(50), 0..6),
        unicode_texts in proptest::collection::vec(unicode_string(50), 0..6),
    ) {
        let mut bs = Vec::new();
        for (x, u) in ascii_texts.iter().zip(&unicode_texts) {
            bs.push(x.clone());
            bs.push(u.clone());
        }
        batch_matches_reference(&ascii_pattern, &bs)?;
        batch_matches_reference(&unicode_pattern, &bs)?;
    }

    /// Patterns around the 64-byte word (56–90 bytes) against long texts:
    /// the kernel's full-width score bit below the boundary and the
    /// per-pair DP fallback above it.
    #[test]
    fn long_patterns_match_reference(
        a in dense_ascii_string(56, 90),
        bs in proptest::collection::vec(dense_ascii_string(0, 200), 0..12),
    ) {
        batch_matches_reference(&a, &bs)?;
    }

    /// Derived f64 similarities are bit-identical between the batched and
    /// per-pair paths — the property the pipeline's determinism rests on.
    #[test]
    fn similarities_are_bit_identical(
        a in ascii_string(64),
        bs in proptest::collection::vec(ascii_string(80), 0..16),
    ) {
        let refs: Vec<&str> = bs.iter().map(String::as_str).collect();
        let batched = similarity_batch(&a, &refs);
        for (b, s) in refs.iter().zip(batched) {
            prop_assert_eq!(s.to_bits(), levenshtein_similarity(&a, b).to_bits());
        }
        let prep = PreparedTitle::new(&a);
        let titles = prep.similarity_batch(&refs);
        for (b, s) in refs.iter().zip(titles) {
            prop_assert_eq!(s.to_bits(), imprecise_sim::title_similarity(&a, b).to_bits());
        }
    }
}
