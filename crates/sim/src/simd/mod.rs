//! The edit-distance kernel behind the one-vs-many batches.
//!
//! One portable implementation, [`generic`]: Myers' bit-parallel
//! Levenshtein on plain 64-bit words, the same integer dynamic program
//! on every machine, with no runtime CPU detection and no `unsafe`.
//! A vectorised tier that ran four texts per register was measured
//! against it and removed: it won on the candidate-generation layer but
//! never end to end (BENCH_pr24.json).

pub mod generic;

/// Name of the edit-distance kernel (for stats and diagnostics).
pub fn active_name() -> &'static str {
    "generic"
}

#[cfg(test)]
mod tests {
    #[test]
    fn kernels_agree_on_a_smoke_batch() {
        // The batch kernel and the per-pair tiers give the same integers.
        let bs = ["sitting", "", "kitten", "kittens", "xyz"];
        let batch = crate::levenshtein_batch("kitten", &bs);
        assert_eq!(batch, vec![3, 6, 0, 1, 6]);
        let pairwise: Vec<usize> = bs.iter().map(|b| crate::levenshtein("kitten", b)).collect();
        assert_eq!(batch, pairwise);
        assert_eq!(super::active_name(), "generic");
    }
}
