//! # imprecise-quality — answer-quality measures for uncertain answers
//!
//! §VII of the IMPrECISE paper: *"We demonstrate querying on integrated
//! documents and measure answer quality with adapted precision and recall
//! measures"* (the measures of de Keijzer & van Keulen, SUM 2007 — the
//! paper's reference \[13\]).
//!
//! Classical precision/recall assume a crisp answer set. A probabilistic
//! answer assigns each value a probability, so the adapted measures weight
//! membership by probability:
//!
//! * **probabilistic precision** — of the probability mass the system
//!   put on answers, the fraction placed on correct ones:
//!   `Σ_{a∈A∩T} p(a) / Σ_{a∈A} p(a)`;
//! * **probabilistic recall** — how much of the truth the system covers,
//!   with partial credit for uncertain answers:
//!   `Σ_{a∈A∩T} p(a) / |T|`;
//! * the harmonic **F-measure** of the two.
//!
//! Thresholded (crisp) variants are also provided: treat `p ≥ τ` as "in
//! the answer" and measure classically — useful for precision/recall
//! curves over τ.

#![forbid(unsafe_code)]

use imprecise_query::RankedAnswers;
use std::collections::BTreeSet;

/// A quality report for one query against a ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityReport {
    /// Probability-weighted precision.
    pub precision: f64,
    /// Probability-weighted recall.
    pub recall: f64,
    /// Harmonic mean of precision and recall (0 when both are 0).
    pub f_measure: f64,
    /// Expected size of the answer set (`Σ p(a)`).
    pub expected_answer_size: f64,
    /// Number of distinct answer values reported.
    pub reported: usize,
    /// Size of the ground truth.
    pub truth_size: usize,
}

/// Compute the probabilistic quality measures of `answers` against the
/// ground-truth value set `truth`.
pub fn evaluate(answers: &RankedAnswers, truth: &[&str]) -> QualityReport {
    let truth_set: BTreeSet<&str> = truth.iter().copied().collect();
    let mass_total: f64 = answers.items.iter().map(|a| a.probability).sum();
    let mass_correct: f64 = answers
        .items
        .iter()
        .filter(|a| truth_set.contains(a.value.as_str()))
        .map(|a| a.probability)
        .sum();
    let precision = if mass_total > 0.0 {
        mass_correct / mass_total
    } else if truth_set.is_empty() {
        1.0 // empty answer against empty truth is perfect
    } else {
        0.0
    };
    let recall = if truth_set.is_empty() {
        1.0
    } else {
        mass_correct / truth_set.len() as f64
    };
    let f_measure = if precision + recall > 0.0 {
        2.0 * precision * recall / (precision + recall)
    } else {
        0.0
    };
    QualityReport {
        precision,
        recall,
        f_measure,
        expected_answer_size: mass_total,
        reported: answers.len(),
        truth_size: truth_set.len(),
    }
}

/// Classical precision/recall after thresholding: values with
/// `p ≥ threshold` form a crisp answer set.
pub fn evaluate_at_threshold(
    answers: &RankedAnswers,
    truth: &[&str],
    threshold: f64,
) -> QualityReport {
    let truth_set: BTreeSet<&str> = truth.iter().copied().collect();
    let selected: Vec<&str> = answers
        .at_least(threshold)
        .map(|a| a.value.as_str())
        .collect();
    let correct = selected.iter().filter(|v| truth_set.contains(*v)).count() as f64;
    let precision = if selected.is_empty() {
        if truth_set.is_empty() {
            1.0
        } else {
            0.0
        }
    } else {
        correct / selected.len() as f64
    };
    let recall = if truth_set.is_empty() {
        1.0
    } else {
        correct / truth_set.len() as f64
    };
    let f_measure = if precision + recall > 0.0 {
        2.0 * precision * recall / (precision + recall)
    } else {
        0.0
    };
    QualityReport {
        precision,
        recall,
        f_measure,
        expected_answer_size: selected.len() as f64,
        reported: selected.len(),
        truth_size: truth_set.len(),
    }
}

/// Sweep the threshold over every distinct answer probability, producing
/// `(threshold, report)` rows for a precision/recall curve.
pub fn threshold_curve(answers: &RankedAnswers, truth: &[&str]) -> Vec<(f64, QualityReport)> {
    let mut thresholds: Vec<f64> = answers.items.iter().map(|a| a.probability).collect();
    // lint:allow(expect-in-lib, holds by construction: finite)
    thresholds.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    thresholds.dedup();
    thresholds
        .into_iter()
        .map(|t| (t, evaluate_at_threshold(answers, truth, t)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answers(pairs: &[(&str, f64)]) -> RankedAnswers {
        RankedAnswers::from_pairs(pairs.iter().map(|(v, p)| ((*v).to_string(), *p)).collect())
    }

    #[test]
    fn perfect_answer_scores_one() {
        let a = answers(&[("Jaws", 1.0), ("Jaws 2", 1.0)]);
        let r = evaluate(&a, &["Jaws", "Jaws 2"]);
        assert_eq!(r.precision, 1.0);
        assert_eq!(r.recall, 1.0);
        assert_eq!(r.f_measure, 1.0);
    }

    #[test]
    fn paper_horror_example_quality() {
        // The paper's Horror query: both truths at 97%, nothing wrong.
        let a = answers(&[("Jaws", 0.97), ("Jaws 2", 0.97)]);
        let r = evaluate(&a, &["Jaws", "Jaws 2"]);
        assert_eq!(r.precision, 1.0); // all mass on correct answers
        assert!((r.recall - 0.97).abs() < 1e-12);
        assert!(r.f_measure > 0.98);
    }

    #[test]
    fn paper_john_example_quality() {
        // 100% + 96% correct, 21% incorrect.
        let a = answers(&[
            ("Die Hard: With a Vengeance", 1.0),
            ("Mission: Impossible II", 0.96),
            ("Mission: Impossible", 0.21),
        ]);
        let r = evaluate(
            &a,
            &["Die Hard: With a Vengeance", "Mission: Impossible II"],
        );
        assert!((r.precision - 1.96 / 2.17).abs() < 1e-12);
        assert!((r.recall - 0.98).abs() < 1e-12);
        assert_eq!(r.reported, 3);
        assert_eq!(r.truth_size, 2);
    }

    #[test]
    fn wrong_answers_hurt_precision_not_recall() {
        let a = answers(&[("right", 0.9), ("wrong", 0.9)]);
        let r = evaluate(&a, &["right"]);
        assert!((r.precision - 0.5).abs() < 1e-12);
        assert!((r.recall - 0.9).abs() < 1e-12);
    }

    #[test]
    fn missing_answers_hurt_recall() {
        let a = answers(&[("right", 1.0)]);
        let r = evaluate(&a, &["right", "also-right"]);
        assert_eq!(r.precision, 1.0);
        assert!((r.recall - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_cases() {
        let none = answers(&[]);
        let r = evaluate(&none, &[]);
        assert_eq!(r.precision, 1.0);
        assert_eq!(r.recall, 1.0);
        let r = evaluate(&none, &["missing"]);
        assert_eq!(r.precision, 0.0);
        assert_eq!(r.recall, 0.0);
        assert_eq!(r.f_measure, 0.0);
    }

    #[test]
    fn thresholding_drops_low_probability_noise() {
        let a = answers(&[("right", 0.96), ("noise", 0.21)]);
        let crisp = evaluate_at_threshold(&a, &["right"], 0.5);
        assert_eq!(crisp.precision, 1.0);
        assert_eq!(crisp.recall, 1.0);
        let loose = evaluate_at_threshold(&a, &["right"], 0.1);
        assert!((loose.precision - 0.5).abs() < 1e-12);
    }

    #[test]
    fn threshold_curve_is_complete_and_monotone_in_size() {
        let a = answers(&[("x", 0.9), ("y", 0.5), ("z", 0.2)]);
        let curve = threshold_curve(&a, &["x", "y"]);
        assert_eq!(curve.len(), 3);
        // Higher thresholds never include more answers.
        for pair in curve.windows(2) {
            assert!(pair[0].1.reported >= pair[1].1.reported);
        }
    }

    #[test]
    fn expected_answer_size() {
        let a = answers(&[("x", 0.9), ("y", 0.5)]);
        let r = evaluate(&a, &["x"]);
        assert!((r.expected_answer_size - 1.4).abs() < 1e-12);
    }
}
