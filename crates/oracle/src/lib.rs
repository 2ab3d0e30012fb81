//! # imprecise-oracle — "The Oracle"
//!
//! §IV–§V of the IMPrECISE paper: *"A specific component, called 'The
//! Oracle', determines the probability that two XML elements refer to the
//! same rwo \[real-world object\] based on knowledge rules."*
//!
//! Rules "make statements about when, with certainty, two elements match or
//! not" — they are absolute deciders, deliberately simple so that
//! configuring the system costs minimal human effort. Pairs no rule
//! decides remain *possible* matches with a probability supplied by a
//! [`prior::PriorModel`]; those are exactly the pairs that multiply the
//! possibility space during integration.
//!
//! The paper's rules map onto this crate as follows:
//!
//! | Paper rule | Implementation |
//! |---|---|
//! | "Two deep-equal elements refer to the same rwo" | [`rules::DeepEqualRule`] |
//! | "No two siblings in one source refer to the same rwo" | structural in the matcher (injective matchings), not a `Rule` |
//! | Genre rule: "no typos occur in genres" | [`rules::ExactTextRule`] on `genre` |
//! | Title rule: "two movies cannot match if their titles are not sufficiently similar" | [`rules::SimilarityThresholdRule`] on `movie`/`title` |
//! | Year rule: "movies of different years cannot match" | [`rules::KeyInequalityRule`] on `movie`/`year` |
//!
//! [`presets`] assembles the exact §V configurations used by the Table I /
//! Figure 5 experiments.

#![forbid(unsafe_code)]

pub mod blocking;
pub mod decision;
pub mod dsl;
pub mod prior;
pub mod rules;
pub mod value;

pub mod presets;

pub use blocking::{BlockingHint, BlockingPlan, ElementFeatures, PruneFilter};
pub use decision::{Decision, Judgment};
pub use dsl::{parse_rules, DslError};
pub use prior::{PriorModel, SimilarityPrior, UniformPrior};
pub use rules::{
    DeepEqualRule, ExactTextRule, KeyInequalityRule, Rule, SimMeasure, SimilarityThresholdRule,
};
pub use value::{ElemRef, ValueLookup};

/// The Oracle: an ordered rule list plus a prior for undecided pairs.
///
/// Rules are consulted in order; the first rule that does not abstain
/// decides the pair with certainty. If every rule abstains the pair is
/// *possible* and receives the prior's probability (clamped to the open
/// interval so it never silently becomes a certain decision).
pub struct Oracle {
    rules: Vec<Box<dyn Rule>>,
    prior: Box<dyn PriorModel>,
}

impl Oracle {
    /// An oracle with no rules and a uniform 0.5 prior: the paper's "too
    /// little semantical knowledge" regime in which everything is possible.
    pub fn uninformed() -> Self {
        Oracle {
            rules: Vec::new(),
            prior: Box::new(UniformPrior::default()),
        }
    }

    /// Create an oracle from rules and a prior model.
    pub fn new(rules: Vec<Box<dyn Rule>>, prior: Box<dyn PriorModel>) -> Self {
        Oracle { rules, prior }
    }

    /// Append a rule (consulted after the existing ones).
    pub fn push_rule(&mut self, rule: Box<dyn Rule>) -> &mut Self {
        self.rules.push(rule);
        self
    }

    /// Replace the prior model.
    pub fn set_prior(&mut self, prior: Box<dyn PriorModel>) -> &mut Self {
        self.prior = prior;
        self
    }

    /// Names of the configured rules, in consultation order.
    pub fn rule_names(&self) -> Vec<&str> {
        self.rules.iter().map(|r| r.name()).collect()
    }

    /// Judge whether `a` and `b` refer to the same real-world object.
    pub fn judge(&self, a: &ElemRef<'_>, b: &ElemRef<'_>) -> Judgment {
        for rule in &self.rules {
            if let Some(decision) = rule.judge(a, b) {
                return Judgment {
                    decision,
                    rule: Some(rule.name().to_string()),
                };
            }
        }
        let p = self.prior.probability(a, b).clamp(1e-6, 1.0 - 1e-6);
        Judgment {
            decision: Decision::Possible(p),
            rule: None,
        }
    }

    /// Judge one left element against a whole row of right elements.
    ///
    /// Semantically identical to calling [`Oracle::judge`] per pair —
    /// same decisions, same deciding rules, same prior probabilities, bit
    /// for bit — but rules get to amortise their left-hand preprocessing
    /// across the row via [`Rule::judge_row`].
    pub fn judge_row(&self, a: &ElemRef<'_>, bs: &[ElemRef<'_>]) -> Vec<Judgment> {
        let mut decisions: Vec<Option<Decision>> = vec![None; bs.len()];
        let mut deciders: Vec<Option<&str>> = vec![None; bs.len()];
        let mut undecided = bs.len();
        for rule in &self.rules {
            if undecided == 0 {
                break;
            }
            let before: Vec<bool> = decisions.iter().map(Option::is_some).collect();
            rule.judge_row(a, bs, &mut decisions);
            for (i, was_decided) in before.iter().enumerate() {
                if !was_decided && decisions[i].is_some() {
                    deciders[i] = Some(rule.name());
                    undecided -= 1;
                }
            }
        }
        bs.iter()
            .zip(decisions.into_iter().zip(deciders))
            .map(|(b, (decision, decider))| match decision {
                Some(decision) => Judgment {
                    decision,
                    rule: decider.map(str::to_string),
                },
                None => {
                    let p = self.prior.probability(a, b).clamp(1e-6, 1.0 - 1e-6);
                    Judgment {
                        decision: Decision::Possible(p),
                        rule: None,
                    }
                }
            })
            .collect()
    }

    /// The recall-safe blocking plan this rule configuration supports for
    /// elements of `tag` (see [`blocking`]).
    pub fn blocking_plan(&self, tag: &str) -> BlockingPlan {
        BlockingPlan::derive(&self.rules, tag)
    }
}

impl std::fmt::Debug for Oracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Oracle")
            .field("rules", &self.rule_names())
            .finish_non_exhaustive()
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

    fn elem_of(doc: &PxDoc) -> ElemRef<'_> {
        // Root poss's single element.
        let poss = doc.children(doc.root())[0];
        ElemRef {
            doc,
            node: doc.children(poss)[0],
        }
    }

    #[test]
    fn uninformed_oracle_says_possible_half() {
        let a = px("<movie><title>Jaws</title></movie>");
        let b = px("<movie><title>Die Hard</title></movie>");
        let oracle = Oracle::uninformed();
        let j = oracle.judge(&elem_of(&a), &elem_of(&b));
        assert_eq!(j.decision, Decision::Possible(0.5));
        assert!(j.rule.is_none());
    }

    #[test]
    fn first_deciding_rule_wins_and_is_named() {
        let a = px("<movie><title>Jaws</title></movie>");
        let b = px("<movie><title>Jaws</title></movie>");
        let mut oracle = Oracle::uninformed();
        oracle.push_rule(Box::new(DeepEqualRule));
        let j = oracle.judge(&elem_of(&a), &elem_of(&b));
        assert_eq!(j.decision, Decision::Match);
        assert_eq!(j.rule.as_deref(), Some("deep-equal"));
    }

    #[test]
    fn rules_consulted_in_order() {
        // Title rule (non-match for dissimilar) placed before deep-equal.
        let a = px("<movie><title>Jaws</title></movie>");
        let b = px("<movie><title>Die Hard</title></movie>");
        let mut oracle = Oracle::uninformed();
        oracle.push_rule(Box::new(SimilarityThresholdRule::movie_title(0.5)));
        oracle.push_rule(Box::new(DeepEqualRule));
        let j = oracle.judge(&elem_of(&a), &elem_of(&b));
        assert_eq!(j.decision, Decision::NonMatch);
        assert_eq!(j.rule.as_deref(), Some("movie-title"));
    }

    #[test]
    fn prior_is_clamped_to_open_interval() {
        struct ExtremePrior;
        impl PriorModel for ExtremePrior {
            fn probability(&self, _: &ElemRef<'_>, _: &ElemRef<'_>) -> f64 {
                1.0
            }
            fn name(&self) -> &str {
                "extreme"
            }
        }
        let a = px("<g>Horror</g>");
        let b = px("<g>Horror</g>");
        let oracle = Oracle::new(Vec::new(), Box::new(ExtremePrior));
        match oracle.judge(&elem_of(&a), &elem_of(&b)).decision {
            Decision::Possible(p) => assert!(p < 1.0 && p > 0.0),
            other => panic!("expected Possible, got {other:?}"),
        }
    }

    #[test]
    fn judge_row_is_bit_identical_to_per_pair_judging() {
        let mut oracle = Oracle::uninformed();
        oracle.set_prior(Box::new(SimilarityPrior::movie_title(0.1, 0.9)));
        oracle.push_rule(Box::new(DeepEqualRule));
        oracle.push_rule(Box::new(rules::ExactTextRule::new("genre")));
        oracle.push_rule(Box::new(SimilarityThresholdRule::movie_title(0.55)));
        oracle.push_rule(Box::new(rules::KeyInequalityRule::movie_year()));
        let docs: Vec<PxDoc> = [
            "<movie><title>Jaws</title><year>1975</year></movie>",
            "<movie><title>Jaws</title><year>1975</year></movie>",
            "<movie><title>Jaws 2</title><year>1978</year></movie>",
            "<movie><title>Die Hard</title><year>1988</year></movie>",
            "<movie><title>Mission: Impossible II</title></movie>",
            "<genre>Horror</genre>",
            "<genre>Action</genre>",
            "<person><nm>John Woo</nm></person>",
        ]
        .iter()
        .map(|x| px(x))
        .collect();
        for da in &docs {
            let a = elem_of(da);
            let row: Vec<ElemRef<'_>> = docs.iter().map(elem_of).collect();
            let batched = oracle.judge_row(&a, &row);
            assert_eq!(batched.len(), row.len());
            for (b, got) in row.iter().zip(batched) {
                let expect = oracle.judge(&a, b);
                assert_eq!(got.rule, expect.rule);
                match (got.decision, expect.decision) {
                    (Decision::Possible(p), Decision::Possible(q)) => {
                        assert_eq!(p.to_bits(), q.to_bits());
                    }
                    (g, e) => assert_eq!(g, e),
                }
            }
        }
    }

    #[test]
    fn debug_lists_rules() {
        let mut oracle = Oracle::uninformed();
        oracle.push_rule(Box::new(DeepEqualRule));
        let s = format!("{oracle:?}");
        assert!(s.contains("deep-equal"));
    }
}
