//! # imprecise-integrate — probabilistic XML integration
//!
//! §III of the IMPrECISE paper: *"The probabilistic integration process is
//! executed in a recursive fashion starting from the roots of both source
//! documents. The integration function tries to match the child nodes of
//! both sources. Two child nodes match if they refer to the same rwo. …
//! In many cases, this can't be established with certainty, so the system
//! needs to consider two cases."*
//!
//! The engine works bottom-up per element pair:
//!
//! 1. Child elements of two matched parents are grouped by tag.
//! 2. For a tag the schema declares single-valued, one element per side is
//!    merged unconditionally (the parent identity implies the child
//!    identity: a movie has exactly one real title); conflicting text
//!    values become a mutually exclusive choice (this is exactly the
//!    paper's "persons only have one phone number" pruning).
//! 3. For multi-valued tags, every cross-source pair is judged by the
//!    Oracle. Certain non-matches are discarded, certain matches forced,
//!    undecided pairs enumerated: each injective set of undecided pairs
//!    (a *matching*) becomes one possibility, weighted by
//!    ∏ p · ∏ (1 − p) over taken/not-taken candidate pairs and normalised.
//!    The "no two siblings in one source refer to the same rwo" generic
//!    rule is what makes matchings injective.
//! 4. Connected components of the candidate graph have independent
//!    matchings and get independent probability nodes (the *factored*
//!    representation; the classic engine's unfactored equivalent is
//!    available analytically via `imprecise-pxml`).
//!
//! ## The staged pipeline and matching budgets
//!
//! Step 3 is where the paper's "exploding number of theoretical
//! possibilities" lives, and it runs as an explicit four-stage pipeline
//! per tag group (see [`pipeline`]):
//!
//! 1. **candidate generation** — Oracle judgments become forced pairs
//!    and undecided [`Candidate`]s;
//! 2. **component split** — [`matching::split_components`] factors the
//!    candidate graph;
//! 3. **budgeted matching enumeration** — a best-first branch-and-bound
//!    search yields each component's matchings in descending weight and
//!    stops at the configured budget, renormalising the kept matchings
//!    and recording the *discarded probability mass* in
//!    [`IntegrationStats`] (good is good enough: keep the heavy
//!    matchings, account honestly for the tail). Independent components
//!    run in parallel under [`IntegrationOptions::parallelism`];
//! 4. **merge** — the builder consumes per-component
//!    [`pipeline::ComponentOutcome`]s, agnostic to how (or on how many
//!    threads) the matchings were produced.
//!
//! Strict mode ([`IntegrationOptions::strict_matchings`]) restores the
//! historical fail-fast behaviour: a component over budget aborts
//! integration with [`IntegrateError::TooManyMatchings`].
//!
//! ## Resumable integration (pay-as-you-go refinement)
//!
//! A budgeted run does not discard its search state: every truncated
//! component's best-first search — open prefix decisions, admissible
//! bounds, retained/discarded mass — stays resident as a
//! [`FrontierEnumerator`] inside the returned [`IntegrationOutcome`].
//! [`IntegrationOutcome::refine`] resumes those searches with more
//! budget, largest discarded mass first, and re-emits only the refined
//! components' subtrees into the existing document (grafting into the
//! arena through the merge builder, not rebuilding the document).
//!
//! The invariant that makes this safe: budgeted-then-refined-to-
//! unlimited is **byte-identical** (document fingerprint) to a one-shot
//! exhaustive integration, and `retained + discarded == 1` per
//! component at every refinement step — property-tested in
//! `tests/prop_refine.rs`. Budget *planning* is the third knob:
//! [`BudgetPlan::Total`] splits one total budget across a tag group's
//! components proportionally to their live-pair counts
//! ([`pipeline::plan_budgets`]).
//!
//! Inputs may already be probabilistic (incremental integration): choice
//! points encountered in a child list are locally enumerated (with a cap,
//! by [`PxDoc::local_alternatives`]) and the alternatives integrated per
//! combination.
//!
//! ## Example: the paper's Fig. 2
//!
//! ```
//! use imprecise_integrate::{integrate_xml, IntegrationOptions};
//! use imprecise_oracle::presets::addressbook_oracle;
//! use imprecise_xmlkit::{parse, Schema};
//!
//! let a = parse("<addressbook><person><nm>John</nm><tel>1111</tel></person></addressbook>").unwrap();
//! let b = parse("<addressbook><person><nm>John</nm><tel>2222</tel></person></addressbook>").unwrap();
//! let schema = Schema::parse(
//!     "<!ELEMENT addressbook (person*)><!ELEMENT person (nm, tel?)>\
//!      <!ELEMENT nm (#PCDATA)><!ELEMENT tel (#PCDATA)>").unwrap();
//! let oracle = addressbook_oracle();
//! let result = integrate_xml(&a, &b, &oracle, Some(&schema), &IntegrationOptions::default()).unwrap();
//! // One person with an uncertain phone, or two persons: 3 possible worlds.
//! assert_eq!(result.doc.world_count(), 3);
//! ```

#![forbid(unsafe_code)]

pub mod codec;
pub mod matching;
mod merge;
pub mod pipeline;
pub mod verify;

pub use matching::{
    Candidate, Component, FrontierEnumerator, MatchBudget, Matching, Parallelism, SearchStats,
    TooManyMatchings,
};
pub use pipeline::{block_candidates, BlockedPairs, ComponentOutcome, DocFrontier};
pub use verify::{verify_frontier, InvariantViolation};

use imprecise_oracle::Oracle;
use imprecise_pxml::{from_xml, PxDoc, PxInvariantError, PxNodeId};
use imprecise_xmlkit::{Schema, XmlDoc};
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How the matching budget is applied across the components of a tag
/// group (the budget-planning knob of the pipeline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetPlan {
    /// [`IntegrationOptions::max_matchings_per_component`] caps every
    /// component independently (the historical behaviour).
    PerComponent,
    /// Treat this value as a *total* matching budget for each tag group,
    /// distributed across the group's components proportionally to
    /// their live-pair counts (see [`pipeline::plan_budgets`]): big
    /// ambiguous components get most of the budget, trivial ones the
    /// guaranteed minimum of 1. In this mode
    /// `max_matchings_per_component` is ignored.
    Total(usize),
}

/// How candidate generation prunes cross-source pairs before the Oracle
/// sees them (see [`pipeline::block_candidates`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockingMode {
    /// Judge every cross pair (the historical behaviour).
    #[default]
    Off,
    /// Prune only pairs the oracle-derived [`imprecise_oracle::BlockingPlan`]
    /// proves are `NonMatch`es: the result is bit-identical to [`Off`](Self::Off)
    /// (property-tested), only faster. Pruned counts land in
    /// [`IntegrationStats::pairs_pruned`].
    RecallSafe,
    /// [`RecallSafe`](Self::RecallSafe) plus sorted-neighbourhood
    /// windowing: elements are ordered by a normalised key and only
    /// pairs within `window` positions of each other are considered.
    /// This can drop true matches (reported in
    /// [`IntegrationStats::pairs_windowed_out`]) in exchange for strictly
    /// linear pair generation.
    Heuristic {
        /// Sorted-neighbourhood window size (≥ 1).
        window: usize,
    },
}

/// Tuning knobs of the integration engine.
#[derive(Debug, Clone, Copy)]
pub struct IntegrationOptions {
    /// Relative trust in (source a, source b), used to weight value
    /// conflicts and attribute conflicts. Normalised internally.
    pub source_weights: (f64, f64),
    /// Matching budget: at most this many matchings are kept per
    /// connected component of the candidate graph. Budgeted mode (the
    /// default) keeps the heaviest ones and records the discarded
    /// probability mass; strict mode errors instead.
    pub max_matchings_per_component: usize,
    /// How the budget is spread over a tag group's components:
    /// per-component cap (default) or a planned total split
    /// proportionally to live pairs.
    pub budget_plan: BudgetPlan,
    /// Optional early stop for budgeted enumeration: a component's
    /// enumeration ends as soon as the kept matchings are guaranteed to
    /// cover this fraction of the component's probability mass. `None`
    /// enumerates up to `max_matchings_per_component`.
    pub min_retained_mass: Option<f64>,
    /// Fail with [`IntegrateError::TooManyMatchings`] instead of
    /// truncating when a component exceeds the budget (the historical
    /// behaviour; exact or nothing).
    pub strict_matchings: bool,
    /// Component workers for matching enumeration
    /// ([`Parallelism::SERIAL`] by default, [`Parallelism::AUTO`] uses
    /// all available cores). Several busy components fan out across
    /// workers, one component per worker at a time; a single component
    /// is always enumerated on one thread. Results are bit-identical
    /// regardless of the setting.
    pub parallelism: Parallelism,
    /// Hard cap on locally enumerated alternative combinations when an
    /// input child list contains choice points (incremental integration).
    pub max_local_worlds: usize,
    /// Hard cap on the total size of the output arena (a memory guard for
    /// parameter sweeps; exceeded ⇒ [`IntegrateError::OutputTooLarge`]).
    pub max_output_nodes: usize,
    /// Run pxml simplification on the result (drop zero-probability
    /// possibilities, merge equal ones, collapse certain choice points).
    pub simplify: bool,
    /// Candidate blocking ahead of oracle judging (off by default).
    pub blocking: BlockingMode,
}

impl Default for IntegrationOptions {
    fn default() -> Self {
        IntegrationOptions {
            source_weights: (0.5, 0.5),
            max_matchings_per_component: 1 << 18,
            budget_plan: BudgetPlan::PerComponent,
            min_retained_mass: None,
            strict_matchings: false,
            parallelism: Parallelism::SERIAL,
            max_local_worlds: 4096,
            max_output_nodes: 40_000_000,
            simplify: true,
            blocking: BlockingMode::Off,
        }
    }
}

impl IntegrationOptions {
    /// The per-component matching budget these options describe.
    pub fn match_budget(&self) -> MatchBudget {
        MatchBudget {
            max_matchings: self.max_matchings_per_component,
            min_retained_mass: self.min_retained_mass,
        }
    }

    /// Check the options for nonsensical values (every integration entry
    /// point calls this): source weights become possibility
    /// probabilities, so they must be finite and positive (a NaN, an
    /// infinity or a negative weight would emit NaN or negative
    /// probabilities); a `min_retained_mass` outside `(0, 1]` would
    /// silently discard almost everything (≤ 0) or silently never stop
    /// (> 1), and a zero matching budget cannot keep the one matching
    /// every component has.
    pub fn validate(&self) -> Result<(), IntegrateError> {
        let (wa, wb) = self.source_weights;
        if !(wa > 0.0 && wb > 0.0 && (wa + wb).is_finite()) {
            return Err(IntegrateError::InvalidOptions(format!(
                "source weights must be finite and positive, got ({wa}, {wb})"
            )));
        }
        if let Some(t) = self.min_retained_mass {
            if !(t > 0.0 && t <= 1.0) {
                return Err(IntegrateError::InvalidOptions(format!(
                    "min_retained_mass must be in (0, 1], got {t}"
                )));
            }
        }
        if self.max_matchings_per_component == 0 {
            return Err(IntegrateError::InvalidOptions(
                "max_matchings_per_component must be at least 1".into(),
            ));
        }
        if self.budget_plan == BudgetPlan::Total(0) {
            return Err(IntegrateError::InvalidOptions(
                "a total matching budget must be at least 1".into(),
            ));
        }
        if self.blocking == (BlockingMode::Heuristic { window: 0 }) {
            return Err(IntegrateError::InvalidOptions(
                "a sorted-neighbourhood window must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// Why an integration was aborted.
#[derive(Debug, Clone, PartialEq)]
pub enum IntegrateError {
    /// The two documents have differently tagged roots — the paper assumes
    /// schemas are already aligned, so this is a usage error.
    RootTagMismatch {
        /// Root tag of source a.
        a: String,
        /// Root tag of source b.
        b: String,
    },
    /// A candidate-graph component admits more matchings than the cap
    /// (strict mode only; budgeted mode truncates and records the
    /// discarded mass instead).
    TooManyMatchings {
        /// Number of undecided candidate pairs in the component.
        component_pairs: usize,
        /// The configured cap.
        cap: usize,
        /// Element path of the offending component's tag group
        /// (e.g. `/catalog/movie`).
        path: String,
    },
    /// [`integrate_many_px`] was called with no sources.
    NoSources,
    /// The [`IntegrationOptions`] contain a nonsensical value (see
    /// [`IntegrationOptions::validate`]).
    InvalidOptions(String),
    /// Local enumeration of input choice points exceeded the cap.
    TooManyLocalWorlds {
        /// The configured cap.
        cap: usize,
    },
    /// The output grew beyond [`IntegrationOptions::max_output_nodes`].
    OutputTooLarge {
        /// The configured cap.
        cap: usize,
    },
    /// An input document violates the probabilistic XML invariants.
    InvalidInput(PxInvariantError),
}

impl fmt::Display for IntegrateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntegrateError::RootTagMismatch { a, b } => {
                write!(f, "root tags differ: <{a}> vs <{b}> (schemas not aligned?)")
            }
            IntegrateError::TooManyMatchings {
                component_pairs,
                cap,
                path,
            } => {
                let at = if path.is_empty() {
                    String::new()
                } else {
                    format!(" at {path}")
                };
                write!(
                    f,
                    "a component with {component_pairs} undecided pairs{at} exceeds {cap} \
                     matchings; add rules to let the Oracle make absolute decisions, or \
                     disable strict matching to integrate under a budget"
                )
            }
            IntegrateError::NoSources => {
                write!(f, "integrate_many called with no source documents")
            }
            IntegrateError::InvalidOptions(why) => {
                write!(f, "invalid integration options: {why}")
            }
            IntegrateError::TooManyLocalWorlds { cap } => {
                write!(f, "more than {cap} local alternative combinations")
            }
            IntegrateError::OutputTooLarge { cap } => {
                write!(f, "integration result exceeds {cap} nodes")
            }
            IntegrateError::InvalidInput(e) => write!(f, "invalid input document: {e}"),
        }
    }
}

impl std::error::Error for IntegrateError {}

impl From<PxInvariantError> for IntegrateError {
    fn from(e: PxInvariantError) -> Self {
        IntegrateError::InvalidInput(e)
    }
}

/// One component whose matching enumeration was cut short by the budget.
#[derive(Debug, Clone, PartialEq)]
pub struct TruncatedComponent {
    /// Element path of the component's tag group (e.g. `/catalog/movie`).
    pub path: String,
    /// Live undecided pairs in the component.
    pub live_pairs: usize,
    /// Matchings kept (the heaviest ones).
    pub kept: usize,
    /// Probability mass dropped with the unenumerated matchings — a
    /// conservative upper bound; the kept matchings were renormalised.
    pub discarded_mass: f64,
    /// Open search states persisted for this component at truncation
    /// time: the size of the frontier a [`IntegrationOutcome::refine`]
    /// call resumes from.
    pub frontier_nodes: usize,
    /// True when the frontier is actually retained on the outcome —
    /// a [`IntegrationOutcome::refine`] call can resume it. False for
    /// the intermediate steps of an N-source fold, whose documents are
    /// consumed by the next step: their `frontier_nodes` still report
    /// the real frontier size, but the frontier itself is dropped.
    pub resumable: bool,
}

/// Counters describing what the engine (and its Oracle) did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IntegrationStats {
    /// Distinct element pairs submitted to the Oracle.
    pub pairs_judged: usize,
    /// … of which certainly matched.
    pub judged_match: usize,
    /// … of which certainly non-matched.
    pub judged_nonmatch: usize,
    /// … of which stayed undecided (the paper's "occasions the Oracle
    /// could not make an absolute decision").
    pub judged_possible: usize,
    /// Undecided pairs broken down by element tag (movie-level confusion
    /// vs nested value confusion such as director-name conventions).
    pub undecided_by_tag: BTreeMap<String, usize>,
    /// Absolute decisions per rule name.
    pub rule_decisions: BTreeMap<String, usize>,
    /// Tag-group components processed.
    pub components_total: usize,
    /// … of which required a choice point (more than one matching).
    pub components_with_choice: usize,
    /// Total matchings enumerated across all components.
    pub matchings_enumerated: usize,
    /// Largest per-component matching count seen.
    pub max_component_matchings: usize,
    /// Text-value conflicts turned into choices.
    pub value_conflicts: usize,
    /// Attribute conflicts turned into element-variant choices.
    pub attr_conflicts: usize,
    /// Forced (certain-match) pairs demoted to undecided because they
    /// conflicted with another forced pair on the same element
    /// (contradictory knowledge in the sources).
    pub demoted_forced: usize,
    /// Cross pairs the blocking prefilters proved to be `NonMatch`es and
    /// dropped before any oracle call (recall-safe: never a lost match).
    pub pairs_pruned: usize,
    /// Cross pairs dropped by heuristic sorted-neighbourhood windowing —
    /// these *could* have been matches ([`BlockingMode::Heuristic`] only).
    pub pairs_windowed_out: usize,
    /// Components whose matching enumeration hit the budget: what was
    /// dropped, where, and how much mass it carried.
    pub truncated_components: Vec<TruncatedComponent>,
    /// Largest per-component discarded mass (0.0 when nothing was
    /// truncated): the coarsest fidelity indicator of a budgeted run.
    pub max_discarded_mass: f64,
}

impl IntegrationStats {
    /// Number of components whose enumeration was cut short.
    pub fn components_truncated(&self) -> usize {
        self.truncated_components.len()
    }

    /// True when every component was enumerated exhaustively (the
    /// result is the exact integration, budget or not).
    pub fn is_exact(&self) -> bool {
        self.truncated_components.is_empty()
    }
}

/// What one [`IntegrationOutcome::refine`] call should spend: the
/// pay-as-you-go knob. Components are refined largest discarded mass
/// first — exactly where the next unit of effort buys the most fidelity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefineOptions {
    /// Additional matchings to enumerate per refined component (on top
    /// of what previous runs kept). `usize::MAX` runs each selected
    /// component to completion.
    pub extra_matchings: usize,
    /// Optional retained-mass target: a refined component's enumeration
    /// also stops once its kept matchings are guaranteed to cover this
    /// fraction of its total probability mass.
    pub min_retained_mass: Option<f64>,
    /// Refine at most this many components per call, largest discarded
    /// mass first. `usize::MAX` refines every open component.
    pub max_components: usize,
    /// Component workers for this refine call, overriding the outcome's
    /// [`IntegrationOptions::parallelism`] when set. The selected
    /// components fan out across workers, one component per worker at a
    /// time; a step that refines one component runs on one thread.
    /// Results are bit-identical at every value.
    pub threads: Option<Parallelism>,
}

impl Default for RefineOptions {
    fn default() -> Self {
        RefineOptions {
            extra_matchings: 1024,
            min_retained_mass: None,
            max_components: usize::MAX,
            threads: None,
        }
    }
}

impl RefineOptions {
    /// Run every open component to completion: afterwards the document
    /// is bit-identical to an unbudgeted integration.
    pub fn to_exhaustive() -> Self {
        RefineOptions {
            extra_matchings: usize::MAX,
            min_retained_mass: None,
            max_components: usize::MAX,
            threads: None,
        }
    }

    fn validate(&self) -> Result<(), IntegrateError> {
        if self.extra_matchings == 0 && self.min_retained_mass.is_none() {
            return Err(IntegrateError::InvalidOptions(
                "refine needs extra_matchings >= 1 or a min_retained_mass target".into(),
            ));
        }
        if let Some(t) = self.min_retained_mass {
            if !(t > 0.0 && t <= 1.0) {
                return Err(IntegrateError::InvalidOptions(format!(
                    "min_retained_mass must be in (0, 1], got {t}"
                )));
            }
        }
        if self.max_components == 0 {
            return Err(IntegrateError::InvalidOptions(
                "refine needs max_components >= 1".into(),
            ));
        }
        Ok(())
    }
}

/// One component's before/after numbers in a [`RefineStep`].
#[derive(Debug, Clone, PartialEq)]
pub struct RefinedComponent {
    /// Element path of the component's tag group.
    pub path: String,
    /// Matchings kept before this refinement.
    pub kept_before: usize,
    /// Matchings kept after it.
    pub kept_after: usize,
    /// Discarded mass before this refinement.
    pub discarded_before: f64,
    /// Discarded mass after it (0 when the component drained).
    pub discarded_after: f64,
    /// True when the component's enumeration completed: nothing left to
    /// refine there.
    pub exhausted: bool,
}

/// What one [`IntegrationOutcome::refine`] call did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RefineStep {
    /// The components refined in this step, in refinement order
    /// (largest discarded mass first).
    pub refined: Vec<RefinedComponent>,
    /// Components still truncated after the step (frontiers left open).
    pub remaining: usize,
    /// Largest per-component discarded mass after the step (0 when the
    /// document is now exact).
    pub max_discarded_mass: f64,
    /// Arena nodes this step grafted into the document — the *delta*
    /// emission cost (incremental emission appends only the new
    /// possibility subtrees; it never re-emits the kept set).
    pub emitted_nodes: usize,
    /// Arena slots reachable from the root after the step.
    pub arena_live: usize,
    /// Total arena slots after the step; `arena_total - arena_live`
    /// slots are detached garbage a [`PxDoc::compact`] would reclaim.
    pub arena_total: usize,
    /// True when the caller compacted the arena after this step (set by
    /// the engine layer, which owns the compaction policy; the arena
    /// figures above then describe the compacted document).
    pub compacted: bool,
    /// Search-side work this step's enumerations did (states popped,
    /// bound cutoffs, expansion rounds) — the cost of the step that
    /// `emitted_nodes` does not show.
    pub search: SearchStats,
}

/// An integration result: the probabilistic document, statistics, and —
/// when the budget truncated components — their persisted enumeration
/// frontiers, so the result can be *refined in place* instead of
/// re-integrated from scratch.
///
/// This type replaces the earlier `Integration {doc, stats}` pair; the
/// two public fields are unchanged, and exact (untruncated) outcomes
/// carry no extra state.
///
/// A truncated outcome defers document simplification until the last
/// frontier drains (simplification may restructure the very choice
/// points refinement grafts into); the deferred pass runs automatically
/// at the end of the [`refine`](Self::refine) call that makes the
/// document exact.
#[derive(Debug, Clone)]
pub struct IntegrationOutcome {
    /// The integrated probabilistic document.
    pub doc: PxDoc,
    /// What happened during integration. Refinement keeps
    /// [`IntegrationStats::truncated_components`] and
    /// [`IntegrationStats::max_discarded_mass`] in sync with the live
    /// frontiers; the enumeration counters describe the initial run.
    pub stats: IntegrationStats,
    /// Persisted per-component enumeration frontiers, one per truncated
    /// component still open.
    frontiers: Vec<DocFrontier>,
    /// The source documents, retained while any frontier is open
    /// (re-emission walks them again); dropped once the outcome is
    /// exact.
    sources: Option<(Arc<PxDoc>, Arc<PxDoc>)>,
    /// The options the integration ran under (re-emission must match).
    options: IntegrationOptions,
    /// Cumulative arena nodes grafted by [`refine`](Self::refine) calls
    /// on this outcome (across catalog round-trips via [`RefineState`]).
    emitted_nodes: usize,
    /// Identity of the refinable state, and what the last refine step
    /// changed (travels with the state through [`RefineState`]).
    lineage: Lineage,
}

impl IntegrationOutcome {
    /// The persisted enumeration frontiers, largest structures first
    /// refinable; empty when the result is exact.
    pub fn frontiers(&self) -> &[DocFrontier] {
        &self.frontiers
    }

    /// True when at least one component's frontier is open — a
    /// [`refine`](Self::refine) call can improve this result in place.
    pub fn is_refinable(&self) -> bool {
        !self.frontiers.is_empty()
    }

    /// Largest per-component discarded mass over the open frontiers
    /// (0 when the result is exact).
    pub fn max_discarded_mass(&self) -> f64 {
        self.frontiers
            .iter()
            .map(|f| f.discarded_mass())
            .fold(0.0, f64::max)
    }

    /// Spend an additional matching budget on the components with the
    /// largest discarded mass: resume their best-first enumeration from
    /// the persisted frontiers and graft only the *new* matchings'
    /// possibility subtrees into the existing document, rescaling the
    /// previously emitted siblings' weights in place. A refine step
    /// costs the delta emission — not the whole growing kept set — so
    /// N small installments approach the price of one big budget.
    ///
    /// Each refined component is emitted into its own scratch arena
    /// first (fanning out over threads under
    /// [`IntegrationOptions::parallelism`], like enumeration) and the
    /// scratch subtrees are grafted back serially in refinement order,
    /// so the result is deterministic regardless of thread count.
    ///
    /// Mass accounting closes after every step (`retained + discarded ==
    /// 1` per component) and the largest discarded mass never increases.
    /// Refining with [`RefineOptions::to_exhaustive`] (or repeatedly,
    /// until [`is_refinable`](Self::is_refinable) turns false) converges
    /// to the *exact* integration: the final document is bit-identical —
    /// by fingerprint — to a one-shot unbudgeted run.
    ///
    /// `oracle` and `schema` must be the ones the integration ran under
    /// (re-emission consults them for the merged pairs' children).
    ///
    /// Errors are atomic: every failure mode — enumeration caps, the
    /// local-worlds cap, the output-size guard — fires during the
    /// scratch phase, before the document is touched, so a failed call
    /// leaves the outcome — document, frontiers, stats — exactly as it
    /// was.
    pub fn refine(
        &mut self,
        oracle: &Oracle,
        schema: Option<&Schema>,
        options: &RefineOptions,
    ) -> Result<RefineStep, IntegrateError> {
        options.validate()?;
        if self.frontiers.is_empty() {
            let arena = self.doc.arena_stats();
            return Ok(RefineStep {
                refined: Vec::new(),
                remaining: 0,
                max_discarded_mass: 0.0,
                emitted_nodes: 0,
                arena_live: arena.live,
                arena_total: arena.total,
                compacted: false,
                search: SearchStats::default(),
            });
        }
        let (src_a, src_b) = self
            .sources
            .clone()
            // lint:allow(expect-in-lib, holds by construction: open frontiers retain their sources)
            .expect("open frontiers retain their sources");
        let base_len = self.doc.arena_len();
        let base_frontiers = self.frontiers.len();
        // Pick the top components by discarded mass (ties: emission
        // order — deterministic).
        let mut order: Vec<usize> = (0..self.frontiers.len()).collect();
        order.sort_by(|&x, &y| {
            self.frontiers[y]
                .discarded_mass()
                .total_cmp(&self.frontiers[x].discarded_mass())
                .then(x.cmp(&y))
        });
        order.truncate(options.max_components);
        // Nested tag groups encountered during re-emission enumerate
        // under the refine budget: an exhaustive refinement must not
        // re-truncate below the refined component, under *either*
        // budget plan.
        let exhaustive = options.extra_matchings == usize::MAX;
        let reemit_options = IntegrationOptions {
            max_matchings_per_component: if exhaustive {
                usize::MAX
            } else {
                self.options.max_matchings_per_component
            },
            budget_plan: if exhaustive {
                BudgetPlan::PerComponent
            } else {
                self.options.budget_plan
            },
            min_retained_mass: if exhaustive {
                None
            } else {
                self.options.min_retained_mass
            },
            strict_matchings: false,
            ..self.options
        };
        // Phase A — resume each selected frontier and emit only its new
        // matchings' subtrees into a per-component scratch arena. The
        // document is not touched, so any error returns it untouched;
        // independent components fan out over worker threads.
        let prepared = prepare_components(
            &self.frontiers,
            &order,
            &src_a,
            &src_b,
            oracle,
            schema,
            &reemit_options,
            options,
            self.doc.arena_len(),
        )?;
        // The per-scratch size guard bounds `doc + one scratch`; with
        // several components refined at once the grafts land together,
        // so the aggregate is checked before any of them is applied.
        let added: usize = prepared
            .iter()
            .map(|p| p.scratch.arena_len().saturating_sub(1))
            .sum();
        if self.doc.arena_len() + added > self.options.max_output_nodes {
            return Err(IntegrateError::OutputTooLarge {
                cap: self.options.max_output_nodes,
            });
        }
        // Phase B — graft the scratch subtrees back, serially and in
        // refinement order: append the new possibilities under the
        // component's probability anchor, reorder the children into the
        // full canonical order (old subtrees are reused, never
        // re-emitted), and write every sibling's renormalised weight.
        let mut refined = Vec::with_capacity(prepared.len());
        let mut updates: Vec<(usize, Option<FrontierEnumerator>)> = Vec::with_capacity(order.len());
        let mut nested_all: Vec<DocFrontier> = Vec::new();
        let mut emitted_nodes = 0usize;
        let mut replaced_subtrees = false;
        let mut search = SearchStats::default();
        // Pre-existing nodes the step rewrites: each anchor and its
        // possibility children (re-weighted, or detached by a synthetic
        // replacement).
        let mut rewritten: Vec<PxNodeId> = Vec::new();
        for p in prepared {
            search.absorb(&p.all.search);
            let df = &self.frontiers[p.slot];
            let prob = df.prob();
            rewritten.push(prob);
            rewritten.extend_from_slice(self.doc.children(prob));
            let before = self.doc.arena_len();
            // Move the scratch arena under the anchor wholesale (one
            // linear pass, slots and payloads transferred rather than
            // re-allocated); the offset map re-anchors nested frontiers
            // recorded inside the spliced subtrees. The scratch root's
            // children are exactly the new possibility subtrees, in
            // emission order.
            let (grafted, id_map) = self.doc.splice_scratch(prob, p.scratch);
            assert_eq!(
                grafted.len(),
                p.new_poss.len(),
                "the scratch root holds exactly the new possibility subtrees"
            );
            emitted_nodes += self.doc.arena_len() - before;
            // Interleave old and new children into canonical order. The
            // canonical sort is a total order over distinct matchings,
            // so the old entries' relative order is unchanged — they
            // consume the existing children positionally. A mismatch
            // between flagged-old entries and existing children means
            // the frontier could not vouch for what was emitted before
            // (a synthetic frontier restarts enumeration from scratch):
            // the old subtrees are dropped and the full set stands.
            let old_children: Vec<PxNodeId> = self
                .doc
                .children(prob)
                .iter()
                .copied()
                .filter(|c| !grafted.contains(c))
                .collect();
            let flagged_old = p.is_new.iter().filter(|&&n| !n).count();
            let mut final_children = Vec::with_capacity(p.all.matchings.len());
            if flagged_old == old_children.len() {
                let mut old_iter = old_children.into_iter();
                let mut new_iter = grafted.iter().copied();
                for &fresh in &p.is_new {
                    let child = if fresh {
                        // lint:allow(expect-in-lib, holds by construction: one grafted subtree per new entry)
                        new_iter.next().expect("one grafted subtree per new entry")
                    } else {
                        // lint:allow(expect-in-lib, holds by construction: one existing subtree per old entry)
                        old_iter.next().expect("one existing subtree per old entry")
                    };
                    final_children.push(child);
                }
            } else {
                debug_assert!(
                    df.is_synthetic(),
                    "only a synthetic frontier re-yields previously emitted matchings"
                );
                final_children = grafted.clone();
                replaced_subtrees = true;
            }
            self.doc.reset_children(prob, final_children.clone());
            for (child, m) in final_children.iter().zip(&p.all.matchings) {
                self.doc.set_poss_prob(*child, m.weight);
            }
            refined.push(RefinedComponent {
                path: df.path().to_string(),
                kept_before: df.kept(),
                kept_after: p.all.matchings.len(),
                discarded_before: df.discarded_mass(),
                discarded_after: p.all.discarded_mass,
                exhausted: !p.all.truncated,
            });
            updates.push((p.slot, p.left));
            // Nested frontiers carry scratch-relative probability ids;
            // their source-document group ids are unchanged.
            for mut f in p.nested {
                f.set_prob(id_map.remap(f.prob()));
                nested_all.push(f);
            }
        }
        // Components still open keep their *advanced enumerator*
        // resident for the next step. Drained components drop out.
        // `origins` tracks where each frontier came from, for the step's
        // delta.
        let mut origins: Vec<FrontierOrigin> =
            (0..base_frontiers).map(FrontierOrigin::Kept).collect();
        let mut drained: Vec<usize> = Vec::new();
        for (i, left) in updates {
            match left {
                Some(en) => {
                    self.frontiers[i].install(en);
                    origins[i] = FrontierOrigin::Advanced(i);
                }
                None => drained.push(i),
            }
        }
        // Drop drained frontiers (largest index first so removals don't
        // shift pending ones), then adopt the frontiers of components
        // that truncated *inside* the grafted subtrees.
        drained.sort_unstable_by(|a, b| b.cmp(a));
        for i in drained {
            self.frontiers.remove(i);
            origins.remove(i);
        }
        origins.extend(nested_all.iter().map(|_| FrontierOrigin::New));
        self.frontiers.extend(nested_all);
        // A synthetic replacement detached its old subtrees; frontiers
        // recorded inside them are gone with their nodes. The normal
        // incremental path only appends and permutes, so nothing can
        // become unreachable and the arena-wide scan is skipped.
        if replaced_subtrees {
            let reachable: HashSet<PxNodeId> = self.doc.descendants(self.doc.root()).collect();
            (self.frontiers, origins) = std::mem::take(&mut self.frontiers)
                .into_iter()
                .zip(origins)
                .filter(|(f, _)| reachable.contains(&f.prob()))
                .unzip();
        }
        self.lineage = Lineage::stepped(StepDelta {
            base: self.lineage.id,
            base_arena_len: base_len,
            rewritten,
            base_frontiers,
            origins,
        });
        self.sync_truncation_stats();
        if self.frontiers.is_empty() {
            // The document is exact now: run the deferred finishing pass
            // and let go of the retained sources.
            if self.options.simplify {
                self.doc.simplify();
            }
            self.sources = None;
        }
        self.emitted_nodes += emitted_nodes;
        let arena = self.doc.arena_stats();
        #[cfg(feature = "strict-invariants")]
        verify::shadow_check(self, "refine");
        Ok(RefineStep {
            refined,
            remaining: self.frontiers.len(),
            max_discarded_mass: self.max_discarded_mass(),
            emitted_nodes,
            arena_live: arena.live,
            arena_total: arena.total,
            compacted: false,
            search,
        })
    }

    /// Cumulative arena nodes grafted by every [`refine`](Self::refine)
    /// call on this outcome so far.
    pub fn emitted_nodes(&self) -> usize {
        self.emitted_nodes
    }

    /// Drop the arena slots detached by refinement and feedback,
    /// renumbering the surviving nodes and re-anchoring the open
    /// frontiers. The document's content — fingerprint, worlds, query
    /// answers — is unchanged; only node ids move. Returns the remap so
    /// callers holding their own [`PxNodeId`]s can follow. The refine
    /// state detached afterwards is a new state: it has a fresh
    /// [`RefineState::lineage`] and no step delta
    /// ([`RefineState::step_base`] is `None`), so a durable store
    /// writes the compacted version whole and never extends it from the
    /// uncompacted version it may hold.
    pub fn compact_arena(&mut self) -> imprecise_pxml::CompactMap {
        let map = self.doc.compact();
        // Compaction renumbers the arena: the document is no longer the
        // one stored under the old identity, and the last step's delta
        // no longer describes it.
        self.lineage = Lineage::fresh();
        if !map.is_identity() {
            for f in &mut self.frontiers {
                let prob = map
                    .remap(f.prob())
                    // lint:allow(expect-in-lib, refine retains only frontiers whose anchors stayed reachable, and compact keeps every reachable node)
                    .expect("open frontiers anchor reachable probability nodes");
                f.set_prob(prob);
            }
        }
        #[cfg(feature = "strict-invariants")]
        verify::shadow_check(self, "compact_arena");
        map
    }

    /// Detach the refinable state from this outcome, leaving it exact
    /// and returning `None` when there was nothing to refine.
    ///
    /// This is the catalog-storage seam: a versioned store keeps the
    /// (shared) document and the [`RefineState`] side by side, keyed by
    /// the same version, and reassembles them with
    /// [`IntegrationOutcome::with_refine_state`] when a refinement is
    /// requested.
    pub fn detach_refine_state(&mut self) -> Option<RefineState> {
        if self.frontiers.is_empty() {
            return None;
        }
        Some(RefineState {
            stats: self.stats.clone(),
            frontiers: std::mem::take(&mut self.frontiers),
            sources: self
                .sources
                .take()
                // lint:allow(expect-in-lib, holds by construction: open frontiers retain their sources)
                .expect("open frontiers retain their sources"),
            options: self.options,
            emitted_nodes: self.emitted_nodes,
            lineage: std::mem::replace(&mut self.lineage, Lineage::fresh()),
        })
    }

    /// Reassemble an outcome from a document and the [`RefineState`]
    /// detached from it. `doc` must be the same document version the
    /// state was detached from — the frontiers point into its arena.
    pub fn with_refine_state(doc: PxDoc, state: RefineState) -> Self {
        IntegrationOutcome {
            doc,
            stats: state.stats,
            frontiers: state.frontiers,
            sources: Some(state.sources),
            options: state.options,
            emitted_nodes: state.emitted_nodes,
            lineage: state.lineage,
        }
    }

    /// Rewrite the truncation records from the live frontiers (the
    /// enumeration counters keep describing the initial run).
    fn sync_truncation_stats(&mut self) {
        self.stats.truncated_components = self
            .frontiers
            .iter()
            .map(|f| TruncatedComponent {
                path: f.path().to_string(),
                live_pairs: f.live_pairs(),
                kept: f.kept(),
                discarded_mass: f.discarded_mass(),
                frontier_nodes: f.open_nodes(),
                resumable: true,
            })
            .collect();
        self.stats.max_discarded_mass = self.max_discarded_mass();
    }
}

/// One refined component's Phase-A product: the resumed enumeration and
/// the scratch arena holding only the *new* matchings' possibility
/// subtrees, ready to be grafted under the component's probability
/// anchor.
struct PreparedComponent {
    /// Index into the outcome's frontier list.
    slot: usize,
    /// The full canonical kept set (weights renormalised).
    all: matching::BudgetedMatchings,
    /// Parallel to `all.matchings`: which entries this step yielded.
    is_new: Vec<bool>,
    /// The advanced enumerator, still open — installed back on the
    /// site when the step commits. `None` when the component drained.
    left: Option<FrontierEnumerator>,
    /// Scratch arena: a root probability node whose children are the
    /// new possibility subtrees.
    scratch: PxDoc,
    /// The scratch ids of those subtrees, in canonical (emission) order.
    new_poss: Vec<PxNodeId>,
    /// Frontiers of tag groups truncated *inside* the new subtrees,
    /// with scratch-relative probability ids.
    nested: Vec<DocFrontier>,
}

/// Phase A of a refine step for one component: resume the enumeration
/// (on a clone of the site's resident enumerator, on the calling
/// thread) and emit the delta into a scratch arena. Touches nothing
/// shared — the site itself is only updated when the step commits, so
/// errors stay atomic.
#[allow(clippy::too_many_arguments)]
fn prepare_one(
    frontiers: &[DocFrontier],
    slot: usize,
    src_a: &PxDoc,
    src_b: &PxDoc,
    oracle: &Oracle,
    schema: Option<&Schema>,
    reemit_options: &IntegrationOptions,
    options: &RefineOptions,
    arena_base: usize,
) -> Result<PreparedComponent, IntegrateError> {
    let df = &frontiers[slot];
    let mut en = df.enumerator();
    en.mark_step();
    let max_matchings = if options.extra_matchings == usize::MAX {
        usize::MAX
    } else {
        en.kept().saturating_add(options.extra_matchings.max(1))
    };
    let (all, is_new) = en.run_delta(&MatchBudget {
        max_matchings,
        min_retained_mass: options.min_retained_mass,
    });
    let left = if en.is_drained() { None } else { Some(en) };
    let mut builder =
        merge::Builder::scratch(src_a, src_b, oracle, schema, reemit_options, arena_base);
    let new_poss = builder.emit_new_possibilities(df, &all.matchings, &is_new)?;
    let (scratch, _stats, nested) = builder.finish_with_frontiers();
    Ok(PreparedComponent {
        slot,
        all,
        is_new,
        left,
        scratch,
        new_poss,
        nested,
    })
}

/// Phase A over every selected frontier, fanning out over scoped worker
/// threads when the options allow and more than one component is
/// selected. Results come back in selection order and the first error
/// (in that order) wins, so serial and parallel runs agree exactly.
#[allow(clippy::too_many_arguments)]
fn prepare_components(
    frontiers: &[DocFrontier],
    order: &[usize],
    src_a: &PxDoc,
    src_b: &PxDoc,
    oracle: &Oracle,
    schema: Option<&Schema>,
    reemit_options: &IntegrationOptions,
    options: &RefineOptions,
    arena_base: usize,
) -> Result<Vec<PreparedComponent>, IntegrateError> {
    let threads = options
        .threads
        .unwrap_or(reemit_options.parallelism)
        .effective()
        .min(order.len());
    let prepare = |k: usize| {
        prepare_one(
            frontiers,
            order[k],
            src_a,
            src_b,
            oracle,
            schema,
            reemit_options,
            options,
            arena_base,
        )
    };
    if threads <= 1 {
        return (0..order.len()).map(prepare).collect();
    }
    pipeline::fan_out(order.len(), threads, prepare)
        .into_iter()
        .collect()
}

/// The document-independent refinable state of a truncated
/// [`IntegrationOutcome`]: the persisted frontiers, the retained source
/// documents, the stats and the options the run used. Opaque plain data
/// (`Send + Sync`), meant to live in a versioned catalog next to the
/// document it belongs to.
#[derive(Debug, Clone)]
pub struct RefineState {
    stats: IntegrationStats,
    frontiers: Vec<DocFrontier>,
    sources: (Arc<PxDoc>, Arc<PxDoc>),
    options: IntegrationOptions,
    emitted_nodes: usize,
    lineage: Lineage,
}

/// Where a refinable state sits in its refinement history: an identity
/// unique within the process, plus — when the state is exactly one
/// refine step past another — what that step changed.
///
/// Clones share the identity (a clone *is* the same state); every
/// refine step mints a new one and records the old one as the step's
/// base; compaction mints a new one with no step, since it renumbers
/// the arena. The identity never reaches the disk, so a decoded state
/// starts a fresh lineage.
#[derive(Debug, Clone)]
struct Lineage {
    id: u64,
    step: Option<Arc<StepDelta>>,
}

impl Lineage {
    /// A new identity with no step on record.
    fn fresh() -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        Lineage {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            step: None,
        }
    }

    /// A new identity one step past `step.base`.
    fn stepped(step: StepDelta) -> Self {
        Lineage {
            step: Some(Arc::new(step)),
            ..Lineage::fresh()
        }
    }
}

/// The state and document a refine step started from, as
/// [`RefineState::step_base`] reports them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepBase {
    /// [`RefineState::lineage`] of the state the step started from.
    pub lineage: u64,
    /// Arena length of the document the step started from.
    pub arena_len: usize,
}

/// What one refine step changed, relative to the state and document it
/// started from: enough to write the step as a delta
/// ([`codec::encode_refine_step`]) instead of the whole document and
/// state.
#[derive(Debug)]
struct StepDelta {
    /// Lineage identity of the state the step started from.
    base: u64,
    /// Arena length of the document the step started from; every slot
    /// from here on was appended by the step.
    base_arena_len: usize,
    /// Pre-existing arena slots the step rewrote: each refined anchor,
    /// then its children as they were before the step.
    rewritten: Vec<PxNodeId>,
    /// Frontier count of the state the step started from.
    base_frontiers: usize,
    /// Per frontier after the step, where it came from.
    origins: Vec<FrontierOrigin>,
}

/// Where a frontier after a refine step came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrontierOrigin {
    /// The base's frontier at this index, untouched by the step.
    Kept(usize),
    /// The base's frontier at this index, advanced by the step.
    Advanced(usize),
    /// Truncated inside subtrees the step grafted.
    New,
}

impl RefineState {
    /// Number of truncated components still open.
    pub fn open_components(&self) -> usize {
        self.frontiers.len()
    }

    /// Cumulative arena nodes grafted by the refine calls this state
    /// has passed through (the emission side of the pay-as-you-go
    /// cost).
    pub fn emitted_nodes(&self) -> usize {
        self.emitted_nodes
    }

    /// Largest per-component discarded mass over the open frontiers.
    pub fn max_discarded_mass(&self) -> f64 {
        self.frontiers
            .iter()
            .map(|f| f.discarded_mass())
            .fold(0.0, f64::max)
    }

    /// The two source documents this state was captured against, in
    /// integration order. A durable store persists them separately
    /// (deduplicated — many catalog entries share a source) and hands
    /// them back to [`codec::decode_refine_state`] on recovery.
    pub fn sources(&self) -> (&Arc<PxDoc>, &Arc<PxDoc>) {
        (&self.sources.0, &self.sources.1)
    }

    /// This state's identity: unique within the process, shared by its
    /// clones, renewed by every refine step. Never persisted — a state
    /// decoded from bytes gets a fresh one.
    pub fn lineage(&self) -> u64 {
        self.lineage.id
    }

    /// The state this one is exactly one refine step past, when that
    /// step's delta is on record: the state came out of
    /// [`IntegrationOutcome::refine`] on that state and its document,
    /// with no compaction since. A durable store that holds that state
    /// (and a document of that arena length) as a name's latest version
    /// can then append [`codec::encode_refine_step`] instead of the
    /// whole document and state.
    pub fn step_base(&self) -> Option<StepBase> {
        self.lineage.step.as_ref().map(|step| StepBase {
            lineage: step.base,
            arena_len: step.base_arena_len,
        })
    }
}

/// Integrate two certain XML documents.
pub fn integrate_xml(
    a: &XmlDoc,
    b: &XmlDoc,
    oracle: &Oracle,
    schema: Option<&Schema>,
    options: &IntegrationOptions,
) -> Result<IntegrationOutcome, IntegrateError> {
    let pa = from_xml(a);
    let pb = from_xml(b);
    integrate_px(&pa, &pb, oracle, schema, options)
}

/// Integrate two (possibly already probabilistic) documents.
///
/// When the budget truncates components, the returned outcome retains
/// clones of both sources so it stays refinable; use
/// [`integrate_px_shared`] to share already-`Arc`ed documents without
/// copying.
pub fn integrate_px(
    a: &PxDoc,
    b: &PxDoc,
    oracle: &Oracle,
    schema: Option<&Schema>,
    options: &IntegrationOptions,
) -> Result<IntegrationOutcome, IntegrateError> {
    integrate_inner(a, b, oracle, schema, options, RetainSources::Clone)
}

/// [`integrate_px`] over shared documents: a truncated outcome retains
/// cheap `Arc` clones of the sources instead of deep copies.
pub fn integrate_px_shared(
    a: &Arc<PxDoc>,
    b: &Arc<PxDoc>,
    oracle: &Oracle,
    schema: Option<&Schema>,
    options: &IntegrationOptions,
) -> Result<IntegrationOutcome, IntegrateError> {
    integrate_inner(
        a,
        b,
        oracle,
        schema,
        options,
        RetainSources::Shared(Arc::clone(a), Arc::clone(b)),
    )
}

/// How a truncated outcome gets hold of its sources for later
/// refinement.
enum RetainSources {
    /// Deep-copy the borrowed inputs (only when actually truncated).
    Clone,
    /// Share these `Arc`s.
    Shared(Arc<PxDoc>, Arc<PxDoc>),
    /// Drop the frontiers instead: the result is not refinable (used for
    /// the intermediate steps of a fold, whose documents are consumed by
    /// the next step anyway).
    Discard,
}

fn integrate_inner(
    a: &PxDoc,
    b: &PxDoc,
    oracle: &Oracle,
    schema: Option<&Schema>,
    options: &IntegrationOptions,
    retain: RetainSources,
) -> Result<IntegrationOutcome, IntegrateError> {
    options.validate()?;
    a.validate()?;
    b.validate()?;
    let mut builder = merge::Builder::new(a, b, oracle, schema, options);
    builder.integrate_roots()?;
    let (mut doc, mut stats, mut frontiers) = builder.finish_with_frontiers();
    let sources = if frontiers.is_empty() {
        None
    } else {
        match retain {
            RetainSources::Clone => Some((Arc::new(a.clone()), Arc::new(b.clone()))),
            RetainSources::Shared(sa, sb) => Some((sa, sb)),
            RetainSources::Discard => {
                frontiers.clear();
                // The truncation records keep their real frontier sizes;
                // only the resumability flag is withdrawn with the
                // dropped frontiers.
                for t in &mut stats.truncated_components {
                    t.resumable = false;
                }
                None
            }
        }
    };
    // Simplification may merge or collapse the very probability nodes
    // the frontiers point at, so it is deferred while any frontier is
    // open; `refine` runs it once the document becomes exact.
    if options.simplify && frontiers.is_empty() {
        doc.simplify();
    }
    let outcome = IntegrationOutcome {
        doc,
        stats,
        frontiers,
        sources,
        options: *options,
        emitted_nodes: 0,
        lineage: Lineage::fresh(),
    };
    #[cfg(feature = "strict-invariants")]
    verify::shadow_check(&outcome, "integrate");
    Ok(outcome)
}

/// The result of an N-source fold: the final integrated outcome plus the
/// statistics of each pairwise step, in fold order.
#[derive(Debug, Clone)]
pub struct ManyIntegration {
    /// The final fold result. Only the *last* step's truncation
    /// frontiers are retained (earlier steps' documents were consumed by
    /// the fold), so refinement applies to the published result.
    pub outcome: IntegrationOutcome,
    /// One [`IntegrationStats`] per pairwise integration
    /// (`sources.len() - 1` entries; empty for a single source).
    pub steps: Vec<IntegrationStats>,
}

/// Integrate any number of sources by left-fold:
/// `((s₀ ⊕ s₁) ⊕ s₂) ⊕ …` — the paper's incremental integration loop
/// ("improved incrementally while the integrated source is being used")
/// run to a fixpoint over a batch of sources.
///
/// Each intermediate result is already probabilistic, so later steps
/// exercise the local-worlds machinery; budgets apply per step. The
/// final step's truncation frontiers are retained on the returned
/// outcome, so a budget-truncated fold can still be refined in place.
/// Errors with [`IntegrateError::NoSources`] on an empty slice; a single
/// source is validated and returned unchanged.
pub fn integrate_many_px(
    sources: &[&PxDoc],
    oracle: &Oracle,
    schema: Option<&Schema>,
    options: &IntegrationOptions,
) -> Result<ManyIntegration, IntegrateError> {
    options.validate()?;
    let (first, rest) = sources.split_first().ok_or(IntegrateError::NoSources)?;
    first.validate()?;
    let mut doc: Arc<PxDoc> = Arc::new((*first).clone());
    let mut steps = Vec::with_capacity(rest.len());
    let mut outcome: Option<IntegrationOutcome> = None;
    for (k, source) in rest.iter().enumerate() {
        let last = k + 1 == rest.len();
        if last {
            let src = Arc::new((**source).clone());
            let step = integrate_px_shared(&doc, &src, oracle, schema, options)?;
            steps.push(step.stats.clone());
            outcome = Some(step);
        } else {
            // Intermediate documents are consumed by the next step:
            // their frontiers would dangle, so they are not retained.
            let step = integrate_inner(
                &doc,
                source,
                oracle,
                schema,
                options,
                RetainSources::Discard,
            )?;
            steps.push(step.stats.clone());
            doc = Arc::new(step.doc);
        }
    }
    let outcome = outcome.unwrap_or_else(|| IntegrationOutcome {
        doc: Arc::try_unwrap(doc).unwrap_or_else(|arc| (*arc).clone()),
        stats: IntegrationStats::default(),
        frontiers: Vec::new(),
        sources: None,
        options: *options,
        emitted_nodes: 0,
        lineage: Lineage::fresh(),
    });
    Ok(ManyIntegration { outcome, steps })
}
