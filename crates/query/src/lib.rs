//! # imprecise-query — querying probabilistic XML
//!
//! §VI of the IMPrECISE paper: *"In theory, the semantics of a query is the
//! set of possible answers obtained by evaluating the query in each of the
//! possible worlds separately. … Because XQuery answers are always
//! sequences, we can construct an amalgamated answer by merging and ranking
//! the elements of all possible answers."*
//!
//! This crate provides:
//!
//! * a parser ([`parse_query`]) for the XPath fragment the paper's demo
//!   queries use — `/` and `//` steps, `*` and tag tests, predicates with
//!   `=`, `contains(…)`, `and` / `or` / `not(…)`, and XQuery's
//!   `some $x in path satisfies cond` (which the second demo query needs);
//! * evaluation over ordinary certain documents ([`eval_xml`]);
//! * **exact** probabilistic evaluation over [`imprecise_pxml::PxDoc`]
//!   ([`eval_px`]): every answer value's probability is the exact
//!   probability of the event "some occurrence of this value is in the
//!   query result", computed symbolically over the document's choice
//!   points — no world enumeration. Variable-disjoint sub-events of an
//!   `and`/`or` are independent and multiply (or unite) directly; only
//!   sub-events that share choice points are Shannon-expanded, and every
//!   cofactor is decomposed again (see [`event`]);
//! * a **compile-then-execute pipeline** ([`QueryPlan`] compiled from the
//!   AST, executed as a lazy [`AnswerStream`] of typed [`Answer`]s):
//!   logical step normalization, a physical operator chain with hoisted
//!   value tests, probability-threshold pushdown that prunes candidates
//!   on cheap event bounds before any exact probability is computed, and
//!   per-execution memo tables for node value events and event
//!   probabilities;
//! * **indexed path evaluation** over a per-document [`DocIndex`]: every
//!   step is a range scan over its tag's elements inside the context's
//!   pre/post region (the staircase-join numbering of MonetDB/XQuery, the
//!   system the original prototype ran on), each node's existence event
//!   is read off its chain of enclosing choices, and an equality
//!   predicate like `[year="1955"]` first narrows the step to the
//!   ancestors of the elements whose value can match, so a selective
//!   query costs what its answers cost. The index lives in the document
//!   ([`DocIndex::of`]): the document's first query builds it, later
//!   queries reuse it, and any mutation drops it — so integration and
//!   refinement never build one, and each published engine version is
//!   indexed at most once;
//! * a naive all-worlds evaluator ([`eval_px_naive`]) used as a semantic
//!   oracle in tests (`eval_px` ≡ `eval_px_naive` on every document).
//!
//! ## The paper's example
//!
//! ```
//! use imprecise_query::{parse_query, eval_px};
//! use imprecise_pxml::PxDoc;
//!
//! // An integrated movie database where "Jaws" certainly exists and
//! // "Jaws 2" exists in half the worlds.
//! let mut px = PxDoc::new();
//! let w = px.add_poss(px.root(), 1.0);
//! let cat = px.add_elem(w, "catalog");
//! let m1 = px.add_elem(cat, "movie");
//! px.add_text_elem(m1, "title", "Jaws");
//! px.add_text_elem(m1, "genre", "Horror");
//! let choice = px.add_prob(cat);
//! let yes = px.add_poss(choice, 0.5);
//! let m2 = px.add_elem(yes, "movie");
//! px.add_text_elem(m2, "title", "Jaws 2");
//! px.add_text_elem(m2, "genre", "Horror");
//! px.add_poss(choice, 0.5); // world without Jaws 2
//!
//! let q = parse_query("//movie[genre=\"Horror\"]/title").unwrap();
//! let answers = eval_px(&px, &q).unwrap();
//! assert_eq!(answers.items[0].value, "Jaws");
//! assert!((answers.items[0].probability - 1.0).abs() < 1e-12);
//! assert_eq!(answers.items[1].value, "Jaws 2");
//! assert!((answers.items[1].probability - 0.5).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]

pub mod answer;
pub mod ast;
pub mod event;
pub mod index;
pub mod naive;
pub mod parse;
pub mod plan;
pub mod px_eval;
pub mod stream;
pub mod xml_eval;

pub use answer::{RankedAnswer, RankedAnswers};
pub use ast::{Axis, Expr, NodeTest, Query, RelPath, Step};
pub use event::{
    probability_above, probability_bounds, probability_memo, satisfying_assignments, ChoiceAtom,
    Event, PartialAssignment, ProbMemo,
};
pub use index::DocIndex;
pub use naive::eval_px_naive;
pub use parse::{parse_query, QueryParseError};
pub use plan::QueryPlan;
pub use px_eval::{answer_event, answer_events, eval_px, EvalError};
pub use stream::{Answer, AnswerStream, AnswerValue};
pub use xml_eval::eval_xml;
