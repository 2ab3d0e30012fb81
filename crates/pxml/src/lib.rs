//! # imprecise-pxml — the probabilistic XML data model
//!
//! This crate implements §II of the IMPrECISE paper: an XML tree extended
//! with two extra node types that compactly represents *all possible states
//! of the real world* (the possible worlds) in one document.
//!
//! * **Probability nodes** (`▽`, [`PxNodeKind::Prob`]) are choice points.
//!   Their children are possibility nodes.
//! * **Possibility nodes** (`○`, [`PxNodeKind::Poss`]) carry a probability;
//!   sibling possibilities are mutually exclusive and their probabilities
//!   sum to 1. Their children are regular XML nodes.
//! * **Regular nodes** ([`PxNodeKind::Elem`], [`PxNodeKind::Text`]) are
//!   ordinary XML content. Element children may again be probability nodes.
//!
//! The root of a [`PxDoc`] is always a probability node (as in the paper).
//! A document in which every probability node has a single possibility of
//! probability 1 is *certain* — it represents exactly one world.
//!
//! ## Relaxed vs strict layering
//!
//! The paper presents a strictly layered tree (every level alternates
//! between node types). This implementation uses the equivalent *relaxed*
//! form in which certain content hangs directly under its parent element
//! without a trivial `prob(poss@1)` wrapper; [`PxDoc::validate`] checks the
//! relaxed invariants and the conversions in [`convert`] can produce or
//! absorb the strict form. The relaxed form is what the paper's own
//! simplification rules produce, and it keeps node counts honest.
//!
//! ## Storage: versions that share memory
//!
//! A document's nodes live in an arena of copy-on-write chunks of
//! [`PxDoc::CHUNK`] slots, addressed by [`PxNodeId`]; the possibility
//! weights live in one flat column beside it (so [`PxNodeKind::Poss`]
//! carries no payload: read a weight with [`PxDoc::poss_prob`]). Cloning
//! a document copies chunk pointers and the weight column, and a write
//! copies only the chunk it lands in. The versions a refine loop
//! publishes one after another therefore share every chunk a step did
//! not touch — a step rewrites its refined choice points' child lists and
//! appends to the last chunk; the weights it renormalises all over the
//! arena go to the column — and freeing a version frees only what it
//! did not share ([`PxDoc::unshared_chunks`]). The layout is checked by
//! [`PxDoc::deep_check`]; the [`codec`] writes the same bytes as for a
//! flat arena.
//!
//! ## Worlds, counting, and the data explosion
//!
//! [`worlds`] enumerates possible worlds with their probabilities (for
//! small documents and for correctness oracles in tests); analytic counters
//! compute the number of worlds and representation sizes without
//! enumeration. [`count`] also computes the **unfactored** representation
//! size — the size the document would have if every element merged its
//! independent choice points into a single probability node by
//! cross-product, which is the representation the paper's own system used
//! and the quantity behind Table I and Figure 5. The gap between factored
//! and unfactored sizes is the "taming data explosion" effect measured by
//! the ablation bench.
//!
//! ## Example
//!
//! ```
//! use imprecise_pxml::PxDoc;
//!
//! // The paper's Fig. 2: uncertain integration of two address books.
//! let mut px = PxDoc::new();
//! let root = px.root();
//! // Possibility 1 (p=0.5): one person John, phone uncertain.
//! let w1 = px.add_poss(root, 0.5);
//! let ab1 = px.add_elem(w1, "addressbook");
//! let p1 = px.add_elem(ab1, "person");
//! px.add_text_elem(p1, "nm", "John");
//! let tel_choice = px.add_prob(p1);
//! let t1 = px.add_poss(tel_choice, 0.5);
//! px.add_text_elem(t1, "tel", "1111");
//! let t2 = px.add_poss(tel_choice, 0.5);
//! px.add_text_elem(t2, "tel", "2222");
//! // Possibility 2 (p=0.5): two distinct persons named John.
//! let w2 = px.add_poss(root, 0.5);
//! let ab2 = px.add_elem(w2, "addressbook");
//! for tel in ["1111", "2222"] {
//!     let p = px.add_elem(ab2, "person");
//!     px.add_text_elem(p, "nm", "John");
//!     px.add_text_elem(p, "tel", tel);
//! }
//! px.validate().unwrap();
//! assert_eq!(px.world_count(), 3); // the paper's three possible worlds
//! ```

#![forbid(unsafe_code)]

pub mod codec;
pub mod convert;
pub mod count;
pub mod deep;
pub mod dot;
pub mod fingerprint;
pub mod node;
pub mod prune;
pub mod simplify;
pub mod validate;
pub mod weights;
pub mod worlds;

pub use convert::{from_xml, parse_annotated, to_annotated_xml};
pub use count::{NodeBreakdown, UnfactoredError};
pub use deep::DeepCheckError;
pub use dot::to_dot;
pub use fingerprint::{px_deep_equal, px_fingerprint};
pub use node::{ArenaStats, CompactMap, PxDoc, PxNodeId, PxNodeKind, SpliceMap};
pub use prune::PruneStats;
pub use validate::PxInvariantError;
pub use weights::ChoiceWeights;
pub use worlds::{TooManyWorlds, World, WorldIter};

/// Tolerance used when checking that possibility weights sum to one and in
/// other floating-point probability comparisons.
pub const PROB_EPSILON: f64 = 1e-9;
