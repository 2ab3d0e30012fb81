//! # imprecise — good-is-good-enough data integration
//!
//! A from-scratch Rust reproduction of **IMPrECISE** (A. de Keijzer &
//! M. van Keulen, *IMPrECISE: Good-is-good-enough data integration*,
//! ICDE 2008): a probabilistic XML database engine that integrates XML
//! sources *near-automatically* by keeping unresolvable matching decisions
//! as possibilities instead of forcing a human to resolve them up front.
//!
//! The original system was an XQuery module on MonetDB/XQuery; this
//! reproduction implements the whole stack natively:
//!
//! | Layer | Crate (re-exported as) |
//! |---|---|
//! | XML substrate: parser, DOM, DTD-lite, serializer | [`xml`] |
//! | Probabilistic XML tree, possible worlds, counting | [`pxml`] |
//! | String similarity & convention normalisation | [`sim`] |
//! | "The Oracle": knowledge rules + priors | [`oracle`] |
//! | Probabilistic integration engine | [`integrate`] |
//! | Query engine (XPath subset, exact ranking) | [`query`] |
//! | Answer-quality measures (precision/recall) | [`quality`] |
//! | User feedback (world conditioning) | [`feedback`] |
//! | Durable versioned store (crash-safe catalog persistence) | [`store`] |
//! | Synthetic IMDB/MPEG-7 corpora & experiment workloads | [`datagen`] |
//!
//! The [`Engine`] type ties the layers together in the shape of the
//! paper's demo — load sources, configure the Oracle, integrate, query,
//! give feedback — behind a thread-safe API: an [`EngineBuilder`] for
//! session-wide configuration, typed [`DocHandle`]s instead of bare
//! string names, `Arc`-shared versioned [`DocSnapshot`]s so any number
//! of readers can query while writers publish new versions, and
//! [`PreparedQuery`] handles that parse once and run many times.
//! (The deprecated single-threaded `Session` façade was removed after
//! its one release of grace; the README's migration table maps every
//! `Session` call onto its `Engine` equivalent.)
//!
//! ## Quickstart
//!
//! ```
//! use imprecise::Engine;
//! use imprecise::oracle::presets::addressbook_oracle;
//!
//! let engine = Engine::builder()
//!     .oracle(addressbook_oracle())
//!     .schema_text(
//!         "<!ELEMENT addressbook (person*)><!ELEMENT person (nm, tel?)>\
//!          <!ELEMENT nm (#PCDATA)><!ELEMENT tel (#PCDATA)>",
//!     )
//!     .unwrap()
//!     .build();
//! let a = engine
//!     .load_xml("a", "<addressbook><person><nm>John</nm><tel>1111</tel></person></addressbook>")
//!     .unwrap();
//! let b = engine
//!     .load_xml("b", "<addressbook><person><nm>John</nm><tel>2222</tel></person></addressbook>")
//!     .unwrap();
//! let (merged, stats) = engine.integrate(&a, &b, "merged").unwrap();
//! assert_eq!(stats.judged_possible, 1); // one undecided person pair
//! let tel = engine.prepare("//person/tel").unwrap(); // parse once
//! let answers = tel.run(&engine.snapshot(&merged).unwrap()).unwrap();
//! assert!((answers.probability_of("1111") - 0.75).abs() < 1e-9);
//! // The user confirms 1111 is John's number:
//! engine.feedback(&merged, &tel, "1111", true).unwrap();
//! let after = tel.run(&engine.snapshot(&merged).unwrap()).unwrap();
//! assert!((after.probability_of("1111") - 1.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]

pub use imprecise_datagen as datagen;
pub use imprecise_feedback as feedback;
pub use imprecise_integrate as integrate;
pub use imprecise_oracle as oracle;
pub use imprecise_pxml as pxml;
pub use imprecise_quality as quality;
pub use imprecise_query as query;
pub use imprecise_sim as sim;
pub use imprecise_store as store;
pub use imprecise_xmlkit as xml;

pub mod engine;
pub mod error;

pub use engine::{
    DocHandle, DocSnapshot, DocStats, DurableEngineBuilder, Engine, EngineBuilder, PreparedQuery,
    RefineStateInfo,
};
pub use error::ImpreciseError;
pub use imprecise_store::{Durability, StoreError};
