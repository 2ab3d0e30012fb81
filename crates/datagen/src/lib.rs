//! # imprecise-datagen — synthetic corpora for the paper's experiments
//!
//! The paper evaluates on movie metadata from IMDB and an MPEG-7 document
//! (§V) — proprietary snapshots that were never published. This crate
//! generates the closest synthetic equivalents: movie catalogs with the
//! *structure of confusion* the paper describes —
//!
//! * franchises with sequels and TV variants ("Mission: Impossible",
//!   "Mission: Impossible II", "Impossible Mission (TV)"),
//! * per-source conventions that make values "never match exactly":
//!   IMDB-style `"McTiernan, John"` vs MPEG-7-style `"John McTiernan"`,
//!   roman vs arabic sequel numbers, genre capitalisation,
//! * controlled real-world-object (rwo) overlap between the two sources.
//!
//! [`scenarios`] builds the exact workload of every table and figure; the
//! generators themselves are deterministic (seeded) so experiments
//! reproduce bit-for-bit.

#![forbid(unsafe_code)]

pub mod addressbook;
pub mod movies;
pub mod scenarios;

pub use movies::{
    catalog_to_xml, movie_schema, movie_schema_text, Movie, MovieBuilder, SourceStyle,
};
pub use scenarios::{MovieScenario, ScenarioInfo};
