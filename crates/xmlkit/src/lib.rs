//! # imprecise-xmlkit — XML substrate for IMPrECISE
//!
//! The IMPrECISE paper (ICDE 2008) implements probabilistic data integration
//! as an XQuery module on top of the MonetDB/XQuery DBMS. This crate is the
//! corresponding substrate of the reproduction: a small, dependency-free,
//! in-memory XML toolkit providing exactly what the probabilistic layers
//! need:
//!
//! * a tokenizing [`parser`] for data-centric XML 1.0 documents
//!   (elements, attributes, text, comments, CDATA, character/entity
//!   references, and an optional internal DTD subset),
//! * an arena-based DOM ([`doc::XmlDoc`]) with cheap [`doc::NodeId`] handles,
//! * a [`serialize`] module (compact and pretty-printed output),
//! * structural [`eq`]uality and subtree hashing (the paper's *deep-equal*
//!   generic rule is built on this),
//! * a DTD-lite [`schema`] describing per-tag child cardinalities — the
//!   semantic knowledge the paper uses to reject impossible possibilities
//!   ("the DTD specified that persons only have one phone number").
//!
//! The toolkit is deliberately small and predictable rather than a general
//! XML library: namespaces, processing instructions and DOCTYPE external
//! subsets are out of scope for the reproduction (the paper's movie and
//! address-book documents use none of them).
//!
//! ## Quick example
//!
//! ```
//! use imprecise_xmlkit::{parse, serialize::to_string};
//!
//! let doc = parse("<addressbook><person><nm>John</nm></person></addressbook>").unwrap();
//! let root = doc.root();
//! assert_eq!(doc.tag(root), Some("addressbook"));
//! assert_eq!(to_string(&doc), "<addressbook><person><nm>John</nm></person></addressbook>");
//! ```

#![forbid(unsafe_code)]

pub mod doc;
pub mod eq;
pub mod error;
pub mod escape;
pub mod parser;
pub mod path;
pub mod schema;
pub mod serialize;

pub use doc::{Attr, NodeId, NodeKind, XmlDoc};
pub use eq::{deep_equal, deep_equal_nodes, subtree_fingerprint};
pub use error::{XmlError, XmlResult};
pub use parser::{parse, parse_with_options, ParseOptions};
pub use schema::{Cardinality, ContentModel, Schema};
pub use serialize::{to_pretty_string, to_string};
