//! Conversions between probabilistic and ordinary XML.
//!
//! * [`from_xml`] lifts a certain document into the probabilistic model
//!   (a root probability node with one possibility of probability 1).
//! * [`to_annotated_xml`] / [`parse_annotated`] round-trip a [`PxDoc`]
//!   through ordinary XML using reserved `px:prob` / `px:poss` elements —
//!   the on-disk/debug format of the reproduction, mirroring how IMPrECISE
//!   stored probabilistic documents inside a conventional XML DBMS.

use crate::node::{PxDoc, PxNodeId, PxNodeKind};
use imprecise_xmlkit::{NodeId as XmlNodeId, NodeKind as XmlNodeKind, XmlDoc, XmlError, XmlResult};

/// Reserved tag for probability nodes in the annotated encoding.
pub const PROB_TAG: &str = "px:prob";
/// Reserved tag for possibility nodes in the annotated encoding.
pub const POSS_TAG: &str = "px:poss";
/// Attribute holding a possibility's probability.
pub const PROB_ATTR: &str = "p";

/// Lift a certain XML document into the probabilistic model.
pub fn from_xml(doc: &XmlDoc) -> PxDoc {
    let mut px = PxDoc::new();
    let root = px.root();
    let poss = px.add_poss(root, 1.0);
    px.graft_xml(poss, doc, doc.root());
    px
}

/// Encode a probabilistic document as ordinary XML with `px:prob` /
/// `px:poss` marker elements. Probabilities are printed with Rust's
/// shortest-round-trip `f64` formatting, so [`parse_annotated`] recovers
/// them exactly.
pub fn to_annotated_xml(px: &PxDoc) -> XmlDoc {
    let mut doc = XmlDoc::new(PROB_TAG);
    let root = doc.root();
    for &poss in px.children(px.root()) {
        encode(px, poss, &mut doc, root);
    }
    doc
}

fn encode(px: &PxDoc, node: PxNodeId, doc: &mut XmlDoc, parent: XmlNodeId) {
    match px.kind(node) {
        PxNodeKind::Prob => {
            let el = doc.add_element(parent, PROB_TAG);
            for &c in px.children(node) {
                encode(px, c, doc, el);
            }
        }
        PxNodeKind::Poss => {
            let p = px.nodes.weight(node.index());
            let el = doc.add_element(parent, POSS_TAG);
            doc.set_attr(el, PROB_ATTR, format!("{p}"));
            for &c in px.children(node) {
                encode(px, c, doc, el);
            }
        }
        PxNodeKind::Elem { tag, attrs } => {
            let el = doc.add_element(parent, tag.clone());
            for a in attrs {
                doc.set_attr(el, a.name.clone(), a.value.clone());
            }
            for &c in px.children(node) {
                encode(px, c, doc, el);
            }
        }
        PxNodeKind::Text(t) => {
            doc.add_text(parent, t.clone());
        }
    }
}

/// Decode an annotated XML document produced by [`to_annotated_xml`].
///
/// If the root element is not `px:prob` the document is treated as certain
/// and lifted with [`from_xml`].
pub fn parse_annotated(doc: &XmlDoc) -> XmlResult<PxDoc> {
    if doc.tag(doc.root()) != Some(PROB_TAG) {
        return Ok(from_xml(doc));
    }
    let mut px = PxDoc::new();
    let root = px.root();
    for &c in doc.children(doc.root()) {
        decode_poss(doc, c, &mut px, root)?;
    }
    Ok(px)
}

fn decode_poss(doc: &XmlDoc, node: XmlNodeId, px: &mut PxDoc, prob: PxNodeId) -> XmlResult<()> {
    if doc.tag(node) != Some(POSS_TAG) {
        return Err(XmlError::BadDocumentStructure {
            message: format!(
                "child of {PROB_TAG} must be {POSS_TAG}, found {:?}",
                doc.tag(node)
            ),
        });
    }
    let p: f64 = doc
        .attr(node, PROB_ATTR)
        .ok_or_else(|| XmlError::BadDocumentStructure {
            message: format!("{POSS_TAG} is missing its '{PROB_ATTR}' attribute"),
        })?
        .parse()
        .map_err(|_| XmlError::BadDocumentStructure {
            message: format!("{POSS_TAG} has a non-numeric '{PROB_ATTR}' attribute"),
        })?;
    let poss = px.add_poss(prob, p);
    for &c in doc.children(node) {
        decode_regular(doc, c, px, poss)?;
    }
    Ok(())
}

fn decode_regular(
    doc: &XmlDoc,
    node: XmlNodeId,
    px: &mut PxDoc,
    parent: PxNodeId,
) -> XmlResult<()> {
    match doc.kind(node) {
        XmlNodeKind::Text(t) => {
            px.add_text(parent, t.clone());
            Ok(())
        }
        XmlNodeKind::Element { tag, attrs } => {
            if tag == PROB_TAG {
                let prob = px.add_prob(parent);
                for &c in doc.children(node) {
                    decode_poss(doc, c, px, prob)?;
                }
                Ok(())
            } else if tag == POSS_TAG {
                Err(XmlError::BadDocumentStructure {
                    message: format!("{POSS_TAG} outside a {PROB_TAG}"),
                })
            } else {
                let el = px.add_elem(parent, tag.clone());
                for a in attrs {
                    px.set_attr(el, a.name.clone(), a.value.clone());
                }
                for &c in doc.children(node) {
                    decode_regular(doc, c, px, el)?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::px_fingerprint;
    use imprecise_xmlkit::{parse, to_string};

    #[test]
    fn from_xml_is_certain() {
        let xml = parse("<catalog><movie><title>Jaws</title></movie></catalog>").unwrap();
        let px = from_xml(&xml);
        px.validate().unwrap();
        assert!(px.is_certain());
        assert_eq!(px.world_count(), 1);
        let worlds = px.worlds(10).unwrap();
        assert!(imprecise_xmlkit::deep_equal(&worlds[0].doc, &xml));
    }

    #[test]
    fn annotated_roundtrip_preserves_structure() {
        let px = crate::node::tests::fig2();
        let annotated = to_annotated_xml(&px);
        let decoded = parse_annotated(&annotated).unwrap();
        decoded.validate().unwrap();
        assert_eq!(
            px_fingerprint(&px, px.root()),
            px_fingerprint(&decoded, decoded.root())
        );
    }

    #[test]
    fn annotated_roundtrip_through_text() {
        let px = crate::node::tests::fig2();
        let text = to_string(&to_annotated_xml(&px));
        let reparsed = parse(&text).unwrap();
        let decoded = parse_annotated(&reparsed).unwrap();
        assert_eq!(
            px_fingerprint(&px, px.root()),
            px_fingerprint(&decoded, decoded.root())
        );
    }

    #[test]
    fn annotated_encoding_shape() {
        let mut px = PxDoc::new();
        let w = px.add_poss(px.root(), 1.0);
        let e = px.add_elem(w, "a");
        px.add_text(e, "x");
        let s = to_string(&to_annotated_xml(&px));
        assert_eq!(s, "<px:prob><px:poss p=\"1\"><a>x</a></px:poss></px:prob>");
    }

    #[test]
    fn plain_xml_decodes_as_certain() {
        let doc = parse("<a><b>x</b></a>").unwrap();
        let px = parse_annotated(&doc).unwrap();
        assert!(px.is_certain());
    }

    #[test]
    fn malformed_annotation_rejected() {
        // poss without p attribute.
        let doc = parse("<px:prob><px:poss><a/></px:poss></px:prob>").unwrap();
        assert!(parse_annotated(&doc).is_err());
        // Non-poss child of prob.
        let doc = parse("<px:prob><a/></px:prob>").unwrap();
        assert!(parse_annotated(&doc).is_err());
        // poss in regular content.
        let doc = parse("<px:prob><px:poss p=\"1\"><a><px:poss p=\"1\"/></a></px:poss></px:prob>")
            .unwrap();
        assert!(parse_annotated(&doc).is_err());
        // Non-numeric probability.
        let doc = parse("<px:prob><px:poss p=\"often\"><a/></px:poss></px:prob>").unwrap();
        assert!(parse_annotated(&doc).is_err());
    }

    #[test]
    fn probabilities_roundtrip_exactly() {
        let mut px = PxDoc::new();
        let w1 = px.add_poss(px.root(), 1.0 / 3.0);
        px.add_elem(w1, "a");
        let w2 = px.add_poss(px.root(), 2.0 / 3.0);
        px.add_elem(w2, "a");
        let decoded = parse_annotated(&to_annotated_xml(&px)).unwrap();
        let poss = decoded.possibilities(decoded.root());
        assert_eq!(poss[0].1, 1.0 / 3.0);
        assert_eq!(poss[1].1, 2.0 / 3.0);
    }
}
