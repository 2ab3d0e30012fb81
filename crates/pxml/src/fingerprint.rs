//! Structural fingerprints of probabilistic XML subtrees.
//!
//! Used by simplification (merging deep-equal possibilities) and by tests
//! that compare world multisets.

use crate::node::{PxDoc, PxNodeId, PxNodeKind};

/// A 64-bit structural fingerprint of the px subtree rooted at `node`.
///
/// Deep-equal subtrees (same structure, tags, attribute sets, text and
/// bit-identical possibility probabilities) hash equal; differing subtrees
/// collide only with hash probability.
pub fn px_fingerprint(doc: &PxDoc, node: PxNodeId) -> u64 {
    let mut h = Fnv1a::new();
    hash_node(doc, node, true, &mut h);
    h.finish()
}

impl PxDoc {
    /// The whole document's structural fingerprint
    /// ([`px_fingerprint`] at the root): equal fingerprints mean
    /// bit-identical distributions, which is how the budgeted
    /// integration pipeline is checked against the exhaustive one.
    pub fn fingerprint(&self) -> u64 {
        px_fingerprint(self, self.root())
    }
}

/// Fingerprint of a possibility's *content* — its child sequence — ignoring
/// the possibility's own probability. Two possibilities with equal content
/// fingerprints are candidates for merging (their probabilities add).
pub fn poss_content_fingerprint(doc: &PxDoc, poss: PxNodeId) -> u64 {
    debug_assert!(doc.is_poss(poss));
    let mut h = Fnv1a::new();
    for &c in doc.children(poss) {
        hash_node(doc, c, true, &mut h);
    }
    h.finish()
}

fn hash_node(doc: &PxDoc, node: PxNodeId, include_poss_prob: bool, h: &mut Fnv1a) {
    match doc.kind(node) {
        PxNodeKind::Text(t) => {
            h.write_u8(0x11);
            h.write_str(t);
        }
        PxNodeKind::Elem { tag, attrs } => {
            h.write_u8(0x12);
            h.write_str(tag);
            if !attrs.is_empty() {
                let mut sorted: Vec<_> = attrs
                    .iter()
                    .map(|a| (a.name.as_str(), a.value.as_str()))
                    .collect();
                sorted.sort_unstable();
                for (n, v) in sorted {
                    h.write_u8(0x13);
                    h.write_str(n);
                    h.write_u8(0x14);
                    h.write_str(v);
                }
            }
            h.write_u8(0x15);
            for &c in doc.children(node) {
                hash_node(doc, c, include_poss_prob, h);
            }
            h.write_u8(0x16);
        }
        PxNodeKind::Prob => {
            h.write_u8(0x17);
            for &c in doc.children(node) {
                hash_node(doc, c, include_poss_prob, h);
            }
            h.write_u8(0x18);
        }
        PxNodeKind::Poss => {
            h.write_u8(0x19);
            if include_poss_prob {
                h.write_u64(doc.nodes.weight(node.index()).to_bits());
            }
            for &c in doc.children(node) {
                hash_node(doc, c, include_poss_prob, h);
            }
            h.write_u8(0x1A);
        }
    }
}

/// Structural deep-equality of two px subtrees, possibly from different
/// documents. Same semantics as the fingerprint: attribute order is
/// ignored, child order and possibility probabilities matter.
pub fn px_deep_equal(da: &PxDoc, a: PxNodeId, db: &PxDoc, b: PxNodeId) -> bool {
    match (da.kind(a), db.kind(b)) {
        (PxNodeKind::Text(ta), PxNodeKind::Text(tb)) => ta == tb,
        (PxNodeKind::Prob, PxNodeKind::Prob) => children_equal(da, a, db, b),
        (PxNodeKind::Poss, PxNodeKind::Poss) => {
            da.nodes.weight(a.index()) == db.nodes.weight(b.index()) && children_equal(da, a, db, b)
        }
        (
            PxNodeKind::Elem {
                tag: tag_a,
                attrs: attrs_a,
            },
            PxNodeKind::Elem {
                tag: tag_b,
                attrs: attrs_b,
            },
        ) => {
            if tag_a != tag_b || attrs_a.len() != attrs_b.len() {
                return false;
            }
            for attr in attrs_a {
                match attrs_b.iter().find(|x| x.name == attr.name) {
                    Some(other) if other.value == attr.value => {}
                    _ => return false,
                }
            }
            children_equal(da, a, db, b)
        }
        _ => false,
    }
}

fn children_equal(da: &PxDoc, a: PxNodeId, db: &PxDoc, b: PxNodeId) -> bool {
    let ca = da.children(a);
    let cb = db.children(b);
    ca.len() == cb.len()
        && ca
            .iter()
            .zip(cb.iter())
            .all(|(&x, &y)| px_deep_equal(da, x, db, y))
}

struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    #[inline]
    fn write_u8(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    #[inline]
    fn write_str(&mut self, s: &str) {
        for &b in s.as_bytes() {
            self.write_u8(b);
        }
        self.write_u8(0x00);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::PxDoc;

    fn two_poss_doc(p1: f64, text1: &str, p2: f64, text2: &str) -> PxDoc {
        let mut px = PxDoc::new();
        let a = px.add_poss(px.root(), p1);
        let ea = px.add_elem(a, "doc");
        px.add_text(ea, text1.to_string());
        let b = px.add_poss(px.root(), p2);
        let eb = px.add_elem(b, "doc");
        px.add_text(eb, text2.to_string());
        px
    }

    #[test]
    fn identical_trees_hash_equal() {
        let a = two_poss_doc(0.5, "x", 0.5, "y");
        let b = two_poss_doc(0.5, "x", 0.5, "y");
        assert_eq!(px_fingerprint(&a, a.root()), px_fingerprint(&b, b.root()));
    }

    #[test]
    fn probability_changes_fingerprint() {
        let a = two_poss_doc(0.5, "x", 0.5, "y");
        let b = two_poss_doc(0.4, "x", 0.6, "y");
        assert_ne!(px_fingerprint(&a, a.root()), px_fingerprint(&b, b.root()));
    }

    #[test]
    fn content_changes_fingerprint() {
        let a = two_poss_doc(0.5, "x", 0.5, "y");
        let b = two_poss_doc(0.5, "x", 0.5, "z");
        assert_ne!(px_fingerprint(&a, a.root()), px_fingerprint(&b, b.root()));
    }

    #[test]
    fn poss_content_fingerprint_ignores_weight() {
        let a = two_poss_doc(0.3, "same", 0.7, "same");
        let kids = a.children(a.root()).to_vec();
        assert_eq!(
            poss_content_fingerprint(&a, kids[0]),
            poss_content_fingerprint(&a, kids[1])
        );
    }

    #[test]
    fn poss_content_fingerprint_sees_content() {
        let a = two_poss_doc(0.5, "x", 0.5, "y");
        let kids = a.children(a.root()).to_vec();
        assert_ne!(
            poss_content_fingerprint(&a, kids[0]),
            poss_content_fingerprint(&a, kids[1])
        );
    }
}
