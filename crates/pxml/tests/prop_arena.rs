//! Property test: the chunked copy-on-write arena behaves like a flat
//! vector of nodes.
//!
//! The reference is the representation the arena replaced: one `Vec` of
//! nodes, each carrying its possibility weight, edited in place. Random
//! sequences of every arena mutator (`add_*`, `set_poss_prob`,
//! `set_attr`, `detach`, `splice`, `reset_children`, `splice_scratch`,
//! `truncate_arena`, `compact`) run on both, starting from documents of
//! `CHUNK - 1`, `CHUNK` and `CHUNK + 1` slots so the edits cross chunk
//! boundaries. After every operation the document must encode to the
//! reference's bytes, and a clone taken before the operation must still
//! encode to the bytes it had then (a write never reaches a chunk another
//! version shares). After each sequence the fingerprint, `arena_stats`
//! and `deep_check` must agree with the reference's.

use imprecise_pxml::codec::{decode_doc, encode_doc, take_node_id, Reader};
use imprecise_pxml::{ArenaStats, PxDoc, PxNodeId};
use proptest::prelude::*;

#[derive(Debug, Clone, PartialEq)]
enum Kind {
    Prob,
    Poss(f64),
    Elem(String, Vec<(String, String)>),
    Text(String),
}

#[derive(Debug, Clone)]
struct Node {
    kind: Kind,
    parent: Option<u32>,
    children: Vec<u32>,
}

/// The flat reference arena.
#[derive(Debug, Clone)]
struct Model {
    nodes: Vec<Node>,
    root: u32,
}

impl Model {
    fn new() -> Self {
        Model {
            nodes: vec![Node {
                kind: Kind::Prob,
                parent: None,
                children: Vec::new(),
            }],
            root: 0,
        }
    }

    fn push(&mut self, parent: u32, kind: Kind) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(Node {
            kind,
            parent: Some(parent),
            children: Vec::new(),
        });
        self.nodes[parent as usize].children.push(id);
        id
    }

    fn detach(&mut self, child: u32) {
        if let Some(parent) = self.nodes[child as usize].parent {
            let list = &mut self.nodes[parent as usize].children;
            if let Some(pos) = list.iter().position(|&c| c == child) {
                list.remove(pos);
            }
            self.nodes[child as usize].parent = None;
        }
    }

    fn splice(&mut self, old: u32, replacements: &[u32]) {
        let parent = self.nodes[old as usize].parent.unwrap();
        let list = &mut self.nodes[parent as usize].children;
        let pos = list.iter().position(|&c| c == old).unwrap();
        list.splice(pos..=pos, replacements.iter().copied());
        self.nodes[old as usize].parent = None;
        for &r in replacements {
            self.nodes[r as usize].parent = Some(parent);
        }
    }

    fn reset_children(&mut self, parent: u32, children: Vec<u32>) {
        for c in std::mem::take(&mut self.nodes[parent as usize].children) {
            self.nodes[c as usize].parent = None;
        }
        for &c in &children {
            self.nodes[c as usize].parent = Some(parent);
        }
        self.nodes[parent as usize].children = children;
    }

    /// Append every non-root node of `scratch` with ids shifted by the
    /// arena length, its root's children under `parent`.
    fn splice_scratch(&mut self, parent: u32, scratch: &Model) {
        let base = self.nodes.len() as u32;
        let remap = |id: u32| base + id - 1;
        for node in &scratch.nodes[1..] {
            self.nodes.push(Node {
                kind: node.kind.clone(),
                parent: Some(match node.parent.unwrap() {
                    0 => parent,
                    p => remap(p),
                }),
                children: node.children.iter().map(|&c| remap(c)).collect(),
            });
        }
        let attached: Vec<u32> = scratch.nodes[0]
            .children
            .iter()
            .map(|&c| remap(c))
            .collect();
        self.nodes[parent as usize].children.extend(attached);
    }

    fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            seen[n as usize] = true;
            stack.extend(&self.nodes[n as usize].children);
        }
        seen
    }

    fn compact(&mut self) {
        let keep = self.reachable();
        let mut map = vec![None; self.nodes.len()];
        let mut next = 0u32;
        for (i, &k) in keep.iter().enumerate() {
            if k {
                map[i] = Some(next);
                next += 1;
            }
        }
        let old = std::mem::take(&mut self.nodes);
        self.nodes = old
            .into_iter()
            .enumerate()
            .filter(|&(i, _)| keep[i])
            .map(|(_, n)| Node {
                kind: n.kind,
                parent: n.parent.and_then(|p| map[p as usize]),
                children: n
                    .children
                    .iter()
                    .map(|&c| map[c as usize].unwrap())
                    .collect(),
            })
            .collect();
        self.root = map[self.root as usize].unwrap();
    }

    fn arena_stats(&self) -> ArenaStats {
        ArenaStats {
            live: self.reachable().iter().filter(|&&k| k).count(),
            total: self.nodes.len(),
        }
    }

    /// The arena codec's format, written from the flat nodes.
    fn encode(&self) -> Vec<u8> {
        fn put_str(out: &mut Vec<u8>, s: &str) {
            out.extend_from_slice(&(s.len() as u64).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        let mut out = Vec::new();
        out.extend_from_slice(&(self.nodes.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.root.to_le_bytes());
        for node in &self.nodes {
            match &node.kind {
                Kind::Prob => out.push(0),
                Kind::Poss(p) => {
                    out.push(1);
                    out.extend_from_slice(&p.to_bits().to_le_bytes());
                }
                Kind::Elem(tag, attrs) => {
                    out.push(2);
                    put_str(&mut out, tag);
                    out.extend_from_slice(&(attrs.len() as u64).to_le_bytes());
                    for (name, value) in attrs {
                        put_str(&mut out, name);
                        put_str(&mut out, value);
                    }
                }
                Kind::Text(t) => {
                    out.push(3);
                    put_str(&mut out, t);
                }
            }
            match node.parent {
                None => out.push(0),
                Some(p) => {
                    out.push(1);
                    out.extend_from_slice(&p.to_le_bytes());
                }
            }
            out.extend_from_slice(&(node.children.len() as u64).to_le_bytes());
            for &c in &node.children {
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
        out
    }

    fn is_ancestor_or_self(&self, maybe_ancestor: u32, mut node: u32) -> bool {
        loop {
            if node == maybe_ancestor {
                return true;
            }
            match self.nodes[node as usize].parent {
                Some(p) => node = p,
                None => return false,
            }
        }
    }

    /// The first node at or after `from` (cyclically) that `accept`s.
    fn find(&self, from: u32, accept: impl Fn(u32, &Node) -> bool) -> Option<u32> {
        let n = self.nodes.len() as u32;
        (0..n)
            .map(|k| (from % n + k) % n)
            .find(|&i| accept(i, &self.nodes[i as usize]))
    }
}

/// The document and its reference, edited in lockstep.
struct Pair {
    doc: PxDoc,
    model: Model,
}

/// The id of arena slot `i` (ids are raw slot indices; the codec's id
/// reader is the public way to name one).
fn id(i: u32) -> PxNodeId {
    take_node_id(&mut Reader::new(&i.to_le_bytes()), "slot id").expect("four bytes")
}

const WEIGHTS: [f64; 4] = [0.25, 0.5, 1.0 / 3.0, 1.0];
const TAGS: [&str; 3] = ["a", "b", "item"];

impl Pair {
    /// A document of exactly `len` slots: one certain world holding an
    /// element with `len - 3` text-element children and grandchildren.
    fn with_len(len: usize) -> Self {
        let mut pair = Pair {
            doc: PxDoc::new(),
            model: Model::new(),
        };
        let w = pair.add(0, Kind::Poss(1.0));
        let e = pair.add(w, Kind::Elem("doc".into(), Vec::new()));
        while pair.model.nodes.len() < len {
            let parent = if pair.model.nodes.len() % 2 == 1 {
                e
            } else {
                pair.model.nodes.len() as u32 - 1
            };
            let kind = if parent == e {
                Kind::Elem("item".into(), Vec::new())
            } else {
                Kind::Text(format!("t{}", pair.model.nodes.len()))
            };
            pair.add(parent, kind);
        }
        pair
    }

    /// Append a node of `kind` under `parent` on both sides.
    fn add(&mut self, parent: u32, kind: Kind) -> u32 {
        let p = id(parent);
        let new = match &kind {
            Kind::Prob => self.doc.add_prob(p),
            Kind::Poss(w) => self.doc.add_poss(p, *w),
            Kind::Elem(tag, _) => self.doc.add_elem(p, tag.clone()),
            Kind::Text(t) => self.doc.add_text(p, t.clone()),
        };
        let m = self.model.push(parent, kind);
        assert_eq!(new.index(), m as usize);
        m
    }

    /// Interpret one random operation against the current state. Choices
    /// that would break a mutator's documented preconditions (or build a
    /// cycle) are skipped.
    fn apply(&mut self, (op, a, b, c): (u8, u32, u32, u32)) {
        let m = &self.model;
        let is = |k: fn(&Kind) -> bool| move |_: u32, n: &Node| k(&n.kind);
        match op {
            0 => {
                if let Some(p) = m.find(a, is(|k| matches!(k, Kind::Elem(..) | Kind::Poss(_)))) {
                    self.add(p, Kind::Prob);
                }
            }
            1 => {
                if let Some(p) = m.find(a, is(|k| matches!(k, Kind::Prob))) {
                    self.add(p, Kind::Poss(WEIGHTS[b as usize % 4]));
                }
            }
            2 | 3 => {
                if let Some(p) = m.find(a, is(|k| matches!(k, Kind::Elem(..) | Kind::Poss(_)))) {
                    let kind = if op == 2 {
                        Kind::Elem(TAGS[b as usize % 3].into(), Vec::new())
                    } else {
                        Kind::Text(format!("x{}", b % 7))
                    };
                    self.add(p, kind);
                }
            }
            4 => {
                if let Some(n) = m.find(a, is(|k| matches!(k, Kind::Poss(_)))) {
                    let w = WEIGHTS[b as usize % 4];
                    self.doc.set_poss_prob(id(n), w);
                    self.model.nodes[n as usize].kind = Kind::Poss(w);
                }
            }
            5 => {
                if let Some(n) = m.find(a, is(|k| matches!(k, Kind::Elem(..)))) {
                    let (name, value) = (TAGS[b as usize % 3], format!("v{}", c % 3));
                    self.doc.set_attr(id(n), name, value.clone());
                    if let Kind::Elem(_, attrs) = &mut self.model.nodes[n as usize].kind {
                        match attrs.iter_mut().find(|(k, _)| k == name) {
                            Some(attr) => attr.1 = value,
                            None => attrs.push((name.into(), value)),
                        }
                    }
                }
            }
            6 => {
                if let Some(n) = m.find(a, |i, n| i != m.root && n.parent.is_some()) {
                    self.doc.detach(id(n));
                    self.model.detach(n);
                }
            }
            7 => {
                let Some(old) = m.find(a, |i, n| i != m.root && n.parent.is_some()) else {
                    return;
                };
                let parent = m.nodes[old as usize].parent.unwrap();
                let mut replacements = Vec::new();
                for k in 0..(b % 3) {
                    let pick = m.find(c.wrapping_add(k * 7919), |i, n| {
                        n.parent.is_none()
                            && i != m.root
                            && !replacements.contains(&i)
                            && !m.is_ancestor_or_self(i, parent)
                    });
                    replacements.extend(pick);
                }
                let ids: Vec<PxNodeId> = replacements.iter().map(|&r| id(r)).collect();
                self.doc.splice(id(old), &ids);
                self.model.splice(old, &replacements);
            }
            8 => {
                let Some(parent) = m.find(a, |_, n| !n.children.is_empty() || n.parent.is_some())
                else {
                    return;
                };
                // Some of the current children, rotated, plus up to two
                // detached nodes that are not the parent's ancestors.
                let old = &m.nodes[parent as usize].children;
                let mut children: Vec<u32> = old
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|&(i, _)| (b >> (i % 32)) & 1 == 1)
                    .map(|(_, c)| c)
                    .collect();
                if !children.is_empty() {
                    let k = c as usize % children.len();
                    children.rotate_left(k);
                }
                for k in 0..(c % 3) {
                    let pick = m.find(b.wrapping_add(k * 104_729), |i, n| {
                        n.parent.is_none()
                            && i != m.root
                            && !children.contains(&i)
                            && !m.is_ancestor_or_self(i, parent)
                    });
                    children.extend(pick);
                }
                let ids: Vec<PxNodeId> = children.iter().map(|&c| id(c)).collect();
                self.doc.reset_children(id(parent), ids);
                self.model.reset_children(parent, children);
            }
            9 => {
                let Some(parent) = m.find(a, is(|k| matches!(k, Kind::Prob))) else {
                    return;
                };
                // A scratch document: possibilities under its root, each
                // holding an element with a text child.
                let mut scratch = PxDoc::new();
                let mut scratch_model = Model::new();
                for k in 0..=(b % 3) {
                    let w = WEIGHTS[(c as usize + k as usize) % 4];
                    let poss = scratch.add_poss(scratch.root(), w);
                    let e = scratch.add_text_elem(poss, "new", format!("s{k}"));
                    let mp = scratch_model.push(0, Kind::Poss(w));
                    let me = scratch_model.push(mp, Kind::Elem("new".into(), Vec::new()));
                    scratch_model.push(me, Kind::Text(format!("s{k}")));
                    assert_eq!((poss.index(), e.index()), (mp as usize, me as usize));
                }
                self.doc.splice_scratch(id(parent), scratch);
                self.model.splice_scratch(parent, &scratch_model);
            }
            10 => {
                // Refine's rollback: append a subtree, detach it, truncate
                // back to the mark taken before it.
                let Some(p) = m.find(a, is(|k| matches!(k, Kind::Elem(..) | Kind::Poss(_)))) else {
                    return;
                };
                let mark = m.nodes.len();
                let x = self.add(p, Kind::Elem("tmp".into(), Vec::new()));
                for k in 0..(b % 4) {
                    self.add(x, Kind::Text(format!("r{k}")));
                }
                self.doc.detach(id(x));
                self.model.detach(x);
                self.doc.truncate_arena(mark);
                self.model.nodes.truncate(mark);
            }
            11 => {
                // Truncate to the largest mark no surviving node links past.
                let len = m.nodes.len();
                let target = 1 + a as usize % len;
                let ok = |mark: usize| {
                    m.nodes[..mark].iter().all(|n| {
                        n.parent.is_none_or(|p| (p as usize) < mark)
                            && n.children.iter().all(|&c| (c as usize) < mark)
                    })
                };
                if let Some(mark) = (1..=target).rev().find(|&mark| ok(mark)) {
                    if mark < len {
                        self.doc.truncate_arena(mark);
                        self.model.nodes.truncate(mark);
                    }
                }
            }
            _ => {
                self.doc.compact();
                self.model.compact();
            }
        }
    }
}

fn encoded(doc: &PxDoc) -> Vec<u8> {
    let mut out = Vec::new();
    encode_doc(doc, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn chunked_arena_matches_a_flat_reference(
        size in 0usize..3,
        ops in proptest::collection::vec((0u8..13, 0u32..u32::MAX, 0u32..u32::MAX, 0u32..u32::MAX), 1..40),
    ) {
        let len = PxDoc::CHUNK - 1 + size;
        let mut pair = Pair::with_len(len);
        prop_assert_eq!(pair.doc.arena_len(), len);
        for (step, &op) in ops.iter().enumerate() {
            let before = pair.doc.clone();
            let before_bytes = encoded(&before);
            pair.apply(op);
            prop_assert!(encoded(&pair.doc) == pair.model.encode(), "step {step} {op:?}: bytes differ");
            prop_assert!(encoded(&before) == before_bytes, "step {step} {op:?}: a write reached a shared chunk");
        }
        let bytes = pair.model.encode();
        let mut r = Reader::new(&bytes);
        let reference = decode_doc(&mut r).expect("reference bytes decode");
        prop_assert_eq!(pair.doc.fingerprint(), reference.fingerprint());
        prop_assert_eq!(pair.doc.arena_stats(), pair.model.arena_stats());
        prop_assert_eq!(pair.doc.deep_check(), reference.deep_check());
    }
}
