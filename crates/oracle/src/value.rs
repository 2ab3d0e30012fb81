//! Value extraction from (possibly probabilistic) elements.
//!
//! Rules compare *values* (a movie's title, a person's phone number).
//! During incremental integration an element may already carry uncertainty
//! from a previous integration round — e.g. an uncertain `year`. A rule
//! confronted with an uncertain value must not pretend to certainty, so
//! lookups distinguish [`ValueLookup::Uncertain`] from a missing or a
//! certainly-known value; rules abstain on `Uncertain` and the prior takes
//! over.

use imprecise_pxml::{PxDoc, PxNodeId};
use std::borrow::Cow;

/// A borrowed reference to one element inside a probabilistic document.
#[derive(Clone, Copy)]
pub struct ElemRef<'a> {
    /// The document.
    pub doc: &'a PxDoc,
    /// The element node (must be [`imprecise_pxml::PxNodeKind::Elem`]).
    pub node: PxNodeId,
}

/// Result of looking up a value beneath an element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValueLookup {
    /// No such child exists (certainly).
    Missing,
    /// The child (or part of the path to it) sits under a choice point, so
    /// its value differs between worlds.
    Uncertain,
    /// The child exists certainly and has this text value.
    Value(String),
}

impl ValueLookup {
    /// The certain value, if any.
    pub fn as_value(&self) -> Option<&str> {
        match self {
            ValueLookup::Value(v) => Some(v),
            _ => None,
        }
    }
}

impl<'a> ElemRef<'a> {
    /// Tag of the referenced element.
    pub fn tag(&self) -> &'a str {
        self.doc
            .tag(self.node)
            // lint:allow(expect-in-lib, holds by construction: ElemRef points at an element)
            .expect("ElemRef points at an element")
    }

    /// The element's own text content, if it is certain (no descendant
    /// choice points); [`ValueLookup::Uncertain`] otherwise.
    pub fn own_text(&self) -> ValueLookup {
        if subtree_has_choice(self.doc, self.node) {
            ValueLookup::Uncertain
        } else {
            ValueLookup::Value(self.doc.certain_text(self.node))
        }
    }

    /// Look up the text of the child element reached by a slash-separated
    /// tag path (e.g. `"title"` or `"info/year"`).
    ///
    /// Returns `Missing` if a step has no certain match, `Uncertain` when a
    /// step (or the final value) is under a choice point, and `Value`
    /// otherwise. Multiple certain children with the same tag resolve to
    /// the first, matching the behaviour of the paper's XQuery rules.
    pub fn value_at(&self, path: &str) -> ValueLookup {
        let mut cur = self.node;
        for step in path.split('/').filter(|s| !s.is_empty()) {
            // Is any choice point among the children that could contribute
            // an element with this tag?
            let mut found: Option<PxNodeId> = None;
            let mut uncertain = false;
            for &c in self.doc.children(cur) {
                if self.doc.is_prob(c) {
                    if prob_can_contain_tag(self.doc, c, step) {
                        uncertain = true;
                    }
                } else if self.doc.tag(c) == Some(step) && found.is_none() {
                    found = Some(c);
                }
            }
            match found {
                Some(next) => cur = next,
                None => {
                    return if uncertain {
                        ValueLookup::Uncertain
                    } else {
                        ValueLookup::Missing
                    }
                }
            }
        }
        if subtree_has_choice(self.doc, cur) {
            ValueLookup::Uncertain
        } else {
            ValueLookup::Value(self.doc.certain_text(cur))
        }
    }

    /// All *certain* child elements with the given tag.
    pub fn certain_children(&self, tag: &str) -> Vec<PxNodeId> {
        self.doc
            .children(self.node)
            .iter()
            .copied()
            .filter(|&c| self.doc.tag(c) == Some(tag))
            .collect()
    }

    /// The set of values the element at `path` can take *across worlds*.
    ///
    /// Unlike [`ElemRef::value_at`], this looks through choice points: an
    /// element whose title became a conflict choice in an earlier
    /// integration round still yields its (small) set of possible titles,
    /// letting rules make absolute decisions whenever **every** possible
    /// value leads to the same verdict (e.g. "Alien" is dissimilar to all
    /// title variants of a merged Mission: Impossible entry).
    ///
    /// Returns [`PossibleValues::Values`] only when the element is present
    /// in *every* world (else a rule deciding "non-match in all worlds"
    /// would be unsound); [`PossibleValues::Unknown`] when presence cannot
    /// be guaranteed or more than `cap` variants exist.
    ///
    /// A value held by one text node is borrowed from the document; only
    /// values assembled from several nodes are owned.
    pub fn possible_values_at(&self, path: &str, cap: usize) -> PossibleValues<'a> {
        let mut frontier: Vec<PxNodeId> = vec![self.node];
        let mut covered = true;
        for step in path.split('/').filter(|s| !s.is_empty()) {
            let mut next: Vec<PxNodeId> = Vec::new();
            let mut possible_somewhere = false;
            for &node in &frontier {
                let mut guaranteed_here = false;
                for &c in self.doc.children(node) {
                    if self.doc.tag(c) == Some(step) {
                        next.push(c);
                        guaranteed_here = true;
                    } else if self.doc.is_prob(c) {
                        let mut all_poss_have = !self.doc.children(c).is_empty();
                        for &poss in self.doc.children(c) {
                            let mut this_poss_has = false;
                            for &pc in self.doc.children(poss) {
                                if self.doc.tag(pc) == Some(step) {
                                    next.push(pc);
                                    this_poss_has = true;
                                }
                            }
                            all_poss_have &= this_poss_has;
                        }
                        guaranteed_here |= all_poss_have;
                    }
                }
                possible_somewhere |= guaranteed_here || !next.is_empty();
                covered &= guaranteed_here;
            }
            if next.is_empty() {
                return if possible_somewhere {
                    PossibleValues::Unknown
                } else {
                    PossibleValues::Missing
                };
            }
            frontier = next;
        }
        let mut values: Vec<Cow<'a, str>> = Vec::new();
        for node in frontier {
            match possible_texts(self.doc, node, cap) {
                Some(texts) => {
                    for t in texts {
                        if !values.contains(&t) {
                            values.push(t);
                        }
                    }
                }
                None => return PossibleValues::Unknown,
            }
            if values.len() > cap {
                return PossibleValues::Unknown;
            }
        }
        if covered {
            PossibleValues::Values(values)
        } else {
            PossibleValues::Unknown
        }
    }

    /// The set of text values this element itself can take across worlds,
    /// or `None` when more than `cap` variants exist. Borrowed as in
    /// [`ElemRef::possible_values_at`].
    pub fn possible_own_texts(&self, cap: usize) -> Option<Vec<Cow<'a, str>>> {
        possible_texts(self.doc, self.node, cap)
    }
}

/// Result of a choice-aware value lookup ([`ElemRef::possible_values_at`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PossibleValues<'a> {
    /// The element certainly does not exist (in any world).
    Missing,
    /// Presence or value set could not be bounded — rules must abstain.
    Unknown,
    /// The element exists in every world; its value is always one of
    /// these (deduplicated, in discovery order).
    Values(Vec<Cow<'a, str>>),
}

/// All possible string values of `node`'s subtree: the cross product of
/// its children's variants, with choice points contributing one variant
/// per possibility. `None` when more than `cap` variants accumulate.
/// A variant that one text node spells out is borrowed from `doc`.
fn possible_texts(doc: &PxDoc, node: PxNodeId, cap: usize) -> Option<Vec<Cow<'_, str>>> {
    use imprecise_pxml::PxNodeKind;
    match doc.kind(node) {
        PxNodeKind::Text(t) => Some(vec![Cow::Borrowed(t.as_str())]),
        PxNodeKind::Elem { .. } | PxNodeKind::Poss => {
            let mut acc: Vec<Cow<'_, str>> = vec![Cow::Borrowed("")];
            for &c in doc.children(node) {
                let parts = possible_texts(doc, c, cap)?;
                if let [part] = parts.as_slice() {
                    for a in &mut acc {
                        if a.is_empty() {
                            *a = part.clone();
                        } else {
                            a.to_mut().push_str(part);
                        }
                    }
                    continue;
                }
                let mut next = Vec::with_capacity(acc.len() * parts.len());
                for a in &acc {
                    for p in &parts {
                        next.push(Cow::Owned(format!("{a}{p}")));
                    }
                }
                if next.len() > cap {
                    return None;
                }
                acc = next;
            }
            Some(acc)
        }
        PxNodeKind::Prob => {
            let mut out: Vec<Cow<'_, str>> = Vec::new();
            for &poss in doc.children(node) {
                for v in possible_texts(doc, poss, cap)? {
                    if !out.contains(&v) {
                        out.push(v);
                    }
                }
                if out.len() > cap {
                    return None;
                }
            }
            Some(out)
        }
    }
}

/// Does any possibility of `prob` contain a top-level element with `tag`?
fn prob_can_contain_tag(doc: &PxDoc, prob: PxNodeId, tag: &str) -> bool {
    doc.children(prob)
        .iter()
        .any(|&poss| doc.children(poss).iter().any(|&c| doc.tag(c) == Some(tag)))
}

/// Does the subtree under `node` contain any probability node?
pub(crate) fn subtree_has_choice(doc: &PxDoc, node: PxNodeId) -> bool {
    doc.descendants(node).any(|n| doc.is_prob(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use imprecise_pxml::from_xml;
    use imprecise_xmlkit::parse;

    fn movie_ref(doc: &PxDoc) -> ElemRef<'_> {
        let poss = doc.children(doc.root())[0];
        ElemRef {
            doc,
            node: doc.children(poss)[0],
        }
    }

    #[test]
    fn certain_value_lookup() {
        let px = from_xml(
            &parse("<movie><title>Jaws</title><info><year>1975</year></info></movie>").unwrap(),
        );
        let m = movie_ref(&px);
        assert_eq!(m.tag(), "movie");
        assert_eq!(m.value_at("title"), ValueLookup::Value("Jaws".into()));
        assert_eq!(m.value_at("info/year"), ValueLookup::Value("1975".into()));
        assert_eq!(m.value_at("rating"), ValueLookup::Missing);
        assert_eq!(m.value_at("info/rating"), ValueLookup::Missing);
    }

    #[test]
    fn uncertain_value_detected() {
        // movie with an uncertain year: a prob child offering two years.
        let mut px = from_xml(&parse("<movie><title>Jaws</title></movie>").unwrap());
        let poss = px.children(px.root())[0];
        let movie = px.children(poss)[0];
        let choice = px.add_prob(movie);
        let a = px.add_poss(choice, 0.5);
        px.add_text_elem(a, "year", "1975");
        let b = px.add_poss(choice, 0.5);
        px.add_text_elem(b, "year", "1976");
        let m = ElemRef {
            doc: &px,
            node: movie,
        };
        assert_eq!(m.value_at("year"), ValueLookup::Uncertain);
        // Title is still certain.
        assert_eq!(m.value_at("title"), ValueLookup::Value("Jaws".into()));
        // The movie's own text is uncertain (contains a choice).
        assert_eq!(m.own_text(), ValueLookup::Uncertain);
    }

    #[test]
    fn missing_vs_uncertain_distinction() {
        // Choice offers a director in one possibility only.
        let mut px = from_xml(&parse("<movie><title>Jaws</title></movie>").unwrap());
        let poss = px.children(px.root())[0];
        let movie = px.children(poss)[0];
        let choice = px.add_prob(movie);
        let with = px.add_poss(choice, 0.5);
        px.add_text_elem(with, "director", "Spielberg");
        let _without = px.add_poss(choice, 0.5);
        let m = ElemRef {
            doc: &px,
            node: movie,
        };
        assert_eq!(m.value_at("director"), ValueLookup::Uncertain);
        assert_eq!(m.value_at("writer"), ValueLookup::Missing);
    }

    #[test]
    fn first_of_multiple_children_wins() {
        let px = from_xml(
            &parse("<movie><genre>Horror</genre><genre>Thriller</genre></movie>").unwrap(),
        );
        let m = movie_ref(&px);
        assert_eq!(m.value_at("genre"), ValueLookup::Value("Horror".into()));
        assert_eq!(m.certain_children("genre").len(), 2);
    }

    #[test]
    fn own_text_concatenates_certain_content() {
        let px = from_xml(&parse("<g>Horror</g>").unwrap());
        let m = movie_ref(&px);
        assert_eq!(m.own_text(), ValueLookup::Value("Horror".into()));
    }

    #[test]
    fn possible_values_borrow_single_text_nodes() {
        let px = from_xml(
            &parse("<movie><title>Jaws</title><title/><genre>Jaws<b>2</b></genre></movie>")
                .unwrap(),
        );
        let m = movie_ref(&px);
        let PossibleValues::Values(titles) = m.possible_values_at("title", 8) else {
            panic!("titles are certain");
        };
        assert_eq!(titles, ["Jaws", ""]);
        assert!(titles.iter().all(|t| matches!(t, Cow::Borrowed(_))));
        let PossibleValues::Values(genres) = m.possible_values_at("genre", 8) else {
            panic!("the genre is certain");
        };
        assert_eq!(genres, ["Jaws2"]);
        assert!(matches!(genres[0], Cow::Owned(_)), "assembled from two nodes");
    }
}
