//! The merge stage of the integration pipeline: walks both sources in
//! lockstep, consults the Oracle (stage 1: candidate generation, judged
//! row by row whether or not blocking pruned the rows), and assembles the
//! output document from the per-component [`ComponentOutcome`]s the
//! pipeline hands back (stages 2–3 live in [`crate::pipeline`]; this
//! layer is agnostic to how — or on how many threads — the matchings
//! were produced).
//!
//! A child list that holds choice points (an already-probabilistic
//! input) is integrated once per local world, as enumerated by
//! [`PxDoc::local_alternatives`].

use crate::matching::{Candidate, Component, Matching};
use crate::pipeline::{self, CandidateSet, ComponentOutcome, DocFrontier};
use crate::{
    BlockingMode, IntegrateError, IntegrationOptions, IntegrationStats, TruncatedComponent,
};
use imprecise_oracle::{Decision, ElemRef, Judgment, Oracle};
use imprecise_pxml::{px_deep_equal, PxDoc, PxNodeId, TooManyWorlds};
use imprecise_xmlkit::{Attr, Schema};
use std::collections::HashMap;

/// A tag group's identity for the blocking cache: the two sides'
/// element lists in document order.
type GroupKey = (Vec<PxNodeId>, Vec<PxNodeId>);

/// The local alternatives of an item list, with their probabilities.
type Alternatives = Vec<(Vec<PxNodeId>, f64)>;

pub(crate) struct Builder<'a> {
    a: &'a PxDoc,
    b: &'a PxDoc,
    oracle: &'a Oracle,
    schema: Option<&'a Schema>,
    opts: &'a IntegrationOptions,
    out: PxDoc,
    /// Arena slots the output document already holds elsewhere when
    /// `out` is a scratch arena (see [`Builder::scratch`]); counted into
    /// the size guard so scratch emission respects the same
    /// `max_output_nodes` cap as direct emission.
    arena_base: usize,
    /// Normalised source weights.
    w_a: f64,
    w_b: f64,
    /// Judgment cache: the same element pair is judged once even when it
    /// participates in thousands of enumerated matchings.
    judgments: HashMap<(PxNodeId, PxNodeId), Decision>,
    /// Blocking cache: one tag group is blocked once even though
    /// `integrate_group` re-runs for it per enumerated local world, so
    /// the pruned/windowed counters tally unique pairs exactly like
    /// `pairs_judged` tallies unique judgments.
    blocked_groups: HashMap<GroupKey, Vec<(usize, usize)>>,
    /// Element-tag stack from the root to the pair currently being
    /// merged; tag groups report their position as
    /// `/<stack>/<group tag>` in errors and truncation records.
    path: Vec<String>,
    stats: IntegrationStats,
    /// Resumable truncation sites collected during emission: one per
    /// truncated component, pointing at its output probability node.
    frontiers: Vec<DocFrontier>,
}

impl<'a> Builder<'a> {
    pub(crate) fn new(
        a: &'a PxDoc,
        b: &'a PxDoc,
        oracle: &'a Oracle,
        schema: Option<&'a Schema>,
        opts: &'a IntegrationOptions,
    ) -> Self {
        let (ra, rb) = opts.source_weights;
        let total = ra + rb;
        let (w_a, w_b) = if total > 0.0 {
            (ra / total, rb / total)
        } else {
            (0.5, 0.5)
        };
        Builder {
            a,
            b,
            oracle,
            schema,
            opts,
            out: PxDoc::new(),
            arena_base: 0,
            w_a,
            w_b,
            judgments: HashMap::new(),
            blocked_groups: HashMap::new(),
            path: Vec::new(),
            stats: IntegrationStats::default(),
            frontiers: Vec::new(),
        }
    }

    /// A builder emitting into a fresh *scratch* arena, for refinement:
    /// [`emit_new_possibilities`](Self::emit_new_possibilities) appends
    /// a resumed component's delta subtrees here, and the caller grafts
    /// them back into the real document in deterministic order. Scratch
    /// emission touches nothing shared, so refined components fan out
    /// over threads exactly like enumeration does. `a` and `b` must be
    /// the sources the document was integrated from; `arena_base` is the
    /// real document's current arena size, counted into the output-size
    /// guard.
    pub(crate) fn scratch(
        a: &'a PxDoc,
        b: &'a PxDoc,
        oracle: &'a Oracle,
        schema: Option<&'a Schema>,
        opts: &'a IntegrationOptions,
        arena_base: usize,
    ) -> Self {
        let mut builder = Builder::new(a, b, oracle, schema, opts);
        builder.arena_base = arena_base;
        builder
    }

    /// Emit the *new* possibility subtrees of a resumed component — the
    /// canonical entries flagged in `is_new` — as children of the
    /// scratch root, in canonical order, each with its final (already
    /// renormalised) weight. Returns the scratch possibility ids in
    /// emission order. Tag groups truncated *inside* the new subtrees
    /// record frontiers on this builder, with scratch-relative node ids
    /// the caller re-anchors when grafting.
    ///
    /// This is the append-only half of refinement: previously emitted
    /// possibilities stay where they are in the real document (the
    /// caller only rescales their weights in place), so a refine step
    /// costs the *delta* emission, not the whole growing kept set.
    pub(crate) fn emit_new_possibilities(
        &mut self,
        site: &DocFrontier,
        matchings: &[Matching],
        is_new: &[bool],
    ) -> Result<Vec<PxNodeId>, IntegrateError> {
        // Seed the element-tag stack from the frontier's recorded path
        // (minus the group tag itself, which `merge_pair` pushes), so
        // nested truncation records carry the same paths as the
        // original emission.
        self.path = site
            .path()
            .split('/')
            .filter(|s| !s.is_empty())
            .map(String::from)
            .collect();
        self.path.pop();
        let root = self.out.root();
        let (ga, gb) = site.groups();
        let mut new_poss = Vec::with_capacity(is_new.iter().filter(|&&n| n).count());
        for (m, &fresh) in matchings.iter().zip(is_new) {
            if !fresh {
                continue;
            }
            self.guard_size()?;
            let poss = self.out.add_poss(root, m.weight);
            self.emit_matching(poss, ga, gb, site.component(), m)?;
            new_poss.push(poss);
        }
        self.path.clear();
        Ok(new_poss)
    }

    /// The element path of a tag group under the current merge position.
    fn group_path(&self, tag: &str) -> String {
        let mut out = String::new();
        for segment in &self.path {
            out.push('/');
            out.push_str(segment);
        }
        out.push('/');
        out.push_str(tag);
        out
    }

    pub(crate) fn finish_with_frontiers(self) -> (PxDoc, IntegrationStats, Vec<DocFrontier>) {
        (self.out, self.stats, self.frontiers)
    }

    /// Integrate the two root probability nodes: the cross product of the
    /// sources' top-level alternatives, each pair of root elements merged
    /// as the same real-world object (aligned schemas ⇒ the documents
    /// describe the same collection).
    pub(crate) fn integrate_roots(&mut self) -> Result<(), IntegrateError> {
        let (alts_a, alts_b) = self.local_alternatives(&[self.a.root()], &[self.b.root()])?;
        for (items_a, wa) in &alts_a {
            for (items_b, wb) in &alts_b {
                // Validated documents guarantee exactly one root element
                // per alternative.
                let ea = items_a[0];
                let eb = items_b[0];
                // lint:allow(expect-in-lib, holds by construction: root content is an element)
                let tag_a = self.a.tag(ea).expect("root content is an element");
                // lint:allow(expect-in-lib, holds by construction: root content is an element)
                let tag_b = self.b.tag(eb).expect("root content is an element");
                if tag_a != tag_b {
                    return Err(IntegrateError::RootTagMismatch {
                        a: tag_a.to_string(),
                        b: tag_b.to_string(),
                    });
                }
                let root = self.out.root();
                let poss = self.out.add_poss(root, wa * wb);
                self.merge_pair(poss, ea, eb)?;
            }
        }
        Ok(())
    }

    /// The local alternatives of a list of each source, capped — each side
    /// and their cross product — at `max_local_worlds`.
    fn local_alternatives(
        &self,
        a_items: &[PxNodeId],
        b_items: &[PxNodeId],
    ) -> Result<(Alternatives, Alternatives), IntegrateError> {
        let cap = self.opts.max_local_worlds;
        let overflow = |_: TooManyWorlds| IntegrateError::TooManyLocalWorlds { cap };
        let alts_a = self.a.local_alternatives(a_items, cap).map_err(overflow)?;
        let alts_b = self.b.local_alternatives(b_items, cap).map_err(overflow)?;
        if alts_a.len().saturating_mul(alts_b.len()) > cap {
            return Err(IntegrateError::TooManyLocalWorlds { cap });
        }
        Ok((alts_a, alts_b))
    }

    /// Blocking's surviving pairs of a tag group, in row-major order. A
    /// group is blocked once however many local worlds revisit it, so the
    /// pruned/windowed counters tally unique pairs.
    fn blocked_pairs(
        &mut self,
        ga: &[PxNodeId],
        gb: &[PxNodeId],
        tag: &str,
    ) -> Vec<(usize, usize)> {
        let key = (ga.to_vec(), gb.to_vec());
        if let Some(pairs) = self.blocked_groups.get(&key) {
            return pairs.clone();
        }
        let blocked = pipeline::block_candidates(
            self.a,
            ga,
            self.b,
            gb,
            self.oracle,
            tag,
            self.opts.blocking,
        );
        self.stats.pairs_pruned += blocked.pruned;
        self.stats.pairs_windowed_out += blocked.windowed_out;
        self.blocked_groups.insert(key, blocked.pairs.clone());
        blocked.pairs
    }

    /// The Oracle's decisions about one left element against many right
    /// elements, through the judgment cache. Uncached pairs go through
    /// [`Oracle::judge_row`] (bit-identical to judging them one by one)
    /// so rules amortise their left-hand preprocessing across the row.
    fn decide_row(&mut self, an: PxNodeId, bns: &[PxNodeId]) -> Vec<Decision> {
        let mut out = Vec::with_capacity(bns.len());
        let mut missing: Vec<usize> = Vec::new();
        for (i, bn) in bns.iter().enumerate() {
            // An uncached slot holds a placeholder until the row is judged.
            out.push(self.judgments.get(&(an, *bn)).copied().unwrap_or_else(|| {
                missing.push(i);
                Decision::NonMatch
            }));
        }
        if !missing.is_empty() {
            let a_ref = ElemRef {
                doc: self.a,
                node: an,
            };
            let b_refs: Vec<ElemRef<'_>> = missing
                .iter()
                .map(|&i| ElemRef {
                    doc: self.b,
                    node: bns[i],
                })
                .collect();
            let judged = self.oracle.judge_row(&a_ref, &b_refs);
            for (&i, j) in missing.iter().zip(judged) {
                out[i] = j.decision;
                self.note_judgment(an, bns[i], j);
            }
        }
        out
    }

    /// Record one fresh judgment into the stats counters and the cache.
    fn note_judgment(&mut self, an: PxNodeId, bn: PxNodeId, j: Judgment) {
        self.stats.pairs_judged += 1;
        match j.decision {
            Decision::Match => self.stats.judged_match += 1,
            Decision::NonMatch => self.stats.judged_nonmatch += 1,
            Decision::Possible(_) => {
                self.stats.judged_possible += 1;
                if let Some(tag) = self.a.tag(an) {
                    *self
                        .stats
                        .undecided_by_tag
                        .entry(tag.to_string())
                        .or_insert(0) += 1;
                }
            }
        }
        if let Some(rule) = j.rule {
            *self.stats.rule_decisions.entry(rule).or_insert(0) += 1;
        }
        self.judgments.insert((an, bn), j.decision);
    }

    fn guard_size(&self) -> Result<(), IntegrateError> {
        if self.arena_base + self.out.arena_len() > self.opts.max_output_nodes {
            Err(IntegrateError::OutputTooLarge {
                cap: self.opts.max_output_nodes,
            })
        } else {
            Ok(())
        }
    }

    /// Merge two elements that refer to the same real-world object,
    /// appending the merged element (or, on attribute conflict, a choice
    /// of element variants) under `parent` in the output.
    fn merge_pair(
        &mut self,
        parent: PxNodeId,
        ae: PxNodeId,
        be: PxNodeId,
    ) -> Result<(), IntegrateError> {
        self.guard_size()?;
        let tag = self
            .a
            .tag(ae)
            // lint:allow(expect-in-lib, holds by construction: merge_pair called on elements)
            .expect("merge_pair called on elements")
            .to_string();
        debug_assert_eq!(self.b.tag(be), Some(tag.as_str()));
        self.path.push(tag.clone());
        let result = self.merge_pair_inner(parent, ae, be, tag);
        self.path.pop();
        result
    }

    fn merge_pair_inner(
        &mut self,
        parent: PxNodeId,
        ae: PxNodeId,
        be: PxNodeId,
        tag: String,
    ) -> Result<(), IntegrateError> {
        let attrs_a = self.a.attrs(ae).to_vec();
        let attrs_b = self.b.attrs(be).to_vec();
        let mut conflicts = false;
        for x in &attrs_a {
            if let Some(y) = attrs_b.iter().find(|y| y.name == x.name) {
                if y.value != x.value {
                    conflicts = true;
                    break;
                }
            }
        }
        if !conflicts {
            let el = self.out.add_elem(parent, tag);
            for attr in union_attrs(&attrs_a, &attrs_b) {
                self.out.set_attr(el, attr.name, attr.value);
            }
            self.merge_children(el, &tag_of(self.a, ae), ae, be)
        } else {
            // The true attribute set is either source a's or source b's:
            // a two-way choice between complete element variants, each with
            // its own copy of the merged children.
            self.stats.attr_conflicts += 1;
            let prob = self.out.add_prob(parent);
            let (wa, wb) = (self.w_a, self.w_b);
            let poss_a = self.out.add_poss(prob, wa);
            let el_a = self.out.add_elem(poss_a, tag.clone());
            for attr in union_attrs(&attrs_a, &attrs_b) {
                self.out.set_attr(el_a, attr.name, attr.value);
            }
            self.merge_children(el_a, &tag, ae, be)?;
            let poss_b = self.out.add_poss(prob, wb);
            let el_b = self.out.add_elem(poss_b, tag.clone());
            for attr in union_attrs(&attrs_b, &attrs_a) {
                self.out.set_attr(el_b, attr.name, attr.value);
            }
            self.merge_children(el_b, &tag, ae, be)
        }
    }

    /// Merge the child lists of two matched elements into `el_out`.
    fn merge_children(
        &mut self,
        el_out: PxNodeId,
        parent_tag: &str,
        ae: PxNodeId,
        be: PxNodeId,
    ) -> Result<(), IntegrateError> {
        let a_items = self.a.children(ae).to_vec();
        let b_items = self.b.children(be).to_vec();
        let has_choice = a_items.iter().any(|&n| self.a.is_prob(n))
            || b_items.iter().any(|&n| self.b.is_prob(n));
        if !has_choice {
            return self.integrate_lists(el_out, parent_tag, &a_items, &b_items);
        }
        let (combos_a, combos_b) = self.local_alternatives(&a_items, &b_items)?;
        if combos_a.len() == 1 && combos_b.len() == 1 {
            return self.integrate_lists(el_out, parent_tag, &combos_a[0].0, &combos_b[0].0);
        }
        let prob = self.out.add_prob(el_out);
        for (la, wa) in &combos_a {
            for (lb, wb) in &combos_b {
                let poss = self.out.add_poss(prob, wa * wb);
                self.integrate_lists(poss, parent_tag, la, lb)?;
            }
        }
        Ok(())
    }

    /// Integrate two concrete (choice-free at top level) item lists under
    /// `parent` (an element or possibility node of the output).
    fn integrate_lists(
        &mut self,
        parent: PxNodeId,
        parent_tag: &str,
        a_items: &[PxNodeId],
        b_items: &[PxNodeId],
    ) -> Result<(), IntegrateError> {
        self.guard_size()?;
        // 1. Character data: compare the concatenated text of both sides.
        let text_a = concat_text(self.a, a_items);
        let text_b = concat_text(self.b, b_items);
        match (text_a.is_empty(), text_b.is_empty()) {
            (true, true) => {}
            (false, true) => {
                self.out.add_text(parent, text_a);
            }
            (true, false) => {
                self.out.add_text(parent, text_b);
            }
            (false, false) => {
                if text_a == text_b {
                    self.out.add_text(parent, text_a);
                } else {
                    // A value conflict: exactly one of the observations is
                    // right (the paper's John-phone-number situation).
                    self.stats.value_conflicts += 1;
                    let prob = self.out.add_prob(parent);
                    let (wa, wb) = (self.w_a, self.w_b);
                    let pa = self.out.add_poss(prob, wa);
                    self.out.add_text(pa, text_a);
                    let pb = self.out.add_poss(prob, wb);
                    self.out.add_text(pb, text_b);
                }
            }
        }
        // 2. Elements, grouped by tag in order of first appearance.
        let groups = group_by_tag(self.a, a_items, self.b, b_items);
        for (tag, ga, gb) in groups {
            self.integrate_group(parent, parent_tag, &tag, &ga, &gb)?;
        }
        Ok(())
    }

    /// Integrate one tag group.
    fn integrate_group(
        &mut self,
        parent: PxNodeId,
        parent_tag: &str,
        tag: &str,
        ga: &[PxNodeId],
        gb: &[PxNodeId],
    ) -> Result<(), IntegrateError> {
        // One-sided groups copy over unchanged (certain content).
        if ga.is_empty() {
            for &n in gb {
                self.out.graft_px(parent, self.b, n);
            }
            return Ok(());
        }
        if gb.is_empty() {
            for &n in ga {
                self.out.graft_px(parent, self.a, n);
            }
            return Ok(());
        }
        // Schema-declared single-valued children of a matched parent refer
        // to the same rwo by construction (a movie has one real title): a
        // forced merge, with conflicting text handled as a value choice.
        let single = self
            .schema
            .is_some_and(|s| s.is_single_valued(parent_tag, tag));
        if single && ga.len() == 1 && gb.len() == 1 {
            if px_deep_equal(self.a, ga[0], self.b, gb[0]) {
                self.out.graft_px(parent, self.a, ga[0]);
            } else {
                self.merge_pair(parent, ga[0], gb[0])?;
            }
            return Ok(());
        }
        // Multi-valued: run the staged matching pipeline.
        //
        // Stage 1 — candidate generation: consult the Oracle about every
        // cross pair (or, under blocking, only the pairs that survive the
        // prefilters — recall-safe pruning drops provable `NonMatch`es, so
        // it cannot change what lands in `forced_raw`/`possible`), then
        // make the forced set injective.
        let survivors =
            (self.opts.blocking != BlockingMode::Off).then(|| self.blocked_pairs(ga, gb, tag));
        let mut rest: &[(usize, usize)] = survivors.as_deref().unwrap_or_default();
        let mut forced_raw: Vec<(usize, usize)> = Vec::new();
        let mut possible: Vec<Candidate> = Vec::new();
        // Judge row by row — all of `gb`, or blocking's survivors
        // (row-major) — so the oracle amortises per-row preprocessing.
        for (ai, &an) in ga.iter().enumerate() {
            let row = survivors.as_ref().map(|_| {
                let len = rest.iter().take_while(|&&(a, _)| a == ai).count();
                let (row, tail) = rest.split_at(len);
                rest = tail;
                row
            });
            let decisions = match row {
                None => self.decide_row(an, gb),
                Some(row) => {
                    let bns: Vec<PxNodeId> = row.iter().map(|&(_, bi)| gb[bi]).collect();
                    self.decide_row(an, &bns)
                }
            };
            for (k, decision) in decisions.into_iter().enumerate() {
                let bi = row.map_or(k, |row| row[k].1);
                match decision {
                    Decision::Match => forced_raw.push((ai, bi)),
                    Decision::NonMatch => {}
                    Decision::Possible(p) => possible.push(Candidate { a: ai, b: bi, p }),
                }
            }
        }
        let candidates = CandidateSet::resolve(forced_raw, possible);
        self.stats.demoted_forced += candidates.demoted;
        // Stage 2 — component split.
        let components = pipeline::split(&candidates, ga.len(), gb.len());
        // Stage 3 — budgeted (or strict) matching enumeration, possibly
        // fanned out over worker threads; independent of this builder.
        let group_path = self.group_path(tag);
        let outcomes =
            pipeline::enumerate_components(components, self.opts, &group_path).map_err(|e| {
                IntegrateError::TooManyMatchings {
                    component_pairs: e.component_pairs,
                    cap: e.cap,
                    path: e.path,
                }
            })?;
        // Stage 4 — merge the outcomes into the output document.
        for outcome in outcomes {
            self.record_outcome(&group_path, &outcome);
            self.emit_outcome(parent, ga, gb, outcome, &group_path)?;
        }
        Ok(())
    }

    /// Fold one component outcome into the integration statistics.
    fn record_outcome(&mut self, group_path: &str, outcome: &ComponentOutcome) {
        self.stats.components_total += 1;
        self.stats.matchings_enumerated += outcome.matchings.len();
        self.stats.max_component_matchings = self
            .stats
            .max_component_matchings
            .max(outcome.matchings.len());
        if outcome.truncated {
            self.stats.max_discarded_mass =
                self.stats.max_discarded_mass.max(outcome.discarded_mass);
            self.stats.truncated_components.push(TruncatedComponent {
                path: group_path.to_string(),
                live_pairs: outcome.live_pairs,
                kept: outcome.matchings.len(),
                discarded_mass: outcome.discarded_mass,
                frontier_nodes: outcome.frontier.as_ref().map_or(0, |f| f.open_nodes()),
                resumable: outcome.frontier.is_some(),
            });
        }
    }

    /// Emit one component outcome: a single certain matching inline, or
    /// a probability node holding one possibility per kept matching.
    /// Truncated components *always* get a probability node — the stable
    /// anchor refinement re-emits into — and their enumerator is
    /// recorded against it.
    fn emit_outcome(
        &mut self,
        parent: PxNodeId,
        ga: &[PxNodeId],
        gb: &[PxNodeId],
        outcome: ComponentOutcome,
        group_path: &str,
    ) -> Result<(), IntegrateError> {
        let ComponentOutcome {
            component,
            matchings,
            frontier,
            ..
        } = outcome;
        if matchings.len() == 1 && frontier.is_none() {
            return self.emit_matching(parent, ga, gb, &component, &matchings[0]);
        }
        self.stats.components_with_choice += 1;
        let prob = self.out.add_prob(parent);
        for m in &matchings {
            self.guard_size()?;
            let poss = self.out.add_poss(prob, m.weight);
            self.emit_matching(poss, ga, gb, &component, m)?;
        }
        if let Some(frontier) = frontier {
            self.frontiers.push(DocFrontier::new(
                group_path.to_string(),
                prob,
                ga.to_vec(),
                gb.to_vec(),
                frontier,
            ));
        }
        Ok(())
    }

    /// Emit one matching of a component: merged pairs at the position of
    /// their left element, then unmatched right elements.
    fn emit_matching(
        &mut self,
        parent: PxNodeId,
        ga: &[PxNodeId],
        gb: &[PxNodeId],
        comp: &Component,
        m: &Matching,
    ) -> Result<(), IntegrateError> {
        let mut b_of_a: HashMap<usize, usize> = HashMap::with_capacity(m.pairs.len());
        let mut b_used: Vec<bool> = vec![false; gb.len()];
        for &(ai, bi) in &m.pairs {
            b_of_a.insert(ai, bi);
            b_used[bi] = true;
        }
        for &ai in &comp.a_nodes {
            match b_of_a.get(&ai) {
                Some(&bi) => self.merge_pair(parent, ga[ai], gb[bi])?,
                None => {
                    self.out.graft_px(parent, self.a, ga[ai]);
                }
            }
        }
        for &bi in &comp.b_nodes {
            if !b_used[bi] {
                self.out.graft_px(parent, self.b, gb[bi]);
            }
        }
        Ok(())
    }
}

fn tag_of(doc: &PxDoc, node: PxNodeId) -> String {
    // lint:allow(expect-in-lib, holds by construction: element node)
    doc.tag(node).expect("element node").to_string()
}

/// Union of two attribute lists; on shared names, `primary` wins.
fn union_attrs(primary: &[Attr], secondary: &[Attr]) -> Vec<Attr> {
    let mut out: Vec<Attr> = primary.to_vec();
    for attr in secondary {
        if !out.iter().any(|x| x.name == attr.name) {
            out.push(attr.clone());
        }
    }
    out
}

/// Concatenated text of the text items of a list.
fn concat_text(doc: &PxDoc, items: &[PxNodeId]) -> String {
    let mut out = String::new();
    for &n in items {
        if let Some(t) = doc.text(n) {
            out.push_str(t);
        }
    }
    out
}

/// Group the element items of both lists by tag, in order of first
/// appearance (left list scanned first).
fn group_by_tag(
    a: &PxDoc,
    a_items: &[PxNodeId],
    b: &PxDoc,
    b_items: &[PxNodeId],
) -> Vec<(String, Vec<PxNodeId>, Vec<PxNodeId>)> {
    let mut groups: Vec<(String, Vec<PxNodeId>, Vec<PxNodeId>)> = Vec::new();
    for &n in a_items {
        if let Some(tag) = a.tag(n) {
            match groups.iter_mut().find(|g| g.0 == tag) {
                Some(g) => g.1.push(n),
                None => groups.push((tag.to_string(), vec![n], Vec::new())),
            }
        }
    }
    for &n in b_items {
        if let Some(tag) = b.tag(n) {
            match groups.iter_mut().find(|g| g.0 == tag) {
                Some(g) => g.2.push(n),
                None => groups.push((tag.to_string(), Vec::new(), vec![n])),
            }
        }
    }
    groups
}
