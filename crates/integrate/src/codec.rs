//! Deterministic binary codec for persisted refinement state.
//!
//! Builds on the primitives in [`imprecise_pxml::codec`] and follows the
//! same contract: bit-exact floats (`to_bits`), fixed-width little-endian
//! integers, deterministic collection order (the only maps involved are
//! `BTreeMap`s), and typed errors — never panics — on malformed input.
//!
//! [`encode_refine_state`] deliberately does **not** serialise the two
//! source documents a [`RefineState`] holds: several catalog entries
//! typically share a source, so the store persists sources once as
//! content-addressed blobs and hands them back to
//! [`decode_refine_state`], which re-attaches them and validates every
//! frontier node id against the arenas it points into. Each decoded
//! [`FrontierEnumerator`](crate::matching::FrontierEnumerator) is also
//! checked against its component's content digest, so state that was
//! corrupted on disk (or mixed up across documents) surfaces as a
//! [`CodecError`] instead of resuming a wrong enumeration.

use crate::matching::{Candidate, Component};
use crate::pipeline::DocFrontier;
use crate::{
    BudgetPlan, FrontierOrigin, IntegrationOptions, IntegrationStats, Lineage, RefineState,
    TruncatedComponent,
};
use imprecise_pxml::codec::{
    apply_doc_delta, encode_doc_delta, put_f64, put_len, put_str, put_u8, CodecError, Reader,
};
use imprecise_pxml::PxDoc;
use std::collections::BTreeMap;
use std::sync::Arc;

fn put_bool(out: &mut Vec<u8>, v: bool) {
    put_u8(out, u8::from(v));
}

pub(crate) fn take_bool(r: &mut Reader<'_>, expected: &'static str) -> Result<bool, CodecError> {
    match r.take_u8(expected)? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(r.err(expected)),
    }
}

fn put_counter_map(out: &mut Vec<u8>, map: &BTreeMap<String, usize>) {
    put_len(out, map.len());
    for (k, v) in map {
        put_str(out, k);
        put_len(out, *v);
    }
}

fn take_counter_map(
    r: &mut Reader<'_>,
    expected: &'static str,
) -> Result<BTreeMap<String, usize>, CodecError> {
    let n = r.take_len(expected)?;
    let mut map = BTreeMap::new();
    for _ in 0..n {
        let k = r.take_str(expected)?;
        let v = r.take_len(expected)?;
        map.insert(k, v);
    }
    Ok(map)
}

/// Serialise a candidate-graph component. Appends to `out`.
pub(crate) fn encode_component(c: &Component, out: &mut Vec<u8>) {
    put_len(out, c.a_nodes.len());
    for &a in &c.a_nodes {
        put_len(out, a);
    }
    put_len(out, c.b_nodes.len());
    for &b in &c.b_nodes {
        put_len(out, b);
    }
    put_len(out, c.forced.len());
    for &(a, b) in &c.forced {
        put_len(out, a);
        put_len(out, b);
    }
    put_len(out, c.possible.len());
    for cand in &c.possible {
        put_len(out, cand.a);
        put_len(out, cand.b);
        put_f64(out, cand.p);
    }
}

/// Decode a component written by [`encode_component`].
pub(crate) fn decode_component(r: &mut Reader<'_>) -> Result<Component, CodecError> {
    let n_a = r.take_len("component a_nodes count")?;
    let mut a_nodes = Vec::with_capacity(n_a.min(1 << 20));
    for _ in 0..n_a {
        a_nodes.push(r.take_len("component a_node")?);
    }
    let n_b = r.take_len("component b_nodes count")?;
    let mut b_nodes = Vec::with_capacity(n_b.min(1 << 20));
    for _ in 0..n_b {
        b_nodes.push(r.take_len("component b_node")?);
    }
    let n_forced = r.take_len("forced pair count")?;
    let mut forced = Vec::with_capacity(n_forced.min(1 << 20));
    for _ in 0..n_forced {
        let a = r.take_len("forced pair a")?;
        let b = r.take_len("forced pair b")?;
        forced.push((a, b));
    }
    let n_possible = r.take_len("candidate count")?;
    let mut possible = Vec::with_capacity(n_possible.min(1 << 20));
    for _ in 0..n_possible {
        let a = r.take_len("candidate a")?;
        let b = r.take_len("candidate b")?;
        let p = r.take_f64("candidate probability")?;
        possible.push(Candidate { a, b, p });
    }
    Ok(Component {
        a_nodes,
        b_nodes,
        forced,
        possible,
    })
}

fn encode_options(o: &IntegrationOptions, out: &mut Vec<u8>) {
    put_f64(out, o.source_weights.0);
    put_f64(out, o.source_weights.1);
    put_len(out, o.max_matchings_per_component);
    match o.budget_plan {
        BudgetPlan::PerComponent => put_u8(out, 0),
        BudgetPlan::Total(total) => {
            put_u8(out, 1);
            put_len(out, total);
        }
    }
    match o.min_retained_mass {
        None => put_u8(out, 0),
        Some(m) => {
            put_u8(out, 1);
            put_f64(out, m);
        }
    }
    put_bool(out, o.strict_matchings);
    // The worker count schedules whoever runs the state; it is not part
    // of it. The slot keeps format v3's layout but always holds the
    // serial value, so stored bytes do not depend on the worker count.
    put_len(out, crate::Parallelism::SERIAL.raw());
    put_len(out, o.max_local_worlds);
    put_len(out, o.max_output_nodes);
    put_bool(out, o.simplify);
    match o.blocking {
        crate::BlockingMode::Off => put_u8(out, 0),
        crate::BlockingMode::RecallSafe => put_u8(out, 1),
        crate::BlockingMode::Heuristic { window } => {
            put_u8(out, 2);
            put_len(out, window);
        }
    }
}

fn decode_options(r: &mut Reader<'_>) -> Result<IntegrationOptions, CodecError> {
    let source_weights = (
        r.take_f64("source weight a")?,
        r.take_f64("source weight b")?,
    );
    let max_matchings_per_component = r.take_len("matching budget")?;
    let budget_plan = match r.take_u8("budget plan tag")? {
        0 => BudgetPlan::PerComponent,
        1 => BudgetPlan::Total(r.take_len("total budget")?),
        _ => return Err(r.err("budget plan tag")),
    };
    let min_retained_mass = match r.take_u8("min retained mass tag")? {
        0 => None,
        1 => Some(r.take_f64("min retained mass")?),
        _ => return Err(r.err("min retained mass tag")),
    };
    let strict_matchings = take_bool(r, "strict matchings flag")?;
    // Written as a fixed value (see `encode_options`). Whoever refines
    // the decoded state supplies the worker count: the engine fills
    // `RefineOptions::threads` from its own options.
    r.take_len("parallelism")?;
    let parallelism = crate::Parallelism::SERIAL;
    let max_local_worlds = r.take_len("max local worlds")?;
    let max_output_nodes = r.take_len("max output nodes")?;
    let simplify = take_bool(r, "simplify flag")?;
    let blocking = match r.take_u8("blocking mode tag")? {
        0 => crate::BlockingMode::Off,
        1 => crate::BlockingMode::RecallSafe,
        2 => crate::BlockingMode::Heuristic {
            window: r.take_len("blocking window")?,
        },
        _ => return Err(r.err("blocking mode tag")),
    };
    Ok(IntegrationOptions {
        source_weights,
        max_matchings_per_component,
        budget_plan,
        min_retained_mass,
        strict_matchings,
        parallelism,
        max_local_worlds,
        max_output_nodes,
        simplify,
        blocking,
    })
}

fn encode_stats(s: &IntegrationStats, out: &mut Vec<u8>) {
    put_len(out, s.pairs_judged);
    put_len(out, s.judged_match);
    put_len(out, s.judged_nonmatch);
    put_len(out, s.judged_possible);
    put_counter_map(out, &s.undecided_by_tag);
    put_counter_map(out, &s.rule_decisions);
    put_len(out, s.components_total);
    put_len(out, s.components_with_choice);
    put_len(out, s.matchings_enumerated);
    put_len(out, s.max_component_matchings);
    put_len(out, s.value_conflicts);
    put_len(out, s.attr_conflicts);
    put_len(out, s.demoted_forced);
    put_len(out, s.pairs_pruned);
    put_len(out, s.pairs_windowed_out);
    put_len(out, s.truncated_components.len());
    for t in &s.truncated_components {
        put_str(out, &t.path);
        put_len(out, t.live_pairs);
        put_len(out, t.kept);
        put_f64(out, t.discarded_mass);
        put_len(out, t.frontier_nodes);
        put_bool(out, t.resumable);
    }
    put_f64(out, s.max_discarded_mass);
}

fn decode_stats(r: &mut Reader<'_>) -> Result<IntegrationStats, CodecError> {
    let pairs_judged = r.take_len("pairs judged")?;
    let judged_match = r.take_len("judged match")?;
    let judged_nonmatch = r.take_len("judged nonmatch")?;
    let judged_possible = r.take_len("judged possible")?;
    let undecided_by_tag = take_counter_map(r, "undecided-by-tag map")?;
    let rule_decisions = take_counter_map(r, "rule decision map")?;
    let components_total = r.take_len("components total")?;
    let components_with_choice = r.take_len("components with choice")?;
    let matchings_enumerated = r.take_len("matchings enumerated")?;
    let max_component_matchings = r.take_len("max component matchings")?;
    let value_conflicts = r.take_len("value conflicts")?;
    let attr_conflicts = r.take_len("attr conflicts")?;
    let demoted_forced = r.take_len("demoted forced")?;
    let pairs_pruned = r.take_len("pairs pruned")?;
    let pairs_windowed_out = r.take_len("pairs windowed out")?;
    let n_truncated = r.take_len("truncated component count")?;
    let mut truncated_components = Vec::with_capacity(n_truncated.min(1 << 20));
    for _ in 0..n_truncated {
        truncated_components.push(TruncatedComponent {
            path: r.take_str("truncation path")?,
            live_pairs: r.take_len("truncation live pairs")?,
            kept: r.take_len("truncation kept")?,
            discarded_mass: r.take_f64("truncation discarded mass")?,
            frontier_nodes: r.take_len("truncation frontier nodes")?,
            resumable: take_bool(r, "truncation resumable flag")?,
        });
    }
    let max_discarded_mass = r.take_f64("max discarded mass")?;
    Ok(IntegrationStats {
        pairs_judged,
        judged_match,
        judged_nonmatch,
        judged_possible,
        undecided_by_tag,
        rule_decisions,
        components_total,
        components_with_choice,
        matchings_enumerated,
        max_component_matchings,
        value_conflicts,
        attr_conflicts,
        demoted_forced,
        pairs_pruned,
        pairs_windowed_out,
        truncated_components,
        max_discarded_mass,
    })
}

/// Serialise a [`RefineState`] *without* its source documents (appends
/// to `out`). The caller persists the sources separately — typically as
/// content-deduplicated blobs, since many catalog entries share them —
/// and hands them back to [`decode_refine_state`].
pub fn encode_refine_state(state: &RefineState, out: &mut Vec<u8>) {
    encode_stats(&state.stats, out);
    encode_options(&state.options, out);
    put_len(out, state.emitted_nodes);
    put_len(out, state.frontiers.len());
    for f in &state.frontiers {
        f.encode(out);
    }
}

/// Decode a [`RefineState`] written by [`encode_refine_state`],
/// re-attaching `sources` (the documents the state was captured
/// against, in the same order) to the restored state.
///
/// `doc_arena_len` is the arena length of the integrated document this
/// state belongs to. Every frontier node id is validated against the
/// arena it points into and every frontier against its component's
/// content digest; a mismatch — state paired with the wrong document or
/// sources, or bytes corrupted on disk — is a typed [`CodecError`].
pub fn decode_refine_state(
    r: &mut Reader<'_>,
    sources: (Arc<PxDoc>, Arc<PxDoc>),
    doc_arena_len: usize,
) -> Result<RefineState, CodecError> {
    let stats = decode_stats(r)?;
    let options = decode_options(r)?;
    let emitted_nodes = r.take_len("emitted node count")?;
    let n_frontiers = r.take_len("frontier count")?;
    let (a_len, b_len) = (sources.0.arena_len(), sources.1.arena_len());
    let mut frontiers = Vec::with_capacity(n_frontiers.min(1 << 20));
    for _ in 0..n_frontiers {
        frontiers.push(DocFrontier::decode(r, doc_arena_len, a_len, b_len)?);
    }
    Ok(RefineState {
        stats,
        frontiers,
        sources,
        options,
        emitted_nodes,
        lineage: Lineage::fresh(),
    })
}

/// Serialise the refine step that produced `state` and `doc` as a delta
/// against the state and document the step started from (appends to
/// `out`); returns `false`, writing nothing, when `state` carries no
/// step (see [`RefineState::step_base`]).
///
/// The delta holds the arena slots the step appended or rewrote, the
/// new stats, and per frontier either a reference to the base's
/// frontier (untouched, or advanced — then with its search-state delta:
/// popped seqs, pushed states still open, new matchings, scalars) or,
/// for a frontier the step created, its full encoding. Its size follows
/// what the step changed, not the size of the document or the open
/// search; [`apply_refine_step`] replays it.
pub fn encode_refine_step(doc: &PxDoc, state: &RefineState, out: &mut Vec<u8>) -> bool {
    let Some(step) = &state.lineage.step else {
        return false;
    };
    debug_assert_eq!(step.origins.len(), state.frontiers.len());
    encode_doc_delta(doc, step.base_arena_len, &step.rewritten, out);
    encode_stats(&state.stats, out);
    put_len(out, state.emitted_nodes);
    put_len(out, step.base_frontiers);
    put_len(out, state.frontiers.len());
    for (f, origin) in state.frontiers.iter().zip(&step.origins) {
        match *origin {
            FrontierOrigin::Kept(i) => {
                put_u8(out, 0);
                put_len(out, i);
            }
            FrontierOrigin::Advanced(i) => {
                put_u8(out, 1);
                put_len(out, i);
                f.encode_step(out);
            }
            FrontierOrigin::New => {
                put_u8(out, 2);
                f.encode(out);
            }
        }
    }
    true
}

/// Replay [`encode_refine_step`] bytes on the document and state the
/// step started from: `doc` is updated in place and the stepped state
/// returned, so that both encode to exactly the bytes of the originals
/// ([`imprecise_pxml::codec::encode_doc`], [`encode_refine_state`]).
///
/// Base frontiers are referenced by strictly increasing index and each
/// at most once; new frontiers are validated like
/// [`decode_refine_state`] validates them. Any mismatch with the base —
/// arena length, frontier count, open search states — is a typed
/// [`CodecError`]; `doc` must then be discarded.
pub fn apply_refine_step(
    r: &mut Reader<'_>,
    doc: &mut PxDoc,
    state: RefineState,
) -> Result<RefineState, CodecError> {
    apply_doc_delta(doc, r)?;
    let stats = decode_stats(r)?;
    let emitted_nodes = r.take_len("emitted node count")?;
    if r.take_len("base frontier count")? != state.frontiers.len() {
        return Err(r.err("base frontier count matching the state"));
    }
    let n_frontiers = r.take_len("frontier count")?;
    let (a_len, b_len) = (state.sources.0.arena_len(), state.sources.1.arena_len());
    let mut base: Vec<Option<DocFrontier>> = state.frontiers.into_iter().map(Some).collect();
    let mut next_base = 0usize;
    let mut frontiers = Vec::with_capacity(n_frontiers.min(1 << 20));
    for _ in 0..n_frontiers {
        let tag = r.take_u8("frontier origin tag")?;
        match tag {
            0 | 1 => {
                let i = r.take_len("base frontier index")?;
                let mut f = base
                    .get_mut(i)
                    .filter(|_| i >= next_base)
                    .and_then(Option::take)
                    .ok_or_else(|| r.err("base frontier index, increasing and in range"))?;
                next_base = i + 1;
                if tag == 1 {
                    f.apply_step(r)?;
                }
                frontiers.push(f);
            }
            2 => frontiers.push(DocFrontier::decode(r, doc.arena_len(), a_len, b_len)?),
            _ => return Err(r.err("frontier origin tag")),
        }
    }
    Ok(RefineState {
        stats,
        frontiers,
        sources: state.sources,
        options: state.options,
        emitted_nodes,
        lineage: Lineage::fresh(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{integrate_px, IntegrationOutcome, RefineOptions};
    use imprecise_oracle::Oracle;
    use imprecise_pxml::from_xml;
    use imprecise_xmlkit::parse;

    fn sources() -> (Arc<PxDoc>, Arc<PxDoc>) {
        // Two address books with enough confusable persons to force a
        // multi-matching component under a tight budget.
        let a = parse(
            "<addressbook>\
             <person><nm>John</nm><tel>1111</tel></person>\
             <person><nm>Jon</nm><tel>2222</tel></person>\
             <person><nm>Johnny</nm><tel>3333</tel></person>\
             </addressbook>",
        )
        .expect("valid xml");
        let b = parse(
            "<addressbook>\
             <person><nm>John</nm><tel>4444</tel></person>\
             <person><nm>Jhon</nm><tel>5555</tel></person>\
             <person><nm>Jonny</nm><tel>6666</tel></person>\
             </addressbook>",
        )
        .expect("valid xml");
        (Arc::new(from_xml(&a)), Arc::new(from_xml(&b)))
    }

    fn budgeted_outcome(sources: &(Arc<PxDoc>, Arc<PxDoc>)) -> IntegrationOutcome {
        let oracle = Oracle::uninformed();
        let options = IntegrationOptions {
            max_matchings_per_component: 2,
            ..IntegrationOptions::default()
        };
        integrate_px(&sources.0, &sources.1, &oracle, None, &options).expect("integrates")
    }

    fn roundtrip(
        state: &RefineState,
        srcs: (Arc<PxDoc>, Arc<PxDoc>),
        doc_len: usize,
    ) -> RefineState {
        let mut bytes = Vec::new();
        encode_refine_state(state, &mut bytes);
        let mut r = Reader::new(&bytes);
        let decoded = decode_refine_state(&mut r, srcs, doc_len).expect("decodes");
        r.finish().expect("consumed exactly");
        decoded
    }

    #[test]
    fn refine_state_roundtrip_resumes_bit_for_bit() {
        let srcs = sources();
        let oracle = Oracle::uninformed();

        // Exhaustive reference.
        let exact = integrate_px(
            &srcs.0,
            &srcs.1,
            &oracle,
            None,
            &IntegrationOptions::default(),
        )
        .expect("integrates");

        // Round-trip the refine state through the codec, then refine the
        // restored state to exhaustion.
        let mut budgeted = budgeted_outcome(&srcs);
        assert!(
            budgeted.is_refinable(),
            "test premise: the budget must truncate"
        );
        let state = budgeted
            .detach_refine_state()
            .expect("truncated outcome carries state");
        let doc = budgeted.doc;
        let decoded = roundtrip(&state, srcs.clone(), doc.arena_len());
        assert_eq!(decoded.open_components(), state.open_components());
        assert_eq!(decoded.emitted_nodes(), state.emitted_nodes());
        assert_eq!(
            decoded.max_discarded_mass().to_bits(),
            state.max_discarded_mass().to_bits()
        );
        let mut outcome = IntegrationOutcome::with_refine_state(doc, decoded);
        while outcome.is_refinable() {
            outcome
                .refine(&oracle, None, &RefineOptions::to_exhaustive())
                .expect("refines");
        }
        assert_eq!(outcome.doc.fingerprint(), exact.doc.fingerprint());
    }

    fn full_bytes(doc: &PxDoc, state: Option<&RefineState>) -> (Vec<u8>, Vec<u8>) {
        let (mut d, mut s) = (Vec::new(), Vec::new());
        imprecise_pxml::codec::encode_doc(doc, &mut d);
        if let Some(state) = state {
            encode_refine_state(state, &mut s);
        }
        (d, s)
    }

    #[test]
    fn refine_steps_replay_to_the_full_encoding() {
        let srcs = sources();
        let oracle = Oracle::uninformed();
        let mut budgeted = budgeted_outcome(&srcs);
        let mut state = budgeted.detach_refine_state().expect("state");
        let mut doc = budgeted.doc;
        let mut bytes = Vec::new();
        assert!(
            !encode_refine_step(&doc, &state, &mut bytes),
            "an integrated state carries no step"
        );
        assert!(bytes.is_empty());
        let one = RefineOptions {
            extra_matchings: 1,
            ..RefineOptions::default()
        };
        let mut steps = 0;
        loop {
            let mut outcome = IntegrationOutcome::with_refine_state(doc.clone(), state.clone());
            outcome.refine(&oracle, None, &one).expect("refines");
            let Some(next) = outcome.detach_refine_state() else {
                break;
            };
            assert_eq!(next.step_base().map(|b| b.lineage), Some(state.lineage()));
            assert_eq!(next.step_base().map(|b| b.arena_len), Some(doc.arena_len()));
            let mut delta = Vec::new();
            assert!(encode_refine_step(&outcome.doc, &next, &mut delta));
            let mut replayed_doc = doc.clone();
            let mut r = Reader::new(&delta);
            let replayed =
                apply_refine_step(&mut r, &mut replayed_doc, state.clone()).expect("replays");
            r.finish().expect("consumed exactly");
            assert_eq!(
                full_bytes(&replayed_doc, Some(&replayed)),
                full_bytes(&outcome.doc, Some(&next))
            );
            // Against the stepped document the recorded base is wrong.
            let mut wrong = outcome.doc.clone();
            assert!(apply_refine_step(&mut Reader::new(&delta), &mut wrong, next.clone()).is_err());
            doc = outcome.doc;
            state = next;
            steps += 1;
        }
        assert!(steps >= 2, "test premise: several open steps, got {steps}");
    }

    #[test]
    fn compaction_drops_the_step() {
        let srcs = sources();
        let mut outcome = budgeted_outcome(&srcs);
        outcome
            .refine(
                &Oracle::uninformed(),
                None,
                &RefineOptions {
                    extra_matchings: 1,
                    ..RefineOptions::default()
                },
            )
            .expect("refines");
        let mut compacted = outcome.clone();
        compacted.compact_arena();
        let stepped = outcome.detach_refine_state().expect("state");
        let state = compacted.detach_refine_state().expect("state");
        assert!(stepped.step_base().is_some());
        assert_eq!(state.step_base(), None);
        // The compacted state is a new state, not a clone of the one a
        // store may hold under the old identity.
        assert_ne!(state.lineage(), stepped.lineage());
        assert!(!encode_refine_step(&compacted.doc, &state, &mut Vec::new()));
    }

    #[test]
    fn refine_state_encoding_is_deterministic() {
        let srcs = sources();
        let s1 = budgeted_outcome(&srcs).detach_refine_state();
        let s2 = budgeted_outcome(&srcs).detach_refine_state();
        let (mut b1, mut b2) = (Vec::new(), Vec::new());
        encode_refine_state(&s1.expect("state"), &mut b1);
        encode_refine_state(&s2.expect("state"), &mut b2);
        assert_eq!(b1, b2);
    }

    #[test]
    fn truncated_refine_state_is_a_typed_error() {
        let srcs = sources();
        let mut budgeted = budgeted_outcome(&srcs);
        let state = budgeted.detach_refine_state().expect("state");
        let mut bytes = Vec::new();
        encode_refine_state(&state, &mut bytes);
        let doc_len = budgeted.doc.arena_len();
        // Cutting anywhere must fail cleanly (decode error or trailing
        // bytes), never panic.
        for cut in (0..bytes.len()).step_by(7) {
            let mut r = Reader::new(&bytes[..cut]);
            let result = decode_refine_state(&mut r, srcs.clone(), doc_len)
                .map(|_| ())
                .and_then(|()| r.finish());
            assert!(result.is_err(), "truncation at {cut} must not decode");
        }
    }

    #[test]
    fn wrong_sources_are_rejected_by_digest_or_bounds() {
        let srcs = sources();
        let mut budgeted = budgeted_outcome(&srcs);
        let state = budgeted.detach_refine_state().expect("state");
        let mut bytes = Vec::new();
        encode_refine_state(&state, &mut bytes);
        // Pair the state with a tiny unrelated source: the group node
        // ids no longer fit its arena.
        let tiny = parse("<addressbook/>").expect("valid xml");
        let tiny = Arc::new(from_xml(&tiny));
        let mut r = Reader::new(&bytes);
        assert!(
            decode_refine_state(&mut r, (tiny.clone(), tiny), budgeted.doc.arena_len()).is_err(),
            "mismatched sources must be rejected"
        );
    }
}
