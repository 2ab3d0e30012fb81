//! Recovery fault-injection suite: crash shapes against the segment.
//!
//! * Torn tail — the file truncated at **every byte offset** of the
//!   final record — must reopen cleanly at the previous version.
//! * A flipped payload byte must surface as a typed
//!   [`StoreError::CorruptRecord`], never a panic.
//! * A chain of refine-step delta records replays bitwise; cutting its
//!   last delta anywhere recovers the version before it, a flipped byte
//!   in a middle delta is a `CorruptRecord`, and states that are not one
//!   step past the stored one (stale, compacted, foreign, or on another
//!   document) are written whole, as is the publish that would extend a
//!   chain past [`MAX_DELTA_CHAIN`].
//!
//! Run with `--features strict-invariants` to additionally shadow-check
//! every recovered document and frontier with the deep verifier.

use imprecise_integrate::codec::encode_refine_state;
use imprecise_integrate::{
    integrate_px, IntegrationOptions, IntegrationOutcome, RefineOptions, RefineState,
};
use imprecise_oracle::Oracle;
use imprecise_pxml::codec::encode_doc;
use imprecise_pxml::{from_xml, PxDoc};
use imprecise_store::{Durability, RecoveredDoc, Store, StoreError, MAX_DELTA_CHAIN};
use imprecise_xmlkit::parse;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A unique scratch file under the system temp dir, removed on drop.
struct ScratchFile(PathBuf);

impl ScratchFile {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "imprecise-store-{tag}-{}-{n}.seg",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        ScratchFile(path)
    }
}

impl Drop for ScratchFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn sources() -> (Arc<PxDoc>, Arc<PxDoc>) {
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

/// Two publishes of "db": v1 exact, v2 budgeted with open refine state.
/// Returns (bytes of the segment, file length right after v1, the two
/// published docs).
fn two_version_segment(scratch: &ScratchFile) -> (Vec<u8>, u64, PxDoc, PxDoc) {
    let srcs = sources();
    let oracle = Oracle::uninformed();
    let exact = integrate_px(
        &srcs.0,
        &srcs.1,
        &oracle,
        None,
        &IntegrationOptions::default(),
    )
    .expect("integrates");
    let mut budgeted = integrate_px(
        &srcs.0,
        &srcs.1,
        &oracle,
        None,
        &IntegrationOptions {
            max_matchings_per_component: 2,
            ..IntegrationOptions::default()
        },
    )
    .expect("integrates");
    let state = budgeted
        .detach_refine_state()
        .expect("test premise: the budget must truncate");

    let mut store = Store::open(&scratch.0, Durability::Always).expect("opens");
    store
        .append_publish("db", 1, &exact.doc, None)
        .expect("publishes v1");
    let len_after_v1 = std::fs::metadata(&scratch.0).expect("stat").len();
    store
        .append_publish("db", 2, &budgeted.doc, Some(&state))
        .expect("publishes v2");
    drop(store);
    let bytes = std::fs::read(&scratch.0).expect("read segment");
    (bytes, len_after_v1, exact.doc, budgeted.doc)
}

#[test]
fn save_load_fingerprint_is_bitwise_identical() {
    let scratch = ScratchFile::new("roundtrip");
    let (_, _, v1_doc, v2_doc) = two_version_segment(&scratch);
    let mut store = Store::open(&scratch.0, Durability::Always).expect("reopens");
    assert_eq!(store.names().collect::<Vec<_>>(), vec!["db"]);
    assert_eq!(store.latest_version("db"), Some(2));
    let RecoveredDoc {
        version,
        doc,
        refine,
    } = store
        .load_publish("db")
        .expect("loads")
        .expect("db is on file");
    assert_eq!(version, 2);
    assert_eq!(doc.fingerprint(), v2_doc.fingerprint());
    assert!(refine.is_some(), "open refine state must be recovered");
    // The exact v1 arena also survived bit-for-bit in history.
    assert_ne!(v1_doc.fingerprint(), v2_doc.fingerprint());
}

#[test]
fn recovered_refine_state_resumes_bit_for_bit() {
    let scratch = ScratchFile::new("resume");
    let (_, _, v1_doc, _) = two_version_segment(&scratch);
    let mut store = Store::open(&scratch.0, Durability::Always).expect("reopens");
    let recovered = store
        .load_publish("db")
        .expect("loads")
        .expect("db is on file");
    let state = recovered.refine.expect("open refine state");
    let oracle = Oracle::uninformed();
    let mut outcome =
        imprecise_integrate::IntegrationOutcome::with_refine_state(recovered.doc, state);
    while outcome.is_refinable() {
        outcome
            .refine(&oracle, None, &RefineOptions::to_exhaustive())
            .expect("refines");
    }
    // v1 was the one-shot exhaustive run of the same sources: refining
    // the recovered budgeted state to exhaustion converges to it.
    assert_eq!(outcome.doc.fingerprint(), v1_doc.fingerprint());
}

#[test]
fn truncation_at_every_offset_of_the_final_records_recovers_v1() {
    let scratch = ScratchFile::new("torn");
    let (bytes, len_after_v1, v1_doc, _) = two_version_segment(&scratch);
    let torn = ScratchFile::new("torn-cut");
    // Everything appended after v1 (source blobs + the v2 publish) is
    // the crash window: cutting anywhere inside it must reopen at v1
    // with nothing lost and nothing torn left behind.
    for cut in len_after_v1 as usize..bytes.len() {
        std::fs::write(&torn.0, &bytes[..cut]).expect("write truncated copy");
        let mut store = Store::open(&torn.0, Durability::Always)
            .unwrap_or_else(|e| panic!("truncation at {cut} must reopen cleanly, got {e}"));
        assert_eq!(
            store.latest_version("db"),
            Some(1),
            "truncation at {cut} must recover the previous version"
        );
        let recovered = store
            .load_publish("db")
            .expect("loads v1")
            .expect("v1 is on file");
        assert_eq!(recovered.version, 1);
        assert_eq!(recovered.doc.fingerprint(), v1_doc.fingerprint());
        assert!(recovered.refine.is_none(), "v1 was exact");
    }
}

#[test]
fn reopened_torn_store_accepts_new_publishes() {
    let scratch = ScratchFile::new("torn-append");
    let (bytes, len_after_v1, v1_doc, v2_doc) = two_version_segment(&scratch);
    let torn = ScratchFile::new("torn-append-cut");
    // Cut mid-way through the v2 tail, reopen, and re-publish v2: the
    // stale half-record must not bleed into the fresh append.
    let cut = (len_after_v1 as usize + bytes.len()) / 2;
    std::fs::write(&torn.0, &bytes[..cut]).expect("write truncated copy");
    {
        let mut store = Store::open(&torn.0, Durability::Always).expect("reopens");
        assert_eq!(store.latest_version("db"), Some(1));
        store
            .append_publish("db", 2, &v2_doc, None)
            .expect("re-publishes v2");
    }
    let mut store = Store::open(&torn.0, Durability::Always).expect("reopens again");
    assert_eq!(store.latest_version("db"), Some(2));
    let recovered = store
        .load_publish("db")
        .expect("loads")
        .expect("db is on file");
    assert_eq!(recovered.doc.fingerprint(), v2_doc.fingerprint());
    assert_ne!(recovered.doc.fingerprint(), v1_doc.fingerprint());
}

/// Frame starts of every record in segment order (a test-side scan
/// mirroring the store's: [u32 len][u64 checksum][payload]).
fn frame_offsets(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut offsets = Vec::new();
    let mut pos = 12; // header
    while pos + 12 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let end = pos + 12 + len;
        if end > bytes.len() {
            break;
        }
        offsets.push((pos, len));
        pos = end;
    }
    offsets
}

#[test]
fn flipped_payload_byte_is_a_typed_corrupt_record_error() {
    let scratch = ScratchFile::new("flip");
    let (bytes, _, _, _) = two_version_segment(&scratch);
    let (last_frame, last_len) = *frame_offsets(&bytes).last().expect("segment has records");
    let corrupted = ScratchFile::new("flip-cut");
    // Flip a spread of payload bytes of the final record (first, last,
    // and every 97th in between): each flip must be caught by the
    // checksum and reported as CorruptRecord — not a panic, not a
    // silent skip.
    let payload_start = last_frame + 12;
    let positions: Vec<usize> = (0..last_len)
        .step_by(97)
        .chain([last_len - 1])
        .map(|i| payload_start + i)
        .collect();
    for at in positions {
        let mut copy = bytes.clone();
        copy[at] ^= 0x40;
        std::fs::write(&corrupted.0, &copy).expect("write corrupted copy");
        match Store::open(&corrupted.0, Durability::Always) {
            Err(StoreError::CorruptRecord { offset, .. }) => {
                assert_eq!(offset, last_frame as u64, "flip at byte {at}");
            }
            Err(other) => panic!("flip at byte {at}: expected CorruptRecord, got {other}"),
            Ok(_) => panic!("flip at byte {at}: corruption must not open cleanly"),
        }
    }
}

#[test]
fn foreign_file_is_a_bad_header_not_a_panic() {
    let scratch = ScratchFile::new("foreign");
    std::fs::write(&scratch.0, b"<xml>this is not a segment file</xml>").expect("write");
    match Store::open(&scratch.0, Durability::Always) {
        Err(StoreError::BadHeader) => {}
        Err(other) => panic!("expected BadHeader, got {other}"),
        Ok(_) => panic!("a foreign file must not open as a store"),
    }
}

#[test]
fn on_close_durability_syncs_on_drop() {
    let scratch = ScratchFile::new("onclose");
    let (_, _, v1_doc, _) = two_version_segment(&scratch);
    let second = ScratchFile::new("onclose-2");
    {
        let mut store = Store::open(&second.0, Durability::OnClose).expect("opens");
        store
            .append_publish("db", 1, &v1_doc, None)
            .expect("publishes");
    } // drop syncs
    let mut store = Store::open(&second.0, Durability::OnClose).expect("reopens");
    let recovered = store
        .load_publish("db")
        .expect("loads")
        .expect("db is on file");
    assert_eq!(recovered.doc.fingerprint(), v1_doc.fingerprint());
}

/// Payload kind byte of the record framed at `frame` (1 full publish,
/// 2 source blob, 3 refine-step delta).
fn kind_at(bytes: &[u8], frame: usize) -> u8 {
    bytes[frame + 12]
}

const KIND_FULL: u8 = 1;
const KIND_DELTA: u8 = 3;

/// The full encodings of a version, for byte-for-byte comparison.
fn encoded(doc: &PxDoc, state: Option<&RefineState>) -> (Vec<u8>, Vec<u8>) {
    let (mut d, mut s) = (Vec::new(), Vec::new());
    encode_doc(doc, &mut d);
    if let Some(state) = state {
        encode_refine_state(state, &mut s);
    }
    (d, s)
}

/// One refine installment of one matching on `(doc, state)`.
fn refine_once(doc: &PxDoc, state: &RefineState) -> (PxDoc, Option<RefineState>) {
    let mut outcome = IntegrationOutcome::with_refine_state(doc.clone(), state.clone());
    outcome
        .refine(&Oracle::uninformed(), None, &one_more())
        .expect("refines");
    let next = outcome.detach_refine_state();
    (outcome.doc, next)
}

fn one_more() -> RefineOptions {
    RefineOptions {
        extra_matchings: 1,
        ..RefineOptions::default()
    }
}

/// Sources with enough confusable persons that a budget of one matching
/// per component stays open for several one-matching installments.
fn wide_sources() -> (Arc<PxDoc>, Arc<PxDoc>) {
    let side = |names: &[&str], tel: u32| {
        let persons: String = names
            .iter()
            .enumerate()
            .map(|(i, n)| format!("<person><nm>{n}</nm><tel>{}</tel></person>", tel + i as u32))
            .collect();
        let xml = parse(&format!("<addressbook>{persons}</addressbook>")).expect("valid xml");
        Arc::new(from_xml(&xml))
    };
    (
        side(&["John", "Jon", "Johnny", "Jo", "Jonas"], 1000),
        side(&["John", "Jhon", "Jonny", "Joe", "Jonah"], 2000),
    )
}

/// A delta chain for "db": v1 a budgeted integration (full record),
/// then one-matching installments appended as deltas while the state
/// stays open, at least three of them. Returns the segment bytes, the
/// file length after each version, and each version's encodings.
struct Chain {
    bytes: Vec<u8>,
    len_after: Vec<u64>,
    versions: Vec<(Vec<u8>, Vec<u8>)>,
    /// The last version's document and state, for appending further.
    last: (PxDoc, RefineState),
}

fn delta_chain(scratch: &ScratchFile) -> Chain {
    let (a, b) = wide_sources();
    let mut budgeted = imprecise_integrate::integrate_px_shared(
        &a,
        &b,
        &Oracle::uninformed(),
        None,
        &IntegrationOptions {
            max_matchings_per_component: 1,
            ..IntegrationOptions::default()
        },
    )
    .expect("integrates");
    let mut state = budgeted
        .detach_refine_state()
        .expect("test premise: the budget must truncate");
    let mut doc = budgeted.doc;
    let mut store = Store::open(&scratch.0, Durability::Always).expect("opens");
    let mut len_after = Vec::new();
    let mut versions = Vec::new();
    let mut version = 1u64;
    loop {
        store
            .append_publish("db", version, &doc, Some(&state))
            .expect("appends");
        len_after.push(std::fs::metadata(&scratch.0).expect("stat").len());
        versions.push(encoded(&doc, Some(&state)));
        let (next_doc, next_state) = refine_once(&doc, &state);
        let Some(next_state) = next_state.filter(|_| version < 5) else {
            break;
        };
        doc = next_doc;
        state = next_state;
        version += 1;
    }
    assert!(versions.len() >= 4, "test premise: at least three deltas");
    drop(store);
    let bytes = std::fs::read(&scratch.0).expect("read segment");
    Chain {
        bytes,
        len_after,
        versions,
        last: (doc, state),
    }
}

#[test]
fn refine_installments_append_deltas_that_replay_bitwise() {
    let scratch = ScratchFile::new("chain");
    let chain = delta_chain(&scratch);
    let kinds: Vec<u8> = frame_offsets(&chain.bytes)
        .iter()
        .map(|&(frame, _)| kind_at(&chain.bytes, frame))
        .filter(|&k| k != 2)
        .collect();
    let mut expected = vec![KIND_FULL];
    expected.resize(chain.versions.len(), KIND_DELTA);
    assert_eq!(kinds, expected, "v1 whole, every installment a delta");
    let mut store = Store::open(&scratch.0, Durability::Always).expect("reopens");
    let recovered = store.load_publish("db").expect("loads").expect("on file");
    assert_eq!(recovered.version, chain.versions.len() as u64);
    assert_eq!(
        &encoded(&recovered.doc, recovered.refine.as_ref()),
        chain.versions.last().expect("versions")
    );
}

#[test]
fn truncating_the_last_delta_anywhere_recovers_the_previous_version() {
    let scratch = ScratchFile::new("chain-torn");
    let chain = delta_chain(&scratch);
    let n = chain.versions.len();
    let start = chain.len_after[n - 2] as usize;
    let torn = ScratchFile::new("chain-torn-cut");
    for cut in start..chain.bytes.len() {
        std::fs::write(&torn.0, &chain.bytes[..cut]).expect("write truncated copy");
        let mut store = Store::open(&torn.0, Durability::OnClose)
            .unwrap_or_else(|e| panic!("truncation at {cut} must reopen cleanly, got {e}"));
        assert_eq!(store.latest_version("db"), Some(n as u64 - 1), "cut {cut}");
        let recovered = store.load_publish("db").expect("loads").expect("on file");
        assert_eq!(
            encoded(&recovered.doc, recovered.refine.as_ref()),
            chain.versions[n - 2],
            "truncation at {cut} must recover the previous version bitwise"
        );
        if cut != start && cut % 7 != 0 {
            continue;
        }
        // Later appends still work: refining the recovered version
        // extends the chain with a delta that replays to the lost
        // version exactly.
        let (doc, state) = refine_once(
            &recovered.doc,
            recovered.refine.as_ref().expect("open state"),
        );
        store
            .append_publish("db", n as u64, &doc, state.as_ref())
            .expect("re-appends");
        drop(store);
        let bytes = std::fs::read(&torn.0).expect("read segment");
        let (last, _) = *frame_offsets(&bytes).last().expect("records");
        assert_eq!(kind_at(&bytes, last), KIND_DELTA, "cut {cut}");
        let mut store = Store::open(&torn.0, Durability::OnClose).expect("reopens again");
        let again = store.load_publish("db").expect("loads").expect("on file");
        assert_eq!(
            encoded(&again.doc, again.refine.as_ref()),
            chain.versions[n - 1]
        );
    }
}

#[test]
fn flipped_byte_in_a_middle_delta_is_a_typed_corrupt_record() {
    let scratch = ScratchFile::new("chain-flip");
    let chain = delta_chain(&scratch);
    let deltas: Vec<(usize, usize)> = frame_offsets(&chain.bytes)
        .into_iter()
        .filter(|&(frame, _)| kind_at(&chain.bytes, frame) == KIND_DELTA)
        .collect();
    let (frame, len) = deltas[deltas.len() / 2];
    let corrupted = ScratchFile::new("chain-flip-cut");
    for at in (0..len).step_by(31).chain([len - 1]) {
        let mut copy = chain.bytes.clone();
        copy[frame + 12 + at] ^= 0x40;
        std::fs::write(&corrupted.0, &copy).expect("write corrupted copy");
        match Store::open(&corrupted.0, Durability::Always) {
            Err(StoreError::CorruptRecord { offset, .. }) => {
                assert_eq!(offset, frame as u64, "flip at payload byte {at}");
            }
            Err(other) => panic!("flip at {at}: expected CorruptRecord, got {other}"),
            Ok(_) => panic!("flip at {at}: corruption must not open cleanly"),
        }
    }
}

#[test]
fn stale_compacted_or_foreign_states_write_full_records() {
    let scratch = ScratchFile::new("chain-full");
    let chain = delta_chain(&scratch);
    let (doc, state) = &chain.last;
    let mut store = Store::open(&scratch.0, Durability::Always).expect("reopens");
    let recovered = store.load_publish("db").expect("loads").expect("on file");
    let base = recovered.refine.expect("open state");
    let last_kind = |path: &PathBuf| {
        let bytes = std::fs::read(path).expect("read segment");
        let (frame, _) = *frame_offsets(&bytes).last().expect("records");
        kind_at(&bytes, frame)
    };
    let mut version = chain.versions.len() as u64;
    // Fresh from the recovered base: a delta.
    let (next_doc, next) = refine_once(&recovered.doc, &base);
    version += 1;
    store
        .append_publish("db", version, &next_doc, next.as_ref())
        .expect("appends");
    assert_eq!(last_kind(&scratch.0), KIND_DELTA);
    // Stale: another step from the same base, now that the name moved
    // on.
    let (stale_doc, stale) = refine_once(&recovered.doc, &base);
    version += 1;
    store
        .append_publish("db", version, &stale_doc, stale.as_ref())
        .expect("appends");
    assert_eq!(last_kind(&scratch.0), KIND_FULL, "stale base");
    // Compacted: the step is one past the head, but compaction
    // renumbered the arena.
    let mut outcome = IntegrationOutcome::with_refine_state(
        stale_doc.clone(),
        stale.clone().expect("open state"),
    );
    outcome
        .refine(&Oracle::uninformed(), None, &one_more())
        .expect("refines");
    outcome.compact_arena();
    let compacted = outcome.detach_refine_state();
    version += 1;
    store
        .append_publish("db", version, &outcome.doc, compacted.as_ref())
        .expect("appends");
    assert_eq!(last_kind(&scratch.0), KIND_FULL, "compacted");
    // Foreign: a step past a state this store holds under another name,
    // or that another store holds.
    let (foreign_doc, foreign) = refine_once(doc, state);
    store
        .append_publish("copy", 1, &foreign_doc, foreign.as_ref())
        .expect("appends");
    assert_eq!(last_kind(&scratch.0), KIND_FULL, "other name");
    let other = ScratchFile::new("chain-full-other");
    let mut other_store = Store::open(&other.0, Durability::Always).expect("opens");
    other_store
        .append_publish("db", 1, &foreign_doc, foreign.as_ref())
        .expect("appends");
    assert_eq!(last_kind(&other.0), KIND_FULL, "other store");
    // Every one of them recovers bitwise.
    drop(store);
    let mut store = Store::open(&scratch.0, Durability::Always).expect("reopens");
    let db = store.load_publish("db").expect("loads").expect("on file");
    assert_eq!(
        encoded(&db.doc, db.refine.as_ref()),
        encoded(&outcome.doc, compacted.as_ref())
    );
    let copy = store.load_publish("copy").expect("loads").expect("on file");
    assert_eq!(
        encoded(&copy.doc, copy.refine.as_ref()),
        encoded(&foreign_doc, foreign.as_ref())
    );
}

/// The kind of every publish record in the segment at `path`, in file
/// order (blobs left out).
fn publish_kinds(path: &PathBuf) -> Vec<u8> {
    let bytes = std::fs::read(path).expect("read segment");
    frame_offsets(&bytes)
        .iter()
        .map(|&(frame, _)| kind_at(&bytes, frame))
        .filter(|&k| k != 2)
        .collect()
}

/// `doc` with one text node rewritten in place: the content is the
/// same, but the old node stays in the arena as detached garbage, so
/// compaction renumbers every later slot.
fn with_garbage(doc: &PxDoc) -> PxDoc {
    let mut doc = doc.clone();
    let text = doc
        .descendants(doc.root())
        .find(|&n| doc.is_text(n))
        .expect("a text node");
    let parent = doc.parent(text).expect("attached");
    let value = doc.text(text).expect("text").to_string();
    let copy = doc.add_text(parent, value);
    let children: Vec<_> = doc
        .children(parent)
        .iter()
        .filter(|&&c| c != copy)
        .map(|&c| if c == text { copy } else { c })
        .collect();
    doc.reset_children(parent, children);
    doc
}

#[test]
fn compacting_or_swapping_the_document_before_a_step_writes_a_full_record() {
    let scratch = ScratchFile::new("compact-first");
    let (a, b) = wide_sources();
    let mut budgeted = imprecise_integrate::integrate_px_shared(
        &a,
        &b,
        &Oracle::uninformed(),
        None,
        &IntegrationOptions {
            max_matchings_per_component: 1,
            ..IntegrationOptions::default()
        },
    )
    .expect("integrates");
    let state = budgeted.detach_refine_state().expect("open state");
    let plain = budgeted.doc;
    let doc = with_garbage(&plain);
    assert_eq!(doc.fingerprint(), plain.fingerprint());
    let mut store = Store::open(&scratch.0, Durability::Always).expect("opens");
    store
        .append_publish("db", 1, &doc, Some(&state))
        .expect("appends");
    // Compact, then refine: the step starts from a renumbered arena, not
    // from the stored document.
    let mut outcome = IntegrationOutcome::with_refine_state(doc.clone(), state.clone());
    let map = outcome.compact_arena();
    assert!(!map.is_identity(), "test premise: compaction renumbers");
    outcome
        .refine(&Oracle::uninformed(), None, &one_more())
        .expect("refines");
    let compacted = outcome.detach_refine_state();
    store
        .append_publish("db", 2, &outcome.doc, compacted.as_ref())
        .expect("appends");
    assert_eq!(publish_kinds(&scratch.0), vec![KIND_FULL, KIND_FULL]);
    // The stored state, stepped on a document of another arena length
    // than the stored one (same content, no garbage slot): also whole.
    store
        .append_publish("swap", 1, &doc, Some(&state))
        .expect("appends");
    let (swapped_doc, swapped) = refine_once(&plain, &state);
    store
        .append_publish("swap", 2, &swapped_doc, swapped.as_ref())
        .expect("appends");
    assert_eq!(publish_kinds(&scratch.0), vec![KIND_FULL; 4]);
    // Extending the stored state itself is still a delta.
    let (next_doc, next) = refine_once(&swapped_doc, swapped.as_ref().expect("open state"));
    store
        .append_publish("swap", 3, &next_doc, next.as_ref())
        .expect("appends");
    assert_eq!(publish_kinds(&scratch.0).last(), Some(&KIND_DELTA));
    drop(store);
    let mut store = Store::open(&scratch.0, Durability::Always).expect("reopens");
    let db = store.load_publish("db").expect("loads").expect("on file");
    assert_eq!(
        encoded(&db.doc, db.refine.as_ref()),
        encoded(&outcome.doc, compacted.as_ref())
    );
    let swap = store.load_publish("swap").expect("loads").expect("on file");
    assert_eq!(
        encoded(&swap.doc, swap.refine.as_ref()),
        encoded(&next_doc, next.as_ref())
    );
}

#[test]
fn delta_chains_stop_at_the_cap_and_start_again_whole() {
    let scratch = ScratchFile::new("chain-cap");
    let (a, b) = wide_sources();
    let mut budgeted = imprecise_integrate::integrate_px_shared(
        &a,
        &b,
        &Oracle::uninformed(),
        None,
        &IntegrationOptions {
            max_matchings_per_component: 1,
            ..IntegrationOptions::default()
        },
    )
    .expect("integrates");
    let mut state = budgeted.detach_refine_state().expect("open state");
    let mut doc = budgeted.doc;
    let mut store = Store::open(&scratch.0, Durability::OnClose).expect("opens");
    let versions = MAX_DELTA_CHAIN as u64 + 3;
    for version in 1..=versions {
        store
            .append_publish("db", version, &doc, Some(&state))
            .expect("appends");
        if version == versions {
            break;
        }
        let (next_doc, next) = refine_once(&doc, &state);
        doc = next_doc;
        state = next.expect("test premise: the state stays open");
    }
    drop(store);
    let mut expected = vec![KIND_FULL];
    expected.extend(std::iter::repeat_n(KIND_DELTA, MAX_DELTA_CHAIN));
    expected.extend([KIND_FULL, KIND_DELTA]);
    assert_eq!(publish_kinds(&scratch.0), expected);
    let mut store = Store::open(&scratch.0, Durability::OnClose).expect("reopens");
    let db = store.load_publish("db").expect("loads").expect("on file");
    assert_eq!(db.version, versions);
    assert_eq!(
        encoded(&db.doc, db.refine.as_ref()),
        encoded(&doc, Some(&state))
    );
}

#[test]
fn a_version_2_segment_is_a_typed_unsupported_version() {
    let scratch = ScratchFile::new("v2");
    let mut bytes = b"IMPXSEG1".to_vec();
    bytes.extend_from_slice(&2u32.to_le_bytes());
    std::fs::write(&scratch.0, &bytes).expect("write");
    match Store::open(&scratch.0, Durability::Always) {
        Err(StoreError::UnsupportedVersion(2)) => {}
        Err(other) => panic!("expected UnsupportedVersion(2), got {other}"),
        Ok(_) => panic!("a version-2 segment must not open"),
    }
}

#[test]
fn names_longer_than_the_scanned_head_are_indexed() {
    let scratch = ScratchFile::new("long-name");
    let name = "n".repeat(5000);
    let (a, _) = sources();
    {
        let mut store = Store::open(&scratch.0, Durability::Always).expect("opens");
        store.append_publish(&name, 1, &a, None).expect("appends");
    }
    let mut store = Store::open(&scratch.0, Durability::Always).expect("reopens");
    assert_eq!(store.names().collect::<Vec<_>>(), vec![name.as_str()]);
    let recovered = store.load_publish(&name).expect("loads").expect("on file");
    assert_eq!(recovered.doc.fingerprint(), a.fingerprint());
}
