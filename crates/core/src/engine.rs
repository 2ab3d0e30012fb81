//! The [`Engine`]: a thread-safe probabilistic XML database.
//!
//! The paper's system is "an XQuery module on an XML DBMS" that users
//! query repeatedly while feedback incrementally shrinks the
//! possible-world space (§VII). The engine models that shape for
//! concurrent use:
//!
//! * **Configuration is immutable.** Oracle, schema, integration options
//!   and the feedback world cap are fixed by [`EngineBuilder`] at
//!   construction, so no query ever races a configuration change.
//! * **Documents are versioned snapshots.** The catalog stores
//!   [`Arc<PxDoc>`] per document; readers take a cheap [`DocSnapshot`]
//!   and keep querying it for as long as they like, while writers
//!   (integrate / refine / feedback) publish a *new* version instead of
//!   mutating in place. A reader can never observe a half-conditioned
//!   document.
//! * **Writers share one protocol.** Every publish pins all of its
//!   inputs together under one read lock and computes outside any
//!   lock. Under the write lock it retries only when the output slot is
//!   one of its inputs and has moved since the pin, so no update is
//!   lost; otherwise it appends to the durable store and only then
//!   installs the version (durable before visible). After a few lost
//!   races it pins and computes under the write lock, so sustained
//!   writer traffic cannot starve it.
//! * **Documents are addressed by typed [`DocHandle`]s**, returned by
//!   [`Engine::load_xml`] / [`Engine::integrate`], not by bare strings.
//! * **Queries compile once.** [`Engine::prepare`] returns a
//!   [`PreparedQuery`] that owns a compiled [`QueryPlan`], re-binds it
//!   per snapshot (the last run is cached keyed by document version) and
//!   can be evaluated against any number of snapshots from any thread.
//!   Each version's query index ([`DocIndex`](imprecise_query::DocIndex)) lives in its immutable
//!   document: the first query of the version builds it, and every later
//!   query and feedback round on that version reuses it;
//!   [`Engine::query_many`] runs a batch against one consistent
//!   snapshot, and [`Engine::query_stream`] / [`PreparedQuery::stream`]
//!   yield answers lazily with a probability threshold pushed down into
//!   plan execution.
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
//! let tel = engine.prepare("//person/tel").unwrap();
//! let answers = tel.run(&engine.snapshot(&merged).unwrap()).unwrap();
//! assert!((answers.probability_of("1111") - 0.75).abs() < 1e-9);
//! // The user confirms 1111 is John's number:
//! engine.feedback(&merged, &tel, "1111", true).unwrap();
//! let after = tel.run(&engine.snapshot(&merged).unwrap()).unwrap();
//! assert!((after.probability_of("1111") - 1.0).abs() < 1e-9);
//! ```

use crate::error::ImpreciseError;
use imprecise_feedback::{apply_feedback, FeedbackReport};
use imprecise_integrate::{
    integrate_many_px, integrate_px_shared, IntegrateError, IntegrationOptions, IntegrationOutcome,
    IntegrationStats, InvariantViolation, RefineOptions, RefineState, RefineStep,
};
use imprecise_oracle::Oracle;
use imprecise_pxml::{parse_annotated, to_annotated_xml, NodeBreakdown, PxDoc};
use imprecise_query::{parse_query, AnswerStream, Query, QueryPlan, RankedAnswers};
use imprecise_store::{Durability, Store};
use imprecise_xmlkit::{parse, to_string, Schema};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};

/// Size/uncertainty statistics of one document version.
#[derive(Debug, Clone, PartialEq)]
pub struct DocStats {
    /// Node counts of the compact (factored) representation.
    pub breakdown: NodeBreakdown,
    /// Node count of the paper-equivalent unfactored representation.
    pub unfactored_nodes: f64,
    /// Number of possible worlds.
    pub worlds: f64,
    /// Expected size of a world.
    pub expected_world_size: f64,
    /// True when the document has a single world.
    pub certain: bool,
}

/// What [`Engine::refine_state`] reports for a refinable version:
/// the truncation summary plus the state's provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct RefineStateInfo {
    /// Components whose matching enumeration is still truncated.
    pub open_components: usize,
    /// Probability mass discarded by the worst of them.
    pub max_discarded_mass: f64,
    /// `Some(version)` when the state was recovered from the durable
    /// store by [`Engine::open`] (tagged with the recovered version)
    /// and no in-process publish has replaced it yet; `None` for state
    /// produced in this process.
    pub recovered_at: Option<u64>,
}

/// A typed reference to a document stored in an [`Engine`].
///
/// Handles are cheap to clone and hash, stay valid for the lifetime of
/// the engine, and address the document *slot*: when a writer publishes
/// a new version (incremental integration into the same name, feedback
/// conditioning), the handle observes the latest version while
/// previously taken [`DocSnapshot`]s keep their old one.
#[derive(Clone)]
pub struct DocHandle {
    /// Identity of the engine that issued the handle (see
    /// [`Catalog::engine_id`]): handles never resolve on another engine.
    engine_id: u64,
    id: u64,
    name: Arc<str>,
}

impl DocHandle {
    /// The human-readable name the document was stored under.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl fmt::Debug for DocHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DocHandle({:?}#{})", self.name, self.id)
    }
}

impl PartialEq for DocHandle {
    fn eq(&self, other: &Self) -> bool {
        (self.engine_id, self.id) == (other.engine_id, other.id)
    }
}
impl Eq for DocHandle {}
impl std::hash::Hash for DocHandle {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (self.engine_id, self.id).hash(state);
    }
}

/// An immutable view of one version of one document.
///
/// Snapshots are `Arc`-backed: taking one is O(1), holding one never
/// blocks writers, and the underlying document is guaranteed not to
/// change — concurrent feedback publishes a *new* version instead.
#[derive(Clone, Debug)]
pub struct DocSnapshot {
    handle: DocHandle,
    version: u64,
    doc: Arc<PxDoc>,
}

impl DocSnapshot {
    /// The handle this snapshot was taken from.
    pub fn handle(&self) -> &DocHandle {
        &self.handle
    }

    /// The published version this snapshot pinned (starts at 1,
    /// incremented by every publish into the slot).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The underlying probabilistic document.
    pub fn doc(&self) -> &PxDoc {
        &self.doc
    }

    /// A shared reference to the document, for handing to other threads.
    pub fn doc_arc(&self) -> Arc<PxDoc> {
        Arc::clone(&self.doc)
    }

    /// Size/uncertainty statistics of this version.
    pub fn stats(&self) -> DocStats {
        let doc = &self.doc;
        DocStats {
            breakdown: doc.node_breakdown(),
            unfactored_nodes: doc.unfactored_node_count(),
            worlds: doc.world_count_f64(),
            expected_world_size: doc.expected_world_size(),
            certain: doc.is_certain(),
        }
    }

    /// Serialize this version as annotated XML text.
    pub fn export(&self) -> String {
        to_string(&to_annotated_xml(&self.doc))
    }
}

impl std::ops::Deref for DocSnapshot {
    type Target = PxDoc;

    fn deref(&self) -> &PxDoc {
        &self.doc
    }
}

/// One memoized execution of a prepared query: the full ranked answers
/// of one (engine, slot, version) triple.
#[derive(Debug, Clone)]
struct CachedRun {
    engine_id: u64,
    slot: u64,
    version: u64,
    ranked: Arc<RankedAnswers>,
}

impl CachedRun {
    fn matches(&self, snapshot: &DocSnapshot) -> bool {
        (self.engine_id, self.slot, self.version)
            == (
                snapshot.handle.engine_id,
                snapshot.handle.id,
                snapshot.version,
            )
    }
}

/// A query compiled once (parse + plan), evaluable against any number of
/// documents.
///
/// Prepared queries are cheap to clone and `Send + Sync`, so one
/// instance can serve every thread of a server. Obtain one with
/// [`Engine::prepare`] (or [`PreparedQuery::parse`] without an engine).
///
/// Beyond the parse, a prepared query owns a compiled
/// [`QueryPlan`] and **re-binds it per snapshot**: the last full run is
/// cached keyed by document version (clones share the cache), so
/// repeated [`run`](Self::run)s against the same version return without
/// touching the document, and a feedback/integration publish —
/// which bumps the version — transparently invalidates it.
#[derive(Clone, Debug)]
pub struct PreparedQuery {
    text: Arc<str>,
    plan: Arc<QueryPlan>,
    cache: Arc<Mutex<Option<CachedRun>>>,
}

impl PreparedQuery {
    /// Parse and compile `text` into a reusable query plan.
    pub fn parse(text: &str) -> Result<Self, ImpreciseError> {
        Ok(PreparedQuery {
            text: Arc::from(text),
            plan: Arc::new(QueryPlan::compile(&parse_query(text)?)),
            cache: Arc::new(Mutex::new(None)),
        })
    }

    /// The original query text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The parsed abstract syntax (pre-normalization).
    pub fn ast(&self) -> &Query {
        self.plan.source()
    }

    /// The compiled plan.
    pub fn plan(&self) -> &QueryPlan {
        &self.plan
    }

    /// The `imprecise explain` rendering of the compiled plan.
    pub fn explain(&self) -> String {
        self.plan.to_string()
    }

    /// Evaluate against a snapshot, returning ranked answers.
    ///
    /// Serves from the per-version cache when this prepared query (or a
    /// clone) already ran against the same document version.
    pub fn run(&self, snapshot: &DocSnapshot) -> Result<RankedAnswers, ImpreciseError> {
        {
            let cache = self
                .cache
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(cached) = cache.as_ref() {
                if cached.matches(snapshot) {
                    return Ok((*cached.ranked).clone());
                }
            }
        }
        // Evaluate outside the lock; a racing clone at worst recomputes.
        let ranked = self.plan.collect(snapshot.doc())?;
        let mut cache = self
            .cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *cache = Some(CachedRun {
            engine_id: snapshot.handle.engine_id,
            slot: snapshot.handle.id,
            version: snapshot.version,
            ranked: Arc::new(ranked.clone()),
        });
        Ok(ranked)
    }

    /// Evaluate against a snapshot keeping only answers with probability
    /// at least `min_probability`. Exactly [`run`](Self::run) filtered —
    /// and served from the same per-version cache; use
    /// [`stream`](Self::stream) for the threshold-pushdown path when
    /// the full answer set is not wanted at all.
    pub fn run_at(
        &self,
        snapshot: &DocSnapshot,
        min_probability: f64,
    ) -> Result<RankedAnswers, ImpreciseError> {
        let full = self.run(snapshot)?;
        Ok(RankedAnswers::from_pairs(
            full.items
                .into_iter()
                .filter(|a| a.probability >= min_probability)
                .map(|a| (a.value, a.probability))
                .collect(),
        ))
    }

    /// Stream answers lazily from a snapshot, with the threshold (if
    /// any) pushed down into execution: candidates whose probability
    /// bound falls below it are pruned before any exact probability is
    /// computed. The stream owns what it needs and may outlive the
    /// snapshot.
    pub fn stream(
        &self,
        snapshot: &DocSnapshot,
        min_probability: Option<f64>,
    ) -> Result<AnswerStream, ImpreciseError> {
        self.stream_doc(snapshot.doc(), min_probability)
    }

    /// Evaluate against a bare probabilistic document (no answer cache: a
    /// bare document has no version identity; its index is still built
    /// once, see [`DocIndex::of`](imprecise_query::DocIndex::of)).
    pub fn run_doc(&self, doc: &PxDoc) -> Result<RankedAnswers, ImpreciseError> {
        Ok(self.plan.collect(doc)?)
    }

    /// Stream answers lazily from a bare probabilistic document.
    pub fn stream_doc(
        &self,
        doc: &PxDoc,
        min_probability: Option<f64>,
    ) -> Result<AnswerStream, ImpreciseError> {
        let stream = match min_probability {
            None => self.plan.execute(doc)?,
            Some(t) => self.plan.execute_at(doc, t)?,
        };
        Ok(stream)
    }
}

/// How many optimistic pin–compute–install rounds [`Engine::write`]
/// attempts before falling back to computing under the write lock. The
/// fallback bounds worst-case work under contention: optimistic rounds
/// never block readers, but a slot receiving publishes faster than one
/// recompute would otherwise starve the writer indefinitely.
const OPTIMISTIC_ROUNDS: usize = 8;

/// Arenas below this many total slots are never compacted after a
/// refine step: walking the document to reclaim a few kilobytes costs
/// more than the garbage.
const COMPACT_MIN_SLOTS: usize = 1 << 12;

/// Detached-slot fraction above which a refine step compacts the arena
/// before republishing: incremental emission leaves garbage only when a
/// synthetic frontier (or nested re-truncation) replaced subtrees, so a
/// quarter of the arena dead means real waste, not steady-state churn.
const COMPACT_DETACHED_FRACTION: f64 = 0.25;

/// One catalog slot: the current version of a named document, plus —
/// when that version came out of a budget-truncated integration — the
/// refinable state (persisted enumeration frontiers and retained
/// sources) belonging to *exactly* that version. Every publish replaces
/// both together, so a frontier can never be applied to a document it
/// does not point into.
struct Slot {
    name: Arc<str>,
    version: u64,
    doc: Arc<PxDoc>,
    refine: Option<Arc<RefineState>>,
    /// `Some(version)` while the slot's content is exactly what
    /// [`Engine::open`] recovered from the durable store (tagged with
    /// the recovered version); cleared by the first in-process publish.
    /// Surfaced through [`RefineStateInfo::recovered_at`] so callers —
    /// and `imprecise refine --stats` — can tell resumed state from
    /// state produced in this process.
    recovered_at: Option<u64>,
}

impl Slot {
    /// Install the next version: `doc` with the refinable state
    /// belonging to it. Returns the version it displaced.
    fn publish(&mut self, doc: Arc<PxDoc>, refine: Option<Arc<RefineState>>) -> Displaced {
        self.version += 1;
        self.recovered_at = None;
        (
            std::mem::replace(&mut self.doc, doc),
            std::mem::replace(&mut self.refine, refine),
        )
    }
}

/// The version a publish replaced. Whoever holds the last reference to
/// it frees its arena and state on drop, which can take milliseconds,
/// so the engine drops it only after releasing the catalog lock.
type Displaced = (Arc<PxDoc>, Option<Arc<RefineState>>);

/// The versioned document catalog behind the engine's `RwLock`.
///
/// The lock is held only to look up or swap `Arc`s — never across
/// parsing, integration, query evaluation or conditioning.
struct Catalog {
    /// Process-unique identity of the owning engine, stamped into every
    /// issued [`DocHandle`] so a handle from one engine can never
    /// resolve to an unrelated document on another (slot ids alone are
    /// only unique per engine).
    engine_id: u64,
    slots: BTreeMap<u64, Slot>,
    by_name: BTreeMap<Arc<str>, u64>,
    next_id: u64,
}

impl Catalog {
    fn new() -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT_ENGINE_ID: AtomicU64 = AtomicU64::new(0);
        Catalog {
            engine_id: NEXT_ENGINE_ID.fetch_add(1, Ordering::Relaxed),
            slots: BTreeMap::new(),
            by_name: BTreeMap::new(),
            next_id: 0,
        }
    }

    /// Publish `doc` under `name`: into the existing slot (bumping its
    /// version) if the name is taken, else into a fresh slot. `refine`
    /// is the refinable state belonging to this version (`None` for
    /// exact documents); whatever state the previous version carried is
    /// replaced with it. The previous version is handed back, so the
    /// caller can free it after releasing the lock.
    fn publish(
        &mut self,
        name: &str,
        doc: Arc<PxDoc>,
        refine: Option<Arc<RefineState>>,
    ) -> (DocHandle, Option<Displaced>) {
        if let Some(&id) = self.by_name.get(name) {
            // The two indices are updated together, so the slot is
            // always present; if they ever diverged we self-heal by
            // minting a fresh slot below (re-pointing the name at it)
            // instead of panicking mid-publish.
            if let Some(slot) = self.slots.get_mut(&id) {
                let displaced = slot.publish(doc, refine);
                let handle = DocHandle {
                    engine_id: self.engine_id,
                    id,
                    name: Arc::clone(&slot.name),
                };
                return (handle, Some(displaced));
            }
        }
        let name: Arc<str> = Arc::from(name);
        let id = self.next_id;
        self.next_id += 1;
        self.slots.insert(
            id,
            Slot {
                name: Arc::clone(&name),
                version: 1,
                doc,
                refine,
                recovered_at: None,
            },
        );
        self.by_name.insert(Arc::clone(&name), id);
        let handle = DocHandle {
            engine_id: self.engine_id,
            id,
            name,
        };
        (handle, None)
    }

    /// The version number the *next* publish into `name` will carry —
    /// what a durable append must record so the store and the catalog
    /// agree after the in-memory mutation that follows it.
    fn next_version(&self, name: &str) -> u64 {
        self.by_name
            .get(name)
            .and_then(|id| self.slots.get(id))
            .map_or(1, |slot| slot.version + 1)
    }

    /// Install a slot recovered from the durable store: exactly the
    /// persisted version number (not a fresh `1`), marked
    /// `recovered_at` so provenance survives until the first in-process
    /// publish. Recovery runs before the engine is handed out, so the
    /// name cannot already be taken.
    fn restore_slot(
        &mut self,
        name: &str,
        version: u64,
        doc: Arc<PxDoc>,
        refine: Option<Arc<RefineState>>,
    ) {
        let name: Arc<str> = Arc::from(name);
        let id = self.next_id;
        self.next_id += 1;
        self.slots.insert(
            id,
            Slot {
                name: Arc::clone(&name),
                version,
                doc,
                refine,
                recovered_at: Some(version),
            },
        );
        self.by_name.insert(name, id);
    }

    /// The slot of a handle issued by this engine, or the
    /// `NoSuchDocument` error every operation reports for foreign or
    /// unknown handles.
    fn slot_of(&self, handle: &DocHandle) -> Result<&Slot, ImpreciseError> {
        (handle.engine_id == self.engine_id)
            .then(|| self.slots.get(&handle.id))
            .flatten()
            .ok_or_else(|| ImpreciseError::NoSuchDocument(handle.name.to_string()))
    }

    /// Pin the current version of every input of a write.
    fn pin(&self, inputs: &[&DocHandle]) -> Result<Vec<Pinned>, ImpreciseError> {
        inputs
            .iter()
            .map(|handle| {
                let slot = self.slot_of(handle)?;
                Ok(Pinned {
                    slot: handle.id,
                    version: slot.version,
                    doc: Arc::clone(&slot.doc),
                    refine: slot.refine.clone(),
                })
            })
            .collect()
    }

    /// True when `out` names one of the `pinned` slots and that slot
    /// has published since the pin: installing now would lose that
    /// update. Publishing into a slot that was not read is plain
    /// replacement.
    fn moved(&self, out: &str, pinned: &[Pinned]) -> bool {
        self.by_name.get(out).is_some_and(|&out_id| {
            pinned.iter().any(|p| {
                p.slot == out_id && self.slots.get(&out_id).map(|s| s.version) != Some(p.version)
            })
        })
    }
}

/// One input of a write, pinned under the same read lock as the
/// write's other inputs.
struct Pinned {
    slot: u64,
    version: u64,
    doc: Arc<PxDoc>,
    refine: Option<Arc<RefineState>>,
}

/// The version a write installs: the document and the refinable state
/// belonging to it.
struct Publish(Arc<PxDoc>, Option<RefineState>);

impl Publish {
    /// An integration outcome as a publish, plus its statistics.
    fn outcome(mut outcome: IntegrationOutcome) -> (Publish, IntegrationStats) {
        let refine = outcome.detach_refine_state();
        (Publish(Arc::new(outcome.doc), refine), outcome.stats)
    }
}

/// Session-wide configuration plus the document catalog.
struct Shared {
    oracle: Arc<Oracle>,
    schema: Option<Schema>,
    options: IntegrationOptions,
    feedback_world_cap: usize,
    catalog: RwLock<Catalog>,
    /// The durable tier, when the engine was built
    /// [`with_store`](EngineBuilder::with_store). Lock order is
    /// catalog → store, always: every publish appends to the store
    /// *while holding the catalog write lock*, immediately before the
    /// in-memory mutation, so the segment's version order is exactly
    /// the catalog's publish order.
    store: Option<Mutex<Store>>,
}

impl Shared {
    /// Catalog read lock. A poisoned lock is recovered rather than
    /// propagated: every publish swaps fully-built `Arc`s in as its
    /// last step, so a writer that panicked mid-call cannot leave a
    /// torn slot behind — the data is consistent even when the flag
    /// says a panic happened under the lock.
    fn catalog_read(&self) -> std::sync::RwLockReadGuard<'_, Catalog> {
        self.catalog
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Catalog write lock; see [`catalog_read`](Self::catalog_read) for
    /// why poisoning is recovered.
    fn catalog_write(&self) -> std::sync::RwLockWriteGuard<'_, Catalog> {
        self.catalog
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Builds an [`Engine`] from session-wide configuration.
///
/// The configuration ("configure the system with a few simple knowledge
/// rules", §VII) is frozen into the engine at [`build`](Self::build)
/// time; this is what makes the engine's read path lock-free over
/// config.
pub struct EngineBuilder {
    oracle: Arc<Oracle>,
    schema: Option<Schema>,
    options: IntegrationOptions,
    feedback_world_cap: usize,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            oracle: Arc::new(Oracle::uninformed()),
            schema: None,
            options: IntegrationOptions::default(),
            feedback_world_cap: 100_000,
        }
    }
}

impl fmt::Debug for EngineBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineBuilder")
            .field("oracle", &self.oracle)
            .field("schema_declared", &self.schema.is_some())
            .field("feedback_world_cap", &self.feedback_world_cap)
            .finish_non_exhaustive()
    }
}

impl EngineBuilder {
    /// A builder with an uninformed Oracle (no rules, uniform prior),
    /// no schema and default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Use this Oracle for integration decisions.
    pub fn oracle(self, oracle: Oracle) -> Self {
        self.oracle_shared(Arc::new(oracle))
    }

    /// Use an Oracle shared with other engines (rule sets hold no
    /// per-engine state, so one Oracle can serve many engines).
    pub fn oracle_shared(mut self, oracle: Arc<Oracle>) -> Self {
        self.oracle = oracle;
        self
    }

    /// Configure the Oracle from a rule file (see
    /// [`imprecise_oracle::dsl`] for the language).
    pub fn rules(mut self, text: &str) -> Result<Self, ImpreciseError> {
        self.oracle = Arc::new(imprecise_oracle::parse_rules(text)?);
        Ok(self)
    }

    /// Use this already-parsed DTD-lite schema.
    pub fn schema(mut self, schema: Schema) -> Self {
        self.schema = Some(schema);
        self
    }

    /// Set the DTD-lite schema from its textual declarations.
    pub fn schema_text(mut self, dtd: &str) -> Result<Self, ImpreciseError> {
        self.schema = Some(Schema::parse(dtd)?);
        Ok(self)
    }

    /// Adjust integration options.
    pub fn options(mut self, options: IntegrationOptions) -> Self {
        self.options = options;
        self
    }

    /// Cap used by feedback's world-rebuild fallback (default 100 000).
    pub fn feedback_world_cap(mut self, cap: usize) -> Self {
        self.feedback_world_cap = cap;
        self
    }

    /// Attach a durable store at `path` (created if absent): every
    /// publish — integrate, each refine installment, feedback,
    /// compaction — is appended to the segment file *before* it becomes
    /// visible in the in-memory catalog, and opening the same path
    /// later recovers the catalog to the last published versions,
    /// including open refinement state that resumes bit-for-bit in the
    /// new process. A refine installment is appended as a delta record
    /// against the previous version, so its cost on disk follows what
    /// the step changed, not the size of the document.
    ///
    /// Opening a store can fail, so this returns a
    /// [`DurableEngineBuilder`] whose terminal operation is the
    /// fallible [`open`](DurableEngineBuilder::open) — the type makes
    /// "durable engines are opened, not built" a compile-time fact
    /// rather than a runtime panic.
    pub fn with_store(self, path: impl AsRef<Path>) -> DurableEngineBuilder {
        DurableEngineBuilder {
            inner: self,
            path: path.as_ref().to_path_buf(),
            durability: Durability::Always,
        }
    }

    /// Freeze the configuration into an [`Engine`]. Infallible: without
    /// a store there is nothing that can go wrong at construction.
    pub fn build(self) -> Engine {
        self.into_engine(None)
    }

    fn into_engine(self, store: Option<Store>) -> Engine {
        Engine {
            shared: Arc::new(Shared {
                oracle: self.oracle,
                schema: self.schema,
                options: self.options,
                feedback_world_cap: self.feedback_world_cap,
                catalog: RwLock::new(Catalog::new()),
                store: store.map(Mutex::new),
            }),
        }
    }
}

/// An [`EngineBuilder`] with a durable store attached; made by
/// [`EngineBuilder::with_store`].
#[derive(Debug)]
pub struct DurableEngineBuilder {
    inner: EngineBuilder,
    path: PathBuf,
    durability: Durability,
}

impl DurableEngineBuilder {
    /// When store appends reach stable storage (default
    /// [`Durability::Always`]: sync on every publish;
    /// [`Durability::OnClose`] defers to drop).
    pub fn durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// Open (or create) the durable store, recover the catalog from it
    /// — names restored in sorted order, open refinement state
    /// re-attached so [`Engine::refine`] resumes exactly where the
    /// previous process stopped — and freeze the configuration into an
    /// [`Engine`]. Store failures surface as
    /// [`ImpreciseError::Store`].
    pub fn open(self) -> Result<Engine, ImpreciseError> {
        let store = Store::open(&self.path, self.durability)?;
        let engine = self.inner.into_engine(Some(store));
        engine.recover_catalog()?;
        Ok(engine)
    }
}

/// A thread-safe probabilistic XML database: immutable configuration, a
/// versioned catalog of [`Arc`]-shared documents, and integrate / query
/// / feedback operations that all take `&self`.
///
/// `Engine` is `Send + Sync` and cheap to clone (clones share the same
/// catalog), so one instance can serve any number of reader and writer
/// threads; see the [module docs](self) for the concurrency model and a
/// worked example.
#[derive(Clone)]
pub struct Engine {
    shared: Arc<Shared>,
}

impl Default for Engine {
    fn default() -> Self {
        EngineBuilder::default().build()
    }
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("documents", &self.document_names())
            .field("oracle", &self.shared.oracle)
            .field("schema_declared", &self.shared.schema.is_some())
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Start building an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// An engine with an uninformed Oracle and default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open an engine backed by the durable store at `path` (created if
    /// absent), recovering the catalog to the last published versions —
    /// including open refinement state, which
    /// [`refine`](Self::refine) then resumes exactly where the previous
    /// process stopped. Engine *configuration* (Oracle, schema,
    /// options) is not persisted: this convenience opens with defaults,
    /// so sessions that configure any of it should use
    /// `Engine::builder()…with_store(path).open()` with the same
    /// configuration every time.
    pub fn open(path: impl AsRef<Path>) -> Result<Engine, ImpreciseError> {
        Engine::builder().with_store(path).open()
    }

    /// Populate the catalog from the attached store (no-op without
    /// one). Runs before the engine is handed to the caller; names are
    /// restored in sorted order, so slot ids are deterministic across
    /// recoveries.
    fn recover_catalog(&self) -> Result<(), ImpreciseError> {
        let Some(store) = &self.shared.store else {
            return Ok(());
        };
        let mut store = store
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let names: Vec<String> = store.names().map(str::to_string).collect();
        let mut catalog = self.shared.catalog_write();
        for name in names {
            if let Some(rec) = store.load_publish(&name)? {
                catalog.restore_slot(
                    &name,
                    rec.version,
                    Arc::new(rec.doc),
                    rec.refine.map(Arc::new),
                );
            }
        }
        Ok(())
    }

    /// The one write path: pin `inputs` together, run `compute` on them
    /// outside any lock, and install what it returns as the next
    /// version of `out`. `label` names the writer in strict-invariants
    /// panics.
    ///
    /// The install is abandoned and `compute` rerun on fresh pins only
    /// when `out` is one of the inputs and has moved since the pin (see
    /// [`Catalog::moved`]). After [`OPTIMISTIC_ROUNDS`] lost races the
    /// pin and `compute` run under the write lock, so nothing can race
    /// them. A `compute` that returns no [`Publish`] publishes and
    /// persists nothing; the handle is then `None`.
    ///
    /// On both paths the displaced version and the pins are dropped
    /// only after the write lock is released: whichever of them holds
    /// the last reference to a version frees its arena, and no reader
    /// waits for that.
    fn write<T>(
        &self,
        label: &'static str,
        inputs: &[&DocHandle],
        out: &str,
        mut compute: impl FnMut(&[Pinned]) -> Result<(Option<Publish>, T), ImpreciseError>,
    ) -> Result<(Option<DocHandle>, T), ImpreciseError> {
        for _ in 0..OPTIMISTIC_ROUNDS {
            let pinned = self.shared.catalog_read().pin(inputs)?;
            let (publish, value) = compute(&pinned)?;
            let Some(publish) = publish else {
                return Ok((None, value));
            };
            let mut catalog = self.shared.catalog_write();
            if !catalog.moved(out, &pinned) {
                let installed = self.install(&mut catalog, label, out, publish);
                drop(catalog);
                let (handle, _displaced) = installed?;
                return Ok((Some(handle), value));
            }
            // The slot we republish moved; retry on its new version.
        }
        // Contended slot: compute under the write lock so nothing races.
        let mut catalog = self.shared.catalog_write();
        let pinned = catalog.pin(inputs)?;
        let result = (|| {
            let (publish, value) = compute(&pinned)?;
            let installed = publish
                .map(|publish| self.install(&mut catalog, label, out, publish))
                .transpose()?;
            Ok::<_, ImpreciseError>((installed, value))
        })();
        drop(catalog);
        drop(pinned);
        let (installed, value) = result?;
        let handle = installed.map(|(handle, _displaced)| handle);
        Ok((handle, value))
    }

    /// Install a publish as the next version of `out`: shadow-check it
    /// (strict-invariants only), durably append it to the store (when
    /// attached), and only then make it visible. Called with the
    /// catalog write lock held — see [`Shared::store`] for the lock
    /// order — so an `Err` return means the catalog was **not**
    /// mutated: the slot still shows the previous version, and the
    /// at-most-one stray record a failed append may have left behind is
    /// superseded by the next successful publish of the same version
    /// number (recovery keeps the last record per name).
    fn install(
        &self,
        catalog: &mut Catalog,
        label: &'static str,
        out: &str,
        Publish(doc, refine): Publish,
    ) -> Result<(DocHandle, Option<Displaced>), ImpreciseError> {
        #[cfg(feature = "strict-invariants")]
        imprecise_integrate::verify::shadow_check_state(&doc, refine.as_ref(), label);
        #[cfg(not(feature = "strict-invariants"))]
        let _ = label;
        if let Some(store) = &self.shared.store {
            let mut store = store
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            store.append_publish(out, catalog.next_version(out), &doc, refine.as_ref())?;
        }
        Ok(catalog.publish(out, doc, refine.map(Arc::new)))
    }

    /// The configured Oracle.
    pub fn oracle(&self) -> &Oracle {
        &self.shared.oracle
    }

    /// The configured schema, if any.
    pub fn schema(&self) -> Option<&Schema> {
        self.shared.schema.as_ref()
    }

    /// The configured integration options.
    pub fn options(&self) -> &IntegrationOptions {
        &self.shared.options
    }

    /// Names of all stored documents, sorted.
    pub fn document_names(&self) -> Vec<String> {
        let catalog = self.shared.catalog_read();
        catalog.by_name.keys().map(|n| n.to_string()).collect()
    }

    /// The handle of the document stored under `name`, if any.
    pub fn handle(&self, name: &str) -> Option<DocHandle> {
        let catalog = self.shared.catalog_read();
        let &id = catalog.by_name.get(name)?;
        let slot = &catalog.slots[&id];
        Some(DocHandle {
            engine_id: catalog.engine_id,
            id,
            name: Arc::clone(&slot.name),
        })
    }

    /// Parse an XML document (plain, or annotated probabilistic XML
    /// using `px:prob`/`px:poss` markers) and publish it under `name`.
    /// Re-using a name publishes a new version into the same slot.
    pub fn load_xml(&self, name: &str, text: &str) -> Result<DocHandle, ImpreciseError> {
        let doc = parse(text)?;
        let px = parse_annotated(&doc)?;
        self.insert_arc(name, Arc::new(px))
    }

    /// Publish an already-built probabilistic document under `name`.
    /// Re-using a name publishes a new version into the same slot.
    ///
    /// With a durable store attached the append happens before the
    /// document becomes visible, and a failed append surfaces as
    /// [`ImpreciseError::Store`]; store-less engines cannot fail here.
    pub fn insert(&self, name: &str, doc: PxDoc) -> Result<DocHandle, ImpreciseError> {
        self.insert_arc(name, Arc::new(doc))
    }

    /// Publish an already-shared probabilistic document under `name`
    /// without copying it (e.g. one taken from another engine's
    /// [`DocSnapshot::doc_arc`]). Fallible like
    /// [`insert`](Self::insert).
    pub fn insert_arc(&self, name: &str, doc: Arc<PxDoc>) -> Result<DocHandle, ImpreciseError> {
        let (handle, ()) = self.write("publish", &[], name, |_| {
            Ok((Some(Publish(Arc::clone(&doc), None)), ()))
        })?;
        handle.ok_or_else(|| ImpreciseError::NoSuchDocument(name.to_string()))
    }

    /// Pin the current version of a document for reading.
    pub fn snapshot(&self, handle: &DocHandle) -> Result<DocSnapshot, ImpreciseError> {
        let catalog = self.shared.catalog_read();
        let slot = catalog.slot_of(handle)?;
        Ok(DocSnapshot {
            handle: handle.clone(),
            version: slot.version,
            doc: Arc::clone(&slot.doc),
        })
    }

    /// Integrate documents `a` and `b` and publish the probabilistic
    /// result under `out`, returning its handle and the integration
    /// statistics. `a` and `b` are pinned together, so the integration
    /// combines two versions that coexisted; the catalog lock is not
    /// held during the integration itself.
    ///
    /// If the configured budget truncated components, the published
    /// version carries their persisted enumeration frontiers:
    /// [`refine`](Self::refine) can then spend more budget on exactly
    /// those components without re-integrating.
    ///
    /// When `out` republishes one of the *inputs* (incremental
    /// integration, e.g. `integrate(&merged, &late, "merged")`), the
    /// publish is a read-modify-write of that slot and gets the same
    /// lost-update protection as [`feedback`](Self::feedback): if
    /// another writer published into the input slot mid-integration,
    /// the integration is recomputed from the new version rather than
    /// silently discarding the other writer's update. Publishing into
    /// an *unrelated* existing name is plain replacement and needs no
    /// such check.
    pub fn integrate(
        &self,
        a: &DocHandle,
        b: &DocHandle,
        out: &str,
    ) -> Result<(DocHandle, IntegrationStats), ImpreciseError> {
        let shared = &self.shared;
        let (handle, stats) = self.write("integrate", &[a, b], out, |pinned| {
            let (publish, stats) = Publish::outcome(integrate_px_shared(
                &pinned[0].doc,
                &pinned[1].doc,
                &shared.oracle,
                shared.schema.as_ref(),
                &shared.options,
            )?);
            Ok((Some(publish), stats))
        })?;
        let handle = handle.ok_or_else(|| ImpreciseError::NoSuchDocument(out.to_string()))?;
        Ok((handle, stats))
    }

    /// Integrate any number of source documents by left-fold
    /// (`((s₀ ⊕ s₁) ⊕ s₂) ⊕ …`) and publish the result under `out`,
    /// returning its handle plus the statistics of every pairwise step.
    /// This is the batch form of the paper's incremental integration
    /// loop; budgets ([`IntegrationOptions`]) apply per step, so an
    /// N-source fold degrades gracefully instead of exploding.
    ///
    /// Runs on one consistent set of snapshots pinned together; like
    /// [`integrate`](Self::integrate), republishing one of the *inputs*
    /// gets lost-update protection (the fold is recomputed if that
    /// input moved mid-integration).
    pub fn integrate_many(
        &self,
        sources: &[DocHandle],
        out: &str,
    ) -> Result<(DocHandle, Vec<IntegrationStats>), ImpreciseError> {
        if sources.is_empty() {
            return Err(ImpreciseError::Integrate(IntegrateError::NoSources));
        }
        let shared = &self.shared;
        let inputs: Vec<&DocHandle> = sources.iter().collect();
        let (handle, steps) = self.write("integrate_many", &inputs, out, |pinned| {
            let docs: Vec<&PxDoc> = pinned.iter().map(|p| p.doc.as_ref()).collect();
            let result = integrate_many_px(
                &docs,
                &shared.oracle,
                shared.schema.as_ref(),
                &shared.options,
            )?;
            let (publish, _) = Publish::outcome(result.outcome);
            Ok((Some(publish), result.steps))
        })?;
        let handle = handle.ok_or_else(|| ImpreciseError::NoSuchDocument(out.to_string()))?;
        Ok((handle, steps))
    }

    /// The *incremental* mode of [`integrate_many`](Self::integrate_many):
    /// publish a queryable version of `out` after **every** fold step
    /// instead of once at the end — the paper's pay-as-you-go loop, where
    /// readers work with partial folds while later sources arrive.
    ///
    /// The first source is published as version 1 of `out`; every further
    /// step folds the slot's *current* version with the next source and
    /// publishes the result. Because each step reads the current version
    /// under the same lost-update protection as
    /// [`integrate`](Self::integrate), a [`refine`](Self::refine) or
    /// [`feedback`](Self::feedback) applied between steps is folded in
    /// rather than overwritten. Each published version carries its own
    /// truncation frontiers, so partial folds are refinable too.
    pub fn integrate_many_incremental(
        &self,
        sources: &[DocHandle],
        out: &str,
    ) -> Result<(DocHandle, Vec<IntegrationStats>), ImpreciseError> {
        let (first, rest) = sources
            .split_first()
            .ok_or(ImpreciseError::Integrate(IntegrateError::NoSources))?;
        let seed = self.snapshot(first)?;
        seed.doc().validate().map_err(IntegrateError::from)?;
        let mut handle = self.insert_arc(out, seed.doc_arc())?;
        let mut steps = Vec::with_capacity(rest.len());
        for source in rest {
            let (next, stats) = self.integrate(&handle, source, out)?;
            handle = next;
            steps.push(stats);
        }
        Ok((handle, steps))
    }

    /// Spend an additional matching budget on the document's truncated
    /// components — largest discarded mass first — and publish the
    /// refined result as a new version of the same slot.
    ///
    /// This is the pay-as-you-go half of [`integrate`](Self::integrate):
    /// a budgeted integration keeps each truncated component's
    /// enumeration frontier next to the published version; `refine`
    /// resumes those frontiers, grafts the extended matching sets into
    /// the existing document, and re-publishes. Repeated calls converge
    /// to the exact integration (bit-identical to an unbudgeted run);
    /// each step's [`RefineStep`] reports the shrinking discarded mass.
    ///
    /// Returns an empty step when the document has nothing to refine
    /// (exact, foreign-produced, or finalized by feedback). Writers race
    /// safely: the same optimistic version-check-and-retry as
    /// [`feedback`](Self::feedback) protects against lost updates, and a
    /// refinement computed against a stale version is discarded and
    /// recomputed rather than published.
    ///
    /// A step runs on `options.threads` workers if set, else on the
    /// engine's [`IntegrationOptions::parallelism`], for a state recovered
    /// from a store exactly as for one integrated in this process: the
    /// worker count is not part of stored state.
    pub fn refine(
        &self,
        handle: &DocHandle,
        options: &RefineOptions,
    ) -> Result<RefineStep, ImpreciseError> {
        let (_, step) = self.write("refine", &[handle], handle.name(), |pinned| {
            match &pinned[0].refine {
                Some(state) => self.refine_version(&pinned[0].doc, state, options),
                None => Ok((None, RefineStep::default())),
            }
        })?;
        Ok(step)
    }

    /// Refine one pinned (document, state) pair, returning the refined
    /// document with the state belonging to it, and the step report.
    ///
    /// When detached garbage crosses the compaction thresholds, the
    /// arena is compacted — frontiers re-anchored — before the document
    /// is handed back for publication, so the published version never
    /// carries unbounded dead slots. Compaction rides inside the same
    /// publish (no extra version bump) and is reflected in the step's
    /// arena figures.
    fn refine_version(
        &self,
        doc: &Arc<PxDoc>,
        state: &Arc<RefineState>,
        options: &RefineOptions,
    ) -> Result<(Option<Publish>, RefineStep), ImpreciseError> {
        let shared = &self.shared;
        let options = RefineOptions {
            threads: options.threads.or(Some(shared.options.parallelism)),
            ..*options
        };
        let mut outcome = IntegrationOutcome::with_refine_state((**doc).clone(), (**state).clone());
        let mut step = outcome.refine(&shared.oracle, shared.schema.as_ref(), &options)?;
        if step.arena_total >= COMPACT_MIN_SLOTS
            && (step.arena_total - step.arena_live) as f64
                >= COMPACT_DETACHED_FRACTION * step.arena_total as f64
        {
            outcome.compact_arena();
            let arena = outcome.doc.arena_stats();
            step.arena_live = arena.live;
            step.arena_total = arena.total;
            step.compacted = true;
        }
        let (publish, _) = Publish::outcome(outcome);
        Ok((Some(publish), step))
    }

    /// The refinable state of the document's current version, if any:
    /// how many components are still truncated, how much mass the worst
    /// of them discarded, and whether the state was produced in this
    /// process or recovered from the durable store. `None` means the
    /// version is exact (or not refinable).
    pub fn refine_state(
        &self,
        handle: &DocHandle,
    ) -> Result<Option<RefineStateInfo>, ImpreciseError> {
        let catalog = self.shared.catalog_read();
        let slot = catalog.slot_of(handle)?;
        Ok(slot.refine.as_ref().map(|s| RefineStateInfo {
            open_components: s.open_components(),
            max_discarded_mass: s.max_discarded_mass(),
            recovered_at: slot.recovered_at,
        }))
    }

    /// Run the deep invariant verifier against the current version of a
    /// document: arena representation ([`PxDoc::deep_check`]) plus — for
    /// refinable versions — every persisted frontier's anchor, canonical
    /// ordering, mass accounting, and component digest.
    ///
    /// This is the on-demand form of the `strict-invariants` feature,
    /// which runs the same checks automatically after every publish.
    /// Runs on a snapshot; the catalog lock is not held during the walk.
    pub fn check_invariants(&self, handle: &DocHandle) -> Result<(), ImpreciseError> {
        let (doc, state) = {
            let catalog = self.shared.catalog_read();
            let slot = catalog.slot_of(handle)?;
            (Arc::clone(&slot.doc), slot.refine.clone())
        };
        match state {
            Some(state) => state.verify(&doc),
            None => doc.deep_check().map_err(InvariantViolation::from),
        }
        .map_err(ImpreciseError::from)
    }

    /// Parse and compile `text` into a [`PreparedQuery`] (owning its
    /// [`QueryPlan`]) usable against any document, from any thread,
    /// without re-parsing. The prepared query re-binds its plan per
    /// snapshot, caching the last run keyed by document version.
    pub fn prepare(&self, text: &str) -> Result<PreparedQuery, ImpreciseError> {
        PreparedQuery::parse(text)
    }

    /// One-shot convenience: snapshot `handle`, compile `query_text` and
    /// evaluate it. With `min_probability` set, the threshold is pushed
    /// down into plan execution (answers below it are pruned before
    /// their exact probability is computed). Prefer
    /// [`prepare`](Self::prepare) + [`PreparedQuery::run`] when the same
    /// query runs more than once.
    pub fn query(
        &self,
        handle: &DocHandle,
        query_text: &str,
        min_probability: Option<f64>,
    ) -> Result<RankedAnswers, ImpreciseError> {
        let snapshot = self.snapshot(handle)?;
        let query = self.prepare(query_text)?;
        match min_probability {
            None => query.run(&snapshot),
            Some(_) => Ok(query.stream(&snapshot, min_probability)?.into_ranked()),
        }
    }

    /// One-shot streaming: snapshot `handle`, compile `query_text` and
    /// return the lazy [`AnswerStream`] (threshold pushed down when
    /// set). The stream owns everything it needs — it stays valid
    /// however long the caller holds it, across any concurrent
    /// publishes.
    pub fn query_stream(
        &self,
        handle: &DocHandle,
        query_text: &str,
        min_probability: Option<f64>,
    ) -> Result<AnswerStream, ImpreciseError> {
        let snapshot = self.snapshot(handle)?;
        let query = self.prepare(query_text)?;
        query.stream(&snapshot, min_probability)
    }

    /// Evaluate a batch of prepared queries against one consistent
    /// snapshot of `handle`: every answer reflects the same document
    /// version even if writers publish mid-batch. With `min_probability`
    /// set, the threshold is pushed down into every plan execution.
    pub fn query_many(
        &self,
        handle: &DocHandle,
        queries: &[PreparedQuery],
        min_probability: Option<f64>,
    ) -> Result<Vec<RankedAnswers>, ImpreciseError> {
        let snapshot = self.snapshot(handle)?;
        queries
            .iter()
            .map(|q| match min_probability {
                None => q.run(&snapshot),
                Some(_) => Ok(q.stream(&snapshot, min_probability)?.into_ranked()),
            })
            .collect()
    }

    /// Apply user feedback: `value` is a correct/incorrect answer of
    /// `query` on the document. Publishes the conditioned document as a
    /// new version of the same slot; concurrent readers keep their
    /// snapshots. Lost updates are prevented by optimistic concurrency:
    /// if another writer published between our snapshot and our publish,
    /// the conditioning is recomputed against the new version — and
    /// after a few failed optimistic races, under the write lock, so a
    /// feedback call cannot be starved by sustained writer traffic.
    pub fn feedback(
        &self,
        handle: &DocHandle,
        query: &PreparedQuery,
        value: &str,
        correct: bool,
    ) -> Result<FeedbackReport, ImpreciseError> {
        let (_, report) = self.write("feedback", &[handle], handle.name(), |pinned| {
            let (conditioned, report) = apply_feedback(
                &pinned[0].doc,
                query.ast(),
                value,
                correct,
                self.shared.feedback_world_cap,
            )?;
            // Conditioning rebuilds the document: any persisted
            // integration frontiers point into the old arena and are
            // finalized here.
            Ok((Some(Publish(Arc::new(conditioned), None)), report))
        })?;
        Ok(report)
    }

    /// Serialize the current version of a document as annotated XML.
    pub fn export(&self, handle: &DocHandle) -> Result<String, ImpreciseError> {
        Ok(self.snapshot(handle)?.export())
    }

    /// Size/uncertainty statistics of the current version of a document.
    pub fn stats(&self, handle: &DocHandle) -> Result<DocStats, ImpreciseError> {
        Ok(self.snapshot(handle)?.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imprecise_oracle::presets::addressbook_oracle;

    fn john_engine() -> (Engine, DocHandle, DocHandle) {
        let engine = Engine::builder()
            .oracle(addressbook_oracle())
            .schema_text(
                "<!ELEMENT addressbook (person*)><!ELEMENT person (nm, tel?)>\
                 <!ELEMENT nm (#PCDATA)><!ELEMENT tel (#PCDATA)>",
            )
            .unwrap()
            .build();
        let a = engine
            .load_xml(
                "a",
                "<addressbook><person><nm>John</nm><tel>1111</tel></person></addressbook>",
            )
            .unwrap();
        let b = engine
            .load_xml(
                "b",
                "<addressbook><person><nm>John</nm><tel>2222</tel></person></addressbook>",
            )
            .unwrap();
        (engine, a, b)
    }

    #[test]
    fn full_cycle_reproduces_the_paper_numbers() {
        let (engine, a, b) = john_engine();
        let (merged, stats) = engine.integrate(&a, &b, "merged").unwrap();
        assert_eq!(stats.judged_possible, 1);
        let doc_stats = engine.stats(&merged).unwrap();
        assert_eq!(doc_stats.worlds, 3.0);
        assert!(!doc_stats.certain);
        let tel = engine.prepare("//person/tel").unwrap();
        let answers = tel.run(&engine.snapshot(&merged).unwrap()).unwrap();
        assert!((answers.probability_of("1111") - 0.75).abs() < 1e-9);
        let report = engine.feedback(&merged, &tel, "2222", false).unwrap();
        assert!(report.worlds_after < report.worlds_before);
        assert!(engine.stats(&merged).unwrap().certain);
    }

    #[test]
    fn snapshots_are_immune_to_later_publishes() {
        let (engine, a, b) = john_engine();
        let (merged, _) = engine.integrate(&a, &b, "merged").unwrap();
        let before = engine.snapshot(&merged).unwrap();
        let tel = engine.prepare("//person/tel").unwrap();
        engine.feedback(&merged, &tel, "2222", false).unwrap();
        // The held snapshot still shows the pre-feedback distribution…
        let answers = tel.run(&before).unwrap();
        assert!((answers.probability_of("2222") - 0.75).abs() < 1e-9);
        assert_eq!(before.stats().worlds, 3.0);
        // …while a fresh snapshot shows the conditioned one.
        let after = engine.snapshot(&merged).unwrap();
        assert!(after.version() > before.version());
        assert_eq!(after.stats().worlds, 1.0);
    }

    #[test]
    fn reusing_a_name_publishes_a_new_version_of_the_same_slot() {
        let (engine, a, b) = john_engine();
        let (merged, _) = engine.integrate(&a, &b, "merged").unwrap();
        let v1 = engine.snapshot(&merged).unwrap().version();
        let (merged2, _) = engine.integrate(&a, &b, "merged").unwrap();
        assert_eq!(merged, merged2);
        assert!(engine.snapshot(&merged).unwrap().version() > v1);
        assert_eq!(engine.document_names(), vec!["a", "b", "merged"]);
    }

    /// A republish hands the version it replaced back to the caller,
    /// which frees it after releasing the write lock; a first publish
    /// displaces nothing.
    #[test]
    fn publish_hands_the_displaced_version_back() {
        let doc = || {
            let mut px = PxDoc::new();
            let w = px.add_poss(px.root(), 1.0);
            px.add_elem(w, "doc");
            Arc::new(px)
        };
        let mut catalog = Catalog::new();
        let first = doc();
        let (handle, displaced) = catalog.publish("d", Arc::clone(&first), None);
        assert!(displaced.is_none());
        let second = doc();
        let (again, displaced) = catalog.publish("d", Arc::clone(&second), None);
        assert_eq!(handle, again);
        let (doc, refine) = displaced.expect("a republish displaces the previous version");
        assert!(Arc::ptr_eq(&doc, &first));
        assert!(refine.is_none());
        let slot = catalog.slot_of(&again).unwrap();
        assert!(Arc::ptr_eq(&slot.doc, &second));
        assert_eq!(slot.version, 2);
        // Through the engine: once the republish returns, nothing but the
        // caller holds the displaced version any more.
        let engine = Engine::new();
        engine.insert_arc("d", Arc::clone(&first)).unwrap();
        engine.insert_arc("d", second).unwrap();
        assert_eq!(
            Arc::strong_count(&first),
            2,
            "ours and the displaced copy above"
        );
        drop(doc);
        assert_eq!(Arc::strong_count(&first), 1);
    }

    #[test]
    fn incremental_integration_republishes_input_slot() {
        let (engine, a, b) = john_engine();
        let (merged, _) = engine.integrate(&a, &b, "merged").unwrap();
        let v1 = engine.snapshot(&merged).unwrap().version();
        // Integrating the result with another source under its own name
        // is the read-modify-write case the version check guards.
        let (merged2, _) = engine.integrate(&merged, &a, "merged").unwrap();
        assert_eq!(merged, merged2);
        assert!(engine.snapshot(&merged).unwrap().version() > v1);
    }

    #[test]
    fn integrate_many_folds_n_sources() {
        let (engine, a, b) = john_engine();
        let c = engine
            .load_xml(
                "c",
                "<addressbook><person><nm>Mary</nm><tel>3333</tel></person></addressbook>",
            )
            .unwrap();
        let d = engine
            .load_xml(
                "d",
                "<addressbook><person><nm>Mary</nm><tel>3333</tel></person></addressbook>",
            )
            .unwrap();
        let (merged, steps) = engine
            .integrate_many(&[a.clone(), b, c, d], "merged")
            .unwrap();
        assert_eq!(steps.len(), 3);
        // Step 1 is the John/John fold; Mary arrives certain afterwards.
        assert_eq!(steps[0].judged_possible, 1);
        let names = engine.prepare("//person/nm").unwrap();
        let answers = names.run(&engine.snapshot(&merged).unwrap()).unwrap();
        assert!((answers.probability_of("Mary") - 1.0).abs() < 1e-9);
        assert!((answers.probability_of("John") - 1.0).abs() < 1e-9);
        // A single source publishes unchanged with no steps.
        let (solo, steps) = engine.integrate_many(&[a], "solo").unwrap();
        assert!(steps.is_empty());
        assert_eq!(engine.stats(&solo).unwrap().worlds, 1.0);
    }

    #[test]
    fn integrate_many_rejects_empty_and_foreign() {
        let (engine, a, _) = john_engine();
        assert!(matches!(
            engine.integrate_many(&[], "out"),
            Err(ImpreciseError::Integrate(
                imprecise_integrate::IntegrateError::NoSources
            ))
        ));
        let other = Engine::new();
        assert!(other.integrate_many(&[a], "out").is_err());
    }

    #[test]
    fn query_many_answers_against_one_version() {
        let (engine, a, b) = john_engine();
        let (merged, _) = engine.integrate(&a, &b, "merged").unwrap();
        let queries = [
            engine.prepare("//person/tel").unwrap(),
            engine.prepare("//person/nm").unwrap(),
        ];
        let answers = engine.query_many(&merged, &queries, None).unwrap();
        assert_eq!(answers.len(), 2);
        assert!((answers[0].probability_of("1111") - 0.75).abs() < 1e-9);
        assert!((answers[1].probability_of("John") - 1.0).abs() < 1e-9);
        // With a pushed-down threshold the sub-threshold numbers vanish
        // but surviving probabilities are untouched.
        let at_90 = engine.query_many(&merged, &queries, Some(0.9)).unwrap();
        assert!(at_90[0].is_empty());
        assert!((at_90[1].probability_of("John") - 1.0).abs() < 1e-9);
    }

    #[test]
    fn prepared_query_cache_tracks_document_versions() {
        let (engine, a, b) = john_engine();
        let (merged, _) = engine.integrate(&a, &b, "merged").unwrap();
        let tel = engine.prepare("//person/tel").unwrap();
        let before = engine.snapshot(&merged).unwrap();
        let first = tel.run(&before).unwrap();
        // Second run against the same version is served from the cache
        // (shared with clones) and must be identical.
        let second = tel.clone().run(&before).unwrap();
        assert_eq!(first, second);
        // Feedback publishes a new version: the cache must not leak the
        // old distribution into the new snapshot…
        engine.feedback(&merged, &tel, "2222", false).unwrap();
        let after = engine.snapshot(&merged).unwrap();
        assert!((tel.run(&after).unwrap().probability_of("1111") - 1.0).abs() < 1e-9);
        // …and the old snapshot still evaluates to the old distribution.
        assert!((tel.run(&before).unwrap().probability_of("1111") - 0.75).abs() < 1e-9);
    }

    #[test]
    fn prepared_query_cache_is_engine_scoped() {
        let (engine, a, b) = john_engine();
        let (merged, _) = engine.integrate(&a, &b, "merged").unwrap();
        let tel = engine.prepare("//person/tel").unwrap();
        assert!(
            (tel.run(&engine.snapshot(&merged).unwrap())
                .unwrap()
                .probability_of("1111")
                - 0.75)
                .abs()
                < 1e-9
        );
        // A different engine whose slot/version numbers collide must not
        // hit the cache entry.
        let other = Engine::new();
        let (o1, o2) = (
            other.load_xml("a", "<addressbook/>").unwrap(),
            other.load_xml("b", "<addressbook/>").unwrap(),
        );
        let _ = (o1, o2);
        let (om, _) = other
            .integrate(
                &other.handle("a").unwrap(),
                &other.handle("b").unwrap(),
                "merged",
            )
            .unwrap();
        let empty = tel.run(&other.snapshot(&om).unwrap()).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn query_stream_pushes_threshold_down() {
        let (engine, a, b) = john_engine();
        let (merged, _) = engine.integrate(&a, &b, "merged").unwrap();
        let mut stream = engine
            .query_stream(&merged, "//person/tel", Some(0.5))
            .unwrap();
        let answers: Vec<_> = stream.by_ref().collect();
        assert_eq!(answers.len(), 2); // both tels sit at 0.75
        assert!(answers.iter().all(|ans| ans.probability >= 0.5));
        // The stream stays usable after the engine publishes new versions.
        let tel = engine.prepare("//person/tel").unwrap();
        engine.feedback(&merged, &tel, "2222", false).unwrap();
        assert_eq!(stream.next(), None);
        // run_at is run() filtered.
        let at = tel.run_at(&engine.snapshot(&merged).unwrap(), 0.9).unwrap();
        assert_eq!(at.len(), 1);
        assert!((at.probability_of("1111") - 1.0).abs() < 1e-9);
    }

    #[test]
    fn prepared_query_exposes_its_plan() {
        let engine = Engine::new();
        let q = engine.prepare("//person[nm=\"John\"]/tel").unwrap();
        assert_eq!(q.text(), "//person[nm=\"John\"]/tel");
        assert_eq!(q.plan().min_probability(), 0.0);
        let explain = q.explain();
        assert!(explain.contains("TagRangeScan(//person)"), "{explain}");
        assert!(
            explain.contains("ValueLookup(./nm = \"John\") \u{222a} uncertain(nm)"),
            "{explain}"
        );
        assert!(explain.contains("TagRangeScan(/tel)"), "{explain}");
    }

    #[test]
    fn export_import_roundtrip() {
        let (engine, a, b) = john_engine();
        let (merged, _) = engine.integrate(&a, &b, "merged").unwrap();
        let text = engine.export(&merged).unwrap();
        let other = Engine::new();
        let copy = other.load_xml("copy", &text).unwrap();
        assert_eq!(other.stats(&copy).unwrap().worlds, 3.0);
    }

    #[test]
    fn foreign_handles_are_rejected() {
        let (_engine, a, _) = john_engine();
        let other = Engine::new();
        // Even when the other engine has a document whose slot id
        // collides with `a`'s, the foreign handle must not resolve.
        let o = other.load_xml("other", "<x/>").unwrap();
        assert!(matches!(
            other.snapshot(&a),
            Err(ImpreciseError::NoSuchDocument(_))
        ));
        assert!(other.query(&a, "//person", None).is_err());
        let tel = other.prepare("//person/tel").unwrap();
        assert!(other.feedback(&a, &tel, "1111", true).is_err());
        assert_ne!(a, o, "handles of different engines never compare equal");
    }

    #[test]
    fn bad_query_is_reported() {
        let (engine, a, _) = john_engine();
        assert!(matches!(
            engine.query(&a, "movie[", None),
            Err(ImpreciseError::QueryParse(_))
        ));
        assert!(matches!(
            engine.prepare("movie["),
            Err(ImpreciseError::QueryParse(_))
        ));
    }

    #[test]
    fn handles_carry_names() {
        let (engine, a, _) = john_engine();
        assert_eq!(a.name(), "a");
        assert_eq!(engine.handle("a"), Some(a));
        assert_eq!(engine.handle("ghost"), None);
    }

    /// An engine over the confusable movie workload (one n×n
    /// all-undecided component) with the given per-component budget,
    /// plus the two loaded sources.
    fn confusable_engine_n(n: usize, budget: usize) -> (Engine, DocHandle, DocHandle) {
        use imprecise_oracle::presets::{movie_oracle, MovieOracleConfig};
        let scenario = imprecise_datagen::scenarios::confusable(n);
        let engine = Engine::builder()
            .oracle(movie_oracle(MovieOracleConfig {
                title_rule: false,
                ..MovieOracleConfig::default()
            }))
            .schema(scenario.schema)
            .options(IntegrationOptions {
                max_matchings_per_component: budget,
                ..IntegrationOptions::default()
            })
            .build();
        let a = engine
            .load_xml("a", &imprecise_xmlkit::to_string(&scenario.mpeg7))
            .unwrap();
        let b = engine
            .load_xml("b", &imprecise_xmlkit::to_string(&scenario.imdb))
            .unwrap();
        (engine, a, b)
    }

    /// The 5×5 block (1546 matchings): big enough for staged refinement.
    fn confusable_engine(budget: usize) -> (Engine, DocHandle, DocHandle) {
        confusable_engine_n(5, budget)
    }

    #[test]
    fn refine_converges_to_the_one_shot_unbudgeted_result() {
        // Ground truth: the same workload integrated without a budget.
        let (exact_engine, xa, xb) = confusable_engine(usize::MAX);
        let (exact, exact_stats) = exact_engine.integrate(&xa, &xb, "db").unwrap();
        assert!(exact_stats.is_exact());
        assert_eq!(exact_engine.refine_state(&exact).unwrap(), None);
        let truth = exact_engine.snapshot(&exact).unwrap().doc().fingerprint();

        let (engine, a, b) = confusable_engine(8);
        let (db, stats) = engine.integrate(&a, &b, "db").unwrap();
        assert_eq!(stats.components_truncated(), 1);
        let info = engine.refine_state(&db).unwrap().expect("truncated");
        assert_eq!(info.open_components, 1);
        assert!(info.max_discarded_mass > 0.0);
        assert_eq!(info.recovered_at, None, "state was produced in-process");
        let before = engine.snapshot(&db).unwrap();
        assert_ne!(before.doc().fingerprint(), truth);

        // Staged refinement: every step publishes a new version with a
        // smaller worst-case discarded mass, until the doc is exact.
        let mut last_mass = info.max_discarded_mass;
        let mut rounds = 0;
        loop {
            let step = engine
                .refine(
                    &db,
                    &RefineOptions {
                        extra_matchings: 512,
                        ..RefineOptions::default()
                    },
                )
                .unwrap();
            assert!(step.max_discarded_mass <= last_mass + 1e-12);
            last_mass = step.max_discarded_mass;
            rounds += 1;
            if step.remaining == 0 {
                break;
            }
            assert!(rounds < 100, "failed to converge");
        }
        assert!(rounds >= 2, "1546 matchings at 8+512 per step need stages");
        assert_eq!(engine.refine_state(&db).unwrap(), None);
        let after = engine.snapshot(&db).unwrap();
        assert_eq!(after.doc().fingerprint(), truth, "refined ≡ one-shot");
        assert_eq!(after.version(), before.version() + rounds);
        // The pre-refinement snapshot still reads the budgeted version.
        assert_ne!(before.doc().fingerprint(), truth);
        // Refining an exact document is a cheap no-op.
        let noop = engine.refine(&db, &RefineOptions::default()).unwrap();
        assert!(noop.refined.is_empty());
        assert_eq!(engine.snapshot(&db).unwrap().version(), after.version());
    }

    #[test]
    fn refine_improves_query_answers_in_place() {
        // 3×3: 34 matchings — the query side stays cheap at exhaustive.
        let (engine, a, b) = confusable_engine_n(3, 4);
        let (db, _) = engine.integrate(&a, &b, "db").unwrap();
        let q = engine.prepare("//movie/title").unwrap();
        let before = q.run(&engine.snapshot(&db).unwrap()).unwrap();
        engine.refine(&db, &RefineOptions::to_exhaustive()).unwrap();
        let after = q.run(&engine.snapshot(&db).unwrap()).unwrap();
        // Same answers, different (exact) probabilities: the truncated
        // distribution over-weighted the kept heavy matchings.
        assert_eq!(before.len(), after.len());
        assert!(
            before
                .items
                .iter()
                .any(|ans| (ans.probability - after.probability_of(&ans.value)).abs() > 1e-9),
            "refinement must move at least one answer probability"
        );
    }

    #[test]
    fn feedback_finalizes_refinable_documents() {
        let (engine, a, b) = confusable_engine(8);
        let (db, _) = engine.integrate(&a, &b, "db").unwrap();
        assert!(engine.refine_state(&db).unwrap().is_some());
        let q = engine.prepare("//movie/title").unwrap();
        engine.feedback(&db, &q, "Jaws", true).unwrap();
        // Conditioning rebuilt the document: the frontiers are gone and
        // refine degrades to a no-op instead of corrupting the doc.
        assert_eq!(engine.refine_state(&db).unwrap(), None);
        let step = engine.refine(&db, &RefineOptions::default()).unwrap();
        assert!(step.refined.is_empty());
    }

    /// A unique scratch segment path under the system temp dir,
    /// removed on drop.
    struct ScratchStore(std::path::PathBuf);

    impl ScratchStore {
        fn new(tag: &str) -> Self {
            use std::sync::atomic::{AtomicUsize, Ordering};
            static COUNTER: AtomicUsize = AtomicUsize::new(0);
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir().join(format!(
                "imprecise-engine-{tag}-{}-{n}.seg",
                std::process::id()
            ));
            let _ = std::fs::remove_file(&path);
            ScratchStore(path)
        }
    }

    impl Drop for ScratchStore {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    /// The confusable-workload configuration of
    /// [`confusable_engine_n`], as a builder (so tests can bolt a
    /// durable store on before opening).
    fn confusable_builder(n: usize, budget: usize) -> EngineBuilder {
        use imprecise_oracle::presets::{movie_oracle, MovieOracleConfig};
        let scenario = imprecise_datagen::scenarios::confusable(n);
        Engine::builder()
            .oracle(movie_oracle(MovieOracleConfig {
                title_rule: false,
                ..MovieOracleConfig::default()
            }))
            .schema(scenario.schema)
            .options(IntegrationOptions {
                max_matchings_per_component: budget,
                ..IntegrationOptions::default()
            })
    }

    #[test]
    fn store_backed_engine_recovers_catalog_with_provenance() {
        let scratch = ScratchStore::new("recover");
        let scenario = imprecise_datagen::scenarios::confusable(5);
        let (truth, budgeted_fp) = {
            let store_engine = confusable_builder(5, 8)
                .with_store(&scratch.0)
                .open()
                .unwrap();
            let sa = store_engine
                .load_xml("a", &imprecise_xmlkit::to_string(&scenario.mpeg7))
                .unwrap();
            let sb = store_engine
                .load_xml("b", &imprecise_xmlkit::to_string(&scenario.imdb))
                .unwrap();
            let (db, stats) = store_engine.integrate(&sa, &sb, "db").unwrap();
            assert_eq!(stats.components_truncated(), 1);
            let budgeted_fp = store_engine.snapshot(&db).unwrap().doc().fingerprint();

            // Ground truth: the exhaustive result of the same workload.
            let (exact_engine, xa, xb) = confusable_engine(usize::MAX);
            let (exact, _) = exact_engine.integrate(&xa, &xb, "db").unwrap();
            (
                exact_engine.snapshot(&exact).unwrap().doc().fingerprint(),
                budgeted_fp,
            )
        }; // both engines dropped: "the process died"

        let recovered = confusable_builder(5, 8)
            .with_store(&scratch.0)
            .open()
            .unwrap();
        assert_eq!(recovered.document_names(), vec!["a", "b", "db"]);
        let db = recovered.handle("db").unwrap();
        let snapshot = recovered.snapshot(&db).unwrap();
        assert_eq!(snapshot.version(), 1);
        assert_eq!(snapshot.doc().fingerprint(), budgeted_fp);
        // Provenance: the state is flagged as recovered until the first
        // in-process publish replaces it.
        let info = recovered.refine_state(&db).unwrap().expect("still open");
        assert_eq!(info.recovered_at, Some(1));
        let step = recovered
            .refine(&db, &RefineOptions::to_exhaustive())
            .unwrap();
        assert_eq!(step.remaining, 0);
        assert_eq!(recovered.refine_state(&db).unwrap(), None);
        // Cross-process resume converges to the one-shot exhaustive doc.
        assert_eq!(
            recovered.snapshot(&db).unwrap().doc().fingerprint(),
            truth,
            "recovered refine state must resume bit-for-bit"
        );
    }

    #[test]
    fn store_survives_feedback_and_reopen() {
        let scratch = ScratchStore::new("feedback");
        {
            let engine = Engine::builder()
                .oracle(addressbook_oracle())
                .schema_text(
                    "<!ELEMENT addressbook (person*)><!ELEMENT person (nm, tel?)>\
                     <!ELEMENT nm (#PCDATA)><!ELEMENT tel (#PCDATA)>",
                )
                .unwrap()
                .with_store(&scratch.0)
                .open()
                .unwrap();
            let sa = engine
                .load_xml(
                    "a",
                    "<addressbook><person><nm>John</nm><tel>1111</tel></person></addressbook>",
                )
                .unwrap();
            let sb = engine
                .load_xml(
                    "b",
                    "<addressbook><person><nm>John</nm><tel>2222</tel></person></addressbook>",
                )
                .unwrap();
            let (merged, _) = engine.integrate(&sa, &sb, "merged").unwrap();
            let tel = engine.prepare("//person/tel").unwrap();
            engine.feedback(&merged, &tel, "2222", false).unwrap();
            assert!(engine.stats(&merged).unwrap().certain);
        }
        let engine = Engine::open(&scratch.0).unwrap();
        let merged = engine.handle("merged").unwrap();
        // v1 integrate + v2 feedback both reached the segment; the
        // reopened slot shows the conditioned version.
        assert_eq!(engine.snapshot(&merged).unwrap().version(), 2);
        assert!(engine.stats(&merged).unwrap().certain);
        let tel = engine.prepare("//person/tel").unwrap();
        let answers = tel.run(&engine.snapshot(&merged).unwrap()).unwrap();
        assert!((answers.probability_of("1111") - 1.0).abs() < 1e-9);
    }

    #[test]
    fn incremental_fold_publishes_a_version_per_step() {
        let (engine, a, b) = john_engine();
        let c = engine
            .load_xml(
                "c",
                "<addressbook><person><nm>Mary</nm><tel>3333</tel></person></addressbook>",
            )
            .unwrap();
        let (batch, batch_steps) = engine
            .integrate_many(&[a.clone(), b.clone(), c.clone()], "batch")
            .unwrap();
        let (inc, inc_steps) = engine
            .integrate_many_incremental(&[a, b, c], "inc")
            .unwrap();
        assert_eq!(batch_steps.len(), 2);
        assert_eq!(inc_steps.len(), 2);
        // The incremental slot went through versions 1 (seed), 2, 3…
        let snapshot = engine.snapshot(&inc).unwrap();
        assert_eq!(snapshot.version(), 3);
        assert_eq!(engine.snapshot(&batch).unwrap().version(), 1);
        // …and the final fold is the same document.
        assert_eq!(
            snapshot.doc().fingerprint(),
            engine.snapshot(&batch).unwrap().doc().fingerprint()
        );
        // Empty source lists are rejected like the batch mode.
        assert!(matches!(
            engine.integrate_many_incremental(&[], "out"),
            Err(ImpreciseError::Integrate(IntegrateError::NoSources))
        ));
    }

    /// A competing writer: publish `<v>{value}</v>` into `name`.
    fn race(engine: &Engine, name: &str, value: usize) {
        engine.load_xml(name, &format!("<v>{value}</v>")).unwrap();
    }

    /// The publish a test write installs: the pinned input unchanged.
    fn republish(pinned: &[Pinned]) -> Option<Publish> {
        Some(Publish(Arc::clone(&pinned[0].doc), None))
    }

    #[test]
    fn a_moved_output_slot_is_recomputed_not_overwritten() {
        let engine = Engine::new();
        let x = engine.load_xml("x", "<v>0</v>").unwrap();
        let mut calls = 0;
        let (handle, ()) = engine
            .write("test", &[&x], "x", |pinned| {
                calls += 1;
                if calls <= 3 {
                    race(&engine, "x", calls);
                }
                Ok((republish(pinned), ()))
            })
            .unwrap();
        assert_eq!(calls, 4);
        assert_eq!(handle, Some(x.clone()));
        // One version per competitor, then ours, computed from the
        // last competitor's version rather than over it.
        let snapshot = engine.snapshot(&x).unwrap();
        assert_eq!(snapshot.version(), 1 + 3 + 1);
        assert!(snapshot.export().contains(">3<"), "{}", snapshot.export());
    }

    #[test]
    fn sustained_races_fall_back_to_computing_under_the_write_lock() {
        let engine = Engine::new();
        let x = engine.load_xml("x", "<v>0</v>").unwrap();
        let mut write_locked = Vec::new();
        engine
            .write("test", &[&x], "x", |pinned| {
                write_locked.push(engine.shared.catalog.try_read().is_err());
                // Racing from the fallback call would deadlock on the
                // write lock it runs under; the protocol never needs to.
                if write_locked.len() <= OPTIMISTIC_ROUNDS {
                    race(&engine, "x", write_locked.len());
                }
                Ok((republish(pinned), ()))
            })
            .unwrap();
        let mut expected = vec![false; OPTIMISTIC_ROUNDS];
        expected.push(true);
        assert_eq!(write_locked, expected);
        let version = engine.snapshot(&x).unwrap().version();
        assert_eq!(version, 1 + OPTIMISTIC_ROUNDS as u64 + 1);
    }

    #[test]
    fn races_on_slots_outside_the_read_modify_write_cause_no_retry() {
        let engine = Engine::new();
        let a = engine.load_xml("a", "<v>a</v>").unwrap();
        let x = engine.load_xml("x", "<v>0</v>").unwrap();
        let mut calls = 0;
        engine
            .write("test", &[&a], "x", |pinned| {
                calls += 1;
                if calls == 1 {
                    race(&engine, "x", calls); // the output, which was not read
                    race(&engine, "a", calls); // an input, which is not the output
                }
                Ok((republish(pinned), ()))
            })
            .unwrap();
        assert_eq!(calls, 1);
        // Plain replacement: the racing publish into `x` is superseded.
        let snapshot = engine.snapshot(&x).unwrap();
        assert_eq!(snapshot.version(), 3);
        assert!(snapshot.export().contains(">a<"), "{}", snapshot.export());
    }

    #[test]
    fn a_write_without_a_publish_installs_and_persists_nothing() {
        let scratch = ScratchStore::new("no-publish");
        let engine = Engine::open(&scratch.0).unwrap();
        let x = engine.load_xml("x", "<v>0</v>").unwrap();
        let latest = || {
            let store = engine.shared.store.as_ref().unwrap();
            store.lock().unwrap().latest_version("x")
        };
        assert_eq!(latest(), Some(1));
        let (handle, value) = engine.write("test", &[&x], "x", |_| Ok((None, 7))).unwrap();
        assert_eq!((handle, value), (None, 7));
        assert_eq!(engine.snapshot(&x).unwrap().version(), 1);
        assert_eq!(latest(), Some(1));
    }
}
