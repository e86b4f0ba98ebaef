//! The logical plan layer: planned comprehension steps, join statistics, the
//! bounded [`PlanCache`] with its persisted key histograms, standing plans, and
//! the step/engine probes the differential harness asserts against.
//!
//! Planning lives in [`crate::eval`] (the [`crate::eval::Evaluator`] builds
//! `Plan`s); execution lives in [`crate::physical`] (the recursive row
//! executor and the vectorised columnar executor both run the *same* step
//! lists). This module owns the shapes they share.

use crate::ast::{Expr, Pattern, SchemeRef};
use crate::bushy::JoinTree;
use crate::index::PointIndex;
use crate::lru::LruMap;
use crate::physical::columnar::ColumnarPlan;
use crate::physical::ExecEngine;
use crate::value::{Bag, Value};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Acquire a read guard, ignoring poisoning (cache state is rebuildable).
pub(crate) fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Acquire a write guard, ignoring poisoning (cache state is rebuildable).
pub(crate) fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// How a planned join step executes (reported by [`Evaluator::explain`](crate::eval::Evaluator::explain)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Textual orientation: the earlier generator scans, the later one is hashed.
    Hash,
    /// One join node of the leading generator chain's **join tree** (see
    /// [`crate::bushy`]): the chain was joined along a picked tree — a pair is
    /// the tree `(0 ⋈ 1)` — at plan time, each node hash-joining its two
    /// subtrees' results with the smaller side built, and the nested-loop
    /// output order restored by one final positional sort over the whole
    /// chain. Each `Materialised` entry reports one internal node, in
    /// execution (post-)order, carrying the subtree rooted there; the last
    /// entry's tree spans the whole chain.
    Materialised {
        /// The join subtree rooted at this node; leaves are chain positions in
        /// textual generator order.
        tree: Arc<JoinTree>,
    },
    /// A generator plus a run of `var = ?param` / `var = literal` filters served
    /// by a secondary point-lookup index (see [`crate::IndexStore`]): each
    /// execution evaluates the key expressions under the current bindings and
    /// probes in O(1) instead of scanning the extent.
    IndexLookup,
}

/// Per-join planning statistics: cardinalities and the hash-index bucket histogram
/// the join-ordering decision was based on.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinStats {
    /// The orientation the planner chose.
    pub strategy: JoinStrategy,
    /// Rows that survived pattern matching into the hash index (build side).
    pub build_rows: usize,
    /// Rows on the probing side, when the planner knew them (join-pair planning).
    pub probe_rows: Option<usize>,
    /// Number of distinct join keys in the hash index (histogram buckets).
    pub distinct_keys: usize,
    /// Largest bucket in the hash index (worst-case key skew).
    pub max_bucket: usize,
    /// Estimated join output cardinality: `probe_rows × build_rows / distinct_keys`
    /// (present when `probe_rows` is known).
    pub estimated_output: Option<f64>,
    /// Rows the join **actually** produced. Join-tree nodes materialise at
    /// plan time and know this exactly; deferred probes (`Hash`, `IndexLookup`) report `None`. The adaptive
    /// re-optimiser compares this against the enumerator's estimate and replans
    /// with observed selectivities when they diverge (see [`PlanCache`]).
    pub actual_output: Option<usize>,
}

/// One step of a planned comprehension. Steps own their data (cloned AST fragments,
/// built indexes behind `Arc`) so a plan can outlive the evaluation that built it
/// and be shared through a [`PlanCache`].
pub(crate) enum Step {
    /// Plain generator: evaluate the source per incoming row and iterate.
    Iterate { pattern: Pattern, source: Expr },
    /// A generator whose source was already evaluated at plan time (leading
    /// generator of a chain whose reorder was considered but not taken).
    Scan { pattern: Pattern, bag: Bag },
    /// A generator + run of equi-join filters fused into a hash join: the source was
    /// evaluated once and indexed by the (possibly composite) join key; each incoming
    /// row probes with the values of `probe_vars`.
    HashJoin {
        pattern: Pattern,
        probe_vars: Vec<String>,
        index: Arc<HashMap<Value, Vec<Value>>>,
    },
    /// The leading generator chain joined along its picked join tree
    /// (recursive hash joins over sub-plans, executed at plan time) with the
    /// nested-loop output order already restored by one positional sort: each
    /// row — `patterns.len()` consecutive elements of `rows` — binds the
    /// patterns in textual order to its elements.
    MaterialisedJoin {
        patterns: Vec<Pattern>,
        rows: Arc<Vec<Value>>,
    },
    /// A generator + run of point-equality filters (`var = ?param` /
    /// `var = literal`) served by a secondary index: the source's elements are
    /// bucketed by the filtered variables' values; each execution evaluates the
    /// key expressions (parameters resolve against the live bindings) and
    /// probes one bucket, whose elements keep source order.
    IndexLookup {
        pattern: Pattern,
        key_exprs: Vec<Expr>,
        index: Arc<PointIndex>,
    },
    /// A boolean filter.
    Filter(Expr),
    /// A `let` qualifier.
    Bind { pattern: Pattern, value: Expr },
}

/// The kind of one planned step, as counted by a [`StepProbe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepKind {
    /// A plain generator evaluated per incoming row.
    Iterate,
    /// A pre-evaluated generator scan.
    Scan,
    /// A fused equi-join probe against a prebuilt hash index.
    HashJoin,
    /// A generator chain joined along its join tree, materialised at plan time.
    MaterialisedJoin,
    /// A boolean filter.
    Filter,
    /// A `let` qualifier.
    Bind,
    /// A point-equality filter run probed against a secondary index.
    IndexLookup,
}

/// [`StepProbe`]'s counter-array length; `IndexLookup` stays the last variant.
const STEP_KINDS: usize = StepKind::IndexLookup as usize + 1;

/// Counts the steps of every plan the evaluator executes, by [`StepKind`].
///
/// Attach with [`Evaluator::with_step_probe`](crate::eval::Evaluator::with_step_probe). Each time a comprehension plan
/// begins executing (including re-executions of nested or correlated
/// comprehensions), every step in its step list is counted once. The
/// differential test harness uses this to assert that the strategies
/// [`Evaluator::explain`](crate::eval::Evaluator::explain) reports are the strategies that actually ran —
/// e.g. a [`JoinStrategy::Materialised`] explain must execute a
/// [`StepKind::MaterialisedJoin`] step and vice versa.
#[derive(Debug, Default)]
pub struct StepProbe {
    counts: [AtomicU64; STEP_KINDS],
    /// Executions by engine: `[columnar, row]` (see [`ExecEngine`]).
    engines: [AtomicU64; 2],
}

impl StepProbe {
    /// A fresh probe with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many steps of `kind` have been executed so far.
    pub fn count(&self, kind: StepKind) -> u64 {
        self.counts[kind as usize].load(AtomicOrdering::Relaxed)
    }

    /// How many planned comprehension executions `engine` produced the
    /// result of so far. A mid-execution columnar abort (a runtime error
    /// re-run through the row engine for identical error reporting) counts
    /// as a row execution — the row engine produced the answer.
    pub fn engine_count(&self, engine: ExecEngine) -> u64 {
        self.engines[engine as usize].load(AtomicOrdering::Relaxed)
    }

    pub(crate) fn record_engine(&self, engine: ExecEngine) {
        self.engines[engine as usize].fetch_add(1, AtomicOrdering::Relaxed);
    }

    pub(crate) fn record(&self, kind: StepKind) {
        self.counts[kind as usize].fetch_add(1, AtomicOrdering::Relaxed);
    }
}

impl Step {
    pub(crate) fn kind(&self) -> StepKind {
        match self {
            Step::Iterate { .. } => StepKind::Iterate,
            Step::Scan { .. } => StepKind::Scan,
            Step::HashJoin { .. } => StepKind::HashJoin,
            Step::MaterialisedJoin { .. } => StepKind::MaterialisedJoin,
            Step::IndexLookup { .. } => StepKind::IndexLookup,
            Step::Filter(_) => StepKind::Filter,
            Step::Bind { .. } => StepKind::Bind,
        }
    }
}

/// A planned comprehension: the step list plus the statistics and cacheability
/// verdict produced while planning.
pub(crate) struct Plan {
    pub(crate) steps: Vec<Step>,
    pub(crate) join_stats: Vec<JoinStats>,
    /// True when every plan-time-evaluated source was a closed expression, so the
    /// baked-in indexes/rows are environment-independent and the plan may be cached.
    pub(crate) cacheable: bool,
    /// Actual-vs-estimated cardinality feedback collected while the join tree
    /// executed (absent for plans without an enumerated chain).
    pub(crate) feedback: Option<PlanFeedback>,
    /// The lazily compiled columnar form of this plan, shared across every
    /// execution (a cached plan compiles once and every later execution —
    /// from any evaluator sharing the cache — reuses it). `None` inside the
    /// cell means the plan was inspected and found ineligible (an open or
    /// parameter-dependent generator source): the row engine runs instead.
    pub(crate) columnar: OnceLock<Option<Arc<ColumnarPlan>>>,
}

/// A retained plan for **incremental maintenance** of one comprehension: the
/// step list (planned without reordering, so textual output order is a
/// structural property of the steps), the position of the *lead generator* —
/// the first generator, which must iterate a scheme extent directly — and the
/// schemes the whole expression touches.
///
/// The soundness contract the caller must uphold (see
/// [`Evaluator::delta_standing`](crate::eval::Evaluator::delta_standing)): between building the plan and delta-applying
/// an append, **only the lead scheme's extent may change, and only by appending
/// at the tail**. Under that contract, the rows a full re-execution would add
/// are exactly the rows obtained by driving the appended lead elements through
/// the remaining steps — and they appear at the tail of the previous result, in
/// order, with multiplicities intact. Any other change (a non-lead extent
/// moved, a non-append mutation) invalidates the plan: rebuild it and
/// re-execute. Build with [`Evaluator::standing_plan`](crate::eval::Evaluator::standing_plan), which returns `None`
/// for shapes where the contract cannot be established (no leading scheme
/// iteration, or the lead scheme referenced more than once).
pub struct StandingPlan {
    pub(crate) head: Expr,
    pub(crate) steps: Vec<Step>,
    /// Index of the lead generator in `steps` (preceded only by filters/binds).
    pub(crate) lead: usize,
    pub(crate) lead_scheme: SchemeRef,
    pub(crate) touched: BTreeSet<SchemeRef>,
}

impl std::fmt::Debug for StandingPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StandingPlan")
            .field("head", &self.head)
            .field("steps", &self.steps.len())
            .field("lead", &self.lead)
            .field("lead_scheme", &self.lead_scheme)
            .field("touched", &self.touched)
            .finish()
    }
}

impl StandingPlan {
    /// The scheme whose tail-appends this plan can absorb incrementally.
    pub fn lead_scheme(&self) -> &SchemeRef {
        &self.lead_scheme
    }

    /// Every scheme the expression references (lead included) — the
    /// registration index for "which subscriptions does this insert affect".
    pub fn touched(&self) -> &BTreeSet<SchemeRef> {
        &self.touched
    }
}

/// Per-edge observed join selectivities, keyed by the normalised
/// `(min, max)` chain-position pair the edge connects.
pub(crate) type ObservedSelectivities = Vec<((usize, usize), f64)>;

/// Cardinality feedback from executing an enumerated join tree at plan time: what
/// each cut *actually* selected, and how far the worst node strayed from the
/// enumerator's estimate. Stored with the cached plan; when the divergence
/// passes [`DEFAULT_REOPT_FACTOR`] the next execution re-enumerates with the
/// observed selectivities in place of the histogram estimates.
pub(crate) struct PlanFeedback {
    pub(crate) observed: ObservedSelectivities,
    /// Largest `actual / estimated` output ratio across the tree's join nodes
    /// (underestimates only — an overestimate materialised less than planned
    /// for, which never hurts).
    pub(crate) max_divergence: f64,
}

impl Plan {
    /// Estimated resident bytes of the plan's materialised state (indexes,
    /// pre-joined rows): the weight the [`PlanCache`]'s byte-aware eviction
    /// charges this entry. Values are `Arc`-shared, so per-row constants cover
    /// structure, not payload.
    pub(crate) fn approx_bytes(&self) -> u64 {
        let mut bytes = 256u64;
        for step in &self.steps {
            bytes += match step {
                Step::Scan { bag, .. } => bag.len() as u64 * 48,
                Step::HashJoin { index, .. } => index
                    .values()
                    .map(|bucket| bucket.len() as u64 * 48 + 96)
                    .sum::<u64>(),
                Step::IndexLookup { index, .. } => index.approx_bytes(),
                Step::MaterialisedJoin { rows, .. } => rows.len() as u64 * 48,
                Step::Iterate { .. } | Step::Filter(_) | Step::Bind { .. } => 64,
            };
        }
        bytes
    }
}

impl Plan {
    /// Assemble a freshly planned comprehension (columnar compilation deferred
    /// to the first columnar execution).
    pub(crate) fn assemble(
        steps: Vec<Step>,
        join_stats: Vec<JoinStats>,
        cacheable: bool,
        feedback: Option<PlanFeedback>,
    ) -> Plan {
        Plan {
            steps,
            join_stats,
            cacheable,
            feedback,
            columnar: OnceLock::new(),
        }
    }

    /// The columnar form of this plan for the comprehension head `head`,
    /// compiling it on first use. `None` when the plan is not columnar-eligible
    /// (some generator source is open or parameter-dependent). The head is part
    /// of the plan's identity — one cached plan serves exactly one expression —
    /// so caching the head projection inside the cell is sound.
    pub(crate) fn columnar(&self, head: &Expr) -> Option<Arc<ColumnarPlan>> {
        self.columnar
            .get_or_init(|| ColumnarPlan::compile(&self.steps, head).map(Arc::new))
            .clone()
    }
}

struct CacheEntry {
    version: u64,
    plan: Arc<Plan>,
    /// Observed selectivities awaiting a re-optimisation round (set when the
    /// plan's feedback diverged past [`DEFAULT_REOPT_FACTOR`]).
    pending: Option<Arc<ObservedSelectivities>>,
    /// Whether this entry already went through a re-optimisation round at this
    /// version (one round per version: prevents oscillation).
    reoptimized: bool,
}

/// What a [`PlanCache`] lookup found for an execution.
pub(crate) enum PlanLookup {
    /// A current plan: execute it as-is.
    Hit(Arc<Plan>),
    /// A current plan whose recorded cardinality feedback diverged: replan with
    /// the observed selectivities and keep whichever plan is actually cheaper.
    Reoptimize {
        plan: Arc<Plan>,
        observed: Arc<ObservedSelectivities>,
    },
    /// Nothing current cached.
    Miss,
}

/// A persisted per-extent join-key histogram: how the values a pattern binds to a
/// set of key variables distribute over a source's extent. The planner's
/// reordering estimates consult these instead of re-scanning the extent on every
/// plan (see [`PlanCache`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyHistogram {
    /// Rows that survived pattern matching and produced a key.
    pub rows: usize,
    /// Number of distinct key values.
    pub distinct: usize,
    /// Largest key group (worst-case skew).
    pub max_bucket: usize,
}

/// Identity of a histogram: the source expression, the generator pattern that
/// extracts the key, and the (ordered) key variables.
pub(crate) type StatsKey = (Expr, Pattern, Vec<String>);

struct StatsEntry {
    version: u64,
    histogram: KeyHistogram,
    /// Matched-row count the histogram covered: an append-only provider
    /// refreshes a stale histogram by counting only rows past this point.
    scanned: usize,
    /// The per-key counts behind the histogram, kept so a refresh can extend
    /// them copy-on-write instead of recounting the whole extent.
    counts: Arc<HashMap<Value, usize>>,
}

/// Default number of plans a [`PlanCache`] holds before evicting.
pub const DEFAULT_PLAN_CAPACITY: usize = 512;

/// Default byte budget for a [`PlanCache`]'s materialised plan state (64 MiB of
/// estimated footprint; see [`PlanCache::with_capacity_and_bytes`]).
pub const DEFAULT_PLAN_CACHE_BYTES: u64 = 64 << 20;

/// Actual/estimated divergence factor past which a cached plan re-optimises
/// on its next execution.
pub const DEFAULT_REOPT_FACTOR: f64 = 4.0;

/// Join-tree nodes below this many actual rows never count towards re-optimisation
/// divergence: ratios over tiny results are noise, and replanning them saves
/// nothing.
pub(crate) const MIN_FEEDBACK_ROWS: f64 = 8.0;

/// A bounded memo of built comprehension plans, keyed by expression identity,
/// plus the per-extent join-key histograms the reordering cost model reuses
/// across plans.
///
/// # Knobs and contract
///
/// * Attach with [`Evaluator::with_plan_cache`](crate::eval::Evaluator::with_plan_cache); share one cache across many
///   evaluations of the same workload (e.g. one cache per dataspace).
/// * Entries are keyed by the comprehension expression itself — [`Expr`]
///   implements `Hash`/`Eq`, so a lookup hashes the AST instead of
///   pretty-printing a string key — and guarded by [`ExtentProvider::version`](crate::eval::ExtentProvider::version):
///   when the provider mutates (insert, schema change) its version changes and
///   stale plans rebuild transparently on next use.
/// * The memo is **bounded**: at most [`PlanCache::capacity`] plans are held and
///   the least recently used plan is evicted on overflow
///   ([`PlanCache::with_capacity`] configures the bound, default
///   [`DEFAULT_PLAN_CAPACITY`]). Long-lived services can therefore share one
///   cache for the life of the process without unbounded growth.
/// * A cache must only be shared between evaluators over the **same logical
///   provider** — the version stamp detects staleness, not provider identity.
/// * Only plans whose plan-time-evaluated sources are closed expressions are
///   stored, so cached plans never capture environment-dependent data. The same
///   rule applies to the histogram side-table.
/// * [`PlanCache::invalidate_all`] is the explicit invalidation hook for mutations
///   a provider's version cannot see (e.g. swapping view definitions).
///
/// ```
/// use iql::{parse, Evaluator, MapExtents, PlanCache};
/// use std::sync::Arc;
///
/// let mut extents = MapExtents::new();
/// extents.insert_pairs("t,v", vec![(1, "a"), (2, "b")]);
/// let cache = Arc::new(PlanCache::with_capacity(64));
/// let ev = Evaluator::new(&extents).with_plan_cache(Arc::clone(&cache));
/// let q = parse("[{x, y} | {k, x} <- <<t, v>>; {k2, y} <- <<t, v>>; k2 = k]").unwrap();
/// ev.eval_closed(&q).unwrap();
/// ev.eval_closed(&q).unwrap(); // second run: planning skipped entirely
/// assert!(cache.hit_count() >= 1);
/// assert!(cache.len() <= cache.capacity());
/// ```
#[derive(Debug)]
pub struct PlanCache {
    entries: RwLock<LruMap<Expr, CacheEntry>>,
    stats: RwLock<LruMap<StatsKey, StatsEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    reopts: AtomicU64,
    histogram_refreshes: AtomicU64,
}

impl std::fmt::Debug for CacheEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheEntry")
            .field("version", &self.version)
            .field("steps", &self.plan.steps.len())
            .field("reoptimized", &self.reoptimized)
            .finish()
    }
}

impl std::fmt::Debug for StatsEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatsEntry")
            .field("version", &self.version)
            .field("histogram", &self.histogram)
            .finish()
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_PLAN_CAPACITY)
    }
}

impl PlanCache {
    /// An empty plan cache with the default capacity ([`DEFAULT_PLAN_CAPACITY`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty plan cache bounded to `capacity` plans (LRU eviction past that)
    /// with the default byte budget ([`DEFAULT_PLAN_CACHE_BYTES`]).
    /// The histogram side-table is bounded to four times the plan capacity —
    /// histograms are per (extent, key) rather than per query, far smaller, and
    /// several are consulted while planning one comprehension.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_and_bytes(capacity, DEFAULT_PLAN_CACHE_BYTES)
    }

    /// An empty plan cache bounded by plan count **and** by the estimated bytes
    /// of materialised plan state. Cached plans carry real data — hash-join
    /// indexes, pre-joined chain rows, point-lookup indexes — and two plans can
    /// differ in footprint by orders of magnitude, so eviction weighs each
    /// entry by its estimated bytes besides counting it (see
    /// [`crate::lru::LruMap::with_weight_budget`]). The histogram side-table
    /// gets a quarter of the byte budget.
    pub fn with_capacity_and_bytes(capacity: usize, byte_budget: u64) -> Self {
        PlanCache {
            entries: RwLock::new(LruMap::with_weight_budget(capacity, byte_budget)),
            stats: RwLock::new(LruMap::with_weight_budget(
                capacity.saturating_mul(4).max(4),
                (byte_budget / 4).max(1),
            )),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            reopts: AtomicU64::new(0),
            histogram_refreshes: AtomicU64::new(0),
        }
    }

    /// The maximum number of plans held before LRU eviction.
    pub fn capacity(&self) -> usize {
        read_lock(&self.entries).capacity()
    }

    /// How many plans have been evicted for capacity so far.
    pub fn eviction_count(&self) -> u64 {
        read_lock(&self.entries).evictions()
    }

    /// Drop every cached plan and histogram (explicit invalidation hook).
    pub fn invalidate_all(&self) {
        write_lock(&self.entries).clear();
        write_lock(&self.stats).clear();
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        read_lock(&self.entries).len()
    }

    /// Whether the cache holds no plans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of persisted per-extent key histograms.
    pub fn histogram_count(&self) -> usize {
        read_lock(&self.stats).len()
    }

    /// Lookups that returned a current plan.
    pub fn hit_count(&self) -> u64 {
        self.hits.load(AtomicOrdering::Relaxed)
    }

    /// Lookups that found nothing (or only a stale plan).
    pub fn miss_count(&self) -> u64 {
        self.misses.load(AtomicOrdering::Relaxed)
    }

    /// Cached plans re-optimised after their recorded cardinality feedback
    /// diverged past [`DEFAULT_REOPT_FACTOR`].
    pub fn reopt_count(&self) -> u64 {
        self.reopts.load(AtomicOrdering::Relaxed)
    }

    /// Stale key histograms refreshed copy-on-write from an appended tail
    /// instead of being recounted from scratch (append-only providers only).
    pub fn histogram_refresh_count(&self) -> u64 {
        self.histogram_refreshes.load(AtomicOrdering::Relaxed)
    }

    /// Estimated resident bytes of all cached plans' materialised state.
    pub fn approx_bytes(&self) -> u64 {
        read_lock(&self.entries).total_weight()
    }

    pub(crate) fn lookup(&self, key: &Expr, version: u64) -> PlanLookup {
        let entries = read_lock(&self.entries);
        match entries.get(key) {
            Some(entry) if entry.version == version => {
                self.hits.fetch_add(1, AtomicOrdering::Relaxed);
                match &entry.pending {
                    Some(observed) if !entry.reoptimized => PlanLookup::Reoptimize {
                        plan: Arc::clone(&entry.plan),
                        observed: Arc::clone(observed),
                    },
                    _ => PlanLookup::Hit(Arc::clone(&entry.plan)),
                }
            }
            _ => {
                self.misses.fetch_add(1, AtomicOrdering::Relaxed);
                PlanLookup::Miss
            }
        }
    }

    pub(crate) fn store(
        &self,
        key: Expr,
        version: u64,
        plan: Arc<Plan>,
        pending: Option<Arc<ObservedSelectivities>>,
    ) {
        let weight = plan.approx_bytes();
        write_lock(&self.entries).insert_weighted(
            key,
            CacheEntry {
                version,
                plan,
                pending,
                reoptimized: false,
            },
            weight,
        );
    }

    /// Store the winner of a re-optimisation round, marked so the entry does
    /// not re-enter the feedback loop until the provider's version changes.
    pub(crate) fn store_reoptimized(&self, key: Expr, version: u64, plan: Arc<Plan>) {
        self.reopts.fetch_add(1, AtomicOrdering::Relaxed);
        let weight = plan.approx_bytes();
        write_lock(&self.entries).insert_weighted(
            key,
            CacheEntry {
                version,
                plan,
                pending: None,
                reoptimized: true,
            },
            weight,
        );
    }

    /// A current persisted histogram for `(source, pattern, key vars)`, if any.
    pub(crate) fn histogram(&self, key: &StatsKey, version: u64) -> Option<KeyHistogram> {
        let stats = read_lock(&self.stats);
        match stats.get(key) {
            Some(entry) if entry.version == version => Some(entry.histogram),
            _ => None,
        }
    }

    /// A stale histogram's per-key counts and covered-row count, for
    /// copy-on-write refresh against an append-only provider.
    pub(crate) fn stale_histogram(
        &self,
        key: &StatsKey,
    ) -> Option<(usize, Arc<HashMap<Value, usize>>)> {
        let stats = read_lock(&self.stats);
        stats
            .get(key)
            .map(|entry| (entry.scanned, Arc::clone(&entry.counts)))
    }

    pub(crate) fn store_histogram(
        &self,
        key: StatsKey,
        version: u64,
        histogram: KeyHistogram,
        scanned: usize,
        counts: Arc<HashMap<Value, usize>>,
        refreshed: bool,
    ) {
        if refreshed {
            self.histogram_refreshes
                .fetch_add(1, AtomicOrdering::Relaxed);
        }
        let weight = counts.len() as u64 * 56 + 96;
        write_lock(&self.stats).insert_weighted(
            key,
            StatsEntry {
                version,
                histogram,
                scanned,
                counts,
            },
            weight,
        );
    }
}
