//! End-to-end query answering over virtual (integrated) schemas.
//!
//! A virtual schema object (an object of a federated, intersection or global schema)
//! has no stored extent: its extent is *defined* by the `add` transformations that
//! introduced it, one contribution per data source (plus possibly contributions
//! derived from other virtual objects). Following the paper, the extent of such an
//! object is the **bag union** of its contributions.
//!
//! [`VirtualExtents`] implements [`ExtentProvider`] on top of a [`SourceRegistry`] and
//! a set of [`Contribution`]s per scheme, so the ordinary IQL [`Evaluator`] can answer
//! any query posed on the integrated schema — this is GAV query processing by
//! unfolding, performed lazily during evaluation. Results are memoised per scheme and
//! recursion is cycle-checked.
//!
//! # Concurrency
//!
//! The provider satisfies the [`ExtentProvider`] `Sync` contract: the scheme memo is
//! `RwLock`-guarded (and can be shared across provider instances with
//! [`VirtualExtents::with_shared_cache`]), so one `VirtualExtents` can serve queries
//! from many threads at once. A scheme's per-source contributions are independent of
//! each other (bag-union semantics), so when a scheme has two or more they are
//! fetched and evaluated on scoped worker threads budgeted by the process-wide
//! [`iql::FetchPool`] semaphore (each worker taking a contiguous slice; whatever
//! the pool cannot grant runs inline on the caller); results are unioned in
//! registration order, keeping extents deterministic. Cycle detection is **static**:
//! before computing an extent the provider walks the scheme-dependency graph of the
//! view definitions — a contribution's scheme reference recurses only when it names
//! another *defined* scheme that the contribution's own source database cannot
//! resolve, exactly the runtime lookup rule — and rejects any scheme whose
//! definition is cyclic. Because the check never consults execution state, it holds
//! no matter which thread (the caller's, a contribution worker's, or one of the
//! evaluator's parallel-fetch workers) resolves which scheme.

use crate::error::AutomedError;
use crate::qp::Contribution;
use crate::wrapper::SourceRegistry;
use iql::ast::{Expr, SchemeRef};
use iql::error::EvalError;
use iql::eval::{EngineConfig, Evaluator, ExtentProvider};
use iql::lru::LruMap;
use iql::rewrite;
use iql::value::{Bag, Value};
use iql::FetchPool;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, PoisonError, RwLock};
use std::thread;

/// The definitions of all virtual schema objects: scheme key → contributions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ViewDefinitions {
    contributions: BTreeMap<String, Vec<Contribution>>,
}

impl ViewDefinitions {
    /// Empty definitions.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a contribution for a scheme. Contributions accumulate (bag-union
    /// semantics), in registration order.
    pub fn add_contribution(&mut self, scheme: &SchemeRef, contribution: Contribution) {
        self.contributions
            .entry(scheme.key())
            .or_default()
            .push(contribution);
    }

    /// The contributions registered for a scheme.
    pub fn contributions_for(&self, scheme: &SchemeRef) -> Option<&[Contribution]> {
        self.contributions_for_key(&scheme.key())
    }

    /// The contributions registered under a raw scheme key.
    pub fn contributions_for_key(&self, key: &str) -> Option<&[Contribution]> {
        self.contributions.get(key).map(Vec::as_slice)
    }

    /// Whether any contribution is registered for the scheme.
    pub fn defines(&self, scheme: &SchemeRef) -> bool {
        self.contributions.contains_key(&scheme.key())
    }

    /// Number of schemes with at least one contribution.
    pub fn defined_scheme_count(&self) -> usize {
        self.contributions.len()
    }

    /// Total number of contributions.
    pub fn contribution_count(&self) -> usize {
        self.contributions.values().map(Vec::len).sum()
    }

    /// Iterate over `(scheme key, contributions)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[Contribution])> {
        self.contributions
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_slice()))
    }

    /// Merge another set of definitions into this one.
    pub fn merge(&mut self, other: &ViewDefinitions) {
        for (k, v) in &other.contributions {
            self.contributions
                .entry(k.clone())
                .or_default()
                .extend(v.iter().cloned());
        }
    }
}

fn read<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Default number of extents an [`ExtentMemo`] holds before evicting.
pub const DEFAULT_EXTENT_CAPACITY: usize = 1024;

/// Default byte budget for an [`ExtentMemo`]'s materialised bags (64 MiB).
/// Entry *count* alone is a poor residency bound — one memoised extent can be
/// a million-row bag — so eviction also weighs entries by
/// [`iql::value::Bag::approx_bytes`] against this budget.
pub const DEFAULT_EXTENT_BYTES: u64 = 64 * 1024 * 1024;

/// A version-stamped scheme-key → extent memo, shareable across provider
/// instances (e.g. by a dataspace handing out one provider per query over the
/// same definitions). Self-invalidating: every provider access first syncs the
/// stamp against the provider's [`ExtentProvider::version`], clearing the memo
/// when the underlying source data (or the owner's version salt) moved — a
/// rebuilt plan can therefore never be constructed from stale memoised extents.
///
/// The memo is **bounded** two ways: at most [`ExtentMemo::capacity`] extents
/// are held, and their estimated resident bytes ([`Bag::approx_bytes`]) stay
/// within [`ExtentMemo::byte_budget`] — the least recently used extent is
/// evicted when either bound overflows ([`ExtentMemo::with_capacity_and_bytes`]
/// configures both; defaults [`DEFAULT_EXTENT_CAPACITY`] /
/// [`DEFAULT_EXTENT_BYTES`]). A long-lived dataspace serving an unbounded
/// query stream therefore keeps bounded memory even when individual extents
/// are huge. An evicted extent is simply recomputed on next use — eviction can
/// never serve stale data.
#[derive(Debug)]
pub struct ExtentMemo {
    stamp: RwLock<u64>,
    extents: RwLock<LruMap<String, Arc<Bag>>>,
}

impl Default for ExtentMemo {
    fn default() -> Self {
        Self::with_capacity_and_bytes(DEFAULT_EXTENT_CAPACITY, DEFAULT_EXTENT_BYTES)
    }
}

impl ExtentMemo {
    /// An empty memo (stamp 0) with the default capacity and byte budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty memo bounded to `capacity` extents with the default byte
    /// budget (LRU eviction past either bound).
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_and_bytes(capacity, DEFAULT_EXTENT_BYTES)
    }

    /// An empty memo bounded to `capacity` extents **and** `byte_budget`
    /// estimated resident bytes: inserting weighs each bag by
    /// [`Bag::approx_bytes`], evicting least-recently-used extents until both
    /// bounds hold. An evicted extent is recomputed on next use, so neither
    /// bound ever affects answers.
    pub fn with_capacity_and_bytes(capacity: usize, byte_budget: u64) -> Self {
        ExtentMemo {
            stamp: RwLock::new(0),
            extents: RwLock::new(LruMap::with_weight_budget(capacity, byte_budget)),
        }
    }

    /// The maximum number of extents held before LRU eviction.
    pub fn capacity(&self) -> usize {
        read(&self.extents).capacity()
    }

    /// The estimated-byte budget for memoised bags.
    pub fn byte_budget(&self) -> u64 {
        read(&self.extents).weight_budget()
    }

    /// Estimated resident bytes of the currently memoised bags.
    pub fn total_bytes(&self) -> u64 {
        read(&self.extents).total_weight()
    }

    /// How many extents have been evicted for capacity so far.
    pub fn eviction_count(&self) -> u64 {
        read(&self.extents).evictions()
    }

    /// Clear the memo when `version` differs from the recorded stamp.
    /// Lock order is stamp → extents everywhere.
    fn sync_to(&self, version: u64) {
        if *read(&self.stamp) == version {
            return;
        }
        let mut stamp = write(&self.stamp);
        if *stamp != version {
            write(&self.extents).clear();
            *stamp = version;
        }
    }

    /// The memoised extent for a scheme key, if any (refreshes its LRU slot; the
    /// refresh is atomic, so concurrent hits share the read lock).
    pub fn get(&self, key: &str) -> Option<Arc<Bag>> {
        read(&self.extents).get(key).cloned()
    }

    fn insert(&self, key: String, bag: Arc<Bag>) {
        let weight = bag.approx_bytes();
        write(&self.extents).insert_weighted(key, bag, weight);
    }

    /// Number of memoised extents.
    pub fn len(&self) -> usize {
        read(&self.extents).len()
    }

    /// Whether the memo holds no extents.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every memoised extent (explicit invalidation hook).
    pub fn clear(&self) {
        write(&self.extents).clear();
    }
}

/// A shareable handle to an [`ExtentMemo`].
pub type SharedExtentCache = Arc<ExtentMemo>;

/// The settings a provider's evaluators run under until
/// [`VirtualExtents::with_engine`] attaches others.
static DEFAULT_ENGINE: EngineConfig = EngineConfig::new();

/// An [`ExtentProvider`] for integrated schemas: resolves virtual schemes through
/// their contributions and memoises results. Safe to share across threads (see the
/// module docs for the concurrency story).
pub struct VirtualExtents<'a> {
    registry: &'a SourceRegistry,
    definitions: &'a ViewDefinitions,
    cache: SharedExtentCache,
    /// Scheme keys whose reachable definition subgraph is proven acyclic, so the
    /// static cycle check runs once per scheme, not once per extent computation.
    verified_acyclic: RwLock<BTreeSet<String>>,
    /// When set, schemes with no registered contribution are looked up in this source
    /// (used for federated schemas where untouched source objects remain queryable).
    fallback_sources: Vec<String>,
    /// Evaluate a scheme's contributions on scoped worker threads when ≥ 2.
    parallel: bool,
    /// The settings every evaluator spawned by [`VirtualExtents::answer`] and
    /// friends runs under (see [`VirtualExtents::with_engine`]).
    engine: &'a EngineConfig,
    /// Folded into [`ExtentProvider::version`] so the owner can invalidate plan
    /// caches on definition changes the registry's versions cannot see.
    version_salt: u64,
}

impl<'a> VirtualExtents<'a> {
    /// Create a provider over the given sources and view definitions.
    pub fn new(registry: &'a SourceRegistry, definitions: &'a ViewDefinitions) -> Self {
        VirtualExtents {
            registry,
            definitions,
            cache: Arc::new(ExtentMemo::new()),
            verified_acyclic: RwLock::new(BTreeSet::new()),
            fallback_sources: Vec::new(),
            parallel: true,
            engine: &DEFAULT_ENGINE,
            version_salt: 0,
        }
    }

    /// Also resolve schemes with no contribution by probing the named sources in
    /// order (first match wins).
    pub fn with_fallback_sources<I, S>(mut self, sources: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.fallback_sources = sources.into_iter().map(Into::into).collect();
        self
    }

    /// Use (and fill) a scheme memo shared with other provider instances over the
    /// same registry + definitions. The memo is version-stamped: it clears itself
    /// whenever this provider's [`ExtentProvider::version`] moves (source inserts,
    /// or a definitions change signalled through
    /// [`VirtualExtents::with_version_salt`]), so owners need no manual hook —
    /// though an eager [`ExtentMemo::clear`] is harmless.
    pub fn with_shared_cache(mut self, cache: SharedExtentCache) -> Self {
        self.cache = cache;
        self
    }

    /// Evaluate everything on the calling thread: contribution fan-out *and* the
    /// parallel extent prefetch of every evaluator this provider spawns. The
    /// thread-free reference leg of the differential tests.
    pub fn sequential(mut self) -> Self {
        self.parallel = false;
        self
    }

    /// Run the evaluators this provider spawns under `engine`: its toggles
    /// and its shared handles — plan cache, index store, engine counters, step
    /// probe (see [`EngineConfig`]; the handles' sharing contract is one per
    /// logical provider). Without this, spawned evaluators run under
    /// [`EngineConfig::new`].
    pub fn with_engine(mut self, engine: &'a EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// Fold an owner-managed generation counter into this provider's version, so
    /// view-definition changes invalidate plan caches (see
    /// [`ExtentProvider::version`]).
    pub fn with_version_salt(mut self, salt: u64) -> Self {
        self.version_salt = salt;
        self
    }

    /// Drop every memoised extent (explicit invalidation hook; also clears a cache
    /// installed with [`VirtualExtents::with_shared_cache`]).
    pub fn invalidate(&self) {
        self.cache.clear();
    }

    /// Number of schemes with a memoised extent.
    pub fn cached_scheme_count(&self) -> usize {
        self.cache.len()
    }

    /// Build the evaluator used for [`VirtualExtents::answer`]: the attached
    /// engine settings, fetching sequentially when this provider does.
    fn evaluator(&self) -> Evaluator<&Self> {
        let ev = Evaluator::with_config(self, self.engine.clone());
        if self.parallel {
            ev
        } else {
            ev.without_parallel_fetch()
        }
    }

    /// Answer a query posed on the integrated schema.
    pub fn answer(&self, query: &Expr) -> Result<Value, AutomedError> {
        Ok(self.evaluator().eval_closed(query)?)
    }

    /// Answer a query under a set of named parameter bindings (`?name`
    /// placeholders in the query resolve through `params` at execution time).
    ///
    /// This is the execution path of prepared queries: the expression — and
    /// therefore the plan-cache key — is the same for every binding, so all
    /// executions of one query shape share one cached plan.
    pub fn answer_with(&self, query: &Expr, params: &iql::Params) -> Result<Value, AutomedError> {
        let env = iql::env::Env::new().with_params(params.clone());
        Ok(self.evaluator().eval(query, &env)?)
    }

    /// Answer a query under parameter bindings and insist on a bag result.
    pub fn answer_bag_with(&self, query: &Expr, params: &iql::Params) -> Result<Bag, AutomedError> {
        Ok(self.answer_with(query, params)?.expect_bag()?)
    }

    /// Plan `query`'s top-level comprehension (without executing it) and report
    /// the join statistics and strategies — including join trees — the same
    /// way [`Evaluator::explain`] does for a plain provider. Resolving the
    /// extents the planner needs may itself evaluate contributions (GAV
    /// unfolding), so this can fail like [`VirtualExtents::answer`].
    pub fn explain(&self, query: &Expr) -> Result<Vec<iql::JoinStats>, AutomedError> {
        Ok(self.evaluator().explain(query, &iql::env::Env::new())?)
    }

    /// Answer a query with comprehension planning disabled (naive nested loops).
    /// Reference semantics for tests and the baseline for benchmarks; note that the
    /// extents the contributions themselves are computed with still use the planning
    /// evaluator via [`ExtentProvider`].
    pub fn answer_with_nested_loops(&self, query: &Expr) -> Result<Value, AutomedError> {
        Ok(self.evaluator().with_nested_loops().eval_closed(query)?)
    }

    /// Answer a query with planning disabled, under parameter bindings — the
    /// reference leg the prepared-execution differentials compare against.
    pub fn answer_with_nested_loops_params(
        &self,
        query: &Expr,
        params: &iql::Params,
    ) -> Result<Value, AutomedError> {
        let env = iql::env::Env::new().with_params(params.clone());
        Ok(self.evaluator().with_nested_loops().eval(query, &env)?)
    }

    /// Answer a query and insist on a bag result.
    pub fn answer_bag(&self, query: &Expr) -> Result<Bag, AutomedError> {
        Ok(self.answer(query)?.expect_bag()?)
    }

    /// Build a [`iql::StandingPlan`] for `query` over the virtual schema under
    /// fixed parameter bindings, or `None` when the shape is not incrementally
    /// maintainable (see [`Evaluator::standing_plan`] for the contract).
    pub fn standing_plan(
        &self,
        query: &Expr,
        params: &iql::Params,
    ) -> Result<Option<iql::StandingPlan>, AutomedError> {
        let env = iql::env::Env::new().with_params(params.clone());
        Ok(self.evaluator().standing_plan(query, &env)?)
    }

    /// Execute a standing plan in full (initial answer / re-synchronisation).
    pub fn execute_standing(
        &self,
        plan: &iql::StandingPlan,
        params: &iql::Params,
    ) -> Result<Bag, AutomedError> {
        let env = iql::env::Env::new().with_params(params.clone());
        Ok(self.evaluator().execute_standing(plan, &env)?)
    }

    /// Delta-evaluate a standing plan against rows appended to its lead
    /// scheme's extent (see [`Evaluator::delta_standing`] for the soundness
    /// contract the caller's version bookkeeping must enforce).
    pub fn delta_standing(
        &self,
        plan: &iql::StandingPlan,
        appended: &[iql::Value],
        params: &iql::Params,
    ) -> Result<Bag, AutomedError> {
        let env = iql::env::Env::new().with_params(params.clone());
        Ok(self.evaluator().delta_standing(plan, appended, &env)?)
    }

    /// Evaluate one contribution to a scheme's extent.
    fn eval_contribution(
        &self,
        scheme: &SchemeRef,
        contribution: &Contribution,
    ) -> Result<Value, EvalError> {
        match &contribution.source {
            Some(source) => {
                let db = self
                    .registry
                    .database(source)
                    .map_err(|_| EvalError::UnknownScheme(scheme.clone()))?;
                // Queries over a named source may still reference other virtual
                // objects (e.g. an intersection object defined partly in terms of
                // the evolving global schema), so the source is layered over this
                // provider.
                let layered = LayeredProvider {
                    primary: db,
                    fallback: self,
                };
                let ev = Evaluator::new(&layered);
                let ev = if self.parallel {
                    ev
                } else {
                    ev.without_parallel_fetch()
                };
                ev.eval_closed(&contribution.query)
            }
            None => self.evaluator().eval_closed(&contribution.query),
        }
    }

    /// Evaluate all contributions, on scoped worker threads when there are at
    /// least two (contributions over distinct sources are independent), each
    /// worker taking a contiguous slice with results reassembled in registration
    /// order (deterministic bag union). Worker threads are budgeted by the
    /// process-wide [`FetchPool`] semaphore — nested resolutions draw from the
    /// same global budget instead of multiplying per-call caps, and whatever the
    /// pool cannot grant runs inline on the calling thread.
    fn eval_contributions(
        &self,
        scheme: &SchemeRef,
        contributions: &[Contribution],
    ) -> Vec<Result<Value, EvalError>> {
        // A single-core machine (pool capacity 1) gains nothing from running a
        // worker alongside the caller — skip the fan-out entirely there.
        let pool = FetchPool::global();
        let mut permits = if self.parallel && contributions.len() >= 2 && pool.capacity() >= 2 {
            pool.acquire_up_to(contributions.len() - 1)
        } else {
            pool.acquire_up_to(0)
        };
        if permits.count() == 0 {
            return contributions
                .iter()
                .map(|c| self.eval_contribution(scheme, c))
                .collect();
        }
        let workers = permits.count() + 1; // the calling thread takes a share too
        let chunk = contributions.len().div_ceil(workers);
        // Ceil-division may need fewer chunks than workers: return the surplus
        // permits instead of stranding them for the fan-out.
        permits.truncate(contributions.len().div_ceil(chunk) - 1);
        thread::scope(|scope| {
            let mut chunks = contributions.chunks(chunk);
            let caller_share = chunks.next().unwrap_or(&[]);
            let handles: Vec<_> = chunks
                .map(|slice| {
                    scope.spawn(move || {
                        slice
                            .iter()
                            .map(|c| self.eval_contribution(scheme, c))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let mut results: Vec<Result<Value, EvalError>> = caller_share
                .iter()
                .map(|c| self.eval_contribution(scheme, c))
                .collect();
            for handle in handles {
                results.extend(handle.join().expect("contribution worker panicked"));
            }
            results
        })
    }

    /// The scheme keys a defined scheme's contributions can recurse into: every
    /// scheme referenced by a contribution query that (a) is itself defined and
    /// (b) is **not** resolvable in the contribution's own source database —
    /// mirroring the runtime rule that a source contribution's references try the
    /// source first and only fall back to the virtual schema.
    fn virtual_deps(&self, key: &str) -> Vec<String> {
        let Some(contributions) = self.definitions.contributions_for_key(key) else {
            return Vec::new();
        };
        let mut deps = BTreeSet::new();
        for contribution in contributions {
            let source_schema = contribution
                .source
                .as_deref()
                .and_then(|s| self.registry.database(s).ok())
                .map(|db| db.schema());
            for referenced in rewrite::collect_schemes(&contribution.query) {
                let ref_key = referenced.key();
                if self.definitions.contributions_for_key(&ref_key).is_none() {
                    continue; // resolves via fallback sources, never recurses
                }
                let resolved_in_source = source_schema
                    .is_some_and(|schema| relational::wrapper::covers(schema, &referenced));
                if !resolved_in_source {
                    deps.insert(ref_key);
                }
            }
        }
        deps.into_iter().collect()
    }

    /// Statically verify that the definition subgraph reachable from `root` is
    /// acyclic (depth-first over [`Self::virtual_deps`]). Runs before an extent is
    /// computed, so cyclic view definitions error cleanly no matter which thread
    /// the recursion would have unfolded on; verified schemes are memoised.
    fn ensure_acyclic(&self, root: &str, scheme: &SchemeRef) -> Result<(), EvalError> {
        if read(&self.verified_acyclic).contains(root) {
            return Ok(());
        }
        enum Frame {
            Enter(String),
            Exit(String),
        }
        let mut on_path: BTreeSet<String> = BTreeSet::new();
        let mut done: BTreeSet<String> = BTreeSet::new();
        let mut stack = vec![Frame::Enter(root.to_string())];
        while let Some(frame) = stack.pop() {
            match frame {
                Frame::Enter(key) => {
                    if done.contains(&key) {
                        continue;
                    }
                    if !on_path.insert(key.clone()) {
                        return Err(EvalError::TypeError {
                            context: format!("extent of {scheme}"),
                            found: "cyclic view definition".into(),
                        });
                    }
                    let deps = self.virtual_deps(&key);
                    stack.push(Frame::Exit(key));
                    for dep in deps {
                        if on_path.contains(&dep) {
                            return Err(EvalError::TypeError {
                                context: format!("extent of {scheme}"),
                                found: "cyclic view definition".into(),
                            });
                        }
                        if !done.contains(&dep) {
                            stack.push(Frame::Enter(dep));
                        }
                    }
                }
                Frame::Exit(key) => {
                    on_path.remove(&key);
                    done.insert(key);
                }
            }
        }
        write(&self.verified_acyclic).extend(done);
        Ok(())
    }

    fn compute_extent(&self, scheme: &SchemeRef) -> Result<Arc<Bag>, EvalError> {
        let Some(contributions) = self.definitions.contributions_for(scheme) else {
            // Fall back to probing the configured sources directly.
            for source in &self.fallback_sources {
                if let Ok(db) = self.registry.database(source) {
                    if let Ok(bag) = db.extent(scheme) {
                        return Ok(bag);
                    }
                }
            }
            return Err(EvalError::UnknownScheme(scheme.clone()));
        };
        let mut result: Vec<Value> = Vec::new();
        for value in self.eval_contributions(scheme, contributions) {
            match value? {
                Value::Void => {}
                other => {
                    let bag = other.expect_bag()?;
                    result.extend(bag.iter().cloned());
                }
            }
        }
        Ok(Arc::new(Bag::from_values(result)))
    }
}

impl ExtentProvider for VirtualExtents<'_> {
    fn extent(&self, scheme: &SchemeRef) -> Result<Arc<Bag>, EvalError> {
        self.cache.sync_to(self.version());
        let key = scheme.key();
        if let Some(cached) = self.cache.get(&key) {
            return Ok(cached);
        }
        self.ensure_acyclic(&key, scheme)?;
        let result = self.compute_extent(scheme);
        if let Ok(bag) = &result {
            self.cache.insert(key, Arc::clone(bag));
        }
        result
    }

    /// Combines the registry's source versions with the owner's salt: a mutation of
    /// any underlying source (or a definitions change signalled through the salt)
    /// invalidates plan-cache entries built over this provider.
    fn version(&self) -> u64 {
        self.registry
            .data_version()
            .wrapping_add(self.version_salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Resolving a virtual scheme evaluates its contribution queries — expensive
    /// enough that the evaluator should overlap independent generator fetches.
    fn prefers_parallel_fetch(&self) -> bool {
        true
    }
}

/// Resolves schemes against a primary provider first, then a fallback.
struct LayeredProvider<'a, P, F> {
    primary: &'a P,
    fallback: &'a F,
}

impl<P: ExtentProvider, F: ExtentProvider> ExtentProvider for LayeredProvider<'_, P, F> {
    fn extent(&self, scheme: &SchemeRef) -> Result<Arc<Bag>, EvalError> {
        match self.primary.extent(scheme) {
            Ok(bag) => Ok(bag),
            Err(_) => self.fallback.extent(scheme),
        }
    }

    fn version(&self) -> u64 {
        self.primary
            .version()
            .wrapping_add(self.fallback.version().rotate_left(32))
    }

    fn prefers_parallel_fetch(&self) -> bool {
        self.primary.prefers_parallel_fetch() || self.fallback.prefers_parallel_fetch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iql::parse;
    use relational::schema::{DataType, RelColumn, RelSchema, RelTable};
    use relational::Database;

    fn pedro() -> Database {
        let mut s = RelSchema::new("pedro");
        s.add_table(
            RelTable::new("protein")
                .with_column(RelColumn::new("id", DataType::Int))
                .with_column(RelColumn::new("accession_num", DataType::Text))
                .with_primary_key(["id"]),
        )
        .unwrap();
        let mut db = Database::new(s);
        db.insert("protein", vec![1.into(), "ACC1".into()]).unwrap();
        db.insert("protein", vec![2.into(), "ACC2".into()]).unwrap();
        db
    }

    fn gpmdb() -> Database {
        let mut s = RelSchema::new("gpmdb");
        s.add_table(
            RelTable::new("proseq")
                .with_column(RelColumn::new("proseqid", DataType::Int))
                .with_column(RelColumn::new("label", DataType::Text))
                .with_primary_key(["proseqid"]),
        )
        .unwrap();
        let mut db = Database::new(s);
        db.insert("proseq", vec![10.into(), "ACC2".into()]).unwrap();
        db.insert("proseq", vec![11.into(), "ACC3".into()]).unwrap();
        db
    }

    fn registry() -> SourceRegistry {
        let mut r = SourceRegistry::new();
        r.add_source(pedro()).unwrap();
        r.add_source(gpmdb()).unwrap();
        r
    }

    fn uprotein_definitions() -> ViewDefinitions {
        let mut defs = ViewDefinitions::new();
        let uprotein = SchemeRef::table("UProtein");
        defs.add_contribution(
            &uprotein,
            Contribution::from_source("pedro", parse("[{'PEDRO', k} | k <- <<protein>>]").unwrap()),
        );
        defs.add_contribution(
            &uprotein,
            Contribution::from_source("gpmdb", parse("[{'gpmDB', k} | k <- <<proseq>>]").unwrap()),
        );
        let acc = SchemeRef::column("UProtein", "accession_num");
        defs.add_contribution(
            &acc,
            Contribution::from_source(
                "pedro",
                parse("[{'PEDRO', k, x} | {k, x} <- <<protein, accession_num>>]").unwrap(),
            ),
        );
        defs.add_contribution(
            &acc,
            Contribution::from_source(
                "gpmdb",
                parse("[{'gpmDB', k, x} | {k, x} <- <<proseq, label>>]").unwrap(),
            ),
        );
        // A derived object defined purely over the virtual schema.
        defs.add_contribution(
            &SchemeRef::table("SharedAccession"),
            Contribution::derived(
                parse(
                    "[x | {s1, k1, x} <- <<UProtein, accession_num>>; {s2, k2, y} <- <<UProtein, accession_num>>; x = y; s1 = 'PEDRO'; s2 = 'gpmDB']",
                )
                .unwrap(),
            ),
        );
        defs
    }

    #[test]
    fn extent_is_bag_union_of_contributions() {
        let reg = registry();
        let defs = uprotein_definitions();
        let virt = VirtualExtents::new(&reg, &defs);
        let bag = virt.extent(&SchemeRef::table("UProtein")).unwrap();
        assert_eq!(bag.len(), 4); // 2 from pedro + 2 from gpmdb
        assert!(bag.contains(&Value::pair(Value::str("PEDRO"), Value::Int(1))));
        assert!(bag.contains(&Value::pair(Value::str("gpmDB"), Value::Int(11))));
    }

    #[test]
    fn derived_objects_resolve_recursively() {
        let reg = registry();
        let defs = uprotein_definitions();
        let virt = VirtualExtents::new(&reg, &defs);
        let q = parse("count <<SharedAccession>>").unwrap();
        // ACC2 appears in both sources.
        assert_eq!(virt.answer(&q).unwrap(), Value::Int(1));
    }

    #[test]
    fn queries_over_virtual_schema_answerable() {
        let reg = registry();
        let defs = uprotein_definitions();
        let virt = VirtualExtents::new(&reg, &defs);
        let q = parse("[x | {s, k, x} <- <<UProtein, accession_num>>; s = 'gpmDB']").unwrap();
        let bag = virt.answer_bag(&q).unwrap();
        assert_eq!(bag.len(), 2);
        assert!(bag.contains(&Value::str("ACC3")));
    }

    #[test]
    fn fallback_sources_expose_untouched_objects() {
        let reg = registry();
        let defs = uprotein_definitions();
        let virt = VirtualExtents::new(&reg, &defs).with_fallback_sources(["pedro", "gpmdb"]);
        // ⟨⟨proseq⟩⟩ has no contribution; it is resolved directly from gpmdb.
        let q = parse("count <<proseq>>").unwrap();
        assert_eq!(virt.answer(&q).unwrap(), Value::Int(2));
        // Without fallback it is an unknown scheme.
        let strict = VirtualExtents::new(&reg, &defs);
        assert!(strict.answer(&q).is_err());
    }

    #[test]
    fn results_are_cached_per_scheme() {
        let reg = registry();
        let defs = uprotein_definitions();
        let virt = VirtualExtents::new(&reg, &defs);
        let q = parse("count <<UProtein>> + count <<UProtein>>").unwrap();
        assert_eq!(virt.answer(&q).unwrap(), Value::Int(8));
        assert!(virt.cache.get("UProtein").is_some());
        assert_eq!(virt.cached_scheme_count(), 1);
    }

    #[test]
    fn parallel_and_sequential_contribution_fetch_agree() {
        let reg = registry();
        let defs = uprotein_definitions();
        let parallel = VirtualExtents::new(&reg, &defs);
        let sequential = VirtualExtents::new(&reg, &defs).sequential();
        for q in [
            "count <<UProtein>>",
            "[x | {s, k, x} <- <<UProtein, accession_num>>; s = 'gpmDB']",
            "count <<SharedAccession>>",
        ] {
            let q = parse(q).unwrap();
            assert_eq!(parallel.answer(&q).unwrap(), sequential.answer(&q).unwrap());
        }
    }

    #[test]
    fn shared_cache_is_filled_and_reused_across_provider_instances() {
        let reg = registry();
        let defs = uprotein_definitions();
        let shared: SharedExtentCache = Arc::new(ExtentMemo::new());
        {
            let virt = VirtualExtents::new(&reg, &defs).with_shared_cache(Arc::clone(&shared));
            virt.answer(&parse("count <<UProtein>>").unwrap()).unwrap();
        }
        assert!(shared.get("UProtein").is_some());
        // A second provider over the same definitions reuses the memo (same Arc).
        let virt2 = VirtualExtents::new(&reg, &defs).with_shared_cache(Arc::clone(&shared));
        let before = shared.get("UProtein").unwrap();
        let bag = virt2.extent(&SchemeRef::table("UProtein")).unwrap();
        assert!(Arc::ptr_eq(&before, &bag));
        virt2.invalidate();
        assert_eq!(virt2.cached_scheme_count(), 0);
    }

    #[test]
    fn shared_cache_self_invalidates_when_source_data_moves() {
        // Warm the memo, then mutate a source through the registry: the stamped
        // memo must clear itself on next access, so a rebuilt plan can never bake
        // in stale extents.
        let mut reg = registry();
        let defs = uprotein_definitions();
        let shared: SharedExtentCache = Arc::new(ExtentMemo::new());
        {
            let virt = VirtualExtents::new(&reg, &defs).with_shared_cache(Arc::clone(&shared));
            assert_eq!(
                virt.answer(&parse("count <<UProtein>>").unwrap()).unwrap(),
                Value::Int(4)
            );
        }
        assert!(shared.get("UProtein").is_some());
        reg.database_mut("pedro")
            .unwrap()
            .insert("protein", vec![3.into(), "ACC3b".into()])
            .unwrap();
        let virt = VirtualExtents::new(&reg, &defs).with_shared_cache(Arc::clone(&shared));
        assert_eq!(
            virt.answer(&parse("count <<UProtein>>").unwrap()).unwrap(),
            Value::Int(5),
            "memo stamped with the old version must not serve after an insert"
        );
    }

    #[test]
    fn cyclic_definitions_error_through_evaluator_parallel_fetch() {
        // The shape the evaluator fans out on worker threads: a comprehension over
        // two independent generator sources whose schemes are mutually recursive.
        // The static cycle check must produce a clean error (not unbounded thread
        // recursion) regardless of which worker resolves which scheme.
        let reg = registry();
        let mut defs = ViewDefinitions::new();
        defs.add_contribution(
            &SchemeRef::table("A"),
            Contribution::derived(
                parse("[{x, y} | {k, x} <- <<B>>; {k2, y} <- <<C>>; k2 = k]").unwrap(),
            ),
        );
        defs.add_contribution(
            &SchemeRef::table("B"),
            Contribution::derived(parse("[k | k <- <<A>>]").unwrap()),
        );
        defs.add_contribution(
            &SchemeRef::table("C"),
            Contribution::derived(parse("[{k, k} | k <- <<B>>]").unwrap()),
        );
        let virt = VirtualExtents::new(&reg, &defs);
        let err = virt.answer(&parse("count <<A>>").unwrap());
        assert!(err.is_err(), "cyclic A → B → A must error, not recurse");
    }

    #[test]
    fn version_reflects_sources_and_salt() {
        let reg = registry();
        let defs = uprotein_definitions();
        let v0 = VirtualExtents::new(&reg, &defs).version();
        let salted = VirtualExtents::new(&reg, &defs)
            .with_version_salt(1)
            .version();
        assert_ne!(v0, salted);
        // Mutating a source shifts the unsalted version too.
        let mut reg2 = SourceRegistry::new();
        reg2.add_source(pedro()).unwrap();
        reg2.add_source(gpmdb()).unwrap();
        let before = VirtualExtents::new(&reg2, &defs).version();
        reg2.database_mut("pedro")
            .unwrap()
            .insert("protein", vec![3.into(), "ACC9".into()])
            .unwrap();
        let after = VirtualExtents::new(&reg2, &defs).version();
        assert_ne!(before, after);
    }

    #[test]
    fn cyclic_definitions_detected_through_parallel_workers() {
        // Two contributions per scheme force the scoped-thread path; the recursion
        // A → B → A crosses worker threads and must still error, not hang.
        let reg = registry();
        let mut defs = ViewDefinitions::new();
        defs.add_contribution(
            &SchemeRef::table("A"),
            Contribution::derived(parse("[k | k <- <<B>>]").unwrap()),
        );
        defs.add_contribution(
            &SchemeRef::table("A"),
            Contribution::derived(parse("[k | k <- <<B>>]").unwrap()),
        );
        defs.add_contribution(
            &SchemeRef::table("B"),
            Contribution::derived(parse("[k | k <- <<A>>]").unwrap()),
        );
        defs.add_contribution(
            &SchemeRef::table("B"),
            Contribution::derived(parse("[k | k <- <<A>>]").unwrap()),
        );
        let virt = VirtualExtents::new(&reg, &defs);
        assert!(virt.answer(&parse("count <<A>>").unwrap()).is_err());
    }

    #[test]
    fn cyclic_definitions_are_detected() {
        let reg = registry();
        let mut defs = ViewDefinitions::new();
        defs.add_contribution(
            &SchemeRef::table("A"),
            Contribution::derived(parse("[k | k <- <<B>>]").unwrap()),
        );
        defs.add_contribution(
            &SchemeRef::table("B"),
            Contribution::derived(parse("[k | k <- <<A>>]").unwrap()),
        );
        let virt = VirtualExtents::new(&reg, &defs);
        assert!(virt.answer(&parse("count <<A>>").unwrap()).is_err());
    }

    #[test]
    fn void_contributions_contribute_nothing() {
        let reg = registry();
        let mut defs = uprotein_definitions();
        defs.add_contribution(
            &SchemeRef::table("UProtein"),
            Contribution::derived(Expr::range_void_any()),
        );
        let virt = VirtualExtents::new(&reg, &defs);
        let bag = virt.extent(&SchemeRef::table("UProtein")).unwrap();
        assert_eq!(bag.len(), 4);
    }

    #[test]
    fn definitions_merge_and_count() {
        let mut a = uprotein_definitions();
        let mut b = ViewDefinitions::new();
        b.add_contribution(
            &SchemeRef::table("UPeptideHit"),
            Contribution::from_source("pedro", parse("[k | k <- <<peptidehit>>]").unwrap()),
        );
        let before = a.contribution_count();
        a.merge(&b);
        assert_eq!(a.contribution_count(), before + 1);
        assert!(a.defines(&SchemeRef::table("UPeptideHit")));
        assert_eq!(a.iter().count(), a.defined_scheme_count());
    }

    /// A bag of `rows` strings of `width` chars each.
    fn wide_bag(rows: usize, width: usize) -> Arc<Bag> {
        Arc::new(Bag::from_values(
            (0..rows)
                .map(|i| iql::value::Value::str(format!("{i:0width$}")))
                .collect(),
        ))
    }

    #[test]
    fn byte_budget_evicts_heavy_extents_before_count_bound() {
        // Room for 100 entries by count, but only ~one wide bag by bytes.
        let one_bag_bytes = wide_bag(50, 64).approx_bytes();
        let memo = ExtentMemo::with_capacity_and_bytes(100, one_bag_bytes + 16);
        memo.insert("a".into(), wide_bag(50, 64));
        assert_eq!(memo.len(), 1);
        assert_eq!(memo.eviction_count(), 0);
        memo.insert("b".into(), wide_bag(50, 64));
        // The second bag can't fit alongside the first: LRU eviction by bytes.
        assert_eq!(memo.len(), 1);
        assert_eq!(memo.eviction_count(), 1);
        assert!(memo.get("b").is_some(), "newest entry survives");
        assert!(memo.get("a").is_none(), "stalest entry evicted");
        assert!(memo.total_bytes() <= memo.byte_budget());
    }

    #[test]
    fn count_bound_still_applies_under_a_generous_byte_budget() {
        let memo = ExtentMemo::with_capacity_and_bytes(2, u64::MAX);
        memo.insert("a".into(), wide_bag(1, 4));
        memo.insert("b".into(), wide_bag(1, 4));
        memo.insert("c".into(), wide_bag(1, 4));
        assert_eq!(memo.len(), 2);
        assert_eq!(memo.eviction_count(), 1);
    }

    #[test]
    fn byte_weights_release_on_clear_and_version_sync() {
        let memo = ExtentMemo::with_capacity_and_bytes(8, u64::MAX);
        memo.insert("a".into(), wide_bag(10, 32));
        assert!(memo.total_bytes() > 0);
        memo.clear();
        assert_eq!(memo.total_bytes(), 0);
        memo.insert("b".into(), wide_bag(10, 32));
        memo.sync_to(7); // version moved: memo clears, weights released
        assert_eq!(memo.total_bytes(), 0);
        assert_eq!(memo.len(), 0);
    }
}
