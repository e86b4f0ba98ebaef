//! Standing subscriptions: prepared queries maintained incrementally across
//! inserts.
//!
//! A [`Subscription`] is a prepared query + fixed parameter bindings whose
//! result the dataspace keeps current as source rows are inserted through
//! [`crate::dataspace::Dataspace::insert`] /
//! [`crate::dataspace::Dataspace::insert_many`]. Where the query shape allows
//! it, maintenance is **O(delta)**: the new rows' contributions are driven
//! through the retained [`iql::StandingPlan`] (probing its retained hash-join
//! indexes rather than rebuilding them), and the appended result rows are
//! pushed to the subscriber as [`SubscriptionUpdate::Delta`]. Shapes or
//! situations outside the incremental contract fall back to a transparent full
//! re-execution ([`SubscriptionUpdate::Refreshed`]) — semantics never change,
//! only cost. The registry is indexed by the `(source, table)` extents each
//! subscription transitively touches, so an insert only examines the
//! subscriptions it can actually affect.
//!
//! ## When does an insert take the delta path?
//!
//! All of the following must hold (checked per insert, falling back otherwise):
//!
//! 1. the subscription has a standing plan (the query is a comprehension whose
//!    first generator iterates a scheme extent referenced exactly once);
//! 2. the subscription's result is synchronised to the provider version the
//!    insert started from (no missed intermediate changes);
//! 3. among the global schemes the plan touches, **only the lead scheme**
//!    depends on the inserted `(source, table)`;
//! 4. the lead scheme's appended global-extent rows are computable: exactly
//!    one of its contributions depends on the inserted table, that
//!    contribution is the **last** registered (so its delta appends at the
//!    tail of the concatenated global extent), and the contribution query is
//!    itself incrementally evaluable against the source's
//!    [`relational::store::TableDelta`] (identity scheme references — the
//!    federation case — are served verbatim; comprehension contributions go
//!    through the same standing-plan machinery one level down).
//!
//! The differential harness in `tests/subscriptions.rs` locks in that both
//! paths agree with plain re-execution, order and multiplicity included.

use automed::qp::evaluator::VirtualExtents;
use automed::qp::Contribution;
use automed::wrapper::SourceRegistry;
use iql::env::Env;
use iql::eval::{Evaluator, ExtentProvider};
use iql::value::{Bag, Value};
use iql::{EvalError, Params, SchemeRef, StandingPlan};
use relational::store::TableDelta;
use relational::Database;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, Weak};

/// One change notification pushed to a subscriber (see
/// [`Subscription::drain_updates`]).
#[derive(Debug, Clone, PartialEq)]
pub enum SubscriptionUpdate {
    /// Rows **appended** to the result by O(delta) incremental maintenance.
    /// The full result is the previous result followed by these rows.
    Delta(Bag),
    /// The full result, re-executed from scratch (fallback path, and every
    /// schema change through `federate`/`integrate`). Replaces the previous
    /// result wholesale. Carries a [`Value`] rather than a [`Bag`] because
    /// non-bag-valued queries (aggregates like `count ⟨⟨…⟩⟩`) are subscribable
    /// too — they simply always take this path.
    Refreshed(Value),
}

/// The callback a subscriber registers with
/// [`Subscription::notify_on_update`]. It runs on the committing thread, under
/// the dataspace's write borrow, so it must only signal (set a flag, notify a
/// condition variable) — the woken party then calls
/// [`Subscription::drain_updates`].
pub type Waker = Arc<dyn Fn() + Send + Sync>;

/// A live subscription handle: the current result plus the queue of updates
/// since the last drain. Clones share the same underlying state; the handle is
/// independent of the dataspace's borrow (it stays usable — serving the last
/// synchronised result — while the dataspace is locked for writing, which is
/// what makes subscriber threads raceable against inserts).
#[derive(Debug, Clone)]
pub struct Subscription {
    state: Arc<SubState>,
}

impl Subscription {
    /// A snapshot of the current (last synchronised) result.
    pub fn result(&self) -> Value {
        self.state.lock().result.clone()
    }

    /// The current result as a bag ([`iql::EvalError::TypeError`] via
    /// `expect_bag` semantics — errors for aggregate-valued queries).
    pub fn result_bag(&self) -> Result<Bag, EvalError> {
        self.result().expect_bag()
    }

    /// Take every update pushed since the last drain, in push order.
    pub fn drain_updates(&self) -> Vec<SubscriptionUpdate> {
        std::mem::take(&mut self.state.lock().updates)
    }

    /// Register the callback run whenever a commit (or schema change) queues
    /// an update for this subscription, replacing any earlier one. One commit
    /// runs each distinct waker **once**, after the last subscription it
    /// affects has been updated — so a subscriber sharing one waker across
    /// its subscriptions is woken once and finds every update of that commit
    /// ready to drain. Updates already queued at registration do not fire it.
    pub fn notify_on_update(&self, waker: Waker) {
        self.state.lock().waker = WakerSlot(Some(waker));
    }

    /// Whether the subscription currently holds a standing plan — i.e. whether
    /// inserts touching only its lead extent are absorbed in O(delta) instead
    /// of re-executing.
    pub fn is_incremental(&self) -> bool {
        self.state.lock().standing.is_some()
    }

    pub(crate) fn from_state(state: Arc<SubState>) -> Self {
        Subscription { state }
    }
}

/// The shared mutable state behind a [`Subscription`].
#[derive(Debug)]
pub(crate) struct SubState {
    /// The prepared expression (shared with the dataspace's parse memo).
    pub(crate) expr: Arc<iql::Expr>,
    /// Parameter bindings fixed at subscribe time.
    pub(crate) params: Params,
    inner: Mutex<SubInner>,
}

#[derive(Debug)]
pub(crate) struct SubInner {
    /// The current result (authoritative while `synced` is current).
    pub(crate) result: Value,
    /// The retained incremental plan, when the shape allows one.
    pub(crate) standing: Option<StandingPlan>,
    /// Provider version `result` is synchronised to; `None` marks the state
    /// stale (the next affecting insert re-executes unconditionally).
    pub(crate) synced: Option<u64>,
    /// Per touched global scheme: the `(source, table)` extents it transitively
    /// depends on; `None` means the dependencies could not be resolved and the
    /// scheme must be treated as affected by **every** insert.
    pub(crate) scheme_deps: BTreeMap<String, Option<BTreeSet<(String, String)>>>,
    /// Updates pushed since the subscriber last drained.
    updates: Vec<SubscriptionUpdate>,
    /// Who to wake when `updates` grows (see [`Subscription::notify_on_update`]).
    waker: WakerSlot,
}

/// An optional [`Waker`], printable (closures are not `Debug`).
#[derive(Default)]
struct WakerSlot(Option<Waker>);

impl std::fmt::Debug for WakerSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() { "Some(..)" } else { "None" })
    }
}

impl SubInner {
    /// Queue one update for the subscriber — the only place `updates` grows —
    /// and note its waker in `wake`, which the caller fires once the whole
    /// commit has been fanned out.
    pub(crate) fn push_update(&mut self, update: SubscriptionUpdate, wake: &mut WakeSet) {
        self.updates.push(update);
        if let Some(waker) = &self.waker.0 {
            wake.add(waker);
        }
    }
}

/// The distinct wakers of the subscriptions one commit has updated so far.
#[derive(Default)]
pub(crate) struct WakeSet(Vec<Waker>);

impl WakeSet {
    fn add(&mut self, waker: &Waker) {
        if !self.0.iter().any(|w| Arc::ptr_eq(w, waker)) {
            self.0.push(Arc::clone(waker));
        }
    }

    /// Run each waker once. Call with no subscription lock held.
    pub(crate) fn fire(self) {
        for waker in self.0 {
            waker();
        }
    }
}

impl SubState {
    pub(crate) fn new(expr: Arc<iql::Expr>, params: Params) -> Self {
        SubState {
            expr,
            params,
            inner: Mutex::new(SubInner {
                result: Value::Void,
                standing: None,
                synced: None,
                scheme_deps: BTreeMap::new(),
                updates: Vec::new(),
                waker: WakerSlot::default(),
            }),
        }
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, SubInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The union of every touched scheme's dependencies; `None` when any
    /// scheme's dependencies are unresolved (affected by every insert).
    pub(crate) fn flat_deps(inner: &SubInner) -> Option<BTreeSet<(String, String)>> {
        let mut out = BTreeSet::new();
        for deps in inner.scheme_deps.values() {
            out.extend(deps.as_ref()?.iter().cloned());
        }
        Some(out)
    }
}

/// The dataspace's subscription registry: weak entries (a dropped
/// [`Subscription`] handle unsubscribes implicitly; dead entries are pruned
/// lazily) indexed by the `(source, table)` extents each subscription touches.
#[derive(Debug, Default)]
pub(crate) struct SubscriptionRegistry {
    inner: RwLock<RegistryInner>,
    /// Inserts absorbed through O(delta) standing-plan evaluation.
    pub(crate) delta_evals: AtomicU64,
    /// Inserts (or schema changes) handled by transparent re-execution.
    pub(crate) fallback_reexecs: AtomicU64,
}

#[derive(Debug, Default)]
struct RegistryInner {
    next_id: u64,
    subs: BTreeMap<u64, Weak<SubState>>,
    /// `(source, table)` → ids of subscriptions depending on that extent.
    by_dep: HashMap<(String, String), BTreeSet<u64>>,
    /// Ids whose dependencies are unresolved: affected by every insert.
    catch_all: BTreeSet<u64>,
}

impl RegistryInner {
    fn drop_id(&mut self, id: u64) {
        self.subs.remove(&id);
        self.catch_all.remove(&id);
        for ids in self.by_dep.values_mut() {
            ids.remove(&id);
        }
        self.by_dep.retain(|_, ids| !ids.is_empty());
    }

    fn index(&mut self, id: u64, deps: Option<&BTreeSet<(String, String)>>) {
        match deps {
            Some(deps) => {
                for dep in deps {
                    self.by_dep.entry(dep.clone()).or_default().insert(id);
                }
            }
            None => {
                self.catch_all.insert(id);
            }
        }
    }
}

impl SubscriptionRegistry {
    fn read(&self) -> std::sync::RwLockReadGuard<'_, RegistryInner> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, RegistryInner> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Register a subscription under its resolved dependencies.
    pub(crate) fn register(
        &self,
        state: &Arc<SubState>,
        deps: Option<&BTreeSet<(String, String)>>,
    ) {
        let mut inner = self.write();
        let id = inner.next_id;
        inner.next_id += 1;
        inner.subs.insert(id, Arc::downgrade(state));
        inner.index(id, deps);
    }

    /// Live subscriptions an insert into `(source, table)` can affect. Dead
    /// entries encountered on the way are pruned.
    pub(crate) fn affected(&self, source: &str, table: &str) -> Vec<Arc<SubState>> {
        let dep = (source.to_string(), table.to_string());
        let candidates: Vec<u64> = {
            let inner = self.read();
            inner
                .by_dep
                .get(&dep)
                .into_iter()
                .flatten()
                .chain(inner.catch_all.iter())
                .copied()
                .collect()
        };
        self.collect_live(candidates)
    }

    /// Every live subscription (the schema-change refresh path).
    pub(crate) fn all_live(&self) -> Vec<Arc<SubState>> {
        let candidates: Vec<u64> = self.read().subs.keys().copied().collect();
        self.collect_live(candidates)
    }

    fn collect_live(&self, candidates: Vec<u64>) -> Vec<Arc<SubState>> {
        let mut live = Vec::new();
        let mut dead = Vec::new();
        {
            let inner = self.read();
            for id in candidates {
                match inner.subs.get(&id).and_then(Weak::upgrade) {
                    Some(state) => live.push(state),
                    None => dead.push(id),
                }
            }
        }
        if !dead.is_empty() {
            let mut inner = self.write();
            for id in dead {
                inner.drop_id(id);
            }
        }
        live
    }

    /// Re-resolve a subscription's dependency index entries (after a schema
    /// change rewrote its plan). The subscription is matched by pointer.
    pub(crate) fn reindex(&self, state: &Arc<SubState>, deps: Option<&BTreeSet<(String, String)>>) {
        let mut inner = self.write();
        let id = inner
            .subs
            .iter()
            .find(|(_, weak)| weak.upgrade().is_some_and(|s| Arc::ptr_eq(&s, state)))
            .map(|(id, _)| *id);
        if let Some(id) = id {
            let weak = Arc::downgrade(state);
            inner.drop_id(id);
            inner.subs.insert(id, weak);
            inner.index(id, deps);
        }
    }

    /// Number of live subscriptions (pruning dead entries on the way).
    pub(crate) fn live_count(&self) -> usize {
        self.all_live().len()
    }
}

/// A scheme key with the `sql,<construct>,` qualification prefix stripped —
/// the short form [`TableDelta::appended`] and the wrapper conventions use.
pub(crate) fn short_key(scheme: &SchemeRef) -> String {
    match scheme.parts.as_slice() {
        [lang, _construct, rest @ ..] if lang == "sql" && !rest.is_empty() => rest.join(","),
        parts => parts.join(","),
    }
}

/// The table a source-level scheme belongs to (`t` and `t,c` both map to `t`).
fn table_of(scheme: &SchemeRef) -> Option<String> {
    match scheme.parts.as_slice() {
        [table, ..] if table != "sql" => Some(table.clone()),
        [lang, _construct, rest @ ..] if lang == "sql" && !rest.is_empty() => Some(rest[0].clone()),
        _ => None,
    }
}

/// Definitions + registry context for dependency resolution, shared by the
/// subscribe-time and per-insert resolution passes.
pub(crate) struct DepContext<'a> {
    pub(crate) definitions: &'a automed::qp::evaluator::ViewDefinitions,
    pub(crate) registry: &'a SourceRegistry,
}

impl DepContext<'_> {
    /// The `(source, table)` extents a global scheme transitively depends on,
    /// or `None` when resolution hits a reference that neither a contribution's
    /// own source nor the view definitions explain (treat as depending on
    /// everything).
    pub(crate) fn scheme_deps(&self, scheme: &SchemeRef) -> Option<BTreeSet<(String, String)>> {
        self.resolve(std::iter::once((None, scheme.clone())))
    }

    /// The `(source, table)` extents one contribution transitively depends on
    /// (same `None` convention as [`DepContext::scheme_deps`]).
    pub(crate) fn contribution_deps(
        &self,
        contribution: &Contribution,
    ) -> Option<BTreeSet<(String, String)>> {
        self.resolve(
            iql::rewrite::collect_schemes(&contribution.query)
                .into_iter()
                .map(|s| (contribution.source.clone(), s)),
        )
    }

    fn resolve(
        &self,
        roots: impl Iterator<Item = (Option<String>, SchemeRef)>,
    ) -> Option<BTreeSet<(String, String)>> {
        let mut out = BTreeSet::new();
        let mut seen: BTreeSet<(Option<String>, String)> = BTreeSet::new();
        let mut work: Vec<(Option<String>, SchemeRef)> = roots.collect();
        while let Some((ctx, scheme)) = work.pop() {
            if !seen.insert((ctx.clone(), scheme.key())) {
                continue;
            }
            // A source contribution's references resolve in its own source
            // first (mirroring the runtime LayeredProvider rule).
            if let Some(source) = &ctx {
                if let Ok(db) = self.registry.database(source) {
                    if relational::wrapper::covers(db.schema(), &scheme) {
                        out.insert((source.clone(), table_of(&scheme)?));
                        continue;
                    }
                }
            }
            // Otherwise it must be a defined virtual scheme; recurse into its
            // contributions. Anything else is unresolvable.
            let contributions = self.definitions.contributions_for_key(&scheme.key())?;
            for contribution in contributions {
                for referenced in iql::rewrite::collect_schemes(&contribution.query) {
                    work.push((contribution.source.clone(), referenced));
                }
            }
        }
        Some(out)
    }
}

/// Resolves contribution-query schemes at the source database first, then
/// through the dataspace's virtual provider — the same layering
/// `VirtualExtents` applies when evaluating contributions.
struct SourceFirst<'a> {
    db: &'a Database,
    fallback: &'a VirtualExtents<'a>,
}

impl ExtentProvider for SourceFirst<'_> {
    fn extent(&self, scheme: &SchemeRef) -> Result<Arc<Bag>, EvalError> {
        match self.db.extent(scheme) {
            Ok(bag) => Ok(bag),
            Err(_) => self.fallback.extent(scheme),
        }
    }

    fn version(&self) -> u64 {
        self.db.data_version()
    }
}

/// Compute the rows a [`TableDelta`] appends to the extent of one **global**
/// scheme, or `None` when they are not incrementally computable (the caller
/// falls back to re-execution).
///
/// Requirements (the tail-append argument): the global extent is the
/// concatenation of its contributions' bags in registration order, so the
/// delta is a tail append iff exactly one contribution changed and it is the
/// **last** one. That contribution's own delta is then computed either
/// verbatim (an identity scheme reference into the inserted source — the
/// federation case) or by building a contribution-level standing plan over the
/// source and delta-evaluating it (sound when every scheme the contribution
/// touches lives in the source database and only its lead changed).
pub(crate) fn global_scheme_delta(
    ctx: &DepContext<'_>,
    provider: &VirtualExtents<'_>,
    lead: &SchemeRef,
    source: &str,
    delta: &TableDelta,
) -> Option<Vec<Value>> {
    let contributions = ctx.definitions.contributions_for(lead)?;
    let mut affected = Vec::new();
    for (i, contribution) in contributions.iter().enumerate() {
        let depends = match ctx.contribution_deps(contribution) {
            Some(deps) => deps.contains(&(source.to_string(), delta.table.clone())),
            None => true, // unresolved: assume affected
        };
        if depends {
            affected.push(i);
        }
    }
    if affected.len() != 1 || affected[0] != contributions.len() - 1 {
        return None;
    }
    let contribution = &contributions[affected[0]];
    let source_name = contribution.source.as_deref()?;
    let db = ctx.registry.database(source_name).ok()?;
    match &contribution.query {
        // Identity contribution (federation): the global extent mirrors the
        // source extent, so the appended rows carry over verbatim.
        iql::Expr::Scheme(referenced) if relational::wrapper::covers(db.schema(), referenced) => {
            Some(
                delta
                    .appended
                    .get(&short_key(referenced))
                    .cloned()
                    .unwrap_or_default(),
            )
        }
        // Comprehension contribution (integration): one level of the same
        // standing-plan machinery, against the source database.
        iql::Expr::Comp { .. } => {
            let layered = SourceFirst {
                db,
                fallback: provider,
            };
            let ev = Evaluator::new(&layered);
            let plan = ev.standing_plan(&contribution.query, &Env::new()).ok()??;
            let lead_key = short_key(plan.lead_scheme());
            for touched in plan.touched() {
                // Every touched scheme must resolve inside this source (no
                // virtual recursion, whose extents may also have moved), and
                // no non-lead scheme may have changed in this insert.
                if !relational::wrapper::covers(db.schema(), touched) {
                    return None;
                }
                let key = short_key(touched);
                if key != lead_key && delta.appended.contains_key(&key) {
                    return None;
                }
            }
            match delta.appended.get(&lead_key) {
                Some(appended) => {
                    let bag = ev.delta_standing(&plan, appended, &Env::new()).ok()?;
                    Some(bag.items().to_vec())
                }
                // The contribution's lead extent did not change (e.g. an
                // all-null column batch): the contribution appends nothing.
                None => Some(Vec::new()),
            }
        }
        _ => None,
    }
}

impl SubscriptionRegistry {
    /// Cumulative O(delta) maintenance rounds.
    pub(crate) fn delta_eval_count(&self) -> u64 {
        self.delta_evals.load(Ordering::Relaxed)
    }

    /// Cumulative fallback re-execution rounds.
    pub(crate) fn fallback_reexec_count(&self) -> u64 {
        self.fallback_reexecs.load(Ordering::Relaxed)
    }
}
