//! Differential testing of the comprehension planner: for randomly generated
//! extents and randomly shaped comprehensions, **planned** (join-tree
//! materialisation on), **nested-loop**, **reorder-disabled** (textual hash
//! joins), **sequentially fetched**, **plan-cached**,
//! **secondary-indexed** (point filters served by an attached `IndexStore`),
//! **index-disabled**, **columnar** (the vectorised default) and
//! **columnar-disabled** (row-at-a-time) evaluation
//! must all agree — bag equality including multiplicities *and order*, since
//! every planned strategy is required to preserve the nested-loop output order.
//! An engine-consistency check rides along: the engine
//! [`Evaluator::execution_engine`] predicts must be the engine the execution
//! records in [`StepProbe`], in both directions and under both engine
//! configurations, and a `?param`-filtered variant of every query must agree
//! across engines too (parameters bind at execution time on both paths).
//!
//! Query shapes cover every join-graph topology the planner distinguishes:
//! **lines** (each generator joins its predecessor), **stars** (every
//! satellite joins the leading generator), **cliques** (every generator joins
//! all of its predecessors, producing composite keys), and free mixtures — up
//! to eight generators, so the enumerator's full DP range *and* the greedy
//! trees past it are held against the nested-loop oracle, over extents with
//! hub-style cardinality skew (the `s0` extent is several times larger, with a
//! narrower key domain, than the satellites). An explain-consistency check
//! rides along: the strategies [`Evaluator::explain`] reports for each case
//! must match the step kinds the execution actually runs, counted through
//! [`StepProbe`].
//!
//! A second suite pins the n = 2 case: random pairs joined on a composite key
//! with duplicate multiplicities, in both generator orientations — the pair is
//! the tree `(0 ⋈ 1)` when its outer extent is the smaller one and the textual
//! hash join otherwise. A third runs the differential over virtual
//! (integrated) extents, exercising the parallel per-source contribution fetch
//! and the automed explain/engine pass-throughs.
//!
//! The vendored proptest shim derives its RNG seed from the test name, so every
//! run (including the CI smoke steps) replays the same fixed case sequence;
//! `PROPTEST_CASES` scales the case count and `PROPTEST_SEED` perturbs the
//! sequence (CI runs a small fixed-seed matrix).

use automed::qp::evaluator::{ViewDefinitions, VirtualExtents};
use automed::qp::Contribution;
use automed::wrapper::SourceRegistry;
use iql::env::Env;
use iql::value::{Bag, Value};
use iql::{
    parse, EngineConfig, Evaluator, ExecEngine, IndexStore, JoinStrategy, MapExtents, Params,
    PlanCache, StepKind, StepProbe,
};
use proptest::prelude::*;
use relational::schema::{DataType, RelColumn, RelSchema, RelTable};
use relational::Database;
use std::sync::Arc;

// ---------- random extents ----------

/// A random satellite extent: `{key, value}` pairs with small domains so joins
/// hit often and duplicates occur (multiplicity coverage).
fn extent_rows() -> impl Strategy<Value = Vec<(i64, usize)>> {
    prop::collection::vec((0i64..8, 0usize..5), 0..8)
}

/// The hub extent: several times more rows than a satellite, drawn from a
/// *narrower* key domain — heavy buckets exercise the skew statistics
/// (`max_bucket`) and give the cost model something to reorder around.
fn hub_rows() -> impl Strategy<Value = Vec<(i64, usize)>> {
    prop::collection::vec((0i64..4, 0usize..5), 0..20)
}

fn map_extents(rows: &[Vec<(i64, usize)>]) -> MapExtents {
    let mut m = MapExtents::new();
    for (i, rows) in rows.iter().enumerate() {
        m.insert(
            format!("s{i}"),
            Bag::from_values(
                rows.iter()
                    .map(|(k, v)| Value::pair(Value::Int(*k), Value::str(format!("w{v}"))))
                    .collect(),
            ),
        );
    }
    m
}

// ---------- random comprehension shapes ----------

/// One generator of a random comprehension: which scheme it ranges over
/// (modulo its position's allowance), which earlier generator it equi-joins to
/// in free mode (modulo its position), an optional literal filter on its
/// value variable (which also splits the reorderable chain), and an optional
/// *point* filter — `k<i> = lit` or `v<i> = 'w<w>'` — the shape the secondary
/// index store serves as an `IndexLookup` when one is attached.
type GenSpec = (usize, usize, Option<usize>, Option<(bool, usize)>);

/// A query shape: the join-graph topology mode (line/star/clique/free), 1–8
/// generators, optional correlated tail and let-binding, and whether the
/// chain is kept *unbroken* — per-generator filters on the last generator
/// only, so all the generators form one reorderable chain (the only way a
/// chain long enough for the greedy tree builder comes up often).
type QueryShape = (usize, Vec<GenSpec>, bool, bool, bool);

fn query_shape() -> impl Strategy<Value = QueryShape> {
    (
        0usize..4,
        prop::collection::vec(
            (
                0usize..6,
                0usize..8,
                prop_oneof![Just(None), (0usize..5).prop_map(Some)],
                prop_oneof![Just(None), (any::<bool>(), 0usize..5).prop_map(Some)],
            ),
            1..9,
        ),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
}

/// Render a query shape as IQL text. Generator `i` binds `{k<i>, v<i>}`; joined
/// generators emit their `k<i> = k<j>` equi-filters immediately after the
/// generator (the planner's fusable shape); literal filters and the correlated
/// tail fall outside the fusable shape and exercise the fallback paths.
///
/// Only the leading generator may range over the large hub extent `s0`, so the
/// nested-loop oracle stays polynomially bounded; later generators draw from
/// the satellites (repeats allowed — self-joins stay covered).
fn render_query((mode, gens, correlated_tail, with_let, unbroken): &QueryShape) -> String {
    let mut quals: Vec<String> = Vec::new();
    for (i, (scheme_sel, join_to, lit, point)) in gens.iter().enumerate() {
        let (lit, point) = if *unbroken && i + 1 < gens.len() {
            (&None, &None)
        } else {
            (lit, point)
        };
        let scheme = if i == 0 {
            scheme_sel % 6
        } else {
            1 + (scheme_sel % 5)
        };
        quals.push(format!("{{k{i}, v{i}}} <- <<s{scheme}>>"));
        if i > 0 {
            match mode % 4 {
                0 => quals.push(format!("k{i} = k{}", i - 1)), // line
                1 => quals.push(format!("k{i} = k0")),         // star
                2 => {
                    // clique: join every earlier generator (composite keys)
                    for j in 0..i {
                        quals.push(format!("k{i} = k{j}"));
                    }
                }
                _ => quals.push(format!("k{i} = k{}", join_to % i)), // free
            }
        }
        // A point filter directly after the leading generator is the
        // index-servable shape; after a joined generator it lands behind the
        // equi-filters and stays a residual filter.
        if let Some((on_key, w)) = point {
            if *on_key {
                quals.push(format!("k{i} = {w}"));
            } else {
                quals.push(format!("v{i} = 'w{w}'"));
            }
        }
        if let Some(w) = lit {
            quals.push(format!("v{i} <> 'w{w}'"));
        }
    }
    if *with_let {
        quals.push("let m = k0 * 2".to_string());
        quals.push("m >= 0".to_string());
    }
    if *correlated_tail {
        quals.push("n <- [k0, k0]".to_string());
        quals.push("n < 8".to_string());
    }
    let head: Vec<String> = (0..gens.len())
        .map(|i| format!("v{i}"))
        .chain(std::iter::once("k0".to_string()))
        .collect();
    format!("[{{{}}} | {}]", head.join(", "), quals.join("; "))
}

fn items(v: &Value) -> Vec<Value> {
    v.expect_bag().expect("bag result").items().to_vec()
}

proptest! {
    /// planned ≡ nested-loop ≡ reorder-disabled ≡ sequential-fetch ≡
    /// plan-cached, element for element, for every generated
    /// query over every generated extent; and the strategies `explain` reports
    /// are the step kinds the execution runs.
    #[test]
    fn planner_differential_over_random_extents(
        e0 in hub_rows(),
        e1 in extent_rows(),
        e2 in extent_rows(),
        e3 in extent_rows(),
        e4 in extent_rows(),
        e5 in extent_rows(),
        shape in query_shape(),
    ) {
        let extents = map_extents(&[e0, e1, e2, e3, e4, e5]);
        let text = render_query(&shape);
        let query = parse(&text).unwrap_or_else(|e| panic!("{text} does not parse: {e}"));

        let naive = Evaluator::new(&extents)
            .with_nested_loops()
            .eval_closed(&query)
            .expect("naive evaluation");
        let planned = Evaluator::new(&extents)
            .eval_closed(&query)
            .expect("planned evaluation");
        let no_reorder = Evaluator::new(&extents)
            .without_reorder()
            .eval_closed(&query)
            .expect("reorder-disabled evaluation");
        let sequential = Evaluator::new(&extents)
            .without_parallel_fetch()
            .eval_closed(&query)
            .expect("sequential evaluation");

        prop_assert_eq!(items(&planned), items(&naive), "planned vs naive: {}", &text);
        prop_assert_eq!(items(&no_reorder), items(&naive), "no-reorder vs naive: {}", &text);
        prop_assert_eq!(items(&sequential), items(&naive), "sequential vs naive: {}", &text);

        // Secondary-index leg: with a shared index store attached, point filters
        // execute as O(1) index probes; answers (order included) must be
        // indistinguishable from the index-disabled evaluator and the oracle.
        // Evaluating twice drives both the build path and the probe-hit path.
        let store = Arc::new(IndexStore::new());
        let indexed_ev = Evaluator::new(&extents).with_index_store(Arc::clone(&store));
        let indexed = indexed_ev.eval_closed(&query).expect("indexed evaluation");
        let indexed_again = indexed_ev.eval_closed(&query).expect("re-indexed evaluation");
        let no_index = Evaluator::new(&extents)
            .with_index_store(Arc::new(IndexStore::new()))
            .without_index()
            .eval_closed(&query)
            .expect("index-disabled evaluation");
        prop_assert_eq!(items(&indexed), items(&naive), "indexed vs naive: {}", &text);
        prop_assert_eq!(
            items(&indexed_again),
            items(&naive),
            "indexed re-run vs naive: {}",
            &text
        );
        prop_assert_eq!(
            items(&no_index),
            items(&naive),
            "index-disabled vs naive: {}",
            &text
        );

        // Columnar ≡ row: the vectorised engine (the default — `planned` above
        // already ran on it where eligible) against the engine forced off.
        // Probes assert which engine actually produced each result, and
        // `execution_engine`'s prediction must match it in both directions.
        let col_probe = Arc::new(StepProbe::new());
        let col_ev = Evaluator::new(&extents).with_step_probe(Arc::clone(&col_probe));
        let predicted = col_ev
            .execution_engine(&query, &Env::new())
            .expect("engine prediction");
        let columnar = col_ev.eval_closed(&query).expect("columnar-side evaluation");
        prop_assert_eq!(items(&columnar), items(&naive), "columnar vs naive: {}", &text);
        prop_assert_eq!(
            col_probe.engine_count(predicted) >= 1,
            true,
            "predicted engine {:?} did not execute for {}",
            predicted,
            &text
        );
        let other = match predicted {
            ExecEngine::Columnar => ExecEngine::Row,
            ExecEngine::Row => ExecEngine::Columnar,
        };
        prop_assert_eq!(
            col_probe.engine_count(other),
            0,
            "unpredicted engine {:?} executed for {}",
            other,
            &text
        );

        let row_probe = Arc::new(StepProbe::new());
        let row_ev = Evaluator::new(&extents)
            .with_columnar(false)
            .with_step_probe(Arc::clone(&row_probe));
        prop_assert_eq!(
            row_ev.execution_engine(&query, &Env::new()).expect("row prediction"),
            ExecEngine::Row,
            "columnar-disabled evaluators must predict the row engine: {}",
            &text
        );
        let row_only = row_ev.eval_closed(&query).expect("columnar-disabled evaluation");
        prop_assert_eq!(items(&row_only), items(&naive), "row-engine vs naive: {}", &text);
        prop_assert_eq!(
            row_probe.engine_count(ExecEngine::Columnar),
            0,
            "columnar-disabled evaluation ran the columnar engine: {}",
            &text
        );
        prop_assert!(
            row_probe.engine_count(ExecEngine::Row) >= 1,
            "columnar-disabled evaluation recorded no row execution: {}",
            &text
        );

        // ?param leg: the same shape with a parameterised point filter on the
        // hub key must agree across engines under the same binding (parameters
        // reach filter kernels — and, with the store attached, IndexLookup key
        // evaluation — on the columnar path).
        let ptext = format!("{}; k0 = ?hub]", &text[..text.len() - 1]);
        let pquery = parse(&ptext).unwrap_or_else(|e| panic!("{ptext} does not parse: {e}"));
        let penv = Env::new().with_params(Params::new().with("hub", Value::Int(2)));
        let prow = Evaluator::new(&extents)
            .with_columnar(false)
            .eval(&pquery, &penv)
            .expect("param row evaluation");
        let pcol = Evaluator::new(&extents)
            .with_index_store(Arc::clone(&store))
            .eval(&pquery, &penv)
            .expect("param columnar evaluation");
        prop_assert_eq!(
            items(&pcol),
            items(&prow),
            "param columnar vs param row: {}",
            &ptext
        );

        // Plan-cached re-run: second evaluation must reuse the plan and agree.
        let cache = Arc::new(PlanCache::new());
        let cached_ev = Evaluator::new(&extents).with_plan_cache(Arc::clone(&cache));
        let first = cached_ev.eval_closed(&query).expect("first cached evaluation");
        let second = cached_ev.eval_closed(&query).expect("second cached evaluation");
        prop_assert_eq!(items(&first), items(&naive), "cached(1) vs naive: {}", &text);
        prop_assert_eq!(items(&second), items(&naive), "cached(2) vs naive: {}", &text);
        prop_assert!(
            cache.hit_count() >= 1,
            "closed-source plans must be served from the cache on re-run: {}",
            &text
        );

        // Explain consistency: these queries hold exactly one comprehension, so
        // the top-level plan is the only plan the probe can see — each join
        // strategy `explain` reports must appear as an executed step kind, and
        // no join step may execute without its strategy being reported. Both
        // evaluators share the index store above so point filters plan (and
        // execute) as IndexLookup steps.
        let stats = Evaluator::new(&extents)
            .with_index_store(Arc::clone(&store))
            .explain(&query, &Env::new())
            .expect("explain");
        let probe = Arc::new(StepProbe::new());
        let probed = Evaluator::new(&extents)
            .with_index_store(Arc::clone(&store))
            .with_step_probe(Arc::clone(&probe))
            .eval_closed(&query)
            .expect("probed evaluation");
        prop_assert_eq!(items(&probed), items(&naive), "probed vs naive: {}", &text);
        let materialised = |s: &iql::JoinStats| {
            matches!(s.strategy, JoinStrategy::Materialised { .. })
        };
        let pairs: [(&str, bool, StepKind); 3] = [
            (
                "index",
                stats.iter().any(|s| s.strategy == JoinStrategy::IndexLookup),
                StepKind::IndexLookup,
            ),
            (
                "materialised",
                stats.iter().any(materialised),
                StepKind::MaterialisedJoin,
            ),
            (
                "hash",
                stats.iter().any(|s| s.strategy == JoinStrategy::Hash),
                StepKind::HashJoin,
            ),
        ];
        for (name, explained, kind) in pairs {
            prop_assert_eq!(
                explained,
                probe.count(kind) > 0,
                "explain ({}) disagrees with executed steps for {} — stats: {:?}",
                name,
                &text,
                &stats
            );
        }
        // One entry per join node, each with its figures filled in; the last
        // node's tree spans the whole chain.
        for s in stats.iter().filter(|s| materialised(s)) {
            prop_assert!(
                s.probe_rows.is_some() && s.estimated_output.is_some() && s.actual_output.is_some(),
                "join node without statistics for {}: {:?}",
                &text,
                s
            );
        }
        if let Some(JoinStrategy::Materialised { tree }) =
            stats.iter().rfind(|s| materialised(s)).map(|s| &s.strategy)
        {
            let nodes = stats.iter().filter(|s| materialised(s)).count();
            prop_assert_eq!(tree.join_count(), nodes, "one entry per join node: {}", &text);
            prop_assert_eq!(tree.leaves(), (0..=nodes).collect::<Vec<_>>());
        }
    }
}

// ---------- the n = 2 case, both orientations ----------

/// `{a, b, v}` triples over tiny key domains: composite `(a, b)` keys collide
/// often and whole rows repeat (duplicate multiplicities).
fn triple_rows(max: usize) -> impl Strategy<Value = Vec<(i64, i64, usize)>> {
    prop::collection::vec((0i64..3, 0i64..2, 0usize..2), 0..max)
}

proptest! {
    /// A pair joined on a composite key is planned as the tree `(0 ⋈ 1)` when
    /// (and only when, bar an exploding estimate) its outer extent is the
    /// smaller one, as the textual hash join otherwise — and either way agrees
    /// with the nested loop, duplicates and order included.
    #[test]
    fn pair_differential_in_both_orientations(
        small in triple_rows(6),
        large in triple_rows(14),
    ) {
        let mut extents = MapExtents::new();
        for (name, rows) in [("l", &small), ("r", &large)] {
            extents.insert(
                name,
                Bag::from_values(
                    rows.iter()
                        .map(|(a, b, v)| {
                            Value::tuple(vec![
                                Value::Int(*a),
                                Value::Int(*b),
                                Value::str(format!("{name}{v}")),
                            ])
                        })
                        .collect(),
                ),
            );
        }
        for (outer, inner, outer_rows, inner_rows) in
            [("l", "r", small.len(), large.len()), ("r", "l", large.len(), small.len())]
        {
            let text = format!(
                "[{{x, y, a1}} | {{a1, b1, x}} <- <<{outer}>>; {{a2, b2, y}} <- <<{inner}>>; \
                 a2 = a1; b2 = b1]"
            );
            let query = parse(&text).unwrap();
            let naive = Evaluator::new(&extents)
                .with_nested_loops()
                .eval_closed(&query)
                .expect("naive evaluation");
            let probe = Arc::new(StepProbe::new());
            let planned = Evaluator::new(&extents)
                .with_step_probe(Arc::clone(&probe))
                .eval_closed(&query)
                .expect("planned evaluation");
            let row_engine = Evaluator::new(&extents)
                .with_columnar(false)
                .eval_closed(&query)
                .expect("row-engine evaluation");
            let no_reorder = Evaluator::new(&extents)
                .without_reorder()
                .eval_closed(&query)
                .expect("reorder-disabled evaluation");
            prop_assert_eq!(items(&planned), items(&naive), "planned vs naive: {}", &text);
            prop_assert_eq!(items(&row_engine), items(&naive), "row vs naive: {}", &text);
            prop_assert_eq!(items(&no_reorder), items(&naive), "no-reorder vs naive: {}", &text);

            let stats = Evaluator::new(&extents)
                .explain(&query, &Env::new())
                .expect("explain");
            prop_assert_eq!(stats.len(), 1, "a pair is one join: {}", &text);
            match &stats[0].strategy {
                JoinStrategy::Materialised { tree } => {
                    prop_assert!(outer_rows < inner_rows, "only a smaller outer reorders: {}", &text);
                    prop_assert_eq!(tree.to_string(), "(0 ⋈ 1)");
                    prop_assert_eq!(stats[0].build_rows, outer_rows);
                    prop_assert_eq!(stats[0].probe_rows, Some(inner_rows));
                    prop_assert_eq!(stats[0].actual_output, Some(items(&naive).len()));
                    prop_assert!(stats[0].estimated_output.is_some());
                    prop_assert_eq!(probe.count(StepKind::MaterialisedJoin), 1);
                    prop_assert_eq!(probe.count(StepKind::HashJoin), 0);
                }
                JoinStrategy::Hash => {
                    prop_assert_eq!(stats[0].build_rows, inner_rows);
                    prop_assert_eq!(stats[0].probe_rows, Some(outer_rows));
                    prop_assert_eq!(probe.count(StepKind::MaterialisedJoin), 0);
                    prop_assert_eq!(probe.count(StepKind::HashJoin), 1);
                }
                other => prop_assert!(false, "unexpected strategy {:?} for {}", other, &text),
            }
        }
    }
}

// ---------- differential over virtual (integrated) extents ----------

fn source(name: &str, rows: &[(i64, usize)]) -> Database {
    let mut schema = RelSchema::new(name);
    schema
        .add_table(
            RelTable::new("t")
                .with_column(RelColumn::new("id", DataType::Int))
                .with_column(RelColumn::new("grp", DataType::Int))
                .with_column(RelColumn::new("label", DataType::Text))
                .with_primary_key(["id"]),
        )
        .unwrap();
    let mut db = Database::new(schema);
    for (i, (k, v)) in rows.iter().enumerate() {
        db.insert(
            "t",
            vec![(i as i64).into(), (*k).into(), format!("w{v}").into()],
        )
        .unwrap();
    }
    db
}

/// The integrated-view shape of the paper: one `UAcc` object with one tagged
/// contribution per source, plus a derived object joining the two tags.
fn definitions() -> ViewDefinitions {
    let mut defs = ViewDefinitions::new();
    let uacc = iql::SchemeRef::table("UAcc");
    defs.add_contribution(
        &uacc,
        Contribution::from_source(
            "alpha",
            parse("[{'ALPHA', k, x} | {k, x} <- <<t, label>>]").unwrap(),
        ),
    );
    defs.add_contribution(
        &uacc,
        Contribution::from_source(
            "beta",
            parse("[{'BETA', k, x} | {k, x} <- <<t, label>>]").unwrap(),
        ),
    );
    defs.add_contribution(
        &iql::SchemeRef::table("Shared"),
        Contribution::derived(
            parse(
                "[{k1, k2, x} | {s1, k1, x} <- <<UAcc>>; s1 = 'ALPHA'; {s2, k2, y} <- <<UAcc>>; x = y; s2 = 'BETA']",
            )
            .unwrap(),
        ),
    );
    defs
}

proptest! {
    /// Parallel per-source contribution fetch ≡ sequential fetch ≡ nested loops
    /// over randomly populated wrapped sources; the star-join query drives the
    /// join-tree enumerator through the automed pass-through.
    #[test]
    fn virtual_extent_differential(
        alpha_rows in extent_rows(),
        beta_rows in extent_rows(),
    ) {
        let mut registry = SourceRegistry::new();
        registry.add_source(source("alpha", &alpha_rows)).unwrap();
        registry.add_source(source("beta", &beta_rows)).unwrap();
        let defs = definitions();

        let queries = [
            "count <<UAcc>>",
            "[x | {s, k, x} <- <<UAcc>>; s = 'BETA']",
            "[{k1, x} | {k1, k2, x} <- <<Shared>>]",
            "[{a, b} | {s1, k1, a} <- <<UAcc>>; {s2, k2, b} <- <<UAcc>>; k2 = k1]",
            // A 3-chain over the virtual extent: drives the enumerator (and
            // its explain pass-through) through the automed layer.
            "[{a, b, c} | {s1, k1, a} <- <<UAcc>>; {s2, k2, b} <- <<UAcc>>; k2 = k1; {s3, k3, c} <- <<UAcc>>; k3 = k1]",
        ];
        for text in queries {
            let query = parse(text).unwrap();
            let parallel = VirtualExtents::new(&registry, &defs)
                .answer(&query)
                .expect("parallel answer");
            let sequential = VirtualExtents::new(&registry, &defs)
                .sequential()
                .answer(&query)
                .expect("sequential answer");
            let naive = VirtualExtents::new(&registry, &defs)
                .sequential()
                .answer_with_nested_loops(&query)
                .expect("naive answer");
            // Columnar-disabled leg through the automed pass-through, with
            // engine counters attached: the row engine must agree and the
            // columnar engine must never have run.
            let row_stats = Arc::new(iql::EngineStats::new());
            let row_config = EngineConfig {
                columnar: false,
                engine_stats: Some(Arc::clone(&row_stats)),
                ..EngineConfig::new()
            };
            let row_engine = VirtualExtents::new(&registry, &defs)
                .with_engine(&row_config)
                .answer(&query)
                .expect("columnar-disabled answer");
            prop_assert_eq!(
                row_stats.columnar_execs(),
                0,
                "columnar-disabled provider ran the columnar engine: {}",
                text
            );
            prop_assert_eq!(
                row_stats.row_fallbacks(),
                0,
                "columnar-disabled runs are configuration, not fallbacks: {}",
                text
            );
            match (&parallel, &naive) {
                (Value::Bag(p), Value::Bag(n)) => {
                    prop_assert_eq!(p.items(), n.items(), "parallel vs naive order: {}", text);
                }
                _ => prop_assert_eq!(&parallel, &naive, "parallel vs naive: {}", text),
            }
            prop_assert_eq!(&parallel, &sequential, "parallel vs sequential: {}", text);
            prop_assert_eq!(&parallel, &row_engine, "parallel vs columnar-disabled: {}", text);

            // The explain pass-through plans without executing and never
            // reports a strategy the evaluator below it cannot run.
            let stats = VirtualExtents::new(&registry, &defs)
                .explain(&query)
                .expect("explain");
            for s in &stats {
                prop_assert!(
                    matches!(
                        s.strategy,
                        JoinStrategy::Hash
                            | JoinStrategy::Materialised { .. }
                            | JoinStrategy::IndexLookup
                    ),
                    "unexpected strategy for {}: {:?}",
                    text,
                    s
                );
            }
        }
    }
}
