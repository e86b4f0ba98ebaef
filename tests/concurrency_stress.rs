//! Concurrency stress tests for the shared query path: a `Database` and a
//! `VirtualExtents` provider hammered from many threads with queries and inserts
//! interleaved. Asserts cache coherence (every answer matches the data visible at
//! its snapshot), determinism (all threads get byte-identical answers for the same
//! query), absence of deadlocks (the tests simply must terminate), and the
//! plan-cache invalidation path on insert.

use automed::qp::evaluator::{ViewDefinitions, VirtualExtents};
use automed::qp::Contribution;
use automed::wrapper::SourceRegistry;
use iql::eval::ExtentProvider;
use iql::value::Value;
use iql::{parse, EngineConfig, Evaluator, PlanCache, SchemeRef};
use relational::schema::{DataType, RelColumn, RelSchema, RelTable};
use relational::Database;
use std::sync::{Arc, RwLock};
use std::thread;

fn fresh_db(name: &str) -> Database {
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
    Database::new(schema)
}

fn seeded_db(name: &str, rows: i64) -> Database {
    let mut db = fresh_db(name);
    for i in 0..rows {
        db.insert(
            "t",
            vec![i.into(), (i % 5).into(), format!("w{}", i % 7).into()],
        )
        .unwrap();
    }
    db
}

/// N threads interleave validated inserts (write lock) with queries (read lock)
/// against one shared `Database`. Every answer must be coherent with the row count
/// visible under its read guard — a stale or torn extent cache would break the
/// equality — and the final cache state must equal a fresh recompute.
#[test]
fn shared_database_queries_and_inserts_interleaved() {
    const THREADS: i64 = 6;
    const ITERS: i64 = 25;
    let db = RwLock::new(seeded_db("stress", 10));
    let selection = parse("[{k, x} | {k, x} <- <<t, label>>]").unwrap();
    let join =
        parse("[{a, b} | {k1, a} <- <<t, label>>; {k2, b} <- <<t, label>>; k2 = k1]").unwrap();

    thread::scope(|scope| {
        for tid in 0..THREADS {
            let db = &db;
            let selection = &selection;
            let join = &join;
            scope.spawn(move || {
                for iter in 0..ITERS {
                    if tid % 2 == 0 {
                        // Writer: insert a unique row, then immediately query.
                        let mut guard = db.write().unwrap();
                        guard
                            .insert(
                                "t",
                                vec![
                                    (1000 + tid * ITERS + iter).into(),
                                    (iter % 5).into(),
                                    format!("w{}", iter % 7).into(),
                                ],
                            )
                            .unwrap();
                        let rows = guard.row_count("t");
                        let v = Evaluator::new(&*guard).eval_closed(selection).unwrap();
                        assert_eq!(
                            v.expect_bag().unwrap().len(),
                            rows,
                            "writer snapshot must see its own insert"
                        );
                    } else {
                        // Reader: the label extent and the key self-join must both
                        // agree with the row count visible under this read guard
                        // (keys are unique, so |join| == |rows|).
                        let guard = db.read().unwrap();
                        let rows = guard.row_count("t");
                        let sel = Evaluator::new(&*guard).eval_closed(selection).unwrap();
                        assert_eq!(sel.expect_bag().unwrap().len(), rows);
                        let planned = Evaluator::new(&*guard).eval_closed(join).unwrap();
                        assert_eq!(planned.expect_bag().unwrap().len(), rows);
                    }
                }
            });
        }
    });

    // Final coherence: the incrementally maintained extents equal a recompute.
    let final_db = db.read().unwrap();
    let total = final_db.row_count("t");
    assert_eq!(total as i64, 10 + (THREADS / 2) * ITERS);
    let cached = final_db.extent(&SchemeRef::column("t", "label")).unwrap();
    let fresh =
        relational::wrapper::extent_of(&final_db, &SchemeRef::column("t", "label")).unwrap();
    assert_eq!(cached.items(), fresh.items());
    assert!(final_db.data_version() >= (THREADS / 2) as u64 * ITERS as u64);
}

fn stress_definitions() -> ViewDefinitions {
    let mut defs = ViewDefinitions::new();
    let uacc = SchemeRef::table("UAcc");
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
        &SchemeRef::table("Shared"),
        Contribution::derived(
            parse(
                "[x | {s1, k1, x} <- <<UAcc>>; s1 = 'ALPHA'; {s2, k2, y} <- <<UAcc>>; x = y; s2 = 'BETA']",
            )
            .unwrap(),
        ),
    );
    defs
}

/// One shared `VirtualExtents` serves the same query set from many threads at
/// once: all threads must get answers identical (order included) to a sequential
/// baseline, while racing to fill the same `RwLock` memo.
#[test]
fn shared_virtual_extents_deterministic_across_threads() {
    const THREADS: usize = 8;
    let mut registry = SourceRegistry::new();
    registry.add_source(seeded_db("alpha", 30)).unwrap();
    registry.add_source(seeded_db("beta", 20)).unwrap();
    let defs = stress_definitions();

    let queries: Vec<iql::Expr> = [
        "count <<UAcc>>",
        "[x | {s, k, x} <- <<UAcc>>; s = 'BETA']",
        "count <<Shared>>",
        "[{a, b} | {s1, k1, a} <- <<UAcc>>; {s2, k2, b} <- <<UAcc>>; k2 = k1; s2 = 'ALPHA']",
    ]
    .iter()
    .map(|q| parse(q).unwrap())
    .collect();

    // Sequential baseline over a private provider.
    let baseline: Vec<Value> = {
        let provider = VirtualExtents::new(&registry, &defs).sequential();
        queries
            .iter()
            .map(|q| provider.answer(q).unwrap())
            .collect()
    };

    let engine = EngineConfig {
        plan_cache: Some(Arc::new(PlanCache::new())),
        ..EngineConfig::new()
    };
    let shared = VirtualExtents::new(&registry, &defs).with_engine(&engine);
    thread::scope(|scope| {
        for _ in 0..THREADS {
            let shared = &shared;
            let queries = &queries;
            let baseline = &baseline;
            scope.spawn(move || {
                for _round in 0..5 {
                    for (query, expected) in queries.iter().zip(baseline) {
                        let got = shared.answer(query).unwrap();
                        match (&got, expected) {
                            (Value::Bag(g), Value::Bag(e)) => {
                                assert_eq!(g.items(), e.items(), "order must be deterministic")
                            }
                            _ => assert_eq!(&got, expected),
                        }
                    }
                }
            });
        }
    });
    assert!(shared.cached_scheme_count() >= 2);
}

/// The plan-cache invalidation path on insert: a cached join plan bakes in hash
/// indexes over the old extents; inserting a row bumps the provider version, so
/// the next evaluation must rebuild the plan and see the new row (while the extent
/// cache itself is maintained incrementally, not recomputed).
#[test]
fn plan_cache_invalidated_by_insert() {
    let mut db = seeded_db("solo", 12);
    let cache = Arc::new(PlanCache::new());
    let join =
        parse("[{a, b} | {k1, a} <- <<t, label>>; {k2, b} <- <<t, label>>; k2 = k1]").unwrap();

    let before = Evaluator::new(&db)
        .with_plan_cache(Arc::clone(&cache))
        .eval_closed(&join)
        .unwrap();
    assert_eq!(before.expect_bag().unwrap().len(), 12);
    assert_eq!(cache.len(), 1);
    let misses_before = cache.miss_count();

    // Prime the extent cache, then insert: the cached extent must be appended to
    // (incremental maintenance), and the cached plan must go stale.
    db.insert("t", vec![999.into(), 0.into(), "brand-new".into()])
        .unwrap();
    let after = Evaluator::new(&db)
        .with_plan_cache(Arc::clone(&cache))
        .eval_closed(&join)
        .unwrap();
    assert_eq!(
        after.expect_bag().unwrap().len(),
        13,
        "stale cached plan must not serve after an insert"
    );
    assert!(
        cache.miss_count() > misses_before,
        "version change must register as a cache miss"
    );

    // And the re-cached plan serves hits again at the new version.
    let hits = cache.hit_count();
    let again = Evaluator::new(&db)
        .with_plan_cache(Arc::clone(&cache))
        .eval_closed(&join)
        .unwrap();
    assert_eq!(again, after);
    assert!(cache.hit_count() > hits);
}

/// Standing subscriptions racing inserts on a shared `RwLock<Dataspace>`:
/// writer threads interleave inserts into both sources (each maintaining every
/// subscription — O(delta) or fallback) while reader threads check, under a
/// read guard, that each subscription's held result is byte-identical to
/// re-executing its query from scratch. Subscription handles are also read
/// **without** any dataspace lock — maintenance swaps results under the
/// handle's own mutex, so lock-free readers see a consistent (possibly
/// slightly stale, never torn) bag whose size only grows. At the end, every
/// drained update stream must replay the seeded baseline into the final
/// result: no lost and no duplicated deltas despite the races.
#[test]
fn subscriptions_race_inserts_without_losing_or_duplicating_deltas() {
    use dataspace_core::dataspace::Dataspace;
    use dataspace_core::{Subscription, SubscriptionUpdate};
    use iql::Params;

    const WRITERS: i64 = 3;
    const READERS: usize = 3;
    const ITERS: i64 = 20;

    let mut inner = Dataspace::new();
    inner.add_source(seeded_db("alpha", 5)).unwrap();
    inner.add_source(seeded_db("beta", 5)).unwrap();
    inner.federate().unwrap();

    // One incremental shape, one join chain (delta on alpha, fallback on
    // beta), one aggregate (always fallback).
    let shapes = [
        "[x | {k, x} <- <<ALPHA_t, ALPHA_label>>]",
        "[{a, b} | {k, a} <- <<ALPHA_t, ALPHA_label>>; {j, b} <- <<BETA_t, BETA_label>>; j = k]",
        "count <<ALPHA_t>>",
    ];
    let panel: Vec<(&str, Subscription, Value)> = shapes
        .iter()
        .map(|text| {
            let sub = inner
                .prepare(text)
                .unwrap()
                .subscribe(&Params::new())
                .unwrap();
            let baseline = sub.result();
            (*text, sub, baseline)
        })
        .collect();
    let ds = RwLock::new(inner);

    thread::scope(|scope| {
        for wid in 0..WRITERS {
            let ds = &ds;
            scope.spawn(move || {
                for iter in 0..ITERS {
                    let (source, table) = if iter % 2 == 0 {
                        ("alpha", "t")
                    } else {
                        ("beta", "t")
                    };
                    let key = 1000 + wid * ITERS + iter;
                    ds.write()
                        .unwrap()
                        .insert(
                            source,
                            table,
                            vec![
                                key.into(),
                                (iter % 5).into(),
                                format!("w{}", iter % 7).into(),
                            ],
                        )
                        .unwrap();
                }
            });
        }
        for _ in 0..READERS {
            let ds = &ds;
            let panel = &panel;
            scope.spawn(move || {
                let mut last_len = 0;
                for _ in 0..ITERS {
                    // Lock-free read: no dataspace guard held at all. The
                    // incremental shape's bag must never shrink and never tear.
                    let lock_free = panel[0].1.result_bag().unwrap().len();
                    assert!(lock_free >= last_len, "subscription result shrank");
                    last_len = lock_free;
                    // Guarded read: with writers excluded, every subscription
                    // must agree exactly with from-scratch re-execution.
                    let guard = ds.read().unwrap();
                    for (text, sub, _) in panel {
                        let expected = guard
                            .prepare(text)
                            .unwrap()
                            .execute_value(&Params::new())
                            .unwrap();
                        match (sub.result(), expected) {
                            (Value::Bag(g), Value::Bag(e)) => assert_eq!(
                                g.items(),
                                e.items(),
                                "subscription diverged under read guard for `{text}`"
                            ),
                            (got, expected) => assert_eq!(got, expected),
                        }
                    }
                }
            });
        }
    });

    // Post-race: results converged and the update streams replay exactly.
    let ds = ds.read().unwrap();
    let stats = ds.stats();
    assert!(stats.delta_evals > 0, "no insert took the O(delta) path");
    assert!(stats.fallback_reexecs > 0, "no insert fell back");
    for (text, sub, baseline) in &panel {
        let mut replayed = baseline.clone();
        for update in sub.drain_updates() {
            match update {
                SubscriptionUpdate::Delta(delta) => {
                    let Value::Bag(bag) = &mut replayed else {
                        panic!("Delta against non-bag result");
                    };
                    for v in delta.iter() {
                        bag.push(v.clone());
                    }
                }
                SubscriptionUpdate::Refreshed(value) => replayed = value,
            }
        }
        assert_eq!(
            replayed,
            sub.result(),
            "lost or duplicated delta for `{text}`"
        );
        let expected = ds
            .prepare(text)
            .unwrap()
            .execute_value(&Params::new())
            .unwrap();
        match (sub.result(), expected) {
            (Value::Bag(g), Value::Bag(e)) => assert_eq!(g.items(), e.items()),
            (got, expected) => assert_eq!(got, expected),
        }
    }
}

/// Racing N threads through the *same* cold plan cache: exactly one plan per
/// comprehension survives, every thread's answer is identical, and no thread
/// deadlocks between the plan-cache and extent-cache locks.
#[test]
fn plan_cache_race_from_cold_is_coherent() {
    const THREADS: usize = 8;
    let db = seeded_db("race", 40);
    let cache = Arc::new(PlanCache::new());
    let join =
        parse("[{a, b} | {k1, a} <- <<t, label>>; {k2, b} <- <<t, label>>; k2 = k1]").unwrap();
    let expected = Evaluator::new(&db).eval_closed(&join).unwrap();

    thread::scope(|scope| {
        for _ in 0..THREADS {
            let db = &db;
            let cache = Arc::clone(&cache);
            let join = &join;
            let expected = &expected;
            scope.spawn(move || {
                let got = Evaluator::new(db)
                    .with_plan_cache(cache)
                    .eval_closed(join)
                    .unwrap();
                assert_eq!(&got, expected);
            });
        }
    });
    assert_eq!(cache.len(), 1, "racing threads converge on one cached plan");
}
