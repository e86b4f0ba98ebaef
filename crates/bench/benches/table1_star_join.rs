//! Star-schema join benchmarks: the Table-1-like shape the join-tree
//! enumerator targets — one hub extent equi-joined to several satellites on
//! different keys, with skewed selectivities.
//!
//! The hub joins satellite A on a low-distinct key (unselective: a quarter of
//! the cross product survives) and satellite B on a near-unique key
//! (selective). The textual plan probes satellite A first and drags the large
//! unselective intermediate through the second hash join; the enumerator's
//! cost model runs the selective hub ⋈ B join first, shrinking every later
//! intermediate. Groups:
//!
//! * `bushy/N` — the default planner (DP enumeration over the join graph);
//! * `textual_hash/N` — `Evaluator::without_reorder`: the hub scans, each
//!   satellite is hashed and probed in textual order;
//! * `nested_loops/N` — the planner-free oracle, for scale (small N only).
//!
//! Run with `BENCH_JSON=BENCH_iql.json cargo bench -p bench --bench
//! table1_star_join` to record medians.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use iql::env::Env;
use iql::value::{Bag, Value};
use iql::{parse, Evaluator, MapExtents};
use std::time::Duration;

/// One hub of `rows` tuples `{ka, kb, x}` — `ka` from a 4-value domain
/// (unselective), `kb` unique (selective) — plus a small satellite on each key.
fn star_fixture(rows: usize) -> MapExtents {
    let mut m = MapExtents::new();
    m.insert(
        "hub",
        Bag::from_values(
            (0..rows as i64)
                .map(|i| {
                    Value::tuple(vec![
                        Value::Int(i % 4),
                        Value::Int(i),
                        Value::str(format!("h{i}")),
                    ])
                })
                .collect(),
        ),
    );
    m.insert(
        "sat_a,v",
        Bag::from_values(
            (0..rows as i64 / 10)
                .map(|i| Value::pair(Value::Int(i % 4), Value::str(format!("a{i}"))))
                .collect(),
        ),
    );
    m.insert(
        "sat_b,v",
        Bag::from_values(
            (0..rows as i64 / 8)
                .map(|i| Value::pair(Value::Int(i * 8), Value::str(format!("b{i}"))))
                .collect(),
        ),
    );
    m
}

const STAR_QUERY: &str = "[{x, y, z} | {ka, kb, x} <- <<hub>>; {ka2, y} <- <<sat_a, v>>; \
                          ka2 = ka; {kb2, z} <- <<sat_b, v>>; kb2 = kb]";

fn star_join(c: &mut Criterion) {
    let expr = parse(STAR_QUERY).expect("star query parses");

    // Report the plan shapes once so the bench output doubles as the story.
    let probe = star_fixture(400);
    let bushy_stats = Evaluator::new(&probe).explain(&expr, &Env::new()).unwrap();
    let textual_stats = Evaluator::new(&probe)
        .without_reorder()
        .explain(&expr, &Env::new())
        .unwrap();
    eprintln!("\n[table1_star_join] plan shapes at 400 hub rows:");
    eprintln!("  bushy  : {bushy_stats:?}");
    eprintln!("  textual: {textual_stats:?}");

    let mut group = c.benchmark_group("table1_star_join");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    for rows in [100usize, 400] {
        let extents = star_fixture(rows);
        // Sanity: both plans must agree with the nested-loop oracle.
        let planned = Evaluator::new(&extents).eval_closed(&expr).unwrap();
        let textual = Evaluator::new(&extents)
            .without_reorder()
            .eval_closed(&expr)
            .unwrap();
        let naive = Evaluator::new(&extents)
            .with_nested_loops()
            .eval_closed(&expr)
            .unwrap();
        assert_eq!(planned, naive, "bushy must agree with nested loops");
        assert_eq!(textual, naive, "textual must agree with nested loops");

        group.bench_with_input(BenchmarkId::new("bushy", rows), &rows, |b, _| {
            b.iter(|| {
                Evaluator::new(&extents)
                    .eval_closed(&expr)
                    .expect("evaluates")
            })
        });
        group.bench_with_input(BenchmarkId::new("textual_hash", rows), &rows, |b, _| {
            b.iter(|| {
                Evaluator::new(&extents)
                    .without_reorder()
                    .eval_closed(&expr)
                    .expect("evaluates")
            })
        });
        if rows <= 100 {
            group.bench_with_input(BenchmarkId::new("nested_loops", rows), &rows, |b, _| {
                b.iter(|| {
                    Evaluator::new(&extents)
                        .with_nested_loops()
                        .eval_closed(&expr)
                        .expect("evaluates")
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, star_join);
criterion_main!(benches);
