//! The vectorised columnar executor.
//!
//! [`ColumnarPlan::compile`] lowers a logical step list (see
//! [`crate::plan::Step`]) into columnar operators: plan-time-materialised
//! sources (scans, materialised join results) are decomposed into
//! [`SourceTable`]s **once per plan**, hash-join build sides become
//! pre-decomposed [`ProbeTable`]s, filters compile to typed kernels, and the
//! head to a column projection. [`exec`] then streams the leading source in
//! [`BATCH_SIZE`]-row morsels through the operator pipeline, producing the
//! same bag — order and multiplicities included — the recursive row engine
//! produces for the same steps.
//!
//! # Fallback contract
//!
//! `compile` returns `None` (plan ineligible, the row engine runs) when a
//! generator source is open (free variables) or parameter-dependent: those
//! sources must be re-evaluated per incoming row, which is exactly the row
//! engine's shape. At execution time, **any** [`EvalError`] aborts the
//! columnar run; the caller discards the partial result and re-runs the whole
//! plan through the row engine, so surfaced errors (and the depth-first order
//! they are raised in) are always the row engine's own.

use crate::ast::{Expr, Pattern};
use crate::env::Env;
use crate::error::EvalError;
use crate::eval::{Evaluator, ExtentProvider};
use crate::index::PointIndex;
use crate::physical::column::{Batch, Bitmap, ColRef, BATCH_SIZE};
use crate::physical::ops::{
    self, compile_pred, compile_proj, CPred, CProj, ProbeTable, SourceTable, TableBuilder,
};
use crate::plan::Step;
use crate::rewrite;
use crate::value::{Bag, Value};
use std::sync::Arc;

/// One columnar operator, lowered from one logical [`Step`].
pub(crate) enum COp {
    /// A source fully materialised at compile time (scan, materialised join
    /// result): expand each incoming row by the table's rows.
    Source(Arc<SourceTable>),
    /// A closed generator source, evaluated and decomposed **once per
    /// execution** — lazily, on the first batch that reaches it with a
    /// selected row, so a pipeline that filters everything out never
    /// evaluates it (matching the row engine, where no row reaches the step).
    IterateClosed { pattern: Pattern, source: Expr },
    /// A hash-join probe against a pre-decomposed build side.
    HashProbe {
        probe_vars: Vec<String>,
        table: Arc<ProbeTable>,
    },
    /// A point-lookup probe: the key expressions (parameters/literals only)
    /// are evaluated once per execution and one bucket is decomposed.
    IndexProbe {
        pattern: Pattern,
        key_exprs: Vec<Expr>,
        index: Arc<PointIndex>,
    },
    /// A compiled filter predicate.
    Filter(CPred),
    /// A `let` qualifier.
    Bind { pattern: Pattern, value: Expr },
}

/// A logical plan lowered to columnar operators plus a compiled head
/// projection. Compiled lazily per plan (see `Plan::columnar`) and shared by
/// every execution of that plan.
pub(crate) struct ColumnarPlan {
    pub(crate) ops: Vec<COp>,
    pub(crate) head: CProj,
}

impl ColumnarPlan {
    /// Lower `steps` + `head`, or `None` when some generator source is open or
    /// parameter-dependent (the "param-opaque/open sources stay on the row
    /// engine" rule).
    pub(crate) fn compile(steps: &[Step], head: &Expr) -> Option<ColumnarPlan> {
        let mut ops = Vec::with_capacity(steps.len());
        for step in steps {
            let op = match step {
                Step::Iterate { pattern, source } => {
                    if !rewrite::free_vars(source).is_empty()
                        || !rewrite::collect_params(source).is_empty()
                    {
                        return None;
                    }
                    COp::IterateClosed {
                        pattern: pattern.clone(),
                        source: source.clone(),
                    }
                }
                Step::Scan { pattern, bag } => {
                    COp::Source(Arc::new(ops::decompose_single(pattern, bag.iter())))
                }
                Step::MaterialisedJoin { patterns, rows } => {
                    let pats: Vec<&Pattern> = patterns.iter().collect();
                    let mut tb = TableBuilder::new(&pats);
                    for row in rows.chunks_exact(pats.len()) {
                        tb.push_row(&pats, |k| &row[k]);
                    }
                    COp::Source(Arc::new(tb.finish()))
                }
                Step::HashJoin {
                    pattern,
                    probe_vars,
                    index,
                } => COp::HashProbe {
                    probe_vars: probe_vars.clone(),
                    table: Arc::new(ProbeTable::build(pattern, index)),
                },
                Step::IndexLookup {
                    pattern,
                    key_exprs,
                    index,
                } => {
                    // The once-per-execution key evaluation is only sound for
                    // row-invariant keys; the planner only emits params and
                    // literals here, but pin it structurally.
                    if !key_exprs
                        .iter()
                        .all(|e| matches!(e, Expr::Param(_) | Expr::Lit(_)))
                    {
                        return None;
                    }
                    COp::IndexProbe {
                        pattern: pattern.clone(),
                        key_exprs: key_exprs.clone(),
                        index: Arc::clone(index),
                    }
                }
                Step::Filter(expr) => COp::Filter(compile_pred(expr)),
                Step::Bind { pattern, value } => COp::Bind {
                    pattern: pattern.clone(),
                    value: value.clone(),
                },
            };
            ops.push(op);
        }
        Some(ColumnarPlan {
            ops,
            head: compile_proj(head),
        })
    }
}

/// Per-execution operator state: the lazily evaluated source tables of
/// `IterateClosed`/`IndexProbe` ops, memoised by op position so later morsels
/// (and later incoming rows) reuse the first evaluation.
struct ExecState {
    tables: Vec<Option<Arc<SourceTable>>>,
}

/// Execute a compiled columnar plan, returning the result bag. Any error
/// aborts the run; the caller falls back to the row engine (see the module
/// docs for the contract).
pub(crate) fn exec<P: ExtentProvider>(
    ev: &Evaluator<P>,
    plan: &ColumnarPlan,
    env: &Env,
) -> Result<Bag, EvalError> {
    let mut out = Bag::empty();
    let mut state = ExecState {
        tables: (0..plan.ops.len()).map(|_| None).collect(),
    };
    run_ops(ev, plan, 0, Batch::unit(), env, &mut state, &mut out)?;
    Ok(out)
}

fn run_ops<P: ExtentProvider>(
    ev: &Evaluator<P>,
    plan: &ColumnarPlan,
    depth: usize,
    batch: Batch,
    env: &Env,
    state: &mut ExecState,
    out: &mut Bag,
) -> Result<(), EvalError> {
    if batch.sel.count() == 0 {
        return Ok(());
    }
    let Some(op) = plan.ops.get(depth) else {
        return ops::project(ev, &plan.head, &batch, env, out);
    };
    match op {
        COp::Filter(pred) => {
            let mut batch = batch;
            ops::apply_filter(ev, pred, &mut batch, env)?;
            run_ops(ev, plan, depth + 1, batch, env, state, out)
        }
        COp::Bind { pattern, value } => {
            let batch = ops::apply_bind(ev, pattern, value, batch.compact(), env)?;
            run_ops(ev, plan, depth + 1, batch, env, state, out)
        }
        COp::HashProbe { probe_vars, table } => {
            let batch = ops::apply_probe(probe_vars, table, batch.compact(), env)?;
            run_ops(ev, plan, depth + 1, batch, env, state, out)
        }
        COp::Source(table) => {
            let table = Arc::clone(table);
            expand_source(ev, plan, depth, batch.compact(), &table, env, state, out)
        }
        COp::IterateClosed { pattern, source } => {
            let table = match &state.tables[depth] {
                Some(table) => Arc::clone(table),
                None => {
                    let bag = ev.eval(source, env)?.expect_bag()?;
                    let table = Arc::new(ops::decompose_single(pattern, bag.iter()));
                    state.tables[depth] = Some(Arc::clone(&table));
                    table
                }
            };
            expand_source(ev, plan, depth, batch.compact(), &table, env, state, out)
        }
        COp::IndexProbe {
            pattern,
            key_exprs,
            index,
        } => {
            let table = match &state.tables[depth] {
                Some(table) => Arc::clone(table),
                None => {
                    // An empty index means no source element matched the
                    // pattern: the row engine returns before evaluating the
                    // key expressions, so an unbound `?param` raises no error.
                    let table = if index.buckets.is_empty() {
                        Arc::new(ops::decompose_single(pattern, std::iter::empty()))
                    } else {
                        let mut parts = Vec::with_capacity(key_exprs.len());
                        for expr in key_exprs {
                            parts.push(ev.eval(expr, env)?);
                        }
                        let bucket = index.buckets.get(&composite_key(parts));
                        Arc::new(ops::decompose_single(pattern, bucket.into_iter().flatten()))
                    };
                    state.tables[depth] = Some(Arc::clone(&table));
                    table
                }
            };
            expand_source(ev, plan, depth, batch.compact(), &table, env, state, out)
        }
    }
}

/// The keys `HashProbe`/`IndexProbe` buckets are stored under: a single
/// component stays bare, several become a tuple (mirrors the row engine's
/// `composite_key`).
fn composite_key(mut parts: Vec<Value>) -> Value {
    if parts.len() == 1 {
        parts.pop().expect("one component")
    } else {
        Value::tuple(parts)
    }
}

/// Expand every row of a **dense** batch by all of `table`'s rows
/// (outer-major, preserving nested-loop order), streaming the table in
/// [`BATCH_SIZE`]-row morsels. Table column slices are zero-copy `Arc`
/// references; only the input row's columns are broadcast.
#[allow(clippy::too_many_arguments)]
fn expand_source<P: ExtentProvider>(
    ev: &Evaluator<P>,
    plan: &ColumnarPlan,
    depth: usize,
    batch: Batch,
    table: &SourceTable,
    env: &Env,
    state: &mut ExecState,
    out: &mut Bag,
) -> Result<(), EvalError> {
    if table.len == 0 {
        return Ok(());
    }
    for i in 0..batch.len {
        let mut start = 0;
        while start < table.len {
            let len = BATCH_SIZE.min(table.len - start);
            let mut cols: Vec<(Arc<str>, ColRef)> =
                Vec::with_capacity(batch.cols.len() + table.cols.len());
            if !batch.cols.is_empty() {
                let idx = vec![i as u32; len];
                cols.extend(
                    batch
                        .cols
                        .iter()
                        .map(|(name, col)| (Arc::clone(name), col.gather(&idx))),
                );
            }
            cols.extend(table.cols.iter().map(|(name, col)| {
                (
                    Arc::clone(name),
                    ColRef {
                        col: Arc::clone(col),
                        start,
                    },
                )
            }));
            run_ops(
                ev,
                plan,
                depth + 1,
                Batch {
                    len,
                    cols,
                    sel: Bitmap::all_set(len),
                },
                env,
                state,
                out,
            )?;
            start += len;
        }
    }
    Ok(())
}
