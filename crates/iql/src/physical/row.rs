//! The recursive row-at-a-time executor: one persistent-environment frame per
//! binding, one recursive call per step. This engine is the **differential
//! oracle** — the columnar executor must reproduce its bags bit for bit
//! (order and multiplicity included) and defers to it wholesale on any
//! runtime error — and it is the only engine standing plans run on
//! (`Evaluator::execute_standing` / `delta_standing` call [`Evaluator::exec_plan`]
//! directly, keeping delta maintenance on the row path).

use crate::ast::{Expr, Qualifier};
use crate::env::{match_pattern, Env};
use crate::error::EvalError;
use crate::eval::{composite_key, Evaluator, ExtentProvider};
use crate::plan::Step;
use crate::value::Bag;

impl<P: ExtentProvider> Evaluator<P> {
    /// Run a planned comprehension. Mirrors [`Self::eval_comprehension`] step for
    /// step; every join arm visits the same elements the nested loop's filter
    /// would accept, in the same order.
    pub(crate) fn exec_plan(
        &self,
        head: &Expr,
        steps: &[Step],
        env: &Env,
        out: &mut Bag,
    ) -> Result<(), EvalError> {
        match steps.split_first() {
            None => {
                out.push(self.eval(head, env)?);
                Ok(())
            }
            Some((Step::Filter(cond), rest)) => {
                if self.eval(cond, env)?.as_bool()? {
                    self.exec_plan(head, rest, env, out)?;
                }
                Ok(())
            }
            Some((Step::Bind { pattern, value }, rest)) => {
                let v = self.eval(value, env)?;
                let mut inner = env.clone();
                if match_pattern(pattern, &v, &mut inner)? {
                    self.exec_plan(head, rest, &inner, out)?;
                }
                Ok(())
            }
            Some((Step::Iterate { pattern, source }, rest)) => {
                let bag = self.eval(source, env)?.expect_bag()?;
                for element in bag.iter() {
                    let mut inner = env.clone();
                    if match_pattern(pattern, element, &mut inner)? {
                        self.exec_plan(head, rest, &inner, out)?;
                    }
                }
                Ok(())
            }
            Some((Step::Scan { pattern, bag }, rest)) => {
                for element in bag.iter() {
                    let mut inner = env.clone();
                    if match_pattern(pattern, element, &mut inner)? {
                        self.exec_plan(head, rest, &inner, out)?;
                    }
                }
                Ok(())
            }
            Some((
                Step::HashJoin {
                    pattern,
                    probe_vars,
                    index,
                },
                rest,
            )) => {
                let mut parts = Vec::with_capacity(probe_vars.len());
                for var in probe_vars {
                    let v = env
                        .get(var)
                        .ok_or_else(|| EvalError::UnboundVariable(var.to_string()))?;
                    parts.push(v.clone());
                }
                if let Some(matches) = index.get(&composite_key(parts)) {
                    for element in matches {
                        let mut inner = env.clone();
                        if match_pattern(pattern, element, &mut inner)? {
                            self.exec_plan(head, rest, &inner, out)?;
                        }
                    }
                }
                Ok(())
            }
            Some((
                Step::IndexLookup {
                    pattern,
                    key_exprs,
                    index,
                },
                rest,
            )) => {
                // An empty index means no source element matched the pattern:
                // the nested loop would never reach the filters, so the key
                // expressions must not be evaluated (an unbound `?param` there
                // raises no error under naive evaluation either).
                if index.buckets.is_empty() {
                    return Ok(());
                }
                let mut parts = Vec::with_capacity(key_exprs.len());
                for expr in key_exprs {
                    parts.push(self.eval(expr, env)?);
                }
                if let Some(matches) = index.buckets.get(&composite_key(parts)) {
                    for element in matches {
                        let mut inner = env.clone();
                        if match_pattern(pattern, element, &mut inner)? {
                            self.exec_plan(head, rest, &inner, out)?;
                        }
                    }
                }
                Ok(())
            }
            Some((Step::MaterialisedJoin { patterns, rows }, rest)) => {
                for row in rows.chunks_exact(patterns.len()) {
                    let mut bound = env.clone();
                    let mut all = true;
                    // Bind in textual order so shadowing matches the nested loop.
                    for (pattern, element) in patterns.iter().zip(row) {
                        if !match_pattern(pattern, element, &mut bound)? {
                            all = false;
                            break;
                        }
                    }
                    if all {
                        self.exec_plan(head, rest, &bound, out)?;
                    }
                }
                Ok(())
            }
        }
    }

    /// The naive nested-loop comprehension semantics (reference implementation).
    pub(crate) fn eval_comprehension(
        &self,
        head: &Expr,
        qualifiers: &[Qualifier],
        env: &Env,
        out: &mut Bag,
    ) -> Result<(), EvalError> {
        match qualifiers.split_first() {
            None => {
                out.push(self.eval(head, env)?);
                Ok(())
            }
            Some((Qualifier::Filter(cond), rest)) => {
                if self.eval(cond, env)?.as_bool()? {
                    self.eval_comprehension(head, rest, env, out)?;
                }
                Ok(())
            }
            Some((Qualifier::Binding { pattern, value }, rest)) => {
                let v = self.eval(value, env)?;
                let mut inner = env.clone();
                if match_pattern(pattern, &v, &mut inner)? {
                    self.eval_comprehension(head, rest, &inner, out)?;
                }
                Ok(())
            }
            Some((Qualifier::Generator { pattern, source }, rest)) => {
                let bag = self.eval(source, env)?.expect_bag()?;
                for element in bag.iter() {
                    let mut inner = env.clone();
                    if match_pattern(pattern, element, &mut inner)? {
                        self.eval_comprehension(head, rest, &inner, out)?;
                    }
                }
                Ok(())
            }
        }
    }
}
