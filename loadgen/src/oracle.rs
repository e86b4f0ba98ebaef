//! The correctness oracle: an in-process `columnar: false` dataspace over the
//! same data, whose answers every wire reply is held against as a sorted bag.

use dataspace_core::dataspace::Dataspace;
use iql::{Params, Value};
use proteomics::queries::priority_queries;

use crate::fixture::{build, config_for, log_seed_batches, scale_for};
use crate::schedule::{adhoc_accession, Pools, Workload, ADHOC_TEXTS, SCAN, TARGETS, TEXTS};

/// Key + one value column of every insert target: together with the seven
/// priority queries, the state compared at quiesce and after reopening.
const TARGET_EXTENTS: [&str; 4] = [
    "[{k, x} | {k, x} <- <<PEDRO_protein, PEDRO_accession_num>>]",
    "[{k, x} | {k, x} <- <<PEPSEEKER_proteinhit, PEPSEEKER_ProteinID>>]",
    "[{k, x} | {k, x} <- <<PEPSEEKER_peptidehit, PEPSEEKER_pepseq>>]",
    "[{k, x} | {k, x} <- <<GPMDB_peptide, GPMDB_seq>>]",
];

pub struct Oracle {
    pub ds: Dataspace,
    pub pools: Pools,
    /// `answers[q][b]`: sorted answer of `TEXTS[q]` under `pools.params[q][b]`.
    pub answers: [Vec<Vec<Value>>; 7],
    /// Sorted answer of the scan text.
    pub scan: Vec<Value>,
    /// Sorted answer per ad-hoc text (`mixed_rw` only).
    pub adhoc: Vec<Vec<Value>>,
}

/// Bag equality: `got` in any order against an ascending `expected`.
pub fn same_bag(mut got: Vec<Value>, expected: &[Value]) -> bool {
    got.sort();
    got == expected
}

fn sorted(ds: &Dataspace, text: &str, params: &Params) -> Result<Vec<Value>, String> {
    let prepared = ds.prepare(text).map_err(|e| e.to_string())?;
    let mut rows = prepared
        .execute(params)
        .map_err(|e| format!("oracle cannot answer `{text}`: {e}"))?
        .into_items();
    rows.sort();
    Ok(rows)
}

fn distinct_strings(ds: &Dataspace, text: &str) -> Result<Vec<String>, String> {
    let mut out: Vec<String> = sorted(ds, text, &Params::new())?
        .into_iter()
        .filter_map(|v| match v {
            Value::Str(s) => Some(s.to_string()),
            _ => None,
        })
        .collect();
    out.dedup();
    Ok(out)
}

impl Oracle {
    /// Build the oracle for `workload`: pools drawn under `seed` from values
    /// present in the generated data, then every (query, binding) answered
    /// on the row engine.
    pub fn build(workload: Workload, seed: u64) -> Result<Oracle, String> {
        let rows = workload.rows();
        let (mut ds, _) = build(rows, config_for(workload, false), None)?;
        let scale = scale_for(rows);
        let pools = Pools::build(
            seed,
            &distinct_strings(&ds, "[x | {s, k, x} <- <<UProtein, accession_num>>]")?,
            &distinct_strings(&ds, "[o | {s, k, o} <- <<UProtein, organism>>]")?,
            &distinct_strings(&ds, "[x | {s, k, x} <- <<UPeptideHit, sequence>>]")?,
            scale.proteins as i64,
            scale.protein_hits as i64,
        );
        if workload == Workload::MixedRw {
            for (target, batch) in log_seed_batches() {
                let (source, table) = TARGETS[target];
                ds.insert_many(source, table, batch)
                    .map_err(|e| e.to_string())?;
            }
        }
        let mut answers: [Vec<Vec<Value>>; 7] = Default::default();
        for q in workload.queries().iter().copied().filter(|q| *q < 7) {
            for params in &pools.params[q] {
                answers[q].push(sorted(&ds, TEXTS[q], params)?);
            }
        }
        let scan = sorted(&ds, TEXTS[SCAN], &Params::new())?;
        let adhoc = if workload == Workload::MixedRw {
            (0..ADHOC_TEXTS)
                .map(|i| {
                    let params = proteomics::queries::q1(&adhoc_accession(i));
                    sorted(&ds, TEXTS[0], &params)
                })
                .collect::<Result<_, _>>()?
        } else {
            Vec::new()
        };
        Ok(Oracle {
            ds,
            pools,
            answers,
            scan,
            adhoc,
        })
    }

    /// Replay acknowledged inserts into the oracle.
    pub fn apply(&mut self, target: usize, rows: Vec<Vec<Value>>) -> Result<(), String> {
        let (source, table) = TARGETS[target];
        self.ds
            .insert_many(source, table, rows)
            .map_err(|e| format!("oracle rejects an acknowledged insert: {e}"))
    }

    /// Sorted oracle answer of an arbitrary text (subscription checks).
    pub fn answer(&self, text: &str) -> Result<Vec<Value>, String> {
        sorted(&self.ds, text, &Params::new())
    }

    /// Compare the seven priority queries (default bindings) and the insert
    /// targets' extents as `answer` gives them against the oracle; returns
    /// the texts that disagree.
    pub fn state_mismatches(
        &self,
        mut answer: impl FnMut(&str, &Params) -> Result<Vec<Value>, String>,
    ) -> Result<Vec<String>, String> {
        let mut checks: Vec<(String, Params)> = priority_queries()
            .into_iter()
            .map(|q| (q.iql, q.params))
            .collect();
        checks.extend(
            TARGET_EXTENTS
                .iter()
                .map(|t| (t.to_string(), Params::new())),
        );
        let mut wrong = Vec::new();
        for (text, params) in checks {
            if !same_bag(answer(&text, &params)?, &sorted(&self.ds, &text, &params)?) {
                wrong.push(text);
            }
        }
        Ok(wrong)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bag_equality_ignores_order_but_not_multiplicity() {
        let expected = vec![Value::Int(1), Value::Int(2), Value::Int(2)];
        assert!(same_bag(vec![2.into(), 1.into(), 2.into()], &expected));
        assert!(!same_bag(vec![1.into(), 2.into()], &expected));
        assert!(!same_bag(vec![1.into(), 2.into(), 3.into()], &expected));
    }
}
