//! `loadgen compare A.json B.json`: hold run B against run A, one row per
//! workload × end-to-end metric, under the benchmark's own bounds.

use crate::json::Json;
use crate::report::END_TO_END;

struct Row {
    workload: String,
    metric: String,
    median: f64,
    spread: Option<f64>,
}

fn rows(path: &str) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some("loadgen-result-v1") {
        return Err(format!("{path}: not a loadgen-result-v1 document"));
    }
    doc.get("summary")
        .map(Json::as_array)
        .unwrap_or_default()
        .iter()
        .map(|row| {
            let text = |key: &str| row.get(key).and_then(Json::as_str).map(str::to_string);
            Ok(Row {
                workload: text("workload").ok_or("summary row without workload")?,
                metric: text("metric").ok_or("summary row without metric")?,
                median: row
                    .get("median")
                    .and_then(Json::as_f64)
                    .ok_or("summary row without median")?,
                spread: row.get("spread").and_then(Json::as_f64),
            })
        })
        .collect()
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    /// B is worse than A by more than the bound.
    Breach,
    /// The recorded run-to-run spread of either side exceeds the bound, so a
    /// difference of the bound's size cannot be told from noise.
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worse_by(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == 0.0 {
        return if b == a {
            0.0
        } else {
            f64::INFINITY.copysign(b - a)
        };
    }
    let change = (b - a) / a.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

pub fn verdict(worse: f64, bound: f64, spreads: [Option<f64>; 2]) -> Verdict {
    if spreads.iter().flatten().any(|s| *s > bound) {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Breach
    } else {
        Verdict::Ok
    }
}

/// Print the comparison; `Ok(false)` when any metric breaches its bound.
pub fn compare_files(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (rows(a_path)?, rows(b_path)?);
    println!("A = {a_path}\nB = {b_path}");
    println!(
        "{:<12} {:<18} {:>14} {:>14} {:>19} {:>7} {:>9} {:>9}  verdict",
        "workload",
        "metric",
        "A median",
        "B median",
        "B worse by (of A)",
        "bound",
        "A spread",
        "B spread"
    );
    let mut breaches = 0;
    for row_a in &a {
        let Some(row_b) = b
            .iter()
            .find(|r| r.workload == row_a.workload && r.metric == row_a.metric)
        else {
            continue;
        };
        // `failed_share` has no relative bound: any increase is a breach.
        let (higher, bound) = END_TO_END
            .iter()
            .find(|(name, ..)| *name == row_a.metric)
            .map_or((false, 0.0), |(_, _, higher, bound)| (*higher, *bound));
        let worse = worse_by(row_a.median, row_b.median, higher);
        let verdict = verdict(worse, bound, [row_a.spread, row_b.spread]);
        breaches += (verdict == Verdict::Breach) as usize;
        let pct = |v: Option<f64>| v.map_or("n/a".to_string(), |v| format!("{:.2}%", v * 100.0));
        println!(
            "{:<12} {:<18} {:>14.4} {:>14.4} {:>18.2}% {:>6.0}% {:>9} {:>9}  {}",
            row_a.workload,
            row_a.metric,
            row_a.median,
            row_b.median,
            worse * 100.0,
            bound * 100.0,
            pct(row_a.spread),
            pct(row_b.spread),
            match verdict {
                Verdict::Ok => "ok",
                Verdict::Breach => "BREACH",
                Verdict::Unresolved => "unresolved (spread exceeds bound)",
            }
        );
    }
    println!("{breaches} breach(es)");
    Ok(breaches == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_is_relative_to_a_and_follows_the_metric_direction() {
        assert!((worse_by(100.0, 112.0, false) - 0.12).abs() < 1e-12);
        assert!((worse_by(100.0, 88.0, true) - 0.12).abs() < 1e-12);
        assert!(worse_by(100.0, 88.0, false) < 0.0);
        assert_eq!(worse_by(0.0, 0.0, false), 0.0);
        assert_eq!(worse_by(0.0, 0.01, false), f64::INFINITY);
    }

    #[test]
    fn verdicts() {
        assert_eq!(
            verdict(0.12, 0.10, [Some(0.02), Some(0.03)]),
            Verdict::Breach
        );
        assert_eq!(verdict(0.08, 0.10, [Some(0.02), None]), Verdict::Ok);
        assert_eq!(
            verdict(0.12, 0.10, [Some(0.15), Some(0.03)]),
            Verdict::Unresolved
        );
        // failed_share: bound 0, any increase breaches.
        assert_eq!(verdict(f64::INFINITY, 0.0, [None, None]), Verdict::Breach);
        assert_eq!(verdict(0.0, 0.0, [None, None]), Verdict::Ok);
    }
}
