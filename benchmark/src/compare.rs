//! `--compare A.json B.json`: A is the baseline, B the candidate. One row
//! per (metric, workload) with both medians and quartiles, the change, the
//! bound and a verdict, by the pairing rule of the choosing-metrics guide:
//!
//! * `regressed`  — B's median is worse than A's by more than the bound;
//! * `unresolved` — the run-to-run spread is wider than the bound, so the
//!   rows cannot tell (unless every run of one side beats every run of
//!   the other: then the spread does not hide the change);
//! * `improved`   — B wins at least nine tenths of the pairs (ties count
//!   for neither) and the medians differ by more than A's interquartile
//!   distance, or every run of B beats every run of A;
//! * `unchanged`  — anything else.
//!
//! Exact per-layer metrics (counts and simulated statistics) are compared
//! for identity and read `same` or `changed`. The exit code is non-zero on
//! any `regressed` row or failed correctness check; `--strict`, which the
//! A/A acceptance run uses, also refuses `unresolved` and `changed`.

use crate::json::{self, Value};
use crate::metrics::{self, quartiles, spread, Better};
use crate::orchestrate::SCHEMA;
use crate::report::num;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `worse(x, y)`: x reads strictly worse than y.
fn worse(better: Better, x: f64, y: f64) -> bool {
    match better {
        Better::Lower => x > y,
        Better::Higher => x < y,
    }
}

pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (qa, qb) = (quartiles(a), quartiles(b));
    let ((a_q1, a_med, a_q3), (_, b_med, _)) = (qa, qb);
    let iqr_a = a_q3 - a_q1;
    let all_b_better = b.iter().all(|&y| a.iter().all(|&x| worse(better, x, y)));
    if all_b_better {
        return Verdict::Improved;
    }
    let scale = a_med.abs().max(f64::MIN_POSITIVE);
    let past_bound = worse(better, b_med, a_med) && (b_med - a_med).abs() / scale > bound;
    let all_b_worse = b.iter().all(|&y| a.iter().all(|&x| worse(better, y, x)));
    if past_bound && all_b_worse {
        return Verdict::Regressed;
    }
    if spread(qa).max(spread(qb)) > bound {
        return Verdict::Unresolved;
    }
    if past_bound {
        return Verdict::Regressed;
    }
    let pairs = a.len().min(b.len());
    let wins = (0..pairs).filter(|&i| worse(better, a[i], b[i])).count();
    let won_pairs = pairs > 0 && wins * 10 >= pairs * 9;
    if won_pairs && !worse(better, b_med, a_med) && (b_med - a_med).abs() > iqr_a {
        return Verdict::Improved;
    }
    Verdict::Unchanged
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match v.get("schema").and_then(Value::as_str) {
        Some(SCHEMA) => Ok(v),
        other => Err(format!("{path}: schema {other:?}, expected {SCHEMA:?}")),
    }
}

fn samples(doc: &Value, workload: &str, section: &str, metric: &str) -> Option<Vec<f64>> {
    doc.get("workloads")?
        .get(workload)?
        .get(section)?
        .get(metric)?
        .get("samples")?
        .as_arr()?
        .iter()
        .map(Value::as_f64)
        .collect()
}

fn checks_failed(doc: &Value, workload: &str) -> u64 {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("checks"))
        .and_then(|c| c.get("failed"))
        .and_then(Value::as_f64)
        .map_or(0, |x| x as u64)
}

pub fn run(path_a: &str, path_b: &str, strict: bool) -> Result<i32, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let workloads: Vec<&str> = a
        .get("workloads")
        .and_then(Value::as_obj)
        .ok_or_else(|| format!("{path_a}: no workloads"))?
        .iter()
        .map(|(k, _)| k.as_str())
        .filter(|w| b.get("workloads").and_then(|x| x.get(w)).is_some())
        .collect();
    if workloads.is_empty() {
        return Err("the two files share no workload".into());
    }

    let (mut regressed, mut unresolved, mut changed, mut failed) = (0, 0, 0, 0u64);
    println!(
        "{:<14} {:<36} {:<5} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "unit",
        "A median",
        "A q1",
        "A q3",
        "B median",
        "B q1",
        "B q3",
        "delta",
        "bound"
    );
    for w in &workloads {
        failed += checks_failed(&a, w) + checks_failed(&b, w);
        for m in &metrics::END_TO_END {
            let (Some(sa), Some(sb)) = (
                samples(&a, w, "end_to_end", m.name),
                samples(&b, w, "end_to_end", m.name),
            ) else {
                continue;
            };
            let v = verdict(&sa, &sb, m.better, m.bound);
            regressed += usize::from(v == Verdict::Regressed);
            unresolved += usize::from(v == Verdict::Unresolved);
            print_row(w, m.name, m.unit, &sa, &sb, Some(m.bound), v.label());
        }
        for m in &metrics::PER_LAYER {
            let (Some(sa), Some(sb)) = (
                samples(&a, w, "per_layer", m.name),
                samples(&b, w, "per_layer", m.name),
            ) else {
                continue;
            };
            let label = if !m.exact {
                "-"
            } else if sa == sb {
                "same"
            } else {
                changed += 1;
                "changed"
            };
            print_row(w, m.name, m.unit, &sa, &sb, None, label);
        }
    }
    println!(
        "\n{regressed} regressed, {unresolved} unresolved, {changed} exact metrics changed, \
         {failed} correctness checks failed"
    );
    let bad = regressed > 0 || failed > 0 || (strict && (unresolved > 0 || changed > 0));
    Ok(i32::from(bad))
}

fn print_row(
    workload: &str,
    name: &str,
    unit: &str,
    a: &[f64],
    b: &[f64],
    bound: Option<f64>,
    verdict: &str,
) {
    let (a_q1, a_med, a_q3) = quartiles(a);
    let (b_q1, b_med, b_q3) = quartiles(b);
    let delta = if a_med == 0.0 {
        "-".to_string()
    } else {
        format!("{:+.2}%", (b_med - a_med) / a_med.abs() * 100.0)
    };
    println!(
        "{:<14} {:<36} {:<5} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8} {:>6}  {}",
        workload,
        name,
        unit,
        num(a_med),
        num(a_q1),
        num(a_q3),
        num(b_med),
        num(b_q1),
        num(b_q3),
        delta,
        bound.map_or_else(|| "-".to_string(), |x| x.to_string()),
        verdict
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, step: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + step * (f64::from(i) - 4.5))
            .collect()
    }

    #[test]
    fn identical_sets_are_unchanged() {
        let a = around(100.0, 0.2);
        assert_eq!(verdict(&a, &a, Better::Lower, 0.05), Verdict::Unchanged);
    }

    #[test]
    fn a_shift_past_the_bound_regresses() {
        let a = around(100.0, 0.2);
        let slow = around(108.0, 0.2);
        assert_eq!(verdict(&a, &slow, Better::Lower, 0.05), Verdict::Regressed);
        // Throughput: lower is the bad direction.
        assert_eq!(verdict(&slow, &a, Better::Higher, 0.05), Verdict::Regressed);
    }

    #[test]
    fn a_clean_win_is_improved() {
        let a = around(100.0, 0.2);
        let fast = around(90.0, 0.2);
        assert_eq!(verdict(&a, &fast, Better::Lower, 0.05), Verdict::Improved);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let a = around(100.0, 4.0);
        let b = around(101.0, 4.0);
        assert_eq!(verdict(&a, &b, Better::Lower, 0.05), Verdict::Unresolved);
    }

    #[test]
    fn a_wide_spread_does_not_hide_a_slowdown_of_every_run() {
        let a = around(100.0, 4.0);
        let twice = around(200.0, 8.0);
        assert_eq!(verdict(&a, &twice, Better::Lower, 0.05), Verdict::Regressed);
        assert_eq!(
            verdict(&twice, &a, Better::Higher, 0.05),
            Verdict::Regressed
        );
        assert_eq!(verdict(&twice, &a, Better::Lower, 0.05), Verdict::Improved);
    }

    #[test]
    fn a_shift_inside_the_bound_is_unchanged() {
        let a = around(100.0, 0.2);
        let b = around(102.0, 0.2);
        assert_eq!(verdict(&a, &b, Better::Lower, 0.05), Verdict::Unchanged);
    }
}
