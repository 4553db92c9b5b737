//! `compare <setA> <setB>`: B against A, one row per metric and workload.
//!
//! Each row gives both medians with their quartiles and sample counts, the
//! ratio B/A with its base, the share of sample pairs B wins, and a
//! verdict:
//!
//! * `unresolved` — either side's spread (inter-quartile distance over its
//!   median) is wider than the metric's bound, so nothing can be said;
//! * `regressed` — B's median is worse than A's by more than the bound;
//! * `improved` — B's median is better by more than A's own spread and B
//!   wins at least nine tenths of at least ten decided pairs (ties count
//!   for neither) — three samples a side can show a regression, not a gain;
//! * `within-bound` — anything else.

use tensorkmc_compat::json::Json;

use crate::catalogue::{self, Better};
use crate::report::format_value;
use crate::stats::{quartiles, spread};

fn samples(set: &Json, workload: &str, metric: &str) -> Vec<f64> {
    let found = set
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|e| e.get(metric))
        .and_then(|m| m.get("samples"));
    match found {
        Some(Json::Arr(values)) => values.iter().filter_map(|v| v.as_f64().ok()).collect(),
        _ => Vec::new(),
    }
}

/// The verdict on samples `a` (base) and `b` for a metric with direction
/// `better` and regression bound `bound`. Also returns B's win fraction.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> (&'static str, f64) {
    let (_, med_a, _) = quartiles(a);
    let (_, med_b, _) = quartiles(b);
    // Positive = B is worse, as a share of A's median.
    let worse = match better {
        Better::Higher => (med_a - med_b) / med_a,
        Better::Lower => (med_b - med_a) / med_a,
    };
    let (mut wins, mut decided) = (0u32, 0u32);
    for (x, y) in a.iter().zip(b) {
        if x != y {
            decided += 1;
            wins += u32::from((y > x) == (better == Better::Higher));
        }
    }
    let win_fraction = if decided == 0 {
        0.0
    } else {
        f64::from(wins) / f64::from(decided)
    };
    let verdict = if spread(a).max(spread(b)) > bound {
        "unresolved"
    } else if worse > bound {
        "regressed"
    } else if -worse > spread(a) && decided >= 10 && win_fraction >= 0.9 {
        "improved"
    } else {
        "within-bound"
    };
    (verdict, win_fraction)
}

/// Compares two loaded sets and prints the table. `false` when any metric
/// regressed.
pub fn run(a: &Json, b: &Json) -> bool {
    let name = |s: &Json| {
        s.get("name")
            .and_then(|n| n.as_str().ok())
            .unwrap_or("?")
            .to_string()
    };
    println!("compare: A = {}, B = {} (ratios are B/A)", name(a), name(b));
    println!(
        "{:<18} {:<22} {:>38} {:>38} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "B/A", "wins"
    );
    let mut regressed = false;
    for (workload, _) in catalogue::WORKLOADS {
        for m in catalogue::METRICS {
            let Some(bound) = m.bound else { continue };
            if !m.workloads.contains(&workload) {
                continue;
            }
            let (sa, sb) = (samples(a, workload, m.name), samples(b, workload, m.name));
            if sa.is_empty() || sb.is_empty() {
                continue;
            }
            let (verdict, wins) = verdict(&sa, &sb, m.better, bound);
            let side = |s: &[f64]| {
                let (q1, q2, q3) = quartiles(s);
                format!(
                    "{} [{}, {}] {}",
                    format_value(q2),
                    format_value(q1),
                    format_value(q3),
                    s.len()
                )
            };
            println!(
                "{:<18} {:<22} {:>38} {:>38} {:>8.4} {:>6.2}  {verdict} (bound {:.0}%, {} {})",
                workload,
                m.name,
                side(&sa),
                side(&sb),
                quartiles(&sb).1 / quartiles(&sa).1,
                wins,
                bound * 100.0,
                m.better.as_str(),
                m.unit
            );
            regressed |= verdict == "regressed";
        }
    }
    !regressed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let base = [
            100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 99.9, 100.3, 99.7,
        ];
        let scale = |k: f64| base.map(|v| v * k);
        let v = |b: &[f64], better| verdict(&base, b, better, 0.05).0;
        assert_eq!(v(&scale(1.002), Better::Higher), "within-bound"); // inside A's spread
        assert_eq!(v(&scale(1.20), Better::Higher), "improved");
        assert_eq!(v(&scale(0.90), Better::Higher), "regressed");
        assert_eq!(v(&scale(1.10), Better::Lower), "regressed");
        assert_eq!(v(&scale(0.80), Better::Lower), "improved");
        // Three pairs are not enough to call a gain.
        assert_eq!(
            verdict(&base[..3], &scale(1.20)[..3], Better::Higher, 0.05).0,
            "within-bound"
        );
        let noisy = [
            100.0, 140.0, 70.0, 120.0, 85.0, 100.0, 130.0, 75.0, 110.0, 90.0,
        ];
        assert_eq!(
            verdict(&noisy, &noisy, Better::Higher, 0.05).0,
            "unresolved"
        );
    }
}
