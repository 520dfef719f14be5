//! The table every mode prints: one metric a row, by name, with its unit,
//! median, quartiles, sample count and — where it has one — its bound.

use crate::metrics::{self, quartiles, spread};

pub struct Row {
    pub name: String,
    pub unit: &'static str,
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub bound: Option<f64>,
}

impl Row {
    pub fn new(name: &str, samples: &[f64]) -> Row {
        let (unit, _, bound, _) = metrics::describe(name).expect("a registered metric");
        let (q1, median, q3) = quartiles(samples);
        Row {
            name: name.to_string(),
            unit,
            n: samples.len(),
            q1,
            median,
            q3,
            bound,
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        spread((self.q1, self.median, self.q3))
    }
}

/// Six significant digits, plain notation: enough to tell runs apart
/// without drowning the table.
pub fn num(x: f64) -> String {
    if x == 0.0 {
        return "0".into();
    }
    let digits = (5 - x.abs().log10().floor() as i32).clamp(0, 9) as usize;
    format!("{x:.digits$}")
}

pub fn print_rows(rows: &[Row]) {
    println!(
        "{:<36} {:<6} {:>3} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "metric", "unit", "n", "median", "q1", "q3", "spread", "bound"
    );
    for r in rows {
        println!(
            "{:<36} {:<6} {:>3} {:>14} {:>14} {:>14} {:>8.4} {:>6}",
            r.name,
            r.unit,
            r.n,
            num(r.median),
            num(r.q1),
            num(r.q3),
            r.spread(),
            r.bound.map_or_else(|| "-".to_string(), |b| b.to_string()),
        );
    }
}
