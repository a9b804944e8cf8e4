//! Small numeric helpers and the result line.

use kor::percentile::{percentile_sorted, sort_samples};

/// Nearest-rank percentile (`p` in `[0, 1]`) of unsorted samples.
pub fn pct(samples: &[f64], p: f64) -> f64 {
    let mut s = samples.to_vec();
    sort_samples(&mut s);
    percentile_sorted(&s, p)
}

pub fn median(samples: &[f64]) -> f64 {
    pct(samples, 0.5)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Metrics in the order they were recorded: name, value, unit.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// The `metrics` object of the result line.
    pub fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{v},\"unit\":\"{u}\"}}"))
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}
