//! Metric collection, percentile helpers and the result line.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in the order they were added.
#[derive(Debug, Default, Clone)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Prints one `name = value unit` line per metric, under a heading.
    pub fn print(&self, heading: &str) {
        println!("-- {heading}");
        for m in &self.metrics {
            println!("{:<40} {:>16} {}", m.name, fmt_value(m.value), m.unit);
        }
    }
}

/// Formats a value with all its digits; non-finite values (which JSON
/// cannot carry) print as `null`.
pub fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, report: &Report) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            fmt_value(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Nearest-rank percentile of an ascending slice (`p` in `0..=1`).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentile `p` of nanosecond samples, in microseconds, taken as the
/// median over windows of `window` consecutive samples, so one stall of the
/// shared host moves one window rather than the whole phase.
pub fn windowed_percentile_us(samples_ns: &[u64], window: usize, p: f64) -> f64 {
    let chunks = (samples_ns.len() / window.max(1)).max(1);
    let size = samples_ns.len() / chunks;
    let per_window: Vec<f64> = (0..chunks)
        .map(|c| {
            let end = if c + 1 == chunks { samples_ns.len() } else { (c + 1) * size };
            let mut w = samples_ns[c * size..end].to_vec();
            w.sort_unstable();
            percentile(&w, p) as f64 / 1e3
        })
        .collect();
    median(&per_window)
}

/// SplitMix64: the benchmark's own seeded generator for query bit
/// flips, so input generation does not depend on any library RNG.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// 64-bit fingerprint of a packed query, for the no-repeat check.
pub fn fingerprint(words: &[u64]) -> u64 {
    let mut h = SplitMix(words.len() as u64);
    let mut acc = 0u64;
    for &w in words {
        h.0 ^= w;
        acc = acc.rotate_left(17) ^ h.next_u64();
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.add("setup_s", 0.5, "s");
        let line = result_json(true, 3, 0, &r);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
