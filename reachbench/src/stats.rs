//! Percentiles, failure accounting and result rendering.

use reach_common::{ReachError, Result};
use std::collections::BTreeMap;

/// The `q`-quantile of ascending nanosecond samples, in µs, linearly
/// interpolated between the two nearest ranks (0 when empty).
pub fn percentile_us(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted_ns.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    let ns = sorted_ns[lo] as f64 * (1.0 - frac) + sorted_ns[hi] as f64 * frac;
    ns / 1_000.0
}

/// The `q`-quantile of a few measurements, linearly interpolated
/// between the two nearest ranks (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of a few measurements (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The variant name of an error (`Deadlock`, `Overloaded`, ...).
fn variant(e: &ReachError) -> String {
    let dbg = format!("{e:?}");
    dbg.split(['(', ' ', '{'])
        .next()
        .unwrap_or("Unknown")
        .to_string()
}

/// Attempts and errors per operation type; errors by variant.
#[derive(Default, Debug, Clone)]
pub struct Failures {
    attempts: BTreeMap<String, u64>,
    errors: BTreeMap<String, u64>,
}

impl Failures {
    /// Count one attempt of `op`, and its error if it failed.
    pub fn check<T>(&mut self, op: &'static str, r: Result<T>) -> Option<T> {
        *self.attempts.entry(op.to_string()).or_default() += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                *self
                    .errors
                    .entry(format!("{op}/{}", variant(&e)))
                    .or_default() += 1;
                None
            }
        }
    }

    pub fn merge(&mut self, other: &Failures) {
        for (k, v) in &other.attempts {
            *self.attempts.entry(k.clone()).or_default() += v;
        }
        for (k, v) in &other.errors {
            *self.errors.entry(k.clone()).or_default() += v;
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempts.values().sum()
    }

    pub fn failed(&self) -> u64 {
        self.errors.values().sum()
    }

    /// Every count as `attempt <op> <n>` and `error <op/Variant> <n>`
    /// lines, the form [`Failures::read_line`] reads back.
    pub fn lines(&self) -> impl Iterator<Item = String> + '_ {
        let attempts = self
            .attempts
            .iter()
            .map(|(k, v)| format!("attempt {k} {v}"));
        let errors = self.errors.iter().map(|(k, v)| format!("error {k} {v}"));
        attempts.chain(errors)
    }

    /// Add the count of one `attempt` or `error` line's key and value.
    pub fn read_line(&mut self, tag: &str, key: &str, n: u64) {
        let map = if tag == "attempt" {
            &mut self.attempts
        } else {
            &mut self.errors
        };
        *map.entry(key.to_string()).or_default() += n;
    }

    /// `{"op/Variant": n, ...}`.
    pub fn errors_json(&self) -> String {
        let body: Vec<String> = self
            .errors
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Named metrics with units, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, String)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.0.push((name.to_string(), value, unit.to_string()));
    }

    /// Every metric as (name, value, unit).
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &str)> {
        self.0.iter().map(|(n, v, u)| (n.as_str(), *v, u.as_str()))
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` over the names in
    /// `keep` (all when `None`).
    pub fn to_json(&self, keep: Option<&[&str]>) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .filter(|(n, _, _)| keep.is_none_or(|k| k.contains(&n.as_str())))
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number (non-finite values become 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1_000, 2_000, 3_000, 4_000];
        assert_eq!(percentile_us(&v, 0.0), 1.0);
        assert_eq!(percentile_us(&v, 1.0), 4.0);
        assert_eq!(percentile_us(&v, 0.5), 2.5);
        assert_eq!(percentile_us(&[], 0.5), 0.0);
    }

    #[test]
    fn failures_count_by_op_and_variant() {
        let mut f = Failures::default();
        assert_eq!(f.check("invoke", Ok::<_, ReachError>(3)), Some(3));
        let e: Result<()> = Err(ReachError::Deadlock(reach_common::TxnId::new(0)));
        assert_eq!(f.check("commit", e), None);
        assert_eq!((f.attempted(), f.failed()), (2, 1));
        assert_eq!(f.errors_json(), "{\"commit/Deadlock\": 1}");
    }
}
