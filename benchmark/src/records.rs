//! Named samples: what an operation, a probe or a stage child
//! measured. A stage child prints its records one per line
//! (`@ name value`); the parent parses them back and reduces each name
//! to a median. The same line format carries `expected` from the setup
//! stage to the later stages.

use std::collections::BTreeMap;

/// Name → samples, in insertion order per name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Records(BTreeMap<String, Vec<f64>>);

const PREFIX: &str = "@ ";

impl Records {
    /// Append one sample of `name`.
    pub fn push(&mut self, name: &str, value: f64) {
        self.0.entry(name.to_string()).or_default().push(value);
    }

    /// Replace `name` with a single value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), vec![value]);
    }

    /// Append every sample of `other`.
    pub fn extend(&mut self, other: &Records) {
        for (name, values) in &other.0 {
            self.0.entry(name.clone()).or_default().extend(values);
        }
    }

    /// All samples of `name` (empty when absent).
    pub fn samples(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median of `name`; 0 when absent (a layer not on this path).
    pub fn median(&self, name: &str) -> f64 {
        median(self.samples(name))
    }

    /// Names whose samples are not all bit-identical.
    pub fn unequal<'a>(&self, names: impl Iterator<Item = &'a str>) -> Vec<String> {
        names
            .filter(|n| {
                let s = self.samples(n);
                s.windows(2).any(|w| w[0].to_bits() != w[1].to_bits())
            })
            .map(str::to_string)
            .collect()
    }

    /// One `@ name value` line per sample; `f64` prints with all its
    /// digits, so the parent reads back exactly what was measured.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, values) in &self.0 {
            for v in values {
                out.push_str(&format!("{PREFIX}{name} {v}\n"));
            }
        }
        out
    }

    /// Parse the `@ name value` lines of `text`, ignoring all others.
    pub fn parse(text: &str) -> Records {
        let mut r = Records::default();
        for line in text.lines() {
            let Some(rest) = line.strip_prefix(PREFIX) else {
                continue;
            };
            if let Some((name, value)) = rest.split_once(' ') {
                if let Ok(v) = value.trim().parse::<f64>() {
                    r.push(name, v);
                }
            }
        }
        r
    }
}

/// Median (mean of the two middle values for an even count); 0 for an
/// empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip_is_exact() {
        let mut r = Records::default();
        r.push("wall_s", 1.234_567_890_123);
        r.push("wall_s", 0.1 + 0.2);
        r.push("mgt.cpu_ops_m", 9_007_199_254.0);
        let back = Records::parse(&format!("noise\n{}more noise\n", r.render()));
        assert_eq!(back, r);
    }

    #[test]
    fn medians_and_quantiles() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
    }

    #[test]
    fn unequal_names_only_the_drifting_counts() {
        let mut r = Records::default();
        r.push("a", 1.0);
        r.push("a", 1.0);
        r.push("b", 1.0);
        r.push("b", 1.5);
        assert_eq!(r.unequal(["a", "b", "absent"].into_iter()), ["b"]);
    }
}
