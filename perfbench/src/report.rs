//! Metric values, order statistics and the one-line JSON result.

/// Whether a number counts simulated (modelled-hardware) or host (simulator)
/// work — printed beside every metric so the two are never confused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Host,
    Sim,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub clock: Clock,
    /// Sample count behind a percentile or median, when there is one.
    pub samples: Option<usize>,
}

impl Metric {
    pub fn host(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value,
            unit,
            clock: Clock::Host,
            samples: None,
        }
    }

    pub fn sim(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value,
            unit,
            clock: Clock::Sim,
            samples: None,
        }
    }

    pub fn with_samples(mut self, n: usize) -> Metric {
        self.samples = Some(n);
        self
    }
}

/// A metric name: starts with a letter or digit, at most 64 characters of
/// letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: at most 16 characters of letters, digits, `_`, `/`, `%`, `.`
/// and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// How many of `n` samples lie strictly beyond the nearest-rank `q`
/// quantile (`0 < q < 1`).
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// 1-based nearest-rank index of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank quantile of `values`, or `None` when fewer than ten samples
/// lie beyond it — a tail percentile resting on fewer is noise, so the
/// benchmark refuses to report it.
pub fn tail_quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() || samples_beyond(values.len(), q) < 10 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(v.len(), q) - 1])
}

/// Median (mean of the middle pair for an even count); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Human-readable metric lines (everything before the final JSON line).
pub fn print_table(metrics: &[Metric]) {
    for m in metrics {
        let clock = match m.clock {
            Clock::Host => "host",
            Clock::Sim => "sim",
        };
        let n = m.samples.map(|n| format!("  n={n}")).unwrap_or_default();
        println!(
            "  {:<28} {:>16.6} {:<6} [{clock}]{n}",
            m.name, m.value, m.unit
        );
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
/// Values print with every digit (Rust's shortest round-trip form).
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        out.push_str(&format!(
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_charset() {
        for ok in [
            "sweep_s",
            "cell_ms.p90",
            "core.fetch_l1_share",
            "9lives",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".lead",
            "_lead",
            "has space",
            "semi;colon",
            "slash/no",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "MB", "ns"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "milli seconds", "a".repeat(17).as_str()] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_quantile(&v, 0.9), Some(90.0));
        assert_eq!(tail_quantile(&v[..99], 0.9), None);
        assert_eq!(tail_quantile(&v, 0.5), Some(50.0));
        assert_eq!(tail_quantile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 3, 0, &[Metric::host("sweep_s", 1.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"sweep_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        let v = prestage_json::Json::parse(&line).expect("valid JSON");
        assert_eq!(v.keys().map(|k| k.len()), Some(4));
    }
}
