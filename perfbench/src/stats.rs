//! Sample summaries under one percentile rule: a timing reports its
//! median and the highest percentile that has at least ten samples beyond
//! it, plus the sample count. A percentile the sample cannot support is
//! refused (`None`), never printed.

/// Samples a percentile must leave beyond its rank to be reported.
const MIN_BEYOND: usize = 10;

/// Percentiles tried, highest first, when choosing the reported tail.
const TAIL_LADDER: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.75];

/// Median (mean of the two middle values for an even count); `None` on
/// an empty sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile `q` of `samples`, or `None` when fewer than
/// ten samples lie beyond its rank.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// A timing population as the report file records it.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Samples observed.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// The highest supported tail percentile (`q`, value), if any.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes a non-empty sample; `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let median = median(samples)?;
        let tail = TAIL_LADDER
            .iter()
            .find_map(|&q| percentile(samples, q).map(|v| (q, v)));
        Some(Summary {
            n: samples.len(),
            median,
            tail,
        })
    }

    /// `{"n":…,"median":…,"tail_q":…,"tail":…}`.
    pub fn json(&self) -> String {
        let mut o = crate::report::Obj::new()
            .int("n", self.n as i64)
            .num("median", self.median);
        if let Some((q, v)) = self.tail {
            o = o.num("tail_q", q).num("tail", v);
        }
        o.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), None);
        let w: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&w, 0.99), Some(990.0));
    }

    #[test]
    fn summary_picks_the_highest_supported_tail() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!(s.n, 100);
        assert_eq!(s.median, 50.5);
        assert_eq!(s.tail, Some((0.9, 90.0)));
        assert!(Summary::of(&[]).is_none());
    }
}
