//! Order statistics over latency samples.

/// Nearest-rank quantile `q` in `[0, 1]` of an ascending slice, or `None`
/// when it is empty.
pub fn quantile<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of `values` (sorted in place), or `None` when empty.
pub fn median(values: &mut [f64]) -> Option<f64> {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(values[n / 2]),
        _ => Some((values[n / 2 - 1] + values[n / 2]) / 2.0),
    }
}

/// Mean of `sum` over `n` samples, 0 when there are none (the layer did
/// no such work).
pub fn per(sum: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Latency samples of one span name: count, total and every duration.
#[derive(Debug, Default, Clone)]
pub struct Spans {
    /// Durations in nanoseconds.
    pub ns: Vec<u64>,
}

impl Spans {
    /// Records one span.
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
    }

    /// Number of spans.
    pub fn n(&self) -> u64 {
        self.ns.len() as u64
    }

    /// Total duration in microseconds.
    pub fn total_us(&self) -> f64 {
        self.ns.iter().sum::<u64>() as f64 / 1e3
    }

    /// Mean duration in microseconds (0 with no spans).
    pub fn mean_us(&self) -> f64 {
        per(self.total_us(), self.n())
    }

    /// Duration quantile in microseconds (0 with no spans).
    pub fn quantile_us(&self, q: f64) -> f64 {
        let mut sorted = self.ns.clone();
        sorted.sort_unstable();
        quantile(&sorted, q).map_or(0.0, |ns| ns as f64 / 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), Some(50));
        assert_eq!(quantile(&v, 0.99), Some(99));
        assert_eq!(quantile(&v, 1.0), Some(100));
        assert_eq!(quantile::<u32>(&[], 0.5), None);
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 10.0]), Some(2.5));
    }
}
