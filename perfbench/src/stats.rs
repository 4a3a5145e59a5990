//! Order statistics, the finite-numbers rule, and small process helpers.

/// Linear-interpolated quantile of an ascending-sorted slice (the
/// "inclusive" definition: q = 0 is the minimum, q = 1 the maximum).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// Median with its dispersion, the form every per-pass timing is
/// reported in.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub p10: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub p90: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let s = sorted(values);
        Summary {
            n: s.len(),
            min: s[0],
            p10: quantile_sorted(&s, 0.10),
            q1: quantile_sorted(&s, 0.25),
            median: quantile_sorted(&s, 0.5),
            q3: quantile_sorted(&s, 0.75),
            p90: quantile_sorted(&s, 0.90),
            max: s[s.len() - 1],
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "median {:.6} (q1 {:.6}, q3 {:.6}, p10 {:.6}, p90 {:.6}, min {:.6}, max {:.6}, n {})",
            self.median, self.q1, self.q3, self.p10, self.p90, self.min, self.max, self.n
        )
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the "exclusive" method), which is what the acceptance check of
/// the repeat report is defined on. Needs at least two values.
pub fn python_quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    let n = s.len();
    assert!(n >= 2, "quartiles need two values");
    let at = |i: usize| {
        // j = i*(n+1) div 4, delta = i*(n+1) mod 4, clamped to the data.
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

/// `num / den`, or `None` when the denominator is zero or the result is
/// not finite: such a ratio is omitted ("layer not exercised"), never
/// printed as NaN, infinity or a made-up zero.
pub fn ratio(num: f64, den: f64) -> Option<f64> {
    let r = num / den;
    (den != 0.0 && r.is_finite()).then_some(r)
}

/// 64-bit FNV-1a, the pass-output fingerprint.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(python_quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            python_quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            (1.5, 4.0, 12.0)
        );
    }

    #[test]
    fn zero_denominator_is_omitted() {
        assert_eq!(ratio(1.0, 0.0), None);
        assert_eq!(ratio(0.0, 0.0), None);
        assert_eq!(ratio(1.0, 4.0), Some(0.25));
    }
}
