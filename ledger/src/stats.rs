//! Order statistics and slice accounting.
//!
//! The host this benchmark was designed on has disturbed regimes that
//! last a quarter of an hour and slow most of a run (see the README's
//! noise facts). Everything reported is therefore a quantile, never a
//! mean, and throughput/CPU figures are taken *across short wall-clock
//! slices* of the measured phase.

/// `q`-quantile (`0.0..=1.0`) of an ascending-sorted slice, linearly
/// interpolated between the two closest ranks. Empty input reads 0.
pub(crate) fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let Some(&last) = sorted.last() else {
        return 0.0;
    };
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    match sorted.get(lo + 1) {
        Some(&hi) => sorted[lo] + (hi - sorted[lo]) * frac,
        None => last,
    }
}

/// Sort a sample ascending (total order, so a stray NaN cannot panic).
pub(crate) fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// `q`-quantile of an unsorted sample.
pub(crate) fn quantile(v: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(v.to_vec()), q)
}

/// Median of an unsorted sample.
pub(crate) fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// One reading taken on the measuring thread at a slice boundary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Boundary {
    /// Nanoseconds since the phase epoch.
    pub t_ns: u64,
    /// Process CPU time (user + sys, all threads) in nanoseconds.
    pub cpu_ns: u64,
    /// The clock sensor's reading here, microseconds.
    pub sensor_us: f64,
}

/// One wall-clock slice of a measured phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Slice {
    /// Slice length in nanoseconds.
    pub wall_ns: u64,
    /// Process CPU time spent in the slice, nanoseconds.
    pub cpu_ns: u64,
    /// Ops that *completed* inside the slice.
    pub ops: u64,
    /// The smaller of the sensor readings at the slice's two ends.
    pub sensor_us: f64,
}

impl Slice {
    /// Completed ops per second of wall time.
    pub(crate) fn ops_per_s(&self) -> f64 {
        self.ops as f64 * 1e9 / self.wall_ns.max(1) as f64
    }

    /// Process CPU microseconds per completed op.
    pub(crate) fn cpu_us_per_op(&self) -> f64 {
        self.cpu_ns as f64 / 1e3 / self.ops.max(1) as f64
    }
}

/// Cut a phase into slices at the recorded boundaries and attribute each
/// op to the slice its completion time falls in (`[start, end)`; an op
/// ending exactly on the last boundary belongs to the last slice).
/// `op_end_ns` need not be sorted (connections are pooled). Slices in
/// which no op completed are dropped: they have no per-op figure.
pub(crate) fn slices(boundaries: &[Boundary], op_end_ns: &[u64]) -> Vec<Slice> {
    let mut ends = op_end_ns.to_vec();
    ends.sort_unstable();
    let mut out = Vec::new();
    let mut next = 0usize;
    for (i, pair) in boundaries.windows(2).enumerate() {
        let (a, b) = (pair[0], pair[1]);
        let is_last = i + 2 == boundaries.len();
        let start = next;
        while next < ends.len() && (ends[next] < b.t_ns || (is_last && ends[next] == b.t_ns)) {
            next += 1;
        }
        // Ops that ended before the first boundary belong to no slice.
        let first = ends[start..next].partition_point(|&e| e < a.t_ns);
        let ops = (next - start - first) as u64;
        if ops > 0 {
            out.push(Slice {
                wall_ns: b.t_ns.saturating_sub(a.t_ns),
                cpu_ns: b.cpu_ns.saturating_sub(a.cpu_ns),
                ops,
                sensor_us: a.sensor_us.min(b.sensor_us),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_known_vectors() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.75), 4.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        // Interpolation between ranks: 4 values, q=0.25 sits a quarter
        // of the way from rank 0 to rank 3 → 0.75 ranks in.
        assert_eq!(quantile(&[10.0, 20.0, 30.0, 40.0], 0.25), 17.5);
        assert_eq!(median(&[10.0, 20.0, 30.0, 40.0]), 25.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn a_burst_moves_the_mean_but_not_the_lower_quartile() {
        let mut v = vec![100.0; 90];
        v.extend([400.0; 10]);
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        assert_eq!(mean, 130.0);
        assert_eq!(quantile(&v, 0.25), 100.0);
    }

    #[test]
    fn slice_accounting_attributes_each_op_once() {
        let b = |t_ns, cpu_ns, sensor_us| Boundary {
            t_ns,
            cpu_ns,
            sensor_us,
        };
        let bounds = [
            b(0, 1_000, 85.0),
            b(100, 1_090, 72.0),
            b(200, 1_290, 85.0),
            b(300, 1_300, 86.0),
        ];
        // Unsorted on purpose (two pooled connections); 5 precedes no
        // boundary issue, 100 falls in the second slice, 300 in the last.
        let ends = [150, 5, 100, 99, 300, 199];
        let s = slices(&bounds, &ends);
        assert_eq!(
            s,
            vec![
                Slice {
                    wall_ns: 100,
                    cpu_ns: 90,
                    ops: 2,
                    sensor_us: 72.0
                },
                Slice {
                    wall_ns: 100,
                    cpu_ns: 200,
                    ops: 3,
                    sensor_us: 72.0
                },
                Slice {
                    wall_ns: 100,
                    cpu_ns: 10,
                    ops: 1,
                    sensor_us: 85.0
                },
            ]
        );
        assert_eq!(s.iter().map(|x| x.ops).sum::<u64>(), ends.len() as u64);
        assert_eq!(s[0].ops_per_s(), 2e7);
        assert_eq!(s[1].cpu_us_per_op(), 0.2 / 3.0);
    }

    #[test]
    fn empty_slices_are_dropped_and_early_ops_ignored() {
        let b = |t_ns| Boundary {
            t_ns,
            cpu_ns: t_ns,
            sensor_us: 85.0,
        };
        let s = slices(&[b(100), b(200), b(300)], &[50, 250]);
        assert_eq!(
            s,
            vec![Slice {
                wall_ns: 100,
                cpu_ns: 100,
                ops: 1,
                sensor_us: 85.0
            }]
        );
        assert!(slices(&[b(0)], &[1, 2]).is_empty());
    }
}
