//! The measuring loop's bookkeeping, shared by the compute and serve
//! drivers: per-op wall times, slice boundaries read on the measuring
//! thread, the clock sensor, and the reduction to the reported figures.

use crate::procfs::{self, SystemCpu};
use crate::stats::{self, Boundary};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Shortest wall-clock slice of a measured phase. The host's disturbances
/// come in bursts with gaps of 50-100 ms between them, even in a regime
/// that slows three quarters of a run: over 30 `serve-hit` runs of which
/// 20 were disturbed, the best 50 ms of a run repeated within 3 %, the
/// best 750 ms within 13 % (README, noise facts).
const SLICE: Duration = Duration::from_millis(50);

/// Whole ops of the measuring thread a slice must hold, so that a slice
/// of long ops (`tiled-2t`) is not one op's luck.
const SLICE_OPS: usize = 4;

/// The quantile that stands for "undisturbed" in every timing this
/// benchmark reports. A disturbed regime leaves under a twentieth of a
/// run's ops untouched: over the same 30 runs the lower quartile of op
/// time moved by 26 % between sets, the 5th percentile by 2.6 %, the 2nd
/// by 1.2 % (README, noise facts). The minimum is one lucky op.
pub(crate) const FAST: f64 = 0.02;

/// Steps of the sensor's dependent chain.
const SENSOR_STEPS: u32 = 40_000;

/// The sensor reading that defines the *reference clock*: what the chain
/// takes at the base clock of the design host. `op_p02_us` and `setup_s`
/// are reported at this clock. On another machine the chain takes another
/// time, which scales both metrics by one constant and leaves every
/// comparison between two commits as it is.
pub(crate) const REFERENCE_SENSOR_US: f64 = 83.0;

/// Time a fixed scalar dependent chain (the faster of two goes, ~83 us
/// each): the benchmark's clock sensor.
///
/// The design host has two kinds of speed change, and the chain tells
/// them apart (README, noise facts). *Contention* with a neighbour slows
/// vector and memory work by half for seconds at a time and leaves this
/// chain alone; no ratio removes it (kernels react differently), only
/// looking for the undisturbed ops does ([`FAST`]). A *clock boost*, which
/// the single-thread workloads get in some hours and not in others, speeds
/// every kernel and this chain alike, by 12-15 %, for seconds at a time;
/// no quantile removes it (whole runs are boosted), but dividing by the
/// chain's time does, and that is all the sensor is used for.
pub(crate) fn sensor_us() -> f64 {
    let go = || {
        let start = Instant::now();
        let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
        for _ in 0..SENSOR_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(x);
        start.elapsed().as_secs_f64() * 1e6
    };
    go().min(go())
}

/// Factor that converts a time measured next to sensor reading
/// `sensor_us` to the reference clock.
pub(crate) fn to_reference_clock(sensor_us: f64) -> f64 {
    REFERENCE_SENSOR_US / sensor_us
}

/// Records one phase: every op's wall time and completion time, plus a
/// CPU and a sensor reading at each slice boundary.
pub(crate) struct Recorder {
    epoch: Instant,
    next_cut: Duration,
    ops_at_cut: usize,
    boundaries: Vec<Boundary>,
    /// Wall time of each op, nanoseconds.
    op_ns: Vec<u64>,
    /// Completion time of each op, nanoseconds since the epoch.
    op_end_ns: Vec<u64>,
    system_before: SystemCpu,
}

impl Recorder {
    /// Start a phase of `length` at `epoch`, with room for `capacity`
    /// ops so recording does not reallocate inside it.
    pub(crate) fn start(epoch: Instant, length: Duration, capacity: usize) -> Recorder {
        let cuts = (length.as_nanos() / SLICE.as_nanos()) as usize + 2;
        let mut r = Recorder {
            epoch,
            next_cut: SLICE,
            ops_at_cut: 0,
            boundaries: Vec::with_capacity(cuts),
            op_ns: Vec::with_capacity(capacity),
            op_end_ns: Vec::with_capacity(capacity),
            system_before: procfs::system_cpu(),
        };
        r.cut();
        r
    }

    fn cut(&mut self) {
        // The sensor's own time lands before the readings, i.e. in the
        // slice that just ended, where it is a constant 0.3 %.
        let sensor_us = sensor_us();
        self.ops_at_cut = self.op_ns.len();
        self.boundaries.push(Boundary {
            t_ns: self.epoch.elapsed().as_nanos() as u64,
            cpu_ns: procfs::process_cpu_ns(),
            sensor_us,
        });
    }

    /// Note one finished op; returns the time since the epoch.
    pub(crate) fn op_done(&mut self, wall: Duration) -> Duration {
        let now = self.epoch.elapsed();
        self.op_ns.push(wall.as_nanos() as u64);
        self.op_end_ns.push(now.as_nanos() as u64);
        now
    }

    /// Close the current slice if its time is up and it holds enough
    /// ops. Call between ops.
    pub(crate) fn maybe_cut(&mut self, now: Duration) {
        if now >= self.next_cut && self.op_ns.len() >= self.ops_at_cut + SLICE_OPS {
            self.cut();
            self.next_cut = now + SLICE;
        }
    }

    /// Take the last reading, while every thread that worked in the
    /// phase is still alive (an exited thread's CPU time drops out of
    /// the process sum). The tail becomes one more slice only if it is a
    /// whole one; a stub's few ops make no per-op figure.
    pub(crate) fn close(&mut self) {
        let now = self.epoch.elapsed();
        self.maybe_cut(now);
    }

    /// Reduce a closed phase to its figures, pooling in the ops of the
    /// other connections.
    pub(crate) fn finish(mut self, others: &[(Vec<u64>, Vec<u64>)]) -> Phase {
        let own = self.op_ns.len();
        for (op_ns, op_end_ns) in others {
            self.op_ns.extend(op_ns);
            self.op_end_ns.extend(op_end_ns);
        }
        let slices = stats::slices(&self.boundaries, &self.op_end_ns);
        let rate: Vec<f64> = slices.iter().map(|s| s.ops_per_s()).collect();
        let cpu: Vec<f64> = slices.iter().map(|s| s.cpu_us_per_op()).collect();
        let own_cpu_ns = match (self.boundaries.first(), self.boundaries.last()) {
            (Some(a), Some(b)) => b.cpu_ns.saturating_sub(a.cpu_ns),
            _ => 0,
        };
        let (other_cpu_share, steal_share) =
            procfs::contention(self.system_before, procfs::system_cpu(), own_cpu_ns);

        // Each op is converted with the smaller sensor reading of the
        // slice it ended in (the larger factor: a clock that changed
        // inside the slice never flatters an op).
        let op_clock: Vec<f64> = self
            .op_end_ns
            .iter()
            .map(|&end| {
                let after = self.boundaries.partition_point(|b| b.t_ns <= end);
                let at = |i: usize| self.boundaries.get(i).map(|b| b.sensor_us);
                let before = at(after.saturating_sub(1));
                let sensor = match (before, at(after)) {
                    (Some(a), Some(b)) => a.min(b),
                    (Some(a), None) | (None, Some(a)) => a,
                    (None, None) => REFERENCE_SENSOR_US,
                };
                to_reference_clock(sensor)
            })
            .collect();
        let op_us: Vec<f64> = self.op_ns.iter().map(|&n| n as f64 / 1e3).collect();
        let at_reference: Vec<f64> = op_us.iter().zip(&op_clock).map(|(us, c)| us * c).collect();
        let sensor = stats::sorted(self.boundaries.iter().map(|b| b.sensor_us).collect());
        Phase {
            op_fast_us: stats::quantile(&at_reference, FAST),
            op_us: stats::sorted(op_us),
            op_clock: op_clock[..own].to_vec(),
            ops_per_s: stats::quantile(&rate, 1.0),
            cpu_us_per_op: stats::quantile(&cpu, 0.0),
            slices: slices.len(),
            sensor_p50_us: stats::quantile_sorted(&sensor, 0.5),
            sensor_spread: match (sensor.first(), sensor.last()) {
                (Some(&lo), Some(&hi)) if lo > 0.0 => hi / lo,
                _ => 1.0,
            },
            other_cpu_share,
            steal_share,
        }
    }
}

/// The reduced figures of one phase.
pub(crate) struct Phase {
    /// Every op's wall time in microseconds as measured, ascending.
    pub op_us: Vec<f64>,
    /// Undisturbed ([`FAST`] quantile) op wall time at the reference
    /// clock, microseconds. The compute driver replaces it with the sum
    /// of its problems' own undisturbed times.
    pub op_fast_us: f64,
    /// [`to_reference_clock`] factor of each op of the measuring thread,
    /// in the order they were recorded.
    pub op_clock: Vec<f64>,
    /// Completed ops per second in the best slice, as measured.
    pub ops_per_s: f64,
    /// Process CPU microseconds per op in the cheapest slice, as
    /// measured.
    pub cpu_us_per_op: f64,
    /// Slices that completed at least one op.
    pub slices: usize,
    /// Median sensor reading over the phase, microseconds.
    pub sensor_p50_us: f64,
    /// Slowest ÷ fastest sensor reading over the phase.
    pub sensor_spread: f64,
    /// Share of the machine's CPU time used by other processes.
    pub other_cpu_share: f64,
    /// Share of the machine's CPU time stolen by the hypervisor.
    pub steal_share: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_cuts_slices_and_counts_every_op() {
        let epoch = Instant::now();
        let length = 4 * SLICE;
        let mut r = Recorder::start(epoch, length, 1 << 12);
        let mut ops = 0usize;
        loop {
            let t = Instant::now();
            black_box(sensor_us());
            let now = r.op_done(t.elapsed());
            ops += 1;
            r.maybe_cut(now);
            if now >= length {
                break;
            }
        }
        r.close();
        // Three ops of a second connection, completed mid-phase.
        let phase = r.finish(&[(vec![1_000; 3], vec![SLICE.as_nanos() as u64 * 2; 3])]);
        assert_eq!(phase.op_us.len(), ops + 3);
        assert_eq!(phase.op_clock.len(), ops);
        assert!((2..=4).contains(&phase.slices), "{} slices", phase.slices);
        // Sibling test threads come and go, so the process-wide CPU sum
        // is not monotonic here: only its sign is checked.
        assert!(phase.ops_per_s > 0.0 && phase.cpu_us_per_op >= 0.0);
        assert!(phase.op_fast_us > 0.0 && phase.sensor_p50_us > 0.0);
        assert!(phase.sensor_spread >= 1.0);
        assert!((0.0..=1.0).contains(&phase.other_cpu_share));
    }

    #[test]
    fn a_slice_of_long_ops_waits_for_whole_ops() {
        let mut r = Recorder::start(Instant::now(), SLICE, 8);
        for i in 1..=SLICE_OPS {
            // Each "op" is longer than a slice.
            r.op_done(SLICE * 2);
            r.maybe_cut(SLICE * 2 * i as u32);
            assert_eq!(r.boundaries.len() == 2, i == SLICE_OPS, "op {i}");
        }
    }

    #[test]
    fn a_boosted_clock_is_converted_to_the_reference() {
        // Ops of 100 us; the second slice ran at a clock 1.18 times as
        // fast (the sensor read 72 where the reference is 85) and its ops
        // took 88 us.
        let base = REFERENCE_SENSOR_US;
        let boost = 85.0 / 72.0;
        let b = |t_ns, sensor_us| Boundary {
            t_ns,
            cpu_ns: 0,
            sensor_us,
        };
        let r = Recorder {
            epoch: Instant::now(),
            next_cut: SLICE,
            ops_at_cut: 0,
            boundaries: vec![
                b(0, base),
                b(1_000, base),
                b(2_000, base / boost),
                b(3_000, base / boost),
            ],
            op_ns: vec![100_000, 100_000, 88_000, 88_000],
            op_end_ns: vec![400, 800, 2_400, 2_800],
            system_before: SystemCpu::default(),
        };
        let phase = r.finish(&[]);
        assert_eq!(phase.op_us, vec![88.0, 88.0, 100.0, 100.0]);
        assert_eq!(phase.op_clock[..2], [1.0, 1.0]);
        assert!((phase.op_clock[2] - boost).abs() < 1e-12);
        // 88 us at the boosted clock are 103.9 us at the reference, so
        // the undisturbed op is one of the 100 us ones.
        assert!(
            (phase.op_fast_us - 100.0).abs() < 1e-9,
            "{}",
            phase.op_fast_us
        );
    }
}
