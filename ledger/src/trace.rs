//! In-memory spans recorded by the benchmark around each call into a
//! layer's public function.
//!
//! Spans are kept in a preallocated vector and written out only when the
//! run ends. A span names the layer call, its start and end in
//! nanoseconds since the run's epoch, the span that caused it and the op
//! it belongs to; a layer's *self time* is its span's duration minus the
//! part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Parent id of a root span.
pub(crate) const NO_PARENT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Span {
    /// `layer.call`, optionally `/kind` (e.g. `plan.run/heat2d`).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the causing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The op (round or request) this span belongs to.
    pub op: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals computed by [`Tracer::summary`].
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct NameStats {
    /// Every span's duration in microseconds, in recording order.
    pub dur_us: Vec<f64>,
    /// Summed self time (duration minus children) in nanoseconds.
    pub self_ns: u64,
    /// Summed duration in nanoseconds.
    pub total_ns: u64,
}

/// A span recorder bound to one epoch. Each thread owns its own; they
/// are merged with [`Tracer::absorb`] once the threads have joined.
pub(crate) struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder with room for `capacity` spans, so recording does not
    /// reallocate inside a timed phase.
    pub(crate) fn new(epoch: Instant, capacity: usize) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Record a finished span from two instants; returns its id for use
    /// as a `parent`.
    pub(crate) fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        op: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
            parent,
            op,
        });
        id
    }

    /// Reserve the id of a parent span whose end is not known yet;
    /// [`Tracer::close`] fills it in. Children recorded in between name
    /// the returned id as their parent.
    pub(crate) fn open(&mut self, name: &'static str, start: Instant, op: u64) -> u32 {
        self.record(name, start, start, NO_PARENT, op)
    }

    /// Set the end of a span returned by [`Tracer::open`].
    pub(crate) fn close(&mut self, id: u32, end: Instant) {
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end_ns = end.duration_since(self.epoch).as_nanos() as u64;
        }
    }

    /// Append another thread's spans, keeping its parent links valid.
    pub(crate) fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += offset;
            }
            s
        }));
    }

    /// Number of spans recorded.
    pub(crate) fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations and self times grouped by span name.
    pub(crate) fn summary(&self) -> BTreeMap<&'static str, NameStats> {
        summarize(&self.spans)
    }

    /// Write the trace as tab-separated text, one span per line, the
    /// line number (from 0, after the header) being the span's id:
    /// `name  start_ns  end_ns  parent  op`, parent `-` for a root.
    pub(crate) fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        writeln!(w, "# name\tstart_ns\tend_ns\tparent\top")?;
        for s in &self.spans {
            let parent = match s.parent {
                NO_PARENT => "-".to_owned(),
                p => p.to_string(),
            };
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, parent, s.op
            )?;
        }
        w.flush()
    }
}

/// Group spans by name. A span's self time is its duration minus the
/// union of its direct children's intervals clipped to it (children of
/// one parent are sequential here, but overlap is handled so a merged
/// multi-thread trace cannot produce negative self time).
pub(crate) fn summarize(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(list) = children.get_mut(s.parent as usize) {
            list.push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = s.start_ns;
        for &(a, b) in kids.iter() {
            let a = a.max(cursor);
            let b = b.min(s.end_ns);
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        let e = out.entry(s.name).or_default();
        e.dur_us.push(s.dur_ns() as f64 / 1e3);
        e.total_ns += s.dur_ns();
        e.self_ns += s.dur_ns() - covered;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        // round [0,100] ⊃ run/a [10,40], run/b [50,90]; run/b ⊃ inner [60,70].
        let spans = [
            span("round", 0, 100, NO_PARENT),
            span("run/a", 10, 40, 0),
            span("run/b", 50, 90, 0),
            span("inner", 60, 70, 2),
            // A second round with overlapping and overhanging children.
            span("round", 200, 300, NO_PARENT),
            span("run/a", 210, 260, 4),
            span("run/a", 250, 320, 4),
        ];
        let s = summarize(&spans);
        assert_eq!(s["round"].total_ns, 200);
        // 100 − (30 + 40) = 30, then 100 − union([210,260],[250,300]) = 10.
        assert_eq!(s["round"].self_ns, 30 + 10);
        assert_eq!(s["run/b"].self_ns, 30);
        assert_eq!(s["inner"].self_ns, 10);
        assert_eq!(s["run/a"].dur_us, vec![0.03, 0.05, 0.07]);
    }

    #[test]
    fn absorb_rebases_parent_links() {
        let epoch = Instant::now();
        let at = |ns| epoch + std::time::Duration::from_nanos(ns);
        let mut a = Tracer::new(epoch, 4);
        let root = a.open("round", at(0), 7);
        a.record("run", at(10), at(30), root, 7);
        a.close(root, at(50));
        let mut b = Tracer::new(epoch, 4);
        let root_b = b.open("round", at(100), 8);
        b.record("run", at(100), at(140), root_b, 8);
        b.close(root_b, at(150));
        a.absorb(b);
        assert_eq!(a.len(), 4);
        let s = a.summary();
        assert_eq!(s["round"].self_ns, 30 + 10);
        assert_eq!(s["run"].total_ns, 60);
    }

    #[test]
    fn trace_file_has_one_line_per_span() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch, 2);
        let root = t.open("client.run_steps", epoch, 3);
        t.close(root, epoch + std::time::Duration::from_nanos(1_500));
        t.record("plan.run/heat1d", epoch, epoch, root, 3);
        let mut text = Vec::new();
        t.write_to(&mut text).expect("writing to a Vec cannot fail");
        assert_eq!(
            String::from_utf8(text).expect("ASCII"),
            "# name\tstart_ns\tend_ns\tparent\top\n\
             client.run_steps\t0\t1500\t-\t3\n\
             plan.run/heat1d\t0\t0\t0\t3\n"
        );
    }
}
