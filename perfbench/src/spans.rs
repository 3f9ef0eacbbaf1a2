//! In-memory spans recorded around the harness's calls into each layer, and
//! the timing wrapper around the engine's instruction source.
//!
//! Spans are recorded only here, in the harness, never inside the
//! simulator.  The per-stream cost of instruction delivery is aggregated per
//! cell by [`TimedSource`] (two clock reads per `next_stream`, summed in a
//! thread-local) instead of one span per call, which would cost more than
//! the call itself.

use prestage_bpred::StreamDesc;
use prestage_workload::{DynInst, InstSource};
use std::cell::{Cell, RefCell};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

pub type SpanId = u64;

/// One timed call into a layer.  Times are [`crate::clock::now`]
/// readings; spans of one sweep cell share `cell`.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    pub cell: Option<u64>,
    pub start: u64,
    pub end: u64,
}

#[derive(Debug, Default)]
pub struct SpanLog {
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn new_id(&self) -> SpanId {
        self.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Record a finished span under a pre-allocated id (parents are
    /// allocated before their children run and recorded after them).
    /// `start` and `end` are [`crate::clock::now`] readings.
    pub fn record(
        &self,
        id: SpanId,
        parent: Option<SpanId>,
        name: &'static str,
        cell: Option<u64>,
        start: u64,
        end: u64,
    ) {
        let span = Span {
            id,
            parent,
            name,
            cell,
            start,
            end,
        };
        self.lock().push(span);
    }

    /// Every update is one `push`, so a panic elsewhere never leaves the
    /// list half-written and a poisoned lock is safe to recover.
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Self time of span `id` in nanoseconds (0 for an unknown id).
    pub fn self_time_of(&self, id: SpanId) -> u64 {
        let spans = self.spans();
        let Some(span) = spans.iter().find(|s| s.id == id) else {
            return 0;
        };
        let children: Vec<(u64, u64)> = spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.start, c.end))
            .collect();
        self_time((span.start, span.end), &children)
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"cell\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.cell.map_or("null".to_string(), |c| c.to_string()),
                s.start,
                s.end
            )?;
        }
        out.flush()
    }
}

/// A span's duration minus the part of it its children cover.  Children
/// may overlap each other (cells run on parallel workers) and are clipped
/// to the parent's interval, so covered time is counted once.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start) - covered
}

/// Every stream an engine pulled, with its instructions.
pub type Capture = Vec<(StreamDesc, Vec<DynInst>)>;

/// Aggregated `next_stream` cost of the cell running on this thread, plus
/// an optional copy of every stream the engine pulled (the kernels replay
/// it layer by layer).
#[derive(Debug, Default)]
struct Delivery {
    ns: Cell<u64>,
    streams: Cell<u64>,
    capture: RefCell<Option<Capture>>,
}

thread_local! {
    /// Pool workers run one cell at a time: the cell's source is opened
    /// (which resets this) and its result observed on the same thread.
    static DELIVERY: Delivery = Delivery::default();
}

/// Reset this thread's delivery counters for the cell about to run.
pub fn start_cell() {
    DELIVERY.with(|d| {
        d.ns.set(0);
        d.streams.set(0);
    });
}

/// `next_stream` nanoseconds and calls of this thread's cell so far.
pub fn finish_cell() -> (u64, u64) {
    DELIVERY.with(|d| (d.ns.get(), d.streams.get()))
}

/// Start copying every stream this thread's [`TimedSource`] delivers.
pub fn start_capture() {
    start_cell();
    DELIVERY.with(|d| *d.capture.borrow_mut() = Some(Vec::new()));
}

/// Stop copying and return what was captured.
pub fn take_capture() -> Capture {
    DELIVERY.with(|d| d.capture.borrow_mut().take().unwrap_or_default())
}

/// Wraps the engine's committed-path source to time each `next_stream`.
pub struct TimedSource<'a> {
    pub inner: Box<dyn InstSource + 'a>,
}

impl InstSource for TimedSource<'_> {
    fn next_stream(&mut self, out: &mut Vec<DynInst>) -> StreamDesc {
        let t0 = crate::clock::now();
        let desc = self.inner.next_stream(out);
        let ns = crate::clock::since(t0);
        DELIVERY.with(|d| {
            d.ns.set(d.ns.get() + ns);
            d.streams.set(d.streams.get() + 1);
            if let Some(cap) = d.capture.borrow_mut().as_mut() {
                cap.push((desc, out.clone()));
            }
        });
        desc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        // No children: the whole span.
        assert_eq!(self_time((0, 100), &[]), 100);
        // Disjoint children.
        assert_eq!(self_time((0, 100), &[(10, 20), (50, 80)]), 60);
        // Overlapping children (two workers) cover their union only.
        assert_eq!(self_time((0, 100), &[(10, 60), (40, 90)]), 20);
        // A child nested inside another adds nothing.
        assert_eq!(self_time((0, 100), &[(10, 90), (20, 30)]), 20);
        // Children spilling outside the parent are clipped to it.
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 40)]), 3);
        // Children wholly outside the parent do not count.
        assert_eq!(self_time((10, 20), &[(30, 40), (0, 5)]), 10);
        // Fully covered.
        assert_eq!(self_time((10, 20), &[(0, 40)]), 0);
    }

    #[test]
    fn log_computes_self_time_of_a_span() {
        let log = SpanLog::default();
        let parent = log.new_id();
        log.record(log.new_id(), Some(parent), "child", Some(0), 1_000, 3_000);
        log.record(log.new_id(), Some(parent), "child", Some(1), 2_000, 4_000);
        log.record(log.new_id(), None, "other", None, 0, 10_000);
        log.record(parent, None, "sweep", None, 0, 10_000);
        assert_eq!(log.self_time_of(parent), 7_000);
        assert_eq!(log.self_time_of(12345), 0);
    }
}
