//! The benchmark's own spans, recorded around its calls into each layer.
//!
//! A traced pass builds the tree `workload.run` → `engine.execute` (one per
//! host query, each with its own request id) → `monitor.on_event` (one per
//! event SQLCM receives). The last two boundaries need no program change:
//! the client loop wraps `Session::execute_params`, and [`Forwarder`] stands
//! in for SQLCM on the engine's probe stream and wraps `Sqlcm::inject_event`.
//! Spans go to a thread-local buffer and are drained after the pass.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use sqlcm_repro::common::{EngineEvent, ProbeKind, ProbeMask};
use sqlcm_repro::engine::instrument::Instrumentation;
use sqlcm_repro::monitor::Sqlcm;

pub const RUN: &str = "workload.run";
pub const EXECUTE: &str = "engine.execute";
pub const ON_EVENT: &str = "monitor.on_event";

/// Span id 0 means "no parent".
pub const NO_SPAN: u64 = 0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static SPANS: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
    /// (open span id, request id) new child spans attach to.
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((NO_SPAN, 0)) };
}

/// Time origin shared by every span of a run.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn new() -> Clock {
        Clock(Instant::now())
    }

    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// An open span on the current thread; [`Open::close`] records it and makes
/// its parent current again.
pub struct Open {
    id: u64,
    /// The thread's current (span, request) before this one opened.
    prev: (u64, u64),
    request: u64,
    name: &'static str,
    start_ns: u64,
}

/// Open a span as a child of the current one. A `new_request` span starts a
/// request (its id becomes the request id); any other inherits its parent's.
pub fn open(clock: &Clock, name: &'static str, new_request: bool) -> Open {
    let prev = CURRENT.get();
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let request = if new_request { id } else { prev.1 };
    CURRENT.set((id, request));
    Open {
        id,
        prev,
        request,
        name,
        start_ns: clock.now_ns(),
    }
}

impl Open {
    pub fn close(self, clock: &Clock) {
        let end_ns = clock.now_ns();
        CURRENT.set(self.prev);
        record(Span {
            id: self.id,
            parent: self.prev.0,
            request: self.request,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
        });
    }
}

fn record(span: Span) {
    SPANS.with_borrow_mut(|s| s.push(span));
}

/// Take every span recorded on this thread.
pub fn drain() -> Vec<Span> {
    SPANS.with_borrow_mut(std::mem::take)
}

/// Stands in for SQLCM on the engine's probe stream during a traced pass:
/// each event goes to `Sqlcm::inject_event` inside a `monitor.on_event` span.
///
/// `wants` answers from the interest mask read off the engine while SQLCM
/// itself was attached, so the engine assembles exactly the events the real
/// path assembles and no others.
pub struct Forwarder {
    sqlcm: Arc<Sqlcm>,
    mask: ProbeMask,
    clock: Clock,
}

pub const FORWARDER_NAME: &str = "e2ebench.forward";

impl Forwarder {
    pub fn new(sqlcm: Arc<Sqlcm>, mask: ProbeMask, clock: Clock) -> Forwarder {
        Forwarder { sqlcm, mask, clock }
    }
}

impl Instrumentation for Forwarder {
    fn on_event(&self, event: &EngineEvent) {
        let (parent, request) = CURRENT.get();
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.clock.now_ns();
        self.sqlcm.inject_event(event);
        let end_ns = self.clock.now_ns();
        record(Span {
            id,
            parent,
            request,
            name: ON_EVENT,
            start_ns,
            end_ns,
        });
    }

    fn wants(&self, kind: ProbeKind) -> bool {
        self.mask.contains(kind)
    }

    fn name(&self) -> &str {
        FORWARDER_NAME
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its children cover (overlapping children are counted once; a child that
/// outlives its parent is clipped).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != NO_SPAN) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(s.start_ns, s.end_ns, c));
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[start, end)`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Chrome trace-event JSON ("X" complete events, µs), loadable in
/// `chrome://tracing` or Perfetto. Ids, parents and request ids go in `args`.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"request\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.id,
            s.parent,
            s.request
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: EXECUTE,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) ⊃ a [10,40) ⊃ c [20,25); root ⊃ b [50,70).
        let spans = [
            span(1, NO_SPAN, 0, 100),
            span(2, 1, 10, 40),
            span(3, 2, 20, 25),
            span(4, 1, 50, 70),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 30 - 20, "only direct children count");
        assert_eq!(st[&2], 30 - 5);
        assert_eq!(st[&3], 5);
        assert_eq!(st[&4], 20);
        // Layer self times sum back to the root's duration.
        assert_eq!(st.values().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_counts_overlap_once_and_clips() {
        let spans = [
            span(1, NO_SPAN, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 60),  // overlaps 2 by 10
            span(4, 1, 90, 120), // outlives the parent by 20
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 50 - 10);
    }

    #[test]
    fn open_close_links_parent_and_request() {
        let clock = Clock::new();
        drain();
        let run = open(&clock, RUN, false);
        let q = open(&clock, EXECUTE, true);
        let inner = open(&clock, ON_EVENT, false);
        inner.close(&clock);
        q.close(&clock);
        run.close(&clock);
        let spans = drain();
        assert_eq!(spans.len(), 3);
        let (ev, ex, rn) = (spans[0], spans[1], spans[2]);
        assert_eq!(ev.parent, ex.id);
        assert_eq!(ex.request, ex.id, "a request span names its request");
        assert_eq!(ev.request, ex.id, "children inherit the request id");
        assert_eq!(ex.parent, rn.id);
        assert_eq!(rn.parent, NO_SPAN);
        assert!(chrome_json(&spans).contains("\"name\":\"monitor.on_event\""));
    }
}
