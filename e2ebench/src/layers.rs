//! Per-layer numbers of a traced run: counter deltas read from the public
//! telemetry of SQLCM and the engine, and self times from the spans.

use sqlcm_repro::engine::Engine;
use sqlcm_repro::monitor::TelemetrySnapshot;

use crate::stats::{percentile, ratio};
use crate::trace::{self, Span};
use crate::workload::Bench;

/// Declares the counter set once: the struct, how to read it, and deltas.
macro_rules! counters {
    ($($field:ident = $read:expr;)*) => {
        /// Monotone counters sampled before and after each traced pass.
        #[derive(Debug, Default, Clone, Copy)]
        pub struct Counters {
            $(pub $field: u64,)*
        }

        impl Counters {
            pub fn read(bench: &Bench) -> Counters {
                let t = bench.sqlcm.telemetry();
                Counters { $($field: read_with($read, &bench.engine, &t),)* }
            }

            /// `self − before`, added to `acc`.
            pub fn accumulate_since(&self, before: &Counters, acc: &mut Counters) {
                $(acc.$field += self.$field.wrapping_sub(before.$field);)*
            }
        }
    };
}

fn read_with(
    f: impl Fn(&Engine, &TelemetrySnapshot) -> u64,
    e: &Engine,
    t: &TelemetrySnapshot,
) -> u64 {
    f(e, t)
}

counters! {
    events = |_e, t| t.stats.events;
    evaluations = |_e, t| t.stats.evaluations;
    fires = |_e, t| t.stats.fires;
    actions = |_e, t| t.stats.actions;
    reg_locks = |_e, t| t.dispatch.reg_lock_acquisitions;
    plan_rebuilds = |_e, t| t.dispatch.plan_rebuilds;
    vm_instructions = |_e, t| t.dispatch.vm_instructions;
    cse_hits = |_e, t| t.dispatch.cse_hits;
    hoisted_hits = |_e, t| t.dispatch.hoisted_lookup_hits;
    row_fetches = |_e, t| t.dispatch.lat_row_fetches;
    candidates = |_e, t| t.matching.candidate_rules;
    pruned = |_e, t| t.matching.rules_pruned;
    condition_ns = |_e, t| t.rules.iter().map(|r| r.condition.sum).sum();
    conditions = |_e, t| t.rules.iter().map(|r| r.condition.count).sum();
    action_ns = |_e, t| t.rules.iter().map(|r| r.action.sum).sum();
    action_count = |_e, t| t.rules.iter().map(|r| r.action.count).sum();
    lat_inserts = |_e, t| t.lats.iter().map(|l| l.inserts).sum();
    lat_evictions = |_e, t| t.lats.iter().map(|l| l.evictions).sum();
    lat_contentions = |_e, t| t.lats.iter().map(|l| l.lock_contentions).sum();
    buffer_hits = |e, _t| e.buffer_stats().hits;
    buffer_misses = |e, _t| e.buffer_stats().misses;
    plan_hits = |e, _t| e.plan_cache_stats().hits;
    plan_misses = |e, _t| e.plan_cache_stats().misses;
    lock_waits = |e, _t| e.lock_stats().waits;
}

/// Span totals of the traced passes, by layer.
#[derive(Debug, Default)]
pub struct SpanTotals {
    pub queries: u64,
    pub run_ns: u64,
    pub run_self_ns: u64,
    pub execute_ns: u64,
    pub engine_self_ns: u64,
    pub on_event_ns: u64,
    pub on_event_self_ns: u64,
    /// Every `monitor.on_event` duration, for exact percentiles.
    pub on_event_samples: Vec<u64>,
}

impl SpanTotals {
    pub fn add(&mut self, spans: &[Span]) {
        let self_ns = trace::self_times(spans);
        for s in spans {
            let own = self_ns[&s.id];
            match s.name {
                trace::RUN => {
                    self.run_ns += s.duration_ns();
                    self.run_self_ns += own;
                }
                trace::EXECUTE => {
                    self.queries += 1;
                    self.execute_ns += s.duration_ns();
                    self.engine_self_ns += own;
                }
                trace::ON_EVENT => {
                    self.on_event_ns += s.duration_ns();
                    self.on_event_self_ns += own;
                    self.on_event_samples.push(s.duration_ns());
                }
                other => unreachable!("unknown span {other}"),
            }
        }
    }

    /// The self-time table. Engine and monitor self time add up to the
    /// traced `engine.execute` total; with the client loop's own self time they
    /// add up to `workload.run`.
    pub fn table(&self) -> String {
        let q = self.queries.max(1) as f64;
        let row = |layer: &str, span: &str, ns: u64| {
            format!(
                "  {layer:<10} {span:<18} {:>12.3} {:>12.3} {:>8.2}%\n",
                ns as f64 / 1e6,
                ns as f64 / q / 1e3,
                100.0 * ratio(ns as f64, self.run_ns as f64)
            )
        };
        let mut out = format!(
            "  {:<10} {:<18} {:>12} {:>12} {:>9}\n",
            "layer", "span", "self ms", "us/query", "share"
        );
        out += &row("workload", trace::RUN, self.run_self_ns);
        out += &row("engine", trace::EXECUTE, self.engine_self_ns);
        out += &row("monitor", trace::ON_EVENT, self.on_event_self_ns);
        let layers = self.engine_self_ns + self.on_event_self_ns;
        out += &format!(
            "  reconcile: engine + monitor self = {:.3} ms; traced engine.execute total = {:.3} ms \
             (diff {} ns); + workload self = {:.3} ms vs workload.run {:.3} ms\n",
            layers as f64 / 1e6,
            self.execute_ns as f64 / 1e6,
            layers as i128 - self.execute_ns as i128,
            (layers + self.run_self_ns) as f64 / 1e6,
            self.run_ns as f64 / 1e6
        );
        out
    }

    /// Whether the layer self times add up to the span totals they split.
    pub fn reconciles(&self) -> bool {
        self.engine_self_ns + self.on_event_self_ns == self.execute_ns
            && self.run_self_ns + self.execute_ns == self.run_ns
    }

    pub fn on_event_percentile_us(&mut self, p: f64) -> f64 {
        self.on_event_samples.sort_unstable();
        percentile(&self.on_event_samples, p).unwrap_or(0) as f64 / 1e3
    }
}
