//! End-to-end monitoring-overhead benchmark for the SQLCM reproduction.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <tenant_oltp|topk_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times closed-loop host workloads through the real engine with
//! SQLCM attached at its shipped defaults, and prints the end-to-end metrics.
//! `--trace 1` is a separate run that records the benchmark's own spans
//! around each layer and prints the per-layer metrics. Either way the last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. WORKLOADS.md explains the workloads and metrics.

mod layers;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sqlcm_repro::common::ProbeMask;
use sqlcm_repro::engine::Session;

use layers::{Counters, SpanTotals};
use stats::{median, percentile, ratio};
use trace::{Clock, Forwarder, Span};
use workload::{Bench, Client, Ran, Workload};

/// An end-to-end run is split over this many processes, run one after the
/// other, each with its own set-up; `setup_s` and `peak_rss_mib` are their
/// medians and the other metrics are medians over the passes and pairs of
/// all of them. Heap layout and hash seeds differ per process, and a second
/// set-up in one process leaves the first engine's freed heap behind.
const PROCESSES: usize = 3;
/// Warm-up length; it runs at least one pass of each kind. On a 2-core Xeon
/// VM the first monitored pass of a workload whose every query inserts into
/// 100 evicting LATs ran about 50% slower than later ones.
const WARM_UP: Duration = Duration::from_secs(1);
/// Timed pass pairs (or traced cycles) run even when `--seconds` is short.
const MIN_ROUNDS: usize = 3;

const USAGE: &str =
    "usage: e2ebench --workload <tenant_oltp|topk_mixed> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set on the processes an end-to-end run starts.
    child: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut child = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or(bad("workload"))?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or(bad("seconds"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                })
            }
            "--child" => child = value == "1",
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        child,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("e2ebench: {e}");
        std::process::exit(1);
    }
}

/// One pass of the client over its operations.
#[derive(Default)]
struct Pass {
    elapsed: Duration,
    queries: u64,
    /// Per-query wall time in ns; a failed query reads `u64::MAX`, a miss.
    latencies: Vec<u64>,
    errors: u64,
    wrong_rows: u64,
    first_error: Option<String>,
    spans: Vec<Span>,
}

impl Pass {
    /// Time the client spent inside `execute_params`.
    fn busy_ns(&self) -> u64 {
        self.latencies.iter().filter(|&&ns| ns != u64::MAX).sum()
    }
}

/// Run the client's operations once, closed loop: it issues its next query
/// when the previous one returns.
fn run_pass(client: &mut Client, sessions: &mut [Session], clock: Option<&Clock>) -> Pass {
    let start = Instant::now();
    let mut out = Pass {
        latencies: Vec::with_capacity(client.ops.len()),
        ..Pass::default()
    };
    let run_span = clock.map(|c| trace::open(c, trace::RUN, false));
    for op in client.ops.iter_mut() {
        let session = &mut sessions[op.session];
        let span = clock.map(|c| trace::open(c, trace::EXECUTE, true));
        let t0 = Instant::now();
        let result = session.execute_params(&op.query.sql, &op.query.params);
        let ns = t0.elapsed().as_nanos() as u64;
        if let (Some(span), Some(c)) = (span, clock) {
            span.close(c);
        }
        out.queries += 1;
        match result {
            Ok(r) if op.expect.check(r.rows.len(), r.rows_affected) => out.latencies.push(ns),
            Ok(r) => {
                out.wrong_rows += 1;
                out.latencies.push(u64::MAX);
                out.first_error.get_or_insert_with(|| {
                    format!(
                        "{} returned {} rows / {} affected, expected {:?}",
                        op.query.sql,
                        r.rows.len(),
                        r.rows_affected,
                        op.expect
                    )
                });
            }
            Err(e) => {
                out.errors += 1;
                out.latencies.push(u64::MAX);
                out.first_error
                    .get_or_insert_with(|| format!("{}: {e}", op.query.sql));
            }
        }
    }
    if let (Some(span), Some(c)) = (run_span, clock) {
        span.close(c);
        out.spans = trace::drain();
    }
    out.elapsed = start.elapsed();
    out
}

/// Which monitor the engine delivers events to during a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Unmonitored,
    /// SQLCM attached itself: the path a user runs.
    Monitored,
    /// SQLCM reached through the span-recording [`Forwarder`].
    Traced,
}

/// The engine, its sessions, and the bookkeeping every pass feeds.
struct Harness {
    workload: Workload,
    bench: Bench,
    client: Client,
    sessions: Vec<Session>,
    forwarder: Arc<Forwarder>,
    clock: Clock,
    /// Interest mask read off the engine while SQLCM was attached.
    sqlcm_mask: ProbeMask,
    attempted: u64,
    query_errors: u64,
    wrong_rows: u64,
    first_error: Option<String>,
    monitored_passes: u64,
    violations: Vec<String>,
}

impl Harness {
    fn new(workload: Workload, bench: Bench, seed: u64) -> Harness {
        let client = workload::generate(workload, &bench.db, seed);
        let sessions = client
            .users
            .iter()
            .map(|u| bench.engine.connect(u, "e2ebench"))
            .collect();
        let sqlcm_mask = bench.engine.handle().monitors.interest();
        let clock = Clock::new();
        let forwarder = Arc::new(Forwarder::new(bench.sqlcm.clone(), sqlcm_mask, clock));
        Harness {
            workload,
            bench,
            client,
            sessions,
            forwarder,
            clock,
            sqlcm_mask,
            attempted: 0,
            query_errors: 0,
            wrong_rows: 0,
            first_error: None,
            monitored_passes: 0,
            violations: Vec::new(),
        }
    }

    /// Run one pass in `mode`. SQLCM is attached between passes and during
    /// monitored ones; it is swapped out only around the pass that needs it.
    fn pass(&mut self, mode: Mode) -> Pass {
        let engine = &self.bench.engine;
        let sqlcm = &self.bench.sqlcm;
        if mode != Mode::Monitored {
            sqlcm.detach(engine);
        }
        if mode == Mode::Traced {
            engine.attach_monitor(self.forwarder.clone());
            let mask = engine.handle().monitors.interest();
            if mask != self.sqlcm_mask {
                self.violations.push(format!(
                    "forwarder interest {mask:?} differs from SQLCM's {:?}",
                    self.sqlcm_mask
                ));
            }
        }
        let clock = (mode == Mode::Traced).then_some(&self.clock);
        let pass = run_pass(&mut self.client, &mut self.sessions, clock);
        if mode == Mode::Traced {
            engine.detach_monitor(trace::FORWARDER_NAME);
        }
        if mode != Mode::Monitored {
            sqlcm.reattach(engine);
        }
        if mode != Mode::Unmonitored {
            self.monitored_passes += 1;
        }
        self.attempted += pass.queries;
        self.query_errors += pass.errors;
        self.wrong_rows += pass.wrong_rows;
        if self.first_error.is_none() {
            self.first_error = pass.first_error.clone();
        }
        pass
    }

    /// Untimed pairs of unmonitored and monitored passes, for at least
    /// [`WARM_UP`]: fills the engine's caches, the LATs and SQLCM's scratch
    /// pools before anything is timed.
    fn warm_up(&mut self) {
        let start = Instant::now();
        loop {
            self.pass(Mode::Unmonitored);
            self.pass(Mode::Monitored);
            if start.elapsed() >= WARM_UP {
                break;
            }
        }
    }

    /// Check the monitoring output and count failed operations.
    fn finish(&mut self) -> (bool, u64) {
        let ran = Ran {
            client: &self.client,
            monitored_passes: self.monitored_passes,
        };
        self.violations
            .extend(workload::check(self.workload, &self.bench, &ran));
        let sqlcm = &self.bench.sqlcm;
        let failed = self.query_errors
            + self.wrong_rows
            + sqlcm.stats().action_errors
            + sqlcm.rule_errors().len() as u64
            + sqlcm.telemetry().containment.breaker_trips
            + sqlcm.total_action_losses();
        if let Some(e) = &self.first_error {
            self.violations.push(format!("first failed query: {e}"));
        }
        for v in &self.violations {
            println!("VIOLATION: {v}");
        }
        (failed == 0 && self.violations.is_empty(), failed)
    }
}

/// Metrics in output order: (name, value, unit).
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn run(args: &Args) -> Result<(), String> {
    if args.child {
        return child_run(args);
    }
    let w = args.workload;
    println!(
        "e2ebench workload={} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("record: {}", run_record());
    println!("params: {}", w.describe());
    let (metrics, correct, attempted, failed) = if args.trace {
        let (bench, _) = timed_setup(args)?;
        let mut h = Harness::new(w, bench, args.seed);
        h.warm_up();
        let metrics = traced_run(&mut h, Duration::from_secs(args.seconds));
        let (correct, failed) = h.finish();
        (metrics, correct, h.attempted, failed)
    } else {
        let pooled = run_processes(args)?;
        let correct = pooled.correct;
        let (attempted, failed) = (pooled.attempted, pooled.failed);
        (pooled.metrics(), correct, attempted, failed)
    };
    println!(
        "run: attempted {attempted} failed {failed} failed_frac {}",
        ratio(failed as f64, attempted as f64)
    );
    let nonfinite: Vec<&str> = metrics
        .iter()
        .filter(|m| !m.1.is_finite())
        .map(|m| m.0)
        .collect();
    if !nonfinite.is_empty() {
        println!("VIOLATION: non-finite metrics {nonfinite:?}");
    }
    let correct = correct && nonfinite.is_empty();
    println!("{}", result_json(correct, attempted, failed, &metrics));
    Ok(())
}

fn timed_setup(args: &Args) -> Result<(Bench, f64), String> {
    let t = Instant::now();
    let bench = workload::setup(args.workload).map_err(|e| format!("setup: {e}"))?;
    Ok((bench, t.elapsed().as_secs_f64()))
}

/// What one end-to-end process measured, or several pooled.
#[derive(Debug, Default)]
struct Report {
    setup_s: Vec<f64>,
    peak_rss_mib: Vec<f64>,
    /// Monitored passes: queries per second of each.
    pass_qps: Vec<f64>,
    /// Monitored passes: exact median and p99 query latency of each, in µs
    /// (a failed query is a miss, slower than any sample).
    pass_p50_us: Vec<f64>,
    pass_p99_us: Vec<f64>,
    /// Monitored ÷ unmonitored pass time of each pair.
    ratios: Vec<f64>,
    /// Monitored query samples behind the percentiles.
    samples: u64,
    attempted: u64,
    failed: u64,
    correct: bool,
    processes: usize,
}

/// Prefix of the lines a child process reports its measurements on.
const DATA: &str = "@data ";

impl Report {
    /// Record one timed monitored pass.
    fn add_monitored(&mut self, pass: &Pass) {
        self.pass_qps
            .push(pass.queries as f64 / pass.elapsed.as_secs_f64());
        let mut sorted = pass.latencies.clone();
        sorted.sort_unstable();
        let us = |p| percentile(&sorted, p).unwrap_or(u64::MAX) as f64 / 1e3;
        self.pass_p50_us.push(us(50.0));
        self.pass_p99_us.push(us(99.0));
        self.samples += sorted.len() as u64;
    }

    /// The child's report as `@data <field> <values…>` lines.
    fn to_lines(&self) -> String {
        fn line<T: std::fmt::Display>(field: &str, values: &[T]) -> String {
            let mut l = format!("{DATA}{field}");
            for v in values {
                let _ = write!(l, " {v}");
            }
            l + "\n"
        }
        line("setup_s", &self.setup_s)
            + &line("peak_rss_mib", &self.peak_rss_mib)
            + &line("pass_qps", &self.pass_qps)
            + &line("pass_p50_us", &self.pass_p50_us)
            + &line("pass_p99_us", &self.pass_p99_us)
            + &line("ratios", &self.ratios)
            + &line(
                "outcome",
                &[
                    self.samples,
                    self.attempted,
                    self.failed,
                    u64::from(self.correct),
                ],
            )
    }

    /// Pool one `@data` line into this report.
    fn absorb(&mut self, line: &str) -> Result<(), String> {
        let mut words = line.split_whitespace();
        let field = words.next().unwrap_or_default();
        let bad = || format!("bad data line: {line}");
        let floats = |w: std::str::SplitWhitespace| -> Result<Vec<f64>, String> {
            w.map(|v| v.parse().map_err(|_| bad())).collect()
        };
        match field {
            "setup_s" => self.setup_s.extend(floats(words)?),
            "peak_rss_mib" => self.peak_rss_mib.extend(floats(words)?),
            "pass_qps" => self.pass_qps.extend(floats(words)?),
            "pass_p50_us" => self.pass_p50_us.extend(floats(words)?),
            "pass_p99_us" => self.pass_p99_us.extend(floats(words)?),
            "ratios" => self.ratios.extend(floats(words)?),
            "outcome" => {
                let v: Vec<u64> = words
                    .map(|v| v.parse().map_err(|_| bad()))
                    .collect::<Result<_, _>>()?;
                let [samples, attempted, failed, correct] = v[..] else {
                    return Err(bad());
                };
                self.samples += samples;
                self.attempted += attempted;
                self.failed += failed;
                self.correct = (self.processes == 0 || self.correct) && correct == 1;
                self.processes += 1;
            }
            _ => return Err(bad()),
        }
        Ok(())
    }

    fn metrics(&self) -> Metrics {
        println!(
            "timed: {} processes, {} pairs, {} monitored passes, {} monitored query samples",
            self.processes,
            self.ratios.len(),
            self.pass_qps.len(),
            self.samples,
        );
        let slowdown = median(&self.ratios);
        println!("overhead % = {:.2}", (slowdown - 1.0) * 100.0);
        vec![
            ("qps", median(&self.pass_qps), "queries/s"),
            ("query_p50_us", median(&self.pass_p50_us), "us"),
            ("query_p99_us", median(&self.pass_p99_us), "us"),
            ("slowdown", slowdown, "ratio"),
            ("setup_s", median(&self.setup_s), "s"),
            ("peak_rss_mib", median(&self.peak_rss_mib), "MiB"),
        ]
    }
}

/// Run the end-to-end measurement as [`PROCESSES`] child processes, one
/// after the other, and pool what they report.
fn run_processes(args: &Args) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut pooled = Report::default();
    for k in 0..PROCESSES {
        let out = std::process::Command::new(&exe)
            .args(["--workload", args.workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", "0", "--child", "1"])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("process {k}: {e}"))?;
        if !out.status.success() {
            return Err(format!("process {k} failed: {}", out.status));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        for line in stdout.lines() {
            match line.strip_prefix(DATA) {
                Some(data) => pooled.absorb(data)?,
                None => println!("[process {k}] {line}"),
            }
        }
        if pooled.processes != k + 1 {
            return Err(format!("process {k} reported no outcome"));
        }
    }
    Ok(pooled)
}

/// One end-to-end process: set up, warm up, then monitored and unmonitored
/// passes of the same queries, back to back, alternating which goes first,
/// for its share of `--seconds`.
fn child_run(args: &Args) -> Result<(), String> {
    let (bench, setup_s) = timed_setup(args)?;
    let mut h = Harness::new(args.workload, bench, args.seed);
    let per_pass = h.client.ops.len();
    println!(
        "{per_pass} queries per pass; tail percentile with >= {} samples beyond: p{:?}",
        stats::MIN_BEYOND,
        stats::tail_percentile(per_pass)
    );
    if stats::beyond(per_pass, 99.0) < stats::MIN_BEYOND {
        h.violations.push(format!(
            "{per_pass} queries per pass leave fewer than {} beyond p99",
            stats::MIN_BEYOND
        ));
    }
    h.warm_up();
    let budget = Duration::from_secs_f64(args.seconds as f64 / PROCESSES as f64);
    let start = Instant::now();
    let mut report = Report {
        setup_s: vec![setup_s],
        ..Report::default()
    };
    while report.ratios.len() < MIN_ROUNDS || start.elapsed() < budget {
        let order = if report.ratios.len().is_multiple_of(2) {
            [Mode::Monitored, Mode::Unmonitored]
        } else {
            [Mode::Unmonitored, Mode::Monitored]
        };
        let mut secs = [0.0; 2];
        for mode in order {
            let pass = h.pass(mode);
            secs[usize::from(mode == Mode::Unmonitored)] = pass.elapsed.as_secs_f64();
            if mode == Mode::Monitored {
                report.add_monitored(&pass);
            }
        }
        report.ratios.push(secs[0] / secs[1]);
    }
    println!(
        "{} pairs; slowdown per pair {:.3?}; monitored pass qps {:.0?}, p50 us {:.1?}, p99 us \
         {:.1?}",
        report.ratios.len(),
        report.ratios,
        report.pass_qps,
        report.pass_p50_us,
        report.pass_p99_us
    );
    (report.correct, report.failed) = h.finish();
    report.attempted = h.attempted;
    report.peak_rss_mib.push(peak_rss_mib()?);
    print!("{}", report.to_lines());
    Ok(())
}

/// The traced run: cycles of an untraced monitored pass, a traced pass and
/// an unmonitored pass. Counters are read around the traced passes only.
fn traced_run(h: &mut Harness, budget: Duration) -> Metrics {
    let start = Instant::now();
    let mut d = Counters::default();
    let mut spans = SpanTotals::default();
    // Wall time of the passes, for qps; client busy time, to set against
    // the spans.
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let (mut untraced_busy, mut unmon_busy) = (0u64, 0u64);
    let (mut untraced_q, mut traced_q) = (0u64, 0u64);
    let mut last_spans = Vec::new();
    let mut cycles = 0;
    while cycles < MIN_ROUNDS || start.elapsed() < budget {
        let p = h.pass(Mode::Monitored);
        untraced_s += p.elapsed.as_secs_f64();
        untraced_busy += p.busy_ns();
        untraced_q += p.queries;
        let before = Counters::read(&h.bench);
        let p = h.pass(Mode::Traced);
        Counters::read(&h.bench).accumulate_since(&before, &mut d);
        traced_s += p.elapsed.as_secs_f64();
        traced_q += p.queries;
        spans.add(&p.spans);
        last_spans = p.spans;
        unmon_busy += h.pass(Mode::Unmonitored).busy_ns();
        cycles += 1;
    }
    if let Err(e) = export_spans(h.workload, &last_spans) {
        h.violations.push(format!("span export failed: {e}"));
    }
    println!("traced: {cycles} cycles, {traced_q} traced queries");
    print!("{}", spans.table());
    if !spans.reconciles() {
        h.violations
            .push("layer self times do not add up to the span totals".to_string());
    }
    let q = traced_q as f64;
    let ev = d.events as f64;
    let lat_kib = h
        .bench
        .sqlcm
        .telemetry()
        .lats
        .iter()
        .map(|l| l.memory_bytes)
        .sum::<u64>() as f64
        / 1024.0;
    let trace_overhead = ratio(untraced_q as f64, untraced_s) / ratio(q, traced_s);
    println!("trace.overhead = {trace_overhead}");
    vec![
        (
            "engine.self_us_per_query",
            spans.engine_self_ns as f64 / q / 1e3,
            "us",
        ),
        (
            "engine.unmonitored_us_per_query",
            unmon_busy as f64 / 1e3 / untraced_q as f64,
            "us",
        ),
        (
            "engine.plan_cache_hit_ratio",
            ratio(d.plan_hits as f64, (d.plan_hits + d.plan_misses) as f64),
            "ratio",
        ),
        (
            "engine.lock_waits_per_query",
            d.lock_waits as f64 / q,
            "waits/query",
        ),
        (
            "storage.pages_per_query",
            (d.buffer_hits + d.buffer_misses) as f64 / q,
            "pages/query",
        ),
        (
            "storage.buffer_hit_ratio",
            ratio(
                d.buffer_hits as f64,
                (d.buffer_hits + d.buffer_misses) as f64,
            ),
            "ratio",
        ),
        ("instrument.events_per_query", ev / q, "events/query"),
        (
            "monitor.us_per_query",
            spans.on_event_ns as f64 / q / 1e3,
            "us",
        ),
        (
            "monitor.delta_us_per_query",
            (untraced_busy as f64 - unmon_busy as f64) / 1e3 / untraced_q as f64,
            "us",
        ),
        (
            "monitor.on_event_p50_us",
            spans.on_event_percentile_us(50.0),
            "us",
        ),
        (
            "monitor.on_event_p99_us",
            spans.on_event_percentile_us(99.0),
            "us",
        ),
        (
            "monitor.share",
            ratio(spans.on_event_ns as f64, spans.execute_ns as f64),
            "ratio",
        ),
        (
            "monitor.reg_locks_per_event",
            ratio(d.reg_locks as f64, ev),
            "locks/event",
        ),
        ("monitor.plan_rebuilds", d.plan_rebuilds as f64, "count"),
        (
            "guard.candidates_per_event",
            ratio(d.candidates as f64, ev),
            "rules/event",
        ),
        (
            "guard.pruned_per_event",
            ratio(d.pruned as f64, ev),
            "rules/event",
        ),
        (
            "guard.useful_ratio",
            ratio(
                d.fires as f64,
                d.evaluations.saturating_sub(d.pruned) as f64,
            ),
            "ratio",
        ),
        (
            "vm.instructions_per_event",
            ratio(d.vm_instructions as f64, ev),
            "instr/event",
        ),
        (
            "vm.cse_hits_per_event",
            ratio(d.cse_hits as f64, ev),
            "hits/event",
        ),
        (
            "vm.condition_ns",
            ratio(d.condition_ns as f64, d.conditions as f64),
            "ns",
        ),
        (
            "lat.inserts_per_event",
            ratio(d.lat_inserts as f64, ev),
            "inserts/event",
        ),
        (
            "lat.evictions_per_insert",
            ratio(d.lat_evictions as f64, d.lat_inserts as f64),
            "evictions/insert",
        ),
        (
            "lat.row_fetches_per_event",
            ratio(d.row_fetches as f64, ev),
            "fetches/event",
        ),
        (
            "lat.hoisted_hits_per_event",
            ratio(d.hoisted_hits as f64, ev),
            "hits/event",
        ),
        ("lat.memory_kib", lat_kib, "KiB"),
        ("lat.lock_contentions", d.lat_contentions as f64, "count"),
        (
            "actions.per_event",
            ratio(d.actions as f64, ev),
            "actions/event",
        ),
        (
            "actions.action_ns",
            ratio(d.action_ns as f64, d.action_count as f64),
            "ns",
        ),
        ("trace.overhead", trace_overhead, "ratio"),
    ]
}

/// Write one traced pass's spans as Chrome trace-event JSON under `out/`.
fn export_spans(w: Workload, spans: &[Span]) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}.json", w.name()));
    std::fs::write(&path, trace::chrome_json(spans))?;
    println!(
        "spans: {} spans of the last traced pass -> {}",
        spans.len(),
        path.display()
    );
    Ok(())
}

/// The machine and build this result came from.
fn run_record() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "rev={} nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\"",
        git_revision(),
        env!("E2E_RUSTC_VERSION")
    )
}

/// HEAD of the repository around the benchmark, read from `.git` directly;
/// "unknown" in a checkout without git metadata.
fn git_revision() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &str| std::fs::read_to_string(git.join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|r| r.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Process high-water resident memory (VmHWM) in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut m = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            m,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{m}}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlcm_repro::common::ProbeKind;
    use sqlcm_repro::monitor::{Action, Rule, RuleEvent, Sqlcm};

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload tenant_oltp --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::TenantOltp);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
        assert!(args("--workload nope --seed 7 --seconds 10 --trace 0").is_err());
        assert!(args("--workload topk_mixed --seed 7 --seconds 0 --trace 0").is_err());
        assert!(args("--workload topk_mixed --seed 7 --seconds 1 --trace 2").is_err());
        assert!(args("--workload topk_mixed --seed 7 --seconds 1").is_err());
    }

    #[test]
    fn forwarder_interest_equals_sqlcm_interest() {
        let engine = sqlcm_repro::engine::Engine::in_memory();
        let sqlcm = Arc::new(Sqlcm::attach(&engine));
        sqlcm
            .add_rule(
                Rule::new("blocked")
                    .on(RuleEvent::QueryBlocked)
                    .then(Action::send_mail("dba", "blocked")),
            )
            .unwrap();
        sqlcm
            .add_rule(Rule::new("commits").on(RuleEvent::QueryCommit))
            .unwrap();
        let sqlcm_mask = engine.handle().monitors.interest();
        assert!(sqlcm_mask.contains(ProbeKind::QueryCommit));
        assert!(!sqlcm_mask.contains(ProbeKind::QueryStart));

        sqlcm.detach(&engine);
        assert!(engine.handle().monitors.interest().is_empty());
        engine.attach_monitor(Arc::new(Forwarder::new(
            sqlcm.clone(),
            sqlcm_mask,
            Clock::new(),
        )));
        assert_eq!(engine.handle().monitors.interest(), sqlcm_mask);

        // Events reach SQLCM through the forwarder, inside on_event spans.
        trace::drain();
        engine
            .execute_batch("CREATE TABLE t (id INT PRIMARY KEY)")
            .unwrap();
        let mut session = engine.connect("u", "a");
        session.execute("SELECT id FROM t").unwrap();
        assert_eq!(sqlcm.stats().events, 1);
        assert!(trace::drain().iter().all(|s| s.name == trace::ON_EVENT));
    }

    #[test]
    fn child_reports_pool_across_processes() {
        let mut child = Report {
            setup_s: vec![1.5],
            peak_rss_mib: vec![80.25],
            ratios: vec![1.25, 1.5],
            attempted: 10,
            correct: true,
            ..Report::default()
        };
        child.add_monitored(&Pass {
            elapsed: Duration::from_millis(500),
            queries: 4,
            latencies: vec![4_000, 1_000, u64::MAX, 2_000],
            ..Pass::default()
        });
        assert_eq!(child.pass_qps, vec![8.0]);
        assert_eq!(child.pass_p50_us, vec![2.0]);
        assert_eq!(
            child.pass_p99_us,
            vec![u64::MAX as f64 / 1e3],
            "a failed query is a miss"
        );
        let mut pooled = Report::default();
        for _ in 0..2 {
            for line in child.to_lines().lines() {
                pooled.absorb(line.strip_prefix(DATA).unwrap()).unwrap();
            }
        }
        assert_eq!(pooled.processes, 2);
        assert_eq!((pooled.attempted, pooled.samples), (20, 8));
        assert!(pooled.correct);
        assert_eq!(pooled.pass_p50_us, vec![2.0, 2.0]);
        assert_eq!(pooled.ratios, vec![1.25, 1.5, 1.25, 1.5]);
        let names: Vec<&str> = pooled.metrics().iter().map(|m| m.0).collect();
        assert_eq!(
            names,
            [
                "qps",
                "query_p50_us",
                "query_p99_us",
                "slowdown",
                "setup_s",
                "peak_rss_mib"
            ]
        );
        assert!(pooled.absorb("outcome 0 1 0 0").is_ok());
        assert!(
            !pooled.correct,
            "one incorrect process makes the run incorrect"
        );
        assert!(pooled.absorb("ratios x").is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(
            true,
            3,
            0,
            &vec![("qps", 1.5, "queries/s"), ("x", f64::NAN, "s")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"qps\": \
             {\"value\": 1.5, \"unit\": \"queries/s\"}, \"x\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
    }
}
