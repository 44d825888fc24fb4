//! The four workloads: set-up repeats, measured windows, the traced run,
//! and the checks that count operations as attempted and failed.

use crate::host::{self, Allocs};
use crate::layers::{self, LayerNs};
use crate::setup::{self, SetupTimes};
use crate::spans::Spans;
use crate::stats::Samples;
use babelfish::capture::{Record, TraceReader};
use babelfish::containers::{BringupProfile, Container};
use babelfish::experiment::{self, CaptureApp, ExperimentConfig};
use babelfish::replay::{self, ReplayOptions};
use babelfish::sim::CaptureSink;
use babelfish::types::{AccessKind, CoreId, Cycles, Pid, VirtAddr};
use babelfish::workloads::{FunctionWorkload, Op, ServingVariant, Workload as _};
use babelfish::{Machine, Mode};
use bf_telemetry::Snapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServePaper,
    ServeResident,
    FaasChurn,
    ReplayMongo,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServePaper,
        Workload::ServeResident,
        Workload::FaasChurn,
        Workload::ReplayMongo,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServePaper => "serve-mongodb-paper",
            Workload::ServeResident => "serve-resident",
            Workload::FaasChurn => "faas-churn",
            Workload::ReplayMongo => "replay-mongodb",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub toy: bool,
}

/// Sizes of one workload.
struct Params {
    cfg: ExperimentConfig,
    /// Set-up samples taken, each the mean of `setups_per_sample`
    /// set-ups, so that no sample is shorter than about 20 ms.
    setup_samples: usize,
    setups_per_sample: usize,
    /// Serving: instructions per core per measured window. Replay:
    /// trace records per window.
    window: u64,
    /// Windows (rounds for FaaS) of the traced run: a fixed amount of
    /// simulated work, so every per-layer count repeats exactly.
    traced_windows: usize,
}

/// Never fewer measured windows than this, however short `--seconds`.
const MIN_WINDOWS: usize = 8;

fn params(workload: Workload, seed: u64, toy: bool) -> Params {
    let mut cfg = ExperimentConfig::paper_scaled();
    cfg.seed = seed;
    // The paper's Section VI machine: 8 cores, a ~500 MB dataset, two
    // containers per core.
    cfg.cores = 8;
    cfg.containers_per_core = 2;
    cfg.dataset_bytes = 512 << 20;
    let mut p = Params {
        cfg,
        setup_samples: 6,
        setups_per_sample: 1,
        window: 100_000,
        traced_windows: 8,
    };
    match workload {
        Workload::ServePaper => {}
        Workload::ServeResident => {
            // Inside L2-TLB reach (1536 x 4 KB = 6 MB).
            p.cfg.cores = 2;
            p.cfg.dataset_bytes = 1 << 20;
            p.setup_samples = 12;
            p.window = 1_000_000;
        }
        Workload::FaasChurn => {
            p.cfg.cores = 1;
            p.setup_samples = 8;
            p.setups_per_sample = 3;
            p.traced_windows = 3;
        }
        Workload::ReplayMongo => {
            // The captured trace: a short warm-up and window of the
            // paper configuration, replayed over and over.
            p.cfg.warmup_instructions = 100_000;
            p.cfg.measure_instructions = 900_000;
            p.window = 30_000;
        }
    }
    if toy {
        p.cfg.cores = p.cfg.cores.min(2);
        p.cfg.dataset_bytes = p.cfg.dataset_bytes.min(8 << 20);
        p.cfg.function_input_bytes = 2 << 20;
        p.cfg.warmup_instructions = 20_000;
        p.cfg.measure_instructions = 40_000;
        p.setup_samples = 2;
        p.setups_per_sample = 1;
        p.window = match workload {
            Workload::ReplayMongo => 500,
            _ => 20_000,
        };
        p.traced_windows = 2;
    }
    p
}

/// Everything one invocation measured.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    setup: Samples,
    setup_parts: Vec<SetupTimes>,
    setup_allocs: u64,
    windows: Samples,
    /// The same window samples, split by the host CPU they ran on.
    windows_by_cpu: Vec<Samples>,
    cpus: host::Cpus,
    window_accesses: u64,
    window_allocs: Allocs,
    steal_start: Option<f64>,
    /// `VmHWM` after set-up and the first `MIN_WINDOWS` windows: a fixed
    /// amount of simulated work, so slow hosts read the same.
    peak_rss_mb: Option<f64>,
    /// Telemetry digest of the first set-up, which every later one must
    /// reproduce.
    setup_digest: Option<u64>,
    per_layer: BTreeMap<&'static str, (f64, &'static str)>,
}

impl Report {
    /// Counts one operation, failed unless `ok`.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let what = what();
            eprintln!("check failed: {what}");
            if self.failures.len() < 16 {
                self.failures.push(what);
            }
        }
    }

    fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.per_layer.insert(name, (value, unit));
    }

    fn setup_sample(&mut self, seconds: f64, parts: SetupTimes) {
        self.setup.push(seconds);
        self.setup_parts.push(parts);
    }

    fn window(&mut self, cpu: usize, w: &Window) {
        let (ns, accesses, allocs) = (w.ns_per_access(), w.accesses(), w.allocs);
        self.windows.push(ns);
        self.windows_by_cpu
            .resize_with(self.cpus.len(), Samples::default);
        self.windows_by_cpu[cpu].push(ns);
        self.window_accesses += accesses;
        self.window_allocs.count += allocs.count;
        self.window_allocs.bytes += allocs.bytes;
    }

    fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("ns_per_access", self.windows.min(), "ns"),
            ("setup_s", self.setup.median(), "s"),
            ("peak_rss_mb", self.peak_rss_mb.unwrap_or(0.0), "MB"),
        ]
    }

    fn steal_ms(&self) -> f64 {
        match (self.steal_start, host::steal_ms()) {
            (Some(start), Some(end)) => end - start,
            _ => 0.0,
        }
    }

    /// Host-noise diagnostics and the sample counts behind every
    /// estimate; printed on every run, never used to discard one.
    pub fn diagnostics_line(&self) -> String {
        let [q1, median, _] = self.windows.quartiles();
        let mut out = String::from("{\"diagnostics\": {");
        let _ = write!(
            out,
            "\"window_samples\": {}, \"window_min_ns\": {}, \"window_q1_ns\": {}, \"window_median_ns\": {}, \"window_iqr_pct\": {}, \"setup_samples\": {}, \"setup_iqr_pct\": {}, \"steal_ms\": {}, \"ops_attempted\": {}, \"ops_failed\": {}, \"failures\": [",
            self.windows.len(),
            num(self.windows.min()),
            num(q1),
            num(median),
            num(self.windows.iqr_pct()),
            self.setup.len(),
            num(self.setup.iqr_pct()),
            num(self.steal_ms()),
            self.attempted,
            self.failed,
        );
        for (i, failure) in self.failures.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{}\"", failure.replace(['"', '\\'], "'"));
        }
        out.push_str("], \"window_min_ns_by_cpu\": [");
        for (i, samples) in self.windows_by_cpu.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}{}", num(samples.min()));
        }
        out.push_str("]}}");
        out
    }

    /// The last line: end-to-end metrics, or per-layer ones when traced.
    pub fn result_line(&self, traced: bool) -> String {
        let metrics: Vec<(&str, f64, &str)> = if traced {
            self.per_layer
                .iter()
                .map(|(name, (value, unit))| (*name, *value, *unit))
                .collect()
        } else {
            self.end_to_end()
        };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
        );
        for (i, (name, value, unit)) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            );
        }
        out.push_str("}}");
        out
    }
}

/// A JSON number with every digit (non-finite values become 0).
fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_owned()
    }
}

/// Capture sink keeping the stream in memory.
#[derive(Clone, Default)]
struct StreamSink(Arc<Mutex<Vec<Record>>>);

impl StreamSink {
    fn push(&self, record: Record) {
        self.0.lock().expect("stream lock poisoned").push(record);
    }

    fn take(&self) -> Vec<Record> {
        std::mem::take(&mut *self.0.lock().expect("stream lock poisoned"))
    }
}

impl CaptureSink for StreamSink {
    fn access(&mut self, core: u32, pid: Pid, va: VirtAddr, kind: AccessKind, instrs_before: u32) {
        self.push(Record::Access {
            core,
            pid,
            va,
            kind,
            instrs_before,
        });
    }

    fn switch(&mut self, core: u32, cost: Cycles) {
        self.push(Record::Switch { core, cost });
    }

    fn request_end(&mut self, cycles: Cycles) {
        self.push(Record::RequestEnd { cycles });
    }

    fn reset(&mut self) {
        self.push(Record::Reset);
    }
}

/// Simulated memory accesses in a telemetry delta: every access makes
/// exactly one core-side L1 cache access (the walker enters at L2).
fn accesses(snap: &Snapshot) -> u64 {
    [
        "cache.l1d.hits",
        "cache.l1d.misses",
        "cache.l1i.hits",
        "cache.l1i.misses",
    ]
    .iter()
    .map(|name| snap.counter(name))
    .sum()
}

fn core_cycles(machine: &Machine) -> Cycles {
    (0..machine.config().cores)
        .map(|c| machine.core_clock(CoreId::new(c)))
        .sum()
}

/// One measured window's outcome.
struct Window {
    seconds: f64,
    allocs: Allocs,
    snap: Snapshot,
    cycles: Cycles,
}

impl Window {
    fn accesses(&self) -> u64 {
        accesses(&self.snap)
    }

    fn ns_per_access(&self) -> f64 {
        self.seconds * 1e9 / self.accesses().max(1) as f64
    }
}

/// Runs `body` on `state` as one timed window; the telemetry delta,
/// host allocations and simulated core cycles of `machine(state)` over
/// the window come with it.
fn window<S>(state: &mut S, machine: fn(&S) -> &Machine, body: impl FnOnce(&mut S)) -> Window {
    let before = machine(state).registry().snapshot();
    let cycles = core_cycles(machine(state));
    let allocs = Allocs::now();
    let start = Instant::now();
    body(state);
    let seconds = start.elapsed().as_secs_f64();
    let allocs = allocs.since();
    let m = machine(state);
    Window {
        seconds,
        allocs,
        snap: m.registry().snapshot().delta(&before),
        cycles: core_cycles(m) - cycles,
    }
}

fn itself(machine: &Machine) -> &Machine {
    machine
}

fn faas_machine(f: &setup::Faas) -> &Machine {
    &f.machine
}

/// The traced run's totals over its fixed windows.
#[derive(Default)]
struct Traced {
    snap: Snapshot,
    cycles: Cycles,
    ns_per_access: Samples,
    /// Untraced windows on the measured machine, each run right after a
    /// traced one: the reference for the tracing overhead.
    untraced: Samples,
    exits: u64,
    records: u64,
}

impl Traced {
    fn add(&mut self, w: &Window) {
        self.snap.merge(&w.snap);
        self.cycles += w.cycles;
        self.ns_per_access.push(w.ns_per_access());
    }
}

pub fn run(args: &Args) -> Report {
    let mut report = Report {
        steal_start: host::steal_ms(),
        cpus: host::Cpus::allowed(),
        ..Report::default()
    };
    let p = params(args.workload, args.seed, args.toy);
    // A traced invocation spends half its measuring time untraced, as the
    // reference for the tracing overhead.
    let budget = Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    let mut spans = Spans::new(args.trace);
    let traced = match args.workload {
        Workload::ServePaper | Workload::ServeResident => {
            serve(args, &p, budget, &mut report, &mut spans)
        }
        Workload::FaasChurn => faas(args, &p, budget, &mut report, &mut spans),
        Workload::ReplayMongo => replay_mongo(args, &p, budget, &mut report, &mut spans),
    };
    if let Some((machine_tables, traced, ns)) = traced {
        layer_metrics(&mut report, args.workload, machine_tables, &traced, &ns);
        write_trace(args, &spans, &mut report);
    }
    report
}

/// Builds one set-up for `setup_sample`: the machine, with the telemetry
/// snapshot it left, which every repeat must match.
type Build<'a, T> = dyn FnMut(&mut SetupTimes) -> (T, Snapshot) + 'a;

/// Takes set-up sample `k`: the mean host time of `setups_per_sample`
/// set-ups. Every set-up in a run must leave identical telemetry.
fn setup_sample<T>(p: &Params, report: &mut Report, k: usize, build: &mut Build<'_, T>) -> T {
    report.cpus.pin(k);
    let mut seconds = 0.0;
    let mut parts = SetupTimes::default();
    let mut last = None;
    for _ in 0..p.setups_per_sample {
        // Drop the previous machine first, so peak RSS holds one.
        drop(last.take());
        let allocs = Allocs::now();
        let start = Instant::now();
        let (built, snap) = build(&mut parts);
        seconds += start.elapsed().as_secs_f64();
        if report.setup_digest.is_none() {
            report.setup_allocs = allocs.since().count;
        }
        let digest = setup::digest(&snap);
        let reference = *report.setup_digest.get_or_insert(digest);
        report.check(digest == reference, || {
            format!("set-up telemetry digest {digest:#x} differs from {reference:#x}")
        });
        last = Some(built);
    }
    let n = p.setups_per_sample as f64;
    report.setup_sample(seconds / n, parts.scaled(1.0 / n));
    last.expect("at least one set-up per sample")
}

/// Measures windows until `budget` has passed (and at least
/// `MIN_WINDOWS`); `next` runs one window. The remaining set-up samples
/// (`setup` takes sample `k`) are spread evenly over the measuring time,
/// so the set-up median sees the same host conditions as the windows.
fn measure_windows(
    budget: Duration,
    setups: usize,
    report: &mut Report,
    mut next: impl FnMut(&mut Report) -> Window,
    mut setup: impl FnMut(&mut Report, usize),
) {
    let start = Instant::now();
    let mut n = 0;
    let mut taken = 0;
    while n < MIN_WINDOWS || start.elapsed() < budget {
        let due = budget.mul_f64((taken + 1) as f64 / (setups + 1) as f64);
        if n >= MIN_WINDOWS && taken < setups && start.elapsed() >= due {
            taken += 1;
            setup(report, taken);
        }
        let cpu = report.cpus.pin(n);
        let w = next(report);
        report.check(w.accesses() > 0, || {
            "a window executed no accesses".to_owned()
        });
        report.window(cpu, &w);
        n += 1;
        if n == MIN_WINDOWS {
            report.peak_rss_mb = host::peak_rss_mb();
        }
    }
    while taken < setups {
        taken += 1;
        setup(report, taken);
    }
}

type TracedOut = Option<(u64, Traced, LayerNs)>;

/// Runs the traced part, counting a panic (a violated invariant in
/// fail-fast mode) as a failed operation.
fn traced_part(
    report: &mut Report,
    f: impl FnOnce(&mut Report) -> (u64, Traced, LayerNs),
) -> TracedOut {
    match catch_unwind(AssertUnwindSafe(|| f(report))) {
        Ok(out) => {
            report.check(true, String::new);
            Some(out)
        }
        Err(panic) => {
            let message = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                .unwrap_or_default();
            report.check(false, || format!("traced run panicked: {message}"));
            None
        }
    }
}

fn serving_window(machine: &mut Machine, instructions: u64, report: &mut Report) -> Window {
    let cores = machine.config().cores as u64;
    let w = window(machine, itself, |m| {
        m.reset_measurement();
        m.run_instructions(instructions);
    });
    let retired = w.snap.counter("sim.instructions");
    report.check(retired >= instructions * cores, || {
        format!(
            "window retired {retired} of {} instructions",
            instructions * cores
        )
    });
    w
}

fn serve(
    args: &Args,
    p: &Params,
    budget: Duration,
    report: &mut Report,
    spans: &mut Spans,
) -> TracedOut {
    let mut untraced = Spans::new(false);
    let mut build = |t: &mut SetupTimes| {
        let s = setup::serving(&p.cfg, false, t, &mut untraced);
        let snap = s.machine.telemetry_snapshot();
        (s, snap)
    };
    let mut serving = setup_sample(p, report, 0, &mut build);
    setup::attach_serving(&mut serving, p.cfg.seed);
    serving.machine.run_instructions(p.cfg.warmup_instructions);
    let mut next = |report: &mut Report| serving_window(&mut serving.machine, p.window, report);
    measure_windows(
        budget,
        p.setup_samples - 1,
        report,
        &mut next,
        |report, k| drop(setup_sample(p, report, k, &mut build)),
    );
    if !args.trace {
        return None;
    }
    traced_part(report, |report| {
        let mut t = SetupTimes::default();
        let mut s = setup::serving(&p.cfg, true, &mut t, spans);
        setup::attach_serving(&mut s, p.cfg.seed);
        spans.span("sim.warmup", || {
            s.machine.run_instructions(p.cfg.warmup_instructions)
        });
        let sink = StreamSink::default();
        s.machine.attach_capture(Box::new(sink.clone()));
        let mut traced = Traced::default();
        for _ in 0..p.traced_windows {
            let w = spans.span("sim.window", || {
                serving_window(&mut s.machine, p.window, report)
            });
            traced.add(&w);
            traced.untraced.push(next(report).ns_per_access());
        }
        s.machine.take_capture();
        check_timeline(&mut s.machine, report);
        let stream = sink.take();
        let containers: Vec<Container> = s.deployed.iter().map(|(_, c)| c.clone()).collect();
        let ns = layers::measure(
            &s.machine,
            &stream,
            &mut || layers::serving_generators(&containers, p.cfg.seed),
            spans,
        );
        let tables = s.machine.kernel().store().stats().tables_allocated;
        (tables, traced, ns)
    })
}

fn check_timeline(machine: &mut Machine, report: &mut Report) {
    let timeline = machine.take_timeline();
    let violations = timeline.map(|t| t.violations.len()).unwrap_or(0);
    report.check(violations == 0, || {
        format!("{violations} invariant violations")
    });
}

/// One FaaS round: each function's container is created, brought up and
/// run to `Op::Done`, then all three exit. Returns whether the kernel's
/// live page-table count came back to its pre-round value.
fn faas_round(
    f: &mut setup::Faas,
    seed: u64,
    t: &mut SetupTimes,
    spans: &mut Spans,
    stream: Option<&StreamSink>,
    mut before_exit: impl FnMut(&Machine, &[Container], &mut Spans),
) -> bool {
    let setup::Faas {
        machine,
        runtime,
        images,
        group,
    } = f;
    let live_before = machine.kernel().store().stats().live_tables;
    let core = CoreId::new(0);
    let profile = BringupProfile::default();
    let mut containers = Vec::with_capacity(images.len());
    for (i, (kind, image)) in images.iter().enumerate() {
        let container = setup::timed(&mut t.create, spans, "containers.create", || {
            runtime
                .create_container(machine.kernel_mut(), image, *group)
                .expect("function container creation failed")
        });
        setup::timed(&mut t.bringup, spans, "sim.bringup", || {
            machine.measure_bringup(core, &container, &profile, seed)
        });
        let mut workload = FunctionWorkload::new(
            *kind,
            setup::DENSITY,
            container.layout().clone(),
            seed + i as u64,
        );
        let pid = container.pid();
        setup::timed(&mut t.drive, spans, "sim.drive", || loop {
            match workload.next_op() {
                Op::Access {
                    va,
                    kind,
                    instrs_before,
                } => {
                    machine.retire(core, instrs_before as u64 + 1);
                    machine.execute_access(0, pid, va, kind);
                    if let Some(stream) = stream {
                        stream.push(Record::Access {
                            core: 0,
                            pid,
                            va,
                            kind,
                            instrs_before,
                        });
                    }
                }
                Op::RequestEnd => {}
                Op::Done => break,
            }
        });
        containers.push(container);
    }
    before_exit(machine, &containers, spans);
    setup::timed(&mut t.exit, spans, "sim.exit", || {
        for container in &containers {
            machine.exit_process(container.pid());
        }
    });
    machine.kernel().store().stats().live_tables == live_before
}

fn faas(
    args: &Args,
    p: &Params,
    budget: Duration,
    report: &mut Report,
    spans: &mut Spans,
) -> TracedOut {
    let mut untraced = Spans::new(false);
    let seed = p.cfg.seed;
    // Set-up covers the machine, the images and the first, cold round.
    let mut leaks = 0;
    let mut build = |t: &mut SetupTimes| {
        let mut f = setup::faas(&p.cfg, false, t, &mut untraced);
        if !faas_round(&mut f, seed, t, &mut Spans::new(false), None, |_, _, _| {}) {
            leaks += 1;
        }
        let snap = f.machine.telemetry_snapshot();
        (f, snap)
    };
    let mut f = setup_sample(p, report, 0, &mut build);
    let mut round = 1;
    let mut quiet = Spans::new(false);
    let mut next = |report: &mut Report| {
        let mut t = SetupTimes::default();
        let mut ok = true;
        let w = window(&mut f, faas_machine, |f| {
            ok = faas_round(f, seed, &mut t, &mut quiet, None, |_, _, _| {});
        });
        report.check(ok, || format!("round {round} leaked page tables"));
        round += 1;
        w
    };
    measure_windows(
        budget,
        p.setup_samples - 1,
        report,
        &mut next,
        |report, k| drop(setup_sample(p, report, k, &mut build)),
    );
    report.check(leaks == 0, || {
        format!("{leaks} cold rounds leaked page tables")
    });
    if !args.trace {
        return None;
    }
    traced_part(report, |report| {
        let mut t = SetupTimes::default();
        let mut tf = setup::faas(&p.cfg, true, &mut t, spans);
        let ok = faas_round(&mut tf, seed, &mut t, spans, None, |_, _, _| {});
        report.check(ok, || "traced cold round leaked page tables".to_owned());
        let mut traced = Traced::default();
        let mut ns = LayerNs::default();
        for r in 1..=p.traced_windows as u64 {
            let last = r == p.traced_windows as u64;
            let sink = StreamSink::default();
            let mut ok = true;
            let mut probe_seconds = 0.0;
            let mut w = window(&mut tf, faas_machine, |f| {
                ok = faas_round(
                    f,
                    seed,
                    &mut t,
                    spans,
                    Some(&sink),
                    |machine, containers, spans| {
                        if !last {
                            return;
                        }
                        // Probe while the round's processes are still alive;
                        // the probe's time is kept out of the round's.
                        let start = Instant::now();
                        let stream = sink.take();
                        ns = layers::measure(
                            machine,
                            &stream,
                            &mut || layers::function_generators(containers, seed),
                            spans,
                        );
                        probe_seconds = start.elapsed().as_secs_f64();
                    },
                );
            });
            w.seconds -= probe_seconds;
            report.check(ok, || format!("traced round {r} leaked page tables"));
            traced.add(&w);
            traced.exits += tf.images.len() as u64;
            traced.untraced.push(next(report).ns_per_access());
        }
        check_timeline(&mut tf.machine, report);
        let tables = tf.machine.kernel().store().stats().tables_allocated;
        (tables, traced, ns)
    })
}

/// Feeds one decoded record through the machine's replay entry points.
fn feed(machine: &mut Machine, record: Record) {
    match record {
        Record::Access {
            core,
            pid,
            va,
            kind,
            instrs_before,
        } => machine.replay_access(core, pid, va, kind, instrs_before),
        Record::Switch { core, cost } => machine.replay_switch(core, cost),
        Record::RequestEnd { cycles } => machine.replay_request_end(cycles),
        Record::Reset => machine.reset_measurement(),
    }
}

/// Decodes and replays up to `records` records from `reader`; returns
/// how many were replayed (0 at the end of the trace).
fn replay_chunk(machine: &mut Machine, reader: &mut TraceReader<&[u8]>, records: u64) -> u64 {
    let mut n = 0;
    while n < records {
        match reader.next() {
            Some(record) => feed(machine, record.expect("the trace was encoded in memory")),
            None => break,
        }
        n += 1;
    }
    n
}

fn replay_mongo(
    args: &Args,
    p: &Params,
    budget: Duration,
    report: &mut Report,
    spans: &mut Spans,
) -> TracedOut {
    let mode = Mode::babelfish();
    let app = CaptureApp::Serving(ServingVariant::MongoDb);

    // Generate the trace (untimed): a live capture of the paper
    // configuration, checked by replaying it through the library.
    let sink = StreamSink::default();
    let (live, _) = experiment::run_captured(mode, app, &p.cfg, Box::new(sink.clone()));
    let trace = layers::encode(&replay::capture_meta(mode, app, &p.cfg), &sink.take());
    let reader = TraceReader::new(&trace[..]).expect("the trace was encoded in memory");
    let replayed = replay::replay_trace(reader, ReplayOptions::default())
        .expect("the trace was encoded in memory");
    let doc = |w: &experiment::WindowResult| serde_json::to_string(w).expect("results serialize");
    report.check(doc(&live) == doc(&replayed.result), || {
        "replayed window document differs from the live capture".to_owned()
    });

    // Set-up: rebuild the machine from the trace header. The first one
    // is checked against the library's own set-up.
    let header = |report: &mut Report| {
        let reader = TraceReader::new(&trace[..]).expect("the trace was encoded in memory");
        match replay::meta_config(reader.meta()) {
            Ok((_, _, cfg)) => Some(cfg),
            Err(e) => {
                report.check(false, || format!("trace header: {e}"));
                None
            }
        }
    };
    let cfg = header(report)?;
    let library = experiment::capture_setup(mode, app, &cfg)
        .0
        .telemetry_snapshot();
    let mut untraced = Spans::new(false);
    let mut build = |t: &mut SetupTimes| {
        let start = Instant::now();
        let cfg = header(&mut Report::default()).unwrap_or(cfg);
        t.machine_new += start.elapsed().as_secs_f64();
        let s = setup::serving(&cfg, false, t, &mut untraced);
        let snap = s.machine.telemetry_snapshot();
        (s, snap)
    };
    let mut serving = setup_sample(p, report, 0, &mut build);
    report.check(
        setup::digest(&serving.machine.telemetry_snapshot()) == setup::digest(&library),
        || "the benchmark's set-up differs from experiment::capture_setup".to_owned(),
    );

    // Windows: the trace, replayed pass after pass onto one machine.
    let mut reader = TraceReader::new(&trace[..]).expect("the trace was encoded in memory");
    let mut next = |_: &mut Report| {
        let mut w = window(&mut serving.machine, itself, |m| {
            replay_chunk(m, &mut reader, p.window);
        });
        if w.accesses() == 0 {
            // End of the trace: start the next pass.
            reader = TraceReader::new(&trace[..]).expect("the trace was encoded in memory");
            w = window(&mut serving.machine, itself, |m| {
                replay_chunk(m, &mut reader, p.window);
            });
        }
        w
    };
    measure_windows(
        budget,
        p.setup_samples - 1,
        report,
        &mut next,
        |report, k| drop(setup_sample(p, report, k, &mut build)),
    );
    if !args.trace {
        return None;
    }
    traced_part(report, |report| {
        let mut t = SetupTimes::default();
        let mut s = setup::serving(&cfg, true, &mut t, spans);
        let mut reader = TraceReader::new(&trace[..]).expect("the trace was encoded in memory");
        // The trace's warm-up, up to its reset marker, runs untimed, as
        // the live workloads' warm-up does.
        spans.span("sim.replay_warmup", || {
            for record in reader.by_ref() {
                let record = record.expect("the trace was encoded in memory");
                let reset = matches!(record, Record::Reset);
                feed(&mut s.machine, record);
                if reset {
                    break;
                }
            }
        });
        let sink = StreamSink::default();
        s.machine.attach_capture(Box::new(sink.clone()));
        let mut traced = Traced::default();
        for _ in 0..p.traced_windows {
            let mut fed = 0;
            let w = spans.span("sim.replay_window", || {
                window(&mut s.machine, itself, |m| {
                    fed = replay_chunk(m, &mut reader, p.window)
                })
            });
            traced.records += fed;
            traced.add(&w);
            traced.untraced.push(next(report).ns_per_access());
        }
        s.machine.take_capture();
        check_timeline(&mut s.machine, report);
        let stream = sink.take();
        let containers: Vec<Container> = s.deployed.iter().map(|(_, c)| c.clone()).collect();
        let mut ns = layers::measure(
            &s.machine,
            &stream,
            &mut || layers::serving_generators(&containers, cfg.seed),
            spans,
        );
        // The replay layer decodes the trace itself: time that decode.
        ns.capture_bytes_per_record = trace.len() as f64 / replayed.records_replayed.max(1) as f64;
        ns.capture_record = layers::decode_ns(&trace, spans);
        let tables = s.machine.kernel().store().stats().tables_allocated;
        (tables, traced, ns)
    })
}

/// Derives the per-layer metrics from the traced run's totals and the
/// standalone layer timings.
fn layer_metrics(
    report: &mut Report,
    workload: Workload,
    tables: u64,
    traced: &Traced,
    ns: &LayerNs,
) {
    let snap = &traced.snap;
    let c = |name: &str| snap.counter(name) as f64;
    let h = |name: &str| snap.histogram(name).map(|h| h.count).unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let a = accesses(snap) as f64;
    let per_access = |x: f64| ratio(x, a);
    let instructions = c("sim.instructions");

    let l1_hits = c("tlb.l1d.hits") + c("tlb.l1i.hits");
    let l2_lookups = a - l1_hits;
    let l2_hits = c("tlb.l2.hits");
    let walks = c("sim.walks");
    let pwc_probes = c("pwc.hits") + c("pwc.misses");
    let walker_refs =
        c("cache.walks.served_l2") + c("cache.walks.served_l3") + c("cache.walks.served_dram");
    let dram = c("cache.dram.accesses");
    let minor = h("os.fault.minor_cycles");
    let cow = h("os.fault.cow_cycles");
    let level = |name: &str| {
        ratio(
            c(&format!("cache.{name}.hits")),
            c(&format!("cache.{name}.hits")) + c(&format!("cache.{name}.misses")),
        )
    };
    let replaying = workload == Workload::ReplayMongo;

    report.layer("workloads.ns_per_op", ns.workloads_op, "ns");
    report.layer("tlb.ns_per_lookup", ns.tlb_lookup, "ns");
    report.layer("tlb.l1_hit_ratio", ratio(l1_hits, a), "ratio");
    report.layer("tlb.l2_hit_ratio", ratio(l2_hits, l2_lookups), "ratio");
    report.layer(
        "tlb.l2_shared_hit_ratio",
        ratio(c("tlb.l2.shared_hits"), l2_hits),
        "ratio",
    );
    report.layer(
        "tlb.l2_mpki",
        ratio((l2_lookups - l2_hits) * 1000.0, instructions),
        "1/kinstr",
    );
    report.layer("pgtable.ns_per_walk", ns.walk, "ns");
    report.layer("pgtable.walks_pka", per_access(walks) * 1000.0, "1/kaccess");
    report.layer("pgtable.tables_allocated", tables as f64, "count");
    report.layer("cache.ns_per_access", ns.cache_access, "ns");
    report.layer("cache.pwc_ns_per_probe", ns.pwc_probe, "ns");
    report.layer(
        "cache.pwc_hit_ratio",
        ratio(c("pwc.hits"), pwc_probes),
        "ratio",
    );
    report.layer("cache.l1d_hit_ratio", level("l1d"), "ratio");
    report.layer("cache.l2_hit_ratio", level("l2"), "ratio");
    report.layer("cache.l3_hit_ratio", level("l3"), "ratio");
    report.layer("mem.dram_ns_per_access", ns.dram_access, "ns");
    report.layer(
        "mem.dram_accesses_pka",
        per_access(dram) * 1000.0,
        "1/kaccess",
    );
    report.layer("os.ns_per_minor_fault", ns.minor_fault, "ns");
    report.layer("os.ns_per_cow_fault", ns.cow_fault, "ns");
    report.layer("os.ns_per_exit", ns.exit, "ns");
    report.layer(
        "os.minor_faults_pka",
        per_access(minor) * 1000.0,
        "1/kaccess",
    );
    report.layer("os.cow_faults_pka", per_access(cow) * 1000.0, "1/kaccess");
    report.layer("capture.ns_per_record", ns.capture_record, "ns");
    report.layer("capture.bytes_per_record", ns.capture_bytes_per_record, "B");

    // Set-up, call by call (the median of each over the samples).
    let part =
        |f: fn(&SetupTimes) -> f64| Samples(report.setup_parts.iter().map(f).collect()).median();
    let parts = [
        ("sim.new_s", part(|t| t.machine_new)),
        ("containers.build_image_s", part(|t| t.build_image)),
        ("containers.create_s", part(|t| t.create)),
        ("sim.bringup_s", part(|t| t.bringup)),
        ("sim.prefault_s", part(|t| t.prefault)),
        ("sim.drive_s", part(|t| t.drive)),
        ("sim.exit_s", part(|t| t.exit)),
    ];
    for (name, value) in parts {
        report.layer(name, value, "s");
    }

    // Host ns per simulated access, split by layer: each layer's cost
    // per call times its calls per access. The cache row is the
    // hierarchy's self time (its DRAM calls are the mem row) plus the
    // page-walk cache.
    let sim_ns = traced.ns_per_access.median();
    let rows = [
        (
            "ns_by_layer.workloads",
            if replaying { 0.0 } else { ns.workloads_op },
        ),
        (
            "ns_by_layer.tlb",
            ns.tlb_lookup * per_access(a + l2_lookups),
        ),
        ("ns_by_layer.pgtable", ns.walk * per_access(walks)),
        (
            "ns_by_layer.cache",
            ns.cache_access * per_access(a + walker_refs) - ns.dram_access * per_access(dram)
                + ns.pwc_probe * per_access(pwc_probes),
        ),
        ("ns_by_layer.mem", ns.dram_access * per_access(dram)),
        (
            "ns_by_layer.os",
            ns.minor_fault * per_access(minor)
                + ns.cow_fault * per_access(cow)
                + ns.exit * per_access(traced.exits as f64),
        ),
        (
            "ns_by_layer.capture",
            ns.capture_record * per_access(traced.records as f64),
        ),
    ];
    let mut explained = 0.0;
    for (name, value) in rows {
        explained += value;
        report.layer(name, value, "ns");
    }
    report.layer("sim.ns_per_access", sim_ns, "ns");
    report.layer("sim.residual_ns_per_access", sim_ns - explained, "ns");
    report.layer(
        "sim.instructions_per_access",
        per_access(instructions),
        "instr",
    );
    report.layer(
        "sim.cpi",
        ratio(traced.cycles as f64, instructions),
        "cycles/instr",
    );

    report.layer(
        "host.allocs_per_access",
        ratio(
            report.window_allocs.count as f64,
            report.window_accesses as f64,
        ),
        "count",
    );
    report.layer(
        "host.alloc_bytes_per_access",
        ratio(
            report.window_allocs.bytes as f64,
            report.window_accesses as f64,
        ),
        "B",
    );
    report.layer("host.setup_allocs", report.setup_allocs as f64, "count");
    report.layer("host.steal_ms", report.steal_ms(), "ms");
    report.layer("host.window_iqr_pct", report.windows.iqr_pct(), "%");
    report.layer("host.window_samples", report.windows.len() as f64, "count");
    report.layer("host.window_min_ns", report.windows.min(), "ns");
    report.layer("host.setup_samples", report.setup.len() as f64, "count");
    report.layer(
        "host.traced_window_samples",
        traced.ns_per_access.len() as f64,
        "count",
    );
    report.layer(
        "trace.overhead_pct",
        (ratio(sim_ns, traced.untraced.median()) - 1.0) * 100.0,
        "%",
    );
}

/// Validates the span trace and writes it under `perfbench/out/`.
fn write_trace(args: &Args, spans: &Spans, report: &mut Report) {
    let doc = spans.chrome_trace();
    let valid = bf_telemetry::validate_chrome_trace(&doc);
    report.check(valid.is_ok(), || {
        format!("span trace invalid: {:?}", valid.err())
    });
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!(
        "trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(
            &path,
            serde_json::to_string(&doc).expect("trace serializes"),
        )
    });
    report.check(written.is_ok(), || {
        format!("writing {}: {:?}", path.display(), written.err())
    });
}
