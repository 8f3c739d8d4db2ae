//! The simulator's benchmark: two workloads, end-to-end metrics from
//! untraced runs, and a traced run that splits run time among the
//! crates. See `README.md` beside this package for what each workload
//! and metric is for.
//!
//! ```text
//! perfbench --workload flood-k16|incast-k8 --seed N
//!           --seconds S --trace 0|1
//! ```
//!
//! Prints a manifest line, then one JSON result line. Exits 1 when an
//! output check or the replay fidelity check fails, 2 on bad arguments.

mod heap;
mod ledger;
mod probe;
mod scenario;

use arppath::{ArpPathBridge, ArpPathConfig};
use arppath_switch::SwitchLogic;
use arppath_topo::BridgeIx;
use ledger::{BridgeSpec, Recorder};
use probe::HostClock;
use scenario::{
    declare, link_totals, outcome, percentile_ms, Fabric, Meta, Outcome, Workload, LEDGER_SHARDS,
};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[global_allocator]
static GLOBAL: heap::Counting = heap::Counting;

/// Untraced repetitions a run makes at least, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Extra declare-and-build passes a `--trace 0` run makes, so `setup_s`
/// is a median over many set-ups even when few repetitions fit.
const SETUP_PASSES: usize = 15;
/// Replay and wire-codec passes; their times are medians over these.
const TIMING_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// One untraced repetition: declare, build and run, timed apart.
struct Rep {
    declare_s: f64,
    build_s: f64,
    run_s: f64,
    peak_heap_bytes: u64,
    allocs: u64,
    outcome: Outcome,
}

fn rep(workload: Workload, seed: u64, shards: usize) -> (Rep, Fabric, Meta) {
    heap::reset_peak();
    let base = heap::live();
    let t0 = Instant::now();
    let sc = declare(workload, seed, None);
    let t1 = Instant::now();
    let (mut fabric, meta) = sc.build(shards, false);
    let t2 = Instant::now();
    let a0 = heap::allocs();
    fabric.run_until(meta.deadline);
    let run_s = t2.elapsed().as_secs_f64();
    let allocs = heap::allocs() - a0;
    let peak_heap_bytes = heap::peak().saturating_sub(base);
    let rep = Rep {
        declare_s: (t1 - t0).as_secs_f64(),
        build_s: (t2 - t1).as_secs_f64(),
        run_s,
        peak_heap_bytes,
        allocs,
        outcome: outcome(&fabric, &meta),
    };
    (rep, fabric, meta)
}

/// Repeat, cycling through `seeds`, until `budget` has passed (and at
/// least `min` times).
fn reps(workload: Workload, seeds: &[u64], budget: Duration, min: usize) -> Vec<Rep> {
    let started = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || started.elapsed() < budget {
        out.push(rep(workload, seeds[out.len() % seeds.len()], 1).0);
        eprintln!("[perfbench] rep {}: run {:.3} s", out.len(), out.last().unwrap().run_s);
    }
    out
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn med(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(reps.iter().map(f).collect())
}

/// What a run prints as its last line.
struct Report {
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn new() -> Self {
        Report { problems: Vec::new(), attempted: 0, failed: 0, metrics: Vec::new() }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }

    /// Count the operations of one distinct scenario instance. An
    /// operation that does not complete is a failure of that operation,
    /// counted in `failed`. A repetition of an instance already counted
    /// repeats the same operations, so it goes through [`Report::check`]
    /// and [`Report::same`] only: the counts then depend on the seed
    /// alone, not on how many repetitions fit in the time budget.
    fn count(&mut self, label: &str, o: &Outcome) {
        self.attempted += o.ops;
        self.failed += o.failed;
        if o.failed > 0 {
            eprintln!("[perfbench] {label}: {} of {} operations did not complete", o.failed, o.ops);
        }
    }

    /// Carry over a run's failed output checks.
    fn check(&mut self, label: &str, o: &Outcome) {
        for p in &o.problems {
            self.problems.push(format!("{label}: {p}"));
        }
    }

    /// The same simulated work must give the same observable result.
    fn same(&mut self, label: &str, a: &Outcome, b: &Outcome) {
        let key = |o: &Outcome| {
            (o.stats.events, o.stats.frames_delivered, o.stats.frames_sent, o.completion_ns.clone())
        };
        if key(a) != key(b) {
            self.problems.push(format!(
                "{label}: events/delivered/sent {}/{}/{} differ from {}/{}/{}",
                b.stats.events,
                b.stats.frames_delivered,
                b.stats.frames_sent,
                a.stats.events,
                a.stats.frames_delivered,
                a.stats.frames_sent
            ));
        }
    }

    fn print(&self) {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// `--trace 0`: the end-to-end metrics, medians over repetitions that
/// cycle through the workload's instances.
fn end_to_end(w: Workload, seed: u64, budget: Duration) -> Report {
    let mut r = Report::new();
    let n = w.instances();
    let seeds: Vec<u64> = (0..n).map(|j| w.instance_seed(seed, j)).collect();
    let mut setups: Vec<f64> = (0..SETUP_PASSES)
        .map(|i| {
            let started = Instant::now();
            let built = declare(w, seeds[i % n], None).build(1, false);
            let s = started.elapsed().as_secs_f64();
            drop(built);
            s
        })
        .collect();
    let runs = reps(w, &seeds, budget, MIN_REPS.max(n));
    setups.extend(runs.iter().map(|x| x.declare_s + x.build_s));
    for (i, x) in runs.iter().enumerate() {
        if i < n {
            r.count(&format!("instance {i}"), &x.outcome);
        }
        r.check(&format!("rep {i}"), &x.outcome);
        r.same(&format!("rep {i} vs rep {}", i % n), &runs[i % n].outcome, &x.outcome);
    }
    let mut pooled: Vec<u64> =
        runs[..n].iter().flat_map(|x| x.outcome.completion_ns.iter().copied()).collect();
    pooled.sort_unstable();
    r.metric("setup_s", median(setups), "s");
    r.metric("run_s", med(&runs, |x| x.run_s), "s");
    r.metric("peak_heap_mb", med(&runs, |x| x.peak_heap_bytes as f64) / 1e6, "MB");
    r.metric("sim_fct_p50_ms", percentile_ms(&pooled, 50.0), "sim_ms");
    r.metric("sim_fct_p90_ms", percentile_ms(&pooled, 90.0), "sim_ms");
    r
}

/// `--trace 1`: the per-layer ledger, on instance 0 of the seed.
fn per_layer(w: Workload, seed: u64, budget: Duration) -> Report {
    let mut r = Report::new();
    let seed = w.instance_seed(seed, 0);
    let runs = reps(w, &[seed], budget / 2, MIN_REPS);
    r.count("instance 0", &runs[0].outcome);
    for (i, x) in runs.iter().enumerate() {
        r.check(&format!("rep {i}"), &x.outcome);
        r.same(&format!("rep {i} vs rep 0"), &runs[0].outcome, &x.outcome);
    }
    let run_s = med(&runs, |x| x.run_s);
    let events = runs[0].outcome.stats.events as f64;
    // Before the traced run, so the two engines meet the same clean heap.
    match w {
        Workload::Flood => sharded_ledger(&mut r, w, seed, budget / 4, &runs[0].outcome, run_s),
        Workload::Incast => {
            for (name, unit) in SHARDED_METRICS {
                r.metric(name, 0.0, unit);
            }
        }
    }

    // The traced run: timed hosts, the recording tracer, batches counted.
    let clock = Arc::new(HostClock::default());
    let mut sc = declare(w, seed, Some(&clock));
    let (recorder, slot) = Recorder::new(sc.topo.bridge_count(), false);
    sc.topo.set_tracer(Box::new(recorder));
    let (mut fabric, meta) = sc.build(1, false);
    clock.ns.store(0, Relaxed);
    clock.calls.store(0, Relaxed);
    let Fabric::Single(built) = &mut fabric else { unreachable!("single-threaded workload") };
    let started = Instant::now();
    let mut batches = 0u64;
    while built.net.step_batch(meta.deadline) {
        batches += 1;
    }
    let traced_s = started.elapsed().as_secs_f64();
    built.net.run_until(meta.deadline);
    let host_ns = clock.ns.load(Relaxed) as f64;
    let host_calls = clock.calls.load(Relaxed) as f64;
    drop(built.net.take_tracer());
    let rec = slot.lock().expect("recorder slot").take().expect("recorder dropped");

    let traced = outcome(&fabric, &meta);
    r.check("traced run", &traced);
    r.same("traced vs untraced", &runs[0].outcome, &traced);
    let links = link_totals(&fabric, meta.deadline);
    let Fabric::Single(built) = &fabric else { unreachable!() };
    let bridges: Vec<_> = (0..meta.bridges).map(|i| built.arppath(BridgeIx(i))).collect();
    let specs: Vec<BridgeSpec> = bridges
        .iter()
        .map(|b| BridgeSpec { name: b.name().to_string(), mac: b.mac(), ports: b.num_ports() })
        .collect();
    let race_drops: u64 = bridges.iter().map(|b| b.ap_counters().race_drops).sum();
    table_metrics(&mut r, &bridges, meta.hosts);
    drop(fabric);

    let config = ArpPathConfig::default().autosize_for_stations(meta.hosts);
    let replay = ledger::replay(&specs, config, &rec.inputs, TIMING_PASSES);
    eprintln!(
        "[perfbench] replay: {} outputs vs {} sent by bridges ({} synthesized left out), \
         {} adapter commands vs {} outputs + {} timers",
        replay.outputs,
        rec.bridge_sent,
        rec.bridge_synthesized,
        replay.adapter_commands,
        replay.outputs,
        replay.timers
    );
    let faithful = replay.outputs == rec.bridge_sent
        && replay.adapter_commands == replay.outputs + replay.timers
        && rec.link_changes == 0;
    if !faithful {
        r.problems.push("replay fidelity: bridge and adapter numbers are invalid".to_string());
    }
    let wire = ledger::wire_ns_per_frame(&rec.wire_sample, TIMING_PASSES);

    let calls = replay.calls as f64;
    let logic_ns = replay.logic_ns.saturating_sub(replay.clone_ns) as f64;
    let adapter_ns = replay.adapter_ns.saturating_sub(replay.logic_ns) as f64;
    let run_ns = run_s * 1e9;
    let named = (logic_ns + adapter_ns + host_ns) / run_ns;

    r.metric("netsim.events", events, "count");
    r.metric("netsim.batches", batches as f64, "count");
    r.metric("netsim.events_per_batch", events / batches as f64, "events/batch");
    r.metric("netsim.ns_per_event", run_ns / events, "ns");
    r.metric("alloc.per_event", med(&runs, |x| x.allocs as f64) / events, "allocs/event");
    if faithful {
        r.metric("netsim.self_ns_per_event", (1.0 - named) * run_ns / events, "ns");
        r.metric("netsim.self_frac", 1.0 - named, "fraction");
        r.metric("trace.named_frac", named, "fraction");
        r.metric("bridge.calls", calls, "count");
        r.metric("bridge.ns_per_call", logic_ns / calls, "ns");
        r.metric("bridge.self_frac", logic_ns / run_ns, "fraction");
        r.metric("switch.adapter_ns_per_call", adapter_ns / calls, "ns");
        r.metric("switch.adapter_frac", adapter_ns / run_ns, "fraction");
    }
    r.metric(
        "bridge.race_loss_frac",
        race_drops as f64 / rec.bridge_race_copies as f64,
        "fraction",
    );
    link_metrics(&mut r, &links);
    r.metric("host.calls", host_calls, "count");
    r.metric("host.ns_per_call", host_ns / host_calls, "ns");
    r.metric("host.self_frac", host_ns / run_ns, "fraction");
    r.metric("host.retransmits", traced.retransmits as f64, "count");
    r.metric("wire.ns_per_frame", wire, "ns");
    topo_metrics(&mut r, &runs);
    frame_metrics(&mut r, &rec.classes, traced.ops);
    r.metric("trace.overhead_frac", traced_s / run_s - 1.0, "fraction");
    failure_metrics(&mut r, traced.ops);
    r
}

/// The flood instance again on the sharded engine. Every repetition must
/// reproduce the single-threaded `single` exactly, and the two engines'
/// merged delivery traces must digest alike.
fn sharded_ledger(
    r: &mut Report,
    w: Workload,
    seed: u64,
    budget: Duration,
    single: &Outcome,
    single_run_s: f64,
) {
    let started = Instant::now();
    let mut runs = Vec::new();
    let fabric = loop {
        let (x, fabric, _) = rep(w, seed, LEDGER_SHARDS);
        eprintln!("[perfbench] sharded rep {}: run {:.3} s", runs.len() + 1, x.run_s);
        runs.push(x);
        if runs.len() >= MIN_REPS && started.elapsed() >= budget {
            break fabric;
        }
    };
    for (i, x) in runs.iter().enumerate() {
        r.check(&format!("sharded rep {i}"), &x.outcome);
        r.same(&format!("sharded rep {i} vs single-threaded"), single, &x.outcome);
    }
    let run_s = med(&runs, |x| x.run_s);
    let Fabric::Sharded(topo) = &fabric else { unreachable!("built sharded") };
    let stats = topo.net.stats();
    let rounds = topo.net.sync_rounds() as f64;
    let cross = topo.net.cross_frames() as f64;
    let shard_events: Vec<f64> = topo.net.shard_stats().iter().map(|s| s.events as f64).collect();
    let busiest = shard_events.iter().cloned().fold(0.0, f64::max);
    let mean = shard_events.iter().sum::<f64>() / shard_events.len() as f64;
    drop(fabric);

    let mut sc = declare(w, seed, None);
    let (recorder, slot) = Recorder::new(0, true);
    sc.topo.set_tracer(Box::new(recorder));
    let (mut st, meta) = sc.build(1, false);
    st.run_until(meta.deadline);
    let Fabric::Single(built) = &mut st else { unreachable!("built single-threaded") };
    drop(built.net.take_tracer());
    drop(st);
    let delivery = slot.lock().expect("recorder slot").take().and_then(|d| d.delivery);
    let single_digest = ledger::digest_records(delivery.expect("delivery trace").records);
    let (mut sharded, meta) = declare(w, seed, None).build(LEDGER_SHARDS, true);
    sharded.run_until(meta.deadline);
    let Fabric::Sharded(topo) = &sharded else { unreachable!("built sharded") };
    let sharded_digest = ledger::digest_lines(&topo.net.delivery_trace());
    drop(sharded);
    eprintln!("[perfbench] delivery digests: {single_digest:016x} vs {sharded_digest:016x}");
    if single_digest != sharded_digest {
        r.problems.push("sharded merged delivery trace differs from single-threaded".to_string());
    }

    let events = stats.events as f64;
    let single_ns_per_event = single_run_s * 1e9 / events;
    let sim_ms = meta.deadline.as_nanos() as f64 / 1e6;
    r.metric("sharded.time_ratio", run_s / single_run_s, "ratio");
    r.metric("sharded.sync_rounds", rounds, "count");
    r.metric("sharded.rounds_per_sim_ms", rounds / sim_ms, "1/sim_ms");
    r.metric("sharded.events_per_round", events / rounds, "events/round");
    r.metric("sharded.cross_frames", cross, "count");
    r.metric("sharded.cross_frac", cross / stats.frames_delivered as f64, "fraction");
    r.metric("sharded.imbalance", busiest / mean, "ratio");
    r.metric(
        "sharded.overhead_us_per_round",
        (run_s * 1e9 - busiest * single_ns_per_event) / rounds / 1e3,
        "us",
    );
}

/// Per-layer metrics of the sharded comparison, which only the flood
/// workload runs.
const SHARDED_METRICS: [(&str, &str); 8] = [
    ("sharded.time_ratio", "ratio"),
    ("sharded.sync_rounds", "count"),
    ("sharded.rounds_per_sim_ms", "1/sim_ms"),
    ("sharded.events_per_round", "events/round"),
    ("sharded.cross_frames", "count"),
    ("sharded.cross_frac", "fraction"),
    ("sharded.imbalance", "ratio"),
    ("sharded.overhead_us_per_round", "us"),
];

/// Path-table footprint and churn, summed over every bridge.
fn table_metrics(r: &mut Report, bridges: &[&ArpPathBridge], hosts: usize) {
    let bytes: usize = bridges.iter().map(|b| b.table_heap_bytes()).sum();
    let evictions: u64 = bridges.iter().map(|b| b.table_evictions()).sum();
    let sweeps: u64 = bridges.iter().map(|b| b.table_stats().expiry_sweeps).sum();
    r.metric("switch.table_bytes_per_station", bytes as f64 / hosts as f64, "B");
    r.metric("switch.table_evictions", evictions as f64, "count");
    r.metric("switch.table_expiry_sweeps", sweeps as f64, "count");
}

fn link_metrics(r: &mut Report, links: &scenario::LinkTotals) {
    r.metric("link.drops", links.drops as f64, "count");
    r.metric("link.pause_events", links.pause_events as f64, "count");
    r.metric("link.paused_ms", links.paused_ns as f64 / 1e6, "sim_ms");
    r.metric("link.peak_queue_kb", links.peak_queue_bytes as f64 / 1024.0, "KiB");
    r.metric("link.watchdog_fires", links.watchdog_fires as f64, "count");
}

fn topo_metrics(r: &mut Report, runs: &[Rep]) {
    r.metric("topo.declare_s", med(runs, |x| x.declare_s), "s");
    r.metric("topo.build_s", med(runs, |x| x.build_s), "s");
}

fn frame_metrics(r: &mut Report, c: &ledger::Classes, ops: u64) {
    r.metric("frames.arp_flood", c.arp_flood as f64, "count");
    r.metric("frames.arp_unicast", c.arp_unicast as f64, "count");
    r.metric("frames.pathctl", c.pathctl as f64, "count");
    r.metric("frames.data", c.data as f64, "count");
    r.metric("frames.pfc", c.pfc as f64, "count");
    r.metric("frames.per_op", c.total() as f64 / ops as f64, "frames/op");
}

/// Operations of one instance, and the share of them that failed.
fn failure_metrics(r: &mut Report, ops: u64) {
    r.metric("ops", ops as f64, "count");
    r.metric("failed_frac", r.failed as f64 / r.attempted.max(1) as f64, "fraction");
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn print_manifest(args: &Args, w: Workload) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Only a checkout of its own: git would otherwise report whatever
    // repository happens to enclose the directory.
    let revision = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    };
    let rustc = command_line("rustc", &["--version"]);
    println!(
        "{{\"manifest\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"params\": {}, \"nproc\": {nproc}, \"git_revision\": \"{revision}\", \
         \"rustc\": \"{rustc}\"}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.params_json()
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(w) = Workload::parse(&args.workload) else {
        eprintln!("perfbench: unknown workload {} (flood-k16, incast-k8)", args.workload);
        std::process::exit(2);
    };
    print_manifest(&args, w);
    let budget = Duration::from_secs(args.seconds);
    let report =
        if args.trace { per_layer(w, args.seed, budget) } else { end_to_end(w, args.seed, budget) };
    for p in &report.problems {
        eprintln!("[perfbench] CHECK FAILED: {p}");
    }
    report.print();
    if !report.problems.is_empty() {
        std::process::exit(1);
    }
}
