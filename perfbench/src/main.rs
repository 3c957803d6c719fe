//! The repository benchmark: serves one seeded workload through the public
//! serving entry points on the sequential event core, checks the outputs,
//! and prints its metrics as one JSON object on the last line of stdout.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of untraced passes;
//! `--trace 1` alternates untraced and traced passes and reports the
//! per-layer metrics, writing the spans of the last traced pass to
//! `.bench_spans/`. `perfbench/WORKLOADS.md` says why each workload exists
//! and which end-to-end metric each per-layer metric should move.

mod alloc;
mod micro;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use liger_model::ModelConfig;

use crate::stats::{check_tail, goodput, median, per_second, percentile};
use crate::trace::{Recorder, SimCounters, Traced};
use crate::workloads::{evaluate, serve, setup, Served, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Set-ups timed before each pass (the pass serves the last one). Set-up
/// takes well under a millisecond, so many samples spread over the whole
/// run keep one preemption or one slow second from deciding the median.
const SETUP_REPEATS: usize = 16;
/// Fewest passes per run (per kind, in a traced run): the bit-identity
/// check needs at least two.
const MIN_PASSES: usize = 2;

/// The time budget of a run: passes continue while one more, as long as the
/// passes so far took on average, still ends by the deadline.
struct Budget {
    deadline: Instant,
    started: Instant,
}

impl Budget {
    fn new(seconds: u64) -> Budget {
        let now = Instant::now();
        Budget { deadline: now + Duration::from_secs(seconds), started: now }
    }

    /// Whether to start another pass after `done` passes.
    fn another(&self, done: usize) -> bool {
        let now = Instant::now();
        let per_pass = (now - self.started) / done.max(1) as u32;
        done < MIN_PASSES || now + per_pass <= self.deadline
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The commit the checkout is at, when it is a git checkout.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".into()
    } else {
        rev.chars().take(12).collect()
    }
}

/// One named metric value.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// What a run reports: its metrics, and how many requests of a pass were
/// shed or lost.
struct RunResult {
    metrics: Vec<Metric>,
    failed: usize,
}

/// Host measurements of one pass.
struct Host {
    setup_s: Vec<f64>,
    wall_ns: u64,
    heap: alloc::HeapCost,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The simulated end-to-end metrics of a pass, after the tail-sample check.
fn sim_metrics(w: Workload, s: &Served) -> Result<Vec<Metric>, String> {
    check_tail(&format!("{}: completed requests", w.name()), s.completed, 99.0)?;
    Ok(vec![
        m("sim_ttft_p50_ms", "sim_ms", ms(percentile(&s.ttft_ns, 50.0))),
        m("sim_ttft_p99_ms", "sim_ms", ms(percentile(&s.ttft_ns, 99.0))),
        m("sim_tpot_p50_ms", "sim_ms", ms(percentile(&s.tpot_ns, 50.0))),
        m("sim_tpot_p99_ms", "sim_ms", ms(percentile(&s.tpot_ns, 99.0))),
        m("sim_e2e_p99_ms", "sim_ms", ms(percentile(&s.e2e_ns, 99.0))),
        m("sim_goodput_rps", "req/s", goodput(&s.latencies, w.slo(), s.span_ns)),
        m("sim_tok_s", "tok/s", per_second(s.tokens, s.span_ns)),
        m("sim_ok_frac", "ratio", s.completed as f64 / s.submitted as f64),
    ])
}

/// Sets up [`SETUP_REPEATS`] times and serves the last set-up, untraced.
fn plain_pass(args: &Args) -> Result<(Served, Host), String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        drop(prepared.take());
        let start = Instant::now();
        prepared = Some(setup(args.workload, args.seed));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let prepared = prepared.expect("SETUP_REPEATS is positive");
    let outcome = serve(prepared, |_, e| e);
    let host = Host { setup_s, wall_ns: outcome.wall_ns, heap: outcome.heap };
    Ok((evaluate(outcome)?, host))
}

/// Every pass of a run must produce the same simulated results.
fn check_identical(w: Workload, passes: &[(Served, Host)]) -> Result<(), String> {
    let first = &passes[0];
    for (i, p) in passes.iter().enumerate().skip(1) {
        if p.0.fingerprint != first.0.fingerprint {
            return Err(format!("{}: pass {i} simulated differently from pass 0", w.name()));
        }
    }
    Ok(())
}

/// How far one pass's heap counts may stray from another's. The counts are
/// a function of the simulated work, except that std's `HashMap` seeds its
/// hasher per map, and whether a table grows or rehashes in place depends on
/// where the hashes land: that moves a pass by a few allocations and a few
/// KiB out of millions and hundreds of MiB.
const HEAP_TOLERANCE: f64 = 1e-4;

/// The median of one heap count over the passes, after checking that the
/// passes agree to within [`HEAP_TOLERANCE`].
fn repeatable(w: Workload, what: &str, counts: impl Iterator<Item = u64>) -> Result<f64, String> {
    let counts: Vec<f64> = counts.map(|c| c as f64).collect();
    let (lo, hi) = counts.iter().fold((f64::MAX, 0.0f64), |(lo, hi), &c| (lo.min(c), hi.max(c)));
    if hi - lo > HEAP_TOLERANCE * hi {
        return Err(format!("{}: {what} per pass do not repeat: {counts:?}", w.name()));
    }
    println!(
        "# {what} per pass: {}",
        counts.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(" ")
    );
    Ok(median(&counts))
}

/// Untraced passes until the time is up: the end-to-end metrics.
fn measured_run(args: &Args, budget: Budget) -> Result<RunResult, String> {
    let w = args.workload;
    let mut passes = Vec::new();
    while budget.another(passes.len()) {
        passes.push(plain_pass(args)?);
    }
    check_identical(w, &passes)?;
    let heaps: Vec<alloc::HeapCost> = passes.iter().map(|p| p.1.heap).collect();
    let allocs = repeatable(w, "allocations", heaps.iter().map(|h| h.allocs))?;
    let peak = repeatable(w, "peak live heap", heaps.iter().map(|h| h.peak_bytes))?;
    let setups: Vec<f64> = passes.iter().flat_map(|p| p.1.setup_s.iter().copied()).collect();

    let s = &passes[0].0;
    let n = s.submitted as f64;
    let host_ms: Vec<f64> = passes.iter().map(|p| ms(p.1.wall_ns) / n).collect();
    // Host wall time drifts by a quarter between runs on a shared VM, more
    // than an end-to-end bound may allow, so it is reported per layer by
    // the traced run and only printed here.
    println!(
        "# {} passes; host ms/req per pass: {} (median {:.4})",
        passes.len(),
        host_ms.iter().map(|v| format!("{v:.3}")).collect::<Vec<_>>().join(" "),
        median(&host_ms)
    );
    let mut out = sim_metrics(w, s)?;
    out.extend([
        m("host_allocs_per_req", "count", allocs / n),
        m("host_peak_heap_mib", "MiB", peak / (1024.0 * 1024.0)),
        m("setup_s", "s", median(&setups)),
    ]);
    print_summary(s);
    Ok(RunResult { metrics: out, failed: s.shed + s.lost })
}

fn print_summary(s: &Served) {
    println!(
        "# submitted {} completed {} shed {} lost {}; sim_fail_frac {}; {} latency samples, {} beyond p99",
        s.submitted,
        s.completed,
        s.shed,
        s.lost,
        (s.shed + s.lost) as f64 / s.submitted as f64,
        s.completed,
        stats::samples_beyond(s.completed, 99.0),
    );
}

/// One traced pass: its results, host cost and recorder.
struct TracedPass {
    served: Served,
    wall_ns: u64,
    heap: alloc::HeapCost,
    recorder: Recorder,
}

fn traced_pass(args: &Args) -> Result<TracedPass, String> {
    let prepared = setup(args.workload, args.seed);
    let recorder = Recorder::shared();
    let outcome = serve(prepared, |replica, e| Traced::new(e, replica, recorder.clone()));
    let (wall_ns, heap) = (outcome.wall_ns, outcome.heap);
    let served = evaluate(outcome)?;
    let recorder = std::rc::Rc::try_unwrap(recorder)
        .map_err(|_| "an engine outlived its serve".to_string())?
        .into_inner();
    Ok(TracedPass { served, wall_ns, heap, recorder })
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Untraced and traced passes in turn until the time is up, then the
/// micro-timings: the per-layer metrics.
fn traced_run(args: &Args, budget: Budget) -> Result<RunResult, String> {
    let w = args.workload;
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    while budget.another(traced.len()) {
        plain.push(plain_pass(args)?);
        traced.push(traced_pass(args)?);
    }
    check_identical(w, &plain)?;
    if let Some(i) = traced.iter().position(|t| t.served.fingerprint != plain[0].0.fingerprint) {
        return Err(format!("{}: traced pass {i} simulated differently", w.name()));
    }

    let t = &traced[traced.len() - 1];
    let s = &t.served;
    let n = s.submitted as f64;
    let untraced_ms = median(&plain.iter().map(|p| ms(p.1.wall_ns) / n).collect::<Vec<_>>());
    let traced_ms = median(&traced.iter().map(|p| ms(p.wall_ns) / n).collect::<Vec<_>>());
    let engine_ms =
        median(&traced.iter().map(|p| ms(p.recorder.engine_ns()) / n).collect::<Vec<_>>());
    let serving_ms = median(
        &traced
            .iter()
            .map(|p| ms(p.wall_ns.saturating_sub(p.recorder.engine_ns())) / n)
            .collect::<Vec<_>>(),
    );

    let rec = &t.recorder;
    let rounds: u64 = rec.engines.iter().map(|e| e.rounds_planned).sum();
    let degraded: u64 = rec.engines.iter().map(|e| e.degraded_rounds).sum();
    let sim = match s.counters.single {
        Some((sim, ..)) => sim,
        None => rec.engines.iter().fold(SimCounters::default(), |mut acc, e| {
            acc.add(&e.sim);
            acc
        }),
    };
    let c = &s.counters;
    let b = &c.batching;
    let rc = &c.recovery;
    let per_req = |v: u64| v as f64 / n;
    let done = &c.replica_completed;
    let imbalance = {
        let mean = done.iter().sum::<usize>() as f64 / done.len().max(1) as f64;
        let max = done.iter().copied().max().unwrap_or(0) as f64;
        if mean > 0.0 {
            max / mean
        } else {
            0.0
        }
    };

    // Micro-timings on inputs drawn from this workload.
    let prepared = setup(w, args.seed);
    let micro_start = Instant::now();
    let plan = |k| micro::plan_round_us(&prepared, k);
    let out = vec![
        m("gpusim.events_per_req", "count", per_req(sim.events)),
        m("gpusim.kernels_per_req", "count", per_req(sim.kernels)),
        m("gpusim.comm_hidden_frac", "ratio", ratio(sim.busy_overlap_ns, sim.busy_comm_ns)),
        m("gpusim.compute_busy_frac", "ratio", ratio(sim.busy_compute_ns, sim.device_ns)),
        m("gpusim.kernels_failed", "count", sim.kernels_failed as f64),
        m("core.host_ms_per_req", "ms", engine_ms),
        m("core.allocs_per_req", "count", per_req(rec.engine_allocs())),
        m("core.calls_per_req", "count", per_req(rec.spans.len() as u64)),
        m("core.rounds_per_req", "count", per_req(rounds)),
        m("core.degraded_rounds", "count", degraded as f64),
        m("core.plan_round_us.b1", "us", plan(1)),
        m("core.plan_round_us.b2", "us", plan(2)),
        m("core.plan_round_us.b4", "us", plan(4)),
        m("core.plan_round_us.b8", "us", plan(8)),
        m("model.assemble_us.opt30b", "us", micro::assemble_us(&prepared, &ModelConfig::opt_30b())),
        m("model.assemble_us.gpt8b", "us", micro::assemble_us(&prepared, &ModelConfig::gpt_8b())),
        m("serving.host_ms_per_req", "ms", serving_ms),
        m("serving.fail_frac", "ratio", (s.shed + s.lost) as f64 / n),
        m("kv.grow_release_ns", "ns", micro::kv_op_ns(&prepared)),
        m("kv.preemptions", "count", b.preemptions as f64),
        m("kv.evicted_blocks", "count", b.evicted_blocks as f64),
        m("kv.out_of_blocks", "count", b.out_of_blocks as f64),
        m("sched.mean_occupancy", "ratio", b.avg_occupancy()),
        m("sched.padding_frac", "ratio", b.padding_waste()),
        m("sched.batches_per_req", "count", per_req(b.batches)),
        m("prefix.hit_frac", "ratio", ratio(c.prefix.hits, c.prefix.lookups)),
        m("prefix.cached_token_frac", "ratio", c.prefix.cached_fraction()),
        m("router.route_us_per_job", "us", micro::route_us_per_job(&prepared)),
        m("router.replica_imbalance", "ratio", imbalance),
        m("cluster.rerouted", "count", c.rerouted as f64),
        m("cluster.renumbered_streams", "count", c.renumbered_streams as f64),
        m("recovery.detection_ms", "sim_ms", ms(rc.detection_latency.as_nanos())),
        m("recovery.drain_ms", "sim_ms", ms(rc.drain_time.as_nanos())),
        m("recovery.replan_ms", "sim_ms", ms(rc.replan_time.as_nanos())),
        m("recovery.recompute_tokens", "count", rc.recompute_tokens as f64),
        m("admission.shed", "count", s.shed as f64),
        m("host_ms_per_req", "ms", untraced_ms),
        m("host.alloc_mib_per_req", "MiB", t.heap.bytes as f64 / n / (1024.0 * 1024.0)),
        m("host.trace_overhead_frac", "ratio", (traced_ms - untraced_ms) / untraced_ms),
    ];
    println!(
        "# {} untraced + {} traced passes; micro-timings {:.2} s",
        plain.len(),
        traced.len(),
        micro_start.elapsed().as_secs_f64()
    );
    print_summary(s);
    dump_spans(args, rec);
    Ok(RunResult { metrics: out, failed: s.shed + s.lost })
}

/// Spans written per traced run: a pass makes several hundred per request,
/// and the first ones cover the early requests end to end.
const SPAN_DUMP_LIMIT: usize = 100_000;

/// Writes the first spans of the last traced pass as CSV.
fn dump_spans(args: &Args, rec: &Recorder) {
    let dir = std::path::Path::new(".bench_spans");
    let path = dir.join(format!("{}-seed{}.csv", args.workload.name(), args.seed));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, rec.to_csv(SPAN_DUMP_LIMIT)));
    match written {
        Ok(()) => println!(
            "# {} of {} spans written to {}",
            rec.spans.len().min(SPAN_DUMP_LIMIT),
            rec.spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, x) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let (name, value, unit) = (x.name, x.value, x.unit);
        let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let budget = Budget::new(args.seconds);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    println!(
        "# perfbench rev={} nproc={nproc} profile={profile} core=seq workload={} seed={} trace={}",
        git_rev(),
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    println!(
        "# open loop: {} requests, Poisson arrivals at {} req/s in simulated time, so the \
         generator is never late",
        args.workload.requests(),
        args.workload.rate()
    );
    let result = if args.trace { traced_run(&args, budget) } else { measured_run(&args, budget) };
    let result = result.and_then(|r| match r.metrics.iter().find(|x| !x.value.is_finite()) {
        Some(x) => Err(format!("{} is not a number: {}", x.name, x.value)),
        None => Ok(r),
    });
    let attempted = args.workload.requests();
    match result {
        Ok(report) => {
            for x in &report.metrics {
                println!("# {:<28} {:>16.6} {}", x.name, x.value, x.unit);
            }
            println!("{}", result_json(true, attempted, report.failed, &report.metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: check failed: {e}");
            println!("{}", result_json(false, attempted, attempted, &[]));
            ExitCode::FAILURE
        }
    }
}
