//! Command-line front end for the plan verifier, the trace sanitizer and
//! the schedule-space model checker.
//!
//! ```text
//! liger-verify plans            statically verify the default deployments
//! liger-verify <trace.json>...  sanitize exported Chrome traces
//! liger-verify explore [...]    model-check event interleavings (DPOR)
//! ```
//!
//! Exit codes: 0 — clean; 1 — diagnostics reported; 2 — usage, I/O or
//! parse error.

use std::collections::VecDeque;
use std::process::ExitCode;

use liger_collectives::ClusterTopology;
use liger_core::introspect::LaunchProgram;
use liger_core::{plan_round, FuncVec, LigerConfig, PlanParams, SyncMode};
use liger_gpu_sim::{DeviceSpec, SimTime, Trace, WindowRule};
use liger_model::{BatchShape, CostModel, ModelConfig};
use liger_verify::model_checker::{
    adversarial_battery, explore, Exploration, McProgram, MC_REDUCTION,
};
use liger_verify::{
    check_disagg_feasibility, check_kv_pool_feasibility, check_prefix_residency, render,
    sanitize_parsed, verify_deployment, Diagnostic, ReportFormat,
};

const USAGE: &str = "\
liger-verify — static plan verification, trace sanitization and
schedule-space model checking for the Liger reproduction.

usage:
  liger-verify [options] plans
  liger-verify [options] <trace.json>...
  liger-verify [options] explore [<target>...]

explore targets (default: all):
  battery           the hand-built adversarial battery; each case's
                    expected MC-* rules are checked (an expected rule that
                    fails to fire is itself a diagnostic)
  ablation-batching ablation-prefix ablation-recovery ablation-chaos
  ablation-nccl     a fixed plan shape (tiny model, 2 GPUs) recorded
                    through the engine's own launch code: batching, prefix
                    and nccl in hybrid sync, recovery in CPU-GPU sync,
                    chaos in inter-stream sync; explored under the
                    conservative rule
  ablation          all five ablation programs
  all               battery + all five ablation programs
  <trace.json>      re-explore the schedule neighborhood of an exported
                    Chrome trace (approximate reconstruction)

options:
  --json            one JSON object per diagnostic (NDJSON) on stdout,
                    plus one summary object per explored program
  --max-diags <n>   print at most n diagnostics per subject; the
                    suppressed count is always stated
  --rule <r>        explore window rule: conservative (default) |
                    unguarded  (battery cases keep their own rule)
  --bound <n>       max schedules replayed per program (default 256)
  --min-ratio <x>   report MC-REDUCTION when a program's DPOR reduction
                    ratio (explored+pruned)/explored falls below x

exit codes:
  0  clean — no diagnostics
  1  diagnostics reported
  2  usage, I/O or parse error";

/// Options shared by every subcommand, parsed from anywhere on the line.
struct Opts {
    format: ReportFormat,
    max_diags: Option<usize>,
    rule: WindowRule,
    bound: u64,
    min_ratio: f64,
}

impl Default for Opts {
    fn default() -> Opts {
        Opts {
            format: ReportFormat::Text,
            max_diags: None,
            rule: WindowRule::Conservative,
            bound: 256,
            min_ratio: 0.0,
        }
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts::default();
    let mut rest: Vec<String> = Vec::new();
    let mut it = raw.into_iter();
    while let Some(a) = it.next() {
        let take = |it: &mut std::vec::IntoIter<String>, flag: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{flag} requires a value"))
        };
        let parsed: Result<(), String> = match a.as_str() {
            "--json" => {
                opts.format = ReportFormat::Json;
                Ok(())
            }
            "--max-diags" => take(&mut it, "--max-diags").and_then(|v| {
                v.parse().map(|n| opts.max_diags = Some(n)).map_err(|e| format!("--max-diags: {e}"))
            }),
            "--rule" => {
                take(&mut it, "--rule").and_then(|v| WindowRule::parse(&v).map(|r| opts.rule = r))
            }
            "--bound" => take(&mut it, "--bound").and_then(|v| {
                v.parse().map(|n| opts.bound = n).map_err(|e| format!("--bound: {e}"))
            }),
            "--min-ratio" => take(&mut it, "--min-ratio").and_then(|v| {
                v.parse().map(|x| opts.min_ratio = x).map_err(|e| format!("--min-ratio: {e}"))
            }),
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ => {
                rest.push(a);
                Ok(())
            }
        };
        if let Err(e) = parsed {
            eprintln!("liger-verify: {e}");
            return ExitCode::from(2);
        }
    }
    match rest.first().map(String::as_str) {
        Some("plans") => run_plans(&opts),
        Some("explore") => run_explore(&rest[1..], &opts),
        Some(_) => run_traces(&rest, &opts),
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Prints one subject's report in the selected format and returns its
/// diagnostic count. Text reports with findings go to stderr; everything
/// else (ok lines, NDJSON) goes to stdout.
fn report(subject: &str, diags: &[Diagnostic], opts: &Opts) -> usize {
    let rendered = render(subject, diags, opts.format, opts.max_diags);
    match opts.format {
        ReportFormat::Text => {
            if diags.is_empty() {
                println!("  {rendered}");
            } else {
                for line in rendered.lines() {
                    eprintln!("  {line}");
                }
            }
        }
        ReportFormat::Json => {
            if !rendered.is_empty() {
                println!("{rendered}");
            }
        }
    }
    diags.len()
}

fn finish(total: usize, clean_note: &str, opts: &Opts) -> ExitCode {
    if total == 0 {
        if opts.format == ReportFormat::Text {
            println!("liger-verify: {clean_note}");
        }
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Statically verifies the paper's default deployments: each model of the
/// zoo on its smallest fitting V100/A100 world, with the launch program of
/// a representative two-batch prefill workload.
fn run_plans(opts: &Opts) -> ExitCode {
    let deployments: Vec<(ModelConfig, DeviceSpec, usize)> = vec![
        (ModelConfig::tiny_test(), DeviceSpec::test_device(), 2),
        (ModelConfig::opt_30b(), DeviceSpec::v100_16gb(), 8),
        (ModelConfig::gpt_8b(), DeviceSpec::v100_16gb(), 2),
    ];
    let mut total = 0usize;
    for (cfg, spec, world) in &deployments {
        let lc = LigerConfig::default().with_sync_mode(SyncMode::Hybrid);
        let shape = BatchShape::prefill(1, 64);
        let prog = launch_program(cfg, SyncMode::Hybrid, shape, 2, *world);
        // Fault budget 1: the single permanent loss the fault tier injects.
        let mut diags = verify_deployment(&prog, cfg, &lc, spec, *world as u32, shape, 1);
        // The continuous-batching scheduler's default pool sizing must fit
        // beside the weight shard, healthy and degraded.
        let pool =
            liger_kvcache::BlockPoolConfig::sized_for(cfg, *world as u32, spec.mem_capacity, 16);
        diags.extend(check_kv_pool_feasibility(cfg, &lc, spec, *world as u32, &pool, shape, 1));
        // With the prefix cache on, the shared sizing widens the budget for
        // up to 256 pinned prefix tokens; the pinned chains must remain
        // resident without deadlocking admission, healthy and degraded.
        let shared = liger_kvcache::BlockPoolConfig::sized_for_shared(
            cfg,
            *world as u32,
            spec.mem_capacity,
            16,
            256,
        );
        diags.extend(check_prefix_residency(cfg, &lc, spec, *world as u32, &shared, shape, 256, 1));
        // Node-aware plan: the same deployment disaggregated over a
        // two-node cluster (one prefill node, one decode node, `world`
        // devices each). Each worker class must fit its node's memory with
        // its own phase shape (the representative prompt prefill and the
        // same decode-bound shape the nccl ablation drives), healthy and
        // degraded.
        let cluster = ClusterTopology::v100_cluster(2, *world);
        diags.extend(check_disagg_feasibility(
            cfg,
            &lc,
            spec,
            &cluster,
            &pool,
            BatchShape::prefill(1, 256),
            BatchShape::decode(4, 128),
            1,
        ));
        total += report(&format!("{} on {}x {}", cfg.name, world, spec.name), &diags, opts);
    }
    finish(total, "all default plans verified clean", opts)
}

fn run_traces(paths: &[String], opts: &Opts) -> ExitCode {
    let mut total = 0usize;
    for path in paths {
        let input = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("liger-verify: {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let parsed = match Trace::parse_chrome_json(&input) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("liger-verify: {path}: {e}");
                return ExitCode::from(2);
            }
        };
        total += report(path, &sanitize_parsed(&parsed), opts);
    }
    finish(total, &format!("{} trace(s) sanitized clean", paths.len()), opts)
}

// ---------------------------------------------------------------------------
// explore
// ---------------------------------------------------------------------------

/// Plans `batches` identical batches to completion and records the
/// program the engine's launch code issues for them in sync mode `sync`.
fn launch_program(
    cfg: &ModelConfig,
    sync: SyncMode,
    shape: BatchShape,
    batches: u64,
    world: usize,
) -> LaunchProgram {
    let lc = LigerConfig::default().with_sync_mode(sync);
    let cm = CostModel::v100_node();
    let params = PlanParams {
        contention_factor: lc.contention_factor,
        division_factor: lc.division_factor,
        enable_decomposition: lc.enable_decomposition,
        straggler_factor: 1.0,
    };
    let mut processing: VecDeque<FuncVec> = (0..batches)
        .map(|b| FuncVec::assemble(b, shape, SimTime::ZERO, &cm, cfg, world as u32))
        .collect();
    let mut plans = Vec::new();
    while let Some(p) = plan_round(&mut processing, &params, &cm) {
        plans.push(p);
    }
    LaunchProgram::from_plans(&plans, world, sync)
}

/// The five `ablation-*` launch programs: fixed plan shapes on the tiny
/// model over a 2-GPU world, one or more in each of the three sync modes,
/// recorded through the engine's launch code and small enough to explore
/// exhaustively. The names are stable CLI targets; they label plan shapes,
/// not the `ablation_*` bench binaries, which drive their own workloads.
fn ablation_programs() -> Vec<(&'static str, McProgram)> {
    let tiny = ModelConfig::tiny_test();
    let cases: [(&str, SyncMode, BatchShape, u64); 5] = [
        // Two interleaved prefill batches, hybrid sync.
        ("ablation-batching", SyncMode::Hybrid, BatchShape::prefill(1, 64), 2),
        // Three in-flight prefill batches, hybrid sync.
        ("ablation-prefix", SyncMode::Hybrid, BatchShape::prefill(1, 96), 3),
        // Two prefill batches, CPU-GPU sync: every round ends in a
        // recorded event per device and stream that the host blocks on.
        ("ablation-recovery", SyncMode::CpuGpu, BatchShape::prefill(1, 64), 2),
        // Two prefill batches, inter-stream sync: no E1 and no round-end
        // records, rounds chained on E2 alone.
        ("ablation-chaos", SyncMode::InterStream, BatchShape::prefill(1, 64), 2),
        // Two decode batches (communication-heavy), hybrid sync.
        ("ablation-nccl", SyncMode::Hybrid, BatchShape::decode(4, 128), 2),
    ];
    cases
        .into_iter()
        .map(|(name, sync, shape, batches)| {
            let prog = launch_program(&tiny, sync, shape, batches, 2);
            (name, McProgram::from_launch_program(name, &prog))
        })
        .collect()
}

/// Prints the per-program exploration metrics (stats line in text mode,
/// summary object in JSON mode) and folds `--min-ratio` into the
/// diagnostics.
fn explore_report(x: &Exploration, extra: Vec<Diagnostic>, opts: &Opts) -> usize {
    let mut diags = x.diagnostics.clone();
    diags.extend(extra);
    if opts.min_ratio > 0.0 && x.choice_points > 0 && x.pruning_ratio() < opts.min_ratio {
        diags.push(Diagnostic::new(
            MC_REDUCTION,
            format!(
                "DPOR reduction ratio {:.2} below required {:.2} \
                 ({} explored, {} pruned)",
                x.pruning_ratio(),
                opts.min_ratio,
                x.explored,
                x.pruned
            ),
        ));
    }
    match opts.format {
        ReportFormat::Text => {
            println!(
                "  {}: {} schedule(s) explored, {} pruned, {} choice point(s), \
                 {} terminal state(s), reduction {:.2}x{}{}",
                x.program,
                x.explored,
                x.pruned,
                x.choice_points,
                x.terminal_hashes.len(),
                x.pruning_ratio(),
                if x.truncated { ", TRUNCATED by --bound" } else { "" },
                format_args!(" [{}]", x.rule),
            );
        }
        ReportFormat::Json => {
            use liger_gpu_sim::json::JsonObject;
            let mut line = String::new();
            let mut obj = JsonObject::begin(&mut line);
            obj.field("subject", &x.program.as_str());
            obj.field("rule", &x.rule.to_string().as_str());
            obj.field("explored", &x.explored);
            obj.field("pruned", &x.pruned);
            obj.field("choice_points", &x.choice_points);
            obj.field("terminal_states", &(x.terminal_hashes.len() as u64));
            obj.field("reduction_ratio", &x.pruning_ratio());
            obj.field("truncated", &x.truncated);
            obj.end();
            println!("{line}");
        }
    }
    report(&x.program, &diags, opts)
}

fn run_explore(targets: &[String], opts: &Opts) -> ExitCode {
    let mut names: Vec<String> =
        if targets.is_empty() { vec!["all".into()] } else { targets.to_vec() };
    // "all"/"ablation" expand in place.
    let mut expanded: Vec<String> = Vec::new();
    let ablation_names = [
        "ablation-batching",
        "ablation-prefix",
        "ablation-recovery",
        "ablation-chaos",
        "ablation-nccl",
    ];
    for n in names.drain(..) {
        match n.as_str() {
            "all" => {
                expanded.push("battery".into());
                expanded.extend(ablation_names.iter().map(|s| s.to_string()));
            }
            "ablation" => expanded.extend(ablation_names.iter().map(|s| s.to_string())),
            _ => expanded.push(n),
        }
    }

    let mut ablations: Option<Vec<(&'static str, McProgram)>> = None;
    let mut total = 0usize;
    for target in &expanded {
        match target.as_str() {
            "battery" => {
                for case in adversarial_battery() {
                    let x = explore(&case.program, case.rule, opts.bound);
                    // An expected rule that fails to fire is itself a
                    // finding — the battery is a self-test of the checker.
                    let mut extra = Vec::new();
                    for want in case.expect {
                        if !x.diagnostics.iter().any(|d| &d.rule == want) {
                            extra.push(Diagnostic::new(
                                want,
                                "battery expectation: rule did not fire".to_string(),
                            ));
                        }
                    }
                    // Expected diagnostics are the point; only unexpected
                    // ones (plus unmet expectations) count against exit 0.
                    let unexpected: Vec<Diagnostic> = x
                        .diagnostics
                        .iter()
                        .filter(|d| !case.expect.contains(&d.rule))
                        .cloned()
                        .collect();
                    let shown = Exploration { diagnostics: unexpected, ..x };
                    total += explore_report(&shown, extra, opts);
                }
            }
            name if ablation_names.contains(&name) => {
                let progs = ablations.get_or_insert_with(ablation_programs);
                let (_, prog) = progs.iter().find(|(n, _)| *n == name).expect("known name");
                let x = explore(prog, opts.rule, opts.bound);
                total += explore_report(&x, Vec::new(), opts);
            }
            path => {
                let input = match std::fs::read_to_string(path) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("liger-verify: explore: {path}: {e}");
                        return ExitCode::from(2);
                    }
                };
                let parsed = match Trace::parse_chrome_json(&input) {
                    Ok(p) => p,
                    Err(e) => {
                        eprintln!("liger-verify: explore: {path}: {e}");
                        return ExitCode::from(2);
                    }
                };
                let prog = McProgram::from_trace(path, &parsed.trace);
                let x = explore(&prog, opts.rule, opts.bound);
                total += explore_report(&x, Vec::new(), opts);
            }
        }
    }
    finish(total, "schedule space explored clean", opts)
}
