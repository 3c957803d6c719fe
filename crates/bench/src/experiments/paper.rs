//! The paper's Table 1 and Figures 3–14.

use liger_core::SyncMode;
use liger_gpu_sim::prelude::*;
use liger_model::{
    assemble, class_totals, equal_split_axis, layer_ops, BatchShape, GemmSplitAxis, LayerOp,
    ModelConfig,
};
use liger_serving::{ArrivalProcess, DecodeTraceConfig, PrefillTraceConfig};

use super::{ExpConfig, ExpResult};
use crate::harness::{
    intra_capacity, points_table, rate_grid, run_serving, saturated, sweep, EngineKind, Node, Table,
};

/// **Table 1** — model specifications: the evaluated models with the
/// geometry of the paper's Table 1 plus the derived weight footprint.
pub fn table1_models(_: &ExpConfig) -> ExpResult {
    let mut t =
        Table::new(&["Name", "Parameters", "Layers", "Heads", "Hidden Size", "Prec.", "Weights"]);
    for m in ModelConfig::zoo() {
        t.row(&[
            m.name.clone(),
            format!("{:.1}B", m.param_count() as f64 / 1e9),
            m.layers.to_string(),
            m.heads.to_string(),
            m.hidden.to_string(),
            if m.dtype_bytes == 2 { "FP16".into() } else { format!("{}B", m.dtype_bytes) },
            format!("{:.0}GB", m.weight_bytes() as f64 / 1e9),
        ]);
    }
    let mut r = ExpResult::default();
    r.line("Table 1: model specifications");
    r.table(t);
    r
}

/// **Figure 3** — strong scaling of the intra-operator approach.
///
/// The paper's §2.2.1 case study: OPT-30B on the V100/NVLink node and
/// GLM-130B on the A100/PCIe node, layer-reduced to fit fewer devices (the
/// paper notes identical layers make this scaling-neutral), at 1/2/4
/// devices. Reports iteration latency, speedup over one device and the
/// communication share of the iteration. Paper reference points: OPT-30B
/// speedup 2.58× at 4 GPUs with 20.7% communication; GLM-130B speedup
/// 1.91× with 47.1% communication.
pub fn fig03_intra_scaling(_: &ExpConfig) -> ExpResult {
    let shape = BatchShape::prefill(2, 64);
    let cases = [
        (ModelConfig::opt_30b().with_layers(12), Node::V100, "OPT-30B (12L) / V100-NVLink"),
        (ModelConfig::glm_130b().with_layers(18), Node::A100, "GLM-130B (18L) / A100-PCIe"),
    ];
    let mut r = ExpResult::default();
    for (model, node, label) in cases {
        let mut t = Table::new(&["devices", "iter latency (ms)", "speedup", "comm share"]);
        let mut base = None;
        for world in [1usize, 2, 4] {
            if model.heads % world as u32 != 0 {
                continue;
            }
            // Measured end-to-end single-iteration latency on the simulator.
            let trace = PrefillTraceConfig {
                count: 5,
                batch: shape.batch,
                seq_min: 64,
                seq_max: 64,
                arrivals: ArrivalProcess::Constant { rate: 1.0 },
                seed: 0,
            }
            .generate();
            let metrics = run_serving(&EngineKind::IntraOp, &model, node, world, trace);
            let lat = metrics.avg_latency().as_millis_f64();
            let base_lat = *base.get_or_insert(lat);
            // Analytic communication share of the iteration.
            let cm = node.cost_model();
            let (compute, comm) = class_totals(&assemble(&cm, &model, shape, world as u32));
            let share = comm.as_secs_f64() / (compute + comm).as_secs_f64();
            t.row(&[
                world.to_string(),
                format!("{lat:.2}"),
                format!("{:.2}x", base_lat / lat),
                format!("{:.1}%", share * 100.0),
            ]);
        }
        r.line(format!("Figure 3: strong scaling of Intra-Op — {label}"));
        r.table(t);
    }
    r.line("Paper: OPT-30B 2.58x @4 GPUs, 20.7% comm; GLM-130B 1.91x @4 GPUs, 47.1% comm.");
    r
}

/// Kernel count, share of time in the top 10% longest kernels, and the
/// max/median duration ratio.
fn spread_stats(durs_ns: &mut [u64]) -> (usize, f64, f64) {
    durs_ns.sort_unstable();
    let n = durs_ns.len();
    let total: u64 = durs_ns.iter().sum();
    let top = n.div_ceil(10);
    let top_share: u64 = durs_ns[n - top..].iter().sum();
    let median = durs_ns[n / 2].max(1);
    let max = *durs_ns.last().unwrap();
    (n, top_share as f64 / total as f64, max as f64 / median as f64)
}

/// **Figure 4** — kernel-duration distributions.
///
/// (a) Normalized kernel durations across model sizes (8B–175B): as models
/// grow, a few kernels dominate the iteration. (b) Durations across input
/// sizes for one model. Per configuration: kernel count, the share of total
/// time taken by the top 10% longest kernels, and the max/median duration
/// ratio — the "widely-varied kernel duration" statistics that motivate
/// runtime decomposition (§2.3.3).
pub fn fig04_kernel_durations(_: &ExpConfig) -> ExpResult {
    let cm = Node::V100.cost_model();
    let durations = |model: &ModelConfig, batch: u32, seq: u32| -> Vec<u64> {
        assemble(&cm, model, BatchShape::prefill(batch, seq), 4)
            .iter()
            .map(|o| o.duration.as_nanos())
            .collect()
    };
    let mut r = ExpResult::default();
    r.line("Figure 4(a): kernel durations across models (tp=4, batch 2 x seq 64, V100 node)");
    let mut t = Table::new(&["model", "kernels/iter", "top-10% share", "max/median"]);
    for model in [
        ModelConfig::gpt_8b(),
        ModelConfig::opt_30b(),
        ModelConfig::opt_66b(),
        ModelConfig::glm_130b(),
        ModelConfig::gpt_175b(),
    ] {
        let (n, share, ratio) = spread_stats(&mut durations(&model, 2, 64));
        t.row(&[
            model.name.clone(),
            n.to_string(),
            format!("{:.1}%", share * 100.0),
            format!("{ratio:.1}x"),
        ]);
    }
    r.table(t);

    r.line("Figure 4(b): kernel durations across input sizes (OPT-30B, tp=4)");
    let mut t = Table::new(&[
        "batch x seq",
        "kernels/iter",
        "top-10% share",
        "max/median",
        "mean kernel (us)",
    ]);
    for (batch, seq) in [(2u32, 16u32), (2, 64), (2, 128), (8, 64), (8, 128)] {
        let mut durs = durations(&ModelConfig::opt_30b(), batch, seq);
        let mean_us = durs.iter().sum::<u64>() as f64 / durs.len() as f64 / 1e3;
        let (n, share, ratio) = spread_stats(&mut durs);
        t.row(&[
            format!("{batch} x {seq}"),
            n.to_string(),
            format!("{:.1}%", share * 100.0),
            format!("{ratio:.1}x"),
            format!("{mean_us:.1}"),
        ]);
    }
    r.table(t);
    r.line(
        "Paper: larger models concentrate time in fewer kernels; durations vary with input size.",
    );
    r
}

const ROUNDS: usize = 50;
const COMPUTE_US: u64 = 300;
const COMM_US: u64 = 120;

/// Launches one round's compute and comm kernel on every device.
fn launch_fig08_round(sim: &mut Simulation, d: usize) {
    let dev = DeviceId(d);
    sim.launch(
        HostId(d),
        StreamId::new(dev, 0),
        KernelSpec::compute("c", SimDuration::from_micros(COMPUTE_US)),
    );
    sim.launch(
        HostId(d),
        StreamId::new(dev, 1),
        KernelSpec::comm("m", SimDuration::from_micros(COMM_US)),
    );
}

/// CPU–GPU sync: every rank blocks on its own device, as the paper's
/// CPU-GPU arm does; the next round starts when the slowest rank has woken.
struct CpuGpuSync {
    launched: usize,
    syncs_pending: usize,
}

impl CpuGpuSync {
    fn launch_round(&mut self, sim: &mut Simulation) {
        for d in 0..4 {
            launch_fig08_round(sim, d);
            let ev = sim.record_event(HostId(d), StreamId::new(DeviceId(d), 0));
            sim.host_sync(HostId(d), ev, self.launched as u64);
        }
        self.syncs_pending = 4;
        self.launched += 1;
    }
}

impl Driver for CpuGpuSync {
    fn start(&mut self, sim: &mut Simulation) {
        self.launch_round(sim);
    }
    fn on_wake(&mut self, wake: Wake, sim: &mut Simulation) {
        if matches!(wake, Wake::HostSynced { .. }) {
            self.syncs_pending -= 1;
            if self.syncs_pending == 0 && self.launched < ROUNDS {
                self.launch_round(sim);
            }
        }
    }
}

/// Hybrid sync: E1 before the round's last compute kernel wakes the CPU to
/// pre-launch the next round while this one still runs.
struct HybridSync {
    launched: usize,
}

impl HybridSync {
    fn launch_round(&mut self, sim: &mut Simulation) {
        for d in 0..4 {
            if d == 0 && self.launched + 1 < ROUNDS {
                let e1 = sim.record_event(HostId(0), StreamId::new(DeviceId(0), 0));
                sim.notify_on_event(e1, HostId(0), self.launched as u64);
            }
            launch_fig08_round(sim, d);
        }
        self.launched += 1;
    }
}

impl Driver for HybridSync {
    fn start(&mut self, sim: &mut Simulation) {
        self.launch_round(sim);
    }
    fn on_wake(&mut self, wake: Wake, sim: &mut Simulation) {
        if matches!(wake, Wake::EventFired { .. }) && self.launched < ROUNDS {
            self.launch_round(sim);
        }
    }
}

/// **Figure 8** — synchronization approaches at the kernel level.
///
/// A microbenchmark of §3.4's coordination strategies on a bare two-round
/// schedule (compute run ∥ comm subset, repeated), measuring the gap the
/// CPU adds between rounds. CPU–GPU sync pays sync latency + per-rank wake
/// jitter + relaunch overhead at every boundary (> 20 µs across 4 GPUs,
/// §4.5); hybrid sync pre-launches at E1 and the gap vanishes.
pub fn fig08_sync_microbench(_: &ExpConfig) -> ExpResult {
    let run = |drv: &mut dyn Driver| -> f64 {
        let mut b = Simulation::builder().devices(DeviceSpec::v100_16gb(), 4);
        for r in 0..4 {
            b = b.host(HostSpec::mpi_rank(r));
        }
        b.build().unwrap().run_to_completion(drv).as_micros_f64()
    };
    let cpu = run(&mut CpuGpuSync { launched: 0, syncs_pending: 0 });
    let hybrid = run(&mut HybridSync { launched: 0 });

    let mut r = ExpResult::default();
    r.line(format!(
        "Figure 8 microbench: {ROUNDS} rounds of (compute {COMPUTE_US}us || comm {COMM_US}us) on 4 GPUs"
    ));
    let mut t = Table::new(&["strategy", "total (us)", "CPU overhead per boundary (us)"]);
    // Hybrid fully hides the CPU: use it as the zero of the comparison
    // (both strategies pay identical kernel + contention time).
    for (name, total) in [("hybrid sync", hybrid), ("CPU-GPU sync", cpu)] {
        t.row(&[
            name.to_string(),
            format!("{total:.1}"),
            format!("{:.1}", (total - hybrid) / (ROUNDS as f64 - 1.0)),
        ]);
    }
    r.table(t);
    r.line("Paper §4.5: a null-kernel launch is ~5us, but a multi-GPU blocking sync exceeds 20us.");
    r
}

/// **Figure 9** — GEMM decomposition strategies.
///
/// The accumulated duration of 8 horizontal (row-split) pieces vs 8
/// vertical (column-split) pieces against the undivided kernel, for each
/// GEMM of an OPT-30B layer (tp=4 shapes, V100 node). The paper's finding:
/// horizontal splitting of the already-skinny activation matrix collapses
/// compute intensity; vertical splitting is near-free.
pub fn fig09_gemm_decomposition(_: &ExpConfig) -> ExpResult {
    let cm = Node::V100.cost_model();
    let ops = layer_ops(&ModelConfig::opt_30b(), BatchShape::prefill(2, 64), 4, 0);
    let mut t = Table::new(&[
        "GEMM",
        "shape (m,k,n)",
        "whole (us)",
        "vertical/8 (us)",
        "horizontal/8 (us)",
    ]);
    for placed in &ops {
        let LayerOp::Gemm { m, k, n, kind } = placed.op else { continue };
        let whole = cm.op_time(&placed.op);
        let sum = |axis| -> SimDuration {
            equal_split_axis(&placed.op, 8, axis).iter().map(|p| cm.op_time(p)).sum()
        };
        t.row(&[
            kind.name().to_string(),
            format!("({m},{k},{n})"),
            format!("{:.1}", whole.as_micros_f64()),
            format!("{:.1}", sum(GemmSplitAxis::Vertical).as_micros_f64()),
            format!("{:.1}", sum(GemmSplitAxis::Horizontal).as_micros_f64()),
        ]);
    }
    let mut r = ExpResult::default();
    r.line("Figure 9: GEMM decomposition (factor 8) — OPT-30B layer at tp=4, V100");
    r.table(t);
    r.line("Paper: horizontal decomposition greatly exceeds the original duration; vertical is close to it.");
    r
}

/// Per-node fig10 aggregates, one entry per panel.
#[derive(Default)]
struct Agg {
    liger_thr: Vec<f64>,
    intra_thr: Vec<f64>,
    liger_lat: Vec<f64>,
    inter_lat: Vec<f64>,
    interth_lat: Vec<f64>,
}

/// **Figure 10** — general performance evaluation (the paper's main result).
///
/// Latency and throughput as the request arrival rate increases, on random
/// traces with sequence lengths 16–128 and batch sizes {2, 4, 8}: OPT-30B on
/// the V100 node and OPT-30B / OPT-66B / GLM-130B on the A100 node — 12
/// panels, four engines each. The summary gives the paper's §4.2 aggregates
/// per node as named ratios (`V100.throughput_gain_vs_intra_op`,
/// `V100.latency_reduction_vs_inter_op`, `V100.latency_reduction_vs_inter_th`
/// and the same for `A100`).
///
/// Flags: `--requests N` (default 300; the paper uses 2000), `--quick`
/// (batch 2 only), `--panel MODEL/NODE` filter, `--csv`, `--json`.
pub fn fig10_general(cfg: &ExpConfig) -> ExpResult {
    let requests = cfg.requests_or(300);
    let batches: &[u32] = if cfg.quick { &[2] } else { &[2, 4, 8] };
    let panels = [
        (ModelConfig::opt_30b(), Node::V100),
        (ModelConfig::opt_30b(), Node::A100),
        (ModelConfig::opt_66b(), Node::A100),
        (ModelConfig::glm_130b(), Node::A100),
    ];
    let (mut agg_v100, mut agg_a100) = (Agg::default(), Agg::default());
    let mut r = ExpResult::default();
    for (model, node) in &panels {
        let panel_name = format!("{}/{}", model.name, node.label());
        if cfg.panel.as_ref().is_some_and(|f| !panel_name.contains(f.as_str())) {
            continue;
        }
        for &batch in batches {
            // Center the sweep on the panel's Intra-Op capacity at the mean
            // sequence length of the random trace (72).
            let cap = intra_capacity(model, *node, 4, BatchShape::prefill(batch, 72));
            let points =
                sweep(&EngineKind::paper_lineup(*node), &rate_grid(cap), model, *node, 4, |rate| {
                    PrefillTraceConfig::paper(requests, batch, rate, 42).generate()
                });
            r.export(
                format!("fig10_{}_{}_b{batch}", model.name.replace('/', "-"), node.label()),
                &points,
            );
            r.line(format!(
                "Figure 10 panel: {} on {} node, batch {batch} ({requests} requests/point)",
                model.name,
                node.label()
            ));
            r.table(points_table("engine", true, points.iter().map(|p| (p.engine.to_string(), p))));

            // Saturated throughput = max over rates per engine; latency
            // averaged over the points driven below the Intra-Op capacity
            // (the paper's "before saturation" regime).
            let lat = |name: &str| -> f64 {
                let v: Vec<f64> = points
                    .iter()
                    .filter(|p| p.engine == name && p.rate < cap)
                    .map(|p| p.avg_latency_ms)
                    .collect();
                v.iter().sum::<f64>() / v.len().max(1) as f64
            };
            let agg = if *node == Node::V100 { &mut agg_v100 } else { &mut agg_a100 };
            agg.liger_thr.push(saturated(&points, "Liger"));
            agg.intra_thr.push(saturated(&points, "Intra-Op"));
            agg.liger_lat.push(lat("Liger"));
            agg.inter_lat.push(lat("Inter-Op"));
            agg.interth_lat.push(lat("Inter-Th"));
        }
    }

    for (label, agg) in [("V100", &agg_v100), ("A100", &agg_a100)] {
        if agg.liger_thr.is_empty() {
            continue;
        }
        let gain: f64 = agg.liger_thr.iter().zip(&agg.intra_thr).map(|(l, i)| l / i).sum::<f64>()
            / agg.liger_thr.len() as f64;
        let red = |base: &Vec<f64>| -> f64 {
            agg.liger_lat.iter().zip(base).map(|(l, b)| 1.0 - l / b).sum::<f64>()
                / base.len() as f64
        };
        r.summary(
            &[
                (format!("{label}.throughput_gain_vs_intra_op").as_str(), gain),
                (format!("{label}.latency_reduction_vs_inter_op").as_str(), red(&agg.inter_lat)),
                (format!("{label}.latency_reduction_vs_inter_th").as_str(), red(&agg.interth_lat)),
            ],
            |v| {
                format!(
                    "{label} node summary: Liger throughput x{:.2} vs Intra-Op; latency -{:.1}% vs Inter-Op, -{:.1}% vs Inter-Th (pre-saturation)",
                    v[0],
                    v[1] * 100.0,
                    v[2] * 100.0
                )
            },
        );
    }
    r.line("Paper §4.2: throughput x1.15 (V100) / x1.52 (A100) vs Intra-Op; latency -45.4%/-59.1% (V100) and -35.8%/-42.2% (A100) vs Inter-Op/Inter-Th.");
    r
}

/// **Figure 11** — generative (incremental sampling) tasks.
///
/// One decode iteration per job with a KV cache: batch 32, starting
/// sequence length 16 (§4.3), on the four fig10 panels. Each panel's
/// saturated gain over Intra-Op is the ratio `<MODEL>/<NODE>.saturated_gain_vs_intra_op`.
/// Paper reference: up to 1.08x / 1.29x / 1.23x / 1.13x — weaker than
/// prefill because decode communicates relatively less.
///
/// Flags: `--requests N` (default 300), `--csv`, `--json`.
pub fn fig11_generative(cfg: &ExpConfig) -> ExpResult {
    let requests = cfg.requests_or(300);
    let panels = [
        (ModelConfig::opt_30b(), Node::V100),
        (ModelConfig::opt_30b(), Node::A100),
        (ModelConfig::opt_66b(), Node::A100),
        (ModelConfig::glm_130b(), Node::A100),
    ];
    let mut r = ExpResult::default();
    for (model, node) in panels {
        let cap = intra_capacity(&model, node, 4, BatchShape::decode(32, 16));
        let points =
            sweep(&EngineKind::paper_lineup(node), &rate_grid(cap), &model, node, 4, |rate| {
                DecodeTraceConfig {
                    count: requests,
                    batch: 32,
                    context: 16,
                    arrivals: ArrivalProcess::Constant { rate },
                }
                .generate()
            });
        r.export(format!("fig11_{}_{}", model.name, node.label()), &points);
        r.line(format!(
            "Figure 11 panel: {} on {} node, decode batch 32 @ context 16",
            model.name,
            node.label()
        ));
        let mut t = Table::new(&["engine", "rate (it/s)", "avg lat (ms)", "throughput (it/s)"]);
        for p in &points {
            t.row(&[
                p.engine.to_string(),
                format!("{:.1}", p.rate),
                format!("{:.2}", p.avg_latency_ms),
                format!("{:.1}", p.throughput),
            ]);
        }
        r.table(t);
        let gain = saturated(&points, "Liger") / saturated(&points, "Intra-Op");
        let name = format!("{}/{}.saturated_gain_vs_intra_op", model.name, node.label());
        r.summary(&[(&name, gain)], |v| {
            format!("  Liger vs Intra-Op saturated throughput: x{:.2}\n", v[0])
        });
    }
    r.line("Paper: x1.08 / x1.29 / x1.23 / x1.13; improvements are weaker than for prefill.");
    r
}

/// **Figure 12** — strong scaling of serving OPT-30B on 1/2/4 A100 GPUs.
///
/// Latency and throughput points as the arrival rate increases, for Liger /
/// Intra-Op / Inter-Op at each device count. Paper findings: Liger improves
/// with device count, beats Intra-Op on throughput and Inter-Op on latency,
/// and is least pronounced at 2 GPUs (lower communication ratio).
///
/// Flags: `--requests N` (default 300).
pub fn fig12_strong_scaling(cfg: &ExpConfig) -> ExpResult {
    let requests = cfg.requests_or(300);
    let (model, node, batch) = (ModelConfig::opt_30b(), Node::A100, 4);
    let mut r = ExpResult::default();
    for world in [1usize, 2, 4] {
        let cap = intra_capacity(&model, node, world, BatchShape::prefill(batch, 72));
        let rates: Vec<f64> = [0.5, 0.9, 1.2].iter().map(|f| f * cap).collect();
        let engines = [EngineKind::liger_default(node), EngineKind::IntraOp, EngineKind::InterOp];
        let points = sweep(&engines, &rates, &model, node, world, |rate| {
            PrefillTraceConfig::paper(requests, batch, rate, 42).generate()
        });
        r.line(format!("Figure 12: OPT-30B on {world} A100 GPU(s), batch {batch}"));
        r.table(points_table("engine", false, points.iter().map(|p| (p.engine.to_string(), p))));
    }
    r.line("Paper: Liger scales with GPUs; beats Intra-Op throughput and Inter-Op latency; 2-GPU effect is weakest.");
    r
}

/// **Figure 13** — benefits of hybrid synchronization.
///
/// Liger with the hybrid approach vs Liger driven purely by CPU–GPU
/// synchronization, serving OPT-30B on the V100 node with batch size 2
/// (§4.5). The CPU–GPU arm exposes > 20 µs of multi-GPU launch/sync
/// overhead every round that pre-launching hides. The saturated-throughput
/// ratio is `hybrid_over_cpu_gpu_throughput`.
///
/// Flags: `--requests N` (default 300), `--csv`, `--json`.
pub fn fig13_hybrid_sync(cfg: &ExpConfig) -> ExpResult {
    let requests = cfg.requests_or(300);
    let (model, node, batch) = (ModelConfig::opt_30b(), Node::V100, 2);
    let liger = node.liger_config();
    let cap = intra_capacity(&model, node, 4, BatchShape::prefill(batch, 72));
    let engines =
        [EngineKind::Liger(liger), EngineKind::Liger(liger.with_sync_mode(SyncMode::CpuGpu))];
    let points = sweep(&engines, &rate_grid(cap), &model, node, 4, |rate| {
        PrefillTraceConfig::paper(requests, batch, rate, 42).generate()
    });

    let mut r = ExpResult::default();
    r.export("fig13_hybrid_sync".into(), &points);
    r.line("Figure 13: hybrid vs CPU-GPU synchronization — OPT-30B, V100 node, batch 2");
    r.table(points_table("sync", false, points.iter().map(|p| (p.engine.to_string(), p))));
    let ratio = saturated(&points, "Liger") / saturated(&points, "Liger(CPU-GPU)");
    r.summary(&[("hybrid_over_cpu_gpu_throughput", ratio)], |v| {
        format!("Hybrid/CPU-GPU saturated-throughput ratio: x{:.3}", v[0])
    });
    r.line("Paper: CPU-GPU-only sync shows an obvious drop in both latency and throughput.");
    r
}

/// **Figure 14** — effect of the kernel-decomposition division factor.
///
/// Liger serving OPT-30B on the V100 node with batch size 2, division
/// factor ∈ {2, 4, 8, 16} (§4.6), just above Intra-Op capacity (where
/// packing quality decides throughput) and saturated. Paper findings:
/// larger factors give finer matching and better latency/throughput, with
/// diminishing returns.
///
/// Flags: `--requests N` (default 300).
pub fn fig14_division_factor(cfg: &ExpConfig) -> ExpResult {
    let requests = cfg.requests_or(300);
    let (model, node, batch) = (ModelConfig::opt_30b(), Node::V100, 2);
    let liger = node.liger_config();
    let cap = intra_capacity(&model, node, 4, BatchShape::prefill(batch, 72));
    let rates = [cap * 1.05, cap * 1.4];

    let mut rows = Vec::new();
    for df in [2u32, 4, 8, 16] {
        let engines = [EngineKind::Liger(liger.with_division_factor(df))];
        let points = sweep(&engines, &rates, &model, node, 4, |rate| {
            PrefillTraceConfig::paper(requests, batch, rate, 42).generate()
        });
        rows.extend(points.into_iter().map(|p| (df, p)));
    }
    let mut r = ExpResult::default();
    r.line("Figure 14: division factor sweep — OPT-30B, V100 node, batch 2");
    r.table(points_table("division factor", false, rows.iter().map(|(df, p)| (df.to_string(), p))));
    r.line("Paper: latency and throughput improve with larger factors; benefits taper beyond 8.");
    r
}
