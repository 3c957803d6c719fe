//! Golden Chrome traces of the Liger engine in every synchronization mode.
//!
//! One small fixed prefill trace is served through [`LigerEngine`] on two
//! V100s, one MPI rank per device, in four configurations: hybrid, CPU–GPU,
//! inter-stream, and hybrid with online contention-factor adaptation. Each
//! run's exported Chrome trace is compared byte-for-byte against
//! `tests/golden/engine/<mode>.json`, so any change to which kernels, events
//! and waits the engine issues — or in which order, on which stream, with
//! which host notifications — shows up as a diff here.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```text
//! LIGER_GOLDEN_REGEN=1 cargo test --test engine_golden
//! ```
//!
//! then review the diff and commit the new files.

use liger::prelude::*;

const WORLD: usize = 2;

fn render(config: LigerConfig) -> String {
    let mut b = Simulation::builder().devices(DeviceSpec::v100_16gb(), WORLD).capture_trace(true);
    for r in 0..WORLD {
        b = b.host(HostSpec::mpi_rank(r));
    }
    let mut sim = b.build().unwrap();
    let mut engine =
        LigerEngine::new(ModelConfig::tiny_test(), CostModel::v100_node(), WORLD, config).unwrap();
    let trace = PrefillTraceConfig::paper(8, 2, 1e4, 7).generate();
    let metrics = serve(&mut sim, &mut engine, trace);
    assert_eq!(metrics.completed(), 8, "every request must complete");
    let mut json = sim.take_trace().unwrap().to_chrome_json();
    json.push('\n');
    json
}

fn check(name: &str, config: LigerConfig) {
    let rendered = render(config);
    let path = format!("{}/tests/golden/engine/{name}.json", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("LIGER_GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(format!("{}/tests/golden/engine", env!("CARGO_MANIFEST_DIR")))
            .expect("create golden directory");
        std::fs::write(&path, &rendered).expect("write golden file");
        eprintln!("regenerated {path}");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert!(
        rendered == golden,
        "engine trace drifted from tests/golden/engine/{name}.json; if the change is \
         intentional, regenerate with LIGER_GOLDEN_REGEN=1 and commit the diff"
    );
}

#[test]
fn hybrid_matches_golden() {
    check("hybrid", LigerConfig::default());
}

#[test]
fn cpu_gpu_matches_golden() {
    check("cpu_gpu", LigerConfig::default().with_sync_mode(SyncMode::CpuGpu));
}

#[test]
fn inter_stream_matches_golden() {
    check("inter_stream", LigerConfig::default().with_sync_mode(SyncMode::InterStream));
}

#[test]
fn hybrid_adaptive_matches_golden() {
    check("hybrid_adaptive", LigerConfig::default().with_adaptive_factor(true));
}
