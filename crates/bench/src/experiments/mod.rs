//! Every table, figure and ablation as a library call.
//!
//! Each experiment is a `fn(&ExpConfig) -> ExpResult` named after the
//! figure it reproduces (`fig10_general`, `ablation_prefix`, …) and listed
//! in [`EXPERIMENTS`] with the flags it accepts. An [`ExpResult`] keeps the
//! printed sections, the sweep points `--csv`/`--json` export, the named
//! summary ratios and the gate failures; [`ExpResult::render`] is the one
//! text renderer. [`cli`] is the `liger-bench <experiment> [flags]` entry
//! point.

use std::fmt::Write as _;
use std::io::Write;
use std::num::{NonZeroU64, NonZeroUsize};
use std::str::FromStr;

use liger_gpu_sim::FaultSpec;

use crate::harness::{points_csv, points_json, ExperimentPoint, Table};

mod ablations;
mod gated;
mod paper;

pub use ablations::*;
pub use gated::*;
pub use paper::*;

/// The flags of one run. Which ones an experiment reads is fixed by its
/// [`Experiment::flags`]; unset options keep the experiment's defaults.
#[derive(Debug, Clone, Default)]
pub struct ExpConfig {
    /// `--requests N`: requests (or sequences) per measured point.
    pub requests: Option<usize>,
    /// `--quick`: fig10 at batch 2 only.
    pub quick: bool,
    /// `--panel MODEL/NODE`: run only the fig10 panels whose name contains it.
    pub panel: Option<String>,
    /// `--smoke`: the small fixed workload the CI gates run.
    pub smoke: bool,
    /// `--faults SPEC`: a fault schedule in [`FaultSpec::parse`]'s grammar.
    pub faults: Option<FaultSpec>,
    /// `--jobs N`: jobs in the `ablation_chaos` trace.
    pub jobs: Option<u64>,
    /// `--seed S`: workload seed of `ablation_disagg`.
    pub seed: Option<u64>,
    /// `--csv`: write each sweep's points to `results/<name>.csv`.
    pub csv: bool,
    /// `--json`: write each sweep's points to `results/<name>.json`.
    pub json: bool,
}

impl ExpConfig {
    /// `--requests`, or the experiment's `default`.
    pub fn requests_or(&self, default: usize) -> usize {
        self.requests.unwrap_or(default)
    }
}

/// One printed part of a result.
#[derive(Debug)]
enum Section {
    /// A title, note or summary line.
    Line(String),
    /// A table, printed with a blank line after it.
    Table(Table),
}

/// What one experiment measured.
#[derive(Debug, Default)]
pub struct ExpResult {
    sections: Vec<Section>,
    exports: Vec<(String, Vec<ExperimentPoint>)>,
    ratios: Vec<(String, f64)>,
    failures: Vec<String>,
}

impl ExpResult {
    /// Appends a title or note line.
    pub fn line(&mut self, line: impl Into<String>) {
        self.sections.push(Section::Line(line.into()));
    }

    /// Appends a table.
    pub fn table(&mut self, table: Table) {
        self.sections.push(Section::Table(table));
    }

    /// Records named summary ratios and appends the line `text` renders
    /// from their values.
    pub fn summary(&mut self, ratios: &[(&str, f64)], text: impl FnOnce(&[f64]) -> String) {
        let values: Vec<f64> = ratios.iter().map(|&(_, v)| v).collect();
        self.line(text(&values));
        self.ratios.extend(ratios.iter().map(|&(name, v)| (name.to_string(), v)));
    }

    /// Keeps a sweep's points for `--csv`/`--json` under `name`.
    pub fn export(&mut self, name: String, points: &[ExperimentPoint]) {
        self.exports.push((name, points.to_vec()));
    }

    /// Records a gate failure: the run exits 1.
    pub fn fail(&mut self, message: String) {
        self.failures.push(message);
    }

    /// The text `liger-bench` prints: every section, one per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for section in &self.sections {
            match section {
                Section::Line(line) => out.push_str(line),
                Section::Table(table) => out.push_str(&table.render()),
            }
            out.push('\n');
        }
        out
    }

    /// A summary ratio by name.
    pub fn ratio(&self, name: &str) -> Option<f64> {
        self.ratios.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Gate failures; empty when every gate held.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// One registered experiment.
#[derive(Debug)]
pub struct Experiment {
    /// Name on the command line (the figure or ablation it reproduces).
    pub name: &'static str,
    /// Flags it accepts, without the leading `--`.
    pub flags: &'static [&'static str],
    /// The experiment.
    pub run: fn(&ExpConfig) -> ExpResult,
}

const REQUESTS: &[&str] = &["requests"];
const EXPORTS: &[&str] = &["requests", "csv", "json"];

/// Every experiment, in the order `liger-bench` lists them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment { name: "table1_models", flags: &[], run: table1_models },
    Experiment { name: "fig03_intra_scaling", flags: &[], run: fig03_intra_scaling },
    Experiment { name: "fig04_kernel_durations", flags: &[], run: fig04_kernel_durations },
    Experiment { name: "fig08_sync_microbench", flags: &[], run: fig08_sync_microbench },
    Experiment { name: "fig09_gemm_decomposition", flags: &[], run: fig09_gemm_decomposition },
    Experiment {
        name: "fig10_general",
        flags: &["requests", "quick", "panel", "csv", "json"],
        run: fig10_general,
    },
    Experiment { name: "fig11_generative", flags: EXPORTS, run: fig11_generative },
    Experiment { name: "fig12_strong_scaling", flags: REQUESTS, run: fig12_strong_scaling },
    Experiment { name: "fig13_hybrid_sync", flags: EXPORTS, run: fig13_hybrid_sync },
    Experiment { name: "fig14_division_factor", flags: REQUESTS, run: fig14_division_factor },
    Experiment { name: "sensitivity", flags: REQUESTS, run: sensitivity },
    Experiment { name: "ablation_arrivals", flags: REQUESTS, run: ablation_arrivals },
    Experiment { name: "ablation_contention", flags: REQUESTS, run: ablation_contention },
    Experiment { name: "ablation_nccl_channels", flags: REQUESTS, run: ablation_nccl_channels },
    Experiment {
        name: "ablation_processing_slots",
        flags: REQUESTS,
        run: ablation_processing_slots,
    },
    Experiment { name: "ablation_sync_flood", flags: REQUESTS, run: ablation_sync_flood },
    Experiment { name: "ablation_workload", flags: REQUESTS, run: ablation_workload },
    Experiment { name: "ablation_faults", flags: &["requests", "faults"], run: ablation_faults },
    Experiment {
        name: "ablation_batching",
        flags: &["requests", "faults", "smoke"],
        run: ablation_batching,
    },
    Experiment { name: "ablation_chaos", flags: &["jobs", "smoke"], run: ablation_chaos },
    Experiment {
        name: "ablation_disagg",
        flags: &["requests", "seed", "smoke"],
        run: ablation_disagg,
    },
    Experiment {
        name: "ablation_prefix",
        flags: &["requests", "faults", "smoke"],
        run: ablation_prefix,
    },
    Experiment { name: "ablation_recovery", flags: &["requests", "smoke"], run: ablation_recovery },
];

/// Reads `<experiment> [flags]`. Rejects an unknown experiment, a flag the
/// experiment does not accept, a missing value and a malformed one (counts
/// must be positive), with a message naming the culprit.
pub fn parse_args(args: &[String]) -> Result<(&'static Experiment, ExpConfig), String> {
    let name = args.first().ok_or("missing experiment name")?;
    let exp = EXPERIMENTS
        .iter()
        .find(|e| e.name == name)
        .ok_or_else(|| format!("unknown experiment `{name}`"))?;
    let mut cfg = ExpConfig::default();
    let mut rest = args[1..].iter();
    while let Some(arg) = rest.next() {
        let flag = arg
            .strip_prefix("--")
            .filter(|f| exp.flags.contains(f))
            .ok_or_else(|| format!("{name} does not accept `{arg}`"))?;
        let mut value = || rest.next().ok_or_else(|| format!("--{flag} needs a value"));
        match flag {
            "quick" => cfg.quick = true,
            "smoke" => cfg.smoke = true,
            "csv" => cfg.csv = true,
            "json" => cfg.json = true,
            "panel" => cfg.panel = Some(value()?.clone()),
            "requests" => cfg.requests = Some(number::<NonZeroUsize>(flag, value()?)?.get()),
            "jobs" => cfg.jobs = Some(number::<NonZeroU64>(flag, value()?)?.get()),
            "seed" => cfg.seed = Some(number(flag, value()?)?),
            "faults" => {
                let spec = FaultSpec::parse(value()?);
                cfg.faults = Some(spec.map_err(|e| format!("invalid --faults spec: {e}"))?);
            }
            _ => unreachable!("flag `{flag}` is registered but not parsed"),
        }
    }
    Ok((exp, cfg))
}

fn number<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("invalid value `{value}` for --{flag}"))
}

fn usage() -> String {
    let mut out = String::from("usage: liger-bench <experiment> [flags]\nexperiments:\n");
    for e in EXPERIMENTS {
        let flags: Vec<String> = e.flags.iter().map(|f| format!("--{f}")).collect();
        let _ = writeln!(out, "  {:<28}{}", e.name, flags.join(" "));
    }
    out
}

/// Prints `result` to `out`, writes its exports when `cfg` asks for them
/// and reports gate failures to `err`. Returns the exit status: 1 when a
/// gate failed, 0 otherwise.
pub fn finish(
    name: &str,
    cfg: &ExpConfig,
    result: &ExpResult,
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> i32 {
    for (export, points) in &result.exports {
        if cfg.csv {
            write_export(err, format!("results/{export}.csv"), points_csv(points));
        }
        if cfg.json {
            write_export(err, format!("results/{export}.json"), points_json(points));
        }
    }
    let _ = out.write_all(result.render().as_bytes());
    let _ = out.flush();
    if result.failures.is_empty() {
        return 0;
    }
    for f in &result.failures {
        let _ = writeln!(err, "FAIL: {f}");
    }
    let _ = writeln!(err, "{name}: FAILED (see messages above)");
    1
}

fn write_export(err: &mut dyn Write, path: String, body: String) {
    let _ = match std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => writeln!(err, "wrote {path}"),
        Err(e) => writeln!(err, "could not write {path}: {e}"),
    };
}

/// `liger-bench <experiment> [flags]`: runs the experiment and returns the
/// process exit status — 0 on success, 1 when a gate failed, 2 on bad
/// arguments.
pub fn cli(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> i32 {
    match parse_args(args) {
        Ok((exp, cfg)) => finish(exp.name, &cfg, &(exp.run)(&cfg), out, err),
        Err(message) => {
            let _ = write!(err, "liger-bench: {message}\n{}", usage());
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// Runs the entry point, returning (status, stdout, stderr).
    fn run(list: &[&str]) -> (i32, String, String) {
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let status = cli(&args(list), &mut out, &mut err);
        (status, String::from_utf8(out).unwrap(), String::from_utf8(err).unwrap())
    }

    #[test]
    fn experiment_names_are_unique() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len());
        assert_eq!(names.len(), 23);
    }

    #[test]
    fn unknown_experiment_exits_2() {
        let (status, out, err) = run(&["fig99_nothing"]);
        assert_eq!(status, 2);
        assert!(out.is_empty());
        assert!(err.contains("unknown experiment `fig99_nothing`"), "{err}");
        assert_eq!(run(&[]).0, 2);
    }

    #[test]
    fn unknown_flag_exits_2_and_names_it() {
        let (status, out, err) = run(&["fig11_generative", "--quick"]);
        assert_eq!(status, 2);
        assert!(out.is_empty());
        assert!(err.contains("fig11_generative does not accept `--quick`"), "{err}");
        assert!(run(&["fig10_general", "--summary"]).2.contains("`--summary`"));
        assert!(run(&["table1_models", "extra"]).2.contains("`extra`"));
    }

    #[test]
    fn malformed_value_exits_2_and_names_the_flag() {
        let (status, out, err) = run(&["fig12_strong_scaling", "--requests", "abc"]);
        assert_eq!(status, 2);
        assert!(out.is_empty());
        assert!(err.contains("invalid value `abc` for --requests"), "{err}");
        assert!(run(&["ablation_recovery", "--requests", "0"]).2.contains("`0` for --requests"));
        assert!(run(&["ablation_chaos", "--jobs", "-3"]).2.contains("`-3` for --jobs"));
        assert!(run(&["ablation_disagg", "--seed"]).2.contains("--seed needs a value"));
        assert!(run(&["ablation_prefix", "--faults", "bogus"]).2.contains("invalid --faults"));
    }

    #[test]
    fn flags_parse_into_the_config() {
        let (exp, cfg) =
            parse_args(&args(&["fig10_general", "--quick", "--requests", "7", "--panel", "A100"]))
                .unwrap();
        assert_eq!(exp.name, "fig10_general");
        assert!(cfg.quick && !cfg.smoke);
        assert_eq!((cfg.requests, cfg.panel.as_deref()), (Some(7), Some("A100")));
        let (_, cfg) = parse_args(&args(&["ablation_chaos", "--smoke", "--jobs", "9"])).unwrap();
        assert_eq!((cfg.smoke, cfg.jobs), (true, Some(9)));
    }

    #[test]
    fn fast_experiments_render_identically_twice() {
        let smoke = ExpConfig { smoke: true, ..ExpConfig::default() };
        for name in [
            "table1_models",
            "fig03_intra_scaling",
            "fig04_kernel_durations",
            "fig08_sync_microbench",
            "fig09_gemm_decomposition",
            "ablation_chaos",
            "ablation_prefix",
        ] {
            let exp = EXPERIMENTS.iter().find(|e| e.name == name).unwrap();
            let cfg =
                if exp.flags.contains(&"smoke") { smoke.clone() } else { ExpConfig::default() };
            let (a, b) = ((exp.run)(&cfg), (exp.run)(&cfg));
            assert!(!a.render().is_empty(), "{name} printed nothing");
            assert_eq!(a.render(), b.render(), "{name} is not deterministic");
            assert!(a.failures().is_empty(), "{name}: {:?}", a.failures());
        }
    }

    #[test]
    fn a_gate_failure_exits_1() {
        let mut result = ExpResult::default();
        result.line("table");
        result.fail("forced".into());
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let status = finish("forced_gate", &ExpConfig::default(), &result, &mut out, &mut err);
        assert_eq!(status, 1);
        assert_eq!(out, b"table\n");
        let err = String::from_utf8(err).unwrap();
        assert!(err.contains("FAIL: forced") && err.contains("forced_gate: FAILED"), "{err}");
        result.failures.clear();
        assert_eq!(finish("ok", &ExpConfig::default(), &result, &mut out, &mut Vec::new()), 0);
    }

    #[test]
    fn summary_lines_render_from_their_named_ratios() {
        let mut result = ExpResult::default();
        result.summary(&[("gain", 1.25), ("delta", -0.5)], |v| {
            format!("gain x{:.2}, {:+.1}%", v[0], v[1] * 100.0)
        });
        assert_eq!(result.render(), "gain x1.25, -50.0%\n");
        assert_eq!(result.ratio("delta"), Some(-0.5));
        assert_eq!(result.ratio("missing"), None);
    }
}
