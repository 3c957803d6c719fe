//! `liger-bench <experiment> [flags]`: runs one table, figure or ablation
//! of the Liger reproduction and prints it. Exits 1 when a gate fails and
//! 2 on bad arguments; with no arguments it lists the experiments.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let status = liger_bench::experiments::cli(
        &args,
        &mut std::io::stdout().lock(),
        &mut std::io::stderr().lock(),
    );
    std::process::exit(status);
}
