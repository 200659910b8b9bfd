//! The repository's benchmark.
//!
//! `obda_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! hosts the server in-process on an ephemeral port, drives it with wire
//! sessions from this same process, checks the answers, and prints every
//! metric as a `name unit value` line followed by one JSON object. With
//! `--trace 0` the run is untraced and the metrics are the end-to-end
//! ones; with `--trace 1` the benchmark records spans around its calls
//! into each layer and the metrics are the per-layer ones.
//! `obda_benchmark verify` checks answers against the certain-answer
//! oracle and the traced pipeline against the server's own.

mod fixture;
mod layers;
mod load;
mod pacing;
mod render;
mod stats;
mod trace;
mod verify;
mod workloads;

use workloads::{Metric, Report, WORKLOADS};

fn usage() -> ! {
    eprintln!(
        "usage: obda_benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       obda_benchmark verify [--seed <n>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

struct Args {
    verify: bool,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        verify: false,
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "verify" => args.verify = true,
            "--workload" => args.workload = Some(value()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    args
}

fn json_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|Metric { name, unit, value }| {
            // A ratio over an empty window is not a number; JSON has none.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = parse_args();
    if args.verify {
        std::process::exit(if verify::run(args.seed) { 0 } else { 1 });
    }
    let workload = args.workload.unwrap_or_else(|| usage());
    if !WORKLOADS.contains(&workload.as_str()) || args.seconds == 0 {
        usage();
    }
    let report = if args.trace {
        layers::run(&workload, args.seed, args.seconds)
    } else {
        workloads::run(&workload, args.seed, args.seconds)
    };
    println!("workload {workload}");
    for Metric { name, unit, value } in report.notes.iter().chain(&report.metrics) {
        println!("{name} {unit} {value}");
    }
    println!("{}", json_line(&report));
}
