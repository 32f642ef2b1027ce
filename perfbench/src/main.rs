//! `perfbench --workload <name> --seed <n> --seconds <s> [--trace 0|1]
//! --server <upsr-groom> [--spans <path>]`
//!
//! Prints a description of the run, every metric by name with its unit,
//! and as its last line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits 1 if any reply check failed.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::workload::{Size, Workload};
use perfbench::{run, RunConfig, ServerKind};

const USAGE: &str = "usage: perfbench --workload <ring-powerlaw|mesh-metro|churn-sim> --seed <n> \
     --seconds <s> [--trace 0|1] --server <path to upsr-groom> [--spans <path>]";

struct Args {
    seconds: u64,
    config: RunConfig,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut server = None;
    let mut spans = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} needs {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| *s > 0)
                        .ok_or_else(|| bad("a positive integer"))?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--server" => server = Some(PathBuf::from(&value)),
            "--spans" => spans = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    Ok(Args {
        seconds,
        config: RunConfig {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            size: Size::Full { seconds },
            trace,
            server: ServerKind::Process(server.ok_or("--server is required")?),
        },
        spans,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cfg = &args.config;
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        cfg.workload.name(),
        cfg.seed,
        args.seconds,
        u8::from(cfg.trace),
    );
    let report = match run(cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &report.notes {
        println!("{note}");
    }
    println!("transcript digest: {:016x}", report.digest);
    for failure in &report.failures {
        println!("FAILED: {failure}");
    }
    if let (Some(path), Some(spans)) = (&args.spans, &report.spans) {
        if let Err(e) = std::fs::write(path, spans) {
            eprintln!("error: cannot write spans to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("spans: {}", path.display());
    }
    let mut metrics = Vec::new();
    for m in &report.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
        if !m.value.is_finite() {
            eprintln!("error: metric {} is not a finite number", m.name);
            return ExitCode::FAILURE;
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    let correct = report.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed(),
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
