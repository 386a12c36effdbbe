//! `perfbench` — runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A summary
//! (behaviour digest, tail percentile, failed fraction, every metric)
//! goes to standard error, and the run record — every run's outcome and,
//! when traced, the span log — to `.bench_build/perfbench/` under the
//! working directory. `--workload all` runs each workload in a child
//! process and prints one result line per workload. Each workload runs a
//! fixed run set sized to take about 20 s on a 2-core host; `--seconds`
//! is accepted and checked but does not change the set.
//!
//! Exit codes: 0 when every output check passed, 1 when one failed,
//! 2 on a usage error.

use std::process::ExitCode;

use ppfts_perfbench::harness::{execute, Options};
use ppfts_perfbench::workloads::{Scale, Workload};

/// The workload seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

const USAGE: &str =
    "usage: perfbench --workload <skno_omissions|sid_sparse|epidemic_epochs|scheduled_attacks|all> \
     [--seed N] [--seconds S] [--trace 0|1] [--smoke]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    trace: bool,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        trace: false,
        smoke: false,
    };
    let mut named = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                named = true;
                parsed.workload = if value == "all" {
                    None
                } else {
                    Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                };
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            // Accepted for the harness interface; the run set is fixed.
            "--seconds" => {
                value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !named {
        return Err("--workload is required".to_string());
    }
    Ok(parsed)
}

/// Runs every workload in a child process of this binary, so each
/// reports its own peak memory.
fn run_all(args: &Args) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("perfbench: cannot locate the running binary");
        return ExitCode::from(2);
    };
    let mut code = ExitCode::SUCCESS;
    for workload in Workload::ALL {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        match cmd.status() {
            Ok(status) if status.success() => {}
            _ => code = ExitCode::from(1),
        }
    }
    code
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload else {
        return run_all(&args);
    };
    let opts = Options {
        workload,
        seed: args.seed,
        trace: args.trace,
        scale: if args.smoke {
            Scale::Smoke
        } else {
            Scale::Full
        },
    };
    let report = execute(&opts);
    for line in &report.summary {
        eprintln!("{line}");
    }
    for problem in &report.problems {
        eprintln!("CHECK FAILED: {problem}");
    }
    let dir = std::path::Path::new(".bench_build").join("perfbench");
    let file = dir.join(format!(
        "{}-seed{}-trace{}.json",
        workload.name(),
        opts.seed,
        u8::from(opts.trace)
    ));
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&file, &report.record))
    {
        eprintln!("perfbench: could not write {}: {e}", file.display());
    }
    println!("{}", report.json_line());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
