//! `perfbench` — the repository's benchmark of the served eclipse stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <heavy-batch|routed-evict> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root.  With `--trace 0` it prints the end-to-end
//! metrics, with `--trace 1` the per-layer metrics of a traced run; the last
//! line of standard output is always one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.  Any wrong answer makes
//! the command exit non-zero.  See `perfbench/README.md`.

mod check;
mod drive;
mod inputs;
mod layers;
mod report;
mod rng;
mod spans;
mod stats;
mod wire;
mod workloads;

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use eclipse_core::ExecutionContext;

use report::Report;
use workloads::{Inputs, Kind};

/// Command-line arguments; all four are required.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Kind,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <heavy-batch|routed-evict> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Where runs keep their snapshots and span dumps: the build directory the
/// benchmark is compiled into (`CARGO_TARGET_DIR`, else `.bench_build`).
fn scratch_root() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"))
        .join("perfbench")
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Deploys from empty once per rep, shutting each deployment down again,
/// and returns the set-up times.
fn time_setups(
    inputs: &Inputs,
    cores: usize,
    scratch: &Path,
    reps: Range<usize>,
) -> Result<Vec<f64>, String> {
    reps.map(|rep| {
        let (dep, secs) = workloads::deploy(inputs, cores, &scratch.join(format!("setup-{rep}")))?;
        dep.shutdown();
        Ok(secs)
    })
    .collect()
}

fn run(args: &Args) -> Result<Report, String> {
    let cores = cores();
    let root = scratch_root();
    let scratch = workloads::scratch_dir(&root, args.workload, args.seed)?;
    let result = measure(args, cores, &root, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn measure(args: &Args, cores: usize, root: &Path, scratch: &Path) -> Result<Report, String> {
    let spec = args.workload.spec();
    let inputs = Inputs::generate(spec, args.seed, &ExecutionContext::with_threads(cores));
    // Half the set-ups are timed before the traffic and the rest after it,
    // so their median spans the host's conditions over the whole run.  The
    // traced run reports no set-up time and deploys once.
    let reps = if args.trace {
        1
    } else {
        inputs.spec.setup_reps
    };
    let before = reps / 2;
    let mut setups = time_setups(&inputs, cores, scratch, 0..before)?;
    let (dep, secs) = workloads::deploy(&inputs, cores, &scratch.join(format!("setup-{before}")))?;
    setups.push(secs);
    let window = Duration::from_secs(args.seconds);
    let mut report = Report::new(args, cores);
    if args.trace {
        let tracer = layers::traced_run(&inputs, &dep, window, &mut report);
        dep.shutdown();
        let tracer = tracer?;
        let path = root.join(format!(
            "spans-{}-seed{}.tsv",
            args.workload.name(),
            args.seed
        ));
        match std::fs::write(&path, tracer.to_tsv()) {
            Ok(()) => report.note(format!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            )),
            Err(e) => report.note(format!("spans: could not write {}: {e}", path.display())),
        }
        report.require(&layers::PER_LAYER)?;
    } else {
        let m = workloads::measure(&inputs, &dep, 0, window, None);
        dep.shutdown();
        let m = m?;
        setups.extend(time_setups(&inputs, cores, scratch, before + 1..reps)?);
        report.end_to_end(&inputs, &setups, &m);
        report.require(&report::END_TO_END)?;
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            report.print();
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: wrong answers (see above)");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_documented_command_line() {
        let a = args(&[
            "--workload",
            "routed-evict",
            "--seed",
            "12",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid arguments");
        assert_eq!(a.workload, Kind::RoutedEvict);
        assert_eq!((a.seed, a.seconds, a.trace), (12, 10, true));
    }

    /// The metric names of one `BENCHMARK.json` section, in order.
    fn declared(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let end = body.find(']').expect("section is a list");
        body[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        assert_eq!(declared("end_to_end"), report::END_TO_END);
        assert_eq!(declared("per_layer"), layers::PER_LAYER);
        let workloads: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(declared("workloads"), workloads);
    }

    #[test]
    fn rejects_incomplete_or_unknown_arguments() {
        assert!(args(&["--workload", "heavy-batch"]).is_err());
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "heavy-batch",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "heavy-batch",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
    }
}
