//! The repo's end-to-end benchmark: four workloads through the SQL front
//! door, both clocks (host wall and the paper's simulated `DanaTiming`)
//! reported side by side. See `README.md` for the workloads, the metrics
//! and how to run; `../BENCHMARK.json` is the contract it is run under.

mod catalogue;
mod compare;
mod gen;
mod harness;
mod record;
mod replay;
mod span;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use record::{Header, Outcome};
use span::Tracer;
use workloads::{gang_cold, scan_pushdown, serve_mixed, train_public};

const USAGE: &str = "usage:
  dana-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
  dana-benchmark compare DIR_A DIR_B [--spec BENCHMARK.json]

Without --workload, every workload is run plain and traced, each run in a
child process of its own. Workloads: train_public gang_cold scan_pushdown
serve_mixed.";

/// What a workload run needs to know.
pub struct RunConfig {
    pub seed: u64,
    /// How long the measured phase lasts (`run_seconds` of BENCHMARK.json).
    pub seconds: f64,
    /// Two cycles instead of `seconds`; same metric names, not comparable.
    pub smoke: bool,
}

struct Args {
    workload: Option<String>,
    trace: bool,
    out: Option<PathBuf>,
    cfg: RunConfig,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        trace: false,
        out: None,
        cfg: RunConfig {
            seed: 7,
            seconds: 10.0,
            smoke: false,
        },
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !catalogue::WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload `{name}`"));
                }
                parsed.workload = Some(name.clone());
            }
            "--seed" => parsed.cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if parsed.cfg.seconds.is_nan() || parsed.cfg.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => parsed.cfg.smoke = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(parsed)
}

fn run_workload(name: &str, trace: bool, cfg: &RunConfig, tracer: &mut Tracer) -> Outcome {
    match (name, trace) {
        ("train_public", false) => train_public::plain(cfg),
        ("train_public", true) => train_public::traced(cfg, tracer),
        ("gang_cold", false) => gang_cold::plain(cfg),
        ("gang_cold", true) => gang_cold::traced(cfg, tracer),
        ("scan_pushdown", false) => scan_pushdown::plain(cfg),
        ("scan_pushdown", true) => scan_pushdown::traced(cfg, tracer),
        ("serve_mixed", false) => serve_mixed::plain(cfg),
        ("serve_mixed", true) => serve_mixed::traced(cfg, tracer),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

/// One run of one workload in this process.
fn run_one(name: &str, args: &Args) -> std::io::Result<()> {
    let mut tracer = Tracer::new(args.trace);
    let outcome = run_workload(name, args.trace, &args.cfg, &mut tracer);
    let header = Header {
        workload: name.to_string(),
        seed: args.cfg.seed,
        seconds: args.cfg.seconds,
        trace: args.trace,
        smoke: args.cfg.smoke,
    }
    .to_value(&outcome.ops);
    if let Some(dir) = &args.out {
        record::write_json(
            &dir.join(record::record_file(name, args.trace)),
            &record::record_value(&header, &outcome),
        )?;
        if args.trace {
            let file = std::fs::File::create(dir.join(format!("{name}.spans.jsonl")))?;
            let mut out = std::io::BufWriter::new(file);
            tracer.write_jsonl(&mut out)?;
            std::io::Write::flush(&mut out)?;
        }
    }
    record::print_report(&header, &outcome);
    Ok(())
}

/// Every workload, plain then traced, each in a child process of its own
/// so no run inherits another's heap, caches or peak RSS.
fn run_all(raw_args: &[String]) -> std::io::Result<bool> {
    let exe = std::env::current_exe()?;
    let mut all_correct = true;
    for name in catalogue::WORKLOADS {
        for trace in ["0", "1"] {
            println!("== {name} --trace {trace}");
            let output = Command::new(&exe)
                .args(raw_args)
                .args(["--workload", name, "--trace", trace])
                .stderr(std::process::Stdio::inherit())
                .output()?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            let correct = stdout
                .lines()
                .last()
                .is_some_and(|l| l.starts_with("{\"correct\":true,"));
            all_correct &= output.status.success() && correct;
        }
    }
    Ok(all_correct)
}

fn compare_main(args: &[String]) -> Result<bool, String> {
    let (dirs, spec) = match args {
        [a, b] => ([a, b], "BENCHMARK.json"),
        [a, b, flag, spec] if flag == "--spec" => ([a, b], spec.as_str()),
        _ => return Err(USAGE.to_string()),
    };
    compare::compare_dirs(Path::new(spec), Path::new(dirs[0]), Path::new(dirs[1]))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let passed = if raw.first().is_some_and(|a| a == "compare") {
        compare_main(&raw[1..])
    } else {
        parse_args(&raw).and_then(|args| {
            match &args.workload {
                Some(name) => run_one(name, &args).map(|()| true),
                None if args.trace => return Err("--trace needs --workload".to_string()),
                None => run_all(&raw),
            }
            .map_err(|e| e.to_string())
        })
    };
    match passed {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
