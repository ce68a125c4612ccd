//! What one run reports: named metrics with units, the pass/fail counts,
//! and a header describing the machine and inputs. Printed to stdout (the
//! last line is the machine-readable result) and, with `--out`, written as
//! a record file — never into the source tree.

use std::path::Path;
use std::process::{Command, Stdio};

use serde::json::Value;

/// Values for one of the catalogue's metric lists; unset metrics read 0.
pub struct Metrics {
    defs: &'static [(&'static str, &'static str)],
    values: Vec<f64>,
}

impl Metrics {
    pub fn new(defs: &'static [(&'static str, &'static str)]) -> Metrics {
        Metrics {
            defs,
            values: vec![0.0; defs.len()],
        }
    }

    /// Sets a catalogue metric. Non-finite values (an empty sample set
    /// divided out) are stored as 0 so the output stays valid JSON.
    pub fn set(&mut self, name: &str, value: f64) {
        let idx = self
            .defs
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"));
        self.values[idx] = if value.is_finite() { value } else { 0.0 };
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.defs
            .iter()
            .zip(&self.values)
            .map(|((name, unit), v)| (*name, *v, *unit))
    }

    fn to_value(&self) -> Value {
        Value::Obj(
            self.iter()
                .map(|(name, v, unit)| {
                    let entry = Value::Obj(vec![
                        ("value".to_string(), Value::Float(v)),
                        ("unit".to_string(), Value::Str(unit.to_string())),
                    ]);
                    (name.to_string(), entry)
                })
                .collect(),
        )
    }
}

/// The result of one run of one workload.
pub struct Outcome {
    /// Operations attempted (statements, point requests, output checks'
    /// twin statements) and how many errored or failed their check.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Measured operation counts, for the header (`cycles`, `requests`, …).
    pub ops: Vec<(&'static str, u64)>,
}

impl Outcome {
    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn result_value(&self) -> Value {
        Value::Obj(vec![
            ("correct".to_string(), Value::Bool(self.failed == 0)),
            ("attempted".to_string(), Value::Int(self.attempted as i64)),
            ("failed".to_string(), Value::Int(self.failed as i64)),
            ("metrics".to_string(), self.metrics.to_value()),
        ])
    }
}

/// Where and on what the numbers were taken.
pub struct Header {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

impl Header {
    /// The header as JSON. Asks `rustc` and `git` who they are, so build
    /// it once per run.
    pub fn to_value(&self, ops: &[(&'static str, u64)]) -> Value {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        Value::Obj(vec![
            ("workload".to_string(), Value::Str(self.workload.clone())),
            ("seed".to_string(), Value::Int(self.seed as i64)),
            ("seconds".to_string(), Value::Float(self.seconds)),
            ("trace".to_string(), Value::Bool(self.trace)),
            ("smoke".to_string(), Value::Bool(self.smoke)),
            ("nproc".to_string(), Value::Int(nproc as i64)),
            (
                "rustc".to_string(),
                Value::Str(first_line_of("rustc", &["--version"])),
            ),
            (
                "commit".to_string(),
                Value::Str(first_line_of("git", &["rev-parse", "HEAD"])),
            ),
            (
                "ops".to_string(),
                Value::Obj(
                    ops.iter()
                        .map(|(k, n)| (k.to_string(), Value::Int(*n as i64)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// The record of one run: header plus result. One JSON object.
pub fn record_value(header: &Value, outcome: &Outcome) -> Value {
    let Value::Obj(mut pairs) = outcome.result_value() else {
        unreachable!("result_value builds an object")
    };
    pairs.insert(0, ("header".to_string(), header.clone()));
    Value::Obj(pairs)
}

/// File name of a run's record inside an `--out` directory.
pub fn record_file(workload: &str, trace: bool) -> String {
    format!("{workload}.{}.json", if trace { "traced" } else { "plain" })
}

/// Prints the human-readable report and, last, the result line.
pub fn print_report(header: &Value, outcome: &Outcome) {
    let Value::Obj(fields) = header else {
        unreachable!("the header is an object")
    };
    for (key, value) in fields {
        println!("# {key}: {value}");
    }
    for (name, value, unit) in outcome.metrics.iter() {
        println!("{name:<44} {value:>18.6} {unit}");
    }
    println!(
        "# attempted {} failed {}",
        outcome.attempted, outcome.failed
    );
    println!("{}", outcome.result_value());
}

/// Writes `value` as one line to `path`, creating parent directories.
pub fn write_json(path: &Path, value: &Value) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, format!("{value}\n"))
}
