//! `compare A B`: two sets of run records (two `--out` directories) held
//! against `BENCHMARK.json`. Every workload × end-to-end metric gets one
//! row — improved, unchanged or regressed by the metric's bound — and the
//! numbers that are deterministic for one seed (everything on the
//! simulated clock, and count-type layer metrics) must be exactly equal.

use std::path::Path;

use serde::json::{parse, Value};

use crate::catalogue::SIM_S;

/// One `end_to_end` entry of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounded {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// A deterministic number that must repeat exactly, and did.
    Equal,
    /// A deterministic number that must repeat exactly, and did not.
    Differs,
}

impl Verdict {
    pub fn fails(self) -> bool {
        matches!(self, Verdict::Regressed | Verdict::Differs)
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub record: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    pub verdict: Verdict,
}

/// How `b` stands against `a` under a relative `bound`.
pub fn verdict(lower_is_better: bool, bound: f64, a: f64, b: f64) -> Verdict {
    let worse_by = if lower_is_better { b - a } else { a - b } / a.abs();
    if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// The `end_to_end` bounds of a parsed `BENCHMARK.json`.
pub fn bounds_of(spec: &Value) -> Result<Vec<Bounded>, String> {
    let entries = spec
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    entries
        .iter()
        .map(|e| {
            let text = |key: &str| match e.get(key) {
                Some(Value::Str(s)) => Ok(s.clone()),
                _ => Err(format!("end_to_end entry without `{key}`")),
            };
            Ok(Bounded {
                name: text("name")?,
                lower_is_better: text("better")? == "lower",
                bound: e
                    .get("bound")
                    .and_then(number)
                    .ok_or("end_to_end entry without `bound`")?,
            })
        })
        .collect()
}

fn metrics_of(record: &Value) -> Result<Vec<(String, f64, String)>, String> {
    let Some(Value::Obj(pairs)) = record.get("metrics") else {
        return Err("record has no metrics".to_string());
    };
    pairs
        .iter()
        .map(|(name, entry)| {
            let value = entry.get("value").and_then(number);
            match (value, entry.get("unit")) {
                (Some(v), Some(Value::Str(unit))) => Ok((name.clone(), v, unit.clone())),
                _ => Err(format!("metric `{name}` lacks a value or unit")),
            }
        })
        .collect()
}

fn header_field<'a>(record: &'a Value, key: &str) -> Result<&'a Value, String> {
    record
        .get("header")
        .and_then(|h| h.get(key))
        .ok_or(format!("record header lacks `{key}`"))
}

/// Compares two records of the same workload and kind. Refuses smoke
/// records (their reduced op counts are no baseline) and records of
/// different seeds (their inputs differ).
pub fn compare_records(
    label: &str,
    bounds: &[Bounded],
    a: &Value,
    b: &Value,
) -> Result<Vec<Row>, String> {
    for record in [a, b] {
        if header_field(record, "smoke")? == &Value::Bool(true) {
            return Err(format!("{label}: smoke records are not comparable"));
        }
    }
    if header_field(a, "seed")? != header_field(b, "seed")? {
        return Err(format!(
            "{label}: the records were run with different seeds"
        ));
    }
    let (ma, mb) = (metrics_of(a)?, metrics_of(b)?);
    let mut rows = Vec::new();
    for (name, va, unit) in &ma {
        let Some((_, vb, _)) = mb.iter().find(|(n, _, _)| n == name) else {
            return Err(format!(
                "{label}: `{name}` is missing from the second record"
            ));
        };
        // For one seed the simulated clock and the program's own counts
        // repeat exactly; any drift is a behaviour change.
        let verdict = if unit == "count" || unit == SIM_S {
            if va == vb {
                Verdict::Equal
            } else {
                Verdict::Differs
            }
        } else if let Some(bounded) = bounds.iter().find(|b| b.name == *name) {
            verdict(bounded.lower_is_better, bounded.bound, *va, *vb)
        } else {
            continue;
        };
        rows.push(Row {
            record: label.to_string(),
            metric: name.clone(),
            a: *va,
            b: *vb,
            verdict,
        });
    }
    Ok(rows)
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compares every record of directory `a` with its namesake in `b`,
/// printing one row per checked metric. `Ok(true)` when nothing
/// regressed or differed.
pub fn compare_dirs(spec: &Path, a: &Path, b: &Path) -> Result<bool, String> {
    let bounds = bounds_of(&read_json(spec)?)?;
    let mut names: Vec<String> = std::fs::read_dir(a)
        .map_err(|e| format!("{}: {e}", a.display()))?
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter(|name| name.ends_with(".json"))
        .collect();
    names.sort();
    if names.is_empty() {
        return Err(format!("{}: no records", a.display()));
    }
    let mut ok = true;
    for name in names {
        let label = name.trim_end_matches(".json");
        let rows = compare_records(
            label,
            &bounds,
            &read_json(&a.join(&name))?,
            &read_json(&b.join(&name))?,
        )?;
        for row in rows {
            ok &= !row.verdict.fails();
            let change = if row.a == row.b {
                0.0
            } else {
                (row.b - row.a) / row.a.abs() * 100.0
            };
            println!(
                "{:<22} {:<34} {:>18.9} {:>18.9} {change:>+9.2}%  {:?}",
                row.record, row.metric, row.a, row.b, row.verdict
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seed: u64, smoke: bool, metrics: &[(&str, f64, &str)]) -> Value {
        let metrics: Vec<String> = metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{v:?},\"unit\":\"{u}\"}}"))
            .collect();
        parse(&format!(
            "{{\"header\":{{\"seed\":{seed},\"smoke\":{smoke}}},\"metrics\":{{{}}}}}",
            metrics.join(",")
        ))
        .unwrap()
    }

    fn bounds() -> Vec<Bounded> {
        bounds_of(
            &parse(
                r#"{"end_to_end":[
                    {"name":"op_wall_p50_ms","unit":"ms","better":"lower","bound":0.1},
                    {"name":"wall_rows_per_s","unit":"rows/s","better":"higher","bound":0.1},
                    {"name":"sim_s_per_cycle","unit":"sim_s","better":"lower","bound":0.01}]}"#,
            )
            .unwrap(),
        )
        .unwrap()
    }

    fn verdicts(rows: &[Row]) -> Vec<(&str, Verdict)> {
        rows.iter()
            .map(|r| (r.metric.as_str(), r.verdict))
            .collect()
    }

    #[test]
    fn bounds_apply_in_the_metrics_direction() {
        assert_eq!(verdict(true, 0.1, 100.0, 109.0), Verdict::Unchanged);
        assert_eq!(verdict(true, 0.1, 100.0, 111.0), Verdict::Regressed);
        assert_eq!(verdict(true, 0.1, 100.0, 89.0), Verdict::Improved);
        assert_eq!(verdict(false, 0.1, 100.0, 89.0), Verdict::Regressed);
        assert_eq!(verdict(false, 0.1, 100.0, 111.0), Verdict::Improved);
    }

    #[test]
    fn wall_metrics_get_a_band_and_the_simulated_clock_none() {
        let a = record(
            7,
            false,
            &[
                ("op_wall_p50_ms", 10.0, "ms"),
                ("wall_rows_per_s", 1000.0, "rows/s"),
                ("sim_s_per_cycle", 0.5, "sim_s"),
            ],
        );
        let b = record(
            7,
            false,
            &[
                ("op_wall_p50_ms", 10.5, "ms"),
                ("wall_rows_per_s", 800.0, "rows/s"),
                ("sim_s_per_cycle", 0.5000001, "sim_s"),
            ],
        );
        let rows = compare_records("w.plain", &bounds(), &a, &b).unwrap();
        assert_eq!(
            verdicts(&rows),
            vec![
                ("op_wall_p50_ms", Verdict::Unchanged),
                ("wall_rows_per_s", Verdict::Regressed),
                ("sim_s_per_cycle", Verdict::Differs),
            ]
        );
        let same = compare_records("w.plain", &bounds(), &a, &a).unwrap();
        assert!(same.iter().all(|r| !r.verdict.fails()));
    }

    #[test]
    fn layer_counts_and_simulated_seconds_must_match_and_layer_walls_are_not_judged() {
        let a = record(
            7,
            false,
            &[
                ("engine.cycles", 1200.0, "count"),
                ("strider.extract_ms", 5.0, "ms"),
                ("engine.sim_s", 0.25, "sim_s"),
            ],
        );
        let b = record(
            7,
            false,
            &[
                ("engine.cycles", 1201.0, "count"),
                ("strider.extract_ms", 50.0, "ms"),
                ("engine.sim_s", 0.26, "sim_s"),
            ],
        );
        let rows = compare_records("w.traced", &bounds(), &a, &b).unwrap();
        assert_eq!(
            verdicts(&rows),
            vec![
                ("engine.cycles", Verdict::Differs),
                ("engine.sim_s", Verdict::Differs)
            ]
        );
    }

    #[test]
    fn smoke_records_and_mixed_seeds_are_refused() {
        let plain = record(7, false, &[("op_wall_p50_ms", 1.0, "ms")]);
        let smoke = record(7, true, &[("op_wall_p50_ms", 1.0, "ms")]);
        let other = record(8, false, &[("op_wall_p50_ms", 1.0, "ms")]);
        assert!(compare_records("w", &bounds(), &plain, &smoke).is_err());
        assert!(compare_records("w", &bounds(), &plain, &other).is_err());
    }
}
