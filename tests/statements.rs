//! The statement matrix: every statement the front door runs, held to one
//! oracle.
//!
//! A row is an analytic (linearR, logisticR, svm, lrmf) × a backend (fpga,
//! cpu) × a gang size (`shards` 1, 2, 4) × a scan (no filter; a clustered
//! `WHERE`, whose zone maps prune pages; a scattered one, which prunes
//! none; a `COLUMNS` projection with a `WHERE` on a column it drops). Its
//! cells are EXECUTE, PREDICT INTO, EVALUATE and a point PREDICT; the
//! row's one EXECUTE trains the model its other statements score with.
//!
//! The oracle reads the generated rows in plain Rust. It keeps the rows
//! the predicate keeps, in the columns the projection keeps, and cuts them
//! where the pages of a table holding only them would split into the gang
//! (`dana_parallel::shard`'s contiguous page ranges, longer ones first).
//! Each member's slice trains one epoch at a time with `dana_ml::train_spec`
//! at the design's lanes and fold order, and `dana_ml::merge` merges the
//! members at every epoch boundary. The engine counters are the ragged-batch
//! closed form per member (the critical member's components) plus the merge
//! tier's bus and port cycles. `dana_ml::scorer` scores the survivors, the
//! materialized table is those survivors with their scores appended, and
//! the metric folds its per-row terms over each member's slice, in member
//! order. Everything is held bit for bit; a cell that must refuse is held
//! to its typed error, and the test prints every cell's status.

use std::fmt::Write as _;

use dana::prelude::*;
use dana::{exec, MetricKind};
use dana_compiler::{compile, CompileInput, CompiledAccelerator};
use dana_dsl::{Convergence, DataKind, ModelUpdate};
use dana_engine::engine::{BUS_WORDS, MODEL_PORTS};
use dana_engine::EngineStats;
use dana_ml::merge::merge_members;
use dana_ml::metrics::{classified_correctly, log_loss_term, squared_error_term};
use dana_ml::scorer::{score_dense_row, score_lrmf_row};
use dana_ml::{row_index, train_spec, Link, LrmfModel};
use dana_storage::page::TupleDirection;
use dana_storage::{ColumnType, Datum, HeapFileBuilder, TupleBatch};

mod common;
use common::{core, dense_rows, heap, pages_of, rating_rows, truth, zoo_spec, PAGE, ZOO};

const EPOCHS: u32 = 2;
const SHARDS: [u16; 3] = [1, 2, 4];

/// A generated table: its schema and its tuples, in insertion order.
struct Table {
    schema: Schema,
    tuples: Vec<Tuple>,
}

impl Table {
    fn heap(&self) -> HeapFile {
        heap(self.schema.clone(), TupleDirection::Ascending, &self.tuples)
    }
}

/// `tuples` with a column appended that rises through them in sixteen
/// steps of 1/8 from −1: clustered, so a predicate on it prunes pages.
fn with_ramp(tuples: Vec<Tuple>) -> Vec<Tuple> {
    let n = tuples.len();
    let ramp = |(k, mut t): (usize, Tuple)| {
        t.values
            .push(Datum::Float4((k * 16 / n) as f32 / 8.0 - 1.0));
        t
    };
    tuples.into_iter().enumerate().map(ramp).collect()
}

/// The analytic's table `t` (ten features, the last a ramp, or ratings
/// clustered by row), its wide twin `w` (`t` with more columns, a ramp
/// last), the `t` columns of its clustered and scattered filters and the
/// ramp column of `w`.
fn fixture(algo: Algorithm) -> (Table, Table, [(usize, f32); 3]) {
    if algo == Algorithm::Lrmf {
        let ratings = rating_rows(1200, 24, 18, true);
        let tuples: Vec<_> = ratings
            .iter()
            .map(|&(i, j, r)| Tuple::rating(i, j, r))
            .collect();
        let mut wide: Vec<_> = (Schema::rating().columns().iter())
            .map(|c| (c.name.clone(), c.ty))
            .collect();
        wide.push(("t".to_string(), ColumnType::Float4));
        let w = Table {
            schema: Schema::new(wide),
            tuples: with_ramp(tuples.clone()),
        };
        let t = Table {
            schema: Schema::rating(),
            tuples,
        };
        return (t, w, [(0, 12.0), (1, 9.0), (3, -0.5)]);
    }
    // `d` features, the last a ramp, and the label under `d − 1` of them.
    let table = |d: usize| {
        let rows = dense_rows(960, d - 1, algo, truth);
        let mut tuples = with_ramp(rows.iter().map(|(x, y)| Tuple::training(x, *y)).collect());
        tuples.iter_mut().for_each(|t| t.values.swap(d - 1, d));
        Table {
            schema: Schema::training(d),
            tuples,
        }
    };
    (table(10), table(12), [(9, -0.5), (0, 0.0), (11, -0.5)])
}

/// One scan of the matrix: `WHERE column < bound` over `t` or over `w`,
/// which it then projects onto `t`'s columns.
#[derive(Clone, Copy)]
struct Scan {
    name: &'static str,
    filter: Option<(usize, f32)>,
    projected: bool,
}

impl Scan {
    /// No filter; the clustered and scattered filters on `t`; the
    /// projection of `w` filtered on its ramp.
    fn all([clustered, scattered, ramp]: [(usize, f32); 3]) -> [Scan; 4] {
        let scan = |name, filter, projected| Scan {
            name,
            filter,
            projected,
        };
        [
            scan("none", None, false),
            scan("clustered", Some(clustered), false),
            scan("scattered", Some(scattered), false),
            scan("projected", Some(ramp), true),
        ]
    }

    fn table<'a>(&self, t: &'a Table, w: &'a Table) -> &'a Table {
        if self.projected {
            w
        } else {
            t
        }
    }

    /// Whether zone maps must prune pages (`None`: no pushdown scan).
    fn prunes(&self) -> Option<bool> {
        self.filter.map(|_| self.name != "scattered")
    }

    /// The statement's `WHERE` / `COLUMNS` text.
    fn clause(&self, t: &Table, w: &Table) -> String {
        let columns = self.table(t, w).schema.columns();
        let mut clause = (self.filter)
            .map(|(c, bound)| format!("WHERE {} < {bound}", columns[c].name))
            .unwrap_or_default();
        if self.projected {
            let names: Vec<_> = t.schema.columns().iter().map(|c| c.name.as_str()).collect();
            write!(clause, " COLUMNS ({})", names.join(", ")).unwrap();
        }
        clause
    }

    /// The tuples the scan keeps, in `t`'s columns.
    fn survivors(&self, t: &Table, w: &Table) -> Vec<Tuple> {
        let read = self.table(t, w);
        let columns: Vec<usize> = (t.schema.columns().iter())
            .map(|c| read.schema.column_index(&c.name).unwrap())
            .collect();
        let keep = |u: &&Tuple| self.filter.is_none_or(|(c, b)| u.values[c].as_f32() < b);
        let project = |u: &Tuple| Tuple::new(columns.iter().map(|&c| u.values[c]).collect());
        read.tuples.iter().filter(keep).map(project).collect()
    }
}

/// What the oracle says one row's statements must produce.
struct Oracle {
    /// The surviving tuples, projected, and each member's slice of them.
    survivors: Vec<Tuple>,
    members: Vec<TupleBatch>,
    models: Vec<Vec<f32>>,
    engine: EngineStats,
}

/// Cuts `rows` tuples into `k` members the way a gang over a table of
/// them would: contiguous ranges of its `capacity`-tuple pages, clamped
/// to the page count, the first `pages mod k` members one page longer.
fn member_sizes(rows: usize, capacity: usize, k: usize) -> Vec<usize> {
    let pages = rows.div_ceil(capacity);
    let k = k.clamp(1, pages.max(1));
    let mut start = 0;
    (0..k)
        .map(|m| {
            let end = start + pages / k + usize::from(m < pages % k);
            let size = (end * capacity).min(rows) - (start * capacity).min(rows);
            start = end;
            size
        })
        .collect()
}

/// The oracle for one row: survivors, member slices, the trained models
/// and the engine counters EXECUTE must report — `previous`'s, when it
/// cut the same members.
fn oracle(
    spec: &AlgoSpec,
    acc: &CompiledAccelerator,
    schema: &Schema,
    survivors: Vec<Tuple>,
    k: u16,
    previous: Option<Oracle>,
) -> Oracle {
    let capacity = HeapFileBuilder::layout_for(schema, PAGE, TupleDirection::Ascending)
        .unwrap()
        .capacity as usize;
    let mut rest = survivors.as_slice();
    let members: Vec<TupleBatch> = member_sizes(survivors.len(), capacity, k as usize)
        .into_iter()
        .map(|n| {
            let (slice, tail) = rest.split_at(n);
            rest = tail;
            let rows = slice
                .iter()
                .map(|t| t.values.iter().map(Datum::as_f32).collect::<Vec<_>>());
            TupleBatch::from_rows(schema.len(), rows)
        })
        .collect();
    let sizes = |members: &[TupleBatch]| members.iter().map(TupleBatch::len).collect::<Vec<_>>();
    if let Some(previous) = previous.filter(|p| sizes(&p.members) == sizes(&members)) {
        return previous;
    }

    let Convergence::Epochs(epochs) = spec.convergence else {
        panic!("the zoo trains for a fixed number of epochs");
    };
    let one_epoch = AlgoSpec {
        convergence: Convergence::Epochs(1),
        ..spec.clone()
    };
    let threads = acc.design.num_threads as usize;
    let mut models = exec::initial_models(&acc.design);
    for _ in 0..epochs {
        let ends: Vec<_> = (members.iter())
            .map(|slice| {
                let mut m = models.clone();
                train_spec(&one_epoch, &acc.fold_order, threads, slice, &mut m).unwrap();
                (m, slice)
            })
            .collect();
        models = merge_members(spec, &models, &ends);
    }
    let engine = engine_counters(spec, acc, epochs, &members);
    Oracle {
        survivors,
        members,
        models,
        engine,
    }
}

/// The engine counters a gang of `members` reports after `epochs`: each
/// member's epochs in the ragged-batch closed form, the gang's component
/// the critical member's (the one with the most tuples), the merge tier's
/// bus and port cycles added to its merge cycles, and tuples and batches
/// summed.
fn engine_counters(
    spec: &AlgoSpec,
    acc: &CompiledAccelerator,
    epochs: u32,
    members: &[TupleBatch],
) -> EngineStats {
    let (engine, d) = (&acc.engine, &acc.design);
    let e = u64::from(epochs);
    let threads = u64::from(d.num_threads.max(1));
    let compute = d.program.per_tuple_cycles() + d.program.post_merge_cycles();
    let broadcast: u64 = (d.models.iter())
        .filter(|m| m.broadcast_slots.is_some())
        .map(|m| (m.elements() as u64).div_ceil(BUS_WORDS))
        .sum();
    let tuples = |m: &TupleBatch| m.len() as u64;
    let critical = members.iter().max_by_key(|m| tuples(m)).map_or(0, tuples);
    let batches = critical.div_ceil(threads);
    let mut stats = EngineStats {
        epochs_run: epochs,
        tuples_processed: e * members.iter().map(tuples).sum::<u64>(),
        batches: e * members
            .iter()
            .map(|m| tuples(m).div_ceil(threads))
            .sum::<u64>(),
        compute_cycles: e * batches * compute,
        broadcast_cycles: e * batches * broadcast,
        merge_cycles: e
            * (engine.estimated_epoch_cycles(critical) - batches * (compute + broadcast)),
        ..EngineStats::default()
    };
    if members.len() > 1 {
        let k = members.len() as u64;
        let models: Vec<_> = spec.vars_of_kind(DataKind::Model).map(|v| v.id).collect();
        for update in &spec.model_updates {
            let m = models.iter().position(|&v| v == update.model()).unwrap();
            let desc = &d.models[m];
            stats.merge_cycles += e * match *update {
                ModelUpdate::Whole { .. } => ((k + 1) * desc.elements() as u64).div_ceil(BUS_WORDS),
                ModelUpdate::Row { index, .. } => {
                    // The index column is the input's position among the inputs.
                    let column = spec
                        .vars_of_kind(DataKind::Input)
                        .position(|v| v.id == index)
                        .unwrap();
                    let owners = |row: usize| {
                        let owns = |s: &&TupleBatch| {
                            s.rows().any(|r| row_index(r[column], desc.rows) == Ok(row))
                        };
                        members.iter().filter(owns).count() as u64
                    };
                    let owned: u64 = (0..desc.rows)
                        .map(|row| owners(row) * desc.cols as u64)
                        .sum();
                    owned.div_ceil(MODEL_PORTS)
                }
            };
        }
    }
    stats.cycles = stats.compute_cycles + stats.merge_cycles + stats.broadcast_cycles;
    stats
}

/// `row`'s raw score and prediction under `models`.
fn score(algo: Algorithm, models: &[Vec<f32>], row: &[f32]) -> (f32, f32) {
    match algo {
        Algorithm::Lrmf => {
            let (rows, cols) = (24, 18);
            let model = LrmfModel {
                l: models[0].clone(),
                r: models[1].clone(),
                rows,
                cols,
                rank: models[0].len() / rows,
            };
            let p = score_lrmf_row(&model, row);
            (p, p)
        }
        _ => {
            let link = if algo == Algorithm::Logistic {
                Link::Sigmoid
            } else {
                Link::Identity
            };
            let raw = score_dense_row(&models[0], row, Link::Identity);
            (raw, score_dense_row(&models[0], row, link))
        }
    }
}

/// The default metric's value over the members' slices, each folded in
/// row order and absorbed in member order.
fn metric(algo: Algorithm, models: &[Vec<f32>], members: &[TupleBatch]) -> (MetricKind, f64) {
    let kind = match algo {
        Algorithm::Linear => MetricKind::Mse,
        Algorithm::Logistic => MetricKind::LogLoss,
        Algorithm::Svm => MetricKind::Accuracy,
        Algorithm::Lrmf => MetricKind::LrmfRmse,
    };
    let (mut sum, mut correct, mut n) = (0.0, 0u64, 0u64);
    for slice in members {
        let mut part = 0.0;
        for row in slice.rows() {
            let (raw, pred) = score(algo, models, row);
            let label = row[row.len() - 1];
            match kind {
                MetricKind::LogLoss => part += log_loss_term(pred, label),
                MetricKind::Accuracy => correct += classified_correctly(raw, label, true) as u64,
                _ => part += squared_error_term(pred, label),
            }
        }
        sum += part;
        n += slice.len() as u64;
    }
    let value = match kind {
        MetricKind::Accuracy => correct as f64 / n as f64,
        MetricKind::LrmfRmse => (sum / n as f64).sqrt(),
        _ => sum / n as f64,
    };
    (kind, value)
}

/// The table PREDICT INTO must write: the survivors with their
/// predictions appended.
fn prediction_table(
    algo: Algorithm,
    models: &[Vec<f32>],
    schema: &Schema,
    survivors: &[Tuple],
) -> HeapFile {
    let mut cols: Vec<_> = schema
        .columns()
        .iter()
        .map(|c| (c.name.clone(), c.ty))
        .collect();
    cols.push(("prediction".to_string(), ColumnType::Float4));
    let mut b = HeapFileBuilder::new(Schema::new(cols), PAGE, TupleDirection::Ascending).unwrap();
    for t in survivors {
        let row: Vec<f32> = t.values.iter().map(Datum::as_f32).collect();
        let mut values = t.values.clone();
        values.push(Datum::Float4(score(algo, models, &row).1));
        b.insert(&Tuple::new(values)).unwrap();
    }
    b.finish()
}

/// Holds one analytic's rows to the oracle and returns their printed
/// lines.
fn analytic_rows(algo: Algorithm) -> String {
    let spec = zoo_spec(algo, EPOCHS);
    let udf = spec.name.clone();
    let (t, w, filters) = fixture(algo);
    let db = core(PAGE);
    let heap = t.heap();
    let acc = compile(&CompileInput {
        hdfg: &dana_hdfg::translate(&spec),
        fpga: FpgaSpec::vu9p(),
        layout: *heap.layout(),
        schema_columns: heap.schema().len(),
        expected_tuples: heap.tuple_count(),
    })
    .unwrap();
    db.create_table("t", heap).unwrap();
    db.create_table("w", w.heap()).unwrap();
    db.deploy(&spec, "t").unwrap();
    let lanes = acc.design.num_threads;
    let counters = || {
        let snap = db.stats_snapshot(Some("scan"));
        [
            "queries",
            "rows_considered",
            "rows_emitted",
            "pages_skipped",
        ]
        .map(|c| snap.get("scan", c).unwrap())
    };

    let mut lines = String::new();
    for scan in Scan::all(filters) {
        let (from, clause) = (if scan.projected { "w" } else { "t" }, scan.clause(&t, &w));
        let rows = scan.table(&t, &w).tuples.len() as f64;
        let mut previous = None;
        for k in SHARDS {
            let survivors = scan.survivors(&t, &w);
            let oracle = oracle(&spec, &acc, &t.schema, survivors, k, previous.take());
            let members = oracle.members.len() as u16;
            let kept = oracle.survivors.len() as f64;
            for (backend, tier) in [(BackendKind::Fpga, "fpga"), (BackendKind::Cpu, "cpu")] {
                let label = format!("{udf} {tier} k={k} {}", scan.name);
                let with = format!("WITH (backend = {tier}, shards = {k})");
                // Runs `sql`, holding the scan counters it charges when it
                // is a pushdown scan.
                let run = |sql: String| {
                    let before = counters();
                    let out = db.execute_statement(&sql);
                    let after = counters();
                    let delta = [0, 1, 2, 3].map(|i| after[i] - before[i]);
                    if let (Ok(_), Some(prunes)) = (&out, scan.prunes()) {
                        assert_eq!(
                            delta[..3],
                            [1.0, rows, kept],
                            "{label}: `{sql}` scan counters"
                        );
                        assert_eq!(delta[3] > 0.0, prunes, "{label}: `{sql}` pruned pages");
                    } else {
                        assert_eq!(delta, [0.0; 4], "{label}: `{sql}` is no pushdown scan");
                    }
                    out
                };
                // The cost-unit slots: simulated seconds on the FPGA tier,
                // wall seconds on the CPU tier.
                let slots = |timing: &DanaTiming, pushdown: bool| {
                    let fpga = backend == BackendKind::Fpga;
                    assert_eq!(timing.total_seconds > 0.0, fpga, "{label}: simulated total");
                    assert_eq!(timing.wall_seconds.is_some(), !fpga, "{label}: wall time");
                    let decompressed = timing.decompress_seconds > 0.0;
                    assert_eq!(decompressed, fpga && pushdown, "{label}: decompression");
                };
                let refused = |out: DanaResult<QueryResponse>| match out {
                    Err(e) => {
                        assert_eq!(format!("{e:?}"), format!("{:?}", exec::gang_needs_fpga()));
                        "gang_needs_fpga"
                    }
                    Ok(_) => panic!("{label}: a CPU gang must refuse"),
                };
                let gang_refused = backend == BackendKind::Cpu && k > 1;
                let mut cells = Vec::new();

                // EXECUTE.
                let out = run(format!("EXECUTE dana.{udf}('{from}') {clause} {with};"));
                cells.push(if gang_refused {
                    refused(out)
                } else {
                    let out = out.unwrap();
                    let report = out.report().unwrap();
                    assert_eq!(report.backend, backend, "{label}");
                    assert_eq!(report.shards, members, "{label}: members");
                    assert_eq!(report.num_threads, lanes, "{label}");
                    assert_eq!(report.epochs_run, EPOCHS, "{label}");
                    assert_eq!(report.models, oracle.models, "{label}: models");
                    assert_eq!(report.engine, oracle.engine, "{label}: engine counters");
                    slots(&report.timing, scan.filter.is_some());
                    "ok"
                });

                // PREDICT INTO.
                let dest = format!("p_{tier}_{k}_{}", scan.name);
                let out = run(format!(
                    "PREDICT dana.{udf}('{from}') INTO '{dest}' {clause} {with};"
                ));
                cells.push(if gang_refused {
                    refused(out)
                } else {
                    let out = out.unwrap();
                    let report = out.predict_report().unwrap();
                    assert_eq!(report.backend, backend, "{label}");
                    assert_eq!((report.shards, report.lanes), (members, lanes), "{label}");
                    assert_eq!(report.rows_scored as f64, kept, "{label}");
                    slots(&report.timing, scan.filter.is_some());
                    let want = prediction_table(algo, &oracle.models, &t.schema, &oracle.survivors);
                    let got = db.table_snapshot(&dest).unwrap();
                    assert_eq!(got.schema(), want.schema(), "{label}: prediction schema");
                    assert_eq!(pages_of(&got), pages_of(&want), "{label}: prediction pages");
                    if backend == BackendKind::Fpga && k == 1 && scan.filter.is_none() {
                        // A one-member gang is the serial statement: with
                        // no backend named, its bill and counters too.
                        let auto = run(format!(
                            "PREDICT dana.{udf}('t') INTO 'auto' WITH (shards = 1);"
                        ));
                        let auto = auto.unwrap();
                        let auto = auto.predict_report().unwrap();
                        assert_eq!((auto.timing, auto.scoring), (report.timing, report.scoring));
                    }
                    "ok"
                });

                // EVALUATE.
                let out = run(format!("EVALUATE dana.{udf}('{from}') {clause} {with};"));
                cells.push(if gang_refused {
                    refused(out)
                } else {
                    let out = out.unwrap();
                    let report = out.eval_report().unwrap();
                    let (kind, value) = metric(algo, &oracle.models, &oracle.members);
                    assert_eq!(report.backend, backend, "{label}");
                    assert_eq!((report.shards, report.lanes), (members, lanes), "{label}");
                    assert_eq!(report.rows_scored as f64, kept, "{label}");
                    assert_eq!(
                        (report.metric, report.value.to_bits()),
                        (kind, value.to_bits()),
                        "{label}: metric"
                    );
                    slots(&report.timing, scan.filter.is_some());
                    "ok"
                });

                // Point PREDICT: the first two survivors' inputs.
                let inputs = |t: &Tuple| {
                    let row: Vec<String> =
                        t.values.iter().map(|v| v.as_f32().to_string()).collect();
                    format!("({})", row[..row.len() - 1].join(", "))
                };
                let values: Vec<String> = oracle.survivors[..2].iter().map(inputs).collect();
                let with = if k == 1 {
                    format!("WITH (backend = {tier})")
                } else {
                    with
                };
                let sql = format!(
                    "PREDICT dana.{udf}(VALUES {}) {clause} {with};",
                    values.join(", ")
                );
                cells.push(match run(sql) {
                    Err(DanaError::Query(e)) if scan.filter.is_some() => {
                        assert!(e.contains("drop the WHERE/COLUMNS clause"), "{label}: {e}");
                        "no scan to filter"
                    }
                    Err(DanaError::Query(e)) if k > 1 => {
                        assert!(e.contains("drop the 'shards' option"), "{label}: {e}");
                        "no scan to shard"
                    }
                    Ok(out) => {
                        let report = out.point_report().unwrap();
                        assert_eq!((report.backend, report.lanes), (backend, lanes), "{label}");
                        let want: Vec<f32> = (oracle.survivors[..2].iter())
                            .map(|t| t.values.iter().map(Datum::as_f32).collect::<Vec<_>>())
                            .map(|row| score(algo, &oracle.models, &row).1)
                            .collect();
                        assert_eq!(report.predictions, want, "{label}: point predictions");
                        slots(&report.timing, false);
                        "ok"
                    }
                    Err(e) => panic!("{label}: {e:?}"),
                });
                let shown = match (gang_refused, members) {
                    (true, _) => "-".to_string(),
                    (false, 1) => "1 member".to_string(),
                    (false, m) => format!("{m} members"),
                };
                writeln!(lines, "{label:<30} {shown:<9} {}", cells.join(" | ")).unwrap();
            }
            previous = Some(oracle);
        }
    }
    assert_eq!(db.held_frames(), 0, "{udf}: held frames");
    lines
}

/// Every cell of the matrix, held to the oracle; the four analytics run
/// side by side, and the matrix is printed with each cell's status.
#[test]
fn every_statement_is_held_to_the_oracle() {
    let rows: Vec<String> = std::thread::scope(|s| {
        let runs: Vec<_> = ZOO.map(|algo| s.spawn(move || analytic_rows(algo))).into();
        runs.into_iter().map(|r| r.join().unwrap()).collect()
    });
    println!(
        "{:<30} {:<9} EXECUTE | PREDICT INTO | EVALUATE | point PREDICT",
        "row", "members"
    );
    print!("{}", rows.concat());
}
