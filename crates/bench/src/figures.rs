//! Every table and figure of the evaluation (§7), computed.

use dana::runtime::{EPOCH_OVERHEAD_S, SETUP_SECONDS};
use dana::ExecutionMode::{CpuFed, Strider, Tabla};
use dana::{
    analytic_dana, analytic_dana_threads, analytic_external, analytic_greenplum, analytic_madlib,
    ExecutionMode, SystemParams,
};
use dana_ml::ExternalLibrary::{self, DimmWitted, Liblinear};
use dana_storage::DiskModel;
use dana_workloads::{all_workloads, Workload};

use crate::paper::*;
use crate::Unit::{Count, Percent, Ratio, Seconds};
use crate::{geomean, Claim, Figure, Row, Series, Unit};

/// One series per column of a published table: the paper's value beside
/// `ours(workload)[column]`.
fn columns<const N: usize>(
    labels: [&str; N],
    unit: Unit,
    published: &[(&str, [f64; N])],
    ours: impl Fn(&str) -> [f64; N],
) -> Vec<Series> {
    let ours: Vec<[f64; N]> = published.iter().map(|r| ours(r.0)).collect();
    let column = |i: usize| {
        let rows = published.iter().zip(&ours).map(|(r, ours)| Row {
            name: r.0.to_string(),
            paper: Some(r.1[i]),
            ours: ours[i],
        });
        Series {
            label: labels[i].to_string(),
            unit,
            rows: rows.collect(),
        }
    };
    (0..N).map(column).collect()
}

/// A series of ours the paper prints no values for.
fn listing(label: &str, unit: Unit, values: &[(impl ToString, f64)]) -> Series {
    let rows = values.iter().map(|(name, ours)| Row {
        name: name.to_string(),
        paper: None,
        ours: *ours,
    });
    Series {
        label: label.to_string(),
        unit,
        rows: rows.collect(),
    }
}

fn figure(id: &str, title: &str, series: Vec<Series>, claims: Vec<Claim>) -> Figure {
    Figure {
        id: id.to_string(),
        title: title.to_string(),
        series,
        claims,
    }
}

fn claim(holds: bool, text: String) -> Claim {
    Claim { text, holds }
}

/// "`what` on n/N workloads", holding when `ours > 1` on every row.
fn wins_everywhere(what: &str, s: &Series) -> Claim {
    let wins = s.rows.iter().filter(|r| r.ours > 1.0).count();
    let text = format!("{what} on {wins}/{} workloads", s.rows.len());
    claim(wins == s.rows.len(), text)
}

/// End-to-end seconds of DAnA (or an ablation of it).
fn dana_seconds(w: &Workload, mode: ExecutionMode, warm: bool, p: &SystemParams) -> f64 {
    analytic_dana(w, mode, warm, p)
        .unwrap_or_else(|e| panic!("{}: {e}", w.name))
        .total_seconds
}

/// Computes every table and figure of §7 under `p` (the paper's setup is
/// `SystemParams::default()`), in the paper's order.
pub fn figures(p: &SystemParams) -> Vec<Figure> {
    let all = all_workloads();
    let at = |name: &str| {
        let index = all.iter().position(|w| w.name == name);
        index.unwrap_or_else(|| panic!("'{name}' is not a Table-3 workload"))
    };
    // End-to-end seconds of the three principal systems on all fourteen
    // workloads, per cache setting: Table 5 and Figs. 8–11, 13 and 15c
    // read these.
    let systems = [
        "MADlib+PostgreSQL",
        "MADlib+Greenplum (8 segments)",
        "DAnA+PostgreSQL",
    ];
    let totals = |warm: bool| -> Vec<[f64; 3]> {
        let seconds = |w| {
            let madlib = analytic_madlib(w, warm, p).total_seconds;
            let greenplum = analytic_greenplum(w, 8, warm, p).total_seconds;
            [madlib, greenplum, dana_seconds(w, Strider, warm, p)]
        };
        all.iter().map(seconds).collect()
    };
    let (warm, cold) = (totals(true), totals(false));
    // Figs. 12, 14 and 16 compare accelerator time, which excludes disk.
    let fpga_only = SystemParams {
        disk: DiskModel::instant(),
        ..*p
    };
    let accelerator = |w| dana_seconds(w, Strider, true, &fpga_only);
    let accelerator: Vec<f64> = all.iter().map(accelerator).collect();
    let mut figs = vec![table3(&all), table4(p)];

    // Absolute times depend on the fitted epoch counts; the figures'
    // ratios are the primary reproduction target.
    let published = TABLE5.map(|r| (r.0, [r.1, r.2, r.3]));
    let seconds = columns(systems, Seconds, &published, |w| warm[at(w)]);
    figs.push(figure(
        "table5",
        "absolute runtimes, warm cache",
        seconds,
        vec![],
    ));

    for (n, class, published) in [
        (8, "public", [FIG8_WARM.to_vec(), FIG8_COLD.to_vec()]),
        (
            9,
            "synthetic nominal (S/N)",
            [FIG9_WARM.to_vec(), FIG9_COLD.to_vec()],
        ),
        (
            10,
            "synthetic extensive (S/E)",
            [FIG10_WARM.to_vec(), FIG10_COLD.to_vec()],
        ),
    ] {
        let caches = [("a", "warm", &warm), ("b", "cold", &cold)];
        for (published, (ab, cache, set)) in published.iter().zip(caches) {
            let published: Vec<_> = published.iter().map(|r| (r.0, [r.1, r.2])).collect();
            let labels = ["Greenplum speedup", "DAnA speedup"];
            let speedups = columns(labels, Ratio, &published, |w| {
                let [madlib, greenplum, dana] = set[at(w)];
                [madlib / greenplum, madlib / dana]
            });
            let dana = &speedups[1];
            let mut claims = Vec::new();
            if n == 10 {
                let best = dana.rows.iter().max_by(|a, b| a.ours.total_cmp(&b.ours));
                let holds = best.is_some_and(|r| r.name == "S/E Logistic");
                claims.push(claim(holds, "S/E Logistic is the largest S/E win".into()));
            } else {
                claims.push(wins_everywhere(
                    "DAnA is faster than MADlib+PostgreSQL",
                    dana,
                ));
            }
            if (n, ab) == (8, "a") {
                // The abstract's headline: 8.3x on average for real datasets.
                let ratio = dana.geomean() / geomean(&FIG8_WARM.map(|r| r.2));
                let text = "the geomean DAnA speedup is within 3x of the paper's";
                claims.push(claim((1.0 / 3.0..=3.0).contains(&ratio), text.into()));
            }
            let title = format!("speedup over MADlib+PostgreSQL, {class} datasets, {cache} cache");
            figs.push(figure(&format!("fig{n}{ab}"), &title, speedups, claims));
        }
    }

    let labels = ["DAnA without Striders", "DAnA with Striders"];
    let published = FIG11.map(|r| (r.0, [r.1, r.2]));
    let striders = columns(labels, Ratio, &published, |w| {
        let [madlib, _, dana] = warm[at(w)];
        [
            madlib / dana_seconds(&all[at(w)], CpuFed, true, p),
            madlib / dana,
        ]
    });
    let pairs = striders[0].rows.iter().zip(&striders[1].rows);
    let helped = pairs
        .filter(|(without, with)| with.ours > without.ours)
        .count();
    let text = format!(
        "Striders make DAnA faster on {helped}/{} workloads (geomean amplification: paper \
         {:.1}x, ours {:.1}x)",
        FIG11.len(),
        geomean(&FIG11.map(|r| r.2 / r.1)),
        striders[1].geomean() / striders[0].geomean()
    );
    let claims = vec![claim(helped == FIG11.len(), text)];
    let title = "speedup over MADlib+PostgreSQL with and without Striders, warm cache";
    figs.push(figure("fig11", title, striders, claims));

    // Narrow models keep improving until peak compute utilization; LRMF's
    // row gathers contend for model memory; Patient saturates once the
    // engine is no longer the bottleneck.
    let sweeps: [(&str, &[u32]); 4] = [
        ("Remote Sensing SVM", &[1, 4, 16, 64, 128]),
        ("Remote Sensing LR", &[1, 4, 16, 64, 128]),
        ("Netflix", &[1, 2, 4, 8, 16, 32, 64]),
        ("Patient", &[1, 4, 16, 64, 128]),
    ];
    let (mut speedups, mut claims) = (Vec::new(), Vec::new());
    for (name, threads) in sweeps {
        let seconds = |t: u32| {
            analytic_dana_threads(&all[at(name)].with_merge_coef(t), t, true, &fpga_only)
                .unwrap_or_else(|e| panic!("{name} at {t} threads: {e}"))
                .total_seconds
        };
        // Every sweep starts at one thread.
        let seconds: Vec<f64> = threads.iter().map(|&t| seconds(t)).collect();
        let points: Vec<(String, f64)> = threads
            .iter()
            .zip(&seconds)
            .map(|(t, s)| (format!("{t} threads"), seconds[0] / s))
            .collect();
        let last = points.len() - 1;
        let saturates = points.windows(2).all(|w| w[1].1 >= w[0].1 * 0.85)
            && points[last].1 / points[last - 1].1 < 1.15;
        let text = format!("{name} improves with threads, then saturates");
        claims.push(claim(saturates, text));
        speedups.push(listing(
            &format!("{name}: speedup over one thread"),
            Ratio,
            &points,
        ));
    }
    let title = "accelerator runtime vs merge coefficient (thread count)";
    figs.push(figure("fig12", title, speedups, claims));

    let labels = ["PostgreSQL", "4 segments", "16 segments"];
    let published = FIG13.map(|r| (r.0, [r.1, r.2, r.3]));
    let relative = columns(labels, Ratio, &published, |w| {
        let gp = |segments| analytic_greenplum(&all[at(w)], segments, true, p).total_seconds;
        let [madlib, eight, _] = warm[at(w)];
        [eight / madlib, eight / gp(4), eight / gp(16)]
    });
    let best =
        relative[0].geomean() < 1.0 && relative[1].geomean() < 1.0 && relative[2].geomean() < 1.02;
    let text = "8 segments is the best Greenplum configuration overall";
    let title = "Greenplum performance relative to 8 segments (higher = faster), warm cache";
    figs.push(figure(
        "fig13",
        title,
        relative,
        vec![claim(best, text.into())],
    ));

    let labels = [
        "0.25x bandwidth",
        "0.5x bandwidth",
        "2x bandwidth",
        "4x bandwidth",
    ];
    let by_scale = columns(labels, Ratio, &FIG14, |w| {
        let seconds = |scale| {
            let scaled = fpga_only.with_bandwidth_scale(scale);
            dana_seconds(&all[at(w)], Strider, true, &scaled)
        };
        [0.25, 0.5, 2.0, 4.0].map(|scale| accelerator[at(w)] / seconds(scale))
    });
    // A workload the paper calls bandwidth-bound (4x gives >= 1.3x)
    // should be bound here too, and vice versa.
    let bound = |r: &&Row| r.paper.is_some_and(|p| p >= 1.3) == (r.ours >= 1.3);
    let agree = by_scale[3].rows.iter().filter(bound).count();
    let text = format!(
        "the bandwidth-bound classification (4x bandwidth gives >= 1.3x) matches the paper's on \
         {agree}/{} workloads (held at >= 11)",
        FIG14.len()
    );
    let title = "FPGA-time speedup over the baseline AXI bandwidth";
    figs.push(figure(
        "fig14",
        title,
        by_scale,
        vec![claim(agree >= 11, text)],
    ));

    // Export, transform and analytics seconds outside the database.
    let external = |name: &str, lib: ExternalLibrary| {
        let (e, t, c) = analytic_external(&all[at(name)], lib, p)
            .unwrap_or_else(|| panic!("{} does not support {name}", lib.name()));
        [e, t, c]
    };
    let mut shares = Vec::new();
    for lib in [Liblinear, DimmWitted] {
        let rows = FIG15A.iter().filter(|r| r.0 == lib.name());
        let published: Vec<_> = rows
            .map(|r| (r.1, [r.2, r.3, r.4].map(|v| 100.0 * v)))
            .collect();
        let labels =
            ["export", "transform", "analytics"].map(|phase| format!("{}: {phase}", lib.name()));
        shares.extend(columns(
            labels.each_ref().map(|l| l.as_str()),
            Percent,
            &published,
            |w| {
                let seconds = external(w, lib);
                seconds.map(|phase| 100.0 * phase / seconds.iter().sum::<f64>())
            },
        ));
    }
    let title = "share of the external libraries' runtime per phase";
    figs.push(figure("fig15a", title, shares, vec![]));

    let labels = ["Liblinear-Multicore", "DimmWitted", "DAnA"];
    let published = FIG15C.map(|r| (r.0, [r.1, r.2, r.3]));
    let systems = columns(labels, Ratio, &published, |w| {
        let [madlib, _, dana] = warm[at(w)];
        let outside = |lib| madlib / external(w, lib).iter().sum::<f64>();
        [outside(Liblinear), outside(DimmWitted), madlib / dana]
    });
    let ours = |s: usize, k: usize| systems[s].rows[k].ours;
    let fastest = |k: &usize| ours(2, *k) > ours(0, *k).max(ours(1, *k));
    let fastest = (0..FIG15C.len()).filter(fastest).count();
    let text = format!(
        "DAnA is faster than both libraries on {fastest}/{} workloads",
        FIG15C.len()
    );
    let claims = vec![claim(fastest == FIG15C.len(), text)];
    let title = "end-to-end speedup over MADlib+PostgreSQL, external libraries vs DAnA";
    figs.push(figure("fig15c", title, systems, claims));

    // TABLA compiles the same update rules but is fed by the CPU (no
    // Striders) and runs a single-threaded engine.
    let published = FIG16.map(|r| (r.0, [r.1]));
    let tabla = columns(["DAnA speedup over TABLA"], Ratio, &published, |w| {
        [dana_seconds(&all[at(w)], Tabla, true, &fpga_only) / accelerator[at(w)]]
    });
    let claims = vec![wins_everywhere("DAnA is faster than TABLA", &tabla[0])];
    figs.push(figure(
        "fig16",
        "accelerator-time speedup over TABLA",
        tabla,
        claims,
    ));
    figs
}

/// Table 3: the dataset inventory, under our page layout.
fn table3(all: &[Workload]) -> Figure {
    // Dense models have one dimension (features); LRMF has rows, columns
    // and rank. The registry's topology is the paper's, verbatim.
    let topology = |label, i: usize| {
        let dim = |w: &Workload| match w.lrmf {
            Some((rows, cols, rank)) => Some([rows, cols, rank][i]),
            None => (i == 0).then_some(w.features),
        };
        let dims = all.iter().filter_map(|w| Some((w.name, dim(w)? as f64)));
        listing(label, Count, &dims.collect::<Vec<_>>())
    };
    let mut series = vec![
        topology("model topology: features, or LRMF rows", 0),
        topology("model topology: LRMF columns", 1),
        topology("model topology: LRMF rank", 2),
    ];
    // LRMF is stored as (i, j, rating) triples sized to the paper's byte
    // volume, not as the paper's dense rows.
    let published: Vec<_> = all
        .iter()
        .map(|w| {
            (
                w.name,
                [w.paper_tuples, w.paper_pages, w.paper_mb].map(|v| v as f64),
            )
        })
        .collect();
    series.extend(columns(
        ["tuples", "32 KB pages", "size, MB"],
        Count,
        &published,
        |name| {
            let w = all.iter().find(|w| w.name == name).expect("a row of `all`");
            [w.tuples, w.pages_for(32 * 1024), w.bytes() / 1_000_000].map(|v| v as f64)
        },
    ));
    let epochs: Vec<_> = all.iter().map(|w| (w.name, w.epochs as f64)).collect();
    series.push(listing("training epochs (fitted)", Count, &epochs));
    figure(
        "table3",
        "datasets and machine learning models",
        series,
        vec![],
    )
}

/// Table 4: the FPGA, and the platform constants fitted around it.
fn table4(p: &SystemParams) -> Figure {
    let f = &p.fpga;
    let device = [
        ("LUTs, thousands", f.luts / 1000),
        ("flip-flops, thousands", f.flip_flops / 1000),
        ("frequency, MHz", (f.clock.hz / 1.0e6) as u64),
        ("BRAM, MB", f.bram_bytes / (1024 * 1024)),
        ("DSP slices", f.dsp_slices),
        ("max compute units", f.max_compute_units as u64),
        (
            "baseline AXI bandwidth, MB/s (fitted)",
            (f.axi_bandwidth / 1.0e6) as u64,
        ),
    ];
    let host = [
        ("one-time accelerator setup", SETUP_SECONDS),
        ("host orchestration per epoch", EPOCH_OVERHEAD_S),
    ];
    let series = vec![
        listing("device", Count, &device.map(|(name, v)| (name, v as f64))),
        listing("fitted host overheads", Seconds, &host),
    ];
    figure(
        "table4",
        &format!("FPGA specification ({})", f.name),
        series,
        vec![],
    )
}
