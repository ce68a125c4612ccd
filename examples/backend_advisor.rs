//! The cost-based backend advisor: EXPLAIN one query at three table
//! sizes and watch the chosen execution backend cross over from the
//! native CPU tier to the simulated FPGA.
//!
//! ```sh
//! cargo run --release --example backend_advisor
//! ```
//!
//! The default system keeps the paper's behavior — every query offloads
//! to the accelerator. Installing a profile without a manual threshold
//! enables the throughput model. Both tiers are priced over the scan the
//! statement will run: the FPGA estimate is the bill the run would get
//! (setup, per-epoch overhead, and the overlapped disk, AXI, Strider and
//! engine terms), and the CPU tier pays the same disk seconds plus host
//! decode and lane-ops at the profile's fixed rate. The FPGA's fixed costs
//! amortize against its lower price per row, so small tables price out
//! on the CPU and large tables on the FPGA; the break-even is read off
//! the two prices' slopes. `EXPLAIN` prints the per-backend comparison
//! without running anything; `WITH (backend = …)` overrides the advisor.
//! `DANA_SMOKE=1` shrinks the large table for CI. With the default
//! profile every `EXPLAIN` block is a function of the catalog alone, so
//! only the closing `wall` line differs between runs.

use dana::prelude::*;
use dana_dsl::zoo::{self, Algorithm, DenseParams};
use dana_storage::page::TupleDirection;
use dana_storage::{HeapFileBuilder, Schema};

const PAGE: usize = 32 * 1024;
const FEATURES: usize = 12;

fn dense_heap(n: usize) -> HeapFile {
    let truth: Vec<f32> = (0..FEATURES).map(|i| 0.3 * i as f32 - 0.8).collect();
    let mut b =
        HeapFileBuilder::new(Schema::training(FEATURES), PAGE, TupleDirection::Ascending).unwrap();
    for k in 0..n {
        let x: Vec<f32> = (0..FEATURES)
            .map(|i| (((k * 11 + i * 5) % 17) as f32 - 8.0) / 8.0)
            .collect();
        let y: f32 = x.iter().zip(&truth).map(|(a, b)| a * b).sum();
        b.insert(&Tuple::training(&x, y)).unwrap();
    }
    b.finish()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = std::env::var("DANA_SMOKE").is_ok();
    let db = Dana::default_system();

    let spec = zoo::spec_for(
        Algorithm::Linear,
        DenseParams {
            n_features: FEATURES,
            learning_rate: 0.1,
            merge_coef: 8,
            epochs: 8,
        },
    )?;
    db.create_table("probe", dense_heap(1_000))?;
    db.deploy(&spec, "probe")?;

    println!("=== cost-based backend advisor ===\n");

    // The stock system always offloads — the paper has no CPU tier.
    let paper = db.execute_statement("EXPLAIN SELECT * FROM dana.linearR('probe');")?;
    let paper = paper.comparison()?;
    println!("-- default profile (paper semantics: always offload)\n{paper}");
    assert_eq!(paper.chosen, BackendKind::Fpga);

    // Enable the throughput model and learn this program's break-even.
    let profile = db.hardware_profile().with_offload_threshold(None);
    db.set_hardware_profile(profile);
    let probe = db.execute_statement("EXPLAIN SELECT * FROM dana.linearR('probe');")?;
    let probe = probe.comparison()?;
    let break_even = probe
        .break_even_rows
        .expect("the default constants have a finite break-even");
    println!("-- throughput model enabled: break-even at ~{break_even} rows for this program\n");

    // The same query at three sizes straddling the break-even.
    let big = if smoke { 2 } else { 4 } * break_even as usize;
    let sizes = [
        ("tiny", (break_even as usize / 50).max(64)),
        ("mid", break_even as usize),
        ("big", big),
    ];
    let mut chosen = Vec::new();
    for (name, n) in sizes {
        db.create_table(name, dense_heap(n))?;
        let cmp =
            db.execute_statement(&format!("EXPLAIN SELECT * FROM dana.linearR('{name}');"))?;
        let cmp = cmp.comparison()?;
        println!("{cmp}");
        chosen.push(cmp.chosen);
    }
    assert_eq!(chosen[0], BackendKind::Cpu, "tiny tables stay on the CPU");
    assert_eq!(
        *chosen.last().unwrap(),
        BackendKind::Fpga,
        "large tables amortize the offload"
    );

    // An explicit override beats the advisor — and EXPLAIN says so.
    let forced =
        db.execute_statement("EXPLAIN SELECT * FROM dana.linearR('tiny') WITH (backend = fpga);")?;
    let forced = forced.comparison()?;
    assert!(forced.forced && forced.chosen == BackendKind::Fpga);
    println!("{forced}");

    // Run the tiny query on the backend the advisor picked: the CPU tier
    // reports measured wall time, not simulated cycles.
    let out = db.execute_statement("SELECT * FROM dana.linearR('tiny');")?;
    let out = out.report()?;
    assert_eq!(out.backend, BackendKind::Cpu);
    println!(
        "ran tiny on {:?}: wall {:.6}s (simulated slots all zero: {})",
        out.backend,
        out.timing.wall_seconds.unwrap_or(0.0),
        out.timing.total_seconds,
    );

    println!("\nadvisor crossover demonstrated — CPU below break-even, FPGA above.");
    Ok(())
}
