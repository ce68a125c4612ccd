//! Movie recommendation with low-rank matrix factorization — the paper's
//! Netflix workload at demo scale. Shows the row-indexed model path
//! (lookup/setModelRow) end to end, then recommends unseen movies.
//!
//! ```sh
//! cargo run --release --example movie_recommender
//! ```

use dana::prelude::*;
use dana_ml::metrics;
use dana_workloads::{generate, workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (users, movies, rank) = (120usize, 80usize, 10usize);
    let mut w = workload("Netflix").unwrap();
    w.lrmf = Some((users, movies, rank));
    w.tuples = 15_000;
    w.epochs = 30;
    w.merge_coef = 8;
    w.learning_rate = 0.05;

    let table = generate(&w, 32 * 1024, 2024)?;
    let ratings = table.heap.scan_batch()?;

    let db = Dana::default_system();
    db.create_table("ratings", table.heap)?;
    db.prewarm("ratings")?;

    // The LRMF UDF in DSL text: lookup() gathers the user/movie factor
    // rows; setModelRow() scatters the updates back.
    let udf = dana_dsl::zoo::lrmf_source(dana_dsl::zoo::LrmfParams {
        rows: users,
        cols: movies,
        rank,
        learning_rate: w.learning_rate,
        merge_coef: w.merge_coef,
        epochs: w.epochs,
    });
    println!("--- LRMF UDF ---\n{udf}");
    db.deploy_source(&udf, "lrmf", "ratings")?;
    let out = db.execute_statement("SELECT * FROM dana.lrmf('ratings');")?;
    let out = out.report()?;

    let model = dana_ml::LrmfModel {
        l: out.model("L").unwrap().to_vec(),
        r: out.model("R").unwrap().to_vec(),
        rows: users,
        cols: movies,
        rank,
    };
    let rmse = metrics::lrmf_rmse(&model, &ratings).unwrap();
    println!(
        "trained on {} ratings, {} epochs: rmse {:.3} (simulated {:.1} ms, {} threads)",
        ratings.len(),
        out.epochs_run,
        rmse,
        out.timing.total_seconds * 1e3,
        out.num_threads
    );

    // Recommend: for user 7, rank unseen movies by predicted rating.
    let user = 7usize;
    let seen: Vec<usize> = ratings
        .rows()
        .filter(|t| t[0] as usize == user)
        .map(|t| t[1] as usize)
        .collect();
    let mut predictions: Vec<(usize, f32)> = (0..movies)
        .filter(|m| !seen.contains(m))
        .map(|m| (m, model.predict(user, m)))
        .collect();
    predictions.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("\ntop 5 recommendations for user {user} (movie id, predicted rating):");
    for (m, score) in predictions.iter().take(5) {
        println!("  movie {m:>3}  {score:+.3}");
    }
    Ok(())
}
