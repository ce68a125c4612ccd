//! The paper's evaluation, reproduced: every table and figure of §7
//! (`dana_bench::figures`) as the Markdown that `EXPERIMENTS.md` records.
//!
//! ```sh
//! cargo bench --bench paper > EXPERIMENTS.md
//! ```

use dana::SystemParams;

fn main() {
    print!(
        "{}",
        dana_bench::render(&dana_bench::figures(&SystemParams::default()))
    );
}
