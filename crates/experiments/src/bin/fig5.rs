//! Regenerates Figure 5: measured versus predicted per-program slowdown
//! (reuses Figure 4's cached simulations).
//!
//! Usage: `cargo run --release -p mppm-experiments --bin fig5 [--quick]`

use mppm_experiments::table::results_dir_for;
use mppm_experiments::{fig4, fig5, Context, Scale};

fn main() {
    let ctx = Context::new(Scale::from_args());
    let results = fig4::run(&ctx);
    let table = fig5::report(ctx.scale(), &results);
    println!("\nFigure 5 — per-program slowdown accuracy");
    println!("{}", table.render());
    println!(
        "Scatter CSV written to {}/fig5_slowdown_scatter.csv",
        results_dir_for(ctx.scale()).display()
    );
}
