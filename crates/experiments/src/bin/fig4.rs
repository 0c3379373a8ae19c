//! Regenerates Figure 4 (+ the 16-core numbers of §4.2): MPPM accuracy
//! for STP and ANTT versus detailed simulation.
//!
//! Usage: `cargo run --release -p mppm-experiments --bin fig4 [--quick]`

use mppm_experiments::table::results_dir_for;
use mppm_experiments::{fig4, Context, Scale};

fn main() {
    let ctx = Context::new(Scale::from_args());
    let results = fig4::run(&ctx);
    let table = fig4::report(ctx.scale(), &results);
    println!("\nFigure 4 — MPPM accuracy vs detailed simulation");
    println!("{}", table.render());
    println!(
        "Scatter CSVs written to {}/fig4_scatter_*.csv",
        results_dir_for(ctx.scale()).display()
    );
}
