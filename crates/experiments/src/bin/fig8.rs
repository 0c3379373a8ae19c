//! Regenerates Figure 8: pairwise design decisions (config #1 vs #2..#6)
//! — how often current practice agrees with MPPM, and who is right.
//!
//! Usage: `cargo run --release -p mppm-experiments --bin fig8
//! [--quick] [--practice-detailed]`

use mppm_experiments::table::results_dir_for;
use mppm_experiments::{fig7, fig8, Context, Scale};

fn main() {
    let ctx = Context::new(Scale::from_args());
    let options = fig7::Fig7Options {
        practice_detailed: std::env::args().any(|a| a == "--practice-detailed"),
    };
    let fig7_out = fig7::run(&ctx, options);
    let outcomes = fig8::run(&fig7_out);
    let table = fig8::report(ctx.scale(), &outcomes);
    println!("\nFigure 8 — pairwise comparisons against config #1");
    println!("{}", table.render());
    println!(
        "CSV written to {}/fig8_pairwise.csv",
        results_dir_for(ctx.scale()).display()
    );
}
