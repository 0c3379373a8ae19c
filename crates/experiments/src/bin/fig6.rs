//! Regenerates Figure 6: per-program CPI tracking for the paper's
//! worst-STP 4-program workload (gamess + gamess + hmmer + soplex).
//!
//! Usage: `cargo run --release -p mppm-experiments --bin fig6 [--quick]`

use mppm_experiments::table::results_dir_for;
use mppm_experiments::{fig6, Context, Scale};

fn main() {
    let ctx = Context::new(Scale::from_args());
    let out = fig6::run(&ctx);
    let table = fig6::report(ctx.scale(), &out);
    println!("\nFigure 6 — individual-program CPI in the worst-STP mix");
    println!("{}", table.render());
    println!(
        "CSV written to {}/fig6_worst_mix_cpi.csv",
        results_dir_for(ctx.scale()).display()
    );
}
