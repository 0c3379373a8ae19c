//! Regenerates Figure 9: identifying stress workloads — sorted measured
//! STP with MPPM's prediction overlaid, and the worst-25 overlap (reuses
//! Figure 4's cached 4-core simulations).
//!
//! Usage: `cargo run --release -p mppm-experiments --bin fig9 [--quick]`

use mppm_experiments::table::results_dir_for;
use mppm_experiments::{fig4, fig9, Context, Scale};

fn main() {
    let ctx = Context::new(Scale::from_args());
    let four_core = fig4::run_core_count(&ctx, 4, 0, ctx.scale().detailed_mixes());
    let out = fig9::run(&four_core);
    let table = fig9::report(ctx.scale(), &out);
    println!("\nFigure 9 — stress-workload identification (4-core, config #1)");
    println!("{}", table.render());
    if let Some((label, stp, pred)) = out.sorted.first() {
        println!("worst workload: {label} (measured STP {stp:.3}, predicted {pred:.3})");
    }
    println!(
        "Sorted curve written to {}/fig9_sorted_stp.csv",
        results_dir_for(ctx.scale()).display()
    );
}
