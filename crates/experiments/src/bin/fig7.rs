//! Regenerates Figure 7: design-space rank correlation of current
//! practice (20 sets of 12 mixes) versus MPPM (5,000 mixes), against a
//! detailed-simulation reference over the six Table 2 LLC configurations.
//!
//! Usage: `cargo run --release -p mppm-experiments --bin fig7
//! [--quick] [--practice-detailed]`

use mppm_experiments::table::results_dir_for;
use mppm_experiments::{fig7, Context, Scale};

fn main() {
    let ctx = Context::new(Scale::from_args());
    let options = fig7::Fig7Options {
        practice_detailed: std::env::args().any(|a| a == "--practice-detailed"),
    };
    let out = fig7::run(&ctx, options);
    let table = fig7::report(ctx.scale(), &out);
    println!("\nFigure 7 — ranking six LLC configurations");
    println!("{}", table.render());
    println!(
        "MPPM rank correlation: STP {:.3} (paper 1.00), ANTT {:.3} (paper 0.93)",
        out.mppm_rho_stp, out.mppm_rho_antt
    );
    println!(
        "current practice averages: random rho_STP {:.3}, category rho_STP {:.3}",
        fig7::Fig7Output::average_rho_stp(&out.random_sets),
        fig7::Fig7Output::average_rho_stp(&out.category_sets),
    );
    let worst = out
        .random_sets
        .iter()
        .chain(&out.category_sets)
        .map(|s| s.rho_stp)
        .fold(f64::INFINITY, f64::min);
    println!("worst practice set rho_STP: {worst:.3} (paper: as low as ~0.5 and below)");
    println!(
        "CSVs written to {}/fig7*.csv",
        results_dir_for(ctx.scale()).display()
    );
}
