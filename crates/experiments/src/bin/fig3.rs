//! Regenerates Figure 3: STP/ANTT variability versus the number of random
//! workload mixes (4 cores, LLC config #1).
//!
//! Usage: `cargo run --release -p mppm-experiments --bin fig3 [--quick]`

use mppm_experiments::{fig3, Context, Scale};

fn main() {
    let ctx = Context::new(Scale::from_args());
    let out = fig3::run(&ctx);
    let table = fig3::report(ctx.scale(), &out);
    println!("\nFigure 3 — variability vs number of workload mixes");
    println!("{}", table.render());
    for (k, label) in [(10, "10 mixes"), (20, "20 mixes"), (150, "150 mixes")] {
        let p = out.at(k);
        println!(
            "{label}: STP CI ±{:.1}%  ANTT CI ±{:.1}%   (paper: 10 -> ~10%/18%, 20 -> ~7%/13%, 150 -> 2.6%/4.5%)",
            p.stp.relative() * 100.0,
            p.antt.relative() * 100.0,
        );
    }
}
