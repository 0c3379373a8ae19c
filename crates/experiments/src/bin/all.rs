//! Runs every figure in order, reusing the shared caches. The §4.3
//! speed comparison and the other benches are `bin speed`'s.
//!
//! Usage: `cargo run --release -p mppm-experiments --bin all [--quick]`

use mppm_experiments::table::results_dir_for;
use mppm_experiments::{fig3, fig4, fig5, fig6, fig7, fig8, fig9, Context, Scale};

fn main() {
    let ctx = Context::new(Scale::from_args());

    println!("== Figure 3: variability ==");
    let f3 = fig3::run(&ctx);
    println!("{}", fig3::report(ctx.scale(), &f3).render());

    println!("== Figure 4: accuracy ==");
    let f4 = fig4::run(&ctx);
    println!("{}", fig4::report(ctx.scale(), &f4).render());

    println!("== Figure 5: per-program slowdowns ==");
    println!("{}", fig5::report(ctx.scale(), &f4).render());

    println!("== Figure 6: worst-mix CPI ==");
    println!("{}", fig6::report(ctx.scale(), &fig6::run(&ctx)).render());

    println!("== Figure 7: design-space ranking ==");
    let f7 = fig7::run(&ctx, fig7::Fig7Options::default());
    println!("{}", fig7::report(ctx.scale(), &f7).render());
    println!(
        "MPPM rho: STP {:.3} ANTT {:.3}; practice avg rho_STP: random {:.3}, category {:.3}",
        f7.mppm_rho_stp,
        f7.mppm_rho_antt,
        fig7::Fig7Output::average_rho_stp(&f7.random_sets),
        fig7::Fig7Output::average_rho_stp(&f7.category_sets),
    );

    println!("\n== Figure 8: pairwise decisions ==");
    println!("{}", fig8::report(ctx.scale(), &fig8::run(&f7)).render());

    println!("== Figure 9: stress workloads ==");
    let four_core = &f4[1];
    println!("{}", fig9::report(ctx.scale(), &fig9::run(four_core)).render());

    println!("All CSVs are under {}.", results_dir_for(ctx.scale()).display());
}
