//! Accuracy ablations of the model's design choices (DESIGN.md §7):
//! contention model, EMA factor, step size, slowdown-update rule, and the
//! derived reduced-associativity profiles.
//!
//! Usage: `cargo run --release -p mppm-experiments --bin ablation [--quick]`

use mppm_experiments::table::results_dir_for;
use mppm_experiments::{ablation, Context, Scale};

fn main() {
    let ctx = Context::new(Scale::from_args());
    let mix_count = match ctx.scale() {
        Scale::Full => 30,
        Scale::Quick => 4,
    };
    let variants = ablation::run_model_ablations(&ctx, mix_count);
    let derivation = ablation::run_derivation_study(&ctx);
    let (t, d) = ablation::report(ctx.scale(), &variants, &derivation);
    println!("\nModel-variant ablation ({mix_count} four-program mixes vs detailed sim)");
    println!("{}", t.render());
    println!("\nDerived 8-way profiles (from 16-way runs, paper §2) vs measured");
    println!("{}", d.render());

    let bw = ablation::run_bandwidth_study(&ctx, 0.04);
    println!("\nBandwidth-sharing extension (§8): streaming mix on a 0.04 acc/cycle channel");
    println!("{}", ablation::report_bandwidth(ctx.scale(), &bw).render());
    println!(
        "CSVs written to {}/ablation_*.csv",
        results_dir_for(ctx.scale()).display()
    );
}
