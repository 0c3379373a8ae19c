//! Figure 6: tracking individual programs inside the worst-STP 4-program
//! workload.
//!
//! The paper's worst mix is two copies of `gamess` plus `hmmer` and
//! `soplex`: the `gamess` copies slow down by more than 2×, `soplex`
//! somewhat, `hmmer` barely. This module evaluates exactly that mix (and,
//! for context, whichever mix of Figure 4's population measured worst) and
//! prints isolated CPI, measured multi-core CPI and predicted multi-core
//! CPI per program.

use mppm::mix::Mix;
use mppm_trace::suite;

use crate::table::{f3, Table};
use crate::Scale;
use crate::Context;

/// Per-program CPI triple of one mix.
#[derive(Debug, Clone)]
pub struct ProgramCpi {
    /// Benchmark name.
    pub name: String,
    /// Isolated single-core CPI.
    pub isolated: f64,
    /// Measured multi-core CPI.
    pub measured: f64,
    /// Predicted multi-core CPI.
    pub predicted: f64,
}

/// Figure 6 output: the paper's mix, program by program.
#[derive(Debug)]
pub struct Fig6Output {
    /// The evaluated mix (canonical order).
    pub programs: Vec<ProgramCpi>,
}

/// Returns the paper's worst-STP mix: gamess + gamess + hmmer + soplex.
pub fn paper_mix() -> Mix {
    let idx = |name: &str| {
        suite::spec_suite()
            .iter()
            .position(|s| s.name() == name)
            .expect("benchmark exists")
    };
    Mix::new(vec![idx("gamess"), idx("gamess"), idx("hmmer"), idx("soplex")])
}

/// Evaluates one mix into per-program CPI triples.
pub fn evaluate(ctx: &Context, mix: &Mix) -> Fig6Output {
    let machine = ctx.baseline();
    let profiles = ctx.profiles(&machine);
    let record = ctx.simulate(mix, &profiles, &machine);
    let pred = ctx.predict(mix, &profiles);
    let programs = mix
        .members()
        .iter()
        .enumerate()
        .map(|(slot, &bench)| ProgramCpi {
            name: suite::spec_suite()[bench].name().to_string(),
            isolated: profiles[bench].cpi_sc(),
            measured: record.cpi_mc[slot],
            predicted: pred.cpi_mc()[slot],
        })
        .collect();
    Fig6Output { programs }
}

/// Runs Figure 6 on the paper's mix.
pub fn run(ctx: &Context) -> Fig6Output {
    evaluate(ctx, &paper_mix())
}

/// Renders the CPI bars as a table and writes the CSV.
pub fn report(scale: Scale, out: &Fig6Output) -> Table {
    let mut t = Table::new(&["program", "isolated CPI", "measured MC CPI", "predicted MC CPI"]);
    for p in &out.programs {
        t.row(vec![p.name.clone(), f3(p.isolated), f3(p.measured), f3(p.predicted)]);
    }
    let _ = t.save_csv(scale, "fig6_worst_mix_cpi");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn paper_mix_is_the_papers() {
        let mix = paper_mix();
        let names: Vec<&str> =
            mix.members().iter().map(|&i| suite::spec_suite()[i].name()).collect();
        assert_eq!(names, vec!["gamess", "gamess", "hmmer", "soplex"]);
    }

    #[test]
    fn gamess_suffers_most_in_paper_mix() {
        let ctx = Context::new(Scale::Quick);
        let out = run(&ctx);
        assert_eq!(out.programs.len(), 4);
        let slowdown = |p: &ProgramCpi| p.measured / p.isolated;
        let gamess = out.programs.iter().find(|p| p.name == "gamess").unwrap();
        let hmmer = out.programs.iter().find(|p| p.name == "hmmer").unwrap();
        assert!(
            slowdown(gamess) > slowdown(hmmer),
            "gamess ({}) suffers more than hmmer ({})",
            slowdown(gamess),
            slowdown(hmmer)
        );
        let table = report(Scale::Quick, &out);
        assert_eq!(table.len(), 4);
    }
}
