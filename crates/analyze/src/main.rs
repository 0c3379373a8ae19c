//! `mppm-analyze` — run the determinism lint pass over the workspace.
//!
//! ```text
//! mppm-analyze                 # report, exit 0 regardless
//! mppm-analyze --deny          # exit 1 on any violation (the CI gate)
//! mppm-analyze --json          # machine-readable report
//! mppm-analyze --root <dir>    # explicit workspace root
//! mppm-analyze --only <rule>   # report only this rule (repeatable / comma-list)
//! mppm-analyze --exclude <rule># drop this rule from the report
//! ```
//!
//! The flags are parsed and run by [`mppm_analyze::cli`], which `mppm-cli
//! lint` shares. Usage errors, such as an unknown rule name, exit 2.

use mppm_analyze::cli;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::parse(&args).and_then(|lint| lint.run()) {
        Ok(code) => std::process::exit(code),
        Err(msg) => {
            eprintln!("mppm-analyze: {msg}");
            std::process::exit(cli::USAGE_ERROR);
        }
    }
}
