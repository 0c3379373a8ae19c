//! Plain-text tables and CSV output for experiment results, and the one
//! benchmark record every `speed` suite publishes.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::Scale;

/// A simple column-aligned text table that can also be saved as CSV.
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width must match header");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:<w$}");
            }
            out.push('\n');
        };
        line(&self.header, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }

    /// Serializes as CSV (quoted only when needed).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |cell: &str| {
            if cell.contains([',', '"', '\n']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let push_row = |cells: &[String], out: &mut String| {
            let joined: Vec<String> = cells.iter().map(|c| esc(c)).collect();
            out.push_str(&joined.join(","));
            out.push('\n');
        };
        push_row(&self.header, &mut out);
        for row in &self.rows {
            push_row(row, &mut out);
        }
        out
    }

    /// Writes the CSV form under the directory a run at `scale` owns
    /// ([`results_dir_for`]) and returns the path.
    pub fn save_csv(&self, scale: Scale, name: &str) -> std::io::Result<PathBuf> {
        let dir = results_dir_for(scale);
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.csv"));
        crate::store::atomic_write_bytes(&path, self.to_csv().as_bytes())?;
        Ok(path)
    }
}

/// The directory CSVs are saved to: the workspace `results/` directory,
/// except under `cargo test`, where quick-scale unit tests exercise the
/// `report` paths and must not clobber committed full-scale CSVs — those
/// land in `target/test-results/` instead.
pub fn results_dir() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    if cfg!(test) {
        root.join("target/test-results")
    } else {
        root.join("results")
    }
}

/// The directory a run at `scale` saves CSVs to. Full-scale runs own
/// the committed `results/` directory; quick-scale smoke runs (CI, dev
/// loops) land in `target/quick-results/` so they can never overwrite
/// committed paper-scale data.
pub fn results_dir_for(scale: Scale) -> PathBuf {
    match scale {
        Scale::Full => results_dir(),
        Scale::Quick => Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/quick-results"),
    }
}

/// Writes a machine-readable benchmark file `BENCH_<name>.json`: at
/// the workspace root for full-scale runs (`target/test-results/` under
/// `cargo test`), next to the quick-scale CSVs for quick runs. Returns
/// the path.
fn write_bench_json<T: Serialize>(
    scale: Scale,
    name: &str,
    record: &T,
) -> std::io::Result<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir = match scale {
        Scale::Full if cfg!(test) => root.join("target/test-results"),
        Scale::Full => root,
        Scale::Quick => results_dir_for(scale),
    };
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("BENCH_{name}.json"));
    crate::store::atomic_write_json(&path, record)?;
    Ok(path)
}

/// One measured quantity of a benchmark suite. Every `BENCH_<suite>.json`
/// and `results/speed*.csv` is a list of these.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRecord {
    /// The suite: `speed` (§4.3), `substrates`, `analyze`, `obs`,
    /// `distcampaign` or `server`.
    pub suite: String,
    /// What was measured, e.g. `sim`, `scan`, `cold-closed`.
    pub variant: String,
    /// The setting it was measured at (`cores=4`, `workers=2`), or for
    /// the server suite, whose one setting the description states, the
    /// statistic (`latency`, `throughput`, ...).
    pub param: String,
    /// Number of samples behind the value.
    pub n: usize,
    /// Median of the samples; for a record holding one derived value (a
    /// count, a rate, a tail percentile), that value.
    pub median: f64,
    /// Lower end of the 95% Student-t interval of the sample mean
    /// ([`mppm::stats::ci95`]); equal to `median` when there is no
    /// sampling interval (one sample, or one derived value).
    pub ci_lo: f64,
    /// Upper end of the interval.
    pub ci_hi: f64,
    /// Unit of `median` and the interval.
    pub unit: String,
}

impl BenchRecord {
    /// Summarises raw `samples` (any order) by their median and 95%
    /// interval.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn of_samples(
        suite: &str,
        variant: &str,
        param: &str,
        unit: &str,
        samples: &[f64],
    ) -> Self {
        assert!(!samples.is_empty(), "{suite}/{variant}/{param}: no samples");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mid = sorted.len() / 2;
        let median =
            if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 };
        let mut record = Self::of_value(suite, variant, param, unit, samples.len(), median);
        if let Some(ci) = mppm::stats::ci95(samples) {
            (record.ci_lo, record.ci_hi) = (ci.lo(), ci.hi());
        }
        record
    }

    /// A record of one value derived from `n` samples (a count, a rate, a
    /// tail percentile), whose interval collapses to the value.
    pub fn of_value(
        suite: &str,
        variant: &str,
        param: &str,
        unit: &str,
        n: usize,
        value: f64,
    ) -> Self {
        Self {
            suite: suite.to_string(),
            variant: variant.to_string(),
            param: param.to_string(),
            n,
            median: value,
            ci_lo: value,
            ci_hi: value,
            unit: unit.to_string(),
        }
    }
}

/// The record with this `variant` and `param`.
///
/// # Panics
///
/// Panics if `records` has none: the gates that look records up name
/// only records their own suite always emits.
pub fn find_record<'a>(records: &'a [BenchRecord], variant: &str, param: &str) -> &'a BenchRecord {
    records
        .iter()
        .find(|r| r.variant == variant && r.param == param)
        .unwrap_or_else(|| panic!("no {variant}/{param} record"))
}

/// The machine a benchmark file was measured on.
#[derive(Serialize, Deserialize)]
struct Host {
    /// Available parallelism (`nproc`).
    nproc: usize,
    /// `rustc -V`.
    rustc: String,
    /// `git describe --always --dirty` of the measured tree.
    git_rev: String,
}

impl Host {
    fn current() -> Self {
        let stdout_of = |program: &str, args: &[&str]| {
            std::process::Command::new(program)
                .args(args)
                .current_dir(env!("CARGO_MANIFEST_DIR"))
                .output()
                .ok()
                .filter(|out| out.status.success())
                .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".to_string())
        };
        Self {
            // mppm-lint: allow(taint-nondet-to-result): host stamp on a bench report, never a result
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            rustc: stdout_of("rustc", &["-V"]),
            git_rev: stdout_of("git", &["describe", "--always", "--dirty"]),
        }
    }
}

/// The layout of every `BENCH_<suite>.json`.
#[derive(Serialize, Deserialize)]
struct BenchFile {
    suite: String,
    description: String,
    host: Host,
    records: Vec<BenchRecord>,
}

/// Publishes one suite's records: prints them as a table under
/// `description` and the host line, saves the same table as
/// `speed_<suite>.csv` (`speed.csv` for the §4.3 suite) and writes
/// `BENCH_<suite>.json`, each where a run at `scale` writes
/// ([`Table::save_csv`]). Returns the JSON path.
///
/// # Errors
///
/// Any I/O error from writing either file.
pub fn publish(
    scale: Scale,
    suite: &str,
    description: &str,
    records: &[BenchRecord],
) -> std::io::Result<PathBuf> {
    let mut t = Table::new(&["suite", "variant", "param", "n", "median", "ci_lo", "ci_hi", "unit"]);
    for r in records {
        assert_eq!(r.suite, suite, "record {}/{} published under {suite}", r.variant, r.param);
        t.row(vec![
            r.suite.clone(),
            r.variant.clone(),
            r.param.clone(),
            r.n.to_string(),
            sig4(r.median),
            sig4(r.ci_lo),
            sig4(r.ci_hi),
            r.unit.clone(),
        ]);
    }
    let host = Host::current();
    println!("\n{description}");
    println!("(host: nproc={}, {}, rev {})", host.nproc, host.rustc, host.git_rev);
    println!("{}", t.render());
    let csv = if suite == "speed" { "speed".to_string() } else { format!("speed_{suite}") };
    t.save_csv(scale, &csv)?;
    let file = BenchFile {
        suite: suite.to_string(),
        description: description.to_string(),
        host,
        records: records.to_vec(),
    };
    let path = write_bench_json(scale, suite, &file)?;
    println!("(machine-readable copy: {})", path.display());
    Ok(path)
}

/// Formats a value to 4 significant digits, without trailing zeros.
fn sig4(x: f64) -> String {
    // `{:e}` rounds to significant digits; parsing it back and printing
    // with `{}` drops the exponent and trailing zeros.
    format!("{x:.3e}").parse::<f64>().expect("a formatted f64 parses").to_string()
}

/// Formats a float with 3 decimal places (table cell helper).
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a ratio as a percentage with 1 decimal place.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer".into(), "2.5".into()]);
        let s = t.render();
        assert!(s.contains("name"));
        assert!(s.lines().count() == 4);
        // All lines align on the second column.
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0].find("value"), lines[2].find('1'));
    }

    #[test]
    fn csv_escapes() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x,y".into(), "plain".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\",plain"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        Table::new(&["a"]).row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn quick_scale_writes_never_land_under_results() {
        let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let committed = committed.canonicalize().unwrap_or(committed);
        let mut t = Table::new(&["a"]);
        t.row(vec!["1".into()]);
        let csv = t.save_csv(Scale::Quick, "quick_scale_probe").expect("csv written");
        let json =
            write_bench_json(Scale::Quick, "quick_scale_probe", &1u32).expect("json written");
        for path in [csv, json] {
            let path = path.canonicalize().expect("written file exists");
            assert!(!path.starts_with(&committed), "{} is under results/", path.display());
            assert!(path.starts_with(results_dir_for(Scale::Quick).canonicalize().unwrap()));
            std::fs::remove_file(&path).expect("probe removed");
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(pct(0.0234), "2.3%");
        assert_eq!(sig4(0.000_113_27), "0.0001133");
        assert_eq!(sig4(49_176.22), "49180");
        assert_eq!(sig4(64.0), "64");
    }

    #[test]
    fn publish_round_trips_records_under_one_schema() {
        const HEADER: &str = "suite,variant,param,n,median,ci_lo,ci_hi,unit";
        let samples = BenchRecord::of_samples("probe", "warm", "files=3", "s", &[0.3, 0.1, 0.2]);
        assert_eq!((samples.n, samples.median), (3, 0.2));
        assert!(samples.ci_lo < 0.2 && samples.ci_hi > 0.2);
        let one = BenchRecord::of_samples("probe", "wall", "workers=1", "s", &[0.5]);
        assert_eq!((one.ci_lo, one.median, one.ci_hi), (0.5, 0.5, 0.5));
        let records = vec![samples, one, BenchRecord::of_value("probe", "c", "n", "count", 8, 8.0)];

        let path = publish(Scale::Quick, "probe", "round trip", &records).expect("published");
        let quick = results_dir_for(Scale::Quick);
        assert_eq!(path, quick.join("BENCH_probe.json"));
        let file: BenchFile =
            serde_json::from_str(&std::fs::read_to_string(&path).expect("json readable"))
                .expect("json parses as a bench file");
        assert_eq!((file.suite.as_str(), file.records), ("probe", records));
        assert!(
            file.host.nproc > 0 && !file.host.rustc.is_empty() && !file.host.git_rev.is_empty()
        );
        let csv_path = quick.join("speed_probe.csv");
        let csv = std::fs::read_to_string(&csv_path).expect("csv readable");
        assert_eq!(csv.lines().next(), Some(HEADER));
        assert_eq!(csv.lines().count(), 4);
        for probe in [path, csv_path] {
            std::fs::remove_file(probe).expect("probe removed");
        }

        // The committed full-scale records share the schema.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for suite in ["speed", "analyze", "obs", "distcampaign", "server"] {
            let json = root.join(format!("BENCH_{suite}.json"));
            let file: BenchFile =
                serde_json::from_str(&std::fs::read_to_string(&json).expect("committed json"))
                    .unwrap_or_else(|e| panic!("{}: {e}", json.display()));
            assert!(file.records.iter().all(|r| r.suite == suite), "{}", json.display());
            let csv = if suite == "speed" { "speed".to_string() } else { format!("speed_{suite}") };
            let csv = std::fs::read_to_string(root.join(format!("results/{csv}.csv")))
                .expect("committed csv");
            assert_eq!(csv.lines().next(), Some(HEADER), "results/{suite} csv header");
        }
    }
}
