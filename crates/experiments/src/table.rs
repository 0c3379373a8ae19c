//! Plain-text tables and CSV output for experiment results.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use serde::Serialize;

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

/// Writes a machine-readable benchmark record `BENCH_<name>.json`: at
/// the workspace root for full-scale runs (`target/test-results/` under
/// `cargo test`), next to the quick-scale CSVs for quick runs. Returns
/// the path.
///
/// # Errors
///
/// Any I/O error from creating the directory or writing the file.
pub fn write_bench_json<T: Serialize>(
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
    }
}
