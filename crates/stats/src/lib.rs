//! # levioso-stats — metrics aggregation and report rendering
//!
//! Small, dependency-light utilities shared by the experiment harnesses:
//! geometric means (the aggregation the paper's figures use), aligned text
//! tables, figure series, and JSON export of raw results.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use levioso_support::{Histogram, Json, JsonError};
use std::fmt;

/// Geometric mean of strictly positive values.
///
/// Returns 0.0 for an empty slice.
///
/// # Panics
///
/// Panics if any value is not strictly positive (geometric means of
/// slowdown ratios are only meaningful for positive inputs).
///
/// ```
/// let g = levioso_stats::geomean(&[1.0, 4.0]);
/// assert!((g - 2.0).abs() < 1e-12);
/// ```
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (sum / values.len() as f64).exp()
}

/// An aligned text table with a title, rendered for terminal reports and
/// EXPERIMENTS.md.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Table title (e.g. `"T1: simulated core configuration"`).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row cells (each row should match `headers.len()`).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header count.
    pub fn push_row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch in `{}`", self.title);
        self.rows.push(cells);
        self
    }

    /// Renders as an aligned plain-text table.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    s.push_str("  ");
                }
                let pad = widths[i] - c.chars().count();
                // Right-align numeric-looking cells, left-align the rest.
                let numeric = c.chars().next().is_some_and(|ch| ch.is_ascii_digit() || ch == '-')
                    && c.chars().all(|ch| {
                        ch.is_ascii_digit() || matches!(ch, '.' | '-' | '+' | '%' | 'x' | '±')
                    });
                if numeric && i > 0 {
                    s.push_str(&" ".repeat(pad));
                    s.push_str(c);
                } else {
                    s.push_str(c);
                    s.push_str(&" ".repeat(pad));
                }
            }
            s.trim_end().to_string()
        };
        let mut out = format!("## {}\n\n", self.title);
        out.push_str(&line(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Renders one or more [`Histogram`]s side by side as an aligned table:
/// one row per log2 bucket that is non-empty in *any* series, one count
/// column per series, plus a summary row with count / mean / p99-upper.
///
/// Used by the delay-attribution report (`--attrib`, `levitrace`) to show
/// per-rule blocked-cycle distributions next to each other.
pub fn histogram_table(title: impl Into<String>, series: &[(&str, &Histogram)]) -> Table {
    let mut headers: Vec<&str> = vec!["delay (cycles)"];
    headers.extend(series.iter().map(|(name, _)| *name));
    let mut t = Table::new(title, &headers);
    let mut indices: Vec<usize> =
        series.iter().flat_map(|(_, h)| h.buckets().map(|(i, _, _, _)| i)).collect();
    indices.sort_unstable();
    indices.dedup();
    for i in indices {
        let lo = Histogram::bucket_lo(i);
        let hi = Histogram::bucket_hi(i);
        let label = if lo == hi { format!("{lo}") } else { format!("{lo}..{hi}") };
        let mut row = vec![label];
        for (_, h) in series {
            let n = h.buckets().find(|&(j, _, _, _)| j == i).map_or(0, |(_, _, _, n)| n);
            row.push(if n == 0 { "-".to_string() } else { n.to_string() });
        }
        t.push_row(row);
    }
    let mut summary = vec!["n / mean / p99".to_string()];
    for (_, h) in series {
        summary.push(format!("{} / {:.1} / {}", h.count(), h.mean(), h.quantile_hi(0.99)));
    }
    t.push_row(summary);
    t
}

/// One row of a noninterference leak matrix: scheme name, gate role, and a
/// `(leaky, total)` cell count per observer.
pub type LeakMatrixRow = (String, String, Vec<(usize, usize)>);

/// Renders a noninterference leak matrix: one row per scheme (name plus its
/// gate role), one column per observer, each cell either `clean` or
/// `LEAK k/N` where `k` of `N` fuzzed cells diverged under that observer.
///
/// Used by `table4_noninterference` (`levioso-nisec`) to report the two-run
/// fuzzing campaign.
///
/// # Panics
///
/// Panics if any row's per-observer count list does not match `observers`
/// in length (that would render a misaligned matrix).
pub fn leak_matrix_table(
    title: impl Into<String>,
    observers: &[&str],
    rows: &[LeakMatrixRow],
) -> Table {
    let mut headers: Vec<&str> = vec!["scheme", "gate role"];
    headers.extend(observers);
    let mut t = Table::new(title, &headers);
    for (scheme, role, counts) in rows {
        assert_eq!(counts.len(), observers.len(), "one (leaky, total) pair per observer");
        let mut row = vec![scheme.clone(), role.clone()];
        row.extend(counts.iter().map(|&(leaky, total)| {
            if leaky == 0 {
                "clean".to_string()
            } else {
                format!("LEAK {leaky}/{total}")
            }
        }));
        t.push_row(row);
    }
    t
}

/// One named series of `(x-label, y)` points — a bar group or line in a
/// figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Series name (e.g. a scheme).
    pub name: String,
    /// Points in x order.
    pub points: Vec<(String, f64)>,
}

/// A figure: several series over a shared x axis, rendered as a table plus
/// a crude text bar chart (enough to eyeball shapes in a terminal).
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Figure title (e.g. `"F2: overhead vs unsafe baseline"`).
    pub title: String,
    /// Y-axis label.
    pub y_label: String,
    /// The series.
    pub series: Vec<Series>,
}

impl Figure {
    /// Creates an empty figure.
    pub fn new(title: impl Into<String>, y_label: impl Into<String>) -> Self {
        Figure { title: title.into(), y_label: y_label.into(), series: Vec::new() }
    }

    /// Adds a series.
    pub fn push_series(
        &mut self,
        name: impl Into<String>,
        points: Vec<(String, f64)>,
    ) -> &mut Self {
        self.series.push(Series { name: name.into(), points });
        self
    }

    /// Renders the figure as an aligned value table (x labels as rows,
    /// series as columns).
    pub fn render(&self) -> String {
        let mut headers: Vec<&str> = vec!["x"];
        headers.extend(self.series.iter().map(|s| s.name.as_str()));
        let mut t = Table::new(format!("{} [{}]", self.title, self.y_label), &headers);
        if let Some(first) = self.series.first() {
            for (i, (x, _)) in first.points.iter().enumerate() {
                let mut row = vec![x.clone()];
                for s in &self.series {
                    row.push(s.points.get(i).map_or("-".to_string(), |(_, v)| format!("{v:.3}")));
                }
                t.push_row(row);
            }
        }
        t.render()
    }

    /// Serializes the figure to pretty JSON (for external plotting).
    pub fn to_json(&self) -> String {
        let series = self
            .series
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(&s.name)),
                    (
                        "points",
                        Json::Arr(
                            s.points
                                .iter()
                                .map(|(x, y)| Json::Arr(vec![Json::str(x), Json::F64(*y)]))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("title", Json::str(&self.title)),
            ("y_label", Json::str(&self.y_label)),
            ("series", Json::Arr(series)),
        ])
        .emit_pretty()
    }

    /// Parses a figure back from [`Figure::to_json`] output.
    pub fn from_json(text: &str) -> Result<Figure, JsonError> {
        let bad = |message: &str| JsonError { pos: 0, message: message.to_string() };
        let v = Json::parse(text)?;
        let field_str = |key: &str| -> Result<String, JsonError> {
            Ok(v.get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| bad(&format!("missing string field `{key}`")))?
                .to_string())
        };
        let mut figure = Figure::new(field_str("title")?, field_str("y_label")?);
        let series = v
            .get("series")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing array field `series`"))?;
        for s in series {
            let name =
                s.get("name").and_then(Json::as_str).ok_or_else(|| bad("series missing `name`"))?;
            let mut points = Vec::new();
            for point in s
                .get("points")
                .and_then(Json::as_arr)
                .ok_or_else(|| bad("series missing `points`"))?
            {
                let pair = point.as_arr().filter(|p| p.len() == 2);
                let (x, y) = match pair {
                    Some([x, y]) => (x.as_str(), y.as_f64()),
                    _ => (None, None),
                };
                match (x, y) {
                    (Some(x), Some(y)) => points.push((x.to_string(), y)),
                    _ => return Err(bad("point is not an [x-label, y] pair")),
                }
            }
            figure.push_series(name, points);
        }
        Ok(figure)
    }
}

impl fmt::Display for Figure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 8.0]) - 2.828_427).abs() < 1e-5);
        assert!((geomean(&[3.0, 3.0, 3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn geomean_rejects_nonpositive() {
        let _ = geomean(&[1.0, 0.0]);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.push_row(vec!["alpha".into(), "1.5".into()]);
        t.push_row(vec!["b".into(), "120.25".into()]);
        let r = t.render();
        assert!(r.contains("## demo"));
        assert!(r.contains("alpha"));
        let lines: Vec<&str> = r.lines().collect();
        assert!(lines.len() >= 5);
    }

    #[test]
    #[should_panic]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn histogram_table_unions_buckets_across_series() {
        let mut a = Histogram::new();
        a.record_n(1, 5);
        a.record(10);
        let mut b = Histogram::new();
        b.record_n(3, 2);
        let t = histogram_table("delays", &[("exec", &a), ("xmit", &b)]);
        assert_eq!(t.headers, vec!["delay (cycles)", "exec", "xmit"]);
        // Union of non-empty buckets: {1}, {2..3}, {8..15}, plus summary.
        assert_eq!(t.rows.len(), 4);
        assert_eq!(t.rows[0], vec!["1", "5", "-"]);
        assert_eq!(t.rows[1], vec!["2..3", "-", "2"]);
        assert_eq!(t.rows[2], vec!["8..15", "1", "-"]);
        assert!(t.rows[3][0].starts_with("n / mean"));
        assert!(t.rows[3][1].starts_with("6 / "));
    }

    #[test]
    fn leak_matrix_formats_clean_and_leaky_cells() {
        let t = leak_matrix_table(
            "Table 4",
            &["commit-timing", "cache-line"],
            &[
                ("unsafe".into(), "must leak".into(), vec![(61, 64), (64, 64)]),
                ("levioso".into(), "must be clean".into(), vec![(0, 64), (0, 64)]),
            ],
        );
        assert_eq!(t.headers, vec!["scheme", "gate role", "commit-timing", "cache-line"]);
        assert_eq!(t.rows[0], vec!["unsafe", "must leak", "LEAK 61/64", "LEAK 64/64"]);
        assert_eq!(t.rows[1], vec!["levioso", "must be clean", "clean", "clean"]);
    }

    #[test]
    #[should_panic]
    fn leak_matrix_rejects_ragged_observer_counts() {
        let _ = leak_matrix_table(
            "Table 4",
            &["commit-timing", "cache-line"],
            &[("unsafe".into(), "must leak".into(), vec![(1, 64)])],
        );
    }

    #[test]
    fn figure_round_trips_through_json() {
        let mut f = Figure::new("F2", "slowdown");
        f.push_series("levioso", vec![("w1".into(), 1.2), ("w2".into(), 1.1)]);
        f.push_series("esc \"quoted\"", vec![("w1".into(), -0.5)]);
        let j = f.to_json();
        let back = Figure::from_json(&j).unwrap();
        assert_eq!(back, f);
        assert!(f.render().contains("levioso"));
    }

    #[test]
    fn figure_from_json_rejects_malformed_documents() {
        assert!(Figure::from_json("[]").is_err());
        assert!(Figure::from_json("{\"title\": \"t\"}").is_err());
        let e = Figure::from_json("{oops").unwrap_err();
        assert!(e.to_string().contains("JSON error"));
    }
}
