//! Figure results and plain-text rendering.

use std::fmt::Write as _;

/// One curve of a figure.
#[derive(Debug, Clone)]
pub struct Series {
    pub label: String,
    /// (x, throughput txns/sec) points, in sweep order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// The value at `x`, if this series measured one there: a series may
    /// skip an x where its quantity is undefined.
    pub fn at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|&&(px, _)| px == x)
            .map(|&(_, y)| y)
    }
}

/// One reproduced figure: series over a shared x-axis.
#[derive(Debug, Clone)]
pub struct FigureResult {
    pub id: &'static str,
    pub title: String,
    pub x_label: String,
    pub y_label: String,
    pub series: Vec<Series>,
}

impl FigureResult {
    pub fn new(
        id: &'static str,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        FigureResult {
            id,
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Render the figure as an aligned table, series as columns: one row
    /// per x of the first series, `-` where a series has no point. A
    /// column is 18 wide, or one wider than its label, so a label is
    /// always set off from its neighbour.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {} — {}", self.id, self.title);
        let _ = writeln!(out, "# y = {}", self.y_label);
        let xs: Vec<f64> = self
            .series
            .first()
            .map(|s| s.points.iter().map(|&(x, _)| x).collect())
            .unwrap_or_default();
        let widths: Vec<usize> = (self.series.iter())
            .map(|s| (s.label.chars().count() + 1).max(18))
            .collect();
        let _ = write!(out, "{:<14}", self.x_label);
        for (s, &w) in self.series.iter().zip(&widths) {
            let _ = write!(out, "{:>w$}", s.label);
        }
        let _ = writeln!(out);
        for &x in &xs {
            // `{x}` is the shortest decimal that reads back as `x`: a
            // θ of 0.95 prints as 0.95, not rounded to one place.
            let _ = write!(out, "{x:<14}");
            for (s, &w) in self.series.iter().zip(&widths) {
                match s.at(x) {
                    Some(y) => {
                        let _ = write!(out, "{:>w$}", trim_float(y));
                    }
                    None => {
                        let _ = write!(out, "{:>w$}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Print to stdout and persist a TSV copy under `target/figures/`.
    pub fn print(&self) {
        print!("{}", self.render());
        let _ = self.write_tsv();
    }

    fn write_tsv(&self) -> std::io::Result<()> {
        use std::io::Write;
        let dir = std::path::Path::new("target/figures");
        std::fs::create_dir_all(dir)?;
        let mut f = std::fs::File::create(dir.join(format!("{}.tsv", self.id)))?;
        write!(f, "{}", self.x_label)?;
        for s in &self.series {
            write!(f, "\t{}", s.label)?;
        }
        writeln!(f)?;
        let xs: Vec<f64> = self
            .series
            .first()
            .map(|s| s.points.iter().map(|&(x, _)| x).collect())
            .unwrap_or_default();
        for &x in &xs {
            write!(f, "{x}")?;
            for s in &self.series {
                match s.at(x) {
                    Some(y) => write!(f, "\t{y:.1}")?,
                    None => write!(f, "\t")?,
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

fn trim_float(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_series_columns() {
        let mut fig = FigureResult::new("figX", "demo", "threads", "txns/sec");
        let mut a = Series::new("sys-a");
        a.push(10.0, 1000.0);
        a.push(20.0, 1800.5);
        let mut b = Series::new("sys-b");
        b.push(10.0, 900.0);
        b.push(20.0, 950.0);
        // Labels of 18 characters and more (`abl06`'s) stay apart.
        let mut c = Series::new("conflict-batch admission");
        c.push(10.0, 3.0);
        c.push(20.0, 4.0);
        let mut d = Series::new("eighteen-chars-abc");
        d.push(10.0, 5.0);
        d.push(20.0, 6.0);
        for x in [0.5, 0.95, 0.99] {
            a.push(x, 1.0);
            b.push(x, 2.0);
            c.push(x, 3.0);
            d.push(x, 4.0);
        }
        fig.series.extend([a, b, c, d]);
        let text = fig.render();
        let header: Vec<&str> = text.lines().nth(2).unwrap().split_whitespace().collect();
        assert_eq!(
            header,
            [
                "threads",
                "sys-a",
                "sys-b",
                "conflict-batch",
                "admission",
                "eighteen-chars-abc"
            ]
        );
        // Each value ends where its label ends.
        let (head, row) = (text.lines().nth(2).unwrap(), text.lines().nth(3).unwrap());
        for (label, value) in [("sys-b", "900"), ("admission", "3"), ("-abc", "5")] {
            let end = head.find(label).unwrap() + label.len();
            assert!(row[..end].ends_with(value), "{label}: {row:?}");
        }
        assert!(text.contains("figX"));
        assert!(text.contains("sys-a"));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2 + 1 + 5); // 2 headers + column row + 5 xs
        assert!(lines[3].starts_with("10"));
        assert!(lines[3].contains("1000"));
        assert!(lines[4].contains("1800.5"));
        let xs: Vec<&str> = lines[5..]
            .iter()
            .map(|l| l.split_whitespace().next().unwrap())
            .collect();
        assert_eq!(xs, ["0.5", "0.95", "0.99"], "each x names its own point");
    }

    #[test]
    fn missing_points_render_as_dash() {
        let mut fig = FigureResult::new("figY", "demo", "x", "y");
        let mut a = Series::new("a");
        a.push(1.0, 1.0);
        a.push(2.0, 2.0);
        let mut b = Series::new("b");
        b.push(1.0, 1.0);
        fig.series.push(a);
        fig.series.push(b);
        let text = fig.render();
        assert!(text.lines().last().unwrap().trim_end().ends_with('-'));
    }

    /// A series that skips the first x shows `-` on that row and each of
    /// its values on the row of its own x, not shifted up by one.
    #[test]
    fn a_series_missing_the_first_x_keeps_its_rows() {
        let mut fig = FigureResult::new("figZ", "demo", "x", "y");
        let mut a = Series::new("a");
        for x in [1.0, 4.0, 16.0] {
            a.push(x, 100.0 * x);
        }
        let mut b = Series::new("b");
        b.push(4.0, 7.0);
        b.push(16.0, 9.0);
        fig.series.push(a);
        fig.series.push(b);
        let text = fig.render();
        let rows: Vec<Vec<&str>> = text
            .lines()
            .skip(3)
            .map(|l| l.split_whitespace().collect())
            .collect();
        assert_eq!(
            rows,
            vec![
                vec!["1", "100", "-"],
                vec!["4", "400", "7"],
                vec!["16", "1600", "9"]
            ]
        );
    }
}
