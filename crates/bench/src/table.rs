//! Minimal fixed-width table printing for experiment output.

/// A simple left-padded table printer.
pub struct TablePrinter {
    widths: Vec<usize>,
}

impl TablePrinter {
    /// Creates a printer with per-column widths.
    pub fn new(widths: &[usize]) -> Self {
        Self {
            widths: widths.to_vec(),
        }
    }

    /// Prints one row; missing cells render empty.
    pub fn row(&self, cells: &[impl AsRef<str>]) {
        let mut line = String::new();
        for (i, width) in self.widths.iter().enumerate() {
            let cell = cells.get(i).map_or("", AsRef::as_ref);
            line.push_str(&format!("{cell:>width$}  "));
        }
        println!("{}", line.trim_end());
    }

    /// Prints a header row followed by a separator.
    pub fn header(&self, cells: &[&str]) {
        self.row(cells);
        let total: usize = self.widths.iter().map(|w| w + 2).sum();
        println!("{}", "-".repeat(total));
    }
}

/// Formats a float with the given precision.
pub fn fmt(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// Formats a signed percentage.
pub fn pct(v: f64) -> String {
    format!("{v:+.1} %")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_and_pct() {
        assert_eq!(fmt(3.21159, 2), "3.21");
        assert_eq!(pct(40.33), "+40.3 %");
        assert_eq!(pct(-24.0), "-24.0 %");
    }
}
