//! Table rendering and unit formatting for experiment output.

/// Formats seconds with adaptive precision.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else {
        format!("{:.1}ms", s * 1000.0)
    }
}

/// Formats bytes as GB.
pub fn fmt_gb(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1u64 << 30) as f64)
}

/// Formats a fraction as a percentage.
pub fn fmt_pct(x: f64) -> String {
    format!("{:.0}%", x * 100.0)
}

/// Renders an aligned ASCII table. Every cell but a row's last pads to its
/// column's width, so no line ends in spaces.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    let fmt_row = |cells: &[String]| -> String {
        let line = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
            .collect::<Vec<_>>()
            .join("  ");
        line.trim_end().to_string()
    };
    out.push_str(&fmt_row(
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    ));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secs_formatting_adapts() {
        assert_eq!(fmt_secs(123.4), "123");
        assert_eq!(fmt_secs(1.234), "1.23");
        assert_eq!(fmt_secs(0.0123), "12.3ms");
    }

    #[test]
    fn gb_and_pct() {
        assert_eq!(fmt_gb(1 << 30), "1.00");
        assert_eq!(fmt_pct(0.425), "42%");
    }

    #[test]
    fn table_renders_all_rows() {
        let t = render_table(
            "T",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert!(t.contains("== T =="));
        assert!(t.contains("333"));
        assert_eq!(t.lines().count(), 5);
    }

    #[test]
    fn rows_align_without_trailing_spaces() {
        let t = render_table(
            "T",
            &["name", "x"],
            &[
                vec!["a".into(), "1".into()],
                vec!["bbbbbb".into(), "".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines[1], "name    x");
        assert_eq!(lines[3], "a       1");
        assert_eq!(lines[4], "bbbbbb");
        assert!(t.lines().all(|l| !l.ends_with(' ')), "{t:?}");
    }
}
