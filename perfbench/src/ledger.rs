//! The per-layer ledger: nested and exclusive ns/record per layer, and how
//! much of the traced end-to-end figure the layers leave unexplained.

use etsc_bench::render_table;

/// One ledger row, in ns per record.
pub struct Row {
    pub layer: &'static str,
    /// The layer with everything it calls.
    pub nested: f64,
    /// The layer alone: nested minus the nested cost of the layer below.
    pub exclusive: f64,
}

pub struct Ledger {
    pub rows: Vec<Row>,
    /// Traced-run wall time per record of the closed loop.
    pub e2e: f64,
}

impl Ledger {
    pub fn exclusive_sum(&self) -> f64 {
        self.rows.iter().map(|r| r.exclusive).sum()
    }

    /// Share of the traced end-to-end figure no layer accounts for.
    pub fn unaccounted_pct(&self) -> f64 {
        (self.e2e - self.exclusive_sum()) / self.e2e * 100.0
    }

    /// Exclusive share of the named layers (prefix match), in percent.
    pub fn share_pct(&self, prefixes: &[&str]) -> f64 {
        let part: f64 = self
            .rows
            .iter()
            .filter(|r| prefixes.iter().any(|p| r.layer.starts_with(p)))
            .map(|r| r.exclusive)
            .sum();
        part / self.exclusive_sum() * 100.0
    }

    pub fn render(&self) -> String {
        let total = self.exclusive_sum();
        let mut rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.layer.to_string(),
                    format!("{:.1}", r.nested),
                    format!("{:.1}", r.exclusive),
                    format!("{:.1}%", r.exclusive / total * 100.0),
                ]
            })
            .collect();
        rows.push(vec![
            "sum of exclusive".into(),
            String::new(),
            format!("{total:.1}"),
            String::new(),
        ]);
        rows.push(vec![
            "end to end (traced)".into(),
            format!("{:.1}", self.e2e),
            String::new(),
            String::new(),
        ]);
        rows.push(vec![
            "unaccounted".into(),
            String::new(),
            format!("{:.1}", self.e2e - total),
            format!("{:.1}% of e2e", self.unaccounted_pct()),
        ]);
        render_table(
            &["layer", "nested ns/rec", "exclusive ns/rec", "share"],
            &rows,
        )
    }
}
