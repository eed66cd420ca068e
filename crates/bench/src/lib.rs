//! Shared harness code for regenerating the paper's tables and figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod criterion;
pub mod report;

use std::fmt::Write as _;
use std::time::Instant;

/// Renders an ASCII table with a header row.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, c) in r.iter().enumerate() {
            widths[i] = widths[i].max(c.len());
        }
    }
    let mut out = String::new();
    let sep = |out: &mut String| {
        for (i, w) in widths.iter().enumerate() {
            let _ = write!(out, "+{}", "-".repeat(w + 2));
            if i == ncols - 1 {
                let _ = writeln!(out, "+");
            }
        }
    };
    sep(&mut out);
    for (i, h) in headers.iter().enumerate() {
        let _ = write!(out, "| {h:<w$} ", w = widths[i]);
    }
    let _ = writeln!(out, "|");
    sep(&mut out);
    for r in rows {
        for (i, c) in r.iter().enumerate() {
            let _ = write!(out, "| {c:>w$} ", w = widths[i]);
        }
        let _ = writeln!(out, "|");
    }
    sep(&mut out);
    out
}

/// Times a closure, returning `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// The Table 1 rows: compiles each analysis module (and the combined
/// program) and collects its assignment-problem statistics.
pub fn table1_rows() -> Vec<(String, jedd_core::assign::AssignmentStats)> {
    let mut out = Vec::new();
    for (name, src) in jedd_analyses::jedd_src::modules() {
        let compiled = jeddc::compile(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        out.push((name.to_string(), compiled.assignment.stats));
    }
    let combined = jeddc::compile(&jedd_analyses::jedd_src::combined()).expect("combined");
    out.push(("All 5 combined".to_string(), combined.assignment.stats));
    out
}

/// Formats Table 1 in the paper's layout.
pub fn format_table1() -> String {
    let rows: Vec<Vec<String>> = table1_rows()
        .into_iter()
        .map(|(name, s)| {
            vec![
                name,
                s.exprs.to_string(),
                s.attrs.to_string(),
                s.physdoms.to_string(),
                s.conflict.to_string(),
                s.equality.to_string(),
                s.assignment.to_string(),
                s.sat_vars.to_string(),
                s.sat_clauses.to_string(),
                s.sat_literals.to_string(),
                format!("{:.3}", s.solve_seconds),
            ]
        })
        .collect();
    render_table(
        &[
            "Analysis",
            "Exprs",
            "Attrs",
            "PhysDoms",
            "Conflict",
            "Equality",
            "Assignment",
            "Variables",
            "Clauses",
            "Literals",
            "Time (s)",
        ],
        &rows,
    )
}

/// One Table 2 measurement row.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Program size summary.
    pub summary: String,
    /// Hand-coded direct-BDD time (the paper's C++ column), seconds.
    pub hand_coded_s: f64,
    /// Relational-API time (the paper's Jedd column), seconds.
    pub relational_s: f64,
    /// Overhead of the relational version, percent.
    pub overhead_pct: f64,
    /// Points-to pairs found (identical for both, asserted).
    pub pt_pairs: usize,
}

/// Runs the Table 2 experiment on the five benchmarks. A benchmark whose
/// analysis fails (e.g. under an externally imposed budget) is skipped
/// with a warning on stderr rather than aborting the whole table.
pub fn table2_rows() -> Vec<Table2Row> {
    use jedd_analyses::pointsto::CallGraphMode;
    let mut out = Vec::new();
    'bench: for b in jedd_analyses::synth::Benchmark::table2() {
        let p = b.generate();
        // Best of three runs per implementation, fresh manager each run,
        // to damp allocator and cache noise.
        let mut hand_coded_s = f64::INFINITY;
        let mut raw = None;
        for _ in 0..3 {
            let (r, s) = timed(|| jedd_analyses::baseline_bdd::analyze(&p));
            hand_coded_s = hand_coded_s.min(s);
            raw = Some(r);
        }
        let Some(raw) = raw else { continue };
        let mut relational_s = f64::INFINITY;
        let mut rel = None;
        for _ in 0..3 {
            let facts = match jedd_analyses::facts::Facts::load(&p) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("table2: skipping {}: cannot load facts: {e}", b.name());
                    continue 'bench;
                }
            };
            let (r, s) = timed(|| {
                jedd_analyses::pointsto::analyze(&facts, CallGraphMode::OnTheFly)
            });
            let r = match r {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("table2: skipping {}: points-to failed: {e}", b.name());
                    continue 'bench;
                }
            };
            relational_s = relational_s.min(s);
            rel = Some(r);
        }
        let Some(rel) = rel else { continue };
        let raw_pairs = raw.pt_pairs();
        let rel_pairs: Vec<(u64, u64)> = rel
            .pt
            .tuples()
            .into_iter()
            .map(|t| (t[0], t[1]))
            .collect();
        assert_eq!(
            raw_pairs, rel_pairs,
            "hand-coded and relational must agree on {}",
            b.name()
        );
        out.push(Table2Row {
            benchmark: b.name(),
            summary: p.summary(),
            hand_coded_s,
            relational_s,
            overhead_pct: (relational_s / hand_coded_s - 1.0) * 100.0,
            pt_pairs: raw_pairs.len(),
        });
    }
    out
}

/// Formats Table 2 in the paper's layout.
pub fn format_table2(rows: &[Table2Row]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.to_string(),
                format!("{:.3}", r.hand_coded_s),
                format!("{:.3}", r.relational_s),
                format!("{:+.1}%", r.overhead_pct),
                r.pt_pairs.to_string(),
            ]
        })
        .collect();
    render_table(
        &[
            "Benchmark",
            "Hand-coded BDD (s)",
            "Jedd relational (s)",
            "Overhead",
            "pt pairs",
        ],
        &table_rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_table_aligns() {
        let t = render_table(&["a", "bbb"], &[vec!["1".into(), "2".into()]]);
        assert!(t.contains("| a"));
        assert!(t.contains("bbb"));
        assert!(t.lines().count() >= 5);
    }

    #[test]
    fn table1_has_six_rows() {
        let rows = table1_rows();
        assert_eq!(rows.len(), 6);
        let combined = &rows[5];
        assert_eq!(combined.0, "All 5 combined");
        // Combined must be at least as large as each individual module.
        for (name, s) in &rows[..5] {
            assert!(combined.1.exprs >= s.exprs, "combined smaller than {name}");
        }
    }

    #[test]
    fn timed_measures() {
        let (v, s) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(s >= 0.0);
    }
}
