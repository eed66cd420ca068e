//! DIMACS CNF reading and writing.
//!
//! The original jeddc shipped its physical-domain-assignment CNF to an
//! external zchaff process in DIMACS format; we keep the format for
//! interoperability and debugging.

use crate::lit::{Lit, Var};
use crate::solver::Solver;
use std::fmt::Write as _;

/// Error produced while parsing a DIMACS CNF document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDimacsError {
    /// 1-based line number where the error occurred.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseDimacsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseDimacsError {}

/// A parsed CNF: variable count plus clauses of DIMACS literals.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Cnf {
    /// Number of variables declared in the `p cnf` header.
    pub num_vars: usize,
    /// The clauses, each a list of literals.
    pub clauses: Vec<Vec<Lit>>,
}

impl Cnf {
    /// Loads this CNF into a fresh [`Solver`].
    pub fn into_solver(&self) -> Solver {
        let mut s = Solver::new();
        s.new_vars(self.num_vars);
        for c in &self.clauses {
            s.add_clause(c);
        }
        s
    }
}

/// Parses a DIMACS CNF document.
///
/// Tolerates blank lines, leading whitespace, `c` comment lines, and the
/// SAT-competition trailing footer (a `%` line followed by a lone `0`):
/// everything after a `%` line is ignored rather than parsed as clause
/// data, so the footer's `0` does not become a spurious empty clause.
///
/// # Errors
///
/// Returns [`ParseDimacsError`] on malformed headers (including a
/// variable count above [`Var::MAX_COUNT`] or a non-integer clause
/// count), out-of-range literals or clauses not terminated by `0`.
pub fn parse_dimacs(input: &str) -> Result<Cnf, ParseDimacsError> {
    let mut cnf = Cnf::default();
    let mut header_seen = false;
    let mut current: Vec<Lit> = Vec::new();
    for (lineno, line) in input.lines().enumerate() {
        let line = line.trim();
        let lineno = lineno + 1;
        if line.starts_with('%') {
            break;
        }
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        if line.starts_with('p') {
            let parts: Vec<&str> = line.split_whitespace().collect();
            if parts.len() != 4 || parts[1] != "cnf" {
                return Err(ParseDimacsError {
                    line: lineno,
                    message: format!("malformed problem line: {line:?}"),
                });
            }
            cnf.num_vars = parts[2].parse().map_err(|_| ParseDimacsError {
                line: lineno,
                message: format!("bad variable count: {:?}", parts[2]),
            })?;
            if cnf.num_vars > Var::MAX_COUNT {
                return Err(ParseDimacsError {
                    line: lineno,
                    message: format!(
                        "variable count {} exceeds the limit of {}",
                        cnf.num_vars,
                        Var::MAX_COUNT
                    ),
                });
            }
            parts[3].parse::<usize>().map_err(|_| ParseDimacsError {
                line: lineno,
                message: format!("bad clause count: {:?}", parts[3]),
            })?;
            header_seen = true;
            continue;
        }
        if !header_seen {
            return Err(ParseDimacsError {
                line: lineno,
                message: "clause before `p cnf` header".to_string(),
            });
        }
        for tok in line.split_whitespace() {
            let n: i64 = tok.parse().map_err(|_| ParseDimacsError {
                line: lineno,
                message: format!("bad literal: {tok:?}"),
            })?;
            if n == 0 {
                cnf.clauses.push(std::mem::take(&mut current));
            } else {
                if n.unsigned_abs() as usize > cnf.num_vars {
                    return Err(ParseDimacsError {
                        line: lineno,
                        message: format!("literal {n} out of declared range"),
                    });
                }
                current.push(Lit::from_dimacs(n));
            }
        }
    }
    if !current.is_empty() {
        return Err(ParseDimacsError {
            line: input.lines().count(),
            message: "last clause not terminated by 0".to_string(),
        });
    }
    Ok(cnf)
}

/// Renders a CNF in DIMACS format.
pub fn write_dimacs(cnf: &Cnf) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "p cnf {} {}", cnf.num_vars, cnf.clauses.len());
    for c in &cnf.clauses {
        for l in c {
            let _ = write!(out, "{} ", l.to_dimacs());
        }
        let _ = writeln!(out, "0");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SatOutcome;

    #[test]
    fn parse_simple() {
        let cnf = parse_dimacs("c comment\np cnf 3 2\n1 -2 0\n2 3 0\n").unwrap();
        assert_eq!(cnf.num_vars, 3);
        assert_eq!(cnf.clauses.len(), 2);
        assert_eq!(
            cnf.clauses[0],
            vec![Lit::from_dimacs(1), Lit::from_dimacs(-2)]
        );
    }

    #[test]
    fn parse_multiline_clause() {
        let cnf = parse_dimacs("p cnf 2 1\n1\n2 0\n").unwrap();
        assert_eq!(cnf.clauses.len(), 1);
        assert_eq!(cnf.clauses[0].len(), 2);
    }

    #[test]
    fn parse_errors() {
        assert!(parse_dimacs("1 2 0").is_err());
        assert!(parse_dimacs("p cnf x 2\n").is_err());
        assert!(parse_dimacs("p cnf 1 1\n2 0\n").is_err());
        assert!(parse_dimacs("p cnf 2 1\n1 2\n").is_err());
    }

    #[test]
    fn roundtrip() {
        let text = "p cnf 3 2\n1 -2 0\n-1 3 0\n";
        let cnf = parse_dimacs(text).unwrap();
        let out = write_dimacs(&cnf);
        assert_eq!(parse_dimacs(&out).unwrap(), cnf);
    }

    #[test]
    fn into_solver_solves() {
        let cnf = parse_dimacs("p cnf 2 2\n1 0\n-1 2 0\n").unwrap();
        let mut s = cnf.into_solver();
        assert_eq!(s.solve(), SatOutcome::Sat);
    }
}
