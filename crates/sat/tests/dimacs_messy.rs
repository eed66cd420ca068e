//! Regression test: the DIMACS reader must tolerate real-world files —
//! blank lines, leading whitespace, and the SAT-competition trailing
//! `%` / `0` footer (which must not become a spurious empty clause).

use jedd_sat::{parse_dimacs, Lit, SatOutcome, Var};

const MESSY: &str = include_str!("fixtures/messy.cnf");

#[test]
fn messy_fixture_parses() {
    let cnf = parse_dimacs(MESSY).expect("messy fixture must parse");
    assert_eq!(cnf.num_vars, 4);
    assert_eq!(cnf.clauses.len(), 5, "footer `0` must not add a clause");
    assert!(
        cnf.clauses.iter().all(|c| !c.is_empty()),
        "no empty clauses: {:?}",
        cnf.clauses
    );
    assert_eq!(
        cnf.clauses[2],
        vec![Lit::from_dimacs(-1), Lit::from_dimacs(4)],
        "clauses may span lines with blank lines in between"
    );
}

#[test]
fn messy_fixture_is_satisfiable() {
    // Without the footer fix the phantom empty clause made this UNSAT.
    let cnf = parse_dimacs(MESSY).unwrap();
    let mut solver = cnf.into_solver();
    assert_eq!(solver.solve(), SatOutcome::Sat);
}

#[test]
fn footer_terminates_parsing() {
    // Anything after the `%` line is ignored, even junk.
    let cnf = parse_dimacs("p cnf 2 1\n1 2 0\n%\n0\nnot dimacs at all\n").unwrap();
    assert_eq!(cnf.clauses.len(), 1);

    // A clause left open before the footer is still an error.
    assert!(parse_dimacs("p cnf 2 1\n1 2\n%\n0\n").is_err());
}

#[test]
fn variable_count_beyond_the_solver_limit_is_rejected() {
    // 4294967297 used to wrap to variable 1 in the solver's u32 literal
    // encoding, turning this satisfiable formula into `[[1], [-1]]`.
    let err = parse_dimacs("p cnf 5000000000 2\n4294967297 0\n-1 0\n").unwrap_err();
    assert_eq!(err.line, 1);
    assert!(err.message.contains("variable count"), "{err}");
    // One past the limit is rejected; the limit itself parses (nothing
    // is allocated per declared variable until a solver is built).
    let over = format!("p cnf {} 0\n", Var::MAX_COUNT + 1);
    assert!(parse_dimacs(&over).is_err());
    let at = format!("p cnf {} 1\n{} 0\n", Var::MAX_COUNT, Var::MAX_COUNT);
    let cnf = parse_dimacs(&at).expect("the largest addressable variable parses");
    assert_eq!(cnf.clauses[0][0].to_dimacs(), Var::MAX_COUNT as i64);
}

#[test]
fn non_integer_clause_count_is_rejected() {
    let err = parse_dimacs("p cnf 3 xyz\n1 0\n").unwrap_err();
    assert_eq!(err.line, 1);
    assert!(err.message.contains("clause count"), "{err}");
    assert!(parse_dimacs("p cnf 3 -1\n1 0\n").is_err());
}
