//! Property-style tests for the physical-domain-assignment engine: random
//! constraint graphs are solved and the solution is checked against every
//! constraint; reported failures are checked to be genuine. Generation is
//! seeded with the in-tree PRNG so every run exercises the same cases.

use jedd_bdd::rng::XorShift64Star;
use jedd_core::assign::{AssignError, AssignmentProblem, OccId, PhysId, SourcePos};

const CASES: u64 = 96;

/// A randomly generated assignment problem, in raw form.
#[derive(Debug, Clone)]
struct RawProblem {
    /// Occurrences per expression (expression i has `exprs[i]` attrs).
    exprs: Vec<usize>,
    n_phys: usize,
    /// Edges between occurrence indices (taken modulo the occ count).
    equalities: Vec<(usize, usize)>,
    assignments: Vec<(usize, usize)>,
    /// Specified (occ, phys) pairs (taken modulo counts).
    specified: Vec<(usize, usize)>,
}

fn raw_problem(rng: &mut XorShift64Star) -> RawProblem {
    let exprs: Vec<usize> = (0..rng.gen_index(1..6))
        .map(|_| rng.gen_index(1..4))
        .collect();
    let n_phys = rng.gen_index(2..5);
    let pairs = |rng: &mut XorShift64Star, lo: usize, hi: usize, m: usize| -> Vec<(usize, usize)> {
        (0..rng.gen_index(lo..hi))
            .map(|_| (rng.gen_index(0..64), rng.gen_index(0..m)))
            .collect()
    };
    RawProblem {
        exprs,
        n_phys,
        equalities: pairs(rng, 0, 8, 64),
        assignments: pairs(rng, 0, 8, 64),
        specified: pairs(rng, 1, 5, 8),
    }
}

struct Built {
    problem: AssignmentProblem,
    occs: Vec<OccId>,
    phys: Vec<PhysId>,
    equalities: Vec<(OccId, OccId)>,
    specified: Vec<(OccId, PhysId)>,
    /// Conflict pairs (same-expression occurrences).
    conflicts: Vec<(OccId, OccId)>,
}

fn build(raw: &RawProblem) -> Built {
    let mut p = AssignmentProblem::new();
    let phys: Vec<PhysId> = (0..raw.n_phys)
        .map(|i| p.add_physdom(&format!("P{i}")))
        .collect();
    let mut occs = Vec::new();
    let mut conflicts = Vec::new();
    for (ei, &n) in raw.exprs.iter().enumerate() {
        let e = p.add_expr(
            &format!("e{ei}"),
            SourcePos {
                line: ei as u32 + 1,
                col: 1,
            },
        );
        let first = occs.len();
        for ai in 0..n {
            occs.push(p.add_occurrence(e, &format!("a{ai}")));
        }
        for i in first..occs.len() {
            for j in (i + 1)..occs.len() {
                conflicts.push((occs[i], occs[j]));
            }
        }
    }
    let n = occs.len();
    let mut equalities = Vec::new();
    for &(a, b) in &raw.equalities {
        let (a, b) = (occs[a % n], occs[b % n]);
        if a != b {
            p.add_equality(a, b);
            equalities.push((a, b));
        }
    }
    for &(a, b) in &raw.assignments {
        let (a, b) = (occs[a % n], occs[b % n]);
        if a != b {
            p.add_assignment(a, b);
        }
    }
    let mut specified = Vec::new();
    for &(o, ph) in &raw.specified {
        let occ = occs[o % n];
        let ph = phys[ph % raw.n_phys];
        p.specify(occ, ph);
        specified.push((occ, ph));
    }
    Built {
        problem: p,
        occs,
        phys,
        equalities,
        specified,
        conflicts,
    }
}

/// Any solution returned satisfies every constraint of §3.3.2.
#[test]
fn solutions_satisfy_all_constraints() {
    let mut rng = XorShift64Star::new(0xa551);
    for case in 0..CASES {
        let raw = raw_problem(&mut rng);
        let b = build(&raw);
        match b.problem.solve() {
            Ok(sol) => {
                // 1/2: every occurrence got exactly one physical domain
                // (by construction of the decoder) within range.
                for &o in &b.occs {
                    assert!(b.phys.contains(&sol.physdom_of(o)), "case {case}");
                }
                // 3: specified occurrences got their domain. Note multiple
                // contradictory specifications of one occ make the
                // instance unsatisfiable, so reaching here means each was
                // honoured.
                for &(o, ph) in &b.specified {
                    assert_eq!(sol.physdom_of(o), ph, "specified occurrence, case {case}");
                }
                // 4: conflicts are separated.
                for &(a, bb) in &b.conflicts {
                    assert_ne!(
                        sol.physdom_of(a),
                        sol.physdom_of(bb),
                        "conflicting occurrences share a domain, case {case}"
                    );
                }
                // 5: equality edges are together.
                for &(a, bb) in &b.equalities {
                    assert_eq!(sol.physdom_of(a), sol.physdom_of(bb), "case {case}");
                }
            }
            Err(AssignError::Unreachable { .. }) => {
                // Must be genuine: some occurrence has no path to any
                // specified occurrence over equality+assignment edges.
                // (Checked structurally below.)
                let n = b.occs.len();
                let mut adj = vec![Vec::new(); n];
                let idx = |o: OccId| b.occs.iter().position(|&x| x == o).unwrap();
                for &(x, y) in b.equalities.iter() {
                    adj[idx(x)].push(idx(y));
                    adj[idx(y)].push(idx(x));
                }
                let assign_edges: Vec<(OccId, OccId)> = raw
                    .assignments
                    .iter()
                    .map(|&(a, c)| (b.occs[a % n], b.occs[c % n]))
                    .filter(|(a, c)| a != c)
                    .collect();
                for &(x, y) in &assign_edges {
                    adj[idx(x)].push(idx(y));
                    adj[idx(y)].push(idx(x));
                }
                let mut reach = vec![false; n];
                let mut stack: Vec<usize> = b.specified.iter().map(|&(o, _)| idx(o)).collect();
                while let Some(i) = stack.pop() {
                    if reach[i] {
                        continue;
                    }
                    reach[i] = true;
                    for &j in &adj[i] {
                        stack.push(j);
                    }
                }
                assert!(
                    reach.iter().any(|r| !r),
                    "Unreachable reported but every occurrence reaches a specification (case {case})"
                );
            }
            Err(AssignError::Conflict { physdom, .. }) => {
                // The reported conflict names a real physical domain.
                let known = (0..raw.n_phys).any(|i| format!("P{i}") == physdom);
                assert!(
                    known,
                    "conflict names an unknown physical domain, case {case}"
                );
            }
            Err(AssignError::Inconsistent { .. }) => {
                // Only possible when some occurrence participates in more
                // than one specification chain; the random generator does
                // produce those.
                assert!(b.specified.len() > 1, "case {case}");
            }
        }
    }
}

/// Solving is deterministic: same problem, same assignment.
#[test]
fn solving_is_deterministic() {
    let mut rng = XorShift64Star::new(0xa552);
    for case in 0..CASES {
        let raw = raw_problem(&mut rng);
        let b1 = build(&raw);
        let b2 = build(&raw);
        match (b1.problem.solve(), b2.problem.solve()) {
            (Ok(s1), Ok(s2)) => {
                for (&o1, &o2) in b1.occs.iter().zip(b2.occs.iter()) {
                    assert_eq!(s1.physdom_of(o1), s2.physdom_of(o2), "case {case}");
                }
            }
            (Err(e1), Err(e2)) => assert_eq!(e1, e2, "case {case}"),
            (a, b) => panic!("outcomes diverge in case {case}: {a:?} vs {b:?}"),
        }
    }
}

/// Problems whose every component carries exactly one specification and
/// which have enough physical domains are always satisfiable.
#[test]
fn tree_shaped_problems_solve() {
    for n_exprs in 1usize..5 {
        for attrs_per in 1usize..4 {
            let mut p = AssignmentProblem::new();
            // One physical domain per attribute position: always enough.
            let phys: Vec<PhysId> = (0..attrs_per)
                .map(|i| p.add_physdom(&format!("P{i}")))
                .collect();
            let mut prev: Option<Vec<OccId>> = None;
            for ei in 0..n_exprs {
                let e = p.add_expr(&format!("e{ei}"), SourcePos { line: 1, col: 1 });
                let row: Vec<OccId> = (0..attrs_per)
                    .map(|ai| p.add_occurrence(e, &format!("a{ai}")))
                    .collect();
                if let Some(prev_row) = &prev {
                    for (a, b) in prev_row.iter().zip(row.iter()) {
                        p.add_assignment(*a, *b);
                    }
                } else {
                    for (i, &o) in row.iter().enumerate() {
                        p.specify(o, phys[i]);
                    }
                }
                prev = Some(row);
            }
            let sol = p.solve();
            assert!(sol.is_ok(), "chain problem must solve: {:?}", sol.err());
        }
    }
}
