//! Flow-path enumeration (paper §3.3.2).
//!
//! A *flow path* starts at an occurrence with a programmer-specified
//! physical domain, follows equality and assignment edges, visits no
//! occurrence twice, and is *minimal*: no other flow path with the same
//! endpoint has a proper subset of its occurrences. At least one flow path
//! must end at every occurrence; an active path forces its occurrences
//! into the same physical domain.

use super::problem::{AssignmentProblem, OccId, PhysId};

/// One enumerated flow path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct FlowPath {
    /// The specified physical domain at the start.
    pub phys: PhysId,
    /// Occurrences along the path, starting with the specified one.
    pub occs: Vec<OccId>,
}

/// Enumeration limits guarding pathological graphs: paths are capped per
/// (endpoint, starting physical domain) so every reachable domain keeps a
/// witness path — capping per endpoint alone can starve an endpoint of a
/// domain and make a satisfiable problem spuriously unsatisfiable.
pub(crate) const MAX_PATHS_PER_ENDPOINT_PER_DOMAIN: usize = 6;
pub(crate) const MAX_PATH_LEN: usize = 24;

/// Enumerates minimal flow paths and groups them by endpoint. The outer
/// index is the endpoint occurrence; each entry lists indices into the
/// returned path vector.
pub(crate) fn enumerate_flow_paths(
    problem: &AssignmentProblem,
) -> (Vec<FlowPath>, Vec<Vec<usize>>) {
    let n = problem.num_occurrences();
    // Adjacency over equality + assignment edges (undirected).
    let mut adj: Vec<Vec<OccId>> = vec![Vec::new(); n];
    for &(a, b) in problem.equality.iter().chain(problem.assignment.iter()) {
        adj[a.0 as usize].push(b);
        adj[b.0 as usize].push(a);
    }
    for l in &mut adj {
        l.sort_unstable();
        l.dedup();
    }

    let mut paths: Vec<FlowPath> = Vec::new();
    let mut by_endpoint: Vec<Vec<usize>> = vec![Vec::new(); n];
    // Kept-path counts per (endpoint, physical domain).
    let mut kept: std::collections::HashMap<(usize, PhysId), usize> =
        std::collections::HashMap::new();
    // Paths never extend *through* a specified occurrence: a path crossing
    // one with the same domain has a shorter suffix path starting there,
    // and one with a different domain could never be active.
    let mut is_specified = vec![false; n];
    for &(o, _) in &problem.specified {
        is_specified[o.0 as usize] = true;
    }

    // Breadth-first enumeration of simple paths from each specified
    // occurrence; BFS order yields shortest (hence subset-minimal-biased)
    // paths first.
    for &(start, phys) in &problem.specified {
        let mut frontier: Vec<Vec<OccId>> = vec![vec![start]];
        let mut depth = 0usize;
        while !frontier.is_empty() && depth < MAX_PATH_LEN {
            let mut next: Vec<Vec<OccId>> = Vec::new();
            for path in frontier.drain(..) {
                let end = *path.last().expect("non-empty path");
                let endpoint = end.0 as usize;
                let slot = kept.entry((endpoint, phys)).or_insert(0);
                if *slot < MAX_PATHS_PER_ENDPOINT_PER_DOMAIN {
                    // Minimality: drop the path if a kept path to the same
                    // endpoint uses a proper subset of its occurrences.
                    let dominated = by_endpoint[endpoint].iter().any(|&pi| {
                        let q = &paths[pi].occs;
                        q.len() < path.len() && q.iter().all(|o| path.contains(o))
                    });
                    if !dominated {
                        paths.push(FlowPath {
                            phys,
                            occs: path.clone(),
                        });
                        by_endpoint[endpoint].push(paths.len() - 1);
                        *slot += 1;
                    }
                }
                // Do not extend past a specified occurrence (other than
                // the path's own start).
                if path.len() > 1 && is_specified[endpoint] {
                    continue;
                }
                for &nb in &adj[end.0 as usize] {
                    if !path.contains(&nb)
                        && kept.get(&(nb.0 as usize, phys)).copied().unwrap_or(0)
                            < MAX_PATHS_PER_ENDPOINT_PER_DOMAIN
                    {
                        let mut p2 = path.clone();
                        p2.push(nb);
                        next.push(p2);
                    }
                }
            }
            frontier = next;
            depth += 1;
        }
    }
    (paths, by_endpoint)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::problem::SourcePos;

    fn pos() -> SourcePos {
        SourcePos::default()
    }

    #[test]
    fn single_specified_occurrence() {
        let mut p = AssignmentProblem::new();
        let t1 = p.add_physdom("T1");
        let e = p.add_expr("e", pos());
        let o = p.add_occurrence(e, "a");
        p.specify(o, t1);
        let (paths, by_endpoint) = enumerate_flow_paths(&p);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].occs, vec![o]);
        assert_eq!(by_endpoint[o.0 as usize].len(), 1);
    }

    #[test]
    fn chain_paths_reach_all() {
        let mut p = AssignmentProblem::new();
        let t1 = p.add_physdom("T1");
        let e = p.add_expr("e", pos());
        let a = p.add_occurrence(e, "a");
        let f = p.add_expr("f", pos());
        let b = p.add_occurrence(f, "b");
        let g = p.add_expr("g", pos());
        let c = p.add_occurrence(g, "c");
        p.specify(a, t1);
        p.add_equality(a, b);
        p.add_assignment(b, c);
        let (paths, by_endpoint) = enumerate_flow_paths(&p);
        assert_eq!(by_endpoint[a.0 as usize].len(), 1);
        assert_eq!(by_endpoint[b.0 as usize].len(), 1);
        assert_eq!(by_endpoint[c.0 as usize].len(), 1);
        let pc = &paths[by_endpoint[c.0 as usize][0]];
        assert_eq!(pc.occs, vec![a, b, c]);
    }

    #[test]
    fn unreachable_occurrence_has_no_path() {
        let mut p = AssignmentProblem::new();
        let t1 = p.add_physdom("T1");
        let e = p.add_expr("e", pos());
        let a = p.add_occurrence(e, "a");
        let b = p.add_occurrence(e, "b");
        p.specify(a, t1);
        let (_, by_endpoint) = enumerate_flow_paths(&p);
        assert!(!by_endpoint[a.0 as usize].is_empty());
        assert!(by_endpoint[b.0 as usize].is_empty());
    }

    #[test]
    fn minimality_prefers_direct_path() {
        // start -- x -- end and start -- end: only the short path to `end`
        // should be kept for endpoint `end` once both are seen.
        let mut p = AssignmentProblem::new();
        let t1 = p.add_physdom("T1");
        let e = p.add_expr("e", pos());
        let start = p.add_occurrence(e, "s");
        let f = p.add_expr("f", pos());
        let x = p.add_occurrence(f, "x");
        let g = p.add_expr("g", pos());
        let end = p.add_occurrence(g, "t");
        p.specify(start, t1);
        p.add_equality(start, x);
        p.add_equality(x, end);
        p.add_equality(start, end);
        let (paths, by_endpoint) = enumerate_flow_paths(&p);
        let endpoint_paths: Vec<&FlowPath> = by_endpoint[end.0 as usize]
            .iter()
            .map(|&i| &paths[i])
            .collect();
        // The direct 2-occ path must be present and no superset-of-it path
        // that merely inserts x between the same endpoints survives
        // minimality.
        assert!(endpoint_paths.iter().any(|fp| fp.occs == vec![start, end]));
        assert!(!endpoint_paths
            .iter()
            .any(|fp| fp.occs == vec![start, x, end]));
    }

    #[test]
    fn two_specified_sources_give_two_path_families() {
        let mut p = AssignmentProblem::new();
        let t1 = p.add_physdom("T1");
        let t2 = p.add_physdom("T2");
        let e = p.add_expr("e", pos());
        let a = p.add_occurrence(e, "a");
        let f = p.add_expr("f", pos());
        let b = p.add_occurrence(f, "b");
        let g = p.add_expr("g", pos());
        let c = p.add_occurrence(g, "c");
        p.specify(a, t1);
        p.specify(c, t2);
        p.add_assignment(a, b);
        p.add_assignment(b, c);
        let (paths, by_endpoint) = enumerate_flow_paths(&p);
        let mid: Vec<&FlowPath> = by_endpoint[b.0 as usize]
            .iter()
            .map(|&i| &paths[i])
            .collect();
        assert_eq!(mid.len(), 2);
        let physes: Vec<PhysId> = mid.iter().map(|fp| fp.phys).collect();
        assert!(physes.contains(&t1) && physes.contains(&t2));
    }
}
