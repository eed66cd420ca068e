//! The Virtual Call Resolution module — the paper's running example
//! (Fig. 4), generalised over call sites: given the types reaching each
//! receiver and each site's signature, find the target method by walking
//! up the class hierarchy.

use crate::facts::Facts;
use crate::persist;
use jedd_core::{JeddError, Relation};

/// Resolves virtual calls.
///
/// * `site_types` — `(site, type)`: the possible runtime types of each
///   site's receiver (from points-to, or from a type analysis).
///
/// Returns `(site, method)` pairs. Exactly the Fig. 4 loop with `site`
/// alongside the receiver-type key.
///
/// The loop is inherently semi-naive: `toResolve` is a worklist that
/// shrinks as cursors resolve and walks up the hierarchy otherwise, so
/// every round already touches only a frontier. Resolution is pointwise
/// in `(site, type)`, so callers holding a growing `site_types` may
/// resolve just its delta and union the answers.
///
/// # Errors
///
/// Propagates relational-layer errors, and a divergence error (through
/// the `Fixpoint` round bound) if the hierarchy walk never terminates —
/// e.g. an `extend` cycle none of whose types declares the signature.
pub fn resolve(f: &Facts, site_types: &Relation) -> Result<Relation, JeddError> {
    persist::run_vcr(f, site_types, None).map_err(persist::into_jedd)
}

/// Builds the initial `(to_resolve, answer)` pair:
/// `toResolve(site, signature, tgttype)` pairs each receiver type with
/// its site's signature and starts the walk at the receiver type itself
/// (the paper's attribute-copy is implicit: `type` is copied into the
/// cursor attribute `tgttype`); `answer` starts empty.
pub(crate) fn init(f: &Facts, site_types: &Relation) -> Result<(Relation, Relation), JeddError> {
    let with_sig = site_types.join(&[f.site], &f.site_sig, &[f.site])?;
    let to_resolve = with_sig
        .rename(f.ty, f.tgttype)?
        .with_assignment(&[(f.tgttype, f.t2)])?;
    let answer = Relation::empty(&f.u, &[(f.site, f.c1), (f.method, f.m1)])?;
    Ok((to_resolve, answer))
}

/// One resolution round: resolve cursors whose current type declares the
/// signature, union them into the answer, and walk the rest one level up
/// the hierarchy. Returns the next `(to_resolve, answer)` pair. The body
/// of the one `vcr` loop in [`crate::persist`], which both the plain and
/// the checkpointed runs go through.
pub(crate) fn round(
    f: &Facts,
    to_resolve: &Relation,
    answer: &Relation,
) -> Result<(Relation, Relation), JeddError> {
    // resolved = toResolve{tgttype, signature} >< declares{type, signature}
    let resolved = to_resolve.join(&[f.tgttype, f.signature], &f.declares, &[f.ty, f.signature])?;
    // answer |= resolved (projected onto the output schema).
    let answer = answer.union(&resolved.project_onto(&[f.site, f.method])?)?;
    // toResolve -= (method=>) resolved.
    let to_resolve = to_resolve.minus(&resolved.project_away(&[f.method])?)?;
    // Walk up: replace tgttype with its immediate superclass.
    let stepped = to_resolve.compose(&[f.tgttype], &f.extend, &[f.subtype])?;
    let to_resolve = stepped
        .rename(f.supertype, f.tgttype)?
        .with_assignment(&[(f.tgttype, f.t2)])?;
    Ok((to_resolve, answer))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Call, Program};
    use crate::synth::Benchmark;

    /// The paper's Fig. 4 example as an IR program: Object(0) <- A(1) <-
    /// B(2); A declares foo (m0), B declares bar (m1); two calls with
    /// receiver type B.
    fn fig4_program() -> Program {
        Program {
            types: 3,
            sigs: 2,
            methods: 2,
            fields: 1,
            vars: 2,
            allocs: 1,
            call_sites: 2,
            extend: vec![(1, 0), (2, 1)],
            declares: vec![(1, 0, 0), (2, 1, 1)],
            alloc_type: vec![(0, 2)],
            method_this: vec![(0, 0), (1, 1)],
            calls: vec![
                Call {
                    caller: 0,
                    site: 0,
                    recv: 0,
                    sig: 0,
                    args: vec![],
                    ret: None,
                },
                Call {
                    caller: 0,
                    site: 1,
                    recv: 0,
                    sig: 1,
                    args: vec![],
                    ret: None,
                },
            ],
            entry_points: vec![0],
            ..Program::default()
        }
    }

    #[test]
    fn figure4_example_resolves() {
        let p = fig4_program();
        let f = Facts::load(&p).unwrap();
        // Receiver type B (=2) at both sites.
        let site_types = Relation::from_tuples(
            &f.u,
            &[(f.site, f.c1), (f.ty, f.t1)],
            &[vec![0, 2], vec![1, 2]],
        )
        .unwrap();
        let answer = resolve(&f, &site_types).unwrap();
        assert_eq!(answer.size(), 2);
        // Tuple column order is attribute-registration order: (method,
        // site). Site 0 (foo) -> A.foo (m0) found one level up; site 1
        // (bar) -> B.bar (m1) found immediately.
        assert!(answer.contains(&[0, 0]));
        assert!(answer.contains(&[1, 1]));
    }

    #[test]
    fn unresolvable_signature_yields_nothing() {
        let mut p = fig4_program();
        p.declares.clear(); // nothing implements anything
        let f = Facts::load(&p).unwrap();
        let site_types =
            Relation::from_tuples(&f.u, &[(f.site, f.c1), (f.ty, f.t1)], &[vec![0, 2]]).unwrap();
        let answer = resolve(&f, &site_types).unwrap();
        assert!(answer.is_empty());
    }

    #[test]
    fn matches_reference_dispatch_on_benchmark() {
        let p = Benchmark::Tiny.generate();
        let f = Facts::load(&p).unwrap();
        // Give every site every type (worst case) and compare against the
        // reference dispatcher.
        let mut tuples = Vec::new();
        for c in &p.calls {
            for t in 0..p.types as u32 {
                tuples.push(vec![c.site as u64, t as u64]);
            }
        }
        let site_types =
            Relation::from_tuples(&f.u, &[(f.site, f.c1), (f.ty, f.t1)], &tuples).unwrap();
        let answer = resolve(&f, &site_types).unwrap();
        for c in &p.calls {
            for t in 0..p.types as u32 {
                let expect = p.dispatch(t, c.sig);
                if let Some(m) = expect {
                    // Column order: (method, site).
                    assert!(
                        answer.contains(&[m as u64, c.site as u64]),
                        "site {} type {t} should reach method {m}",
                        c.site
                    );
                }
            }
        }
        // No spurious methods: every answer pair is justified by some type.
        for t in answer.tuples() {
            let (m, site) = (t[0] as u32, t[1] as u32);
            let c = p.calls.iter().find(|c| c.site == site).unwrap();
            let justified = (0..p.types as u32).any(|ty| p.dispatch(ty, c.sig) == Some(m));
            assert!(justified, "answer ({site}, {m}) unjustified");
        }
    }
}
