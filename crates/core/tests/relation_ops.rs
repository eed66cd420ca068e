//! Integration tests for the relational algebra, including a faithful
//! walkthrough of the paper's Figures 3 and 4 (virtual call resolution).

use jedd_core::{JeddError, Relation, Universe};

/// Builds the universe of the paper's running example (Figs. 3 and 4).
struct Fig4 {
    u: Universe,
    // attributes
    rectype: jedd_core::AttrId,
    signature: jedd_core::AttrId,
    tgttype: jedd_core::AttrId,
    method: jedd_core::AttrId,
    ty: jedd_core::AttrId,
    subtype: jedd_core::AttrId,
    supertype: jedd_core::AttrId,
    // physical domains
    t1: jedd_core::PhysDomId,
    s1: jedd_core::PhysDomId,
    t2: jedd_core::PhysDomId,
    m1: jedd_core::PhysDomId,
    t3: jedd_core::PhysDomId,
    // relations
    receiver_types: Relation,
    declares_method: Relation,
    extend: Relation,
}

const A: u64 = 0;
const B: u64 = 1;
const FOO: u64 = 0;
const BAR: u64 = 1;
const A_FOO: u64 = 0;
const B_BAR: u64 = 1;

fn fig4() -> Fig4 {
    let u = Universe::new();
    let type_dom = u.add_domain_with_elements("Type", &["A", "B"]);
    let sig_dom = u.add_domain_with_elements("Signature", &["foo()", "bar()"]);
    let method_dom = u.add_domain_with_elements("Method", &["A.foo()", "B.bar()"]);

    let t1 = u.add_physical_domain("T1", 2);
    let s1 = u.add_physical_domain("S1", 2);
    let t2 = u.add_physical_domain("T2", 2);
    let m1 = u.add_physical_domain("M1", 2);
    let t3 = u.add_physical_domain("T3", 2);

    let rectype = u.add_attribute("rectype", type_dom);
    let signature = u.add_attribute("signature", sig_dom);
    let tgttype = u.add_attribute("tgttype", type_dom);
    let method = u.add_attribute("method", method_dom);
    let ty = u.add_attribute("type", type_dom);
    let subtype = u.add_attribute("subtype", type_dom);
    let supertype = u.add_attribute("supertype", type_dom);

    // Fig. 4(a): receiver type B at two call sites.
    let receiver_types = Relation::from_tuples(
        &u,
        &[(rectype, t1), (signature, s1)],
        &[vec![B, FOO], vec![B, BAR]],
    )
    .unwrap();

    // Fig. 3: implementsMethod / declaresMethod.
    let declares_method = Relation::from_tuples(
        &u,
        &[(ty, t2), (signature, s1), (method, m1)],
        &[vec![A, FOO, A_FOO], vec![B, BAR, B_BAR]],
    )
    .unwrap();

    // Fig. 4(d): B extends A.
    let extend =
        Relation::from_tuples(&u, &[(subtype, t2), (supertype, t3)], &[vec![B, A]]).unwrap();

    Fig4 {
        u,
        rectype,
        signature,
        tgttype,
        method,
        ty,
        subtype,
        supertype,
        t1,
        s1,
        t2,
        m1,
        t3,
        receiver_types,
        declares_method,
        extend,
    }
}

/// The full virtual-call-resolution loop of Fig. 4, asserting every
/// intermediate relation against the paper's sub-figures.
#[test]
fn figure4_walkthrough() {
    let f = fig4();

    // Line 3: copy rectype into (rectype, tgttype).
    let mut to_resolve = f
        .receiver_types
        .copy(f.rectype, f.rectype, f.tgttype, Some(f.t2))
        .unwrap();
    // Fig. 4(b): {(B, foo(), B), (B, bar(), B)} over (rectype, signature, tgttype).
    assert_eq!(to_resolve.size(), 2);
    assert!(to_resolve.contains(&[B, FOO, B]));
    assert!(to_resolve.contains(&[B, BAR, B]));

    let mut answer = Relation::empty(
        &f.u,
        &[
            (f.rectype, f.t1),
            (f.signature, f.s1),
            (f.tgttype, f.t2),
            (f.method, f.m1),
        ],
    )
    .unwrap();

    let mut iterations = 0;
    loop {
        iterations += 1;
        // Lines 6-7: join on (tgttype, signature) vs (type, signature).
        let resolved = to_resolve
            .join(
                &[f.tgttype, f.signature],
                &f.declares_method,
                &[f.ty, f.signature],
            )
            .unwrap();
        if iterations == 1 {
            // Fig. 4(c): only B/bar() resolves in the first iteration.
            assert_eq!(resolved.size(), 1);
            assert!(resolved.contains(&[B, BAR, B, B_BAR]));
        }
        if iterations == 2 {
            // Fig. 4(g): B/foo() resolves to A.foo() at supertype A.
            assert_eq!(resolved.size(), 1);
            assert!(resolved.contains(&[B, FOO, A, A_FOO]));
        }

        // Line 8: answer |= resolved.
        answer = answer.union(&resolved).unwrap();

        // Line 9: toResolve -= (method=>) resolved.
        let resolved_no_method = resolved.project_away(&[f.method]).unwrap();
        to_resolve = to_resolve.minus(&resolved_no_method).unwrap();
        if iterations == 1 {
            // Fig. 4(e): {(B, foo(), B)} remains.
            assert_eq!(to_resolve.size(), 1);
            assert!(to_resolve.contains(&[B, FOO, B]));
        }

        // Line 10: walk up the hierarchy with a composition.
        let stepped = to_resolve
            .compose(&[f.tgttype], &f.extend, &[f.subtype])
            .unwrap();
        to_resolve = stepped.rename(f.supertype, f.tgttype).unwrap();
        if iterations == 1 {
            // Fig. 4(f): {(B, foo(), A)}.
            assert_eq!(to_resolve.size(), 1);
            assert!(to_resolve.contains(&[B, FOO, A]));
        }

        // Line 11: while (toResolve != 0B).
        if to_resolve.is_empty() {
            break;
        }
        assert!(iterations < 10, "resolution failed to converge");
    }

    assert_eq!(iterations, 2);
    // Final answer: foo() -> A.foo(), bar() -> B.bar() for receiver B.
    assert_eq!(answer.size(), 2);
    assert!(answer.contains(&[B, FOO, A, A_FOO]));
    assert!(answer.contains(&[B, BAR, B, B_BAR]));
}

#[test]
fn figure3_literal_and_display() {
    let f = fig4();
    // new { newtype=>type, newsig=>signature, newmethod=>method }
    let t = Relation::tuple(
        &f.u,
        &[(f.ty, f.t2, A), (f.signature, f.s1, FOO), (f.method, f.m1, A_FOO)],
    )
    .unwrap();
    assert_eq!(t.size(), 1);
    let display = t.display_tuples();
    assert!(display.contains("type=A"));
    assert!(display.contains("signature=foo()"));
    assert!(display.contains("method=A.foo()"));
}

#[test]
fn set_ops_match_paper_semantics() {
    let f = fig4();
    let r = &f.receiver_types;
    // union / intersect / minus with self.
    assert!(r.union(r).unwrap().equals(r).unwrap());
    assert!(r.intersect(r).unwrap().equals(r).unwrap());
    assert!(r.minus(r).unwrap().is_empty());
    // 0B behaviour.
    let empty = Relation::empty(&f.u, r.schema()).unwrap();
    assert!(r.union(&empty).unwrap().equals(r).unwrap());
    assert!(r.intersect(&empty).unwrap().is_empty());
    assert!(r.minus(&empty).unwrap().equals(r).unwrap());
}

#[test]
fn from_tuples_rejects_a_wrong_arity_with_a_typed_error() {
    let u = Universe::new();
    let d = u.add_domain("D", 4);
    let p1 = u.add_physical_domain("P1", 2);
    let p2 = u.add_physical_domain("P2", 2);
    let a = u.add_attribute("a", d);
    let b = u.add_attribute("b", d);
    let schema = [(a, p1), (b, p2)];
    for bad in [vec![1], vec![1, 2, 3], vec![]] {
        let err = Relation::from_tuples(&u, &schema, &[vec![0, 1], bad.clone()]).unwrap_err();
        assert_eq!(
            err,
            JeddError::TupleArity {
                expected: 2,
                found: bad.len()
            }
        );
    }
    let ok = Relation::from_tuples(&u, &schema, &[vec![0, 1], vec![3, 2]]).unwrap();
    assert_eq!(ok.size(), 2);
}

#[test]
fn full_relation_counts_valid_tuples_only() {
    let u = Universe::new();
    let d5 = u.add_domain("D5", 5);
    let d3 = u.add_domain("D3", 3);
    let p1 = u.add_physical_domain("P1", 3);
    let p2 = u.add_physical_domain("P2", 2);
    let a = u.add_attribute("a", d5);
    let b = u.add_attribute("b", d3);
    let full = Relation::full(&u, &[(a, p1), (b, p2)]).unwrap();
    assert_eq!(full.size(), 15, "5 * 3 valid tuples, not 8 * 4 codes");
}

#[test]
fn schema_mismatch_errors() {
    let f = fig4();
    let err = f.receiver_types.union(&f.extend).unwrap_err();
    assert!(matches!(err, JeddError::SchemaMismatch { .. }));
    let err = f.receiver_types.equals(&f.declares_method).unwrap_err();
    assert!(matches!(err, JeddError::SchemaMismatch { .. }));
}

#[test]
fn project_away_merges_duplicates() {
    let f = fig4();
    // Projecting signature away merges (B, foo()) and (B, bar()).
    let projected = f.receiver_types.project_away(&[f.signature]).unwrap();
    assert_eq!(projected.size(), 1);
    assert!(projected.contains(&[B]));
}

#[test]
fn project_onto_keeps_selected() {
    let f = fig4();
    let sigs = f.receiver_types.project_onto(&[f.signature]).unwrap();
    assert_eq!(sigs.size(), 2);
    assert_eq!(sigs.attributes(), vec![f.signature]);
}

#[test]
fn project_missing_attribute_errors() {
    let f = fig4();
    let err = f.receiver_types.project_away(&[f.method]).unwrap_err();
    assert!(matches!(err, JeddError::NoSuchAttribute { .. }));
}

#[test]
fn rename_changes_schema_not_bdd() {
    let f = fig4();
    let renamed = f.extend.rename(f.supertype, f.tgttype).unwrap();
    assert_eq!(renamed.attributes(), vec![f.tgttype, f.subtype]);
    // Renaming requires no BDD change (paper §3.2.2).
    assert_eq!(renamed.bdd(), f.extend.bdd());
    // Rename to an attribute already present fails.
    let err = f.extend.rename(f.supertype, f.subtype).unwrap_err();
    assert!(matches!(err, JeddError::DuplicateAttribute { .. }));
}

#[test]
fn rename_requires_same_domain() {
    let f = fig4();
    let err = f.receiver_types.rename(f.rectype, f.method).unwrap_err();
    assert!(matches!(err, JeddError::DomainMismatch { .. }));
}

#[test]
fn copy_duplicates_values() {
    let f = fig4();
    let copied = f
        .receiver_types
        .copy(f.rectype, f.rectype, f.tgttype, Some(f.t2))
        .unwrap();
    assert_eq!(copied.size(), 2);
    for t in copied.tuples() {
        // schema order: rectype < signature < tgttype (AttrId order).
        assert_eq!(t[0], t[2], "copied attribute must mirror the original");
    }
}

#[test]
fn copy_to_scratch_domain() {
    let f = fig4();
    let copied = f
        .receiver_types
        .copy(f.rectype, f.rectype, f.tgttype, None)
        .unwrap();
    assert_eq!(copied.size(), 2);
    for t in copied.tuples() {
        assert_eq!(t[0], t[2]);
    }
}

#[test]
fn join_matches_on_compared_attributes() {
    let f = fig4();
    // Join receiverTypes{signature} with declaresMethod{signature}:
    // keeps rectype, signature (left), type, method (right kept).
    let joined = f
        .receiver_types
        .join(&[f.signature], &f.declares_method, &[f.signature])
        .unwrap();
    // (B,foo())x(A,foo(),A.foo()) and (B,bar())x(B,bar(),B.bar()).
    assert_eq!(joined.size(), 2);
    assert!(joined.contains(&[B, FOO, A_FOO, A]) || joined.contains(&[B, FOO, A, A_FOO]));
}

#[test]
fn join_requires_equal_list_lengths() {
    let f = fig4();
    let err = f
        .receiver_types
        .join(&[f.signature], &f.declares_method, &[f.signature, f.ty])
        .unwrap_err();
    assert!(matches!(err, JeddError::ComparedListLength { .. }));
}

#[test]
fn join_rejects_overlapping_schemas() {
    let f = fig4();
    // receiverTypes has signature; joining on rectype only would leave
    // signature on both sides.
    let other = f.receiver_types.clone();
    let err = f
        .receiver_types
        .join(&[f.rectype], &other, &[f.rectype])
        .unwrap_err();
    assert!(matches!(err, JeddError::OverlappingSchemas { .. }));
}

#[test]
fn join_rejects_domain_mismatch() {
    let f = fig4();
    let err = f
        .receiver_types
        .join(&[f.rectype], &f.declares_method, &[f.method])
        .unwrap_err();
    assert!(matches!(err, JeddError::DomainMismatch { .. }));
}

#[test]
fn compose_equals_join_then_project() {
    let f = fig4();
    let to_resolve = f
        .receiver_types
        .copy(f.rectype, f.rectype, f.tgttype, Some(f.t2))
        .unwrap();
    let composed = to_resolve
        .compose(&[f.tgttype], &f.extend, &[f.subtype])
        .unwrap();
    let joined = to_resolve
        .join(&[f.tgttype], &f.extend, &[f.subtype])
        .unwrap()
        .project_away(&[f.tgttype])
        .unwrap();
    assert!(composed.equals(&joined).unwrap());
    // Fig. 4(f): {(B, foo(), A), (B, bar(), A)} before the minus — here we
    // composed the unsubtracted toResolve, so both rows step up to A.
    assert_eq!(composed.size(), 2);
}

#[test]
fn select_is_join_with_literal() {
    let f = fig4();
    let sel = f.receiver_types.select(f.signature, BAR).unwrap();
    assert_eq!(sel.size(), 1);
    assert!(sel.contains(&[B, BAR]));
}

#[test]
fn with_assignment_moves_physical_domains() {
    let f = fig4();
    // Move rectype from T1 to T3 explicitly; contents are unchanged.
    let moved = f
        .receiver_types
        .with_assignment(&[(f.rectype, f.t3)])
        .unwrap();
    assert_eq!(moved.physdom_of(f.rectype), Some(f.t3));
    assert_eq!(moved.size(), 2);
    assert!(moved.contains(&[B, FOO]));
    // equals() aligns automatically, so the relations still compare equal.
    assert!(moved.equals(&f.receiver_types).unwrap());
    // Round-trip back.
    let back = moved.with_assignment(&[(f.rectype, f.t1)]).unwrap();
    assert_eq!(back.bdd(), f.receiver_types.bdd());
}

#[test]
fn auto_replace_counted() {
    let f = fig4();
    let before = f.u.stats().auto_replaces;
    let moved = f
        .receiver_types
        .with_assignment(&[(f.rectype, f.t3)])
        .unwrap();
    // Set op between differently-assigned relations inserts a replace.
    let _ = moved.union(&f.receiver_types).unwrap();
    assert!(f.u.stats().auto_replaces > before);
}

#[test]
fn tuple_out_of_range_rejected() {
    let f = fig4();
    let err = Relation::tuple(&f.u, &[(f.rectype, f.t1, 7)]).unwrap_err();
    assert!(matches!(err, JeddError::ObjectOutOfRange { .. }));
}

#[test]
fn universe_mismatch_detected() {
    let f1 = fig4();
    let f2 = fig4();
    let err = f1.receiver_types.union(&f2.receiver_types).unwrap_err();
    assert!(matches!(err, JeddError::UniverseMismatch));
}

#[test]
fn duplicate_physdom_in_schema_rejected() {
    let f = fig4();
    let err = Relation::empty(&f.u, &[(f.rectype, f.t1), (f.tgttype, f.t1)]).unwrap_err();
    assert!(matches!(err, JeddError::DuplicateAttribute { .. }));
}

#[test]
fn physdom_too_small_rejected() {
    let u = Universe::new();
    let big = u.add_domain("Big", 100);
    let tiny = u.add_physical_domain("Tiny", 2);
    let a = u.add_attribute("a", big);
    let err = Relation::empty(&u, &[(a, tiny)]).unwrap_err();
    assert!(matches!(err, JeddError::PhysicalDomainTooSmall { .. }));
}

#[test]
fn zero_ary_relation_after_full_projection() {
    let f = fig4();
    let all_away = f
        .receiver_types
        .project_away(&[f.rectype, f.signature])
        .unwrap();
    // A 0-ary relation holds one (empty) tuple when non-empty.
    assert_eq!(all_away.size(), 1);
    assert!(all_away.attributes().is_empty());
}

#[test]
fn tuples_roundtrip() {
    let f = fig4();
    let ts = f.declares_method.tuples();
    let rebuilt = Relation::from_tuples(&f.u, f.declares_method.schema(), &ts).unwrap();
    assert!(rebuilt.equals(&f.declares_method).unwrap());
}
