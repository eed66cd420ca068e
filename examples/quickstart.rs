//! Quickstart: the paper's running example (Figures 3 and 4) — resolving
//! virtual method calls with relations over BDDs.
//!
//! Run with `cargo run --example quickstart`.

use jedd::core::{Relation, Universe};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Declarations (paper Fig. 3). -------------------------------
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

    // implementsMethod = {(A, foo(), A.foo()), (B, bar(), B.bar())}.
    let declares_method = Relation::from_tuples(
        &u,
        &[(ty, t2), (signature, s1), (method, m1)],
        &[vec![0, 0, 0], vec![1, 1, 1]],
    )?;
    // receiverTypes: receiver B at two call sites (Fig. 4(a)).
    let receiver_types = Relation::from_tuples(
        &u,
        &[(rectype, t1), (signature, s1)],
        &[vec![1, 0], vec![1, 1]],
    )?;
    // extend: B extends A (Fig. 4(d)).
    let extend = Relation::from_tuples(&u, &[(subtype, t2), (supertype, t3)], &[vec![1, 0]])?;

    println!("receiverTypes =\n{}\n", receiver_types.display_tuples());
    println!("declaresMethod =\n{}\n", declares_method.display_tuples());
    println!("extend =\n{}\n", extend.display_tuples());

    // --- The resolve loop (paper Fig. 4, lines 3-11). ----------------
    // Line 3: copy the receiver type into the walk cursor.
    let mut to_resolve = receiver_types.copy(rectype, rectype, tgttype, Some(t2))?;
    let mut answer = Relation::empty(
        &u,
        &[(rectype, t1), (signature, s1), (tgttype, t2), (method, m1)],
    )?;
    let mut iteration = 0;
    loop {
        iteration += 1;
        // Lines 6-7: find classes declaring the signature.
        let resolved =
            to_resolve.join(&[tgttype, signature], &declares_method, &[ty, signature])?;
        println!(
            "iteration {iteration}: resolved =\n{}\n",
            resolved.display_tuples()
        );
        // Line 8.
        answer = answer.union(&resolved)?;
        // Line 9.
        to_resolve = to_resolve.minus(&resolved.project_away(&[method])?)?;
        // Line 10: walk to the superclass.
        to_resolve = to_resolve
            .compose(&[tgttype], &extend, &[subtype])?
            .rename(supertype, tgttype)?;
        // Line 11.
        if to_resolve.is_empty() {
            break;
        }
    }

    println!("answer =\n{}", answer.display_tuples());
    assert_eq!(answer.size(), 2);
    println!("\nBoth calls on a B receiver resolved: foo() -> A.foo(), bar() -> B.bar()");
    Ok(())
}
