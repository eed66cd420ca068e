//! The jeddc translator end to end: compile the paper's Fig. 4 program
//! written in mini-Jedd, show the physical-domain assignment statistics
//! and the generated code, then execute it on the paper's example data.
//!
//! Run with `cargo run --example jeddc_compile`.

use jedd::jeddc::{self, Executor};

const FIG4: &str = "
    domain Type { A, B };
    domain Signature { foo, bar };
    domain Method { A.foo, B.bar };

    attribute rectype : Type;
    attribute tgttype : Type;
    attribute type : Type;
    attribute subtype : Type;
    attribute supertype : Type;
    attribute signature : Signature;
    attribute method : Method;

    physdom T1, S1, T2, M1, T3;

    relation <rectype:T1, signature:S1> receiverTypes;
    relation <type, signature, method> declaresMethod;
    relation <subtype:T2, supertype:T3> extend;
    relation <rectype, signature, tgttype, method> answer;

    rule resolve {
        <rectype, signature, tgttype> toResolve =
            (rectype => rectype tgttype) receiverTypes;
        do {
            <rectype:T1, signature:S1, tgttype:T2, method:M1> resolved =
                toResolve {tgttype, signature} >< declaresMethod {type, signature};
            answer |= resolved;
            toResolve -= (method=>) resolved;
            toResolve = (supertype=>tgttype) (toResolve {tgttype} <> extend {subtype});
        } while (toResolve != 0B);
    }
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("--- compiling the paper's Fig. 4 program ----------------------");
    let compiled = jeddc::compile(FIG4)?;
    let st = compiled.assignment.stats;
    println!(
        "expressions: {}   attribute occurrences: {}",
        st.exprs, st.attrs
    );
    println!(
        "constraints: {} conflict, {} equality, {} assignment",
        st.conflict, st.equality, st.assignment
    );
    println!(
        "SAT: {} vars, {} clauses, {} literals, {} flow paths, {:.1} ms",
        st.sat_vars,
        st.sat_clauses,
        st.sat_literals,
        st.flow_paths,
        st.solve_seconds * 1000.0
    );

    println!("\n--- generated code --------------------------------------------");
    println!("{}", jeddc::emit_java_like(&compiled));

    println!("--- executing on the paper's example data ---------------------");
    let mut exec = Executor::new(&compiled)?;
    exec.set_input("receiverTypes", &[vec![1, 0], vec![1, 1]])?; // B calls foo, bar
    exec.set_input("declaresMethod", &[vec![0, 0, 0], vec![1, 1, 1]])?;
    exec.set_input("extend", &[vec![1, 0]])?; // B extends A
    exec.run("resolve")?;
    println!("answer tuples (rectype, signature, tgttype, method):");
    for t in exec.tuples("answer")? {
        println!("  {t:?}");
    }
    println!("\nreplaces executed by the assignment: {}", exec.replaces);
    Ok(())
}
