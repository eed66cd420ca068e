//! The warm-start path of the order lab: learn an order on a cold run,
//! persist it, and verify a warm run under the persisted order is
//! tuple-identical, sift-free, and works on both kernels.

use jedd_analyses::facts::Facts;
use jedd_analyses::persist::{learn_and_save_order, load_learned_order, order_record_path};
use jedd_analyses::pointsto::{self, CallGraphMode};
use jedd_analyses::synth::Benchmark;
use jedd_core::{Backend, Universe};
use std::collections::BTreeSet;

fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("jedd-order-it-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn tuple_set(r: &jedd_core::Relation) -> BTreeSet<Vec<u64>> {
    r.tuples().into_iter().collect()
}

#[test]
fn learned_order_warm_start_is_tuple_identical_and_sift_free() {
    let d = tmpdir("warm");
    let p = Benchmark::Tiny.generate();

    // Cold run: explicit plain backend, then the order-search lab.
    let f = Facts::load_configured(&p, Universe::new_with_backend(Backend::Bdd), None).unwrap();
    let cold = pointsto::analyze(&f, CallGraphMode::OnTheFly).unwrap();
    assert!(f.u.bdd_manager().kernel_stats().sift_sweeps == 0);
    let (record, (before, after)) =
        learn_and_save_order(&d, "pointsto-tiny", &f, 2, 0xBEEF).unwrap();
    assert!(after <= before, "search must not worsen the arena");
    assert!(
        f.u.bdd_manager().kernel_stats().sift_sweeps > 0,
        "the cold search performs sifting sweeps"
    );
    assert_eq!(record.backend, Backend::Bdd);
    assert!(order_record_path(&d, "pointsto-tiny").exists());

    // Warm run: reload the record, install the order before building, and
    // verify no sweep ever happens and the result is identical.
    let rec = load_learned_order(&d, "pointsto-tiny")
        .unwrap()
        .expect("record was saved");
    assert_eq!(rec, record);
    let u2 = Universe::new_with_backend(rec.backend);
    let f2 = Facts::load_configured(&p, u2, Some(&rec.level2var)).unwrap();
    assert_eq!(f2.u.bdd_manager().current_order(), rec.level2var);
    let warm = pointsto::analyze(&f2, CallGraphMode::OnTheFly).unwrap();
    assert_eq!(
        f2.u.bdd_manager().kernel_stats().sift_sweeps,
        0,
        "a warm run performs zero sifting sweeps"
    );
    assert_eq!(tuple_set(&warm.pt), tuple_set(&cold.pt));
    assert_eq!(tuple_set(&warm.field_pt), tuple_set(&cold.field_pt));
    assert_eq!(tuple_set(&warm.cg), tuple_set(&cold.cg));

    // The same learned order warm-starts the chain-reduced backend: the
    // kernel is order-static there, so starting from a good order is the
    // only ordering lever — and results stay tuple-identical.
    let u3 = Universe::new_with_backend(Backend::Cbdd);
    let f3 = Facts::load_configured(&p, u3, Some(&rec.level2var)).unwrap();
    assert!(f3.u.bdd_manager().chain_mode());
    let chained = pointsto::analyze(&f3, CallGraphMode::OnTheFly).unwrap();
    assert_eq!(f3.u.bdd_manager().kernel_stats().sift_sweeps, 0);
    assert_eq!(tuple_set(&chained.pt), tuple_set(&cold.pt));
    assert!(
        chained.pt.node_count() <= warm.pt.node_count(),
        "chain reduction must not grow the result: cbdd {} bdd {}",
        chained.pt.node_count(),
        warm.pt.node_count()
    );

    // A missing record is a clean cold start, not an error.
    assert!(load_learned_order(&d, "absent").unwrap().is_none());
    let _ = std::fs::remove_dir_all(&d);
}

#[test]
fn load_configured_rejects_wrong_sized_orders() {
    let p = Benchmark::Tiny.generate();
    let bad = vec![0u32, 1, 2];
    let u = Universe::new_with_backend(Backend::Bdd);
    let err = match Facts::load_configured(&p, u, Some(&bad)) {
        Ok(_) => panic!("a wrong-sized order must not load"),
        Err(e) => e,
    };
    assert!(
        matches!(err, jedd_core::JeddError::InvalidRestore { .. }),
        "{err}"
    );
}
