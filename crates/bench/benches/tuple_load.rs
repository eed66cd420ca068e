//! Loading facts: `Relation::from_tuples`, which inserts each tuple as one
//! minterm along its own path without the operation cache, against the
//! fold of `Relation::tuple` unions (one memoised `or` per tuple) that it
//! replaced. Both load the base relations of the five Table-2 presets on
//! the plain and the chain-reduced kernel; each build starts from a
//! collected arena, and the two must give the same diagram in the same
//! manager, relation by relation.
//!
//! With `JEDD_BENCH_JSON` set, a `tuple_load` section records, per preset
//! and kernel, the best time of each build over `JEDD_BENCH_SAMPLES`
//! samples (default 5), the nodes each created and the op-cache lookups
//! each issued.

use jedd_analyses::facts::Facts;
use jedd_analyses::synth::Benchmark;
use jedd_bench::report::{write_section, JsonObject};
use jedd_core::{AttrId, Backend, PhysDomId, Relation, Universe};
use std::time::Instant;

/// One base relation as loaded: its stored schema and its tuples.
struct Fact {
    schema: Vec<(AttrId, PhysDomId)>,
    tuples: Vec<Vec<u64>>,
}

/// Loads `b` on `backend` and keeps only the universe and each base
/// relation's tuples; the relations themselves are dropped and collected.
fn facts(b: Benchmark, backend: Backend) -> (Universe, Vec<Fact>) {
    let f = Facts::load_configured(&b.generate(), Universe::new_with_backend(backend), None)
        .expect("facts");
    let rels = [
        &f.extend,
        &f.declares,
        &f.objtype,
        &f.news,
        &f.assigns,
        &f.loads,
        &f.stores,
        &f.site_caller,
        &f.site_recv,
        &f.site_sig,
        &f.site_arg,
        &f.site_ret,
        &f.method_this,
        &f.method_param,
        &f.method_ret,
        &f.entry,
        &f.load_in,
        &f.store_in,
        &f.var_type,
    ];
    let facts = rels
        .iter()
        .map(|r| Fact {
            schema: r.schema().to_vec(),
            tuples: r.tuples(),
        })
        .collect();
    let u = f.u.clone();
    drop(f);
    u.bdd_manager().gc();
    (u, facts)
}

fn from_tuples(u: &Universe, facts: &[Fact]) -> Vec<Relation> {
    facts
        .iter()
        .map(|f| Relation::from_tuples(u, &f.schema, &f.tuples).expect("from_tuples"))
        .collect()
}

fn tuple_fold(u: &Universe, facts: &[Fact]) -> Vec<Relation> {
    facts
        .iter()
        .map(|f| {
            let mut acc = Relation::empty(u, &f.schema).expect("schema");
            for t in &f.tuples {
                let fields: Vec<_> = f
                    .schema
                    .iter()
                    .zip(t)
                    .map(|(&(a, p), &v)| (a, p, v))
                    .collect();
                acc = acc
                    .union(&Relation::tuple(u, &fields).expect("tuple"))
                    .expect("union");
            }
            acc
        })
        .collect()
}

/// Best wall clock of `build` over `samples` runs, each from a collected
/// arena, with the nodes created and cache lookups of the last run.
fn best(
    u: &Universe,
    facts: &[Fact],
    samples: usize,
    build: fn(&Universe, &[Fact]) -> Vec<Relation>,
) -> (f64, u64, u64) {
    let mgr = u.bdd_manager();
    let mut out = (f64::INFINITY, 0, 0);
    for _ in 0..samples {
        mgr.gc();
        let before = mgr.kernel_stats();
        let start = Instant::now();
        let rels = build(u, facts);
        let secs = start.elapsed().as_secs_f64();
        let after = mgr.kernel_stats();
        drop(rels);
        out = (
            out.0.min(secs),
            after.nodes_created - before.nodes_created,
            after.cache_lookups - before.cache_lookups,
        );
    }
    out
}

fn main() {
    let samples: usize = std::env::var("JEDD_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5)
        .max(1);
    let mut section = JsonObject::new().int("samples", samples as u64);
    for b in Benchmark::table2() {
        for backend in [Backend::Bdd, Backend::Cbdd] {
            let (u, facts) = facts(b, backend);
            // Alternate which build runs first, so neither always starts
            // on a unique table the other just grew.
            let (load, fold) = if (b as usize).is_multiple_of(2) {
                let load = best(&u, &facts, samples, from_tuples);
                (load, best(&u, &facts, samples, tuple_fold))
            } else {
                let fold = best(&u, &facts, samples, tuple_fold);
                (best(&u, &facts, samples, from_tuples), fold)
            };
            let (loaded, folded) = (from_tuples(&u, &facts), tuple_fold(&u, &facts));
            for ((l, r), f) in loaded.iter().zip(&folded).zip(&facts) {
                assert_eq!(
                    l.bdd(),
                    r.bdd(),
                    "{} {backend}: the builds differ",
                    b.name()
                );
                assert_eq!(l.size(), f.tuples.len() as u64, "{} {backend}", b.name());
            }
            let tuples: usize = facts.iter().map(|f| f.tuples.len()).sum();
            eprintln!(
                "tuple_load {:<8} {backend:<4} {tuples:>6} tuples: from_tuples {:.2} ms \
                 ({} nodes, {} lookups), tuple fold {:.2} ms ({} nodes, {} lookups), {:.2}x",
                b.name(),
                load.0 * 1e3,
                load.1,
                load.2,
                fold.0 * 1e3,
                fold.1,
                fold.2,
                fold.0 / load.0
            );
            section = section.object(
                &format!("{}_{backend}", b.name()),
                JsonObject::new()
                    .int("tuples", tuples as u64)
                    .float("from_tuples_s", load.0)
                    .int("from_tuples_nodes", load.1)
                    .int("from_tuples_cache_lookups", load.2)
                    .float("tuple_fold_s", fold.0)
                    .int("tuple_fold_nodes", fold.1)
                    .int("tuple_fold_cache_lookups", fold.2)
                    .float("speedup_x", fold.0 / load.0),
            );
        }
    }
    write_section("tuple_load", &section);
}
