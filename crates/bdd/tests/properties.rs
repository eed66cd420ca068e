//! Property-style tests for the BDD kernel: randomly generated boolean
//! expressions are checked against a brute-force truth-table model over a
//! small variable universe. Generation is seeded with the in-tree PRNG so
//! every run exercises the same cases.

use jedd_bdd::rng::XorShift64Star;
use jedd_bdd::{Bdd, BddManager, Permutation, ZddManager};

const NVARS: usize = 6;
const CASES: u64 = 128;

/// A random boolean-expression AST evaluated both as a BDD and as a truth
/// table.
#[derive(Clone, Debug)]
enum Expr {
    Var(u32),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
    Const(bool),
}

fn random_expr(rng: &mut XorShift64Star, depth: u32) -> Expr {
    if depth == 0 || rng.gen_bool(0.3) {
        return if rng.gen_bool(0.8) {
            Expr::Var(rng.gen_range(0..NVARS as u64) as u32)
        } else {
            Expr::Const(rng.gen_bool(0.5))
        };
    }
    match rng.gen_range(0..4) {
        0 => Expr::Not(Box::new(random_expr(rng, depth - 1))),
        1 => Expr::And(
            Box::new(random_expr(rng, depth - 1)),
            Box::new(random_expr(rng, depth - 1)),
        ),
        2 => Expr::Or(
            Box::new(random_expr(rng, depth - 1)),
            Box::new(random_expr(rng, depth - 1)),
        ),
        _ => Expr::Xor(
            Box::new(random_expr(rng, depth - 1)),
            Box::new(random_expr(rng, depth - 1)),
        ),
    }
}

fn eval(e: &Expr, bits: u32) -> bool {
    match e {
        Expr::Var(v) => (bits >> v) & 1 == 1,
        Expr::Not(a) => !eval(a, bits),
        Expr::And(a, b) => eval(a, bits) && eval(b, bits),
        Expr::Or(a, b) => eval(a, bits) || eval(b, bits),
        Expr::Xor(a, b) => eval(a, bits) != eval(b, bits),
        Expr::Const(c) => *c,
    }
}

fn build(mgr: &BddManager, e: &Expr) -> Bdd {
    match e {
        Expr::Var(v) => mgr.var(*v),
        Expr::Not(a) => build(mgr, a).not(),
        Expr::And(a, b) => build(mgr, a).and(&build(mgr, b)),
        Expr::Or(a, b) => build(mgr, a).or(&build(mgr, b)),
        Expr::Xor(a, b) => build(mgr, a).xor(&build(mgr, b)),
        Expr::Const(true) => mgr.constant_true(),
        Expr::Const(false) => mgr.constant_false(),
    }
}

fn truth_table(f: &Bdd) -> Vec<bool> {
    let vars: Vec<u32> = (0..NVARS as u32).collect();
    let mut table = vec![false; 1 << NVARS];
    f.foreach_sat(&vars, |a| {
        let mut bits = 0u32;
        for (i, &b) in a.iter().enumerate() {
            if b {
                bits |= 1 << vars[i];
            }
        }
        table[bits as usize] = true;
        true
    });
    table
}

#[test]
fn bdd_matches_truth_table() {
    let mut rng = XorShift64Star::new(0xbdd1);
    for case in 0..CASES {
        let e = random_expr(&mut rng, 4);
        let mgr = BddManager::new(NVARS);
        let f = build(&mgr, &e);
        let table = truth_table(&f);
        for bits in 0..(1u32 << NVARS) {
            assert_eq!(
                table[bits as usize],
                eval(&e, bits),
                "case {case} at assignment {bits:06b}"
            );
        }
    }
}

#[test]
fn satcount_matches_model_count() {
    let mut rng = XorShift64Star::new(0xbdd2);
    for _ in 0..CASES {
        let e = random_expr(&mut rng, 4);
        let mgr = BddManager::new(NVARS);
        let f = build(&mgr, &e);
        let models = (0..(1u32 << NVARS)).filter(|&b| eval(&e, b)).count();
        assert_eq!(f.satcount(), models as f64);
    }
}

#[test]
fn exists_matches_model() {
    let mut rng = XorShift64Star::new(0xbdd3);
    for _ in 0..CASES {
        let e = random_expr(&mut rng, 4);
        let var = rng.gen_range(0..NVARS as u64) as u32;
        let mgr = BddManager::new(NVARS);
        let f = build(&mgr, &e);
        let g = f.exists(&mgr.cube(&[var]));
        let table = truth_table(&g);
        for bits in 0..(1u32 << NVARS) {
            let lo = bits & !(1 << var);
            let hi = bits | (1 << var);
            let expect = eval(&e, lo) || eval(&e, hi);
            assert_eq!(table[bits as usize], expect);
        }
    }
}

#[test]
fn and_exists_is_fused() {
    let mut rng = XorShift64Star::new(0xbdd4);
    for _ in 0..CASES {
        let a = random_expr(&mut rng, 4);
        let b = random_expr(&mut rng, 4);
        let v1 = rng.gen_range(0..NVARS as u64) as u32;
        let v2 = rng.gen_range(0..NVARS as u64) as u32;
        let mgr = BddManager::new(NVARS);
        let f = build(&mgr, &a);
        let g = build(&mgr, &b);
        let cube = mgr.cube(&[v1, v2]);
        assert_eq!(f.and_exists(&g, &cube), f.and(&g).exists(&cube));
    }
}

#[test]
fn replace_shifts_semantics() {
    let mut rng = XorShift64Star::new(0xbdd5);
    for _ in 0..CASES {
        let e = random_expr(&mut rng, 4);
        // Shift all variables up by NVARS in a 2*NVARS manager.
        let mgr = BddManager::new(2 * NVARS);
        let f = build(&mgr, &e);
        let pairs: Vec<(u32, u32)> = (0..NVARS as u32).map(|v| (v, v + NVARS as u32)).collect();
        let perm = Permutation::from_pairs(&pairs);
        let g = f.replace(&perm);
        // Check the support moved entirely.
        for v in g.support() {
            assert!(v >= NVARS as u32);
        }
        // Round-trip restores f.
        assert_eq!(g.replace(&perm.inverse()), f);
    }
}

/// Truth table of `g` over the first `2 * NVARS` variables.
fn wide_truth_table(g: &Bdd) -> Vec<bool> {
    let vars: Vec<u32> = (0..2 * NVARS as u32).collect();
    let mut table = vec![false; 1 << (2 * NVARS)];
    g.foreach_sat(&vars, |a| {
        let mut bits = 0u32;
        for (i, &b) in a.iter().enumerate() {
            if b {
                bits |= 1 << vars[i];
            }
        }
        table[bits as usize] = true;
        true
    });
    table
}

/// A uniformly random full permutation of the `2 * NVARS` variables
/// (Fisher–Yates over the in-tree PRNG), expressed as pairs.
fn random_full_permutation(rng: &mut XorShift64Star) -> Permutation {
    let n = 2 * NVARS as u32;
    let mut targets: Vec<u32> = (0..n).collect();
    rng.shuffle(&mut targets);
    let pairs: Vec<(u32, u32)> = (0..n).map(|v| (v, targets[v as usize])).collect();
    Permutation::try_from_pairs(&pairs).expect("a bijection is always valid")
}

/// A random partial injective map: each of the first NVARS variables is
/// independently remapped (or not) to a distinct target drawn from the
/// whole 2*NVARS universe.
fn random_partial_map(rng: &mut XorShift64Star) -> Permutation {
    let n = 2 * NVARS as u32;
    let mut free: Vec<u32> = (0..n).collect();
    rng.shuffle(&mut free);
    let mut pairs = Vec::new();
    for v in 0..NVARS as u32 {
        if rng.gen_bool(0.6) {
            pairs.push((v, free.pop().expect("2*NVARS targets for NVARS sources")));
        }
    }
    Permutation::try_from_pairs(&pairs).expect("distinct targets")
}

/// The direct `mk`-based replace path must agree with the seed's
/// HashMap + ite-rebuild algorithm — node-for-node — on random functions
/// under both full permutations and partial injective maps, and both must
/// implement the paper's semantics: `g(y) = f(x)` where `x_v = y_{perm(v)}`.
#[test]
fn replace_direct_path_matches_rebuild_oracle() {
    let mut rng = XorShift64Star::new(0xbdda);
    for case in 0..CASES {
        let e = random_expr(&mut rng, 4);
        let mgr = BddManager::new(2 * NVARS);
        let f = build(&mgr, &e);
        let perm = if case % 2 == 0 {
            random_full_permutation(&mut rng)
        } else {
            random_partial_map(&mut rng)
        };
        // A partial map may collide with an unmapped support variable;
        // both paths must then reject with the same error.
        let direct = match (f.try_replace(&perm), f.try_replace_rebuild(&perm)) {
            (Ok(d), Ok(r)) => {
                assert_eq!(d, r, "case {case}: paths diverge on {perm:?}");
                d
            }
            (Err(a), Err(b)) => {
                assert_eq!(a, b, "case {case}: paths reject differently");
                continue;
            }
            (d, r) => panic!("case {case}: one path failed: {d:?} vs {r:?}"),
        };
        let table = wide_truth_table(&direct);
        for bits in 0..(1u32 << (2 * NVARS)) {
            // g(y) = f(x) with x_v = y_{perm(v)}: variable v of f reads
            // the bit the permutation moved it to.
            let mut x = 0u32;
            for v in 0..NVARS as u32 {
                if (bits >> perm.apply(v)) & 1 == 1 {
                    x |= 1 << v;
                }
            }
            assert_eq!(
                table[bits as usize],
                eval(&e, x),
                "case {case} at assignment {bits:012b}"
            );
        }
    }
}

/// Invalid permutations must surface as equal errors from both paths,
/// never as panics.
#[test]
fn replace_paths_agree_on_rejection() {
    let mgr = BddManager::new(2 * NVARS);
    let f = mgr.var(0).and(&mgr.var(1));
    // Collides with var 1, which is in the support.
    let collide = Permutation::try_from_pairs(&[(0, 1)]).expect("pairs are injective");
    assert_eq!(f.try_replace(&collide), f.try_replace_rebuild(&collide));
    assert!(f.try_replace(&collide).is_err());
}

#[test]
fn ite_matches_model() {
    let mut rng = XorShift64Star::new(0xbdd6);
    for _ in 0..CASES {
        let a = random_expr(&mut rng, 3);
        let b = random_expr(&mut rng, 3);
        let c = random_expr(&mut rng, 3);
        let mgr = BddManager::new(NVARS);
        let f = build(&mgr, &a);
        let g = build(&mgr, &b);
        let h = build(&mgr, &c);
        let r = f.ite(&g, &h);
        let table = truth_table(&r);
        for bits in 0..(1u32 << NVARS) {
            let expect = if eval(&a, bits) {
                eval(&b, bits)
            } else {
                eval(&c, bits)
            };
            assert_eq!(table[bits as usize], expect);
        }
    }
}

#[test]
fn gc_is_transparent() {
    let mut rng = XorShift64Star::new(0xbdd7);
    for _ in 0..CASES {
        let e = random_expr(&mut rng, 4);
        let mgr = BddManager::new(NVARS);
        let f = build(&mgr, &e);
        let count_before = f.satcount();
        let shape_before = f.shape();
        mgr.gc();
        assert_eq!(f.satcount(), count_before);
        assert_eq!(f.shape(), shape_before);
        // Rebuilding the same expression yields the identical node.
        let f2 = build(&mgr, &e);
        assert_eq!(f, f2);
    }
}

#[test]
fn zdd_set_algebra() {
    use std::collections::BTreeSet;
    let mut rng = XorShift64Star::new(0xbdd8);
    let random_family = |rng: &mut XorShift64Star| -> Vec<Vec<u32>> {
        (0..rng.gen_range(0..8))
            .map(|_| {
                (0..rng.gen_range(0..4))
                    .map(|_| rng.gen_range(0..8) as u32)
                    .collect()
            })
            .collect()
    };
    for _ in 0..CASES {
        let sets_a = random_family(&mut rng);
        let sets_b = random_family(&mut rng);
        let z = ZddManager::new(8);
        let norm = |sets: &Vec<Vec<u32>>| -> BTreeSet<BTreeSet<u32>> {
            sets.iter().map(|s| s.iter().copied().collect()).collect()
        };
        let (ma, mb) = (norm(&sets_a), norm(&sets_b));
        let a = z.family(&sets_a);
        let b = z.family(&sets_b);
        let check = |zid, model: BTreeSet<BTreeSet<u32>>| {
            let got: BTreeSet<BTreeSet<u32>> = z
                .sets(zid)
                .into_iter()
                .map(|s| s.into_iter().collect())
                .collect();
            got == model
        };
        assert!(check(z.union(a, b), ma.union(&mb).cloned().collect()));
        assert!(check(
            z.intersect(a, b),
            ma.intersection(&mb).cloned().collect()
        ));
        assert!(check(z.diff(a, b), ma.difference(&mb).cloned().collect()));
        assert_eq!(z.count(a), ma.len() as f64);
    }
}
