//! The benchmark's inputs: the paper's synthetic presets, renamed by the
//! seed, and the reference answers every result is checked against.

use jedd_analyses::baseline_sets;
use jedd_analyses::ir::{Call, Program};
use jedd_analyses::synth::Benchmark;
use jedd_bdd::rng::XorShift64Star;
use std::collections::BTreeSet;

/// Pairs of ids, as `(var, obj)` or `(site, method)`.
pub type Pairs = BTreeSet<(u64, u64)>;
/// Triples of ids, as `(method, baseobj, field)`.
pub type Triples = BTreeSet<(u64, u64, u64)>;

/// What an analysis answered, in the relations the oracles compare.
#[derive(Default)]
pub struct Answer {
    /// `(var, obj)` points-to pairs.
    pub pt: Pairs,
    /// `(site, method)` call targets, for the whole-program runs.
    pub site_target: Option<Pairs>,
    /// `(subtype, supertype)` hierarchy closure, for the whole-program runs.
    pub subtype_of: Option<Pairs>,
    /// `(method, baseobj, field)` transitive reads, for the whole-program runs.
    pub reads_star: Option<Triples>,
}

impl Answer {
    /// The first relation on which `self` differs from `reference`,
    /// ignoring relations `self` does not carry.
    pub fn mismatch(&self, reference: &Answer) -> Option<&'static str> {
        fn differs<T: PartialEq>(got: &Option<T>, want: &Option<T>) -> bool {
            got.is_some() && got != want
        }
        if self.pt != reference.pt {
            Some("pt")
        } else if differs(&self.site_target, &reference.site_target) {
            Some("siteTarget")
        } else if differs(&self.subtype_of, &reference.subtype_of) {
            Some("subtypeOf")
        } else if differs(&self.reads_star, &reference.reads_star) {
            Some("readsStar")
        } else {
            None
        }
    }
}

/// One program a workload runs, with its reference answer.
pub struct Input {
    /// The preset it was generated from.
    pub preset: Benchmark,
    /// Buffer-pool frames for the paged side (0 when not paged).
    pub frames: usize,
    /// Whether `frames` is below the program's working set, so the paged
    /// side must fault.
    pub must_fault: bool,
    /// The program the system sees.
    pub program: Program,
    /// The answer of the explicit-set implementation, computed in set-up.
    pub reference: Answer,
}

impl Input {
    /// Generates `preset` renamed by `seed`, and its reference answer
    /// (with the whole-program relations when `whole_program`).
    pub fn new(
        preset: Benchmark,
        frames: usize,
        must_fault: bool,
        seed: u64,
        whole_program: bool,
    ) -> Input {
        let program = rename(&preset.generate(), seed);
        let sets = baseline_sets::points_to(&program);
        let pairs = |s: &BTreeSet<(u32, u32)>| -> Pairs {
            s.iter().map(|&(a, b)| (a as u64, b as u64)).collect()
        };
        let mut reference = Answer {
            pt: pairs(&sets.pt),
            ..Answer::default()
        };
        if whole_program {
            let se = baseline_sets::side_effects(&program, &sets);
            reference.site_target = Some(pairs(&sets.cg));
            reference.subtype_of = Some(pairs(&baseline_sets::hierarchy(&program)));
            reference.reads_star = Some(
                se.reads_star
                    .iter()
                    .map(|&(m, o, f)| (m as u64, o as u64, f as u64))
                    .collect(),
            );
        }
        Input {
            preset,
            frames,
            must_fault,
            program,
            reference,
        }
    }

    /// The preset's name.
    pub fn name(&self) -> &'static str {
        self.preset.name()
    }
}

fn permutation(rng: &mut XorShift64Star, n: usize) -> Vec<u32> {
    let mut v: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.gen_index(0..i + 1));
    }
    v
}

/// Renames `p` by `seed`: methods are put in a random order, and each
/// method's variables, allocation sites and call sites are renumbered
/// with it, so they stay contiguous as the generator made them;
/// signatures and fields are permuted; types keep their ids (the
/// hierarchy numbers supertypes first). The result is isomorphic to `p`,
/// so every analysis does the same work up to the BDD encoding of the new
/// ids. Seed 0 returns `p` unchanged: the paper's preset.
pub fn rename(p: &Program, seed: u64) -> Program {
    if seed == 0 {
        return p.clone();
    }
    let mut rng = XorShift64Star::new(seed);
    let order = permutation(&mut rng, p.methods);
    let mut method = vec![0u32; p.methods];
    for (new, &old) in order.iter().enumerate() {
        method[old as usize] = new as u32;
    }
    let sig = permutation(&mut rng, p.sigs);
    let field = permutation(&mut rng, p.fields);

    // The generator numbers each method's `this` first, then its other
    // variables, so a variable belongs to the method whose `this` is the
    // closest at or below it.
    let mut this_vars: Vec<(u32, u32)> = p.method_this.iter().map(|&(m, v)| (v, m)).collect();
    this_vars.sort_unstable();
    let var_owner = |v: u32| -> u32 {
        match this_vars.partition_point(|&(t, _)| t <= v) {
            0 => u32::MAX,
            k => this_vars[k - 1].1,
        }
    };
    let mut alloc_owner = vec![u32::MAX; p.allocs];
    for &(m, _, a) in &p.news {
        alloc_owner[a as usize] = m;
    }
    let mut site_owner = vec![u32::MAX; p.call_sites];
    for c in &p.calls {
        site_owner[c.site as usize] = c.caller;
    }
    // New ids in (new owner position, old id) order; unowned ids go last.
    let renumber = |n: usize, owner: &dyn Fn(u32) -> u32| -> Vec<u32> {
        let mut ids: Vec<u32> = (0..n as u32).collect();
        ids.sort_by_key(|&x| {
            (
                method.get(owner(x) as usize).copied().unwrap_or(u32::MAX),
                x,
            )
        });
        let mut map = vec![0u32; n];
        for (new, &old) in ids.iter().enumerate() {
            map[old as usize] = new as u32;
        }
        map
    };
    let var = renumber(p.vars, &var_owner);
    let alloc = renumber(p.allocs, &|a| alloc_owner[a as usize]);
    let site = renumber(p.call_sites, &|s| site_owner[s as usize]);

    let m = |x: u32| method[x as usize];
    let v = |x: u32| var[x as usize];
    let a = |x: u32| alloc[x as usize];
    let s = |x: u32| sig[x as usize];
    let f = |x: u32| field[x as usize];
    let q = Program {
        types: p.types,
        sigs: p.sigs,
        methods: p.methods,
        fields: p.fields,
        vars: p.vars,
        allocs: p.allocs,
        call_sites: p.call_sites,
        extend: p.extend.clone(),
        declares: p
            .declares
            .iter()
            .map(|&(t, g, x)| (t, s(g), m(x)))
            .collect(),
        alloc_type: p.alloc_type.iter().map(|&(x, t)| (a(x), t)).collect(),
        news: p.news.iter().map(|&(x, y, z)| (m(x), v(y), a(z))).collect(),
        assigns: p
            .assigns
            .iter()
            .map(|&(x, d, y)| (m(x), v(d), v(y)))
            .collect(),
        loads: p
            .loads
            .iter()
            .map(|&(x, d, b, g)| (m(x), v(d), v(b), f(g)))
            .collect(),
        stores: p
            .stores
            .iter()
            .map(|&(x, b, g, y)| (m(x), v(b), f(g), v(y)))
            .collect(),
        calls: p
            .calls
            .iter()
            .map(|c| Call {
                caller: m(c.caller),
                site: site[c.site as usize],
                recv: v(c.recv),
                sig: s(c.sig),
                args: c.args.iter().map(|&x| v(x)).collect(),
                ret: c.ret.map(v),
            })
            .collect(),
        method_this: p.method_this.iter().map(|&(x, y)| (m(x), v(y))).collect(),
        method_params: p
            .method_params
            .iter()
            .map(|&(x, i, y)| (m(x), i, v(y)))
            .collect(),
        method_ret: p.method_ret.iter().map(|&(x, y)| (m(x), v(y))).collect(),
        entry_points: p.entry_points.iter().map(|&x| m(x)).collect(),
        var_type: p.var_type.iter().map(|&(x, t)| (v(x), t)).collect(),
    };
    q.validate();
    q
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_the_preset() {
        let p = Benchmark::Tiny.generate();
        assert_eq!(rename(&p, 0), p);
    }

    #[test]
    fn renaming_is_deterministic_and_isomorphic() {
        let p = Benchmark::Compress.generate();
        let a = rename(&p, 7);
        assert_eq!(a, rename(&p, 7));
        assert_ne!(a, p);
        assert_ne!(a, rename(&p, 8));
        // Isomorphic programs have equally many points-to pairs.
        let (pa, pp) = (baseline_sets::points_to(&a), baseline_sets::points_to(&p));
        assert_eq!(pa.pt.len(), pp.pt.len());
        assert_eq!(pa.cg.len(), pp.cg.len());
    }
}
