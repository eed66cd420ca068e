//! Deterministic synthetic program generation.
//!
//! The paper evaluates on real Java benchmarks (javac, compress, sablecc,
//! jedit) analysed together with the JDK inside Soot. Those fact bases are
//! not available here, so this module generates programs with comparable
//! *shape* — a deep class hierarchy with overriding, signature reuse,
//! field-heavy classes and call-dense methods — at configurable scales.
//! Generation is seeded, so every run of the benchmark harness sees the
//! same program.

use crate::ir::{Call, Program};
use jedd_bdd::rng::XorShift64Star;

/// Generation parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SynthConfig {
    /// Number of class types (including the root).
    pub types: usize,
    /// Number of distinct method signatures.
    pub sigs: usize,
    /// Signatures implemented per class (expected).
    pub methods_per_type: usize,
    /// Number of instance fields (shared pool).
    pub fields: usize,
    /// Local pointer variables per method (beyond this/params/ret).
    pub locals_per_method: usize,
    /// Allocation statements per method (expected).
    pub allocs_per_method: usize,
    /// Copy statements per method (expected).
    pub assigns_per_method: usize,
    /// Field loads/stores per method (expected, each).
    pub field_ops_per_method: usize,
    /// Virtual call sites per method (expected).
    pub calls_per_method: usize,
    /// Maximum parameters per signature.
    pub max_params: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SynthConfig {
    fn default() -> SynthConfig {
        SynthConfig {
            types: 40,
            sigs: 24,
            methods_per_type: 3,
            fields: 16,
            locals_per_method: 4,
            allocs_per_method: 1,
            assigns_per_method: 2,
            field_ops_per_method: 1,
            calls_per_method: 2,
            max_params: 2,
            seed: 0x1edd,
        }
    }
}

/// Named scales approximating the paper's Table 2 benchmarks. Absolute
/// sizes are scaled down to laptop-friendly fact bases while keeping the
/// relative ordering (compress < javac ≈ javac2 < sablecc < jedit).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// Small sanity-scale program.
    Tiny,
    /// `compress`-like: the smallest real benchmark.
    Compress,
    /// `javac`-like.
    Javac,
    /// `javac2`-like (javac at a second configuration).
    Javac2,
    /// `sablecc`-like.
    Sablecc,
    /// `jedit`-like: the largest benchmark.
    Jedit,
}

impl Benchmark {
    /// All Table 2 benchmarks, in the paper's row order.
    pub fn table2() -> [Benchmark; 5] {
        [
            Benchmark::Javac,
            Benchmark::Compress,
            Benchmark::Javac2,
            Benchmark::Sablecc,
            Benchmark::Jedit,
        ]
    }

    /// The paper's display name.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Tiny => "tiny",
            Benchmark::Compress => "compress",
            Benchmark::Javac => "javac",
            Benchmark::Javac2 => "javac2",
            Benchmark::Sablecc => "sablecc",
            Benchmark::Jedit => "jedit",
        }
    }

    /// The generation configuration for this benchmark scale.
    pub fn config(self) -> SynthConfig {
        let base = SynthConfig::default();
        match self {
            Benchmark::Tiny => SynthConfig {
                types: 10,
                sigs: 6,
                fields: 4,
                seed: 0x7171,
                ..base
            },
            Benchmark::Compress => SynthConfig {
                types: 60,
                sigs: 40,
                fields: 24,
                seed: 0xc0,
                ..base
            },
            Benchmark::Javac => SynthConfig {
                types: 160,
                sigs: 90,
                fields: 48,
                calls_per_method: 3,
                seed: 0x1a,
                ..base
            },
            Benchmark::Javac2 => SynthConfig {
                types: 160,
                sigs: 90,
                fields: 48,
                calls_per_method: 3,
                assigns_per_method: 3,
                seed: 0x1b,
                ..base
            },
            Benchmark::Sablecc => SynthConfig {
                types: 240,
                sigs: 120,
                fields: 64,
                calls_per_method: 3,
                seed: 0x5a,
                ..base
            },
            Benchmark::Jedit => SynthConfig {
                types: 360,
                sigs: 150,
                fields: 96,
                calls_per_method: 4,
                seed: 0x1e,
                ..base
            },
        }
    }

    /// Generates the program for this benchmark.
    pub fn generate(self) -> Program {
        generate(&self.config())
    }
}

/// Generates a well-formed program from the configuration.
pub fn generate(cfg: &SynthConfig) -> Program {
    let mut rng = XorShift64Star::new(cfg.seed);
    let mut p = Program {
        types: cfg.types,
        sigs: cfg.sigs,
        fields: cfg.fields,
        ..Program::default()
    };

    // Hierarchy: every non-root type extends an earlier type, biased
    // toward recent types to get chains several classes deep.
    for t in 1..cfg.types as u32 {
        let sup = if t == 1 || rng.gen_bool(0.35) {
            0
        } else {
            // Prefer a recent type for deeper chains.
            let lo = (t as i64 - 8).max(0) as u32;
            rng.gen_range(lo as u64..t as u64) as u32
        };
        p.extend.push((t, sup));
    }

    // Signatures: parameter counts fixed per signature.
    let sig_params: Vec<usize> = (0..cfg.sigs)
        .map(|_| rng.gen_index(0..cfg.max_params + 1))
        .collect();
    let sig_returns: Vec<bool> = (0..cfg.sigs).map(|_| rng.gen_bool(0.6)).collect();

    // Method declarations: each type implements a sample of signatures;
    // overriding arises because subtypes re-implement signatures their
    // supertypes also implement.
    let mut declared_sigs_per_type: Vec<Vec<u32>> = vec![Vec::new(); cfg.types];
    for t in 0..cfg.types as u32 {
        for _ in 0..cfg.methods_per_type {
            let s = rng.gen_range(0..cfg.sigs as u64) as u32;
            if declared_sigs_per_type[t as usize].contains(&s) {
                continue;
            }
            declared_sigs_per_type[t as usize].push(s);
            let m = p.methods as u32;
            p.methods += 1;
            p.declares.push((t, s, m));
        }
    }

    // Per-method variables and bodies.
    let methods: Vec<(u32, u32, u32)> = p.declares.clone();
    let mut alloc_targets: Vec<u32> = Vec::new();
    for &(t, sig, m) in &methods {
        let this_var = p.vars as u32;
        p.vars += 1;
        p.method_this.push((m, this_var));
        // `this` is declared at the defining class; other variables get a
        // shallow declared type (often the root, sometimes deeper).
        p.var_type.push((this_var, t));
        let nparams = sig_params[sig as usize];
        let mut param_vars = Vec::new();
        for i in 0..nparams {
            let v = p.vars as u32;
            p.vars += 1;
            p.method_params.push((m, i as u32, v));
            param_vars.push(v);
        }
        let ret_var = if sig_returns[sig as usize] {
            let v = p.vars as u32;
            p.vars += 1;
            p.method_ret.push((m, v));
            Some(v)
        } else {
            None
        };
        let mut locals: Vec<u32> = Vec::new();
        for _ in 0..cfg.locals_per_method {
            let v = p.vars as u32;
            p.vars += 1;
            locals.push(v);
        }
        // Declared types for params, locals and the return variable: the
        // root most of the time (no filtering), occasionally a shallow
        // class (so the filter actually removes something).
        for &v in param_vars.iter().chain(locals.iter()).chain(ret_var.iter()) {
            let t = if rng.gen_bool(0.75) {
                0
            } else {
                rng.gen_range(0..(cfg.types as u64).min(8)) as u32
            };
            p.var_type.push((v, t));
        }
        // A pool of variables usable in this method.
        let mut pool: Vec<u32> = vec![this_var];
        pool.extend(&param_vars);
        pool.extend(&locals);
        if let Some(r) = ret_var {
            pool.push(r);
        }
        let pick = |rng: &mut XorShift64Star, pool: &[u32]| pool[rng.gen_index(0..pool.len())];

        // Allocations.
        for _ in 0..cfg.allocs_per_method {
            let a = p.allocs as u32;
            p.allocs += 1;
            let ty = rng.gen_range(0..cfg.types as u64) as u32;
            p.alloc_type.push((a, ty));
            let v = pick(&mut rng, if locals.is_empty() { &pool } else { &locals });
            p.news.push((m, v, a));
            alloc_targets.push(v);
        }
        // Copies.
        for _ in 0..cfg.assigns_per_method {
            let d = pick(&mut rng, &pool);
            let s = pick(&mut rng, &pool);
            if d != s {
                p.assigns.push((m, d, s));
            }
        }
        // Field operations.
        for _ in 0..cfg.field_ops_per_method {
            let f = rng.gen_range(0..cfg.fields as u64) as u32;
            let d = pick(&mut rng, &pool);
            let b = pick(&mut rng, &pool);
            p.loads.push((m, d, b, f));
            let f2 = rng.gen_range(0..cfg.fields as u64) as u32;
            let b2 = pick(&mut rng, &pool);
            let s2 = pick(&mut rng, &pool);
            p.stores.push((m, b2, f2, s2));
        }
        // Virtual calls on a receiver from the pool, invoking a signature
        // that at least one type implements.
        for _ in 0..cfg.calls_per_method {
            let sig = declared_sigs_per_type[rng.gen_index(0..cfg.types)]
                .first()
                .copied()
                .unwrap_or(0);
            let site = p.call_sites as u32;
            p.call_sites += 1;
            let nargs = sig_params[sig as usize];
            let args: Vec<u32> = (0..nargs).map(|_| pick(&mut rng, &pool)).collect();
            let ret = if sig_returns[sig as usize] && rng.gen_bool(0.7) {
                Some(pick(&mut rng, &pool))
            } else {
                None
            };
            p.calls.push(Call {
                caller: m,
                site,
                recv: pick(&mut rng, &pool),
                sig,
                args,
                ret,
            });
        }
    }

    // Entry points: a handful of methods.
    let n_entry = (p.methods / 20).clamp(1, 8);
    for i in 0..n_entry {
        p.entry_points.push((i * (p.methods / n_entry)) as u32);
    }

    p.validate();
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&SynthConfig::default());
        let b = generate(&SynthConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&SynthConfig::default());
        let b = generate(&SynthConfig {
            seed: 99,
            ..SynthConfig::default()
        });
        assert_ne!(a, b);
    }

    #[test]
    fn benchmarks_scale_up() {
        let compress = Benchmark::Compress.generate();
        let jedit = Benchmark::Jedit.generate();
        assert!(jedit.types > compress.types);
        assert!(jedit.calls.len() > compress.calls.len());
    }

    #[test]
    fn all_benchmarks_validate() {
        for b in Benchmark::table2() {
            let p = b.generate();
            p.validate();
            assert!(p.methods > 0 && p.allocs > 0 && !p.calls.is_empty());
        }
        Benchmark::Tiny.generate().validate();
    }

    #[test]
    fn hierarchy_has_depth() {
        let p = Benchmark::Javac.generate();
        let max_depth = (0..p.types as u32)
            .map(|t| p.supertype_chain(t).len())
            .max()
            .unwrap();
        assert!(
            max_depth >= 4,
            "expected non-trivial chains, got {max_depth}"
        );
    }
}
