//! A mini Java-like intermediate representation.
//!
//! The paper's analyses run inside Soot over real Java bytecode; this IR
//! is the fact base those analyses consume: a class hierarchy, method
//! declarations, and the pointer-relevant statements (allocations, copies,
//! field loads/stores, virtual calls). The synthetic generator
//! ([`crate::synth`]) produces instances at benchmark scales.

/// A virtual call site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Call {
    /// The calling method.
    pub caller: u32,
    /// Unique call-site id.
    pub site: u32,
    /// The receiver variable.
    pub recv: u32,
    /// The invoked signature.
    pub sig: u32,
    /// Argument variables, by parameter position.
    pub args: Vec<u32>,
    /// Variable receiving the return value, if any.
    pub ret: Option<u32>,
}

/// A whole program as relational facts.
///
/// All entity spaces are dense `0..n` index ranges: types, signatures,
/// methods, fields, variables, allocation sites, call sites. Type `0` is
/// the root of the hierarchy (`java.lang.Object`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Program {
    /// Number of class types. Type 0 is the hierarchy root.
    pub types: usize,
    /// Number of method signatures.
    pub sigs: usize,
    /// Number of concrete methods.
    pub methods: usize,
    /// Number of instance fields.
    pub fields: usize,
    /// Number of pointer variables.
    pub vars: usize,
    /// Number of allocation sites.
    pub allocs: usize,
    /// Number of call sites.
    pub call_sites: usize,

    /// Immediate-superclass pairs `(subtype, supertype)`.
    pub extend: Vec<(u32, u32)>,
    /// `(type, signature, method)` — the class *declares* (implements) the
    /// signature with the given concrete method (paper Fig. 3's
    /// `implementsMethod`).
    pub declares: Vec<(u32, u32, u32)>,
    /// `(alloc site, type allocated)`.
    pub alloc_type: Vec<(u32, u32)>,

    /// `(method, var, alloc)` — `v = new T()`.
    pub news: Vec<(u32, u32, u32)>,
    /// `(method, dst, src)` — `dst = src`.
    pub assigns: Vec<(u32, u32, u32)>,
    /// `(method, dst, base, field)` — `dst = base.field`.
    pub loads: Vec<(u32, u32, u32, u32)>,
    /// `(method, base, field, src)` — `base.field = src`.
    pub stores: Vec<(u32, u32, u32, u32)>,
    /// Virtual call sites.
    pub calls: Vec<Call>,

    /// `(method, this-variable)`.
    pub method_this: Vec<(u32, u32)>,
    /// `(method, param index, variable)`.
    pub method_params: Vec<(u32, u32, u32)>,
    /// `(method, return variable)`.
    pub method_ret: Vec<(u32, u32)>,
    /// Entry-point methods (mains, clinits).
    pub entry_points: Vec<u32>,
    /// `(variable, declared type)` — used by the type-filtered points-to
    /// variant; variables without an entry behave as if declared at the
    /// hierarchy root.
    pub var_type: Vec<(u32, u32)>,
}

impl Program {
    /// Basic well-formedness checks; used by tests and asserted by the
    /// generator.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated invariant.
    pub fn validate(&self) {
        for &(s, t) in &self.extend {
            assert!((s as usize) < self.types && (t as usize) < self.types);
            assert_ne!(s, 0, "the root type extends nothing");
            assert!(s > t, "supertypes are created before subtypes");
        }
        for &(t, s, m) in &self.declares {
            assert!((t as usize) < self.types);
            assert!((s as usize) < self.sigs);
            assert!((m as usize) < self.methods);
        }
        for &(a, t) in &self.alloc_type {
            assert!((a as usize) < self.allocs && (t as usize) < self.types);
        }
        for &(m, v, a) in &self.news {
            assert!((m as usize) < self.methods);
            assert!((v as usize) < self.vars && (a as usize) < self.allocs);
        }
        for &(m, d, s) in &self.assigns {
            assert!((m as usize) < self.methods);
            assert!((d as usize) < self.vars && (s as usize) < self.vars);
        }
        for &(m, d, b, f) in &self.loads {
            assert!((m as usize) < self.methods && (d as usize) < self.vars);
            assert!((b as usize) < self.vars && (f as usize) < self.fields);
        }
        for &(m, b, f, s) in &self.stores {
            assert!((m as usize) < self.methods && (b as usize) < self.vars);
            assert!((s as usize) < self.vars && (f as usize) < self.fields);
        }
        for c in &self.calls {
            assert!((c.caller as usize) < self.methods);
            assert!((c.site as usize) < self.call_sites);
            assert!((c.recv as usize) < self.vars);
            assert!((c.sig as usize) < self.sigs);
            for &a in &c.args {
                assert!((a as usize) < self.vars);
            }
            if let Some(r) = c.ret {
                assert!((r as usize) < self.vars);
            }
        }
        for &m in &self.entry_points {
            assert!((m as usize) < self.methods);
        }
        for &(v, t) in &self.var_type {
            assert!((v as usize) < self.vars && (t as usize) < self.types);
        }
    }

    /// The immediate supertype of `t`, if any.
    pub fn supertype(&self, t: u32) -> Option<u32> {
        self.extend
            .iter()
            .find(|&&(s, _)| s == t)
            .map(|&(_, sup)| sup)
    }

    /// All supertypes of `t` including itself, walking to the root.
    pub fn supertype_chain(&self, t: u32) -> Vec<u32> {
        let mut out = vec![t];
        let mut cur = t;
        while let Some(sup) = self.supertype(cur) {
            out.push(sup);
            cur = sup;
        }
        out
    }

    /// Resolves a virtual dispatch: the method found by searching for
    /// `sig` from `t` up the hierarchy (reference implementation of the
    /// Fig. 4 algorithm, used as ground truth in tests).
    pub fn dispatch(&self, t: u32, sig: u32) -> Option<u32> {
        for ty in self.supertype_chain(t) {
            if let Some(&(_, _, m)) = self
                .declares
                .iter()
                .find(|&&(dt, ds, _)| dt == ty && ds == sig)
            {
                return Some(m);
            }
        }
        None
    }

    /// A one-line summary of the program's size.
    pub fn summary(&self) -> String {
        format!(
            "{} types, {} sigs, {} methods, {} fields, {} vars, {} allocs, \
             {} stmts, {} calls",
            self.types,
            self.sigs,
            self.methods,
            self.fields,
            self.vars,
            self.allocs,
            self.news.len() + self.assigns.len() + self.loads.len() + self.stores.len(),
            self.calls.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Program {
        // Object(0) <- A(1) <- B(2); sig foo; A.foo = m0, B.foo = m1.
        Program {
            types: 3,
            sigs: 1,
            methods: 2,
            fields: 1,
            vars: 2,
            allocs: 1,
            call_sites: 1,
            extend: vec![(1, 0), (2, 1)],
            declares: vec![(1, 0, 0), (2, 0, 1)],
            alloc_type: vec![(0, 2)],
            news: vec![(0, 0, 0)],
            assigns: vec![(0, 1, 0)],
            loads: vec![],
            stores: vec![],
            calls: vec![Call {
                caller: 0,
                site: 0,
                recv: 1,
                sig: 0,
                args: vec![],
                ret: None,
            }],
            method_this: vec![(0, 0), (1, 1)],
            method_params: vec![],
            method_ret: vec![],
            entry_points: vec![0],
            var_type: vec![],
        }
    }

    #[test]
    fn validates() {
        tiny().validate();
    }

    #[test]
    fn supertype_chain_reaches_root() {
        let p = tiny();
        assert_eq!(p.supertype_chain(2), vec![2, 1, 0]);
        assert_eq!(p.supertype_chain(0), vec![0]);
    }

    #[test]
    fn dispatch_walks_up() {
        let p = tiny();
        assert_eq!(p.dispatch(2, 0), Some(1), "B.foo overrides");
        assert_eq!(p.dispatch(1, 0), Some(0), "A.foo");
        assert_eq!(p.dispatch(0, 0), None, "Object declares nothing");
    }

    #[test]
    fn summary_mentions_sizes() {
        let s = tiny().summary();
        assert!(s.contains("3 types"));
        assert!(s.contains("1 calls"));
    }
}
