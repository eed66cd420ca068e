//! Loading a [`crate::ir::Program`] into Jedd relations.
//!
//! Declares the domains, attributes and physical domains the five analyses
//! share (the Soot-side declarations of the paper's Fig. 2 modules), and
//! converts the IR fact lists into base relations.

use crate::ir::Program;
use jedd_core::{AttrId, JeddError, PhysDomId, Relation, Universe};

/// The shared analysis universe: every domain, attribute and physical
/// domain used by the five analyses, plus the base relations of one
/// program.
///
/// Physical domains follow the layout a Jedd programmer would specify:
/// one to three per domain, with the hot pairs (variables, heap objects,
/// types) interleaved in the BDD variable order.
pub struct Facts {
    /// The shared universe.
    pub u: Universe,

    // Attributes over the Type domain.
    /// Subclass in `extend` and the hierarchy closure.
    pub subtype: AttrId,
    /// Superclass in `extend` and the hierarchy closure.
    pub supertype: AttrId,
    /// Declaring class in `declares`; object class in `objtype`.
    pub ty: AttrId,
    /// The hierarchy-walk cursor of virtual call resolution.
    pub tgttype: AttrId,

    /// Method signature.
    pub signature: AttrId,
    /// Concrete method (declaration / resolution target).
    pub method: AttrId,
    /// Calling method.
    pub caller: AttrId,
    /// Instance field.
    pub field: AttrId,

    // Attributes over the Variable domain.
    /// Generic pointer variable (points-to tuples).
    pub var: AttrId,
    /// Assignment destination.
    pub dst: AttrId,
    /// Assignment source.
    pub src: AttrId,
    /// Field-access base variable.
    pub base: AttrId,

    // Attributes over the allocation-site (object) domain.
    /// Pointed-to object.
    pub obj: AttrId,
    /// Base object of a field points-to tuple.
    pub baseobj: AttrId,

    /// Call site.
    pub site: AttrId,
    /// Parameter position.
    pub idx: AttrId,

    // Physical domains.
    /// Type domains (interleaved).
    pub t1: PhysDomId,
    /// Second type domain.
    pub t2: PhysDomId,
    /// Third type domain.
    pub t3: PhysDomId,
    /// Signature domain.
    pub s1: PhysDomId,
    /// Method domains.
    pub m1: PhysDomId,
    /// Second method domain.
    pub m2: PhysDomId,
    /// Field domain.
    pub f1: PhysDomId,
    /// Variable domains (interleaved).
    pub v1: PhysDomId,
    /// Second variable domain.
    pub v2: PhysDomId,
    /// Object domains (interleaved).
    pub h1: PhysDomId,
    /// Second object domain.
    pub h2: PhysDomId,
    /// Third object domain.
    pub h3: PhysDomId,
    /// Call-site domain.
    pub c1: PhysDomId,
    /// Parameter-position domain.
    pub p1: PhysDomId,

    // Base relations.
    /// `(subtype, supertype)` immediate extends — paper Fig. 4(d).
    pub extend: Relation,
    /// `(ty, signature, method)` — paper Fig. 3's `implementsMethod`.
    pub declares: Relation,
    /// `(obj, ty)` — allocation-site types.
    pub objtype: Relation,
    /// `(var, obj)` — allocation statements `v = new T()`.
    pub news: Relation,
    /// `(dst, src)` — copy statements.
    pub assigns: Relation,
    /// `(dst, base, field)` — field loads.
    pub loads: Relation,
    /// `(base, field, src)` — field stores.
    pub stores: Relation,
    /// `(site, caller)` — call-site containment.
    pub site_caller: Relation,
    /// `(site, var)` — call-site receiver variables.
    pub site_recv: Relation,
    /// `(site, signature)` — invoked signatures.
    pub site_sig: Relation,
    /// `(site, idx, var)` — actual arguments.
    pub site_arg: Relation,
    /// `(site, var)` — variables receiving return values.
    pub site_ret: Relation,
    /// `(method, var)` — `this` variables.
    pub method_this: Relation,
    /// `(method, idx, var)` — formal parameters.
    pub method_param: Relation,
    /// `(method, var)` — return variables.
    pub method_ret: Relation,
    /// `(method)` — entry points.
    pub entry: Relation,
    /// `(method, dst, base, field)` is not needed relationally; loads and
    /// stores carry their method for the side-effect analysis instead.
    /// `(method, base, field)` via `stmt_*` relations below.
    pub load_in: Relation,
    /// `(method, base, field, src)` store statements with their method.
    pub store_in: Relation,
    /// `(var, ty)` — declared variable types (vars without an entry are
    /// treated as declared at the hierarchy root).
    pub var_type: Relation,
}

fn bits_for(n: usize) -> usize {
    let n = n.max(2) as u64;
    (64 - (n - 1).leading_zeros() as usize).max(1)
}

impl Facts {
    /// Builds the universe and loads all base relations of `p`.
    ///
    /// The universe comes from [`Universe::new`]: the plain kernel, paged
    /// when `JEDD_PAGE_CACHE` is set. Use [`Facts::load_configured`] for
    /// the chain-reduced kernel, an explicit page budget or a learned
    /// variable order.
    ///
    /// # Errors
    ///
    /// Propagates relational-layer errors (they indicate a bug in the
    /// declarations rather than bad input).
    ///
    /// # Panics
    ///
    /// As [`Universe::new`]: when `JEDD_PAGE_CACHE` asks for paging and
    /// the page file cannot be created.
    pub fn load(p: &Program) -> Result<Facts, JeddError> {
        Self::load_configured(p, Universe::new(), None)
    }

    /// Builds the universe on a disk-backed paged manager with a resident
    /// budget of `frames` buffer-pool frames (`0` = paged, unbounded) —
    /// the larger-than-RAM path. Results are tuple-identical to
    /// [`Facts::load`] at any budget.
    ///
    /// # Errors
    ///
    /// As [`Facts::load`], plus [`JeddError::ResourceExhausted`] with a
    /// [`jedd_core::BddError::Page`] cause when the page file cannot be
    /// created.
    pub fn load_paged(p: &Program, frames: usize) -> Result<Facts, JeddError> {
        let u = Universe::new_paged_with_backend(jedd_core::Backend::Bdd, frames)?;
        Self::load_configured(p, u, None)
    }

    /// Loads `p` into `u`, a fresh universe whose constructor picks the
    /// kernel and the storage (`Universe::new_paged_with_backend`, ...),
    /// optionally installing a learned `level -> var` order (a persisted
    /// `jedd_store::OrderRecord`) before any relation is built — the
    /// order lab's warm start, which never needs a sifting sweep.
    ///
    /// # Errors
    ///
    /// As [`Facts::load`], plus [`JeddError::InvalidRestore`] when the
    /// order table does not match this program's variable count.
    pub fn load_configured(
        p: &Program,
        u: Universe,
        order: Option<&[u32]>,
    ) -> Result<Facts, JeddError> {
        let d_type = u.add_domain("Type", p.types.max(1) as u64);
        let d_sig = u.add_domain("Signature", p.sigs.max(1) as u64);
        let d_method = u.add_domain("Method", p.methods.max(1) as u64);
        let d_field = u.add_domain("Field", p.fields.max(1) as u64);
        let d_var = u.add_domain("Var", p.vars.max(1) as u64);
        let d_obj = u.add_domain("Obj", p.allocs.max(1) as u64);
        let d_site = u.add_domain("Site", p.call_sites.max(1) as u64);
        let max_idx = p
            .method_params
            .iter()
            .map(|&(_, i, _)| i + 1)
            .max()
            .unwrap_or(1);
        let d_idx = u.add_domain("ParamIdx", max_idx.max(1) as u64);

        // Physical domains. Interleave the pairs that meet in equality
        // constraints during propagation (paper §3.2.1 / §4.3: the
        // interleaving of the bit order drives BDD size).
        let tb = bits_for(p.types);
        let ts = u.add_physical_domains_interleaved(&["T1", "T2", "T3"], tb);
        let (t1, t2, t3) = (ts[0], ts[1], ts[2]);
        let s1 = u.add_physical_domain("S1", bits_for(p.sigs));
        let mb = bits_for(p.methods);
        let ms = u.add_physical_domains_interleaved(&["M1", "M2"], mb);
        let (m1, m2) = (ms[0], ms[1]);
        let f1 = u.add_physical_domain("F1", bits_for(p.fields));
        let vb = bits_for(p.vars);
        let vs = u.add_physical_domains_interleaved(&["V1", "V2"], vb);
        let (v1, v2) = (vs[0], vs[1]);
        let hb = bits_for(p.allocs);
        let hs = u.add_physical_domains_interleaved(&["H1", "H2", "H3"], hb);
        let (h1, h2, h3) = (hs[0], hs[1], hs[2]);
        let c1 = u.add_physical_domain("C1", bits_for(p.call_sites));
        let p1 = u.add_physical_domain("P1", bits_for(max_idx as usize));

        // A learned order must go in now: every physical domain is
        // registered (so the variable count is final) and no relation is
        // built yet (so the arena holds only terminals, which `set_order`
        // requires).
        if let Some(order) = order {
            u.bdd_manager()
                .set_order(order)
                .map_err(|e| JeddError::InvalidRestore {
                    detail: format!("learned order does not fit this program: {e}"),
                })?;
        }

        let subtype = u.add_attribute("subtype", d_type);
        let supertype = u.add_attribute("supertype", d_type);
        let ty = u.add_attribute("type", d_type);
        let tgttype = u.add_attribute("tgttype", d_type);
        let signature = u.add_attribute("signature", d_sig);
        let method = u.add_attribute("method", d_method);
        let caller = u.add_attribute("caller", d_method);
        let field = u.add_attribute("field", d_field);
        let var = u.add_attribute("var", d_var);
        let dst = u.add_attribute("dst", d_var);
        let src = u.add_attribute("src", d_var);
        let base = u.add_attribute("base", d_var);
        let obj = u.add_attribute("obj", d_obj);
        let baseobj = u.add_attribute("baseobj", d_obj);
        let site = u.add_attribute("site", d_site);
        let idx = u.add_attribute("idx", d_idx);

        let t2u = |v: &[(u32, u32)]| -> Vec<Vec<u64>> {
            v.iter().map(|&(a, b)| vec![a as u64, b as u64]).collect()
        };

        let extend = Relation::from_tuples(&u, &[(subtype, t1), (supertype, t2)], &t2u(&p.extend))?;
        let declares = Relation::from_tuples(
            &u,
            &[(ty, t2), (signature, s1), (method, m1)],
            &p.declares
                .iter()
                .map(|&(t, s, m)| vec![t as u64, s as u64, m as u64])
                .collect::<Vec<_>>(),
        )?;
        let objtype =
            Relation::from_tuples(&u, &[(obj, h1), (ty, t1)], &t2u(&p.alloc_type))?;
        let news = Relation::from_tuples(
            &u,
            &[(var, v1), (obj, h1)],
            &p.news
                .iter()
                .map(|&(_, v, a)| vec![v as u64, a as u64])
                .collect::<Vec<_>>(),
        )?;
        let assigns = Relation::from_tuples(
            &u,
            &[(dst, v2), (src, v1)],
            &p.assigns
                .iter()
                .map(|&(_, d, s)| vec![d as u64, s as u64])
                .collect::<Vec<_>>(),
        )?;
        let loads = Relation::from_tuples(
            &u,
            &[(dst, v2), (base, v1), (field, f1)],
            &p.loads
                .iter()
                .map(|&(_, d, b, f)| vec![d as u64, b as u64, f as u64])
                .collect::<Vec<_>>(),
        )?;
        let stores = Relation::from_tuples(
            &u,
            &[(base, v1), (field, f1), (src, v2)],
            &p.stores
                .iter()
                .map(|&(_, b, f, s)| vec![b as u64, f as u64, s as u64])
                .collect::<Vec<_>>(),
        )?;
        let site_caller = Relation::from_tuples(
            &u,
            &[(site, c1), (caller, m2)],
            &p.calls
                .iter()
                .map(|c| vec![c.site as u64, c.caller as u64])
                .collect::<Vec<_>>(),
        )?;
        let site_recv = Relation::from_tuples(
            &u,
            &[(site, c1), (var, v1)],
            &p.calls
                .iter()
                .map(|c| vec![c.site as u64, c.recv as u64])
                .collect::<Vec<_>>(),
        )?;
        let site_sig = Relation::from_tuples(
            &u,
            &[(site, c1), (signature, s1)],
            &p.calls
                .iter()
                .map(|c| vec![c.site as u64, c.sig as u64])
                .collect::<Vec<_>>(),
        )?;
        let mut arg_tuples = Vec::new();
        for c in &p.calls {
            for (i, &a) in c.args.iter().enumerate() {
                arg_tuples.push(vec![c.site as u64, i as u64, a as u64]);
            }
        }
        let site_arg =
            Relation::from_tuples(&u, &[(site, c1), (idx, p1), (var, v1)], &arg_tuples)?;
        let site_ret = Relation::from_tuples(
            &u,
            &[(site, c1), (var, v1)],
            &p.calls
                .iter()
                .filter_map(|c| c.ret.map(|r| vec![c.site as u64, r as u64]))
                .collect::<Vec<_>>(),
        )?;
        let method_this =
            Relation::from_tuples(&u, &[(method, m1), (var, v1)], &t2u(&p.method_this))?;
        let method_param = Relation::from_tuples(
            &u,
            &[(method, m1), (idx, p1), (var, v1)],
            &p.method_params
                .iter()
                .map(|&(m, i, v)| vec![m as u64, i as u64, v as u64])
                .collect::<Vec<_>>(),
        )?;
        let method_ret =
            Relation::from_tuples(&u, &[(method, m1), (var, v1)], &t2u(&p.method_ret))?;
        let entry = Relation::from_tuples(
            &u,
            &[(method, m1)],
            &p.entry_points
                .iter()
                .map(|&m| vec![m as u64])
                .collect::<Vec<_>>(),
        )?;
        let load_in = Relation::from_tuples(
            &u,
            &[(method, m1), (base, v1), (field, f1)],
            &p.loads
                .iter()
                .map(|&(m, _, b, f)| vec![m as u64, b as u64, f as u64])
                .collect::<Vec<_>>(),
        )?;
        let store_in = Relation::from_tuples(
            &u,
            &[(method, m1), (base, v1), (field, f1)],
            &p.stores
                .iter()
                .map(|&(m, b, f, _)| vec![m as u64, b as u64, f as u64])
                .collect::<Vec<_>>(),
        )?;
        // Declared types; unlisted variables default to the root type,
        // which accepts everything.
        let mut vt: Vec<Vec<u64>> = p
            .var_type
            .iter()
            .map(|&(v, t)| vec![v as u64, t as u64])
            .collect();
        let listed: std::collections::BTreeSet<u32> =
            p.var_type.iter().map(|&(v, _)| v).collect();
        for v in 0..p.vars as u32 {
            if !listed.contains(&v) {
                vt.push(vec![v as u64, 0]);
            }
        }
        let var_type = Relation::from_tuples(&u, &[(var, v1), (ty, t2)], &vt)?;

        Ok(Facts {
            u,
            subtype,
            supertype,
            ty,
            tgttype,
            signature,
            method,
            caller,
            field,
            var,
            dst,
            src,
            base,
            obj,
            baseobj,
            site,
            idx,
            t1,
            t2,
            t3,
            s1,
            m1,
            m2,
            f1,
            v1,
            v2,
            h1,
            h2,
            h3,
            c1,
            p1,
            extend,
            declares,
            objtype,
            news,
            assigns,
            loads,
            stores,
            site_caller,
            site_recv,
            site_sig,
            site_arg,
            site_ret,
            method_this,
            method_param,
            method_ret,
            entry,
            load_in,
            store_in,
            var_type,
        })
    }

    /// Every base relation with the name it is persisted under in a
    /// checkpoint snapshot — the full fact base, so snapshots are
    /// self-contained and a resume needs no access to the original
    /// [`Program`].
    pub fn base_relations(&self) -> Vec<(&'static str, &Relation)> {
        vec![
            ("base.extend", &self.extend),
            ("base.declares", &self.declares),
            ("base.objtype", &self.objtype),
            ("base.news", &self.news),
            ("base.assigns", &self.assigns),
            ("base.loads", &self.loads),
            ("base.stores", &self.stores),
            ("base.site_caller", &self.site_caller),
            ("base.site_recv", &self.site_recv),
            ("base.site_sig", &self.site_sig),
            ("base.site_arg", &self.site_arg),
            ("base.site_ret", &self.site_ret),
            ("base.method_this", &self.method_this),
            ("base.method_param", &self.method_param),
            ("base.method_ret", &self.method_ret),
            ("base.entry", &self.entry),
            ("base.load_in", &self.load_in),
            ("base.store_in", &self.store_in),
            ("base.var_type", &self.var_type),
        ]
    }

    /// Reassembles a `Facts` from a restored universe and the named
    /// relations of a checkpoint snapshot. Attribute and physical-domain
    /// ids are resolved by name (registration replay keeps ids stable, so
    /// the names always resolve on a well-formed snapshot); base relations
    /// are looked up under their [`Facts::base_relations`] names.
    ///
    /// # Errors
    ///
    /// [`JeddError::InvalidRestore`] when a name is missing — a snapshot
    /// from a different producer or a truncated relation set.
    pub fn reattach(u: &Universe, relations: &[(String, Relation)]) -> Result<Facts, JeddError> {
        let attr = |name: &str| -> Result<jedd_core::AttrId, JeddError> {
            u.find_attribute(name).ok_or_else(|| JeddError::InvalidRestore {
                detail: format!("snapshot universe lacks attribute {name}"),
            })
        };
        let phys = |name: &str| -> Result<PhysDomId, JeddError> {
            u.find_physdom(name).ok_or_else(|| JeddError::InvalidRestore {
                detail: format!("snapshot universe lacks physical domain {name}"),
            })
        };
        let rel = |name: &str| -> Result<Relation, JeddError> {
            relations
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, r)| r.clone())
                .ok_or_else(|| JeddError::InvalidRestore {
                    detail: format!("snapshot lacks relation {name}"),
                })
        };
        Ok(Facts {
            u: u.clone(),
            subtype: attr("subtype")?,
            supertype: attr("supertype")?,
            ty: attr("type")?,
            tgttype: attr("tgttype")?,
            signature: attr("signature")?,
            method: attr("method")?,
            caller: attr("caller")?,
            field: attr("field")?,
            var: attr("var")?,
            dst: attr("dst")?,
            src: attr("src")?,
            base: attr("base")?,
            obj: attr("obj")?,
            baseobj: attr("baseobj")?,
            site: attr("site")?,
            idx: attr("idx")?,
            t1: phys("T1")?,
            t2: phys("T2")?,
            t3: phys("T3")?,
            s1: phys("S1")?,
            m1: phys("M1")?,
            m2: phys("M2")?,
            f1: phys("F1")?,
            v1: phys("V1")?,
            v2: phys("V2")?,
            h1: phys("H1")?,
            h2: phys("H2")?,
            h3: phys("H3")?,
            c1: phys("C1")?,
            p1: phys("P1")?,
            extend: rel("base.extend")?,
            declares: rel("base.declares")?,
            objtype: rel("base.objtype")?,
            news: rel("base.news")?,
            assigns: rel("base.assigns")?,
            loads: rel("base.loads")?,
            stores: rel("base.stores")?,
            site_caller: rel("base.site_caller")?,
            site_recv: rel("base.site_recv")?,
            site_sig: rel("base.site_sig")?,
            site_arg: rel("base.site_arg")?,
            site_ret: rel("base.site_ret")?,
            method_this: rel("base.method_this")?,
            method_param: rel("base.method_param")?,
            method_ret: rel("base.method_ret")?,
            entry: rel("base.entry")?,
            load_in: rel("base.load_in")?,
            store_in: rel("base.store_in")?,
            var_type: rel("base.var_type")?,
        })
    }

    /// The identity relation over types: `(subtype, supertype)` pairs with
    /// equal components, used to seed the reflexive-transitive closure.
    ///
    /// # Errors
    ///
    /// Propagates relational-layer errors.
    pub fn type_identity(&self) -> Result<Relation, JeddError> {
        let n = self.u.domain_size(self.u.attribute_domain(self.subtype));
        let tuples: Vec<Vec<u64>> = (0..n).map(|t| vec![t, t]).collect();
        Relation::from_tuples(
            &self.u,
            &[(self.subtype, self.t1), (self.supertype, self.t2)],
            &tuples,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::Benchmark;

    #[test]
    fn loads_benchmark_facts() {
        let p = Benchmark::Tiny.generate();
        let f = Facts::load(&p).unwrap();
        assert_eq!(f.extend.size() as usize, p.extend.len());
        assert_eq!(f.declares.size() as usize, p.declares.len());
        assert_eq!(f.news.size() as usize, p.news.len());
        assert_eq!(f.site_sig.size() as usize, p.calls.len());
    }

    #[test]
    fn identity_has_one_tuple_per_type() {
        let p = Benchmark::Tiny.generate();
        let f = Facts::load(&p).unwrap();
        assert_eq!(f.type_identity().unwrap().size() as usize, p.types);
    }

    #[test]
    fn assigns_deduplicate() {
        // from_tuples builds a set; duplicates in the IR collapse.
        let mut p = Benchmark::Tiny.generate();
        if let Some(&first) = p.assigns.first() {
            p.assigns.push(first);
        }
        let f = Facts::load(&p).unwrap();
        let distinct: std::collections::BTreeSet<_> =
            p.assigns.iter().map(|&(_, d, s)| (d, s)).collect();
        assert_eq!(f.assigns.size() as usize, distinct.len());
    }
}
