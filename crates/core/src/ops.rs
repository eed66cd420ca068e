//! Attribute operations (projection, renaming, copying) and the join and
//! composition operators (paper §2.2.2–§2.2.3, implementation §3.2.2).

use crate::error::JeddError;
use crate::relation::Relation;
use crate::universe::{AttrId, PhysDomId, Universe};
use jedd_bdd::{Bdd, BddError, Permutation};

/// Moves attribute values between physical domains in one simultaneous
/// step: quantifies surplus source high bits, permutes the common low
/// bits, and re-constrains surplus target high bits to zero. All `moves`
/// are applied together so exchanges work.
///
/// Budget-respecting: returns the kernel error when the manager's
/// resource budget is exhausted mid-move.
pub(crate) fn apply_moves(
    universe: &Universe,
    bdd: &Bdd,
    moves: &[(PhysDomId, PhysDomId)],
) -> Result<Bdd, BddError> {
    let mgr = universe.bdd_manager();
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    let mut drop_bits: Vec<u32> = Vec::new();
    let mut zero_bits: Vec<u32> = Vec::new();
    for &(from_pd, to_pd) in moves {
        if from_pd == to_pd {
            continue;
        }
        let from = universe.physdom_bits(from_pd);
        let to = universe.physdom_bits(to_pd);
        let n = from.len().min(to.len());
        for i in 0..n {
            pairs.push((from[from.len() - n + i], to[to.len() - n + i]));
        }
        // Surplus source bits hold leading zeros of the value; quantify
        // them away before the permutation.
        drop_bits.extend_from_slice(&from[..from.len() - n]);
        // Surplus target bits must become leading zeros.
        zero_bits.extend_from_slice(&to[..to.len() - n]);
    }
    if pairs.is_empty() && drop_bits.is_empty() && zero_bits.is_empty() {
        return Ok(bdd.clone());
    }
    let mut result = if drop_bits.is_empty() {
        bdd.clone()
    } else {
        bdd.try_exists(&mgr.try_cube(&drop_bits)?)?
    };
    if !pairs.is_empty() {
        // `try_from_pairs` keeps the whole move fallible: a malformed
        // bit mapping surfaces as `BddError::InvalidPermutation` instead
        // of a panic inside the kernel.
        result = result.try_replace(&Permutation::try_from_pairs(&pairs)?)?;
    }
    for b in zero_bits {
        result = result.try_and(&mgr.try_nvar(b)?)?;
    }
    Ok(result)
}

impl Relation {
    /// Projects the given attributes *away* — Jedd's `(a=>) x` (the
    /// \[Project\] rule). Implemented as existential quantification over the
    /// attributes' physical domains (§3.2.2).
    ///
    /// # Errors
    ///
    /// Returns [`JeddError::NoSuchAttribute`] if an attribute is not in
    /// the schema.
    pub fn project_away(&self, attrs: &[AttrId]) -> Result<Relation, JeddError> {
        let mut bits: Vec<u32> = Vec::new();
        let mut new_schema = self.schema.clone();
        for &a in attrs {
            match self.physdom_of(a) {
                Some(p) => {
                    bits.extend(self.universe.physdom_bits(p));
                    new_schema.retain(|&(sa, _)| sa != a);
                }
                None => {
                    return Err(JeddError::NoSuchAttribute {
                        attribute: self.universe.attribute_name(a),
                        op: "project",
                    })
                }
            }
        }
        let mgr = self.universe.bdd_manager();
        let bdd = self.profiled("project", &[&self.bdd], || {
            self.bdd.try_exists(&mgr.try_cube(&bits)?)
        })?;
        Ok(Relation {
            universe: self.universe.clone(),
            schema: new_schema,
            bdd,
        })
    }

    /// Keeps only the given attributes, projecting everything else away.
    pub fn project_onto(&self, attrs: &[AttrId]) -> Result<Relation, JeddError> {
        for &a in attrs {
            if self.physdom_of(a).is_none() {
                return Err(JeddError::NoSuchAttribute {
                    attribute: self.universe.attribute_name(a),
                    op: "project",
                });
            }
        }
        let away: Vec<AttrId> = self
            .schema
            .iter()
            .map(|&(a, _)| a)
            .filter(|a| !attrs.contains(a))
            .collect();
        self.project_away(&away)
    }

    /// Renames attribute `from` to `to` — Jedd's `(from=>to) x` (the
    /// \[Rename\] rule). No BDD work is required: only the attribute →
    /// physical-domain mapping changes (§3.2.2).
    ///
    /// # Errors
    ///
    /// Returns an error if `from` is absent, `to` already present, or the
    /// attributes draw from different domains.
    pub fn rename(&self, from: AttrId, to: AttrId) -> Result<Relation, JeddError> {
        let p = self
            .physdom_of(from)
            .ok_or_else(|| JeddError::NoSuchAttribute {
                attribute: self.universe.attribute_name(from),
                op: "rename",
            })?;
        if from != to && self.physdom_of(to).is_some() {
            return Err(JeddError::DuplicateAttribute {
                attribute: self.universe.attribute_name(to),
                op: "rename",
            });
        }
        if self.universe.attribute_domain(from) != self.universe.attribute_domain(to) {
            return Err(JeddError::DomainMismatch {
                left: self.universe.attribute_name(from),
                right: self.universe.attribute_name(to),
            });
        }
        let mut schema = self.schema.clone();
        schema.retain(|&(a, _)| a != from);
        schema.push((to, p));
        schema.sort_by_key(|&(a, _)| a);
        self.universe.count_op();
        Ok(Relation {
            universe: self.universe.clone(),
            schema,
            bdd: self.bdd.clone(),
        })
    }

    /// Renames several attributes simultaneously (so exchanges like
    /// `a=>b, b=>a` work). Like [`Relation::rename`], no BDD work is
    /// required.
    ///
    /// # Errors
    ///
    /// Returns an error if a source attribute is absent or renamed twice,
    /// a target collides with the resulting schema, or domains mismatch.
    pub fn rename_many(&self, pairs: &[(AttrId, AttrId)]) -> Result<Relation, JeddError> {
        let mut schema = self.schema.clone();
        let mut sources: Vec<AttrId> = Vec::new();
        for &(from, to) in pairs {
            if self.physdom_of(from).is_none() {
                return Err(JeddError::NoSuchAttribute {
                    attribute: self.universe.attribute_name(from),
                    op: "rename",
                });
            }
            if sources.contains(&from) {
                return Err(JeddError::DuplicateAttribute {
                    attribute: self.universe.attribute_name(from),
                    op: "rename",
                });
            }
            sources.push(from);
            if self.universe.attribute_domain(from) != self.universe.attribute_domain(to) {
                return Err(JeddError::DomainMismatch {
                    left: self.universe.attribute_name(from),
                    right: self.universe.attribute_name(to),
                });
            }
        }
        // Map each original slot through the pairs exactly once, so
        // exchanges do not chain.
        for (i, &(orig, _)) in self.schema.iter().enumerate() {
            if let Some(&(_, to)) = pairs.iter().find(|&&(from, _)| from == orig) {
                schema[i].0 = to;
            }
        }
        let schema = Self::check_schema(&self.universe, &schema, "rename")?;
        self.universe.count_op();
        Ok(Relation {
            universe: self.universe.clone(),
            schema,
            bdd: self.bdd.clone(),
        })
    }

    /// Copies attribute `from` into two attributes `to1` and `to2`, both
    /// holding `from`'s value in every tuple — Jedd's `(from=>to1 to2) x`
    /// (the \[Copy\] rule). `to1` keeps `from`'s physical domain; `to2` goes
    /// to `to2_physdom`, or when `None` to a free domain whose bits sit in
    /// the same level gaps as `from`'s (a scratch domain if there is none).
    ///
    /// # Errors
    ///
    /// Returns an error if `from` is absent, `to1`/`to2` collide with the
    /// remaining schema or each other, or domains mismatch.
    pub fn copy(
        &self,
        from: AttrId,
        to1: AttrId,
        to2: AttrId,
        to2_physdom: Option<PhysDomId>,
    ) -> Result<Relation, JeddError> {
        let p_from = self
            .physdom_of(from)
            .ok_or_else(|| JeddError::NoSuchAttribute {
                attribute: self.universe.attribute_name(from),
                op: "copy",
            })?;
        if to1 == to2 {
            return Err(JeddError::DuplicateAttribute {
                attribute: self.universe.attribute_name(to1),
                op: "copy",
            });
        }
        for t in [to1, to2] {
            if t != from && self.physdom_of(t).is_some() {
                return Err(JeddError::DuplicateAttribute {
                    attribute: self.universe.attribute_name(t),
                    op: "copy",
                });
            }
            if self.universe.attribute_domain(t) != self.universe.attribute_domain(from) {
                return Err(JeddError::DomainMismatch {
                    left: self.universe.attribute_name(from),
                    right: self.universe.attribute_name(t),
                });
            }
        }
        let in_use: Vec<PhysDomId> = self.schema.iter().map(|&(_, p)| p).collect();
        let p_to2 = match to2_physdom {
            Some(p) => p,
            None => {
                // `to2` lands next to `from`, as if `from` moved there.
                let others: Vec<(PhysDomId, PhysDomId)> = in_use
                    .iter()
                    .filter(|&&p| p != p_from)
                    .map(|&p| (p, p))
                    .collect();
                self.universe.relocation_physdom(p_from, &others, &in_use)
            }
        };
        if in_use.contains(&p_to2) {
            return Err(JeddError::DuplicateAttribute {
                attribute: format!(
                    "physical domain {} already in use",
                    self.universe.physdom_name(p_to2)
                ),
                op: "copy",
            });
        }
        self.universe.check_fits(to2, p_to2)?;
        let from_bits = self.universe.physdom_bits(p_from);
        let to2_bits = self.universe.physdom_bits(p_to2);
        let mgr = self.universe.bdd_manager();
        // Equality constraint over the common width; surplus bits of the
        // wider vector are constrained to zero.
        let n = from_bits.len().min(to2_bits.len());
        let bdd = self.profiled("copy", &[&self.bdd], || {
            let eq = mgr.try_equal_vectors(
                &from_bits[from_bits.len() - n..],
                &to2_bits[to2_bits.len() - n..],
            )?;
            let mut acc = self.bdd.try_and(&eq)?;
            for &b in &to2_bits[..to2_bits.len() - n] {
                acc = acc.try_and(&mgr.try_nvar(b)?)?;
            }
            Ok(acc)
        })?;
        let mut schema = self.schema.clone();
        schema.retain(|&(a, _)| a != from);
        schema.push((to1, p_from));
        schema.push((to2, p_to2));
        schema.sort_by_key(|&(a, _)| a);
        Ok(Relation {
            universe: self.universe.clone(),
            schema,
            bdd,
        })
    }

    /// Validates the shared preconditions of join and compose and returns
    /// `other` with its physical domains aligned: compared attributes on
    /// the matching physical domain of `self`, kept attributes moved off
    /// any physical domain `self` uses.
    fn align_for_combine(
        &self,
        self_attrs: &[AttrId],
        other: &Relation,
        other_attrs: &[AttrId],
        op: &'static str,
        // For compose, self's kept attributes exclude the compared ones.
        self_keeps_compared: bool,
    ) -> Result<Relation, JeddError> {
        if !self.universe.same_universe(&other.universe) {
            return Err(JeddError::UniverseMismatch);
        }
        if self_attrs.len() != other_attrs.len() {
            return Err(JeddError::ComparedListLength {
                left: self_attrs.len(),
                right: other_attrs.len(),
            });
        }
        // Compared attribute lists must be duplicate-free and present.
        for (list, rel) in [(self_attrs, self), (other_attrs, other)] {
            for (i, &a) in list.iter().enumerate() {
                if rel.physdom_of(a).is_none() {
                    return Err(JeddError::NoSuchAttribute {
                        attribute: self.universe.attribute_name(a),
                        op,
                    });
                }
                if list[..i].contains(&a) {
                    return Err(JeddError::DuplicateAttribute {
                        attribute: self.universe.attribute_name(a),
                        op,
                    });
                }
            }
        }
        // Domains of compared pairs must agree.
        for (&a, &b) in self_attrs.iter().zip(other_attrs.iter()) {
            if self.universe.attribute_domain(a) != self.universe.attribute_domain(b) {
                return Err(JeddError::DomainMismatch {
                    left: self.universe.attribute_name(a),
                    right: self.universe.attribute_name(b),
                });
            }
        }
        // Result schema disjointness: T (or T') and U' must not overlap.
        let self_result: Vec<AttrId> = self
            .schema
            .iter()
            .map(|&(a, _)| a)
            .filter(|a| self_keeps_compared || !self_attrs.contains(a))
            .collect();
        let other_kept: Vec<AttrId> = other
            .schema
            .iter()
            .map(|&(a, _)| a)
            .filter(|a| !other_attrs.contains(a))
            .collect();
        let shared: Vec<String> = self_result
            .iter()
            .filter(|a| other_kept.contains(a))
            .map(|&a| self.universe.attribute_name(a))
            .collect();
        if !shared.is_empty() {
            return Err(JeddError::OverlappingSchemas { shared });
        }
        // Physical alignment of `other`:
        //  * each compared attribute must sit in the physical domain of its
        //    partner in `self`;
        //  * each kept attribute must sit in a physical domain unused by
        //    `self` and by the other targets. Kept attributes whose domain
        //    is free stay first, so a mover never displaces one of them.
        let mut target: Vec<(AttrId, PhysDomId)> = self_attrs
            .iter()
            .zip(other_attrs.iter())
            .map(|(&a, &b)| (b, self.physdom_of(a).expect("validated")))
            .collect();
        let taken: Vec<PhysDomId> = self
            .schema
            .iter()
            .map(|&(_, p)| p)
            .chain(target.iter().map(|&(_, p)| p))
            .collect();
        let (stay, movers): (Vec<AttrId>, Vec<AttrId>) = other_kept
            .iter()
            .partition(|&&k| !taken.contains(&other.physdom_of(k).expect("validated")));
        target.extend(
            stay.iter()
                .map(|&k| (k, other.physdom_of(k).expect("validated"))),
        );
        for &k in &movers {
            let placed: Vec<(PhysDomId, PhysDomId)> = target
                .iter()
                .map(|&(a, p)| (other.physdom_of(a).expect("validated"), p))
                .collect();
            let cur = other.physdom_of(k).expect("validated");
            let p = self.universe.relocation_physdom(cur, &placed, &taken);
            self.universe.count_auto_replace();
            self.universe.check_fits(k, p)?;
            target.push((k, p));
        }
        let moves: Vec<(PhysDomId, PhysDomId)> = target
            .iter()
            .map(|&(b, p)| (other.physdom_of(b).expect("validated"), p))
            .filter(|&(f, t)| f != t)
            .collect();
        let new_schema = {
            let mut s: Vec<(AttrId, PhysDomId)> = target;
            s.sort_by_key(|&(a, _)| a);
            s
        };
        let bdd = if moves.is_empty() {
            other.bdd.clone()
        } else {
            self.universe.count_auto_replace();
            self.profiled("replace", &[&other.bdd], || {
                apply_moves(&self.universe, &other.bdd, &moves)
            })?
        };
        Ok(Relation {
            universe: self.universe.clone(),
            schema: new_schema,
            bdd,
        })
    }

    /// Decides the key restriction of join and compose for `self` and the
    /// aligned right operand `o` (DESIGN.md "Alignment discipline").
    ///
    /// When every bit of the compared physical domains lies below every
    /// bit of `o`'s kept attributes at the manager's current levels, the
    /// combine would pair every path of `self` above the keys with every
    /// path of `o` above them before comparing a single key. Cutting `o`
    /// to the keys `self` holds first walks `o` once and leaves the
    /// combine only the part that can match. Returns the bits of `self`'s
    /// kept attributes, which project `self` onto its keys, or `None` when
    /// the rule does not apply. Either operand keeping nothing but the
    /// keys also gives `None`: the combine is then that walk already.
    fn key_restriction(&self, self_attrs: &[AttrId], o: &Relation) -> Option<Vec<u32>> {
        let keys: Vec<PhysDomId> = self_attrs
            .iter()
            .map(|&a| self.physdom_of(a).expect("validated"))
            .collect();
        let kept_bits = |r: &Relation| -> Vec<u32> {
            r.schema
                .iter()
                .filter(|(_, p)| !keys.contains(p))
                .flat_map(|&(_, p)| self.universe.physdom_bits(p))
                .collect()
        };
        let (self_kept, other_kept) = (kept_bits(self), kept_bits(o));
        if self_kept.is_empty() || other_kept.is_empty() {
            return None;
        }
        let mgr = self.universe.bdd_manager();
        let top_key = keys
            .iter()
            .flat_map(|&p| self.universe.physdom_bits(p))
            .map(|v| mgr.level_of_var(v))
            .min()?;
        if !other_kept.iter().all(|&v| mgr.level_of_var(v) < top_key) {
            return None;
        }
        self.universe.count_key_restriction();
        Some(self_kept)
    }

    /// The right operand `o` of a join or compose, cut to `self`'s keys
    /// when [`Relation::key_restriction`] returned `self`'s kept bits:
    /// `o ∧ ∃kept(self). self`. `self` implies its own projection, so the
    /// combine's result is the same diagram either way.
    fn cut_to_keys(&self, o: &Bdd, self_kept: Option<&[u32]>) -> Result<Bdd, BddError> {
        match self_kept {
            Some(bits) => {
                let keys = self
                    .bdd
                    .try_exists(&self.universe.bdd_manager().try_cube(bits)?)?;
                o.try_and(&keys)
            }
            None => Ok(o.clone()),
        }
    }

    /// Join (`x{a...} >< y{b...}`): pairs of tuples matching on the
    /// compared attributes, keeping the compared attributes (from the left
    /// operand) in the result — the \[Join\] rule. Implemented as a BDD
    /// intersection once the physical domains are aligned (§3.2.2).
    ///
    /// # Errors
    ///
    /// Returns an error for missing/duplicate attributes, mismatched
    /// domains or overlapping result schemas.
    pub fn join(
        &self,
        self_attrs: &[AttrId],
        other: &Relation,
        other_attrs: &[AttrId],
    ) -> Result<Relation, JeddError> {
        let o = self.align_for_combine(self_attrs, other, other_attrs, "join", true)?;
        let cut = self.key_restriction(self_attrs, &o);
        let bdd = self.profiled("join", &[&self.bdd, &o.bdd], || {
            self.bdd.try_and(&self.cut_to_keys(&o.bdd, cut.as_deref())?)
        })?;
        let mut schema = self.schema.clone();
        for &(a, p) in o.schema.iter() {
            if !other_attrs.contains(&a) {
                schema.push((a, p));
            }
        }
        schema.sort_by_key(|&(a, _)| a);
        Ok(Relation {
            universe: self.universe.clone(),
            schema,
            bdd,
        })
    }

    /// Composition (`x{a...} <> y{b...}`): like a join followed by
    /// projecting the compared attributes away, but implemented with the
    /// fused `and_exists` BDD operation — the \[Compose\] rule; the paper
    /// notes the fused form "is implemented more efficiently" (§2.2.3).
    ///
    /// # Errors
    ///
    /// Returns an error for missing/duplicate attributes, mismatched
    /// domains or overlapping result schemas.
    pub fn compose(
        &self,
        self_attrs: &[AttrId],
        other: &Relation,
        other_attrs: &[AttrId],
    ) -> Result<Relation, JeddError> {
        let o = self.align_for_combine(self_attrs, other, other_attrs, "compose", false)?;
        let mut cube_bits: Vec<u32> = Vec::new();
        for &a in self_attrs {
            cube_bits.extend(
                self.universe
                    .physdom_bits(self.physdom_of(a).expect("validated")),
            );
        }
        let mgr = self.universe.bdd_manager();
        let cut = self.key_restriction(self_attrs, &o);
        let bdd = self.profiled("compose", &[&self.bdd, &o.bdd], || {
            let right = self.cut_to_keys(&o.bdd, cut.as_deref())?;
            self.bdd.try_and_exists(&right, &mgr.try_cube(&cube_bits)?)
        })?;
        let mut schema: Vec<(AttrId, PhysDomId)> = self
            .schema
            .iter()
            .copied()
            .filter(|&(a, _)| !self_attrs.contains(&a))
            .collect();
        for &(a, p) in o.schema.iter() {
            if !other_attrs.contains(&a) {
                schema.push((a, p));
            }
        }
        schema.sort_by_key(|&(a, _)| a);
        Ok(Relation {
            universe: self.universe.clone(),
            schema,
            bdd,
        })
    }

    /// Selection: the subset of tuples whose attribute `attr` holds the
    /// object `value`. The paper (§2.2.4) notes selection is expressed as
    /// a join with a single-attribute relation; this convenience method
    /// does exactly that.
    ///
    /// # Errors
    ///
    /// Returns an error if `attr` is absent or `value` out of range.
    pub fn select(&self, attr: AttrId, value: u64) -> Result<Relation, JeddError> {
        let p = self
            .physdom_of(attr)
            .ok_or_else(|| JeddError::NoSuchAttribute {
                attribute: self.universe.attribute_name(attr),
                op: "select",
            })?;
        let single = Relation::tuple(&self.universe, &[(attr, p, value)])?;
        self.join(&[attr], &single, &[attr])
    }
}
