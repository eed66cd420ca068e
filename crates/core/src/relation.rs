//! The `Relation` type: Jedd's database-style relation abstraction over
//! BDDs (paper §2.1–§2.2).

use crate::error::JeddError;
use crate::universe::{AttrId, PhysDomId, Universe};
use jedd_bdd::Bdd;
use std::fmt;
use std::time::Instant;

/// A relation: a set of tuples over a schema of attributes, each attribute
/// stored in a physical domain of BDD variables.
///
/// Relations are value types (cloning is cheap — it shares the underlying
/// BDD). All operations validate the typing rules of the paper's Fig. 6
/// dynamically and return [`JeddError`] on violation.
///
/// # Examples
///
/// ```
/// use jedd_core::{Relation, Universe};
/// # fn main() -> Result<(), jedd_core::JeddError> {
/// let u = Universe::new();
/// let ty = u.add_domain_with_elements("Type", &["A", "B"]);
/// let sig = u.add_domain_with_elements("Signature", &["foo()", "bar()"]);
/// let t1 = u.add_physical_domain("T1", 1);
/// let s1 = u.add_physical_domain("S1", 1);
/// let rectype = u.add_attribute("type", ty);
/// let signature = u.add_attribute("signature", sig);
///
/// let mut r = Relation::empty(&u, &[(rectype, t1), (signature, s1)])?;
/// let t = Relation::tuple(&u, &[(rectype, t1, 1), (signature, s1, 0)])?;
/// r = r.union(&t)?;
/// assert_eq!(r.size(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Relation {
    pub(crate) universe: Universe,
    /// Sorted by `AttrId`.
    pub(crate) schema: Vec<(AttrId, PhysDomId)>,
    pub(crate) bdd: Bdd,
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let attrs: Vec<String> = self
            .schema
            .iter()
            .map(|&(a, p)| {
                format!(
                    "{}:{}",
                    self.universe.attribute_name(a),
                    self.universe.physdom_name(p)
                )
            })
            .collect();
        write!(f, "Relation<{}>[{} tuples]", attrs.join(", "), self.size())
    }
}

impl Relation {
    /// Validates and normalises a schema: sorted by attribute, no
    /// duplicate attributes, no shared physical domains, every attribute
    /// fits its physical domain.
    pub(crate) fn check_schema(
        universe: &Universe,
        schema: &[(AttrId, PhysDomId)],
        op: &'static str,
    ) -> Result<Vec<(AttrId, PhysDomId)>, JeddError> {
        let mut s = schema.to_vec();
        s.sort_by_key(|&(a, _)| a);
        for w in s.windows(2) {
            if w[0].0 == w[1].0 {
                return Err(JeddError::DuplicateAttribute {
                    attribute: universe.attribute_name(w[0].0),
                    op,
                });
            }
        }
        let mut pds: Vec<PhysDomId> = s.iter().map(|&(_, p)| p).collect();
        pds.sort_unstable();
        for w in pds.windows(2) {
            if w[0] == w[1] {
                // Two attributes of one expression in the same physical
                // domain — the paper's [conflict] constraint (§3.3.2).
                let names: Vec<String> = s
                    .iter()
                    .filter(|&&(_, p)| p == w[0])
                    .map(|&(a, _)| universe.attribute_name(a))
                    .collect();
                return Err(JeddError::DuplicateAttribute {
                    attribute: format!(
                        "physical domain {} holds {}",
                        universe.physdom_name(w[0]),
                        names.join(" and ")
                    ),
                    op,
                });
            }
        }
        for &(a, p) in &s {
            universe.check_fits(a, p)?;
        }
        Ok(s)
    }

    /// The empty relation (`0B`) with the given schema.
    ///
    /// # Errors
    ///
    /// Returns an error for duplicate attributes, shared physical domains
    /// or undersized physical domains.
    pub fn empty(
        universe: &Universe,
        schema: &[(AttrId, PhysDomId)],
    ) -> Result<Relation, JeddError> {
        let schema = Self::check_schema(universe, schema, "empty")?;
        Ok(Relation {
            universe: universe.clone(),
            schema,
            bdd: universe.bdd_manager().constant_false(),
        })
    }

    /// Reassembles a relation from its parts: a schema and an
    /// already-constructed BDD over the universe's manager. This is the
    /// constructor the snapshot layer uses after importing a node table —
    /// unlike [`Relation::from_tuples`] it does not re-encode anything, so
    /// the restored relation keeps the imported BDD (and thus its node
    /// identity).
    ///
    /// # Errors
    ///
    /// Returns the usual schema-validation errors, or
    /// [`JeddError::InvalidRestore`] if `bdd` belongs to a different
    /// manager than the universe's.
    pub fn from_parts(
        universe: &Universe,
        schema: &[(AttrId, PhysDomId)],
        bdd: Bdd,
    ) -> Result<Relation, JeddError> {
        let schema = Self::check_schema(universe, schema, "from_parts")?;
        if !universe.bdd_manager().owns(&bdd) {
            return Err(JeddError::InvalidRestore {
                detail: "from_parts: BDD belongs to a different manager".to_string(),
            });
        }
        Ok(Relation {
            universe: universe.clone(),
            schema,
            bdd,
        })
    }

    /// The full relation (`1B`): all tuples of valid objects under the
    /// schema.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Relation::empty`].
    pub fn full(
        universe: &Universe,
        schema: &[(AttrId, PhysDomId)],
    ) -> Result<Relation, JeddError> {
        let schema = Self::check_schema(universe, schema, "full")?;
        let mgr = universe.bdd_manager();
        let mut bdd = mgr.constant_true();
        for &(a, p) in &schema {
            bdd = universe
                .try_valid_codes(universe.attribute_domain(a), p)
                .and_then(|valid| bdd.try_and(&valid))
                .map_err(|e| universe.resource_exhausted("full", e))?;
        }
        Ok(Relation {
            universe: universe.clone(),
            schema,
            bdd,
        })
    }

    /// A single-tuple relation — Jedd's `new { obj => attr, ... }` literal
    /// (paper §2.1).
    ///
    /// # Errors
    ///
    /// Returns an error for schema violations or object indices outside
    /// their domain.
    pub fn tuple(
        universe: &Universe,
        fields: &[(AttrId, PhysDomId, u64)],
    ) -> Result<Relation, JeddError> {
        let schema: Vec<(AttrId, PhysDomId)> = fields.iter().map(|&(a, p, _)| (a, p)).collect();
        let schema = Self::check_schema(universe, &schema, "literal")?;
        let bits: Vec<Vec<u32>> = fields
            .iter()
            .map(|&(_, p, _)| universe.physdom_bits(p))
            .collect();
        let mut encoded: Vec<(&[u32], u64)> = Vec::with_capacity(fields.len());
        for (&(a, _, value), bits) in fields.iter().zip(&bits) {
            Self::check_object(universe, a, value)?;
            encoded.push((bits, value));
        }
        let bdd = universe
            .bdd_manager()
            .try_encode_values(&encoded)
            .map_err(|e| universe.resource_exhausted("literal", e))?;
        Ok(Relation {
            universe: universe.clone(),
            schema,
            bdd,
        })
    }

    /// Checks that `value` names an object of attribute `a`'s domain.
    fn check_object(universe: &Universe, a: AttrId, value: u64) -> Result<(), JeddError> {
        let d = universe.attribute_domain(a);
        let size = universe.domain_size(d);
        if value >= size {
            return Err(JeddError::ObjectOutOfRange {
                domain: universe.domain_name(d),
                index: value,
                size,
            });
        }
        Ok(())
    }

    /// Builds a relation from explicit tuples; each tuple lists object
    /// indices in the column order of the `schema` argument *as given*
    /// (the stored schema, and the order used by [`Relation::tuples`] and
    /// [`Relation::contains`], is attribute-registration order).
    ///
    /// Each tuple goes in through one kernel op,
    /// [`jedd_bdd::BddManager::try_insert_values`], which ORs its minterm
    /// in along the minterm's own path without the operation cache. The
    /// result is the same diagram as the union of the tuples' literals.
    ///
    /// # Errors
    ///
    /// Returns an error for schema violations, wrong tuple arity or
    /// out-of-range objects.
    pub fn from_tuples(
        universe: &Universe,
        schema: &[(AttrId, PhysDomId)],
        tuples: &[Vec<u64>],
    ) -> Result<Relation, JeddError> {
        let sorted = Self::check_schema(universe, schema, "from_tuples")?;
        let mgr = universe.bdd_manager();
        let columns: Vec<Vec<u32>> = schema
            .iter()
            .map(|&(_, p)| universe.physdom_bits(p))
            .collect();
        let mut bdd = mgr.constant_false();
        let mut fields: Vec<(&[u32], u64)> = Vec::with_capacity(schema.len());
        for t in tuples {
            if t.len() != schema.len() {
                return Err(JeddError::TupleArity {
                    expected: schema.len(),
                    found: t.len(),
                });
            }
            fields.clear();
            for (bits, (&(a, _), &value)) in columns.iter().zip(schema.iter().zip(t)) {
                Self::check_object(universe, a, value)?;
                fields.push((bits, value));
            }
            bdd = mgr
                .try_insert_values(&bdd, &fields)
                .map_err(|e| universe.resource_exhausted("from_tuples", e))?;
        }
        Ok(Relation {
            universe: universe.clone(),
            schema: sorted,
            bdd,
        })
    }

    /// The universe this relation belongs to.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// The schema as `(attribute, physical domain)` pairs, sorted by
    /// attribute.
    pub fn schema(&self) -> &[(AttrId, PhysDomId)] {
        &self.schema
    }

    /// The attributes of the schema.
    pub fn attributes(&self) -> Vec<AttrId> {
        self.schema.iter().map(|&(a, _)| a).collect()
    }

    /// The physical domain currently holding `attr`, if present.
    pub fn physdom_of(&self, attr: AttrId) -> Option<PhysDomId> {
        self.schema
            .iter()
            .find(|&&(a, _)| a == attr)
            .map(|&(_, p)| p)
    }

    /// The underlying BDD (shared).
    pub fn bdd(&self) -> &Bdd {
        &self.bdd
    }

    /// Number of BDD nodes representing this relation.
    pub fn node_count(&self) -> usize {
        self.bdd.node_count()
    }

    /// Nodes per BDD level (the profiler's "shape", §4.3).
    pub fn shape(&self) -> Vec<usize> {
        self.bdd.shape()
    }

    /// The node count of this relation's tuple set as a zero-suppressed
    /// decision diagram of its kernel's flavour: a plain ZDD on a
    /// [`Backend::Bdd`](crate::Backend::Bdd) universe, a chain-reduced
    /// ZDD (CZDD) on a [`Backend::Cbdd`](crate::Backend::Cbdd) one. Each
    /// physical-domain bit is one ZDD variable.
    ///
    /// The tuples are enumerated into a fresh ZDD manager, so this is a
    /// measurement for benches and the profiler, not an operational path.
    pub fn zdd_node_count(&self) -> usize {
        let nvars = self.universe.bdd_manager().num_vars();
        let z = if self.universe.backend().is_chained() {
            jedd_bdd::ZddManager::new_chained(nvars)
        } else {
            jedd_bdd::ZddManager::new(nvars)
        };
        let fields: Vec<Vec<u32>> = self
            .schema
            .iter()
            .map(|&(_, p)| self.universe.physdom_bits(p))
            .collect();
        let mut acc = jedd_bdd::ZddId::EMPTY;
        for tuple in self.tuples() {
            let field_refs: Vec<(&[u32], u64)> = fields
                .iter()
                .zip(&tuple)
                .map(|(bits, &v)| (bits.as_slice(), v))
                .collect();
            acc = z.union(acc, z.encode_tuple(&field_refs));
        }
        z.node_count(acc)
    }

    /// All BDD levels used by the schema's physical domains, sorted.
    pub(crate) fn schema_bits(&self) -> Vec<u32> {
        let mut bits: Vec<u32> = self
            .schema
            .iter()
            .flat_map(|&(_, p)| self.universe.physdom_bits(p))
            .collect();
        bits.sort_unstable();
        bits.dedup();
        bits
    }

    /// Number of tuples in the relation (Jedd's `size()`, §2.3).
    pub fn size(&self) -> u64 {
        if self.bdd.is_false() {
            return 0;
        }
        let bits = self.schema_bits();
        self.bdd.satcount_over(&bits) as u64
    }

    /// `true` if the relation contains no tuples (`== 0B`).
    pub fn is_empty(&self) -> bool {
        self.bdd.is_false()
    }

    fn names(&self) -> Vec<String> {
        self.schema
            .iter()
            .map(|&(a, _)| self.universe.attribute_name(a))
            .collect()
    }

    /// Checks set-operation compatibility ([SetOp]/[Compare] rules) and
    /// returns `other` re-assigned to `self`'s physical domains, inserting
    /// an implicit replace when the assignments differ.
    pub(crate) fn aligned(
        &self,
        other: &Relation,
        op: &'static str,
    ) -> Result<Relation, JeddError> {
        if !self.universe.same_universe(&other.universe) {
            return Err(JeddError::UniverseMismatch);
        }
        let same_attrs = self.schema.len() == other.schema.len()
            && self
                .schema
                .iter()
                .zip(other.schema.iter())
                .all(|(&(a, _), &(b, _))| a == b);
        if !same_attrs {
            return Err(JeddError::SchemaMismatch {
                left: self.names(),
                right: other.names(),
                op,
            });
        }
        let moves: Vec<(PhysDomId, PhysDomId)> = self
            .schema
            .iter()
            .zip(other.schema.iter())
            .filter(|(&(_, p_self), &(_, p_other))| p_self != p_other)
            .map(|(&(_, p_self), &(_, p_other))| (p_other, p_self))
            .collect();
        if moves.is_empty() {
            return Ok(other.clone());
        }
        self.universe.count_auto_replace();
        let bdd = self.profiled("replace", &[&other.bdd], || {
            crate::ops::apply_moves(&self.universe, &other.bdd, &moves)
        })?;
        Ok(Relation {
            universe: self.universe.clone(),
            schema: self.schema.clone(),
            bdd,
        })
    }

    /// Runs the fallible BDD work `f` and, when a profiler is installed,
    /// records an event. A kernel budget failure is wrapped in
    /// [`JeddError::ResourceExhausted`] carrying the operation name and
    /// the kernel counters at the point of failure.
    pub(crate) fn profiled(
        &self,
        op: &'static str,
        operands: &[&Bdd],
        f: impl FnOnce() -> Result<Bdd, jedd_bdd::BddError>,
    ) -> Result<Bdd, JeddError> {
        self.universe.count_op();
        if !self.universe.profiler_enabled() {
            return f().map_err(|e| self.universe.resource_exhausted(op, e));
        }
        let operand_nodes = operands.iter().map(|b| b.node_count()).max().unwrap_or(0);
        let start = Instant::now();
        let result = f().map_err(|e| self.universe.resource_exhausted(op, e))?;
        let nanos = start.elapsed().as_nanos() as u64;
        let shape = if self.universe.profiler_wants_shapes() {
            Some(result.shape())
        } else {
            None
        };
        let event = crate::profile::OpEvent {
            op,
            site: self.universe.current_site(),
            nanos,
            operand_nodes,
            result_nodes: result.node_count(),
            shape,
        };
        self.universe.profile(event);
        Ok(result)
    }

    /// Set union (`|` in Jedd).
    ///
    /// # Errors
    ///
    /// Returns [`JeddError::SchemaMismatch`] unless both operands have the
    /// same attribute set.
    pub fn union(&self, other: &Relation) -> Result<Relation, JeddError> {
        let o = self.aligned(other, "union")?;
        let bdd = self.profiled("union", &[&self.bdd, &o.bdd], || self.bdd.try_or(&o.bdd))?;
        Ok(Relation {
            universe: self.universe.clone(),
            schema: self.schema.clone(),
            bdd,
        })
    }

    /// Set intersection (`&` in Jedd).
    ///
    /// # Errors
    ///
    /// Returns [`JeddError::SchemaMismatch`] unless both operands have the
    /// same attribute set.
    pub fn intersect(&self, other: &Relation) -> Result<Relation, JeddError> {
        let o = self.aligned(other, "intersect")?;
        let bdd = self.profiled("intersect", &[&self.bdd, &o.bdd], || {
            self.bdd.try_and(&o.bdd)
        })?;
        Ok(Relation {
            universe: self.universe.clone(),
            schema: self.schema.clone(),
            bdd,
        })
    }

    /// Set difference (`-` in Jedd).
    ///
    /// # Errors
    ///
    /// Returns [`JeddError::SchemaMismatch`] unless both operands have the
    /// same attribute set.
    pub fn minus(&self, other: &Relation) -> Result<Relation, JeddError> {
        let o = self.aligned(other, "minus")?;
        let bdd = self.profiled("minus", &[&self.bdd, &o.bdd], || self.bdd.try_diff(&o.bdd))?;
        Ok(Relation {
            universe: self.universe.clone(),
            schema: self.schema.clone(),
            bdd,
        })
    }

    /// Relation equality (`==` in Jedd) — constant time on the aligned
    /// BDDs (§2.2.1).
    ///
    /// # Errors
    ///
    /// Returns [`JeddError::SchemaMismatch`] unless both operands have the
    /// same attribute set.
    pub fn equals(&self, other: &Relation) -> Result<bool, JeddError> {
        // Fast path: identical schema *and* identical physical assignment
        // means the canonical node ids are directly comparable — no
        // alignment replace, no profiler event, O(1).
        if self.universe.same_universe(&other.universe) && self.schema == other.schema {
            return Ok(self.bdd == other.bdd);
        }
        let o = self.aligned(other, "compare")?;
        Ok(self.bdd == o.bdd)
    }

    /// Set containment `self ⊆ other`, decided by the kernel's cached
    /// subset probe without materialising the difference BDD — the
    /// frontier-emptiness primitive of the semi-naive fixpoint engine.
    ///
    /// # Errors
    ///
    /// Returns [`JeddError::SchemaMismatch`] unless both operands have the
    /// same attribute set, or [`JeddError::ResourceExhausted`] on budget
    /// exhaustion.
    pub fn is_subset(&self, other: &Relation) -> Result<bool, JeddError> {
        let o = if self.universe.same_universe(&other.universe) && self.schema == other.schema {
            other.clone() // same assignment: probe the raw BDDs directly
        } else {
            self.aligned(other, "subset")?
        };
        self.universe.count_op();
        self.bdd
            .try_is_subset(&o.bdd)
            .map_err(|e| self.universe.resource_exhausted("subset", e))
    }

    /// Re-assigns attributes to the given physical domains, inserting the
    /// replace operation Jedd generates when an expression's assignment
    /// differs from its context's (paper §3.2.2).
    ///
    /// Attributes not mentioned keep their physical domain.
    ///
    /// # Errors
    ///
    /// Returns an error if an attribute is missing, the resulting schema
    /// reuses a physical domain, or the domain does not fit.
    pub fn with_assignment(
        &self,
        assignment: &[(AttrId, PhysDomId)],
    ) -> Result<Relation, JeddError> {
        let mut new_schema = self.schema.clone();
        for &(a, p) in assignment {
            match new_schema.iter_mut().find(|(sa, _)| *sa == a) {
                Some(slot) => slot.1 = p,
                None => {
                    return Err(JeddError::NoSuchAttribute {
                        attribute: self.universe.attribute_name(a),
                        op: "replace",
                    })
                }
            }
        }
        let new_schema = Self::check_schema(&self.universe, &new_schema, "replace")?;
        let moves: Vec<(PhysDomId, PhysDomId)> = self
            .schema
            .iter()
            .zip(new_schema.iter())
            .filter(|(&(_, p_old), &(_, p_new))| p_old != p_new)
            .map(|(&(_, p_old), &(_, p_new))| (p_old, p_new))
            .collect();
        let bdd = if moves.is_empty() {
            self.bdd.clone()
        } else {
            self.profiled("replace", &[&self.bdd], || {
                crate::ops::apply_moves(&self.universe, &self.bdd, &moves)
            })?
        };
        Ok(Relation {
            universe: self.universe.clone(),
            schema: new_schema,
            bdd,
        })
    }

    /// Returns the tuples of the relation as vectors of object indices in
    /// schema order — the basis of Jedd's relation iterators (§2.3).
    pub fn tuples(&self) -> Vec<Vec<u64>> {
        let bits = self.schema_bits();
        // Positions of each attribute's bits within `bits`.
        let layouts: Vec<Vec<usize>> = self
            .schema
            .iter()
            .map(|&(_, p)| {
                self.universe
                    .physdom_bits(p)
                    .iter()
                    .map(|b| bits.binary_search(b).expect("schema bit"))
                    .collect()
            })
            .collect();
        let mut out: Vec<Vec<u64>> = Vec::new();
        self.bdd.foreach_sat(&bits, |assignment| {
            let mut tuple = Vec::with_capacity(self.schema.len());
            for layout in &layouts {
                let mut v: u64 = 0;
                for &pos in layout {
                    v = (v << 1) | u64::from(assignment[pos]);
                }
                tuple.push(v);
            }
            out.push(tuple);
            true
        });
        out.sort();
        out.dedup();
        out
    }

    /// Renders the relation as lines of `{attr=label, ...}` — Jedd's
    /// `toString()` debugging aid (§2.3).
    pub fn display_tuples(&self) -> String {
        let mut lines = Vec::new();
        for t in self.tuples() {
            let fields: Vec<String> = self
                .schema
                .iter()
                .zip(t.iter())
                .map(|(&(a, _), &v)| {
                    let d = self.universe.attribute_domain(a);
                    format!(
                        "{}={}",
                        self.universe.attribute_name(a),
                        self.universe.element_name(d, v)
                    )
                })
                .collect();
            lines.push(format!("{{{}}}", fields.join(", ")));
        }
        lines.join("\n")
    }

    /// `true` if the relation contains the given tuple (object indices in
    /// schema order).
    pub fn contains(&self, tuple: &[u64]) -> bool {
        assert_eq!(tuple.len(), self.schema.len(), "tuple arity mismatch");
        let fields: Vec<(AttrId, PhysDomId, u64)> = self
            .schema
            .iter()
            .zip(tuple.iter())
            .map(|(&(a, p), &v)| (a, p, v))
            .collect();
        match Relation::tuple(&self.universe, &fields) {
            Ok(t) => t.bdd.and(&self.bdd) == t.bdd,
            Err(_) => false,
        }
    }
}
