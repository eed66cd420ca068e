//! The snapshot format: a versioned, length-prefixed, CRC32-checksummed
//! binary serialization of a set of relations sharing one manager.
//!
//! A BDD snapshot is self-contained: it carries the variable order, the
//! universe's domain/attribute/physical-domain registries, a
//! topologically-ordered (children-first, dddmp-style) node table shared
//! by all relations, and each relation's name, schema and root slot.
//! Decoding replays the registrations into a fresh [`Universe`] in the
//! original order — ids are sequential registry indices, so they come out
//! identical — installs the saved variable order, and re-interns the node
//! table, which rebuilds hash-consing: round-tripped relations are
//! node-id-identical under the same order.
//!
//! File layout: `magic "JSNP" · version u32 · backend u8 · payload-length
//! u64 · payload CRC32 · payload`. All integers little-endian. The single
//! checksum covers the whole payload, so any torn or flipped byte is
//! detected before a single field is interpreted; every rejection is a
//! typed [`StoreError`], never a panic.
//!
//! The backend byte is [`BACKEND_BDD`] or [`BACKEND_CBDD`]; the frame
//! check rejects every other value as [`StoreError::BadHeader`].

use crate::crc32::crc32;
use crate::error::StoreError;
use jedd_bdd::ExportedNode;
use jedd_core::{AttrId, DomainId, PhysDomId, Relation, Universe};
use std::path::Path;

const MAGIC: &[u8; 4] = b"JSNP";
const VERSION: u32 = 1;
/// Backend tag of a BDD (relation) snapshot.
pub const BACKEND_BDD: u8 = 0;
/// Backend tag of a chain-reduced BDD (CBDD) relation snapshot. The
/// payload format is identical to [`BACKEND_BDD`] (the node table is the
/// plain spine expansion); the tag tells the decoder to rebuild into a
/// chain-reduced universe.
pub const BACKEND_CBDD: u8 = 2;
const HEADER_LEN: usize = 4 + 4 + 1 + 8 + 4;
/// Sanity cap on the variable count a snapshot may declare; real
/// universes are orders of magnitude below this.
const MAX_VARS: u32 = 1 << 24;

// ---------------------------------------------------------------- writing

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Wraps a payload in the magic/version/length/checksum frame.
fn frame(backend: u8, payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, VERSION);
    put_u8(&mut out, backend);
    put_u64(&mut out, payload.len() as u64);
    put_u32(&mut out, crc32(&payload));
    out.extend_from_slice(&payload);
    out
}

// ---------------------------------------------------------------- reading

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    path: &'a Path,
}

impl<'a> Cursor<'a> {
    fn malformed(&self, reason: impl Into<String>) -> StoreError {
        StoreError::Malformed {
            path: self.path.to_path_buf(),
            reason: reason.into(),
        }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], StoreError> {
        if self.bytes.len() - self.pos < n {
            return Err(self.malformed(format!("{what} runs past the payload end")));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, StoreError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn str(&mut self, what: &str) -> Result<String, StoreError> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| self.malformed(format!("{what} is not UTF-8")))
    }

    /// A count followed by that many fixed-size entries must fit in the
    /// remaining payload; checked before allocating.
    fn count(&mut self, entry_size: usize, what: &str) -> Result<usize, StoreError> {
        let n = self.u32(what)? as usize;
        if n.saturating_mul(entry_size) > self.bytes.len() - self.pos {
            return Err(self.malformed(format!("{what} count exceeds the payload")));
        }
        Ok(n)
    }

    fn done(&self) -> Result<(), StoreError> {
        if self.pos != self.bytes.len() {
            return Err(self.malformed("trailing bytes after the last field"));
        }
        Ok(())
    }
}

/// Validates the frame and returns `(backend, payload)`.
fn unframe<'a>(bytes: &'a [u8], path: &Path) -> Result<(u8, &'a [u8]), StoreError> {
    let header_err = |reason| StoreError::BadHeader {
        path: path.to_path_buf(),
        reason,
    };
    if bytes.len() < HEADER_LEN {
        return Err(StoreError::Truncated {
            path: path.to_path_buf(),
            expected: HEADER_LEN as u64,
            actual: bytes.len() as u64,
        });
    }
    if &bytes[0..4] != MAGIC {
        return Err(header_err("wrong magic"));
    }
    if u32::from_le_bytes(bytes[4..8].try_into().unwrap()) != VERSION {
        return Err(header_err("unsupported version"));
    }
    let backend = bytes[8];
    if backend != BACKEND_BDD && backend != BACKEND_CBDD {
        return Err(header_err("unknown backend tag"));
    }
    let payload_len = u64::from_le_bytes(bytes[9..17].try_into().unwrap());
    let actual = (bytes.len() - HEADER_LEN) as u64;
    if actual < payload_len {
        return Err(StoreError::Truncated {
            path: path.to_path_buf(),
            expected: payload_len,
            actual,
        });
    }
    if actual > payload_len {
        return Err(StoreError::Malformed {
            path: path.to_path_buf(),
            reason: "trailing bytes after the framed payload".into(),
        });
    }
    let crc = u32::from_le_bytes(bytes[17..21].try_into().unwrap());
    let payload = &bytes[HEADER_LEN..];
    if crc32(payload) != crc {
        return Err(StoreError::ChecksumMismatch {
            path: path.to_path_buf(),
        });
    }
    Ok((backend, payload))
}

/// The backend tag of an encoded snapshot, after full frame validation.
pub fn snapshot_backend(bytes: &[u8], path: &Path) -> Result<u8, StoreError> {
    unframe(bytes, path).map(|(b, _)| b)
}

// ------------------------------------------------------------ BDD encode

fn put_nodes(out: &mut Vec<u8>, nodes: &[ExportedNode]) {
    put_u32(out, nodes.len() as u32);
    for n in nodes {
        put_u32(out, n.var);
        put_u32(out, n.low);
        put_u32(out, n.high);
    }
}

fn take_nodes(c: &mut Cursor<'_>) -> Result<Vec<ExportedNode>, StoreError> {
    let n = c.count(12, "node table")?;
    let mut nodes = Vec::with_capacity(n);
    for _ in 0..n {
        nodes.push(ExportedNode {
            var: c.u32("node var")?,
            low: c.u32("node low slot")?,
            high: c.u32("node high slot")?,
        });
    }
    Ok(nodes)
}

/// Serializes a universe and a set of its relations as a framed BDD
/// snapshot.
///
/// # Panics
///
/// Panics if a relation belongs to a different universe than `universe` —
/// a caller bug, consistent with the relational layer's cross-universe
/// panics.
pub fn encode_bdd_snapshot(universe: &Universe, relations: &[(&str, &Relation)]) -> Vec<u8> {
    let mgr = universe.bdd_manager();
    for (name, r) in relations {
        assert!(
            mgr.owns(r.bdd()),
            "snapshot relation {name} belongs to a different universe"
        );
    }
    let mut p = Vec::new();
    // Variable order.
    let order = mgr.current_order();
    put_u32(&mut p, order.len() as u32);
    for v in &order {
        put_u32(&mut p, *v);
    }
    // Domains.
    put_u32(&mut p, universe.num_domains() as u32);
    for i in 0..universe.num_domains() as u32 {
        let d = DomainId::from_index(i);
        put_str(&mut p, &universe.domain_name(d));
        put_u64(&mut p, universe.domain_size(d));
        let elements = universe.domain_elements(d);
        put_u32(&mut p, elements.len() as u32);
        for e in &elements {
            put_str(&mut p, e);
        }
    }
    // Attributes.
    put_u32(&mut p, universe.num_attributes() as u32);
    for i in 0..universe.num_attributes() as u32 {
        let a = AttrId::from_index(i);
        put_str(&mut p, &universe.attribute_name(a));
        put_u32(&mut p, universe.attribute_domain(a).index());
    }
    // Physical domains.
    put_u32(&mut p, universe.num_physdoms() as u32);
    for i in 0..universe.num_physdoms() as u32 {
        let pd = PhysDomId::from_index(i);
        put_str(&mut p, &universe.physdom_name(pd));
        let bits = universe.physdom_bits(pd);
        put_u32(&mut p, bits.len() as u32);
        for b in &bits {
            put_u32(&mut p, *b);
        }
        put_u8(&mut p, universe.physdom_is_anonymous(pd) as u8);
    }
    // Shared node table and per-relation roots.
    let roots: Vec<&jedd_bdd::Bdd> = relations.iter().map(|(_, r)| r.bdd()).collect();
    let (nodes, slots) = mgr.export_nodes(&roots);
    put_nodes(&mut p, &nodes);
    put_u32(&mut p, relations.len() as u32);
    for ((name, r), slot) in relations.iter().zip(&slots) {
        put_str(&mut p, name);
        put_u32(&mut p, r.schema().len() as u32);
        for &(a, pd) in r.schema() {
            put_u32(&mut p, a.index());
            put_u32(&mut p, pd.index());
        }
        put_u32(&mut p, *slot);
    }
    // The node table is the plain spine expansion either way; the tag
    // records which kernel to rebuild into.
    let tag = if mgr.chain_mode() {
        BACKEND_CBDD
    } else {
        BACKEND_BDD
    };
    frame(tag, p)
}

// ------------------------------------------------------------ BDD decode

/// A decoded BDD snapshot: a freshly rebuilt universe and the relations it
/// carried, by name.
pub struct BddSnapshot {
    /// The rebuilt universe (fresh manager, saved order installed,
    /// registries replayed in original id order).
    pub universe: Universe,
    /// The relations, in snapshot order.
    pub relations: Vec<(String, Relation)>,
}

impl BddSnapshot {
    /// The relation with the given name, if present.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, r)| r)
    }
}

/// Decodes a framed BDD snapshot, rebuilding the universe and relations.
/// `path` labels errors only; pass the file the bytes came from.
///
/// # Errors
///
/// Any frame violation ([`StoreError::Truncated`],
/// [`StoreError::ChecksumMismatch`], [`StoreError::BadHeader`]),
/// [`StoreError::Malformed`] for structural violations, or
/// [`StoreError::Import`]/[`StoreError::Restore`] when kernel or
/// relational validation rejects the content.
pub fn decode_bdd_snapshot(bytes: &[u8], path: &Path) -> Result<BddSnapshot, StoreError> {
    let (backend, payload) = unframe(bytes, path)?;
    let mut c = Cursor {
        bytes: payload,
        pos: 0,
        path,
    };
    // Variable order (its length is the variable count).
    let num_vars = c.count(4, "variable order")? as u32;
    if num_vars > MAX_VARS {
        return Err(c.malformed("implausible variable count"));
    }
    let mut order = Vec::with_capacity(num_vars as usize);
    for _ in 0..num_vars {
        order.push(c.u32("order entry")?);
    }
    // Registries.
    struct Dom {
        name: String,
        size: u64,
        elements: Vec<String>,
    }
    let n_domains = c.count(4, "domain registry")?;
    let mut domains = Vec::with_capacity(n_domains);
    for _ in 0..n_domains {
        let name = c.str("domain name")?;
        let size = c.u64("domain size")?;
        if size == 0 {
            return Err(c.malformed(format!("domain {name} has size 0")));
        }
        let n_elems = c.count(4, "element labels")?;
        let mut elements = Vec::with_capacity(n_elems);
        for _ in 0..n_elems {
            elements.push(c.str("element label")?);
        }
        if !elements.is_empty() && elements.len() as u64 != size {
            return Err(c.malformed(format!("domain {name}: label count != size")));
        }
        domains.push(Dom {
            name,
            size,
            elements,
        });
    }
    let n_attrs = c.count(8, "attribute registry")?;
    let mut attrs = Vec::with_capacity(n_attrs);
    for _ in 0..n_attrs {
        let name = c.str("attribute name")?;
        let dom = c.u32("attribute domain")?;
        if dom as usize >= n_domains {
            return Err(c.malformed(format!("attribute {name}: domain index out of range")));
        }
        attrs.push((name, dom));
    }
    let n_phys = c.count(9, "physical-domain registry")?;
    let mut phys = Vec::with_capacity(n_phys);
    for _ in 0..n_phys {
        let name = c.str("physical-domain name")?;
        let n_bits = c.count(4, "physical-domain bits")?;
        let mut bits = Vec::with_capacity(n_bits);
        for _ in 0..n_bits {
            bits.push(c.u32("bit index")?);
        }
        let anonymous = c.u8("anonymous flag")? != 0;
        phys.push((name, bits, anonymous));
    }
    // Node table and relations.
    let nodes = take_nodes(&mut c)?;
    let n_rels = c.count(9, "relation directory")?;
    struct Rel {
        name: String,
        schema: Vec<(u32, u32)>,
        slot: u32,
    }
    let mut rels = Vec::with_capacity(n_rels);
    for _ in 0..n_rels {
        let name = c.str("relation name")?;
        let n_schema = c.count(8, "relation schema")?;
        let mut schema = Vec::with_capacity(n_schema);
        for _ in 0..n_schema {
            let a = c.u32("schema attribute")?;
            let pd = c.u32("schema physical domain")?;
            if a as usize >= n_attrs {
                return Err(c.malformed(format!("relation {name}: attribute index out of range")));
            }
            if pd as usize >= n_phys {
                return Err(c.malformed(format!(
                    "relation {name}: physical-domain index out of range"
                )));
            }
            schema.push((a, pd));
        }
        let slot = c.u32("relation root slot")?;
        rels.push(Rel { name, schema, slot });
    }
    c.done()?;

    // Rebuild: fresh manager, saved order, registries replayed in id order.
    // The tag decides the kernel, so snapshots decode identically
    // everywhere.
    let universe = Universe::new_with_backend(if backend == BACKEND_CBDD {
        jedd_core::Backend::Cbdd
    } else {
        jedd_core::Backend::Bdd
    });
    let mgr = universe.bdd_manager();
    mgr.add_vars(num_vars as usize);
    mgr.set_order(&order)?;
    for d in &domains {
        if d.elements.is_empty() {
            universe.add_domain(&d.name, d.size);
        } else {
            let refs: Vec<&str> = d.elements.iter().map(|s| s.as_str()).collect();
            universe.add_domain_with_elements(&d.name, &refs);
        }
    }
    for (name, dom) in &attrs {
        universe.add_attribute(name, DomainId::from_index(*dom));
    }
    for (name, bits, anonymous) in &phys {
        universe.restore_physical_domain(name, bits, *anonymous)?;
    }
    let slots: Vec<u32> = rels.iter().map(|r| r.slot).collect();
    let handles = mgr.import_nodes(&nodes, &slots)?;
    let mut relations = Vec::with_capacity(rels.len());
    for (r, bdd) in rels.into_iter().zip(handles) {
        let schema: Vec<(AttrId, PhysDomId)> = r
            .schema
            .iter()
            .map(|&(a, pd)| (AttrId::from_index(a), PhysDomId::from_index(pd)))
            .collect();
        let rel = Relation::from_parts(&universe, &schema, bdd)?;
        relations.push((r.name, rel));
    }
    Ok(BddSnapshot {
        universe,
        relations,
    })
}

// ------------------------------------------------------------- file I/O

/// Reads and decodes a BDD snapshot file.
///
/// # Errors
///
/// [`StoreError::Io`] if the file is unreadable, else the decode errors.
pub fn load_bdd_snapshot(path: &Path) -> Result<BddSnapshot, StoreError> {
    let bytes = std::fs::read(path).map_err(|e| StoreError::Io {
        op: "read snapshot",
        path: path.to_path_buf(),
        source: e,
    })?;
    decode_bdd_snapshot(&bytes, path)
}
