//! # jedd-core
//!
//! The relational heart of the Jedd system (Lhoták & Hendren, PLDI 2004):
//! database-style relations as an abstraction over BDDs.
//!
//! * [`Universe`] — registries of domains, attributes and physical
//!   domains, plus the shared BDD manager (paper §2.1).
//! * [`Relation`] — the relation data type with Jedd's operation set:
//!   set union/intersection/difference and equality, projection, attribute
//!   renaming and copying, join (`><`), composition (`<>`), tuple literals
//!   and extraction back to values (paper §2.2–§2.3). All the typing rules
//!   of the paper's Fig. 6 are enforced (dynamically) and the physical
//!   alignment machinery of §3.2.2 — including automatically inserted
//!   `replace` operations — is implemented underneath.
//! * [`assign`] — the physical-domain-assignment engine of §3.3: the
//!   constraint graph, the SAT encoding (clause types 1–7), decoding, and
//!   the unsat-core-driven error reporting of §3.3.3.
//! * [`fixpoint`] — the semi-naive (delta) fixpoint engine used by the
//!   relational analyses: [`DeltaRel`] current/frontier pairs, the
//!   [`Fixpoint`] round driver with per-round profiler events, and the
//!   [`Strategy`] switch between the delta engine and the naive oracle.
//!
//! # Examples
//!
//! ```
//! use jedd_core::{Relation, Universe};
//! # fn main() -> Result<(), jedd_core::JeddError> {
//! let u = Universe::new();
//! let ty = u.add_domain_with_elements("Type", &["A", "B"]);
//! let t1 = u.add_physical_domain("T1", 1);
//! let t2 = u.add_physical_domain("T2", 1);
//! let sub = u.add_attribute("subtype", ty);
//! let sup = u.add_attribute("supertype", ty);
//!
//! // extend = {(B, A)}: B extends A.
//! let extend = Relation::from_tuples(&u, &[(sub, t1), (sup, t2)], &[vec![1, 0]])?;
//! assert!(extend.contains(&[1, 0]));
//! assert_eq!(extend.size(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assign;
mod error;
pub mod fixpoint;
mod iter;
mod ops;
mod profile;
mod relation;
mod universe;

pub use error::JeddError;
pub use fixpoint::{DeltaRel, Fixpoint, Strategy};
pub use iter::{Objects, Tuples};
// Budget/error vocabulary of the kernel, re-exported so budget-aware
// callers need not depend on `jedd-bdd` directly.
pub use jedd_bdd::{BddError, Budget, CancelToken, FailPlan, KernelStats};
pub use profile::{OpEvent, ProfileSink};
pub use relation::Relation;
pub use universe::{AttrId, Backend, DomainId, PhysDomId, Universe, UniverseStats};
