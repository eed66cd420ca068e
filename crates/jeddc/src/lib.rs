//! # jeddc
//!
//! The Jedd translator (Lhoták & Hendren, PLDI 2004) for *mini-Jedd*, a
//! standalone rendering of the relational language the paper embeds in
//! Java:
//!
//! * [`parse::parse`] — lexer and parser for the Fig. 5 grammar
//!   productions (relation types, `><`/`<>`, replacement casts, tuple
//!   literals, `0B`/`1B`) plus declarations and rule bodies;
//! * [`check::check`] — schema inference and the static typing rules of
//!   Fig. 6, with positioned diagnostics;
//! * [`assignc::assign`] — construction of the physical-domain-assignment
//!   problem (conflict/equality/assignment edges, §3.3.2) solved through
//!   `jedd-core`'s SAT pipeline, including the unsat-core-driven error
//!   reporting of §3.3.3 and an optional auto-pinning mode;
//! * [`lint`] — `jeddlint`: CFG-based dataflow passes (definite
//!   assignment, liveness, redundant operations) and physical-domain
//!   advisories (replace cost, projection push-down) over the typed IR,
//!   reported as structured [`Diagnostic`]s;
//! * [`Executor`] — the runtime: universe construction with physical
//!   domains sized to their widest assigned attribute, and rule
//!   interpretation that inserts exactly the replace operations the
//!   assignment dictates. Each statement keeps a memo of what it last
//!   read and wrote, and re-runs on its inputs' deltas when that is
//!   exact ([`delta`]);
//! * [`emit_java_like`] — the generated-code view (documentation-quality
//!   pseudo-Java with all low-level BDD operations spelled out).
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = "
//!     domain T { A, B };
//!     attribute sub : T;
//!     attribute sup : T;
//!     physdom P1, P2;
//!     relation <sub:P1, sup:P2> extend;
//!     relation <sub:P1> roots;
//!     rule findroots {
//!         roots = (sup=>) extend - (sub=>, sup=>sub) extend;
//!     }
//! ";
//! let compiled = jeddc::compile(src)?;
//! let mut exec = jeddc::Executor::new(&compiled)?;
//! exec.set_input("extend", &[vec![1, 0]])?; // B extends A
//! exec.run("findroots")?;
//! assert_eq!(exec.tuples("roots")?, vec![vec![1]]); // B is a leaf... of extend pairs
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assignc;
pub mod ast;
pub mod check;
pub mod delta;
pub mod diag;
mod emit;
pub mod exec;
pub mod lex;
pub mod lint;
pub mod parse;

pub use delta::{DeltaPlan, Fallback, StmtPlan};
pub use diag::{CompileError, Diagnostic, JeddcError, Pos, Severity};
pub use emit::emit_java_like;
pub use exec::{
    compile, compile_auto, compile_named, CompiledProgram, ExecError, Executor, RuleStats,
    StmtStats,
};
