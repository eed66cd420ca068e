//! Facade crate re-exporting the whole Jedd-rs system.
pub use jedd_analyses as analyses;
pub use jedd_bdd as bdd;
pub use jedd_core as core;
pub use jedd_runtime as runtime;
pub use jedd_store as store;
pub use jedd_sat as sat;
pub use jeddc;
