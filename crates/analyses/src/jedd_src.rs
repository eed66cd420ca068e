//! The five analyses as mini-Jedd source programs.
//!
//! These are the artefacts the paper's Table 1 is computed from: the
//! relational code of each Fig. 2 module, compiled by jeddc. The Rust
//! modules of this crate are the "generated code" equivalents; the sources
//! here are the high-level programs, and the tests check that executing
//! them through [`jeddc::Executor`] produces the same answers as the Rust
//! and set-based implementations.
//!
//! The sources live under `crates/analyses/jedd-src/`.

/// Shared declarations: the domains, attributes, physical domains and
/// interface relations of the Soot-side fact base.
pub const PRELUDE: &str = include_str!("../jedd-src/prelude.jedd");
/// The Hierarchy module (subtype closure).
pub const HIERARCHY: &str = include_str!("../jedd-src/hierarchy.jedd");
/// The Virtual Call Resolution module (paper Fig. 4).
pub const VCR: &str = include_str!("../jedd-src/vcr.jedd");
/// The Points-to Analysis module (Berndl et al. style propagation).
pub const POINTSTO: &str = include_str!("../jedd-src/pointsto.jedd");
/// The Call Graph module.
pub const CALLGRAPH: &str = include_str!("../jedd-src/callgraph.jedd");
/// The Side-effect Analysis module.
pub const SIDEEFFECT: &str = include_str!("../jedd-src/sideeffect.jedd");

/// The per-module sources, named and ordered as in the paper's Table 1.
pub fn modules() -> Vec<(&'static str, String)> {
    vec![
        ("Virtual Call Resolution", format!("{PRELUDE}\n{VCR}")),
        ("Hierarchy", format!("{PRELUDE}\n{HIERARCHY}")),
        ("Points-to Analysis", format!("{PRELUDE}\n{POINTSTO}")),
        (
            "Side-effect Analysis",
            format!("{PRELUDE}\n{SIDEEFFECT}\n{CALLGRAPH}"),
        ),
        ("Call Graph", format!("{PRELUDE}\n{CALLGRAPH}")),
    ]
}

/// All five modules combined into one program (the paper's "All 5
/// combined" row).
pub fn combined() -> String {
    format!("{PRELUDE}\n{HIERARCHY}\n{VCR}\n{POINTSTO}\n{CALLGRAPH}\n{SIDEEFFECT}")
}

/// Non-comment, non-blank line counts of the five module sources — the
/// paper's §5 code-size comparison data.
pub fn loc_counts() -> Vec<(&'static str, usize)> {
    let count = |src: &str| {
        src.lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with("//"))
            .count()
    };
    vec![
        ("prelude (interface declarations)", count(PRELUDE)),
        ("Hierarchy", count(HIERARCHY)),
        ("Virtual Call Resolution", count(VCR)),
        ("Points-to Analysis", count(POINTSTO)),
        ("Call Graph", count(CALLGRAPH)),
        ("Side-effect Analysis", count(SIDEEFFECT)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_module_compiles() {
        for (name, src) in modules() {
            let compiled =
                jeddc::compile(&src).unwrap_or_else(|e| panic!("{name} failed to compile: {e}"));
            let st = compiled.assignment.stats;
            assert!(st.exprs > 0, "{name} has expressions");
            assert_eq!(compiled.assignment.auto_pins, 0, "{name} fully annotated");
        }
    }

    #[test]
    fn combined_compiles() {
        let compiled = jeddc::compile(&combined()).expect("combined program");
        let st = compiled.assignment.stats;
        assert!(st.exprs > 100, "combined program is large: {}", st.exprs);
        assert!(st.attrs > st.exprs);
    }

    #[test]
    fn loc_counts_nonzero() {
        for (name, n) in loc_counts() {
            assert!(n > 0, "{name}");
        }
    }
}
