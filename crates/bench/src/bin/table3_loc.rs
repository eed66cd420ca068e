//! Regenerates the paper's §5 code-size comparison: the side-effect
//! analysis took 803 non-comment lines of Java (mostly data-structure
//! code) against 124 lines of Jedd. Here we compare the mini-Jedd sources
//! of each analysis against the explicit-set Rust implementations
//! (`baseline_sets`), the analogue of the hand-written Java.
//!
//! Run with `cargo run --release -p jedd-bench --bin table3_loc`.

fn count_rust_loc(src: &str) -> usize {
    // Non-comment, non-blank, non-test lines of the baseline module.
    let mut in_tests = false;
    src.lines()
        .map(str::trim)
        .filter(|l| {
            if l.starts_with("#[cfg(test)]") {
                in_tests = true;
            }
            !in_tests && !l.is_empty() && !l.starts_with("//") && !l.starts_with("//!")
        })
        .count()
}

fn main() {
    let baseline_src = include_str!("../../../analyses/src/baseline_sets.rs");
    let baseline_loc = count_rust_loc(baseline_src);
    println!("Code-size comparison (paper §5)");
    println!();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut jedd_total = 0usize;
    for (name, loc) in jedd_analyses::jedd_src::loc_counts() {
        jedd_total += loc;
        rows.push(vec![name.to_string(), loc.to_string()]);
    }
    rows.push(vec![
        "all five (mini-Jedd total)".into(),
        jedd_total.to_string(),
    ]);
    rows.push(vec![
        "all five (explicit-set Rust, baseline_sets.rs)".into(),
        baseline_loc.to_string(),
    ]);
    print!(
        "{}",
        jedd_bench::render_table(&["Implementation", "non-comment LoC"], &rows)
    );
    println!();
    println!(
        "Paper reference: the Java side-effect analysis was 803 lines, the\n\
         Jedd version 124. The shape to check: the relational sources are a\n\
         small fraction of the explicit-set implementation, because the BDD\n\
         relations replace hand-built set data structures."
    );
}
