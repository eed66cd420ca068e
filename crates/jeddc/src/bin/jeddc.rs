//! The `jeddc` command-line compiler (the tool of the paper's Fig. 1):
//! compiles `.jedd` source files, reports type or physical-domain
//! assignment errors, and optionally prints the generated Java-like code,
//! the assignment statistics, or the `jeddlint` diagnostics.
//!
//! Usage:
//!
//! ```text
//! jeddc [--emit-java] [--stats] [--auto] [--lint] [--lint-format=json]
//!       [--deny <lint|warnings>] FILE.jedd [FILE.jedd ...]
//! ```
//!
//! * `--emit-java` — print the generated code to stdout;
//! * `--stats`     — print the Table-1 statistics of the assignment, then
//!   which statements the executor can ever re-run on their inputs'
//!   deltas, and why the others always run in full;
//! * `--auto`      — pin unspecified components to fresh physical domains
//!   instead of reporting them (the paper's manual workflow, automated);
//! * `--lint`      — run the `jeddlint` passes and print diagnostics
//!   instead of compiling; exits non-zero when any error-severity
//!   diagnostic remains;
//! * `--lint-format=json` — render lint diagnostics as JSON;
//! * `--deny NAME` — promote a lint (or `warnings`, meaning every
//!   warning) to error severity; repeatable.
//!
//! Multiple input files are concatenated in argument order before
//! compilation, which is how the embedded analyses compose their shared
//! prelude with each module.

use std::process::ExitCode;

const USAGE: &str = "usage: jeddc [--emit-java] [--stats] [--auto] [--lint] \
                     [--lint-format=json] [--deny <lint|warnings>] FILE.jedd ...";

fn main() -> ExitCode {
    let mut emit_java = false;
    let mut stats = false;
    let mut auto = false;
    let mut lint = false;
    let mut json = false;
    let mut deny: Vec<String> = Vec::new();
    let mut files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--emit-java" => emit_java = true,
            "--stats" => stats = true,
            "--auto" => auto = true,
            "--lint" => lint = true,
            "--lint-format=json" => json = true,
            "--lint-format=text" => json = false,
            "--deny" => {
                let Some(name) = args.next() else {
                    eprintln!("jeddc: --deny expects a lint name or `warnings`");
                    return ExitCode::FAILURE;
                };
                if name != "warnings" && !jeddc::lint::LINTS.contains(&name.as_str()) {
                    eprintln!("jeddc: unknown lint `{name}` in --deny");
                    return ExitCode::FAILURE;
                }
                deny.push(name);
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("jeddc: unknown option `{other}`");
                return ExitCode::FAILURE;
            }
            path => files.push(path.to_string()),
        }
    }
    if files.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    let mut pieces = Vec::new();
    for path in &files {
        match std::fs::read_to_string(path) {
            Ok(s) => pieces.push(s),
            Err(e) => {
                eprintln!("jeddc: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let src = pieces.join("\n");
    let name = files.join("+");

    if lint {
        return run_lint(&src, &name, auto, json, &deny);
    }

    let result = if auto {
        jeddc::compile_auto(&src)
    } else {
        jeddc::compile_named(&src, &name)
    };
    match result {
        Ok(compiled) => {
            let s = compiled.assignment.stats;
            eprintln!(
                "{name}: ok — {} exprs, {} attrs, {} physdoms ({} auto-pinned), \
                 SAT {} vars / {} clauses, {:.1} ms",
                s.exprs,
                s.attrs,
                s.physdoms,
                compiled.assignment.auto_pins,
                s.sat_vars,
                s.sat_clauses,
                s.solve_seconds * 1000.0
            );
            if stats {
                println!(
                    "exprs {}\nattrs {}\nphysdoms {}\nconflict {}\nequality {}\n\
                     assignment {}\nsat_vars {}\nsat_clauses {}\nsat_literals {}\n\
                     flow_paths {}\nsolve_seconds {:.6}",
                    s.exprs,
                    s.attrs,
                    s.physdoms,
                    s.conflict,
                    s.equality,
                    s.assignment,
                    s.sat_vars,
                    s.sat_clauses,
                    s.sat_literals,
                    s.flow_paths,
                    s.solve_seconds
                );
                print!("{}", compiled.plan.render(&compiled.typed));
            }
            if emit_java {
                print!("{}", jeddc::emit_java_like(&compiled));
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{name}: error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Lints the concatenated source: every independent front-end error is
/// reported (not just the first), and when the program compiles, the
/// physical-domain assignment feeds the replace-cost pass.
fn run_lint(src: &str, name: &str, auto: bool, json: bool, deny: &[String]) -> ExitCode {
    let mut diags: Vec<jeddc::Diagnostic> = Vec::new();
    match jeddc::parse::parse(src) {
        Err(e) => diags.push(jeddc::Diagnostic::from_compile_error(&e)),
        Ok(prog) => match jeddc::check::check_all(&prog) {
            Err(errs) => {
                diags.extend(errs.iter().map(jeddc::Diagnostic::from_compile_error));
            }
            Ok(typed) => {
                let assignment = match jeddc::assignc::assign_named(&typed, auto, name) {
                    Ok(a) => Some(a),
                    Err(e) => {
                        eprintln!("{name}: error: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                diags = jeddc::lint::lint_program(&typed, assignment.as_ref());
            }
        },
    }
    jeddc::lint::apply_deny(&mut diags, deny);
    if json {
        println!("{}", jeddc::diag::render_json(&diags));
    } else {
        let text = jeddc::diag::render_text(&diags);
        if !text.is_empty() {
            print!("{text}");
        }
    }
    let errors = diags
        .iter()
        .filter(|d| d.severity == jeddc::Severity::Error)
        .count();
    if errors > 0 {
        eprintln!("{name}: {errors} error(s)");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
