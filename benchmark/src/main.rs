//! The Jedd-rs benchmark: one workload per process, a closed loop with
//! one client.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <u64> --seconds <s> --trace <0|1> [--json <path>]
//! ```
//!
//! A run sets up its inputs three times (`setup_s` is the median), runs
//! one warm-up pass, then passes back to back until `--seconds` have
//! elapsed and at least three passes ran. Every call's result is checked
//! against the explicit-set reference outside the timers. With
//! `--trace 1` one more pass runs with the profiler installed, and the
//! per-layer split comes from it. Every metric is printed as
//! `name value unit`; the last line is one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer ones (`--trace 1`).
//! See README.md.

mod counters;
mod inputs;
mod layers;
mod trace;
mod workloads;

use layers::{median, Metric};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Trace;
use workloads::{run_pass, Pass, Side, Workload};

/// A run sets up at least this many times, and for at least
/// [`SETUP_SECONDS`]; `setup_s` is the median. A set-up of the small
/// workloads takes tens of milliseconds, so a fixed count would leave its
/// median to a few noisy samples.
const SETUPS: usize = 5;
const SETUP_SECONDS: f64 = 1.0;
/// Fewest timed passes per run, however long they take.
const MIN_PASSES: usize = 3;
/// Where paged universes put their page files, under the working
/// directory, one subdirectory per process; removed when the run ends.
const PAGE_DIR: &str = ".bench_pages";

const USAGE: &str =
    "usage: benchmark --workload <table2|pointsto_2t|jeddc_whole_program|pointsto_paged> \
--seed <u64> --seconds <s> --trace <0|1> [--json <path>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut json = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--json" => json = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        json,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Kernel modes are selected by environment, set by this program
    // alone: nothing from the caller's environment reaches the system.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("JEDD_") {
            std::env::remove_var(key);
        }
    }
    let page_dir = match std::env::current_dir() {
        Ok(d) => d.join(PAGE_DIR).join(std::process::id().to_string()),
        Err(e) => {
            eprintln!("benchmark: no working directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    std::env::set_var("JEDD_PAGE_DIR", &page_dir);
    let result = run(&args);
    let _ = std::fs::remove_dir_all(&page_dir);
    if let Some(parent) = page_dir.parent() {
        let _ = std::fs::remove_dir(parent); // only once no other run uses it
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let mut setup_secs = Vec::new();
    let mut inputs = Vec::new();
    let setup_start = Instant::now();
    while setup_secs.len() < SETUPS || setup_start.elapsed().as_secs_f64() < SETUP_SECONDS {
        let t = Instant::now();
        inputs = w.setup(args.seed);
        setup_secs.push(t.elapsed().as_secs_f64());
    }

    let mut attempted = 0u64;
    let mut failures: Vec<String> = Vec::new();
    let mut tally = |p: &Pass| {
        attempted += p.attempted;
        failures.extend(p.failures.iter().cloned());
    };
    tally(&run_pass(w, &inputs, 0, false, &mut Trace::default()));

    let window_start = Instant::now();
    let mut window: Vec<Pass> = Vec::new();
    while window.len() < MIN_PASSES || window_start.elapsed().as_secs_f64() < args.seconds {
        let p = run_pass(w, &inputs, window.len() + 1, false, &mut Trace::default());
        tally(&p);
        window.push(p);
    }

    let mut traced_trace = Trace::default();
    let mut compile_trace = Trace::default();
    let traced = args.trace.then(|| {
        let p = run_pass(w, &inputs, window.len() + 1, true, &mut traced_trace);
        if w == Workload::JeddcWholeProgram {
            attempted += 1;
            if let Err(e) = workloads::trace_compile(&mut compile_trace) {
                failures.push(format!("jeddc compile: {e}"));
            }
        }
        p
    });
    if let Some(p) = &traced {
        attempted += p.attempted;
        failures.extend(p.failures.iter().cloned());
    }

    let totals: Vec<f64> = window.iter().map(Pass::total).collect();
    let best = workloads::best_calls(&window);
    let best_of = |side: Option<Side>| -> f64 {
        best.iter()
            .filter(|(k, _)| side.is_none_or(|s| k.1 == s))
            .map(|(_, t)| t)
            .sum()
    };
    let (num, den) = w.ratio();
    let e2e = vec![
        metric("setup_s", median(&setup_secs), "s"),
        metric("pass_s", best_of(None), "s"),
        metric("analysis_s", best_of(Some(w.subject())), "s"),
        metric(
            "overhead_ratio",
            best_of(Some(num)) / best_of(Some(den)),
            "ratio",
        ),
        metric("peak_rss_mib", peak_rss_mib()?, "MiB"),
    ];
    let per_layer = traced
        .as_ref()
        .map(|p| layers::per_layer(w, (p, &traced_trace), &compile_trace, &window))
        .unwrap_or_default();
    for m in e2e.iter().chain(&per_layer) {
        if !m.value.is_finite() {
            failures.push(format!("{} is not a number", m.name));
        }
    }

    // Human-readable report.
    let mut fingerprint = fingerprint(args, window.len());
    fingerprint.push(("setups", setup_secs.len().to_string()));
    fingerprint.push((
        "pass_total",
        format!("median {} s, {}", median(&totals), tail(&totals)),
    ));
    for (k, v) in &fingerprint {
        println!("# {k}: {v}");
    }
    for (i, p) in window.iter().enumerate() {
        let sides: Vec<String> = w
            .sides()
            .iter()
            .map(|&s| format!("{} {:.4}", s.name(), p.side(s)))
            .collect();
        println!("# pass {} {:.4} s: {}", i + 1, p.total(), sides.join(", "));
    }
    for m in e2e.iter().chain(&per_layer) {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    if traced.is_some() {
        let selfs = traced_trace.self_secs();
        for (i, s) in traced_trace.spans().iter().enumerate() {
            println!(
                "# span {} {:.6} s self {:.6} s",
                traced_trace.path(i),
                s.secs,
                selfs[i]
            );
        }
        for (i, s) in compile_trace.spans().iter().enumerate() {
            println!("# span {} {:.6} s", compile_trace.path(i), s.secs);
        }
        let pass_wall = traced_trace.spans().first().map_or(0.0, |s| s.secs);
        println!(
            "# trace: self times sum to {:.6} s of the traced pass's {:.6} s",
            selfs.iter().sum::<f64>(),
            pass_wall
        );
    }
    for f in &failures {
        println!("# failure: {f}");
    }

    let failed = failures.len() as u64;
    let reported = if args.trace { &per_layer } else { &e2e };
    if let Some(path) = &args.json {
        let record = json_record(&fingerprint, &e2e, &per_layer, &window, &failures);
        std::fs::write(path, record).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        json_metrics(reported)
    );
    Ok(())
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// The highest percentile of `v` with at least ten samples beyond it.
fn tail(v: &[f64]) -> String {
    let n = v.len();
    if n < 11 {
        return format!("no tail: {n} passes leave no percentile with ten samples beyond it");
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = n - 10;
    format!(
        "tail p{:.1} over {n} passes {} s",
        100.0 * rank as f64 / n as f64,
        s[rank - 1]
    )
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The first line `cmd` prints, or "unavailable".
fn first_line(cmd: &mut Command) -> String {
    match cmd.output() {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .to_string(),
        _ => "unavailable".to_string(),
    }
}

fn fingerprint(args: &Args, passes: usize) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Git must not look above the working directory for a repository.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_path_buf()))
        .unwrap_or_default();
    vec![
        ("workload", args.workload.name().to_string()),
        ("seed", args.seed.to_string()),
        ("window_s", args.seconds.to_string()),
        ("passes", passes.to_string()),
        ("nproc", nproc.to_string()),
        ("rustc", first_line(Command::new("rustc").arg("-V"))),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
        (
            "git",
            first_line(
                Command::new("git")
                    .args(["rev-parse", "HEAD"])
                    .env("GIT_CEILING_DIRECTORIES", ceiling),
            ),
        ),
    ]
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn json_metrics(ms: &[Metric]) -> String {
    let fields: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn json_record(
    fingerprint: &[(&str, String)],
    e2e: &[Metric],
    per_layer: &[Metric],
    window: &[Pass],
    failures: &[String],
) -> String {
    let fp: Vec<String> = fingerprint
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let passes: Vec<String> = window
        .iter()
        .map(|p| {
            let sides: Vec<String> = p
                .calls
                .iter()
                .map(|((prog, s), t)| {
                    format!(
                        "{}: {}",
                        json_str(&format!("{prog}.{}", s.name())),
                        json_num(*t)
                    )
                })
                .collect();
            format!("{{{}}}", sides.join(", "))
        })
        .collect();
    let fails: Vec<String> = failures.iter().map(|f| json_str(f)).collect();
    format!(
        "{{\"fingerprint\": {{{}}}, \"end_to_end\": {}, \"per_layer\": {}, \"passes\": [{}], \"failures\": [{}]}}\n",
        fp.join(", "),
        json_metrics(e2e),
        json_metrics(per_layer),
        passes.join(", "),
        fails.join(", ")
    )
}
