//! Static-HTML rendering of a profile — the browsable views of the
//! paper's §4.3, without the SQL database and CGI scripts: a single
//! self-contained page with the overview table, per-operation execution
//! lists, and inline-SVG shape charts.

use crate::profile::Profiler;
use jedd_bdd::KernelStats;
use jedd_core::OpEvent;
use std::fmt::Write as _;

fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Renders a self-contained HTML document for the given profiler's data.
///
/// The overview table links to per-op sections; executions with recorded
/// shapes get an inline SVG bar chart of nodes-per-level (the "size and
/// shape of the underlying BDD data structures", §4.3). Use
/// [`render_html_with_kernel`] to additionally include the kernel's cache
/// and GC counters.
pub fn render_html(profiler: &Profiler) -> String {
    render_html_with_kernel(profiler, None)
}

/// Like [`render_html`], with an optional kernel-statistics section: the
/// per-operation cache hit rates and the GC/cache-sweep counters from
/// [`jedd_bdd::BddManager::kernel_stats`], so cache behaviour can be read
/// next to the relational profile it explains.
pub fn render_html_with_kernel(profiler: &Profiler, kernel: Option<&KernelStats>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\">\
         <title>Jedd profile</title><style>\
         body{{font-family:sans-serif;margin:2em}}\
         table{{border-collapse:collapse}}\
         td,th{{border:1px solid #999;padding:4px 8px;text-align:right}}\
         th{{background:#eee}}td.l,th.l{{text-align:left}}\
         </style></head><body>"
    );
    let _ = writeln!(out, "<h1>Jedd profile</h1>");
    let summary = profiler.summary();
    let _ = writeln!(
        out,
        "<h2>Overview</h2><table><tr><th class=l>operation</th>\
         <th class=l>site</th><th>executions</th><th>total time (µs)</th>\
         <th>max operand nodes</th><th>max result nodes</th></tr>"
    );
    for (i, r) in summary.iter().enumerate() {
        let _ = writeln!(
            out,
            "<tr><td class=l><a href=\"#op{i}\">{}</a></td><td class=l>{}</td>\
             <td>{}</td><td>{:.1}</td><td>{}</td><td>{}</td></tr>",
            esc(r.op),
            esc(&r.site),
            r.count,
            r.total_nanos as f64 / 1000.0,
            r.max_operand_nodes,
            r.max_result_nodes
        );
    }
    let _ = writeln!(out, "</table>");

    // Detail views.
    let events = profiler.events();
    for (i, r) in summary.iter().enumerate() {
        let _ = writeln!(
            out,
            "<h2 id=\"op{i}\">{} at {}</h2><table><tr><th>#</th>\
             <th>time (µs)</th><th>operand nodes</th><th>result nodes</th></tr>",
            esc(r.op),
            esc(&r.site)
        );
        let mut best_shape: Option<&OpEvent> = None;
        for (n, e) in events
            .iter()
            .filter(|e| e.op == r.op && e.site == r.site)
            .enumerate()
        {
            let _ = writeln!(
                out,
                "<tr><td>{}</td><td>{:.1}</td><td>{}</td><td>{}</td></tr>",
                n + 1,
                e.nanos as f64 / 1000.0,
                e.operand_nodes,
                e.result_nodes
            );
            if e.shape.is_some() && best_shape.is_none_or(|b| e.result_nodes > b.result_nodes) {
                best_shape = Some(e);
            }
        }
        let _ = writeln!(out, "</table>");
        if let Some(e) = best_shape {
            let _ = writeln!(out, "<h3>Shape of largest result</h3>");
            out.push_str(&shape_svg(e.shape.as_ref().expect("checked")));
        }
    }
    let rounds = fixpoint_rounds(&events);
    if !rounds.is_empty() {
        out.push_str(&fixpoint_section(&rounds));
    }
    if let Some(k) = kernel {
        out.push_str(&kernel_section(k));
    }
    let _ = writeln!(out, "</body></html>");
    out
}

/// One fixpoint round reconstructed from the `fixpoint-*` events a
/// [`jedd_core::Fixpoint`] driver emits: the rule timings and per-relation
/// delta tuple counts recorded during the round, closed by the
/// `fixpoint-round` terminator carrying the round's wall time.
struct FixpointRound {
    driver: String,
    round: usize,
    nanos: u64,
    /// `(rule label, nanos)` in execution order.
    rules: Vec<(String, u64)>,
    /// `(relation label, delta tuples)` in emission order.
    deltas: Vec<(String, u64)>,
}

/// Groups the event stream back into per-driver rounds. Within one driver
/// the stream is ordered `rule* delta* round`, so accumulating until each
/// `fixpoint-round` terminator reconstructs the round exactly; nested
/// drivers (e.g. an inner copy-propagation loop) are kept separate by the
/// driver name embedded in the site.
fn fixpoint_rounds(events: &[OpEvent]) -> Vec<FixpointRound> {
    /// An in-progress round: driver name, rule timings, delta counts.
    type OpenRound = (String, Vec<(String, u64)>, Vec<(String, u64)>);
    let mut open: Vec<OpenRound> = Vec::new();
    let mut rounds: Vec<FixpointRound> = Vec::new();
    let slot = |open: &mut Vec<OpenRound>, driver: &str| -> usize {
        match open.iter().position(|(d, _, _)| d == driver) {
            Some(i) => i,
            None => {
                open.push((driver.to_string(), Vec::new(), Vec::new()));
                open.len() - 1
            }
        }
    };
    for e in events {
        match e.op {
            "fixpoint-rule" => {
                let (driver, rule) = e.site.split_once(": ").unwrap_or((e.site.as_str(), ""));
                let i = slot(&mut open, driver);
                open[i].1.push((rule.to_string(), e.nanos));
            }
            "fixpoint-delta" => {
                let (driver, rel) = e.site.split_once(": ").unwrap_or((e.site.as_str(), ""));
                let i = slot(&mut open, driver);
                open[i].2.push((rel.to_string(), e.result_nodes as u64));
            }
            "fixpoint-round" => {
                let i = slot(&mut open, &e.site);
                let (driver, rules, deltas) = open.swap_remove(i);
                let round = rounds.iter().filter(|r| r.driver == driver).count() + 1;
                rounds.push(FixpointRound {
                    driver,
                    round,
                    nanos: e.nanos,
                    rules,
                    deltas,
                });
            }
            _ => {}
        }
    }
    rounds
}

/// Renders the reconstructed fixpoint rounds: one row per round with its
/// wall time, rule timings, and delta tuple counts — the semi-naive
/// engine's progress log, browsable next to the kernel statistics that
/// explain it.
fn fixpoint_section(rounds: &[FixpointRound]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "<h2 id=\"fixpoint\">Fixpoint rounds</h2><table>\
         <tr><th class=l>driver</th><th>round</th><th>time (µs)</th>\
         <th class=l>rules (µs)</th><th class=l>deltas (tuples)</th></tr>"
    );
    for r in rounds {
        let rules = r
            .rules
            .iter()
            .map(|(name, ns)| format!("{} {:.1}", esc(name), *ns as f64 / 1000.0))
            .collect::<Vec<_>>()
            .join(", ");
        let deltas = r
            .deltas
            .iter()
            .map(|(name, tuples)| format!("{} {}", esc(name), tuples))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            out,
            "<tr><td class=l>{}</td><td>{}</td><td>{:.1}</td>\
             <td class=l>{}</td><td class=l>{}</td></tr>",
            esc(&r.driver),
            r.round,
            r.nanos as f64 / 1000.0,
            rules,
            deltas
        );
    }
    let _ = writeln!(out, "</table>");
    out
}

/// Renders the kernel cache/GC counters as an HTML section.
fn kernel_section(k: &KernelStats) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "<h2 id=\"kernel\">Kernel statistics</h2>\
         <p>{} nodes created, {} unique-table hits, {} GC runs \
         ({} nodes reclaimed), {} cache sweeps \
         ({} entries kept, {} swept).</p>",
        k.nodes_created,
        k.unique_hits,
        k.gc_runs,
        k.gc_reclaimed,
        k.cache_sweeps,
        k.cache_entries_kept,
        k.cache_entries_swept
    );
    let _ = writeln!(
        out,
        "<table><tr><th class=l>operation</th><th>cache lookups</th>\
         <th>cache hits</th><th>hit rate</th></tr>"
    );
    for (name, s) in KernelStats::CACHE_OP_NAMES
        .iter()
        .zip(k.per_op_cache.iter())
    {
        if s.lookups == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "<tr><td class=l>{}</td><td>{}</td><td>{}</td><td>{:.1}%</td></tr>",
            esc(name),
            s.lookups,
            s.hits,
            s.hit_rate() * 100.0
        );
    }
    let _ = writeln!(
        out,
        "<tr><td class=l>total</td><td>{}</td><td>{}</td><td>{:.1}%</td></tr></table>",
        k.cache_lookups,
        k.cache_hits,
        if k.cache_lookups == 0 {
            0.0
        } else {
            k.cache_hits as f64 / k.cache_lookups as f64 * 100.0
        }
    );
    let _ = writeln!(
        out,
        "<h3>Paging</h3>\
         <p>{} page faults ({} block reads), {} evictions \
         ({} block writes), peak {} resident frames.</p>",
        k.page_faults, k.page_reads, k.page_evictions, k.page_writes, k.page_max_resident
    );
    let avg_chain = if k.chain_nodes_created == 0 {
        0.0
    } else {
        k.chain_len_sum as f64 / k.chain_nodes_created as f64
    };
    let _ = writeln!(
        out,
        "<h3>Node shapes</h3>\
         <p>{} chain nodes created (avg span {:.1}, max {}), \
         {} sifting sweeps.</p>",
        k.chain_nodes_created, avg_chain, k.chain_len_max, k.sift_sweeps
    );
    out
}

/// Renders a nodes-per-level bar chart as inline SVG.
fn shape_svg(shape: &[usize]) -> String {
    let max = shape.iter().copied().max().unwrap_or(1).max(1);
    let bar_h = 8;
    let width = 420;
    let label_w = 60;
    let height = (shape.len() * (bar_h + 2) + 10) as u32;
    let mut svg = format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w}\" height=\"{height}\" \
         font-family=\"sans-serif\" font-size=\"8\">",
        w = width + label_w + 60
    );
    for (level, &n) in shape.iter().enumerate() {
        let y = 5 + level * (bar_h + 2);
        let w = (n as f64 / max as f64 * width as f64) as u32;
        let _ = write!(
            svg,
            "<text x=\"{}\" y=\"{}\" text-anchor=\"end\">v{}</text>\
             <rect x=\"{}\" y=\"{}\" width=\"{}\" height=\"{}\" fill=\"#4a78b0\"/>\
             <text x=\"{}\" y=\"{}\">{}</text>",
            label_w - 4,
            y + bar_h - 1,
            level,
            label_w,
            y,
            w.max(1),
            bar_h,
            label_w + w.max(1) + 4,
            y + bar_h - 1,
            n
        );
    }
    svg.push_str("</svg>");
    svg
}

#[cfg(test)]
mod tests {
    use super::*;
    use jedd_core::ProfileSink;

    #[test]
    fn html_contains_overview_and_details() {
        let p = Profiler::with_shapes();
        p.record(&OpEvent {
            op: "join",
            site: "resolve".into(),
            nanos: 1500,
            operand_nodes: 12,
            result_nodes: 30,
            shape: Some(vec![1, 4, 9, 2]),
        });
        p.record(&OpEvent {
            op: "replace",
            site: "resolve".into(),
            nanos: 700,
            operand_nodes: 30,
            result_nodes: 30,
            shape: None,
        });
        let html = render_html(&p);
        assert!(html.contains("<title>Jedd profile</title>"));
        assert!(html.contains("join"));
        assert!(html.contains("replace"));
        assert!(html.contains("<svg"), "shape chart rendered");
        assert!(html.contains("1.5"), "microsecond column");
    }

    #[test]
    fn html_escapes_site_labels() {
        let p = Profiler::new();
        p.record(&OpEvent {
            op: "union",
            site: "<script>".into(),
            nanos: 1,
            operand_nodes: 0,
            result_nodes: 0,
            shape: None,
        });
        let html = render_html(&p);
        assert!(!html.contains("<script>"));
        assert!(html.contains("&lt;script&gt;"));
    }

    #[test]
    fn kernel_section_lists_per_op_hit_rates() {
        let p = Profiler::new();
        p.record(&OpEvent {
            op: "union",
            site: "main".into(),
            nanos: 10,
            operand_nodes: 2,
            result_nodes: 2,
            shape: None,
        });
        let mgr = jedd_bdd::BddManager::new(4);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let _ = a.and(&b);
        let _ = a.and(&b); // second run hits the shared cache
        let stats = mgr.kernel_stats();
        let html = render_html_with_kernel(&p, Some(&stats));
        assert!(html.contains("Kernel statistics"));
        assert!(html.contains("<td class=l>and</td>"));
        assert!(html.contains("cache sweeps"));
        // The shapes row is always present, zeroed on plain runs.
        assert!(html.contains("Node shapes"));
        assert!(html.contains("0 chain nodes created"));
        // Plain render stays kernel-free.
        assert!(!render_html(&p).contains("Kernel statistics"));
    }

    #[test]
    fn kernel_section_reports_paging_counters() {
        let stats = KernelStats {
            page_faults: 120,
            page_reads: 120,
            page_writes: 90,
            page_evictions: 87,
            page_max_resident: 4,
            ..Default::default()
        };
        let html = render_html_with_kernel(&Profiler::new(), Some(&stats));
        assert!(html.contains("Paging"));
        assert!(html.contains("120 page faults (120 block reads)"));
        assert!(html.contains("87 evictions (90 block writes)"));
        assert!(html.contains("peak 4 resident frames"));
        // The paging row is always present, zeroed on resident runs.
        let resident = render_html_with_kernel(&Profiler::new(), Some(&KernelStats::default()));
        assert!(resident.contains("0 page faults"));
    }

    #[test]
    fn kernel_section_reports_node_shape_counters() {
        let stats = KernelStats {
            chain_nodes_created: 4,
            chain_len_sum: 10,
            chain_len_max: 5,
            sift_sweeps: 3,
            ..Default::default()
        };
        let html = render_html_with_kernel(&Profiler::new(), Some(&stats));
        assert!(html.contains("4 chain nodes created (avg span 2.5, max 5), 3 sifting sweeps."));
    }

    #[test]
    fn fixpoint_rounds_render_rules_and_deltas() {
        let p = Profiler::new();
        let ev = |op: &'static str, site: &str, nanos: u64, tuples: usize| OpEvent {
            op,
            site: site.into(),
            nanos,
            operand_nodes: 0,
            result_nodes: tuples,
            shape: None,
        };
        // Two pointsto rounds with an inner driver interleaved, as the
        // semi-naive engine emits them: rule* delta* round per driver.
        p.record(&ev("fixpoint-round", "pointsto-copy", 900, 0));
        p.record(&ev("fixpoint-rule", "pointsto: stores", 4200, 0));
        p.record(&ev("fixpoint-delta", "pointsto: Δpt", 0, 25));
        p.record(&ev("fixpoint-delta", "pointsto: Δcg", 0, 3));
        p.record(&ev("fixpoint-round", "pointsto", 10_000, 28));
        p.record(&ev("fixpoint-rule", "pointsto: resolve", 1500, 0));
        p.record(&ev("fixpoint-delta", "pointsto: Δpt", 0, 0));
        p.record(&ev("fixpoint-round", "pointsto", 2000, 0));
        let html = render_html(&p);
        assert!(html.contains("Fixpoint rounds"));
        assert!(html.contains("stores 4.2"), "rule timing rendered");
        assert!(html.contains("Δpt 25"), "delta tuple count rendered");
        assert!(
            html.contains("resolve 1.5"),
            "second round keeps its own rules"
        );
        assert!(
            html.contains("pointsto-copy"),
            "inner driver listed separately"
        );
    }

    #[test]
    fn fixpoint_section_absent_without_events() {
        let p = Profiler::new();
        p.record(&OpEvent {
            op: "union",
            site: "main".into(),
            nanos: 1,
            operand_nodes: 0,
            result_nodes: 0,
            shape: None,
        });
        assert!(!render_html(&p).contains("Fixpoint rounds"));
    }

    #[test]
    fn shape_svg_handles_empty_levels() {
        let svg = shape_svg(&[0, 0, 0]);
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
    }
}
