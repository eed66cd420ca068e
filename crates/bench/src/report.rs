//! Machine-readable bench output without a serde dependency.
//!
//! Benches build a [`JsonObject`] of their headline numbers and call
//! [`write_section`]; when the `JEDD_BENCH_JSON` environment variable
//! names a file, the section is merged into that file as one top-level
//! key, so several bench binaries can contribute to a single report
//! (CI writes `BENCH_kernel.json` this way). With the variable unset
//! the call is a no-op and the benches stay pure timing runs.

use std::fmt::Write as _;

/// A flat JSON object built field by field. Values are emitted in
/// insertion order; keys are not deduplicated.
#[derive(Debug, Default)]
pub struct JsonObject {
    fields: Vec<(String, String)>,
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl JsonObject {
    /// Creates an empty object.
    pub fn new() -> JsonObject {
        JsonObject::default()
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> JsonObject {
        self.fields
            .push((key.to_string(), format!("\"{}\"", escape(value))));
        self
    }

    /// Adds an integer field.
    pub fn int(mut self, key: &str, value: u64) -> JsonObject {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Adds a float field, rendered with enough precision for timings.
    pub fn float(mut self, key: &str, value: f64) -> JsonObject {
        let rendered = if value.is_finite() {
            format!("{value:.6}")
        } else {
            "null".to_string()
        };
        self.fields.push((key.to_string(), rendered));
        self
    }

    /// Adds a nested object field.
    pub fn object(mut self, key: &str, value: JsonObject) -> JsonObject {
        self.fields.push((key.to_string(), value.render()));
        self
    }

    /// Renders the object as a JSON string.
    pub fn render(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", escape(k), v);
        }
        out.push('}');
        out
    }
}

/// Merges `section` into the JSON report file named by the
/// `JEDD_BENCH_JSON` environment variable, under the key `name`.
///
/// Creates the file (as `{"name": {...}}`) when absent; otherwise the
/// existing top-level object is re-parsed just enough to insert or
/// replace the key. No-op when the variable is unset. I/O errors are
/// reported on stderr rather than panicking — a failed report must not
/// fail the bench.
///
/// When `JEDD_BENCH_RUN` is also set, the section is stamped with a
/// `"run"` field and any existing group carrying a *different* stamp is
/// pruned from the document. Without this, groups from renamed or
/// retired benchmarks (the old `parallel_apply` shape, say) linger in
/// `BENCH_kernel.json` forever and skew trajectory tooling; with it, the
/// first section a new run writes sweeps every stale group out.
pub fn write_section(name: &str, section: &JsonObject) {
    let Ok(path) = std::env::var("JEDD_BENCH_JSON") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let run = std::env::var("JEDD_BENCH_RUN")
        .ok()
        .filter(|r| !r.is_empty());
    let rendered = stamp_run(&section.render(), run.as_deref());
    let merged = match std::fs::read_to_string(&path) {
        Ok(existing) => merge_into(&existing, name, &rendered, run.as_deref()),
        Err(_) => format!("{{\"{}\":{}}}\n", escape(name), rendered),
    };
    if let Err(e) = std::fs::write(&path, merged) {
        eprintln!("bench report: cannot write {path}: {e}");
    }
}

/// Prepends a `"run"` field to a rendered object, so every group records
/// which run produced it.
fn stamp_run(rendered: &str, run: Option<&str>) -> String {
    let Some(run) = run else {
        return rendered.to_string();
    };
    let inner = rendered.strip_prefix('{').unwrap_or(rendered);
    if inner == "}" {
        format!("{{\"run\":\"{}\"}}", escape(run))
    } else {
        format!("{{\"run\":\"{}\",{}", escape(run), inner)
    }
}

/// Inserts or replaces one top-level key in an existing JSON object
/// document, pruning groups stamped by other runs when `run` is set.
/// Falls back to rewriting the whole document when the existing content
/// doesn't look like an object.
fn merge_into(existing: &str, name: &str, rendered: &str, run: Option<&str>) -> String {
    let trimmed = existing.trim();
    let fresh = || format!("{{\"{}\":{}}}\n", escape(name), rendered);
    if !trimmed.starts_with('{') || !trimmed.ends_with('}') {
        return fresh();
    }
    let inner = &trimmed[1..trimmed.len() - 1];
    // Re-collect the existing top-level entries, dropping any previous
    // run of this section — and, when a run id is in force, every group
    // another run wrote — then append the new one.
    let current_stamp = run.map(|r| format!("\"run\":\"{}\"", escape(r)));
    let mut entries: Vec<&str> = Vec::new();
    for entry in split_top_level(inner) {
        let key_prefix = format!("\"{}\":", escape(name));
        if entry.trim_start().starts_with(&key_prefix) {
            continue;
        }
        if let Some(stamp) = &current_stamp {
            if !entry.contains(stamp.as_str()) {
                continue;
            }
        }
        entries.push(entry);
    }
    let mut out = String::from("{");
    for e in &entries {
        out.push_str(e.trim());
        out.push(',');
    }
    let _ = write!(out, "\"{}\":{}", escape(name), rendered);
    out.push_str("}\n");
    out
}

/// Splits the inside of a JSON object on top-level commas (commas not
/// nested in braces, brackets, or strings).
fn split_top_level(inner: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut in_string = false;
    let mut escaped = false;
    let mut start = 0usize;
    for (i, c) in inner.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            '{' | '[' if !in_string => depth += 1,
            '}' | ']' if !in_string => depth -= 1,
            ',' if !in_string && depth == 0 => {
                if !inner[start..i].trim().is_empty() {
                    out.push(&inner[start..i]);
                }
                start = i + 1;
            }
            _ => {}
        }
    }
    if !inner[start..].trim().is_empty() {
        out.push(&inner[start..]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_renders_in_order() {
        let o = JsonObject::new()
            .str("name", "shift")
            .int("hits", 42)
            .float("ms", 1.25)
            .object("inner", JsonObject::new().int("n", 1));
        assert_eq!(
            o.render(),
            "{\"name\":\"shift\",\"hits\":42,\"ms\":1.250000,\"inner\":{\"n\":1}}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let o = JsonObject::new().str("k", "a\"b\\c\nd");
        assert_eq!(o.render(), "{\"k\":\"a\\\"b\\\\c\\nd\"}");
    }

    #[test]
    fn merge_adds_and_replaces_sections() {
        let first = merge_into("", "a", "{\"x\":1}", None);
        assert_eq!(first.trim(), "{\"a\":{\"x\":1}}");
        let both = merge_into(&first, "b", "{\"y\":2}", None);
        assert_eq!(both.trim(), "{\"a\":{\"x\":1},\"b\":{\"y\":2}}");
        let replaced = merge_into(&both, "a", "{\"x\":9}", None);
        assert_eq!(replaced.trim(), "{\"b\":{\"y\":2},\"a\":{\"x\":9}}");
    }

    #[test]
    fn merge_survives_commas_inside_strings() {
        let doc = "{\"a\":{\"label\":\"x,y\"}}";
        let merged = merge_into(doc, "b", "{\"n\":0}", None);
        assert_eq!(merged.trim(), "{\"a\":{\"label\":\"x,y\"},\"b\":{\"n\":0}}");
    }

    #[test]
    fn run_id_prunes_groups_from_other_runs() {
        // A report accumulated by run r1, including a group from a
        // benchmark that no longer exists (`parallel_apply`).
        let doc = "{\"parallel_apply\":{\"run\":\"r1\",\"speedup\":0.65},\
                   \"apply\":{\"run\":\"r1\",\"ms\":3}}";
        // The first section run r2 writes sweeps every r1 group out...
        let first = merge_into(
            doc,
            "apply",
            &stamp_run("{\"ms\":2}", Some("r2")),
            Some("r2"),
        );
        assert_eq!(first.trim(), "{\"apply\":{\"run\":\"r2\",\"ms\":2}}");
        // ...and later sections of the same run accumulate normally.
        let second = merge_into(
            &first,
            "kernel_batch",
            &stamp_run("{\"ms\":5}", Some("r2")),
            Some("r2"),
        );
        assert_eq!(
            second.trim(),
            "{\"apply\":{\"run\":\"r2\",\"ms\":2},\"kernel_batch\":{\"run\":\"r2\",\"ms\":5}}"
        );
    }

    #[test]
    fn stamp_run_handles_empty_and_populated_objects() {
        assert_eq!(stamp_run("{}", Some("r")), "{\"run\":\"r\"}");
        assert_eq!(stamp_run("{\"x\":1}", Some("r")), "{\"run\":\"r\",\"x\":1}");
        assert_eq!(stamp_run("{\"x\":1}", None), "{\"x\":1}");
    }

    #[test]
    fn no_run_id_keeps_unstamped_groups() {
        // Legacy behavior without JEDD_BENCH_RUN: nothing is pruned.
        let doc = "{\"old\":{\"ms\":1}}";
        let merged = merge_into(doc, "new", "{\"ms\":2}", None);
        assert_eq!(merged.trim(), "{\"old\":{\"ms\":1},\"new\":{\"ms\":2}}");
    }
}
