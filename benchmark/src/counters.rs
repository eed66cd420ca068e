//! The one adapter between the benchmark and the system's counter structs.
//!
//! `KernelStats`, `UniverseStats` and `AssignmentStats` are read through
//! their `Debug` rendering, flattened into dotted names
//! (`cache.and.hits`). A counter that the system stops exporting then
//! reads as absent, and is reported as 0, instead of breaking the
//! benchmark's build.

use std::collections::BTreeMap;
use std::fmt::Debug;

/// Counter name → value, flattened from a `Debug` rendering.
#[derive(Clone, Debug, Default)]
pub struct Counters(BTreeMap<String, f64>);

/// The kernel's per-operation cache slots, in the order its `per_op_cache`
/// array lists them.
const CACHE_OPS: [&str; 10] = [
    "and",
    "or",
    "diff",
    "xor",
    "ite",
    "exists",
    "and_exists",
    "biimp",
    "replace",
    "subset",
];

impl Counters {
    /// Flattens the `Debug` rendering of `value`. Numbers and booleans are
    /// kept; strings and unit variants are dropped.
    pub fn of(value: &impl Debug) -> Counters {
        let text = format!("{value:?}");
        let tokens = tokenize(&text);
        let mut out = BTreeMap::new();
        let mut i = 0;
        parse_value(&tokens, &mut i, "", &mut out);
        // The per-operation cache array is positional; name its slots.
        let cache_name = |k: &str| -> Option<String> {
            let (idx, field) = k.strip_prefix("per_op_cache.")?.split_once('.')?;
            let op = CACHE_OPS.get(idx.parse::<usize>().ok()?)?;
            Some(format!("cache.{op}.{field}"))
        };
        Counters(
            out.into_iter()
                .map(|(k, v)| (cache_name(&k).unwrap_or(k), v))
                .collect(),
        )
    }

    /// The value of `name`, or `None` when the system does not export it.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The value of `name`, reading an absent counter as zero.
    pub fn value(&self, name: &str) -> f64 {
        self.get(name).unwrap_or(0.0)
    }

    /// `self - before`, name by name (names only in `self` keep their value).
    pub fn since(&self, before: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - before.value(k)))
                .collect(),
        )
    }

    /// Adds every counter of `other` into `self`.
    pub fn add(&mut self, other: &Counters) {
        for (k, v) in &other.0 {
            *self.0.entry(k.clone()).or_insert(0.0) += v;
        }
    }

    /// Sets one counter.
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// Merges `other` into `self`, overwriting equal names.
    pub fn merge(mut self, other: Counters) -> Counters {
        self.0.extend(other.0);
        self
    }
}

#[derive(Debug, PartialEq)]
enum Tok<'a> {
    Word(&'a str),
    Num(f64),
    Str,
    Punct(char),
}

fn tokenize(s: &str) -> Vec<Tok<'_>> {
    let bytes = s.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_whitespace() {
            i += 1;
        } else if c == '"' {
            // Skip a string literal, honouring backslash escapes.
            i += 1;
            while i < bytes.len() && bytes[i] != b'"' {
                i += if bytes[i] == b'\\' { 2 } else { 1 };
            }
            i += 1;
            out.push(Tok::Str);
        } else if c.is_ascii_digit()
            || (c == '-' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit))
        {
            let start = i;
            i += 1;
            while i < bytes.len()
                && (bytes[i].is_ascii_alphanumeric()
                    || matches!(bytes[i], b'.' | b'-' | b'+' | b'_'))
            {
                i += 1;
            }
            match s[start..i].parse::<f64>() {
                Ok(n) => out.push(Tok::Num(n)),
                Err(_) => out.push(Tok::Str),
            }
        } else if c.is_alphanumeric() || c == '_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            out.push(Tok::Word(&s[start..i]));
        } else {
            out.push(Tok::Punct(c));
            i += c.len_utf8();
        }
    }
    out
}

fn join(path: &str, seg: &str) -> String {
    if path.is_empty() {
        seg.to_string()
    } else {
        format!("{path}.{seg}")
    }
}

/// Parses one value at `toks[*i]`, recording numbers under `path`.
fn parse_value(toks: &[Tok<'_>], i: &mut usize, path: &str, out: &mut BTreeMap<String, f64>) {
    match toks.get(*i) {
        Some(Tok::Num(n)) => {
            out.insert(path.to_string(), *n);
            *i += 1;
        }
        Some(Tok::Word(w)) => {
            *i += 1;
            match toks.get(*i) {
                Some(Tok::Punct('{')) => {
                    *i += 1;
                    while let Some(Tok::Word(field)) = toks.get(*i) {
                        *i += 1;
                        if toks.get(*i) == Some(&Tok::Punct(':')) {
                            *i += 1;
                        }
                        parse_value(toks, i, &join(path, field), out);
                        if toks.get(*i) == Some(&Tok::Punct(',')) {
                            *i += 1;
                        }
                    }
                    skip_close(toks, i, '}');
                }
                Some(Tok::Punct('(')) => parse_seq(toks, i, path, ')', out),
                _ => match *w {
                    "true" => {
                        out.insert(path.to_string(), 1.0);
                    }
                    "false" => {
                        out.insert(path.to_string(), 0.0);
                    }
                    _ => {}
                },
            }
        }
        Some(Tok::Punct('[')) => parse_seq(toks, i, path, ']', out),
        Some(_) => *i += 1,
        None => {}
    }
}

/// Parses a bracketed sequence, keying its elements by position.
fn parse_seq(
    toks: &[Tok<'_>],
    i: &mut usize,
    path: &str,
    close: char,
    out: &mut BTreeMap<String, f64>,
) {
    *i += 1;
    let mut idx = 0usize;
    while *i < toks.len() && toks[*i] != Tok::Punct(close) {
        let before = *i;
        parse_value(toks, i, &join(path, &idx.to_string()), out);
        idx += 1;
        if toks.get(*i) == Some(&Tok::Punct(',')) {
            *i += 1;
        }
        if *i == before {
            *i += 1; // an unparseable token: skip it rather than loop
        }
    }
    skip_close(toks, i, close);
}

fn skip_close(toks: &[Tok<'_>], i: &mut usize, close: char) {
    if toks.get(*i) == Some(&Tok::Punct(close)) {
        *i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Read only through their `Debug` rendering.
    #[allow(dead_code)]
    #[derive(Debug)]
    struct Inner {
        lookups: u64,
        hits: u64,
    }

    #[allow(dead_code)]
    #[derive(Debug)]
    struct Outer {
        nodes_created: u64,
        ratio: f64,
        flag: bool,
        label: &'static str,
        per_op_cache: [Inner; 2],
        opt: Option<u32>,
        activity: [u64; 3],
    }

    #[test]
    fn flattens_nested_debug() {
        let c = Counters::of(&Outer {
            nodes_created: 7,
            ratio: -1.5e-3,
            flag: true,
            label: "a, b: {c}",
            per_op_cache: [
                Inner {
                    lookups: 3,
                    hits: 1,
                },
                Inner {
                    lookups: 4,
                    hits: 2,
                },
            ],
            opt: Some(9),
            activity: [1, 2, 3],
        });
        assert_eq!(c.get("nodes_created"), Some(7.0));
        assert_eq!(c.get("ratio"), Some(-1.5e-3));
        assert_eq!(c.get("flag"), Some(1.0));
        assert_eq!(c.get("cache.and.lookups"), Some(3.0));
        assert_eq!(c.get("cache.or.hits"), Some(2.0));
        assert_eq!(c.get("opt.0"), Some(9.0));
        assert_eq!(c.get("activity.2"), Some(3.0));
        assert_eq!(c.get("label"), None);
        assert_eq!(c.value("missing"), 0.0);
    }

    #[test]
    fn reads_the_kernel_counters() {
        let stats = jedd_bdd::KernelStats {
            nodes_created: 11,
            ..Default::default()
        };
        let c = Counters::of(&stats);
        assert_eq!(c.get("nodes_created"), Some(11.0));
        assert_eq!(c.get("cache.replace.lookups"), Some(0.0));
        assert_eq!(c.since(&c).value("nodes_created"), 0.0);
    }
}
