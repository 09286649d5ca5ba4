//! The byte-scanning rule parser against the `str`-splitting parser it
//! replaced, kept below as the reference.
//!
//! The inputs are windows of real policy text — the 661-rule policy, Fig. 12
//! variants of it, the paper's example and `policies/*.fw` — under seeded
//! mutations: byte flips, deleted and doubled bytes, duplicated
//! constraints, CRLF line ends, tabs and non-ASCII whitespace around
//! tokens, a leading `+`, 20-digit integers, octet 256, `/33`, reversed
//! ranges, a second `->` and `#` in mid-line. Each input must give the same
//! rules, or the same error variant at the same line.

use std::collections::BTreeMap;
use std::mem::discriminant;

use diverse_firewall::model::{paper, parse, prefix, ModelError, Rule, Schema};
use diverse_firewall::synth::{perturb, university_large};
use rand::prelude::*;

/// The rule parser as it was before the byte scanner: `str` splits,
/// one predicate copy per constraint. Kept verbatim as the reference.
mod reference {
    #![allow(dead_code)]

    use diverse_firewall::model::{
        Decision, FieldId, Interval, IntervalSet, ModelError, Predicate, Prefix, Rule, Schema,
    };

    /// Parses a sequence of rules in the DSL, one per line; blank lines and
    /// `#`-comments are skipped.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Parse`] carrying the 1-based line number of the
    /// first offending line, or a validation error from predicate construction.
    pub fn parse_rules(schema: &Schema, text: &str) -> Result<Vec<Rule>, ModelError> {
        let mut rules = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            // `#` starts a comment, whether at line start or trailing a rule.
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            rules.push(parse_rule_line(schema, line, line_no)?);
        }
        Ok(rules)
    }

    /// Parses a single rule in the DSL (no trailing newline).
    ///
    /// # Errors
    ///
    /// As for [`parse_rules`], with line number 1.
    pub fn parse_rule(schema: &Schema, line: &str) -> Result<Rule, ModelError> {
        parse_rule_line(schema, line.trim(), 1)
    }

    fn err(line: usize, message: impl Into<String>) -> ModelError {
        ModelError::Parse {
            line,
            message: message.into(),
        }
    }

    fn parse_rule_line(schema: &Schema, line: &str, line_no: usize) -> Result<Rule, ModelError> {
        let (pred_text, dec_text) = line
            .rsplit_once("->")
            .ok_or_else(|| err(line_no, "expected `predicate -> decision`"))?;
        let decision: Decision = dec_text.trim().parse().map_err(|e: ModelError| match e {
            ModelError::Parse { message, .. } => err(line_no, message),
            other => other,
        })?;
        let predicate = parse_predicate(schema, pred_text.trim(), line_no)?;
        Ok(Rule::new(predicate, decision))
    }

    fn parse_predicate(
        schema: &Schema,
        text: &str,
        line_no: usize,
    ) -> Result<Predicate, ModelError> {
        if text == "*" {
            return Ok(Predicate::any(schema));
        }
        if text.is_empty() {
            return Err(err(
                line_no,
                "empty predicate; use `*` to match all packets",
            ));
        }
        let mut pred = Predicate::any(schema);
        let mut seen: Vec<FieldId> = Vec::new();
        for part in text.split(',') {
            let part = part.trim();
            if part.is_empty() {
                return Err(err(line_no, "empty constraint between commas"));
            }
            let (name, value) = part
                .split_once('=')
                .ok_or_else(|| err(line_no, format!("expected `field=value` in `{part}`")))?;
            let name = name.trim();
            let (id, field) = schema
                .field_by_name(name)
                .ok_or_else(|| err(line_no, format!("unknown field `{name}`")))?;
            if seen.contains(&id) {
                return Err(err(line_no, format!("field `{name}` constrained twice")));
            }
            seen.push(id);
            let set = parse_value_set(value.trim(), field.bits(), line_no)?;
            if let Some(max) = set.max_value() {
                if max > field.max() {
                    return Err(ModelError::OutOfDomain {
                        field: name.to_owned(),
                        value: max,
                        max: field.max(),
                    });
                }
            }
            pred = pred.with_field(id, set)?;
        }
        Ok(pred)
    }

    fn parse_value_set(text: &str, bits: u32, line_no: usize) -> Result<IntervalSet, ModelError> {
        let mut intervals = Vec::new();
        for alt in text.split('|') {
            let alt = alt.trim();
            if alt.is_empty() {
                return Err(err(line_no, "empty alternative between `|`"));
            }
            intervals.push(parse_value(alt, bits, line_no)?);
        }
        Ok(IntervalSet::from_intervals(intervals))
    }

    fn parse_value(text: &str, bits: u32, line_no: usize) -> Result<Interval, ModelError> {
        if text == "*" {
            let max = if bits == 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            };
            return Interval::new(0, max);
        }
        // Prefix notation `base/plen`, where base may be dotted-quad or integer.
        if let Some((base, plen)) = text.split_once('/') {
            let v = parse_scalar(base.trim(), line_no)?;
            let plen: u32 = plen
                .trim()
                .parse()
                .map_err(|_| err(line_no, format!("invalid prefix length `{plen}`")))?;
            return Ok(Prefix::new(v, plen, bits)?.interval());
        }
        // Range `lo-hi` (dotted quads contain '.', so a '-' separating two
        // dotted quads is unambiguous; plain integers contain no '-').
        if let Some((lo, hi)) = text.split_once('-') {
            let lo = parse_scalar(lo.trim(), line_no)?;
            let hi = parse_scalar(hi.trim(), line_no)?;
            return Interval::new(lo, hi);
        }
        let v = parse_scalar(text, line_no)?;
        Ok(Interval::point(v))
    }

    fn parse_scalar(text: &str, line_no: usize) -> Result<u64, ModelError> {
        if text.contains('.') {
            parse_ipv4(text).map_err(|e| match e {
                ModelError::Parse { message, .. } => err(line_no, message),
                other => other,
            })
        } else {
            text.parse::<u64>()
                .map_err(|_| err(line_no, format!("invalid integer `{text}`")))
        }
    }

    /// Parses a dotted-quad IPv4 address (`a.b.c.d`) to its 32-bit integer.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Parse`] on malformed input.
    pub fn parse_ipv4(s: &str) -> Result<u64, ModelError> {
        let parts: Vec<&str> = s.split('.').collect();
        if parts.len() != 4 {
            return Err(ModelError::Parse {
                line: 0,
                message: format!("`{s}` is not a dotted-quad IPv4 address"),
            });
        }
        let mut v: u64 = 0;
        for p in parts {
            let octet: u64 = p.parse().map_err(|_| ModelError::Parse {
                line: 0,
                message: format!("`{p}` is not a valid IPv4 octet"),
            })?;
            if octet > 255 {
                return Err(ModelError::Parse {
                    line: 0,
                    message: format!("IPv4 octet {octet} exceeds 255"),
                });
            }
            v = (v << 8) | octet;
        }
        Ok(v)
    }
}

/// A named source text and the schema it is parsed with.
struct Source {
    name: String,
    schema: Schema,
    lines: Vec<String>,
}

fn sources() -> Vec<Source> {
    let large = university_large();
    let mut out = vec![Source {
        name: "university_large".into(),
        schema: large.schema().clone(),
        lines: lines_of(&large.to_dsl()),
    }];
    for seed in [3u64, 17] {
        out.push(Source {
            name: format!("fig12 5% seed {seed}"),
            schema: large.schema().clone(),
            lines: lines_of(&perturb(&large, 5, seed).to_dsl()),
        });
    }
    for fw in [paper::team_a(), paper::team_b()] {
        out.push(Source {
            name: "paper example".into(),
            schema: fw.schema().clone(),
            lines: lines_of(&fw.to_dsl()),
        });
    }
    for file in ["dmz_v1.fw", "dmz_v2.fw", "messy.fw"] {
        let path = format!("{}/policies/{file}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).expect("a fixture policy");
        out.push(Source {
            name: file.into(),
            schema: Schema::tcp_ip(),
            lines: lines_of(&text),
        });
    }
    out
}

fn lines_of(text: &str) -> Vec<String> {
    text.lines().map(str::to_owned).collect()
}

/// What both parsers made of one input, for the coverage tally.
fn outcome(result: &Result<Vec<Rule>, ModelError>) -> &'static str {
    match result {
        Ok(_) => "ok",
        Err(ModelError::Parse { .. }) => "parse",
        Err(ModelError::OutOfDomain { .. }) => "out of domain",
        Err(ModelError::EmptyInterval { .. }) => "empty interval",
        Err(ModelError::InvalidPrefixLen { .. }) => "prefix length",
        Err(_) => "other",
    }
}

/// Asserts the two results agree: equal rules, or the same error variant
/// and, for a parse error, the same line.
fn assert_agree<T: PartialEq + std::fmt::Debug>(
    new: &Result<T, ModelError>,
    old: &Result<T, ModelError>,
    input: &str,
) {
    match (new, old) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "different rules from {input:?}"),
        (Err(a), Err(b)) => {
            assert_eq!(
                discriminant(a),
                discriminant(b),
                "{a:?} against {b:?} on {input:?}"
            );
            if let (ModelError::Parse { line: x, .. }, ModelError::Parse { line: y, .. }) = (a, b) {
                assert_eq!(x, y, "{a:?} against {b:?} on {input:?}");
            }
        }
        _ => panic!("{new:?} against {old:?} on {input:?}"),
    }
}

/// Checks one text with `parse_rules`, and each of its lines with
/// `parse_rule`; returns the `parse_rules` outcome.
fn check(schema: &Schema, text: &str) -> &'static str {
    let new = parse::parse_rules(schema, text);
    let old = reference::parse_rules(schema, text);
    assert_agree(&new, &old, text);
    for line in text.split('\n') {
        assert_agree(
            &parse::parse_rule(schema, line),
            &reference::parse_rule(schema, line),
            line,
        );
    }
    outcome(&new)
}

/// Whitespace, and look-alikes that are not whitespace, to put around
/// tokens.
const SPACES: [&str; 12] = [
    " ", "\t", "\u{b}", "\u{c}", "\r", "\u{85}", "\u{a0}", "\u{2003}", "\u{3000}", "\u{1680}",
    "\u{200b}", "\u{feff}",
];

/// Integers of 20 digits and around the `u64`/`u32` limits.
const LONG: [&str; 6] = [
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999",
    "00000000000000000080",
    "4294967296",
    "00000000000000000000000000000001",
];

fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> Option<T> {
    items.choose(rng).copied()
}

/// Byte positions in `s` whose byte satisfies `pred`.
fn positions(s: &str, pred: impl Fn(u8) -> bool) -> Vec<usize> {
    s.bytes()
        .enumerate()
        .filter(|&(_, b)| pred(b))
        .map(|(i, _)| i)
        .collect()
}

/// The maximal run of `[0-9.]` bytes around position `at`.
fn token_at(s: &str, at: usize) -> (usize, usize) {
    let b = s.as_bytes();
    let part = |c: u8| c.is_ascii_digit() || c == b'.';
    let mut lo = at;
    while lo > 0 && part(b[lo - 1]) {
        lo -= 1;
    }
    let mut hi = at;
    while hi < b.len() && part(b[hi]) {
        hi += 1;
    }
    (lo, hi)
}

fn splice(s: &str, lo: usize, hi: usize, with: &str) -> String {
    format!("{}{with}{}", &s[..lo], &s[hi..])
}

fn bytes_edit(s: &str, edit: impl FnOnce(&mut Vec<u8>)) -> String {
    let mut bytes = s.as_bytes().to_vec();
    edit(&mut bytes);
    String::from_utf8_lossy(&bytes).into_owned()
}

/// One seeded mutation of `s`; `None` when `s` offers no place for it.
fn mutate(rng: &mut StdRng, s: &str) -> Option<String> {
    let n = s.len();
    let any = |rng: &mut StdRng| (n > 0).then(|| rng.random_range(0..n));
    let digits = positions(s, |b| b.is_ascii_digit());
    Some(match rng.random_range(0..13u32) {
        0 => {
            let i = any(rng)?;
            let bit = 1u8 << rng.random_range(0..8u32);
            bytes_edit(s, |b| b[i] ^= bit)
        }
        1 => {
            let i = any(rng)?;
            bytes_edit(s, |b| {
                b.remove(i);
            })
        }
        2 => {
            let i = any(rng)?;
            bytes_edit(s, |b| b.insert(i, b[i]))
        }
        3 => {
            // Repeat one constraint right after itself.
            let eq = pick(rng, &positions(s, |b| b == b'='))?;
            let start = s[..eq].rfind([',', '\n']).map_or(0, |i| i + 1);
            let end = s[eq..].find([',', '\n']).map_or(n, |i| eq + i);
            let end = s[eq..end].find("->").map_or(end, |i| eq + i);
            let constraint = s[start..end].trim().to_owned();
            splice(s, end, end, &format!(", {constraint}"))
        }
        4 => s.replace('\n', "\r\n"),
        5 => {
            // Whitespace before or after a delimiter (an ASCII byte, so
            // both places are character boundaries).
            let at = pick(rng, &positions(s, |b| b",=|-/>#*".contains(&b)))?;
            let at = at + usize::from(rng.random_bool(0.5));
            let space = pick(rng, &SPACES)?;
            splice(s, at, at, space)
        }
        6 => {
            let at = pick(rng, &digits)?;
            let (lo, _) = token_at(s, at);
            splice(s, lo, lo, "+")
        }
        7 => {
            let at = pick(rng, &digits)?;
            let lo = s[..at]
                .rfind(|c: char| !c.is_ascii_digit())
                .map_or(0, |i| i + 1);
            let hi = s[at..]
                .find(|c: char| !c.is_ascii_digit())
                .map_or(n, |i| at + i);
            splice(s, lo, hi, pick(rng, &LONG)?)
        }
        8 => {
            // An octet of a dotted quad becomes 256.
            let dot = pick(rng, &positions(s, |b| b == b'.'))?;
            let hi = s[dot + 1..]
                .find(|c: char| !c.is_ascii_digit())
                .map_or(n, |i| dot + 1 + i);
            splice(s, dot + 1, hi, "256")
        }
        9 => match pick(rng, &positions(s, |b| b == b'/')) {
            Some(slash) => {
                let hi = s[slash + 1..]
                    .find(|c: char| !c.is_ascii_digit())
                    .map_or(n, |i| slash + 1 + i);
                splice(s, slash + 1, hi, "33")
            }
            None => {
                let at = pick(rng, &digits)?;
                let (_, hi) = token_at(s, at);
                splice(s, hi, hi, "/33")
            }
        },
        10 => {
            // Swap the two ends of a range.
            let dash = pick(
                rng,
                &positions(s, |b| b == b'-')
                    .into_iter()
                    .filter(|&i| s.as_bytes().get(i + 1) != Some(&b'>'))
                    .collect::<Vec<_>>(),
            )?;
            let (lo, _) = token_at(s, dash.checked_sub(1)?);
            let (_, hi) = token_at(s, dash + 1);
            let (a, b) = (&s[lo..dash], &s[dash + 1..hi]);
            splice(s, lo, hi, &format!("{b}-{a}"))
        }
        11 => {
            let at = pick(rng, &positions(s, |b| b.is_ascii()))?;
            let arrow = pick(rng, &["->", " -> accept", "->discard", "-> -> accept"])?;
            splice(s, at, at, arrow)
        }
        _ => {
            let at = pick(rng, &positions(s, |b| b.is_ascii()))?;
            splice(s, at, at, "#")
        }
    })
}

#[test]
fn byte_scanner_agrees_with_the_str_parser_on_mutated_policies() {
    let sources = sources();
    let mut rng = StdRng::seed_from_u64(0x5eed_2004);
    let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
    // The sources unmutated first.
    for src in &sources {
        let text = src.lines.join("\n");
        *seen.entry(check(&src.schema, &text)).or_default() += 1;
        assert_eq!(check(&src.schema, &text), "ok", "{} parses", src.name);
    }
    for _ in 0..3_000 {
        let src = sources.choose(&mut rng).expect("sources");
        let len = rng.random_range(1..=12usize).min(src.lines.len());
        let start = rng.random_range(0..=src.lines.len() - len);
        let mut text = src.lines[start..start + len].join("\n");
        if rng.random_bool(0.5) {
            text.push('\n');
        }
        for _ in 0..rng.random_range(1..=3u32) {
            if let Some(m) = mutate(&mut rng, &text) {
                text = m;
            }
        }
        *seen.entry(check(&src.schema, &text)).or_default() += 1;
    }
    // The mutations reach every outcome the parsers can disagree on.
    for outcome in [
        "ok",
        "parse",
        "out of domain",
        "empty interval",
        "prefix length",
    ] {
        assert!(
            seen.get(outcome).copied().unwrap_or(0) >= 5,
            "too few `{outcome}` outcomes: {seen:?}"
        );
    }
}

#[test]
fn byte_scanner_agrees_on_hand_picked_edge_cases() {
    let schema = Schema::tcp_ip();
    for text in [
        "dport=+80 -> accept",
        "dport=++80 -> accept",
        "dport=+ -> accept",
        "dport=- -> accept",
        "dport=99999999999999999999 -> accept",
        "dport=18446744073709551616 -> accept",
        "dport=00000000000000000080 -> accept",
        "src=1.2.3.256 -> accept",
        "src=+1.2.3.4 -> accept",
        "src=1.2.3.4.5 -> accept",
        "src=1..3.4 -> accept",
        "src=1.2.3.4/33 -> accept",
        "src=1.2.3.4/+8 -> accept",
        "src=1.2.3.4/4294967296 -> accept",
        "dport=70000/16 -> accept",
        "dport=1.0.0.0 -> accept",
        "dport=90-80 -> accept",
        "src=10.0.0.9-10.0.0.1 -> accept",
        "dport=80-90-100 -> accept",
        "dport=80 -> accept -> discard",
        "dport=80 -> -> accept",
        "-> accept",
        "* -> accept -> discard",
        "dport=80 # -> accept",
        "dport=80, dport=80 -> accept",
        "dport=80, dport=99999 -> accept",
        "dport=99999, nosuch=1 -> reject",
        "dport=99999|x -> accept",
        "dport=1|1|2 -> accept",
        "dport=5|1-3|4 -> accept",
        "dport=| -> accept",
        "dport= -> accept",
        ", dport=1 -> accept",
        "*, dport=1 -> accept",
        "dport=* -> accept",
        "\tdport\u{a0}=\u{3000}80\t->\u{2003}accept\u{85}",
        "dport\u{200b}=80 -> accept",
        "dport=80 -> accept\r\n* -> discard\r\n",
        "dport=80\r-> accept",
        "\u{feff}* -> accept",
        "",
        "\n\n# only comments\n",
        "* -> accept\nwat\n",
        // Where a one-pass lexer can part from split-then-trim.
        "dport=5-->accept",
        "dport=1 - 2 -> accept",
        "src=1.2.3.4 / 8 -> accept",
        "src=1. 2.3.4 -> accept",
        "dport = 80 -> accept",
        "d port=80 -> accept",
        "dport=80, -> accept",
        "dport=80 ,proto=6 -> accept",
        "dport=*|80 -> accept",
        "dport=*-5 -> accept",
        "dport=5/ -> accept",
        "proto=6->accept",
        "dport=80\u{a0}|\u{2003}90 -> accept",
        "dport=8\u{a0}0 -> accept",
        "dport=80 -> accept\u{a0}# note",
    ] {
        check(&schema, text);
    }
}

#[test]
fn ipv4_reader_agrees_with_the_str_reader() {
    let mut rng = StdRng::seed_from_u64(7);
    let text = university_large().to_dsl();
    let quads: Vec<&str> = text
        .split(|c: char| !(c.is_ascii_digit() || c == '.'))
        .filter(|t| t.contains('.'))
        .collect();
    assert!(quads.len() > 100, "the policy names addresses");
    for _ in 0..2_000 {
        let quad = quads.choose(&mut rng).expect("quads");
        let input = mutate(&mut rng, quad).unwrap_or_else(|| (*quad).to_owned());
        let new = prefix::parse_ipv4(&input);
        let old = reference::parse_ipv4(&input);
        match (&new, &old) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{input:?}"),
            (Err(a), Err(b)) => assert_eq!(a, b, "{input:?}"),
            _ => panic!("{new:?} against {old:?} on {input:?}"),
        }
    }
}
