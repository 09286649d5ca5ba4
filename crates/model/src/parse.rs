//! A small human-readable rule DSL, mirroring how the paper presents rules
//! (Tables 1–7): one rule per line, unconstrained fields elided, IP fields
//! in dotted-quad or prefix notation.
//!
//! # Grammar
//!
//! ```text
//! firewall   := (line '\n')*
//! line       := comment | rule
//! comment    := '#' ...
//! rule       := predicate '->' decision
//! predicate  := '*' | constraint (',' constraint)*
//! constraint := field '=' valueset
//! valueset   := value ('|' value)*
//! value      := '*' | int | int '-' int | ipv4 | ipv4 '/' plen | ipv4 '-' ipv4
//! decision   := 'accept' | 'discard' | 'accept-log' | 'discard-log' | aliases
//! ```
//!
//! Whitespace around tokens is ignored. Fields may appear in any order; each
//! at most once per rule. [`crate::Firewall::to_dsl`] emits this format, so
//! policies round-trip through text.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), fw_model::ModelError> {
//! use fw_model::{parse::parse_rules, Schema};
//!
//! let rules = parse_rules(
//!     &Schema::tcp_ip(),
//!     "# block some well-known bad ports
//!      dport=135-139|445, proto=6 -> discard-log
//!      * -> accept",
//! )?;
//! assert_eq!(rules.len(), 2);
//! # Ok(())
//! # }
//! ```

// Policy text is untrusted input: no path from it may panic.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use crate::{
    Decision, FieldDef, Interval, IntervalSet, ModelError, Predicate, Prefix, Rule, Schema,
};

/// Parses a sequence of rules in the DSL, one per line; blank lines and
/// `#`-comments are skipped.
///
/// One pass over the text's bytes: each line is cut at its first `#` and
/// its last `->`, and each constraint's value set is built once, straight
/// into the rule's predicate. A rule whose sets are all single runs costs
/// one allocation, its predicate's set vector.
///
/// # Errors
///
/// Returns [`ModelError::Parse`] carrying the 1-based line number of the
/// first offending line, or a validation error from predicate construction.
pub fn parse_rules(schema: &Schema, text: &str) -> Result<Vec<Rule>, ModelError> {
    let mut parser = Parser::new(schema);
    let mut rules = Vec::new();
    for (idx, raw) in text.as_bytes().split(|&b| b == b'\n').enumerate() {
        // `#` starts a comment, whether at line start or trailing a rule.
        let line = trim(before(raw, b'#'));
        if line.is_empty() {
            continue;
        }
        rules.push(parser.rule(line, idx + 1)?);
    }
    Ok(rules)
}

/// Parses a single rule in the DSL (no trailing newline).
///
/// # Errors
///
/// As for [`parse_rules`], with line number 1.
pub fn parse_rule(schema: &Schema, line: &str) -> Result<Rule, ModelError> {
    Parser::new(schema).rule(trim(line.as_bytes()), 1)
}

/// Reads a dotted-quad IPv4 address to its 32-bit integer: exactly four
/// `.`-separated octets, each a decimal integer of at most 255. The DSL and
/// [`crate::iptables`] read addresses through [`crate::prefix::parse_ipv4`],
/// which is this reader.
pub(crate) fn ipv4(text: &[u8]) -> Result<u64, ModelError> {
    if text.iter().filter(|&&b| b == b'.').count() != 3 {
        return Err(err(
            0,
            format!("`{}` is not a dotted-quad IPv4 address", lossy(text)),
        ));
    }
    let mut v: u64 = 0;
    for part in text.split(|&b| b == b'.') {
        let octet = uint(part)
            .ok_or_else(|| err(0, format!("`{}` is not a valid IPv4 octet", lossy(part))))?;
        if octet > 255 {
            return Err(err(0, format!("IPv4 octet {octet} exceeds 255")));
        }
        v = (v << 8) | octet;
    }
    Ok(v)
}

/// The rule scanner of one parse: the schema, plus a buffer for the
/// alternatives of a value set, reused from one set to the next.
struct Parser<'s> {
    schema: &'s Schema,
    alternatives: Vec<Interval>,
}

impl<'s> Parser<'s> {
    fn new(schema: &'s Schema) -> Self {
        Parser {
            schema,
            alternatives: Vec::new(),
        }
    }

    /// One trimmed, comment-free rule: `predicate -> decision`.
    ///
    /// The checks run in a fixed order, so a line with several faults
    /// reports the first: the arrow, the decision, then each constraint
    /// from left to right (its name, whether it repeats a field, each
    /// alternative of its value set, and last the field's domain).
    fn rule(&mut self, line: &[u8], line_no: usize) -> Result<Rule, ModelError> {
        let (pred, dec) =
            rsplit_arrow(line).ok_or_else(|| err(line_no, "expected `predicate -> decision`"))?;
        let dec = trim(dec);
        let decision: Decision = match std::str::from_utf8(dec) {
            Ok(name) => name.parse().map_err(|e| at_line(e, line_no))?,
            Err(_) => return Err(err(line_no, format!("unknown decision `{}`", lossy(dec)))),
        };
        let predicate = self.predicate(trim(pred), line_no)?;
        Ok(Rule::new(predicate, decision))
    }

    fn predicate(&mut self, text: &[u8], line_no: usize) -> Result<Predicate, ModelError> {
        let schema = self.schema;
        if text == b"*" {
            return Ok(Predicate::any(schema));
        }
        if text.is_empty() {
            return Err(err(
                line_no,
                "empty predicate; use `*` to match all packets",
            ));
        }
        // A field's set stays empty until a constraint fills it; parsed
        // sets are never empty, so a filled slot is a repeated field.
        let mut sets = vec![IntervalSet::empty(); schema.len()];
        for part in text.split(|&b| b == b',') {
            let part = trim(part);
            if part.is_empty() {
                return Err(err(line_no, "empty constraint between commas"));
            }
            let (name, value) = split_once(part, b'=').ok_or_else(|| {
                err(
                    line_no,
                    format!("expected `field=value` in `{}`", lossy(part)),
                )
            })?;
            let name = trim(name);
            let (slot, field) = sets
                .iter_mut()
                .zip(schema.iter())
                .find(|(_, (_, f))| f.name().as_bytes() == name)
                .map(|(slot, (_, f))| (slot, f))
                .ok_or_else(|| err(line_no, format!("unknown field `{}`", lossy(name))))?;
            if !slot.is_empty() {
                return Err(err(
                    line_no,
                    format!("field `{}` constrained twice", field.name()),
                ));
            }
            let set = self.value_set(trim(value), field, line_no)?;
            if let Some(max) = set.max_value() {
                if max > field.max() {
                    return Err(ModelError::OutOfDomain {
                        field: field.name().to_owned(),
                        value: max,
                        max: field.max(),
                    });
                }
            }
            *slot = set;
        }
        for (slot, (_, field)) in sets.iter_mut().zip(schema.iter()) {
            if slot.is_empty() {
                *slot = IntervalSet::from_interval(field.domain());
            }
        }
        Ok(Predicate::from_sets_unchecked(sets))
    }

    /// `value ('|' value)*`, normalised into one canonical set.
    fn value_set(
        &mut self,
        text: &[u8],
        field: &FieldDef,
        line_no: usize,
    ) -> Result<IntervalSet, ModelError> {
        self.alternatives.clear();
        let mut first = None;
        for alt in text.split(|&b| b == b'|') {
            let alt = trim(alt);
            if alt.is_empty() {
                return Err(err(line_no, "empty alternative between `|`"));
            }
            let iv = value(alt, field, line_no)?;
            // The buffer holds the alternatives after the first, so a
            // single value allocates nothing.
            if first.is_none() {
                first = Some(iv);
            } else {
                self.alternatives.push(iv);
            }
        }
        Ok(IntervalSet::from_intervals(
            first.into_iter().chain(self.alternatives.drain(..)),
        ))
    }
}

/// One alternative: `*`, a prefix `base/plen`, a range `lo-hi` or a single
/// value, where `base`, `lo`, `hi` and the value are integers or dotted
/// quads (a dotted quad holds no `-`, so the first `-` splits a range).
fn value(text: &[u8], field: &FieldDef, line_no: usize) -> Result<Interval, ModelError> {
    if text == b"*" {
        return Ok(field.domain());
    }
    if let Some((base, plen_text)) = split_once(text, b'/') {
        let v = scalar(trim(base), line_no)?;
        let plen = uint(trim(plen_text))
            .and_then(|p| u32::try_from(p).ok())
            .ok_or_else(|| {
                err(
                    line_no,
                    format!("invalid prefix length `{}`", lossy(plen_text)),
                )
            })?;
        return Ok(Prefix::new(v, plen, field.bits())?.interval());
    }
    if let Some((lo, hi)) = split_once(text, b'-') {
        let lo = scalar(trim(lo), line_no)?;
        let hi = scalar(trim(hi), line_no)?;
        return Interval::new(lo, hi);
    }
    Ok(Interval::point(scalar(text, line_no)?))
}

/// A dotted quad if the token holds a `.`, else a decimal integer.
fn scalar(text: &[u8], line_no: usize) -> Result<u64, ModelError> {
    if text.contains(&b'.') {
        ipv4(text).map_err(|e| at_line(e, line_no))
    } else {
        uint(text).ok_or_else(|| err(line_no, format!("invalid integer `{}`", lossy(text))))
    }
}

/// A decimal integer as `u64::from_str` reads one: an optional `+`, then
/// at least one digit, with no overflow.
fn uint(text: &[u8]) -> Option<u64> {
    let digits = match text.split_first() {
        Some((b'+', rest)) => rest,
        _ => text,
    };
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u64, |acc, &b| {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            return None;
        }
        acc.checked_mul(10)?.checked_add(u64::from(digit))
    })
}

/// The bytes before the first `delim`, or all of them.
fn before(bytes: &[u8], delim: u8) -> &[u8] {
    split_once(bytes, delim).map_or(bytes, |(head, _)| head)
}

/// `bytes` split around its first `delim`.
fn split_once(bytes: &[u8], delim: u8) -> Option<(&[u8], &[u8])> {
    let at = bytes.iter().position(|&b| b == delim)?;
    let (head, tail) = bytes.split_at_checked(at)?;
    Some((head, tail.get(1..)?))
}

/// `bytes` split around its last `->`.
fn rsplit_arrow(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    let at = bytes.windows(2).rposition(|w| w == b"->")?;
    let (head, tail) = bytes.split_at_checked(at)?;
    Some((head, tail.get(2..)?))
}

/// `bytes` without leading and trailing whitespace, as `str::trim` strips
/// it: ASCII whitespace byte by byte, and the multi-byte Unicode spaces
/// through `str::trim` when a non-ASCII byte is left at either end.
fn trim(bytes: &[u8]) -> &[u8] {
    let ws = |b: &u8| matches!(b, b'\t'..=b'\r' | b' ');
    let start = bytes.iter().position(|b| !ws(b)).unwrap_or(bytes.len());
    let end = bytes.iter().rposition(|b| !ws(b)).map_or(start, |e| e + 1);
    let t = bytes.get(start..end).unwrap_or_default();
    let wide_end = |b: Option<&u8>| b.is_some_and(|b| !b.is_ascii());
    if wide_end(t.first()) || wide_end(t.last()) {
        // Cut at ASCII bytes or at whitespace, so still whole characters.
        if let Ok(s) = std::str::from_utf8(t) {
            return s.trim().as_bytes();
        }
    }
    t
}

fn lossy(bytes: &[u8]) -> std::borrow::Cow<'_, str> {
    String::from_utf8_lossy(bytes)
}

fn err(line: usize, message: impl Into<String>) -> ModelError {
    ModelError::Parse {
        line,
        message: message.into(),
    }
}

/// `e` with its parse line set to `line`; other errors pass through.
fn at_line(e: ModelError, line: usize) -> ModelError {
    match e {
        ModelError::Parse { message, .. } => err(line, message),
        other => other,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use crate::FieldId;

    fn schema() -> Schema {
        Schema::paper_example()
    }

    #[test]
    fn parses_star_rule() {
        let r = parse_rule(&schema(), "* -> accept").unwrap();
        assert!(r.predicate().is_any(&schema()));
        assert_eq!(r.decision(), Decision::Accept);
    }

    #[test]
    fn parses_fields_in_any_order() {
        let a = parse_rule(&schema(), "dport=25, iface=0 -> discard").unwrap();
        let b = parse_rule(&schema(), "iface=0, dport=25 -> discard").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parses_ip_forms() {
        let r = parse_rule(&schema(), "src=224.168.0.0/16 -> discard").unwrap();
        let s = r.predicate().set(FieldId(1));
        assert_eq!(
            s.as_single_interval().unwrap(),
            Interval::new(0xE0A8_0000, 0xE0A8_FFFF).unwrap()
        );

        let r = parse_rule(&schema(), "src=10.0.0.1 -> accept").unwrap();
        assert_eq!(
            r.predicate().set(FieldId(1)),
            &IntervalSet::from_value(0x0A00_0001)
        );

        let r = parse_rule(&schema(), "src=10.0.0.1-10.0.0.9 -> accept").unwrap();
        assert_eq!(
            r.predicate().set(FieldId(1)).as_single_interval().unwrap(),
            Interval::new(0x0A00_0001, 0x0A00_0009).unwrap()
        );
    }

    #[test]
    fn parses_unions_and_ranges() {
        let r = parse_rule(&schema(), "dport=25|80|1024-2047 -> accept").unwrap();
        let s = r.predicate().set(FieldId(3));
        assert!(s.contains(25) && s.contains(80) && s.contains(1500));
        assert!(!s.contains(26) && !s.contains(2048));
        assert_eq!(s.run_count(), 3);
    }

    #[test]
    fn parses_star_value_for_one_field() {
        let r = parse_rule(&schema(), "dport=*, iface=1 -> accept").unwrap();
        assert!(r
            .predicate()
            .set(FieldId(3))
            .covers(Interval::new(0, 65535).unwrap()));
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "accept",                     // no arrow
            "-> accept",                  // empty predicate
            "iface -> accept",            // no '='
            "iface=0 iface=1 -> accept",  // missing comma => bad value
            "iface=0, iface=1 -> accept", // duplicate field
            "nosuch=3 -> accept",         // unknown field
            "iface=5 -> accept",          // out of domain
            "dport=9-2 -> accept",        // inverted interval
            "dport=| -> accept",          // empty alternative
            "* -> reject",                // unknown decision
            "src=1.2.3.4.5 -> accept",    // bad IP
        ] {
            assert!(parse_rule(&schema(), bad).is_err(), "should reject `{bad}`");
        }
    }

    #[test]
    fn line_numbers_reported() {
        let text = "* -> accept\nwat\n";
        match parse_rules(&schema(), text) {
            Err(ModelError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let rules = parse_rules(
            &schema(),
            "\n# heading\n   \niface=0 -> discard\n# tail\n* -> accept\n",
        )
        .unwrap();
        assert_eq!(rules.len(), 2);
    }

    #[test]
    fn trailing_comments_stripped() {
        let rules = parse_rules(
            &schema(),
            "iface=0 -> discard   # block inbound\n* -> accept# default\n",
        )
        .unwrap();
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[1].decision(), Decision::Accept);
    }

    #[test]
    fn prefix_zero_over_integer_field() {
        let r = parse_rule(&schema(), "dport=0/0 -> accept").unwrap();
        assert!(r
            .predicate()
            .set(FieldId(3))
            .covers(Interval::new(0, 65535).unwrap()));
    }
}
