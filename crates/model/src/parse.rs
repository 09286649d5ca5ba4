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
//! # One cursor per line
//!
//! [`parse_rules`] reads each line once. One forward scan, eight bytes a
//! step, finds the line's end and its first `#`, where a comment starts. A
//! backward scan over the decision alone finds the line's last `->`. Then
//! a byte cursor lexes the predicate left to right: a field name up to `=`,
//! then alternatives separated by `|`, each `*` or an integer or dotted
//! quad read digit by digit and octet by octet, with an optional `/plen` or
//! `-hi`, then `,` or the arrow. Whitespace is skipped only between tokens.
//! There it is stripped exactly as `str::trim` strips it: a non-ASCII byte
//! is decoded, and its character skipped if it is whitespace. Field names
//! resolve through a table built once per call. Each finished value set
//! goes straight into the rule's predicate vector, so a rule whose sets are
//! all single runs costs one allocation, and its rules need no second
//! validation.
//!
//! Only a failed read looks at a token again, to name what is wrong with
//! it: [`crate::prefix::parse_ipv4`] words its errors octet by octet, as
//! the `iptables-save` importer reports them.
//!
//! # Errors, in order
//!
//! A line with several faults reports the first of these:
//!
//! 1. no `->`;
//! 2. an unknown decision;
//! 3. an empty predicate;
//! 4. then each constraint from left to right: its shape (nothing between
//!    commas, no `=`), an unknown field, a field it repeats, each
//!    alternative in turn, and last the field's domain
//!    ([`ModelError::OutOfDomain`]).
//!
//! An alternative is lexed to its end before it is checked, so a malformed
//! one is a [`ModelError::Parse`] whatever it holds. A well-formed one can
//! then fail [`Prefix::new`] (a prefix longer than the field) or
//! [`Interval::new`] (a reversed range). Every [`ModelError::Parse`]
//! carries the 1-based line number.
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
    Decision, FieldDef, FieldId, Interval, IntervalSet, ModelError, Predicate, Prefix, Rule, Schema,
};

/// Parses a sequence of rules in the DSL, one per line; blank lines and
/// `#`-comments are skipped.
///
/// # Errors
///
/// Returns [`ModelError::Parse`] carrying the 1-based line number of the
/// first offending line, or a validation error from predicate construction.
pub fn parse_rules(schema: &Schema, text: &str) -> Result<Vec<Rule>, ModelError> {
    let mut parser = Parser::new(schema);
    let mut rules = Vec::new();
    let bytes = text.as_bytes();
    let mut start = 0;
    let mut line_no = 0;
    while start < bytes.len() {
        line_no += 1;
        // The line's end, and its first `#`: a comment runs to the end.
        let stop = start + find_either(bytes.get(start..).unwrap_or_default(), b'\n', b'#');
        let end = match bytes.get(stop) {
            Some(b'#') => stop + find_either(bytes.get(stop..).unwrap_or_default(), b'\n', b'\n'),
            _ => stop,
        };
        let line = trim(text.get(start..stop).unwrap_or_default());
        if !line.is_empty() {
            rules.push(parser.rule(line, line_no)?);
        }
        start = end + 1;
    }
    Ok(rules)
}

/// Parses a single rule in the DSL (no trailing newline).
///
/// # Errors
///
/// As for [`parse_rules`], with line number 1.
pub fn parse_rule(schema: &Schema, line: &str) -> Result<Rule, ModelError> {
    Parser::new(schema).rule(trim(line), 1)
}

/// Reads a dotted-quad IPv4 address to its 32-bit integer: exactly four
/// `.`-separated octets, each a decimal integer of at most 255. The DSL and
/// [`crate::iptables`] read addresses through [`crate::prefix::parse_ipv4`],
/// which is this reader.
pub(crate) fn ipv4(text: &str) -> Result<u64, ModelError> {
    let mut cur = Cursor::new(text);
    cur.number()
        .and_then(|first| cur.octets(first))
        .filter(|_| cur.at_end())
        .ok_or_else(|| err(0, quad_fault(text).1))
}

/// The rule reader of one parse: the schema and its names, plus a buffer
/// for the alternatives of a value set, reused from one set to the next.
struct Parser<'s> {
    schema: &'s Schema,
    names: Names,
    alternatives: Vec<Interval>,
}

impl<'s> Parser<'s> {
    fn new(schema: &'s Schema) -> Self {
        Parser {
            schema,
            names: Names::new(schema),
            alternatives: Vec::new(),
        }
    }

    /// One trimmed, comment-free rule: `predicate -> decision`.
    fn rule(&mut self, line: &str, line_no: usize) -> Result<Rule, ModelError> {
        let bytes = line.as_bytes();
        // The `>` of the last `->`, found from the end: only the decision
        // lies after it.
        let gt = (1..bytes.len())
            .rev()
            .find(|&at| bytes.get(at) == Some(&b'>') && bytes.get(at - 1) == Some(&b'-'))
            .ok_or_else(|| err(line_no, "expected `predicate -> decision`"))?;
        let decision: Decision = line
            .get(gt + 1..)
            .unwrap_or_default()
            .trim_start()
            .parse()
            .map_err(|e| at_line(e, line_no))?;
        let predicate = self.predicate(line.get(..gt - 1).unwrap_or_default(), line_no)?;
        Ok(Rule::new(predicate, decision))
    }

    /// The predicate, lexed left to right from its first token.
    fn predicate(&mut self, text: &str, line_no: usize) -> Result<Predicate, ModelError> {
        let schema = self.schema;
        let mut cur = Cursor::new(text);
        if cur.eat(b'*') {
            cur.skip_ws();
            if cur.at_end() {
                return Ok(Predicate::any(schema));
            }
            cur.pos = 0;
        }
        if cur.at_end() {
            return Err(err(
                line_no,
                "empty predicate; use `*` to match all packets",
            ));
        }
        // A field's set stays empty until a constraint fills it; parsed
        // sets are never empty, so a filled slot is a repeated field.
        let mut sets = Vec::with_capacity(schema.len());
        sets.resize_with(schema.len(), IntervalSet::empty);
        loop {
            cur.skip_ws();
            // The name runs to `=`; a `,` or the end first leaves none.
            let start = cur.pos;
            cur.pos = cur.find_either(b'=', b',');
            let name = cur.since(start);
            if !cur.eat(b'=') {
                return Err(err(
                    line_no,
                    if name.is_empty() {
                        "empty constraint between commas".to_owned()
                    } else {
                        format!("expected `field=value` in `{}`", name.trim_end())
                    },
                ));
            }
            let name = match name.as_bytes().last() {
                Some(&b) if is_plain(b) => name,
                _ => name.trim_end(),
            };
            let (slot, field) = self
                .names
                .find(schema, name)
                .and_then(|(at, field)| Some((sets.get_mut(at)?, field)))
                .ok_or_else(|| err(line_no, format!("unknown field `{name}`")))?;
            if !slot.is_empty() {
                return Err(err(
                    line_no,
                    format!("field `{}` constrained twice", field.name()),
                ));
            }
            let set = self.value_set(&mut cur, field, line_no)?;
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
            if !cur.eat(b',') {
                break;
            }
        }
        for (slot, (_, field)) in sets.iter_mut().zip(schema.iter()) {
            if slot.is_empty() {
                *slot = IntervalSet::from_interval(field.domain());
            }
        }
        Ok(Predicate::from_sets_unchecked(sets))
    }

    /// `value ('|' value)*`, normalised into one canonical set. Leaves the
    /// cursor on the `,` or at the end that closes it.
    fn value_set(
        &mut self,
        cur: &mut Cursor<'_>,
        field: &FieldDef,
        line_no: usize,
    ) -> Result<IntervalSet, ModelError> {
        let first = alternative(cur, field, line_no)?;
        if !cur.eat(b'|') {
            return Ok(IntervalSet::from_interval(first));
        }
        // The buffer holds the alternatives after the first, so a single
        // value allocates nothing.
        self.alternatives.clear();
        loop {
            self.alternatives.push(alternative(cur, field, line_no)?);
            if !cur.eat(b'|') {
                break;
            }
        }
        Ok(IntervalSet::from_intervals(
            std::iter::once(first).chain(self.alternatives.drain(..)),
        ))
    }
}

/// One alternative at the cursor: a value with an optional `/plen` or
/// `-hi`, where values are integers or dotted quads, or `*`. It is lexed up
/// to its closing `|`, `,` or end before the prefix or range is built, so a
/// malformed alternative is a parse error whatever its numbers.
#[inline]
fn alternative(
    cur: &mut Cursor<'_>,
    field: &FieldDef,
    line_no: usize,
) -> Result<Interval, ModelError> {
    cur.skip_ws();
    let start = cur.pos;
    let Some(lo) = cur.scalar() else {
        return not_a_value(cur, start, field, line_no);
    };
    cur.skip_ws();
    let sep = match cur.peek() {
        None | Some(b'|' | b',') => return Ok(Interval::point(lo)),
        Some(sep @ (b'/' | b'-')) => sep,
        Some(_) => return Err(bad_scalar(cur.token(start, b",|/-"), line_no)),
    };
    cur.pos += 1;
    cur.skip_ws();
    let at = cur.pos;
    if sep == b'/' {
        let plen = cur.number().and_then(|p| u32::try_from(p).ok());
        cur.skip_ws();
        return match plen {
            Some(plen) if cur.at_alternative_end() => {
                Ok(Prefix::new(lo, plen, field.bits())?.interval())
            }
            _ => Err(err(
                line_no,
                format!("invalid prefix length `{}`", cur.token(at, b",|")),
            )),
        };
    }
    let hi = cur.scalar();
    cur.skip_ws();
    match hi {
        Some(hi) if cur.at_alternative_end() => Interval::new(lo, hi),
        _ => Err(bad_scalar(cur.token(at, b",|"), line_no)),
    }
}

/// The alternative at `start`, where no value could be read: `*`, or a
/// fault.
#[cold]
fn not_a_value(
    cur: &mut Cursor<'_>,
    start: usize,
    field: &FieldDef,
    line_no: usize,
) -> Result<Interval, ModelError> {
    cur.pos = start;
    if cur.at_alternative_end() {
        return Err(err(line_no, "empty alternative between `|`"));
    }
    if cur.eat(b'*') {
        cur.skip_ws();
        if cur.at_alternative_end() {
            return Ok(field.domain());
        }
    }
    Err(bad_scalar(cur.token(start, b",|/-"), line_no))
}

/// A byte cursor over `text`.
struct Cursor<'t> {
    text: &'t str,
    pos: usize,
}

impl<'t> Cursor<'t> {
    fn new(text: &'t str) -> Self {
        Cursor { text, pos: 0 }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn at_end(&self) -> bool {
        self.pos >= self.text.len()
    }

    /// Whether the cursor is where an alternative may end.
    fn at_alternative_end(&self) -> bool {
        matches!(self.peek(), Some(b'|' | b',') | None)
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    /// The text from `start` to the cursor.
    fn since(&self, start: usize) -> &'t str {
        self.text.get(start..self.pos).unwrap_or_default()
    }

    /// The text from the cursor to the end.
    fn rest(&self) -> &'t str {
        self.text.get(self.pos..).unwrap_or_default()
    }

    /// The position of the first `a` or `b` from the cursor on, or the end.
    fn find_either(&self, a: u8, b: u8) -> usize {
        self.pos + find_either(self.rest().as_bytes(), a, b)
    }

    /// Skips whitespace between tokens, as `str::trim` strips it: ASCII
    /// whitespace byte by byte, and a non-ASCII character if it is
    /// whitespace.
    #[inline]
    fn skip_ws(&mut self) {
        // A printable ASCII byte, what follows most tokens, is never one.
        if self.peek().is_some_and(|b| b.wrapping_sub(b'!') < 0x5e) {
            return;
        }
        while let Some(b) = self.peek() {
            if matches!(b, b'\t'..=b'\r' | b' ') {
                self.pos += 1;
            } else if b < 0x80 || !self.skip_wide() {
                return;
            }
        }
    }

    /// Skips the non-ASCII character at the cursor if it is whitespace.
    #[cold]
    fn skip_wide(&mut self) -> bool {
        match self.rest().chars().next() {
            Some(c) if c.is_whitespace() => {
                self.pos += c.len_utf8();
                true
            }
            _ => false,
        }
    }

    /// A decimal integer as `u64::from_str` reads one: an optional `+`,
    /// then at least one digit, with no overflow. Nineteen digits cannot
    /// overflow, so only a longer run is read again with checks.
    fn number(&mut self) -> Option<u64> {
        self.eat(b'+');
        let start = self.pos;
        let mut v: u64 = 0;
        while let Some(digit) = self
            .peek()
            .map(|b| b.wrapping_sub(b'0'))
            .filter(|&d| d <= 9)
        {
            v = v.wrapping_mul(10).wrapping_add(u64::from(digit));
            self.pos += 1;
        }
        match self.pos - start {
            0 => None,
            1..=19 => Some(v),
            _ => self.since(start).as_bytes().iter().try_fold(0u64, |v, &b| {
                v.checked_mul(10)?
                    .checked_add(u64::from(b.wrapping_sub(b'0')))
            }),
        }
    }

    /// An integer, or a dotted quad if a `.` follows the first number.
    fn scalar(&mut self) -> Option<u64> {
        let first = self.number()?;
        if self.peek() == Some(b'.') {
            self.octets(first)
        } else {
            Some(first)
        }
    }

    /// The rest of a dotted quad whose first octet is `first`: three more
    /// `.`-separated octets and no fifth, each at most 255.
    #[inline]
    fn octets(&mut self, first: u64) -> Option<u64> {
        let octet = |v: u64| (v <= 255).then_some(v);
        let mut v = octet(first)?;
        for _ in 0..3 {
            if !self.eat(b'.') {
                return None;
            }
            v = (v << 8) | octet(self.number()?)?;
        }
        (self.peek() != Some(b'.')).then_some(v)
    }

    /// The token from `start` to the first of `stops` or the end, without
    /// trailing whitespace: what an error names.
    fn token(&self, start: usize, stops: &[u8]) -> &'t str {
        let tail = self.text.get(start..).unwrap_or_default();
        let end = tail.bytes().position(|b| stops.contains(&b));
        tail.get(..end.unwrap_or(tail.len()))
            .unwrap_or_default()
            .trim_end()
    }
}

/// `line` without leading and trailing whitespace, as `str::trim` strips
/// it; a line that starts and ends with a plain byte is taken as it is.
fn trim(line: &str) -> &str {
    let bytes = line.as_bytes();
    match (bytes.first(), bytes.last()) {
        (Some(&a), Some(&b)) if is_plain(a) && is_plain(b) => line,
        _ => line.trim(),
    }
}

/// Whether `b` is an ASCII byte `str::trim` keeps: neither whitespace nor
/// the start of a multi-byte character.
fn is_plain(b: u8) -> bool {
    b > b' ' && b < 0x80
}

/// Bytes `0x01` repeated: `BYTES * b` is `b` in every byte of a word.
const BYTES: u64 = u64::from_le_bytes([1; 8]);

/// The index of the first `a` or `b` in `bytes`, or its length. Eight bytes
/// a step: a byte equal to `a` is a zero byte of the word xor `a` in every
/// byte, and `(x - BYTES) & !x` has the top bit set in `x`'s first zero
/// byte (later bytes may be marked too, but never an earlier one).
fn find_either(bytes: &[u8], a: u8, b: u8) -> usize {
    let zero = |x: u64| x.wrapping_sub(BYTES) & !x & (BYTES * 0x80);
    let (words, tail) = bytes.as_chunks::<8>();
    for (k, word) in words.iter().enumerate() {
        let x = u64::from_le_bytes(*word);
        let hits = zero(x ^ (BYTES * u64::from(a))) | zero(x ^ (BYTES * u64::from(b)));
        if hits != 0 {
            return 8 * k + (hits.trailing_zeros() / 8) as usize;
        }
    }
    let at = tail.iter().position(|&c| c == a || c == b);
    8 * words.len() + at.unwrap_or(tail.len())
}

/// The schema's field names, bucketed by first byte and length: per
/// bucket, the first field in schema order whose name falls in it. A name
/// is compared only from its bucket's first field on, so a lookup usually
/// compares one name. The table lives on the stack, so a parse allocates
/// only what its rules keep.
struct Names {
    /// `1 +` the field's index, or 0 for an empty bucket.
    heads: [usize; 256],
}

impl Names {
    fn new(schema: &Schema) -> Self {
        let mut heads = [0; 256];
        for (id, field) in schema.iter() {
            if let Some(head) = heads.get_mut(bucket(field.name())) {
                if *head == 0 {
                    *head = id.index() + 1;
                }
            }
        }
        Names { heads }
    }

    /// The index and definition of `schema`'s field called `name`.
    fn find<'s>(&self, schema: &'s Schema, name: &str) -> Option<(usize, &'s FieldDef)> {
        let head = self.heads.get(bucket(name))?.checked_sub(1)?;
        (head..schema.len()).find_map(|at| {
            let field = schema.get(FieldId(at))?;
            (field.name() == name).then_some((at, field))
        })
    }
}

/// A name's bucket in [`Names`]: its first byte plus eight times its
/// length, modulo 256.
fn bucket(name: &str) -> usize {
    let first = name.as_bytes().first().copied().unwrap_or(0);
    (usize::from(first) + 8 * name.len()) & 0xff
}

/// Why a value token failed to read: as an integer if it holds no `.`,
/// else as a dotted quad.
fn bad_scalar(token: &str, line_no: usize) -> ModelError {
    match quad_fault(token) {
        (0, _) => err(line_no, format!("invalid integer `{token}`")),
        (_, message) => err(line_no, message),
    }
}

/// The number of `.`s in `token`, and why it is not a dotted quad, in the
/// words of an octet-by-octet reading: the wrong number of octets first,
/// else the first octet that is no integer or exceeds 255. Only a failed
/// read comes here.
fn quad_fault(token: &str) -> (usize, String) {
    let mut parts = 0;
    let mut fault = None;
    for part in token.split('.') {
        parts += 1;
        if fault.is_none() {
            fault = match part.parse::<u64>() {
                Err(_) => Some(format!("`{part}` is not a valid IPv4 octet")),
                Ok(octet) if octet > 255 => Some(format!("IPv4 octet {octet} exceeds 255")),
                Ok(_) => None,
            };
        }
    }
    match fault {
        Some(message) if parts == 4 => (3, message),
        _ => (
            parts - 1,
            format!("`{token}` is not a dotted-quad IPv4 address"),
        ),
    }
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
