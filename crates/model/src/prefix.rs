//! Prefix ↔ interval conversion (paper §7.1).
//!
//! Real firewall rules give IP fields in prefix notation (`192.168.0.0/16`)
//! and port/protocol fields as integer intervals. The paper's pipeline
//! converts prefixes to intervals on the way in (each prefix is exactly one
//! interval), runs the three FDD algorithms on intervals, and converts the
//! computed discrepancies back to prefixes on the way out so administrators
//! read familiar notation. A `w`-bit interval converts back to **at most
//! `2w − 2` prefixes** (Gupta & McKeown), a bound
//! [`interval_to_prefixes`] meets and the property tests verify.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{Interval, IntervalSet, ModelError};

/// A bit prefix over a `bits`-wide field: the set of values whose top
/// `plen` bits equal those of `value`.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), fw_model::ModelError> {
/// use fw_model::Prefix;
///
/// let p = Prefix::new(0xC0A8_0000, 16, 32)?; // 192.168.0.0/16
/// let iv = p.interval();
/// assert_eq!(iv.lo(), 0xC0A8_0000);
/// assert_eq!(iv.hi(), 0xC0A8_FFFF);
/// assert_eq!(p.to_string(), "192.168.0.0/16");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Prefix {
    value: u64,
    plen: u32,
    bits: u32,
}

impl Prefix {
    /// Creates the prefix `value/plen` over a `bits`-wide field. Bits of
    /// `value` below the prefix length are cleared.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidPrefixLen`] if `plen > bits`, and
    /// [`ModelError::InvalidFieldBits`] if `bits` is outside `1..=64`.
    pub fn new(value: u64, plen: u32, bits: u32) -> Result<Self, ModelError> {
        if bits == 0 || bits > 64 {
            return Err(ModelError::InvalidFieldBits {
                name: "<prefix>".to_owned(),
                bits,
            });
        }
        if plen > bits {
            return Err(ModelError::InvalidPrefixLen { plen, bits });
        }
        let host_bits = bits - plen;
        let masked = if host_bits >= 64 {
            0
        } else {
            (value >> host_bits) << host_bits
        };
        // Also clear anything above the field width.
        let masked = if bits == 64 {
            masked
        } else {
            masked & ((1u64 << bits) - 1)
        };
        Ok(Prefix {
            value: masked,
            plen,
            bits,
        })
    }

    /// The prefix value (low `bits − plen` bits are zero).
    pub fn value(self) -> u64 {
        self.value
    }

    /// The prefix length.
    pub fn plen(self) -> u32 {
        self.plen
    }

    /// The field width in bits.
    pub fn bits(self) -> u32 {
        self.bits
    }

    /// The interval of values covered by the prefix. Every prefix is exactly
    /// one interval (§7.1).
    pub fn interval(self) -> Interval {
        let host_bits = self.bits - self.plen;
        let span = if host_bits >= 64 {
            u64::MAX
        } else {
            (1u64 << host_bits) - 1
        };
        Interval::new(self.value, self.value | span).expect("prefix bounds are ordered")
    }

    /// Whether `v` matches the prefix.
    pub fn contains(self, v: u64) -> bool {
        self.interval().contains(v)
    }
}

impl fmt::Display for Prefix {
    /// 32-bit prefixes print as dotted quads (`192.168.0.0/16`); other
    /// widths print as `value/plen`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.bits == 32 {
            let v = self.value;
            write!(
                f,
                "{}.{}.{}.{}/{}",
                (v >> 24) & 0xFF,
                (v >> 16) & 0xFF,
                (v >> 8) & 0xFF,
                v & 0xFF,
                self.plen
            )
        } else {
            write!(f, "{}/{}", self.value, self.plen)
        }
    }
}

/// Converts an interval over a `bits`-wide field into the minimal list of
/// covering prefixes, ascending.
///
/// The classic greedy algorithm: repeatedly emit the largest prefix that
/// starts at the current low end and does not overshoot the high end. The
/// result has at most `2·bits − 2` prefixes for `bits ≥ 2` (§7.1).
///
/// # Errors
///
/// Returns [`ModelError::OutOfDomain`] if the interval exceeds the field
/// domain, and [`ModelError::InvalidFieldBits`] for an unsupported width.
pub fn interval_to_prefixes(iv: Interval, bits: u32) -> Result<Vec<Prefix>, ModelError> {
    if bits == 0 || bits > 64 {
        return Err(ModelError::InvalidFieldBits {
            name: "<prefix>".to_owned(),
            bits,
        });
    }
    let max = if bits == 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    };
    if iv.hi() > max {
        return Err(ModelError::OutOfDomain {
            field: "<prefix>".to_owned(),
            value: iv.hi(),
            max,
        });
    }
    let mut out = Vec::new();
    let mut lo = iv.lo();
    loop {
        // Largest host-bit count such that the block is aligned at `lo` and
        // fits inside [lo, hi].
        let mut host = lo.trailing_zeros().min(bits);
        loop {
            let span = if host >= 64 {
                u64::MAX
            } else {
                (1u64 << host) - 1
            };
            // Block is [lo, lo + span]; shrink while it overshoots hi.
            if span <= iv.hi().wrapping_sub(lo) {
                break;
            }
            host -= 1;
        }
        let plen = bits - host;
        out.push(Prefix::new(lo, plen, bits)?);
        let span = if host >= 64 {
            u64::MAX
        } else {
            (1u64 << host) - 1
        };
        let block_hi = lo + span;
        if block_hi >= iv.hi() {
            break;
        }
        lo = block_hi + 1;
    }
    Ok(out)
}

/// Converts an [`IntervalSet`] to prefixes by covering each maximal interval
/// independently; ascending overall.
///
/// # Errors
///
/// As for [`interval_to_prefixes`].
pub fn set_to_prefixes(set: &IntervalSet, bits: u32) -> Result<Vec<Prefix>, ModelError> {
    let mut out = Vec::new();
    for &iv in set.iter() {
        out.extend(interval_to_prefixes(iv, bits)?);
    }
    Ok(out)
}

/// Parses a dotted-quad IPv4 address (`a.b.c.d`) to its 32-bit integer,
/// with the rule DSL's own reader (see [`crate::parse`]).
///
/// # Errors
///
/// Returns [`ModelError::Parse`] on malformed input.
pub fn parse_ipv4(s: &str) -> Result<u64, ModelError> {
    crate::parse::ipv4(s)
}

/// Formats a 32-bit integer as a dotted-quad IPv4 address.
pub fn format_ipv4(v: u64) -> String {
    format!(
        "{}.{}.{}.{}",
        (v >> 24) & 0xFF,
        (v >> 16) & 0xFF,
        (v >> 8) & 0xFF,
        v & 0xFF
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: u64, hi: u64) -> Interval {
        Interval::new(lo, hi).unwrap()
    }

    #[test]
    fn prefix_interval_round_trip() {
        let p = Prefix::new(0xE0A8_0000, 16, 32).unwrap();
        assert_eq!(p.interval(), iv(0xE0A8_0000, 0xE0A8_FFFF));
        assert_eq!(p.to_string(), "224.168.0.0/16");
        // Host bits in the input value are masked off.
        let q = Prefix::new(0xE0A8_1234, 16, 32).unwrap();
        assert_eq!(q, p);
    }

    #[test]
    fn zero_length_prefix_covers_domain() {
        let p = Prefix::new(99, 0, 8).unwrap();
        assert_eq!(p.interval(), iv(0, 255));
        assert_eq!(p.value(), 0);
    }

    #[test]
    fn full_length_prefix_is_a_point() {
        let p = Prefix::new(42, 8, 8).unwrap();
        assert_eq!(p.interval(), iv(42, 42));
    }

    #[test]
    fn prefix_rejects_bad_lengths() {
        assert!(matches!(
            Prefix::new(0, 9, 8),
            Err(ModelError::InvalidPrefixLen { .. })
        ));
        assert!(matches!(
            Prefix::new(0, 0, 0),
            Err(ModelError::InvalidFieldBits { .. })
        ));
    }

    #[test]
    fn paper_example_interval_2_8_over_4_bits() {
        // §7.1: "the interval [2, 8] can be converted to three prefixes:
        // 001*, 01*, and 1000" (over 4 bits).
        let ps = interval_to_prefixes(iv(2, 8), 4).unwrap();
        assert_eq!(ps.len(), 3);
        assert_eq!(ps[0], Prefix::new(2, 3, 4).unwrap()); // 001*
        assert_eq!(ps[1], Prefix::new(4, 2, 4).unwrap()); // 01*
        assert_eq!(ps[2], Prefix::new(8, 4, 4).unwrap()); // 1000
    }

    #[test]
    fn conversion_covers_exactly() {
        for (lo, hi) in [(0u64, 255u64), (1, 254), (7, 7), (128, 129), (3, 200)] {
            let ps = interval_to_prefixes(iv(lo, hi), 8).unwrap();
            for v in 0..=255u64 {
                let covered = ps.iter().any(|p| p.contains(v));
                assert_eq!(covered, (lo..=hi).contains(&v), "value {v} for [{lo},{hi}]");
            }
        }
    }

    #[test]
    fn worst_case_meets_2w_minus_2_bound() {
        // [1, 2^w - 2] is the classical worst case: 2w - 2 prefixes.
        for w in [4u32, 8, 16] {
            let hi = (1u64 << w) - 2;
            let ps = interval_to_prefixes(iv(1, hi), w).unwrap();
            assert_eq!(ps.len(), (2 * w - 2) as usize, "width {w}");
        }
    }

    #[test]
    fn full_domain_is_one_prefix() {
        let ps = interval_to_prefixes(iv(0, u64::MAX), 64).unwrap();
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].plen(), 0);
    }

    #[test]
    fn set_to_prefixes_concatenates() {
        let s = IntervalSet::from_intervals(vec![iv(0, 3), iv(8, 11)]);
        let ps = set_to_prefixes(&s, 4).unwrap();
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[0].interval(), iv(0, 3));
        assert_eq!(ps[1].interval(), iv(8, 11));
    }

    #[test]
    fn ipv4_parse_and_format() {
        assert_eq!(parse_ipv4("192.168.0.1").unwrap(), 0xC0A8_0001);
        assert_eq!(format_ipv4(0xE0A8_0000), "224.168.0.0");
        assert!(parse_ipv4("1.2.3").is_err());
        assert!(parse_ipv4("1.2.3.256").is_err());
        assert!(parse_ipv4("a.b.c.d").is_err());
    }

    #[test]
    fn out_of_domain_interval_rejected() {
        assert!(matches!(
            interval_to_prefixes(iv(0, 300), 8),
            Err(ModelError::OutOfDomain { .. })
        ));
    }
}
