//! Seeded input generation. Everything here runs outside the timed
//! regions, and each generator holds only what the next operation needs.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use fw_core::Edit;
use fw_model::{Firewall, Packet, Rule, Schema};
use fw_synth::{EvolutionProfile, PacketTrace};

/// Fig. 12 perturbation share of every policy variant (fleet tenants and
/// the diff's second policy).
pub const VARIANT_PERCENT: u32 = 5;

/// A splitmix64 generator: small, seedable, and stable across releases.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A seed for item `i` of input stream `stream` of the run seeded `seed`:
/// streams and items never share a seed, and neighbouring items are
/// decorrelated.
pub fn derive(seed: u64, stream: u64, i: u64) -> u64 {
    let mut g = SplitMix::new(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
    g.0 = g.0.wrapping_add(i.wrapping_mul(0x8cb9_2ba7_2f3d_8dd7));
    g.next_u64()
}

/// Ranks `0..n` drawn with probability proportional to `(rank + 1)^-s`,
/// by inverse-CDF sampling (the popularity model of
/// `PacketTrace::zipf`).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Zipf over `n >= 1` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let cdf = (1..=n.max(1))
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut SplitMix) -> usize {
        let total = *self.cdf.last().expect("at least one rank");
        let u = rng.unit() * total;
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A fixed pool of flows and a Zipf popularity over it.
#[derive(Debug)]
pub struct FlowPool {
    flows: Vec<Packet>,
    zipf: Zipf,
    schema: Schema,
}

impl FlowPool {
    /// `flows` flows sampled near `fw`'s rules (scatter 0.3, as in
    /// `PacketTrace::zipf`), ranked by pool position under exponent `s`.
    pub fn new(fw: &Firewall, flows: usize, s: f64, seed: u64) -> FlowPool {
        let pool = PacketTrace::biased(fw, flows, 0.3, seed);
        FlowPool {
            flows: pool.packets().to_vec(),
            zipf: Zipf::new(flows, s),
            schema: fw.schema().clone(),
        }
    }

    /// A burst of `n` packets drawn from the pool.
    pub fn burst(&self, n: usize, rng: &mut SplitMix) -> PacketTrace {
        let packets = (0..n)
            .map(|_| self.flows[self.zipf.sample(rng)].clone())
            .collect();
        PacketTrace::new(self.schema.clone(), packets).expect("pool flows are valid")
    }
}

/// Administrative edits whose inserts come from `fw_synth::evolve` (new
/// threat blocks at the top, new services above the default) and whose
/// deletes retire the oldest rules the stream inserted, so the policy is
/// always the starting policy plus a bounded window of recent rules.
///
/// Balancing inserts with deletes of arbitrary rules keeps the rule count
/// near its start but not the policy's shape: random rules accumulate and
/// the diagram, and with it the cost of every edit, grows with run length.
#[derive(Debug)]
pub struct EditStream {
    current: Firewall,
    inserted: VecDeque<Rule>,
    seed: u64,
    batches: u64,
}

/// Rules of the stream's own that stay in the policy at most.
const LIVE_INSERTS: usize = 8;

impl EditStream {
    /// A stream of edits against `start`.
    pub fn new(start: Firewall, seed: u64) -> EditStream {
        EditStream {
            current: start,
            inserted: VecDeque::new(),
            seed,
            batches: 0,
        }
    }

    /// The next batch of `k` edits, applied in order — retirements first,
    /// up to half the batch, then inserts — and the policy after them (the
    /// reference the verdict checks use).
    pub fn next_batch(&mut self, k: usize) -> (Vec<Edit>, &Firewall) {
        let mut edits = Vec::with_capacity(k);
        while edits.len() < k / 2 && self.inserted.len() + k / 2 > LIVE_INSERTS {
            let rule = self.inserted.pop_front().expect("checked non-empty");
            let last = self.current.len() - 1;
            match self.current.rules()[..last].iter().position(|r| *r == rule) {
                Some(index) => edits.push(self.apply(Edit::Remove { index })),
                None => continue,
            }
        }
        let profile = EvolutionProfile {
            w_block_threat: 1,
            w_open_service: 1,
            w_delete: 0,
            w_swap: 0,
            w_flip_decision: 0,
        };
        let seed = derive(self.seed, 0xED17, self.batches);
        self.batches += 1;
        for step in fw_synth::evolve(&self.current, k - edits.len(), &profile, seed) {
            if let Edit::Insert { rule, .. } = &step.edit {
                self.inserted.push_back(rule.clone());
            }
            edits.push(step.edit);
            self.current = step.after;
        }
        (edits, &self.current)
    }

    fn apply(&mut self, edit: Edit) -> Edit {
        self.current = edit
            .apply(&self.current)
            .expect("retiring a non-default rule keeps the policy valid");
        edit
    }
}

/// Writes on a wall-clock cadence: the k-th write is due `k × period`
/// after the measurement began. The workload's memory grows with every
/// write, so a run must perform the same number of writes however fast its
/// requests go.
#[derive(Debug)]
pub struct Cadence {
    start: Instant,
    period: Option<Duration>,
    done: u32,
}

impl Cadence {
    /// A cadence starting now; `None` never falls due.
    pub fn new(period: Option<Duration>) -> Cadence {
        Cadence {
            start: Instant::now(),
            period,
            done: 0,
        }
    }

    /// Whether the next write is due; counts it when it is.
    pub fn due(&mut self) -> bool {
        self.due_at(self.start.elapsed())
    }

    fn due_at(&mut self, elapsed: Duration) -> bool {
        match self.period {
            Some(period) if elapsed >= period * (self.done + 1) => {
                self.done += 1;
                true
            }
            _ => false,
        }
    }
}

/// A Fig. 12 variant of `base` (5% of rules selected, a random share of
/// them flipped and the rest deleted).
pub fn variant(base: &Firewall, seed: u64) -> Firewall {
    fw_synth::perturb(base, VARIANT_PERCENT, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cadence_falls_due_once_per_period() {
        let mut never = Cadence::new(None);
        assert!(!never.due_at(Duration::from_secs(60)));
        let ms = Duration::from_millis;
        let mut c = Cadence::new(Some(ms(20)));
        assert!(!c.due_at(ms(19)));
        // Late by more than a period: both writes fall due, one at a time.
        assert!(c.due_at(ms(45)));
        assert!(c.due_at(ms(45)));
        assert!(!c.due_at(ms(45)));
        assert!(c.due_at(ms(60)));
    }

    #[test]
    fn derived_seeds_are_deterministic_and_distinct() {
        assert_eq!(derive(7, 1, 2), derive(7, 1, 2));
        assert_ne!(derive(7, 1, 2), derive(7, 1, 3));
        assert_ne!(derive(7, 1, 2), derive(7, 2, 2));
        assert_ne!(derive(7, 1, 2), derive(8, 1, 2));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(4096, 1.0);
        let mut rng = SplitMix::new(3);
        let draws: Vec<usize> = (0..20_000).map(|_| z.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&r| r < 4096));
        let top = draws.iter().filter(|&&r| r == 0).count();
        // 1 / H_4096 is about 11%.
        assert!((1_500..3_000).contains(&top), "top rank drawn {top} times");
    }

    #[test]
    fn edit_stream_retires_what_it_inserts() {
        let base = fw_synth::university_average();
        let mut edits = EditStream::new(base.clone(), 11);
        for _ in 0..50 {
            let (batch, after) = edits.next_batch(4);
            assert_eq!(batch.len(), 4);
            assert!(after.len() <= base.len() + LIVE_INSERTS);
        }
        // Every rule of the starting policy is still there, in order.
        let (_, after) = edits.next_batch(4);
        let kept: Vec<_> = after
            .rules()
            .iter()
            .filter(|r| base.rules().contains(r))
            .collect();
        assert_eq!(kept, base.rules().iter().collect::<Vec<_>>());
    }
}
