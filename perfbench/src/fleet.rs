//! `fleet`: a `PolicyRegistry` (defaults, no cache) of Fig. 12
//! 5%-perturbed variants of the 661-rule policy, one closed-loop client on
//! one thread.
//!
//! Why: it is the only workload on the registry and the shared subgraph
//! pool, and it measures the fleet target — per-tenant build and burst
//! throughput — as onboarding latency and request latency. A request is a
//! 64-packet burst of uniform packets addressed to one tenant, drawn with
//! Zipf skew over the tenants, timed from wire bytes to verdicts. Every
//! 125 ms the churn onboards a fresh variant and retires the oldest
//! tenant; both are timed on their own.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use fw_core::{ConsArena, ConsId, SuffixChain};
use fw_exec::{PacketBatch, SubgraphPool};
use fw_fleet::{PolicyRegistry, TenantId};
use fw_model::{Decision, Firewall, Schema};
use fw_synth::PacketTrace;

use crate::gen::{self, SplitMix, Zipf};
use crate::span::{breakdown, Recorder};
use crate::stats;
use crate::{Outcome, Params};

/// Tenants registered at set-up; `setup_s` adds all of them.
const INITIAL_TENANTS: u64 = 8;
/// Packets per request.
const BURST: usize = 64;
/// Wall time between churn steps (one onboarding, one retirement).
const CHURN_EVERY: Duration = Duration::from_millis(125);
/// Zipf exponent of tenant popularity (rank 0 = the oldest tenant).
const TENANT_SKEW: f64 = 1.0;
/// Every `CHECK_EVERY`-th request is checked, as is every onboarded tenant.
const CHECK_EVERY: u64 = 256;
/// The stated tail percentile of request latency, basis points.
const TAIL_BP: u32 = 9_500;
/// A traced run traces every `TRACE_EVERY`-th request, so that the span
/// buffer lasts the whole run.
const TRACE_EVERY: u64 = 8;

const STREAM_TENANTS: u64 = 11;
const STREAM_PACKETS: u64 = 12;
const STREAM_PICKS: u64 = 13;
const STREAM_CHECKS: u64 = 14;

/// `PolicyRegistry`'s shard maintenance: its arena is compacted once it
/// holds at least `ARENA_COMPACT_FLOOR` nodes and more than
/// `ARENA_GARBAGE_FACTOR` times the nodes its live policies reach.
const ARENA_COMPACT_FLOOR: usize = 16_384;
const ARENA_GARBAGE_FACTOR: usize = 4;

/// The registry's onboarding replayed outside it, so the chain build and
/// the pool's lowering can be timed apart. It receives the same tenants in
/// the same order, oldest first, and after each onboarding and retirement
/// runs the registry's shard maintenance, untimed, so that its arena and
/// pool stay those of the registry's one shard rather than growing with
/// the run.
struct Shadow {
    arena: ConsArena,
    pool: SubgraphPool,
    /// Each live tenant's arena root and pool root, oldest first.
    live: VecDeque<(ConsId, u32)>,
    /// Pool nodes reached from retired policies, counted as the registry
    /// counts them.
    pool_dead: usize,
}

impl Shadow {
    fn new(schema: &Schema) -> Shadow {
        Shadow {
            arena: ConsArena::new(schema.clone()),
            pool: SubgraphPool::new(schema.clone()),
            live: VecDeque::new(),
            pool_dead: 0,
        }
    }

    /// Onboards `policy` under a root span named `root_name`.
    fn onboard(
        &mut self,
        policy: &Firewall,
        root_name: &'static str,
        rec: &mut Recorder,
    ) -> Result<(), String> {
        let input = policy.clone();
        let root = rec.root(root_name);
        let done = (|| {
            let s = rec.open("cons.chain");
            let chain = SuffixChain::build(&mut self.arena, input);
            rec.close(s);
            let chain = chain.map_err(|e| e.to_string())?;
            let s = rec.open("shared.ensure");
            let ensured = self.pool.ensure(&self.arena, chain.root());
            rec.close(s);
            ensured
                .map(|node| (chain.root(), node))
                .map_err(|e| e.to_string())
        })();
        rec.close(root);
        self.live.push_back(done?);
        self.maybe_compact_arena();
        Ok(())
    }

    /// Retires the oldest tenant, as `PolicyRegistry::remove_tenant` does.
    fn retire_oldest(&mut self) -> Result<(), String> {
        let (root, node) = self.live.pop_front().ok_or("no tenant to retire")?;
        if !self.live.iter().any(|&(r, _)| r == root) {
            self.pool_dead += self.pool.reachable(node);
        }
        self.maybe_compact_arena();
        if self.pool_dead > 0 && 2 * self.pool_dead > self.pool.node_count() {
            let mut pool = SubgraphPool::new(self.arena.schema().clone());
            for (root, node) in &mut self.live {
                *node = pool.ensure(&self.arena, *root).map_err(|e| e.to_string())?;
            }
            self.pool = pool;
            self.pool_dead = 0;
        }
        Ok(())
    }

    fn maybe_compact_arena(&mut self) {
        if self.arena.len() < ARENA_COMPACT_FLOOR {
            return;
        }
        let mut roots: Vec<ConsId> = self.live.iter().map(|&(r, _)| r).collect();
        if self.arena.len() <= ARENA_GARBAGE_FACTOR * self.arena.live_from(&roots) {
            return;
        }
        let map = self.arena.compact_mapped(&mut roots);
        for ((root, _), &new) in self.live.iter_mut().zip(&roots) {
            *root = new;
        }
        self.pool.remap_keys(&map);
    }
}

/// Runs `fleet`.
pub fn run(params: &Params) -> Result<Outcome, String> {
    let base = fw_synth::university_large();
    let schema = base.schema().clone();
    let mut rec = Recorder::new(params.trace, crate::SPAN_CAP);
    let mut out = Outcome::new("fleet", TAIL_BP, crate::WINDOW, params);
    let variant = |j: u64| gen::variant(&base, gen::derive(params.seed, STREAM_TENANTS, j));

    // Set-up: a fresh registry adding every initial tenant. The first one
    // serves; the rest of the set-ups are spread over the run (`Setups`).
    let initial: Vec<Firewall> = (0..INITIAL_TENANTS).map(variant).collect();
    let registry = timed_setup(&initial, &mut out).ok_or("set-up failed")?;
    // Only churn onboardings count toward the onboarding layers: the
    // set-up's go into fresh registries.
    let mut shadow = if params.trace {
        let mut sh = Shadow::new(&schema);
        for policy in &initial {
            sh.onboard(policy, "shadow.setup", &mut rec)?;
        }
        Some(sh)
    } else {
        None
    };
    let mut tenants: VecDeque<(TenantId, Firewall)> = initial
        .iter()
        .cloned()
        .enumerate()
        .map(|(j, p)| (TenantId(j as u64), p))
        .collect();
    let mut next_id = INITIAL_TENANTS;

    let zipf = Zipf::new(tenants.len(), TENANT_SKEW);
    let mut picks = SplitMix::new(gen::derive(params.seed, STREAM_PICKS, 0));
    let mut verdicts: Vec<Decision> = Vec::new();
    let mut onboard_ns: Vec<u64> = Vec::new();
    let mut retire_ns: Vec<u64> = Vec::new();

    out.begin();
    let mut setups = crate::Setups::new(params);
    let mut churn_due = gen::Cadence::new(Some(CHURN_EVERY));
    let deadline = Instant::now() + Duration::from_secs_f64(params.seconds);
    let mut i = 0u64;
    while Instant::now() < deadline {
        let (tenant, policy) = &tenants[zipf.sample(&mut picks)];
        let trace = PacketTrace::random(
            schema.clone(),
            BURST,
            gen::derive(params.seed, STREAM_PACKETS, i),
        );
        let wire = trace.encode();
        let traced = params.trace && i.is_multiple_of(TRACE_EVERY) && rec.has_room();
        out.check.attempt();
        let t0 = Instant::now();
        let root = if traced { rec.root("req") } else { None };
        let served = serve_once(&registry, *tenant, &schema, wire, &mut verdicts, &mut rec);
        rec.close(root);
        let took = u64::try_from(t0.elapsed().as_nanos()).expect("request under 584 years");
        match served {
            Ok(()) => {
                out.request(t0, took, traced);
                if i.is_multiple_of(CHECK_EVERY) {
                    out.check.verdicts(policy, trace.packets(), &verdicts);
                }
            }
            Err(e) => out.check.fail(format!("request {i} to {tenant}: {e}")),
        }
        i += 1;

        if churn_due.due() {
            let id = TenantId(next_id);
            let policy = variant(next_id);
            next_id += 1;
            let input = policy.clone();
            out.check.attempt();
            let t0 = Instant::now();
            let root = rec.root("onboard");
            let added = registry.add_tenant(id, input);
            rec.close(root);
            let took = u64::try_from(t0.elapsed().as_nanos()).expect("onboarding under 584 years");
            match added {
                Ok(_) => {
                    onboard_ns.push(took);
                    check_tenant(&registry, id, &policy, &schema, params.seed, &mut out);
                }
                Err(e) => out.check.fail(format!("onboarding {id}: {e}")),
            }
            if let Some(sh) = shadow.as_mut() {
                sh.onboard(&policy, "shadow.onboard", &mut rec)?;
            }
            tenants.push_back((id, policy));

            let (old, _) = tenants.pop_front().expect("tenants never run out");
            out.check.attempt();
            let t0 = Instant::now();
            let root = rec.root("retire");
            let removed = registry.remove_tenant(old);
            rec.close(root);
            let took = u64::try_from(t0.elapsed().as_nanos()).expect("retirement under 584 years");
            match removed {
                Ok(()) => retire_ns.push(took),
                Err(e) => out.check.fail(format!("retiring {old}: {e}")),
            }
            if let Some(sh) = shadow.as_mut() {
                sh.retire_oldest()?;
            }
        }

        if setups.due() {
            drop(timed_setup(&initial, &mut out));
        }
    }

    out.end();
    let fleet = registry.stats();
    out.note(format!(
        "{} tenants over {} distinct policies, {} pool nodes, {} bytes per tenant",
        fleet.tenants,
        fleet.distinct_policies,
        fleet.pool_nodes,
        fleet.bytes_per_tenant()
    ));
    if !onboard_ns.is_empty() {
        let mut sorted = onboard_ns.clone();
        sorted.sort_unstable();
        out.note(format!(
            "onboardings: {} (p50 {:.3} ms, p90 {:.3} ms); retirements p50 {:.3} ms",
            sorted.len(),
            stats::percentile(&sorted, 5_000) as f64 / 1e6,
            stats::percentile(&sorted, 9_000) as f64 / 1e6,
            stats::median_u64(&retire_ns) / 1e6
        ));
    }

    if let Some(sh) = &shadow {
        out.note(format!(
            "shadow: {} arena nodes, {} pool nodes (registry: {}, {})",
            sh.arena.len(),
            sh.pool.node_count(),
            fleet.arena_nodes,
            fleet.pool_nodes
        ));
    }
    if params.trace {
        let spans = rec.spans();
        let req = breakdown(spans, "req");
        out.layer("trace.decode_us", req.layer_median("trace.decode") / 1e3);
        out.layer("batch.build_us", req.layer_median("batch.build") / 1e3);
        out.layer(
            "registry.classify_us",
            req.layer_median("registry.classify") / 1e3,
        );
        let onboard = breakdown(spans, "onboard");
        out.layer(
            "registry.add_tenant_ms",
            onboard.layer_median("onboard") / 1e6,
        );
        if let Some(all) = onboard.layers.get("onboard") {
            let mut sorted = all.clone();
            sorted.sort_unstable();
            out.layer(
                "registry.add_tenant_p90_ms",
                stats::percentile(&sorted, 9_000) as f64 / 1e6,
            );
        }
        let retire = breakdown(spans, "retire");
        out.layer(
            "registry.remove_tenant_ms",
            retire.layer_median("retire") / 1e6,
        );
        let sh = breakdown(spans, "shadow.onboard");
        out.layer("cons.chain_ms", sh.layer_median("cons.chain") / 1e6);
        out.layer("shared.ensure_ms", sh.layer_median("shared.ensure") / 1e6);
        out.layer("registry.distinct_policies", fleet.distinct_policies as f64);
        out.layer("registry.pool_nodes", fleet.pool_nodes as f64);
        out.layer("registry.bytes_per_tenant", fleet.bytes_per_tenant() as f64);
        out.finish_trace(req, rec);
    }
    Ok(out)
}

/// A fresh registry adding every tenant of `initial`, timed into
/// `setup_s`; each onboarding counts as an operation.
fn timed_setup(initial: &[Firewall], out: &mut Outcome) -> Option<PolicyRegistry> {
    let inputs = initial.to_vec();
    let registry = PolicyRegistry::new();
    let t0 = Instant::now();
    let mut ok = true;
    for (j, policy) in inputs.into_iter().enumerate() {
        out.check.attempt();
        if let Err(e) = registry.add_tenant(TenantId(j as u64), policy) {
            out.check.fail(format!("initial tenant {j}: {e}"));
            ok = false;
        }
    }
    let took = t0.elapsed();
    ok.then(|| {
        out.setup_s.push(took.as_secs_f64());
        registry
    })
}

/// One request: wire bytes in hand → the tenant's verdicts out.
fn serve_once(
    registry: &PolicyRegistry,
    tenant: TenantId,
    schema: &Schema,
    wire: bytes::Bytes,
    verdicts: &mut Vec<Decision>,
    rec: &mut Recorder,
) -> Result<(), String> {
    let batch = crate::serve::decode_batch(schema, wire, rec)?;
    let s = rec.open("registry.classify");
    let served = registry.classify_batch_into(tenant, &batch, verdicts);
    rec.close(s);
    served.map_err(|e| e.to_string())
}

/// Checks a freshly onboarded tenant against its own policy, on packets
/// near its rules.
fn check_tenant(
    registry: &PolicyRegistry,
    id: TenantId,
    policy: &Firewall,
    schema: &Schema,
    seed: u64,
    out: &mut Outcome,
) {
    let sample = PacketTrace::biased(policy, BURST, 0.3, gen::derive(seed, STREAM_CHECKS, id.0));
    let batch = match PacketBatch::from_trace(schema.clone(), sample.packets()) {
        Ok(b) => b,
        Err(e) => return out.check.fail(format!("check batch: {e}")),
    };
    match registry.classify_batch(id, &batch) {
        Ok(verdicts) => out.check.verdicts(policy, sample.packets(), &verdicts),
        Err(e) => out.check.fail(format!("checking {id}: {e}")),
    }
}
