//! Equivalence oracle for the shared subgraph pool's lowering: every
//! tenant root served out of one [`SubgraphPool`] — through the lane loop
//! of `classify_columns_into` and through the scalar `classify` — must
//! decide every packet exactly as that tenant's standalone
//! [`CompiledFdd::classify_columns`], which must equal first match. Run on
//! perturbed fleets of the Fig. 12 and Fig. 13 policies (whose pools hold
//! both ladder and search nodes), on ragged burst lengths around the lane
//! width, on shapes at the edges of the lowering (one decision, a narrow
//! field of many short runs, a 64-bit field), and on registry fleets taken
//! through edits, removals and maintenance.

use diverse_firewall::core::{ConsArena, Edit, Fdd};
use diverse_firewall::exec::{CompiledFdd, PacketBatch, SubgraphPool};
use diverse_firewall::fleet::{PolicyRegistry, TenantId};
use diverse_firewall::model::{Decision, FieldDef, Firewall, Packet, Schema};
use diverse_firewall::synth::{
    evolve, perturb_fleet, university_average, university_large, EvolutionProfile, PacketTrace,
    Synthesizer,
};

/// Random packets plus packets near the rules.
fn probes(fw: &Firewall, n: usize, seed: u64) -> Vec<Packet> {
    let random = PacketTrace::random(fw.schema().clone(), n, seed);
    let biased = PacketTrace::biased(fw, n, 0.3, seed + 1);
    random
        .packets()
        .iter()
        .chain(biased.packets())
        .cloned()
        .collect()
}

/// Every policy of `fleet` interned into one arena and ensured into one
/// pool, with each policy's pool root.
fn pool_of(fleet: &[Firewall]) -> (SubgraphPool, Vec<u32>) {
    let schema = fleet[0].schema().clone();
    let mut arena = ConsArena::new(schema.clone());
    let mut pool = SubgraphPool::new(schema);
    let roots = fleet
        .iter()
        .map(|fw| {
            let root = arena
                .intern_fdd(&Fdd::from_firewall_fast(fw).unwrap())
                .unwrap();
            pool.ensure(&arena, root).unwrap()
        })
        .collect();
    (pool, roots)
}

/// The oracle on one probe set: the pool's batch path ≡ its scalar path ≡
/// the standalone image's column walk ≡ first match.
fn assert_root_agrees(
    pool: &SubgraphPool,
    root: u32,
    fw: &Firewall,
    packets: &[Packet],
    tag: &str,
) {
    let standalone = CompiledFdd::from_firewall(fw).unwrap();
    let batch = PacketBatch::from_trace(fw.schema().clone(), packets).unwrap();
    let expect = standalone.classify_columns(&batch).unwrap();
    let mut got = vec![Decision::AcceptLog; 5]; // stale junk must be cleared
    pool.classify_columns_into(root, &batch, &mut got).unwrap();
    assert_eq!(got, expect, "{tag}: pool batch diverges from the image");
    for (p, &d) in packets.iter().zip(&expect) {
        assert_eq!(pool.classify(root, p), d, "{tag}: pool scalar at {p}");
        assert_eq!(fw.decision_for(p), Some(d), "{tag}: first match at {p}");
    }
}

/// The oracle over a whole registry: its batch and scalar paths against
/// each tenant's standalone image and first match.
fn assert_registry_agrees(registry: &PolicyRegistry, seed: u64, tag: &str) {
    for tenant in registry.tenant_ids() {
        let fw = registry.policy(tenant).unwrap();
        let packets = probes(&fw, 150, seed ^ tenant.0);
        let batch = PacketBatch::from_trace(fw.schema().clone(), &packets).unwrap();
        let expect = CompiledFdd::from_firewall(&fw)
            .unwrap()
            .classify_columns(&batch)
            .unwrap();
        let mut got = Vec::new();
        registry
            .classify_batch_into(tenant, &batch, &mut got)
            .unwrap();
        assert_eq!(got, expect, "{tag}: {tenant} batch diverges");
        for (p, &d) in packets.iter().zip(&expect) {
            assert_eq!(registry.classify(tenant, p).unwrap(), d, "{tag}: {tenant}");
            assert_eq!(fw.decision_for(p), Some(d), "{tag}: {tenant} first match");
        }
    }
}

#[test]
fn perturbed_fleets_agree_through_ladders_and_searches() {
    let bases = [
        ("fig12/avg(42)", university_average(), 6usize),
        ("fig12/large(661)", university_large(), 3),
        ("fig13/n100", Synthesizer::new(301).firewall(100), 4),
        ("fig13/n500", Synthesizer::new(302).firewall(500), 2),
    ];
    for (name, base, tenants) in bases {
        let fleet = perturb_fleet(&base, tenants, 5, 17);
        let (pool, roots) = pool_of(&fleet);
        let shape = pool.lane_stats();
        assert!(shape.ladder_nodes > 0, "{name}: {shape:?}");
        assert!(shape.search_nodes > 0, "{name}: {shape:?}");
        assert_eq!(shape.fused_nodes, 0, "{name}: the pool does not fuse");
        for (i, (fw, &root)) in fleet.iter().zip(&roots).enumerate() {
            let packets = probes(fw, 300, 100 + i as u64);
            assert_root_agrees(&pool, root, fw, &packets, &format!("{name} tenant {i}"));
        }
    }
}

/// Bursts below, at and past the lane width, each lane chunk ragged or
/// whole, served back to back through one output buffer.
#[test]
fn ragged_bursts_agree() {
    let fleet = perturb_fleet(&university_average(), 3, 5, 23);
    let (pool, roots) = pool_of(&fleet);
    let mut out = Vec::new();
    for n in [0usize, 1, 31, 32, 33, 64, 1_000] {
        for (fw, &root) in fleet.iter().zip(&roots) {
            let trace = PacketTrace::random(fw.schema().clone(), n, 7 + n as u64);
            assert_root_agrees(&pool, root, fw, trace.packets(), &format!("burst {n}"));
            let batch = PacketBatch::from_trace(fw.schema().clone(), trace.packets()).unwrap();
            pool.classify_columns_into(root, &batch, &mut out).unwrap();
            assert_eq!(out.len(), n);
        }
    }
}

/// A policy of one decision needs no node: its root is the decision
/// itself, counted as one compiled node, and serves every burst.
#[test]
fn single_decision_policy_is_a_tagged_root() {
    let fw = Firewall::parse(Schema::tcp_ip(), "* -> discard-log\n").unwrap();
    let (pool, roots) = pool_of(std::slice::from_ref(&fw));
    assert_eq!(pool.node_count(), 1);
    assert_eq!(pool.reachable(roots[0]), 1);
    assert_eq!(pool.lane_stats().passes, 0);
    for n in [0usize, 1, 33] {
        let trace = PacketTrace::random(fw.schema().clone(), n, 3);
        assert_root_agrees(&pool, roots[0], &fw, trace.packets(), "one decision");
    }
}

/// An 8-bit field becomes one cut per run of equal targets, in the pool as
/// in the standalone image; exhaustive over both fields, with runs short
/// enough that the root's ladder takes many buckets.
#[test]
fn narrow_field_runs_agree_exhaustively() {
    let schema = Schema::new(vec![
        FieldDef::new("proto", 8).unwrap(),
        FieldDef::new("flag", 2).unwrap(),
    ])
    .unwrap();
    let mut text = String::new();
    for (i, v) in (0..=250u32).step_by(9).enumerate() {
        let d = ["accept", "discard", "accept-log"][i % 3];
        text.push_str(&format!("proto={v}-{}, flag={} -> {d}\n", v + 4, i % 4));
    }
    text.push_str("proto=200-255 -> discard-log\n* -> accept\n");
    let fw = Firewall::parse(schema.clone(), &text).unwrap();
    let variant = Firewall::parse(schema.clone(), &text.replacen("accept", "discard", 2)).unwrap();
    let fleet = [fw, variant];
    let (pool, roots) = pool_of(&fleet);
    assert!(pool.lane_stats().ladder_nodes > 0);
    let packets: Vec<Packet> = (0..256u64)
        .flat_map(|p| (0..4u64).map(move |f| Packet::new(vec![p, f])))
        .collect();
    for (fw, &root) in fleet.iter().zip(&roots) {
        assert_root_agrees(&pool, root, fw, &packets, "8-bit field");
    }
}

/// A 64-bit field never gets a ladder (no shift spans it), so its nodes
/// search: the first field's many cuts, and the second field's few, which
/// a narrower field would give a one-bucket ladder. Probed at every cut,
/// on both sides of it, and at the domain's ends.
#[test]
fn wide_field_searches_agree() {
    let schema = Schema::new(vec![
        FieldDef::new("wide", 64).unwrap(),
        FieldDef::new("tail", 64).unwrap(),
    ])
    .unwrap();
    let cuts: Vec<u64> = vec![
        0,
        1,
        1 << 20,
        (1 << 40) + 3,
        u64::MAX / 3,
        u64::MAX / 2,
        u64::MAX - 7,
    ];
    let mut text = String::new();
    for (i, &c) in cuts.iter().enumerate() {
        let d = if i % 2 == 0 { "accept" } else { "discard" };
        text.push_str(&format!("wide={c}, tail=0-{} -> {d}\n", i % 8));
    }
    text.push_str("wide=5-9 -> accept-log\n* -> discard-log\n");
    let fw = Firewall::parse(schema.clone(), &text).unwrap();
    let (pool, roots) = pool_of(std::slice::from_ref(&fw));
    let shape = pool.lane_stats();
    assert_eq!(shape.ladder_nodes, 0, "{shape:?}");
    assert!(shape.search_nodes > 0, "{shape:?}");
    let mut packets = Vec::new();
    for &c in cuts.iter().chain(&[5, 9, u64::MAX]) {
        for v in [c.saturating_sub(1), c, c.saturating_add(1)] {
            for t in 0..8u64 {
                packets.push(Packet::new(vec![v, t]));
            }
        }
    }
    packets.extend(
        PacketTrace::random(schema, 500, 11)
            .packets()
            .iter()
            .cloned(),
    );
    assert_root_agrees(&pool, roots[0], &fw, &packets, "64-bit field");
}

/// Registry fleets after edit batches (new roots ensured into the live
/// pool, tenants forking and merging), then after removals and full
/// maintenance (arena compaction with `remap_keys`, a pool rebuild).
#[test]
fn registry_fleets_agree_through_edits_removal_and_maintenance() {
    let base = Synthesizer::new(41).firewall(60);
    let fleet = perturb_fleet(&base, 8, 5, 5);
    let registry = PolicyRegistry::new();
    for (i, fw) in fleet.iter().enumerate() {
        registry.add_tenant(TenantId(i as u64), fw.clone()).unwrap();
    }
    assert_registry_agrees(&registry, 1, "fresh");

    for (i, fw) in fleet.iter().enumerate().step_by(2) {
        let edits: Vec<Edit> = evolve(fw, 3, &EvolutionProfile::default(), 90 + i as u64)
            .into_iter()
            .map(|s| s.edit)
            .collect();
        registry.apply_edits(TenantId(i as u64), &edits).unwrap();
    }
    assert_registry_agrees(&registry, 2, "edited");

    for i in [1u64, 2, 5] {
        registry.remove_tenant(TenantId(i)).unwrap();
    }
    assert_registry_agrees(&registry, 3, "after removal");
    registry.maintenance().unwrap();
    let stats = registry.stats();
    assert_eq!(stats.arena_nodes, stats.arena_live_nodes, "compacted");
    assert_registry_agrees(&registry, 4, "after maintenance");

    // Onboarding after maintenance ensures into the rebuilt pool, whose
    // dedup map was remapped onto the compacted arena.
    registry.add_tenant(TenantId(99), fleet[1].clone()).unwrap();
    assert_registry_agrees(&registry, 5, "re-onboarded");
}

/// The scalar entry point checks its packet: a value past its field's
/// domain would otherwise index another node's table.
#[test]
#[should_panic(expected = "field `proto`")]
fn pool_classify_panics_on_out_of_domain_values() {
    let fleet = perturb_fleet(&university_average(), 2, 5, 3);
    let (pool, roots) = pool_of(&fleet);
    pool.classify(roots[0], &Packet::new(vec![1, 2, 3, 4, 256]));
}
