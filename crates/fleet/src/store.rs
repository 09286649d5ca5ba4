//! Fleet persistence over FWEX: a plain-text manifest binding tenants to
//! content-addressed policies, plus per-policy rule text and a compiled
//! FWEX image.
//!
//! Layout of a fleet directory:
//!
//! ```text
//! fleet.manifest          # schemas, policy hashes, tenant bindings
//! <hash:016x>.rules       # the policy's rule text (fw-model DSL)
//! <hash:016x>.fwex        # the policy's compiled image (FWEX wire format)
//! ```
//!
//! Restores are paranoid by design: the manifest's content hashes are
//! recomputed from the parsed rule text, the FWEX images are decoded with
//! full structural revalidation against the manifest schema, and the
//! registry rebuilt from the rule text is cross-checked against each
//! decoded image on the policy's witness packets. Any disagreement is a
//! [`FleetError::Store`] — a corrupt store never serves.
//!
//! Serving epochs are *not* persisted: a freshly loaded fleet starts every
//! tenant at epoch 0, mirroring a process restart.

use std::collections::BTreeMap;
use std::path::Path;

use bytes::Bytes;
use fw_core::Fdd;
use fw_exec::CompiledFdd;
use fw_model::{FieldDef, Firewall, Schema};

use crate::registry::{policy_hash, TenantId};
use crate::{FleetError, PolicyRegistry};

const MANIFEST: &str = "fleet.manifest";
const MAGIC: &str = "fwfleet-manifest v1";

fn store_err(msg: impl Into<String>) -> FleetError {
    FleetError::Store(msg.into())
}

/// Persist `registry` into `dir` (created if absent).
///
/// One `.rules` + `.fwex` pair is written per *distinct* policy — a fleet
/// of 10k tenants on near-identical policies persists each distinct
/// policy once, and identical tenants share files by content hash.
///
/// # Errors
///
/// [`FleetError::Io`] on filesystem failures; [`FleetError::Core`] /
/// [`FleetError::Exec`] if a policy fails to recompile for its image
/// (registry invariants make this unreachable in practice).
pub fn save_fleet(registry: &PolicyRegistry, dir: &Path) -> Result<(), FleetError> {
    std::fs::create_dir_all(dir)?;

    // Deterministic order everywhere: BTreeMaps, sorted tenant ids.
    let mut schemas: Vec<Schema> = Vec::new();
    let mut policies: BTreeMap<u64, (usize, Firewall)> = BTreeMap::new();
    let mut tenants: BTreeMap<u64, u64> = BTreeMap::new();
    for tenant in registry.tenant_ids() {
        let firewall = registry.policy(tenant)?;
        let hash = policy_hash(&firewall);
        tenants.insert(tenant.0, hash);
        if let std::collections::btree_map::Entry::Vacant(slot) = policies.entry(hash) {
            let idx = match schemas.iter().position(|s| s == firewall.schema()) {
                Some(i) => i,
                None => {
                    schemas.push(firewall.schema().clone());
                    schemas.len() - 1
                }
            };
            slot.insert((idx, firewall));
        }
    }

    let mut manifest = String::new();
    manifest.push_str(MAGIC);
    manifest.push('\n');
    manifest.push_str(&format!("schemas {}\n", schemas.len()));
    for schema in &schemas {
        manifest.push_str(&format!("schema {}\n", schema.len()));
        for (_, def) in schema.iter() {
            manifest.push_str(&format!("field {} {}\n", def.bits(), def.name()));
        }
    }
    manifest.push_str(&format!("policies {}\n", policies.len()));
    for (hash, (schema_idx, firewall)) in &policies {
        manifest.push_str(&format!("policy {schema_idx} {hash:016x}\n"));
        std::fs::write(dir.join(format!("{hash:016x}.rules")), firewall.to_dsl())?;
        let compiled = CompiledFdd::compile(&Fdd::from_firewall_fast(firewall)?)?;
        std::fs::write(
            dir.join(format!("{hash:016x}.fwex")),
            &compiled.encode()[..],
        )?;
    }
    manifest.push_str(&format!("tenants {}\n", tenants.len()));
    for (id, hash) in &tenants {
        manifest.push_str(&format!("tenant {id} {hash:016x}\n"));
    }
    manifest.push_str("end\n");
    std::fs::write(dir.join(MANIFEST), manifest)?;
    Ok(())
}

/// Restore a fleet persisted by [`save_fleet`], revalidating everything.
///
/// The registry is rebuilt from the per-policy *rule text* (the canonical
/// source of truth); the FWEX images are decoded with structural
/// revalidation and used as an independent cross-check — each rebuilt
/// policy must agree with its decoded image on every witness packet.
///
/// # Errors
///
/// [`FleetError::Store`] for a missing/malformed manifest, a content-hash
/// mismatch, or an image/rules disagreement; [`FleetError::Io`] /
/// [`FleetError::Model`] / [`FleetError::Exec`] for the underlying
/// failures.
pub fn load_fleet(dir: &Path) -> Result<PolicyRegistry, FleetError> {
    let text = std::fs::read_to_string(dir.join(MANIFEST))
        .map_err(|e| store_err(format!("cannot read {MANIFEST}: {e}")))?;
    let mut lines = text.lines();
    if lines.next() != Some(MAGIC) {
        return Err(store_err(format!("bad manifest magic (want {MAGIC:?})")));
    }

    fn expect_count<'a>(
        lines: &mut impl Iterator<Item = &'a str>,
        keyword: &str,
    ) -> Result<usize, FleetError> {
        let line = lines
            .next()
            .ok_or_else(|| store_err(format!("manifest truncated before {keyword:?}")))?;
        match line.split_once(' ') {
            Some((k, n)) if k == keyword => n
                .parse()
                .map_err(|_| store_err(format!("bad {keyword} count {n:?}"))),
            _ => Err(store_err(format!(
                "expected {keyword:?} line, got {line:?}"
            ))),
        }
    }

    let n_schemas = expect_count(&mut lines, "schemas")?;
    let mut schemas = Vec::with_capacity(n_schemas);
    for _ in 0..n_schemas {
        let n_fields = expect_count(&mut lines, "schema")?;
        let mut fields = Vec::with_capacity(n_fields);
        for _ in 0..n_fields {
            let line = lines
                .next()
                .ok_or_else(|| store_err("manifest truncated in schema fields"))?;
            let rest = line
                .strip_prefix("field ")
                .ok_or_else(|| store_err(format!("expected field line, got {line:?}")))?;
            let (bits, name) = rest
                .split_once(' ')
                .ok_or_else(|| store_err(format!("bad field line {line:?}")))?;
            let bits: u32 = bits
                .parse()
                .map_err(|_| store_err(format!("bad field bits in {line:?}")))?;
            fields.push(FieldDef::new(name, bits)?);
        }
        schemas.push(Schema::new(fields)?);
    }

    let n_policies = expect_count(&mut lines, "policies")?;
    let mut policies: BTreeMap<u64, Firewall> = BTreeMap::new();
    let mut images: BTreeMap<u64, CompiledFdd> = BTreeMap::new();
    for _ in 0..n_policies {
        let line = lines
            .next()
            .ok_or_else(|| store_err("manifest truncated in policies"))?;
        let mut parts = line.split(' ');
        if parts.next() != Some("policy") {
            return Err(store_err(format!("expected policy line, got {line:?}")));
        }
        let schema_idx: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| store_err(format!("bad policy line {line:?}")))?;
        let hash_str = parts
            .next()
            .ok_or_else(|| store_err(format!("bad policy line {line:?}")))?;
        let hash = u64::from_str_radix(hash_str, 16)
            .map_err(|_| store_err(format!("bad policy hash {hash_str:?}")))?;
        let schema = schemas
            .get(schema_idx)
            .ok_or_else(|| store_err(format!("policy references unknown schema {schema_idx}")))?;

        let rules_path = dir.join(format!("{hash:016x}.rules"));
        let rules_text = std::fs::read_to_string(&rules_path)
            .map_err(|e| store_err(format!("cannot read {}: {e}", rules_path.display())))?;
        let firewall = Firewall::parse(schema.clone(), &rules_text)?;
        let actual = policy_hash(&firewall);
        if actual != hash {
            return Err(store_err(format!(
                "content hash mismatch for {hash:016x}: rules hash to {actual:016x}"
            )));
        }

        let fwex_path = dir.join(format!("{hash:016x}.fwex"));
        let image_bytes = std::fs::read(&fwex_path)
            .map_err(|e| store_err(format!("cannot read {}: {e}", fwex_path.display())))?;
        let image = CompiledFdd::decode(schema.clone(), Bytes::from(image_bytes))?;

        // Cross-check: the policy rebuilt from rule text must agree with
        // the persisted compiled image on every witness packet.
        for packet in firewall.witnesses() {
            let want = firewall
                .decision_for(&packet)
                .ok_or_else(|| store_err(format!("policy {hash:016x} is not comprehensive")))?;
            if image.classify(&packet) != want {
                return Err(store_err(format!(
                    "image/rules disagreement for policy {hash:016x} on {packet:?}"
                )));
            }
        }
        policies.insert(hash, firewall);
        images.insert(hash, image);
    }

    let n_tenants = expect_count(&mut lines, "tenants")?;
    let registry = PolicyRegistry::new();
    // One tenant per stored policy, for the final cross-check.
    let mut served_by: BTreeMap<u64, TenantId> = BTreeMap::new();
    for _ in 0..n_tenants {
        let line = lines
            .next()
            .ok_or_else(|| store_err("manifest truncated in tenants"))?;
        let mut parts = line.split(' ');
        if parts.next() != Some("tenant") {
            return Err(store_err(format!("expected tenant line, got {line:?}")));
        }
        let id: u64 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| store_err(format!("bad tenant line {line:?}")))?;
        let hash_str = parts
            .next()
            .ok_or_else(|| store_err(format!("bad tenant line {line:?}")))?;
        let hash = u64::from_str_radix(hash_str, 16)
            .map_err(|_| store_err(format!("bad tenant hash {hash_str:?}")))?;
        let firewall = policies.get(&hash).ok_or_else(|| {
            store_err(format!("tenant {id} references unknown policy {hash:016x}"))
        })?;
        registry.add_tenant(TenantId(id), firewall.clone())?;
        served_by.entry(hash).or_insert(TenantId(id));
    }
    if lines.next() != Some("end") {
        return Err(store_err("manifest missing end marker"));
    }

    // Final cross-check: the rebuilt shared pool must agree with each
    // decoded standalone image through the registry's own serving path.
    for (hash, tenant) in &served_by {
        let image = &images[hash];
        for packet in policies[hash].witnesses() {
            if registry.classify(*tenant, &packet)? != image.classify(&packet) {
                return Err(store_err(format!(
                    "rebuilt pool disagrees with persisted image for policy {hash:016x}"
                )));
            }
        }
    }
    Ok(registry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_model::paper;

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("fw-fleet-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trip_preserves_tenants_policies_and_decisions() {
        let registry = PolicyRegistry::new();
        registry.add_tenant(TenantId(1), paper::team_a()).unwrap();
        registry.add_tenant(TenantId(2), paper::team_a()).unwrap();
        registry.add_tenant(TenantId(3), paper::team_b()).unwrap();
        let base = fw_synth::Synthesizer::new(5).firewall(30);
        for (i, fw) in fw_synth::perturb_fleet(&base, 4, 10, 3).iter().enumerate() {
            registry
                .add_tenant(TenantId(10 + i as u64), fw.clone())
                .unwrap();
        }

        let dir = tempdir("roundtrip");
        save_fleet(&registry, &dir).unwrap();
        let restored = load_fleet(&dir).unwrap();

        assert_eq!(restored.tenant_ids(), registry.tenant_ids());
        let stats = restored.stats();
        assert_eq!(stats.tenants, 7);
        assert_eq!(stats.distinct_policies, registry.stats().distinct_policies);
        for tenant in registry.tenant_ids() {
            let original = registry.policy(tenant).unwrap();
            assert_eq!(original.to_dsl(), restored.policy(tenant).unwrap().to_dsl());
            for packet in original.witnesses() {
                assert_eq!(
                    restored.classify(tenant, &packet).unwrap(),
                    original.decision_for(&packet).unwrap()
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tampered_rules_are_rejected() {
        let registry = PolicyRegistry::new();
        registry.add_tenant(TenantId(1), paper::team_a()).unwrap();
        let dir = tempdir("tamper");
        save_fleet(&registry, &dir).unwrap();

        // Flip the rules file of the one stored policy: the recomputed
        // content hash no longer matches the manifest.
        let rules_file = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "rules"))
            .unwrap();
        std::fs::write(&rules_file, paper::team_b().to_dsl()).unwrap();
        match load_fleet(&dir) {
            Err(FleetError::Store(msg)) => assert!(msg.contains("hash mismatch"), "{msg}"),
            other => panic!("expected Store error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_is_a_store_error() {
        let dir = tempdir("missing");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(load_fleet(&dir), Err(FleetError::Store(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
