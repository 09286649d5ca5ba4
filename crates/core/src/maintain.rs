//! The suffix-chain surface, a thin shim over rebuild-and-intern.
//!
//! Every library path builds a policy's diagram by fast construction
//! ([`Fdd::from_firewall_fast`]) and puts it into an arena at its
//! canonical root ([`ConsArena::intern_fdd`]); an edit batch rebuilds the
//! edited policy the same way. [`SuffixChain`] and [`MaintainStats`]
//! remain because the end-to-end benchmark (`perfbench/`) names them in
//! its shadows of the set-up and edit pipelines. A [`SuffixChain`] is a
//! policy and its one root, so the shadows replay what the library runs.

use fw_model::Firewall;
use serde::{Deserialize, Serialize};

use crate::cons::{ConsArena, ConsId, FxMap};
use crate::impact::Edit;
use crate::{CoreError, Fdd};

/// What rebuilding a policy after an edit batch covered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MaintainStats {
    /// Rules the rebuild ran over: the length of the post-batch policy.
    pub sweep_levels: usize,
}

/// A policy and the canonical root of its diagram in a **caller-owned**
/// [`ConsArena`]. Several policies may intern into one arena; equal
/// subfunctions then share nodes.
///
/// The caller must always pass the arena the root was interned in
/// ([`CoreError::SchemaMismatch`] catches cross-schema mix-ups; a
/// cross-arena mix-up with an equal schema is undetectable).
#[derive(Debug, Clone)]
pub struct SuffixChain {
    firewall: Firewall,
    root: ConsId,
}

impl SuffixChain {
    /// Builds `firewall`'s diagram by fast construction and interns it
    /// into `arena`.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotComprehensive`] if some packet matches no rule;
    /// [`CoreError::SchemaMismatch`] if `firewall` is not on the arena's
    /// schema.
    pub fn build(arena: &mut ConsArena, firewall: Firewall) -> Result<SuffixChain, CoreError> {
        let root = arena.intern_fdd(&Fdd::from_firewall_fast(&firewall)?)?;
        Ok(SuffixChain { firewall, root })
    }

    /// The canonical id of the policy's diagram.
    pub fn root(&self) -> ConsId {
        self.root
    }

    /// Every id the chain holds — just the root — as the root set a
    /// multi-policy owner passes to [`ConsArena::compact_mapped`] or
    /// [`ConsArena::live_from`].
    pub fn suffix_ids(&self) -> &[ConsId] {
        std::slice::from_ref(&self.root)
    }

    /// Applies `edits` as one batch: stages them on a copy of the policy,
    /// rebuilds its diagram and interns it. On error the chain is
    /// unchanged (though the arena may have grown).
    ///
    /// # Errors
    ///
    /// Index/validation errors as for [`Edit::apply`];
    /// [`CoreError::NotComprehensive`] if the edited policy no longer
    /// decides every packet.
    pub fn apply_with_stats(
        &mut self,
        arena: &mut ConsArena,
        edits: &[Edit],
    ) -> Result<MaintainStats, CoreError> {
        let mut staged = self.firewall.clone();
        for e in edits {
            e.apply_in_place(&mut staged)?;
        }
        self.root = arena.intern_fdd(&Fdd::from_firewall_fast(&staged)?)?;
        self.firewall = staged;
        Ok(MaintainStats {
            sweep_levels: self.firewall.len(),
        })
    }

    /// Rewrites the root through a compaction map from
    /// [`ConsArena::compact_mapped`].
    ///
    /// # Panics
    ///
    /// If the root is missing from `map`: the caller left this chain's
    /// [`suffix_ids`](Self::suffix_ids) out of the compaction roots.
    pub fn remap(&mut self, map: &FxMap<ConsId, ConsId>) {
        self.root = *map
            .get(&self.root)
            .expect("chain suffix ids must be compaction roots");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_model::{paper, Decision, FieldDef, Rule, Schema};

    #[test]
    fn build_and_edit_land_on_the_fresh_roots() {
        let fw = paper::team_a();
        let mut arena = ConsArena::new(fw.schema().clone());
        let mut chain = SuffixChain::build(&mut arena, fw.clone()).unwrap();
        let fresh = |arena: &mut ConsArena, fw: &Firewall| {
            arena
                .intern_fdd(&Fdd::from_firewall_fast(fw).unwrap())
                .unwrap()
        };
        assert_eq!(chain.root(), fresh(&mut arena, &fw));
        let blocker = Rule::catch_all(fw.schema(), Decision::Discard);
        let stats = chain
            .apply_with_stats(
                &mut arena,
                &[Edit::Insert {
                    index: 0,
                    rule: blocker.clone(),
                }],
            )
            .unwrap();
        let after = fw.with_rule_inserted(0, blocker).unwrap();
        assert_eq!(stats.sweep_levels, after.len());
        assert_eq!(chain.root(), fresh(&mut arena, &after));
    }

    #[test]
    fn failed_batch_leaves_the_chain_alone() {
        let schema = Schema::new(vec![
            FieldDef::new("a", 3).unwrap(),
            FieldDef::new("b", 3).unwrap(),
        ])
        .unwrap();
        let fw = Firewall::parse(schema, "a=0-3 -> accept\n* -> discard\n").unwrap();
        let mut arena = ConsArena::new(fw.schema().clone());
        let mut chain = SuffixChain::build(&mut arena, fw).unwrap();
        let root = chain.root();
        let err = chain
            .apply_with_stats(&mut arena, &[Edit::Remove { index: 1 }])
            .unwrap_err();
        assert!(matches!(err, CoreError::NotComprehensive { .. }));
        assert_eq!(chain.root(), root);
    }

    #[test]
    fn remap_follows_a_shared_compaction() {
        let (fw_a, fw_b) = (paper::team_a(), paper::team_b());
        let mut arena = ConsArena::new(fw_a.schema().clone());
        let mut a = SuffixChain::build(&mut arena, fw_a.clone()).unwrap();
        let mut b = SuffixChain::build(&mut arena, fw_b).unwrap();
        let flip = fw_a.rules()[0].with_decision(fw_a.rules()[0].decision().inverted());
        a.apply_with_stats(
            &mut arena,
            &[Edit::Replace {
                index: 0,
                rule: flip,
            }],
        )
        .unwrap();
        let before = [
            arena.to_fdd(a.root()).unwrap(),
            arena.to_fdd(b.root()).unwrap(),
        ];
        let mut roots: Vec<ConsId> = a
            .suffix_ids()
            .iter()
            .chain(b.suffix_ids())
            .copied()
            .collect();
        let map = arena.compact_mapped(&mut roots);
        a.remap(&map);
        b.remap(&map);
        assert_eq!([a.root(), b.root()], [roots[0], roots[1]]);
        assert!(before[0].isomorphic(&arena.to_fdd(a.root()).unwrap()));
        assert!(before[1].isomorphic(&arena.to_fdd(b.root()).unwrap()));
    }

    #[test]
    #[should_panic(expected = "compaction roots")]
    fn remap_panics_when_chain_was_not_a_root() {
        let fw = paper::team_a();
        let mut arena = ConsArena::new(fw.schema().clone());
        let mut chain = SuffixChain::build(&mut arena, fw).unwrap();
        chain.remap(&FxMap::default());
    }
}
