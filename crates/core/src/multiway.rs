//! Comparing **more than two** firewall versions (paper §7.3).
//!
//! The paper offers two routes: *cross comparison* (run the pairwise
//! pipeline on each of the `N·(N−1)/2` unordered pairs) and *direct
//! comparison* (extend shaping and comparison to `N` diagrams at once —
//! "considered fairly straightforward"). Both build every version once,
//! by fast construction, into one [`ConsArena`]: [`cross_compare`] runs
//! the arena's product walk on each pair of roots, and [`direct_compare`]
//! runs it once on all `N` roots, whose terminals carry one decision per
//! version. [`direct_compare_via_shaping`] keeps the published route —
//! every version shaped with all the others by generalised node shaping
//! ([`shape_all`]) and walked in lockstep — as the reference for both.

use fw_model::Firewall;

use crate::discrepancy::{coalesce, coalesce_multi, Discrepancy, MultiDiscrepancy};
use crate::fdd::{Edge, Fdd, Node, NodeId};
use crate::{ConsArena, ConsId, CoreError};

/// Pairwise discrepancies keyed by version index pair `(i, j)`, `i < j`.
pub type PairwiseDiscrepancies = Vec<((usize, usize), Vec<Discrepancy>)>;

/// Cross comparison: all pairwise discrepancy sets, keyed by version index
/// pair `(i, j)` with `i < j`. Every pair is diffed in the one arena all
/// versions are built into: the versions share their common subdiagrams by
/// id, and each diff skips them.
///
/// # Errors
///
/// As for [`direct_compare`].
pub fn cross_compare(versions: &[Firewall]) -> Result<PairwiseDiscrepancies, CoreError> {
    let (arena, roots) = intern_versions(versions)?;
    let mut out = Vec::new();
    for i in 0..roots.len() {
        for j in (i + 1)..roots.len() {
            out.push(((i, j), arena.diff(roots[i], roots[j])?));
        }
    }
    Ok(out)
}

/// Direct `N`-way comparison: every region where the versions do not all
/// agree, with the decision of each version. One product walk over all `N`
/// versions' roots in one arena finds them, skipping every subgraph the
/// versions share.
///
/// # Errors
///
/// As for [`crate::compare_firewalls`] on the first failing version, in
/// version order; also rejects fewer than two versions.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), fw_core::CoreError> {
/// use fw_core::direct_compare;
/// use fw_model::paper;
///
/// let ds = direct_compare(&[paper::team_a(), paper::team_b(), paper::team_a()])?;
/// assert!(!ds.is_empty());
/// assert!(ds.iter().all(|d| d.decisions().len() == 3));
/// # Ok(())
/// # }
/// ```
pub fn direct_compare(versions: &[Firewall]) -> Result<Vec<MultiDiscrepancy>, CoreError> {
    let (arena, roots) = intern_versions(versions)?;
    Ok(arena.product(&roots)?.multi_discrepancies())
}

/// Direct comparison as published: the paper-literal construction of every
/// version, shaped with all the others in one pass ([`shape_all`]) and
/// walked in lockstep — the `N`-version mirror of
/// [`crate::compare_firewalls_via_shaping`]. It reports the same disputed
/// packets with the same decisions as [`direct_compare`], cut into finer
/// regions. The shaped trees grow quickly: use it on small policies, as a
/// reference.
///
/// # Errors
///
/// As for [`direct_compare`].
pub fn direct_compare_via_shaping(
    versions: &[Firewall],
) -> Result<Vec<MultiDiscrepancy>, CoreError> {
    let fdds = shape_all(versions)?;
    let fdds: Vec<&Fdd> = fdds.iter().collect();
    Ok(coalesce_multi(crate::compare::lockstep(&fdds)))
}

/// Builds every version by fast construction into one fresh arena, in
/// version order, and returns the arena with the versions' roots.
fn intern_versions(versions: &[Firewall]) -> Result<(ConsArena, Vec<ConsId>), CoreError> {
    check_versions(versions)?;
    let mut arena = ConsArena::new(versions[0].schema().clone());
    let roots = versions
        .iter()
        .map(|v| arena.intern_fdd(&Fdd::from_firewall_fast(v)?))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((arena, roots))
}

/// Shapes all `N` versions into mutually semi-isomorphic FDDs in one pass —
/// the generalisation of [`crate::shape_pair`] that §7.3's direct comparison
/// as published needs ([`direct_compare_via_shaping`]). The `i`-th output
/// is equivalent to `versions[i]`.
///
/// # Errors
///
/// As for [`direct_compare`].
pub fn shape_all(versions: &[Firewall]) -> Result<Vec<Fdd>, CoreError> {
    check_versions(versions)?;
    let mut fdds = Vec::with_capacity(versions.len());
    for v in versions {
        fdds.push(Fdd::from_firewall(v)?.to_simple());
    }
    let roots: Vec<NodeId> = fdds.iter().map(Fdd::root).collect();
    let roots = shape_n(&mut fdds, roots);
    for (f, r) in fdds.iter_mut().zip(&roots) {
        f.set_root(*r);
        f.compact();
    }
    Ok(fdds)
}

fn check_versions(versions: &[Firewall]) -> Result<(), CoreError> {
    if versions.len() < 2 {
        return Err(CoreError::Invariant(
            "need at least two versions to compare".to_owned(),
        ));
    }
    if versions.windows(2).any(|w| w[0].schema() != w[1].schema()) {
        return Err(CoreError::SchemaMismatch);
    }
    Ok(())
}

/// Generalised node shaping: makes the `i`-th node of each diagram
/// semi-isomorphic to all the others, returning the (possibly new) tops.
fn shape_n(fdds: &mut [Fdd], nodes: Vec<NodeId>) -> Vec<NodeId> {
    let d = fdds[0].schema().len();
    let rank = |f: &Fdd, id: NodeId| match f.node(id) {
        Node::Terminal(_) => d,
        Node::Internal { field, .. } => field.index(),
    };
    let min_rank = fdds
        .iter()
        .zip(&nodes)
        .map(|(f, &n)| rank(f, n))
        .min()
        .expect("non-empty versions");
    if min_rank == d {
        // All terminal.
        return nodes;
    }
    let field = fw_model::FieldId(min_rank);
    let domain = fdds[0].schema().field(field).domain();

    // Step 1: insert a node labelled `field` above any later-ranked node.
    let mut tops = Vec::with_capacity(nodes.len());
    for (f, &n) in fdds.iter_mut().zip(&nodes) {
        if rank(f, n) == min_rank {
            tops.push(n);
        } else {
            let label = fw_model::IntervalSet::from_interval(domain);
            tops.push(f.push(Node::Internal {
                field,
                edges: vec![Edge { label, target: n }],
            }));
        }
    }

    // Step 2: align all N edge lists against the union of boundary points.
    let mut cuts: Vec<u64> = Vec::new();
    for (f, &n) in fdds.iter().zip(&tops) {
        if let Node::Internal { edges, .. } = f.node(n) {
            for e in edges {
                let iv = e.label.as_single_interval().expect("simple FDD edge");
                cuts.push(iv.hi());
            }
        }
    }
    cuts.sort_unstable();
    cuts.dedup();
    // `cuts` ends with domain.hi() by completeness.
    debug_assert_eq!(cuts.last().copied(), Some(domain.hi()));

    // For each diagram: split its edges at every cut, collecting per-segment
    // child ids (replicating subgraphs for the extra segments).
    let mut per_fdd_children: Vec<Vec<NodeId>> = Vec::with_capacity(fdds.len());
    for (f, &n) in fdds.iter_mut().zip(&tops) {
        let edges = match f.node(n) {
            Node::Internal { edges, .. } => edges.clone(),
            Node::Terminal(_) => unreachable!("tops are internal after step 1"),
        };
        let mut children = Vec::with_capacity(cuts.len());
        let mut ei = 0;
        let mut first_segment_of_edge = true;
        for &cut in &cuts {
            let iv = edges[ei]
                .label
                .as_single_interval()
                .expect("simple FDD edge");
            let child = if first_segment_of_edge {
                first_segment_of_edge = false;
                edges[ei].target
            } else {
                f.deep_copy(edges[ei].target)
            };
            children.push(child);
            if cut == iv.hi() {
                ei += 1;
                first_segment_of_edge = true;
            } else {
                debug_assert!(cut < iv.hi());
            }
        }
        debug_assert_eq!(ei, edges.len());
        per_fdd_children.push(children);
    }

    // Recurse segment by segment across all N diagrams.
    let mut new_edges_per_fdd: Vec<Vec<Edge>> = vec![Vec::with_capacity(cuts.len()); fdds.len()];
    let mut lo = domain.lo();
    for (seg, &cut) in cuts.iter().enumerate() {
        let tuple: Vec<NodeId> = per_fdd_children.iter().map(|c| c[seg]).collect();
        let shaped = shape_n(fdds, tuple);
        let label = fw_model::IntervalSet::from_interval(
            fw_model::Interval::new(lo, cut).expect("cut bounds ordered"),
        );
        for (k, child) in shaped.into_iter().enumerate() {
            new_edges_per_fdd[k].push(Edge {
                label: label.clone(),
                target: child,
            });
        }
        lo = cut.wrapping_add(1);
    }
    for ((f, &n), edges) in fdds.iter_mut().zip(&tops).zip(new_edges_per_fdd) {
        match f.node_mut(n) {
            Node::Internal { edges: slot, .. } => *slot = edges,
            Node::Terminal(_) => unreachable!(),
        }
    }
    tops
}

/// Projects an `N`-way discrepancy list onto one version pair, yielding the
/// pairwise discrepancies it implies (useful to cross-check
/// [`direct_compare`] against [`cross_compare`]).
pub fn project_pair(ds: &[MultiDiscrepancy], i: usize, j: usize) -> Vec<Discrepancy> {
    coalesce(
        ds.iter()
            .filter(|d| d.decisions()[i] != d.decisions()[j])
            .map(|d| Discrepancy::new(d.predicate().clone(), d.decisions()[i], d.decisions()[j]))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_model::{paper, Decision, FieldDef, Packet, Schema};

    fn tiny_schema() -> Schema {
        Schema::new(vec![
            FieldDef::new("a", 3).unwrap(),
            FieldDef::new("b", 3).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn cross_compare_counts_pairs() {
        let vs = vec![paper::team_a(), paper::team_b(), paper::team_a()];
        let pairs = cross_compare(&vs).unwrap();
        assert_eq!(pairs.len(), 3); // (0,1), (0,2), (1,2)
        let by_key = |i, j| &pairs.iter().find(|(k, _)| *k == (i, j)).unwrap().1;
        assert_eq!(by_key(0, 1).len(), 3);
        assert!(by_key(0, 2).is_empty()); // identical versions
        assert_eq!(by_key(1, 2).len(), 3);
    }

    #[test]
    fn direct_compare_agrees_with_exhaustive_oracle() {
        let vs = vec![
            fw_model::Firewall::parse(tiny_schema(), "a=0-3, b=2-5 -> discard\n* -> accept\n")
                .unwrap(),
            fw_model::Firewall::parse(tiny_schema(), "b=0-1 -> accept\n* -> discard\n").unwrap(),
            fw_model::Firewall::parse(tiny_schema(), "a=5-7 -> discard\n* -> accept\n").unwrap(),
        ];
        let ds = direct_compare(&vs).unwrap();
        for a in 0..8u64 {
            for b in 0..8u64 {
                let p = Packet::new(vec![a, b]);
                let decs: Vec<_> = vs.iter().map(|f| f.decision_for(&p).unwrap()).collect();
                let disagree = decs.windows(2).any(|w| w[0] != w[1]);
                let hit = ds.iter().find(|d| d.predicate().matches(&p));
                assert_eq!(disagree, hit.is_some(), "at {p}");
                if let Some(d) = hit {
                    assert_eq!(d.decisions(), &decs[..], "at {p}");
                }
            }
        }
    }

    #[test]
    fn direct_compare_regions_are_disjoint() {
        let vs = vec![paper::team_a(), paper::team_b(), paper::team_a()];
        let ds = direct_compare(&vs).unwrap();
        for (i, x) in ds.iter().enumerate() {
            for y in &ds[i + 1..] {
                assert!(x.predicate().intersect(y.predicate()).is_none());
            }
        }
    }

    #[test]
    fn direct_projection_matches_pairwise() {
        let vs = vec![paper::team_a(), paper::team_b()];
        let multi = direct_compare(&vs).unwrap();
        let pairwise = crate::compare_firewalls(&vs[0], &vs[1]).unwrap();
        let projected = project_pair(&multi, 0, 1);
        // Same disputed space and decisions, witness-checked both ways.
        for d in &projected {
            let w = d.witness();
            assert!(pairwise.iter().any(|p| p.predicate().matches(&w)
                && p.left() == d.left()
                && p.right() == d.right()));
        }
        for p in &pairwise {
            let w = p.witness();
            assert!(projected.iter().any(|d| d.predicate().matches(&w)));
        }
    }

    #[test]
    fn all_identical_versions_yield_nothing() {
        let vs = vec![
            paper::team_b(),
            paper::team_b(),
            paper::team_b(),
            paper::team_b(),
        ];
        assert!(direct_compare(&vs).unwrap().is_empty());
    }

    #[test]
    fn three_way_disagreement_decisions_recorded() {
        let vs = vec![
            fw_model::Firewall::parse(tiny_schema(), "* -> accept").unwrap(),
            fw_model::Firewall::parse(tiny_schema(), "* -> discard").unwrap(),
            fw_model::Firewall::parse(tiny_schema(), "* -> accept-log").unwrap(),
        ];
        let ds = direct_compare(&vs).unwrap();
        assert_eq!(ds.len(), 1);
        assert_eq!(
            ds[0].decisions(),
            &[Decision::Accept, Decision::Discard, Decision::AcceptLog]
        );
    }

    #[test]
    fn too_few_versions_rejected() {
        assert!(direct_compare(&[paper::team_a()]).is_err());
        assert!(cross_compare(&[]).is_err());
    }
}
