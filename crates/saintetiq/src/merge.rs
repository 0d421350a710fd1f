//! Merging distributed summary hierarchies (Bechchi, Raschia & Mouaddib,
//! CIKM 2007 — the paper's reference \[27\]).
//!
//! `Merging(S1, S2)` incorporates the **leaves** `L_z` of `S1` into `S2`
//! using the same incorporation algorithm as the summarization service.
//! Its cost is therefore proportional to the number of leaves of `S1` —
//! *constant with respect to the number of raw tuples* (§6.1.1), which is
//! what makes global-summary maintenance affordable: a peer with a
//! million records still ships and merges at most `max_cells(BK)` leaves.
//!
//! Each merged leaf carries its per-source weights, so the peer-extent
//! (Definition 3) survives merging, and its statistics are folded in.

use crate::engine::{incorporate_contributions, DescentBuffers, EngineConfig};
use crate::error::SummaryError;
use crate::hierarchy::{Contribution, StatsUpdate, SummaryTree};

/// Merges `source`'s leaves into `target`.
///
/// Both trees must be built over the same Background Knowledge (same name
/// and label geometry) — the paper's CBK assumption (§4.1).
pub fn merge_into(
    target: &mut SummaryTree,
    source: &SummaryTree,
    config: &EngineConfig,
) -> Result<(), SummaryError> {
    if target.bk_name() != source.bk_name() || target.label_counts() != source.label_counts() {
        return Err(SummaryError::IncompatibleBk {
            left: target.bk_name().to_string(),
            right: source.bk_name().to_string(),
        });
    }
    let mut run = Vec::new();
    let mut buffers = DescentBuffers::default();
    for cell in source.cells() {
        run.clear();
        run.extend(cell.sources().map(|(source, weight)| Contribution {
            source,
            weight,
            grades: cell.max_grades(),
            stats: StatsUpdate::None,
        }));
        incorporate_contributions(target, config, cell.key(), &run, &mut buffers);
        target.merge_cell_stats(cell.key(), cell.stats());
    }
    Ok(())
}

/// Merges many summaries into a fresh tree — what the paper's
/// reconciliation token computes as it hops from partner to partner
/// (§4.2.2): `NewGS` starts empty and each partner merges its local
/// summary in.
pub fn merge_all<'a, I>(
    bk_name: &str,
    label_counts: &[usize],
    summaries: I,
    config: &EngineConfig,
) -> Result<SummaryTree, SummaryError>
where
    I: IntoIterator<Item = &'a SummaryTree>,
{
    let mut out = SummaryTree::new(bk_name.to_string(), label_counts.to_vec());
    for s in summaries {
        merge_into(&mut out, s, config)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::SourceId;
    use crate::engine::SaintEtiQEngine;
    use fuzzy::bk::BackgroundKnowledge;
    use rand::SeedableRng;
    use relation::generator::{patient_table, MatchTarget, PatientDistributions};
    use relation::schema::Schema;

    fn local_summary(seed: u64, source: u32, n: usize) -> SummaryTree {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dist = PatientDistributions::default();
        let table = patient_table(&mut rng, n, &dist, &MatchTarget::default(), 0);
        let mut e = SaintEtiQEngine::new(
            BackgroundKnowledge::medical_cbk(),
            &Schema::patient(),
            EngineConfig::default(),
            SourceId(source),
        )
        .unwrap();
        e.summarize_table(&table);
        e.into_tree()
    }

    #[test]
    fn merge_preserves_mass_and_cells() {
        let a = local_summary(1, 1, 100);
        let b = local_summary(2, 2, 150);
        let mut merged = a.clone();
        merge_into(&mut merged, &b, &EngineConfig::default()).unwrap();
        merged.check_invariants();
        assert!(
            (merged.total_count() - (a.total_count() + b.total_count())).abs() < 1e-6,
            "mass is additive"
        );
        // Every cell of either input exists in the merge with summed weight.
        for cell in a.cells() {
            let k = cell.key();
            let w_b = b.cell(k).map(|c| c.weight()).unwrap_or(0.0);
            let w_m = merged.cell(k).unwrap().weight();
            assert!((w_m - (cell.weight() + w_b)).abs() < 1e-6);
        }
        for cell in b.cells() {
            assert!(merged.cell(cell.key()).is_some());
        }
    }

    #[test]
    fn merge_unions_peer_extents() {
        let a = local_summary(3, 1, 80);
        let b = local_summary(4, 2, 80);
        let mut merged = a.clone();
        merge_into(&mut merged, &b, &EngineConfig::default()).unwrap();
        let sources = merged.all_sources();
        assert_eq!(
            sources,
            vec![SourceId(1), SourceId(2)],
            "Definition 4: P_S union"
        );
    }

    #[test]
    fn merge_result_size_bounded_by_inputs() {
        // §6.1.1: |merge(S1,S2)| is in the order of max(|S1|, |S2|) — in
        // cell terms, bounded by |cells(S1) ∪ cells(S2)|.
        let a = local_summary(5, 1, 200);
        let b = local_summary(6, 2, 200);
        let mut merged = a.clone();
        merge_into(&mut merged, &b, &EngineConfig::default()).unwrap();
        let union_bound = a
            .cells()
            .chain(b.cells())
            .map(|c| c.key())
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        assert_eq!(merged.leaf_count(), union_bound);
    }

    #[test]
    fn merge_order_does_not_change_cells() {
        let a = local_summary(7, 1, 60);
        let b = local_summary(8, 2, 60);
        let cfg = EngineConfig::default();
        let ab = {
            let mut t = a.clone();
            merge_into(&mut t, &b, &cfg).unwrap();
            t
        };
        let ba = {
            let mut t = b.clone();
            merge_into(&mut t, &a, &cfg).unwrap();
            t
        };
        let ka: Vec<_> = ab.cells().map(|c| c.key().to_vec()).collect();
        let kb: Vec<_> = ba.cells().map(|c| c.key().to_vec()).collect();
        assert_eq!(ka, kb);
        for k in &ka {
            assert!((ab.cell(k).unwrap().weight() - ba.cell(k).unwrap().weight()).abs() < 1e-9);
        }
    }

    #[test]
    fn merge_all_reconciliation_chain() {
        let locals: Vec<SummaryTree> = (0..5)
            .map(|i| local_summary(10 + i as u64, i, 50))
            .collect();
        let merged = merge_all(
            locals[0].bk_name(),
            locals[0].label_counts(),
            locals.iter(),
            &EngineConfig::default(),
        )
        .unwrap();
        merged.check_invariants();
        assert!((merged.total_count() - 250.0).abs() < 1e-6);
        assert_eq!(merged.all_sources().len(), 5);
    }

    #[test]
    fn incompatible_bk_rejected() {
        let a = local_summary(20, 1, 10);
        let mut other = SummaryTree::new("different-bk", a.label_counts().to_vec());
        assert!(matches!(
            merge_into(&mut other, &a, &EngineConfig::default()),
            Err(SummaryError::IncompatibleBk { .. })
        ));
        let mut wrong_geometry = SummaryTree::new(a.bk_name().to_string(), vec![1, 2, 3]);
        assert!(merge_into(&mut wrong_geometry, &a, &EngineConfig::default()).is_err());
    }

    #[test]
    fn merge_folds_statistics() {
        let a = local_summary(30, 1, 40);
        let b = local_summary(31, 2, 40);
        let mut merged = a.clone();
        merge_into(&mut merged, &b, &EngineConfig::default()).unwrap();
        let root_stats = merged.stats_of(merged.root());
        // Age stats count equals total weight (age contributes to every cell).
        assert!((root_stats[0].count() - merged.total_count()).abs() < 1e-6);
        let (amin, amax) = (root_stats[0].min().unwrap(), root_stats[0].max().unwrap());
        assert!(amin >= 0.0 && amax <= 100.0);
    }
}
