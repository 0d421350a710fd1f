//! The cooperation list (§4.1): per-partner freshness bookkeeping
//! attached to a global summary.

use std::collections::BTreeMap;

use p2psim::network::NodeId;

use crate::freshness::Freshness;

/// The cooperation list `CL` of one global summary: an element per
/// partner peer holding its freshness value.
///
/// The list keeps its count of stale entries up to date as entries
/// change, so the α trigger ([`CooperationList::stale_fraction`],
/// [`CooperationList::needs_reconciliation`]) costs O(1) however long
/// the list is.
#[derive(Debug, Clone, Default)]
pub struct CooperationList {
    entries: BTreeMap<NodeId, Freshness>,
    /// Entries whose freshness has its stale bit set.
    stale: usize,
}

impl CooperationList {
    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a partner with the given initial freshness (`Fresh` for
    /// construction-time partners, `NeedsRefresh` for §4.3's late
    /// joiners whose data awaits the next pull).
    pub fn add_partner(&mut self, peer: NodeId, freshness: Freshness) {
        let old = self.entries.insert(peer, freshness);
        self.recount(old, Some(freshness));
    }

    /// Removes a partner (on `drop` messages or reconciliation cleanup).
    pub fn remove_partner(&mut self, peer: NodeId) -> bool {
        let old = self.entries.remove(&peer);
        self.recount(old, None);
        old.is_some()
    }

    /// Moves the stale count from an entry's `old` freshness (`None`:
    /// absent) to its `new` one.
    fn recount(&mut self, old: Option<Freshness>, new: Option<Freshness>) {
        let stale = |f: Option<Freshness>| usize::from(f.is_some_and(Freshness::as_stale_bit));
        self.stale = self.stale + stale(new) - stale(old);
    }

    /// True when the peer is a partner.
    pub fn contains(&self, peer: NodeId) -> bool {
        self.entries.contains_key(&peer)
    }

    /// The freshness of one partner.
    pub fn freshness(&self, peer: NodeId) -> Option<Freshness> {
        self.entries.get(&peer).copied()
    }

    /// Updates a partner's freshness (push messages); returns false when
    /// the peer is unknown.
    pub fn set_freshness(&mut self, peer: NodeId, freshness: Freshness) -> bool {
        match self.entries.get_mut(&peer) {
            Some(slot) => {
                let old = std::mem::replace(slot, freshness);
                self.recount(Some(old), Some(freshness));
                true
            }
            None => false,
        }
    }

    /// Number of partners.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no partner is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All partners in id order.
    pub fn partners(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.entries.keys().copied()
    }

    /// `P_fresh`: partners whose descriptions are fresh (§6.1.2).
    pub fn fresh_partners(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.entries
            .iter()
            .filter(|(_, f)| !f.as_stale_bit())
            .map(|(&p, _)| p)
    }

    /// `P_old`: partners whose descriptions are considered old (§6.1.2).
    pub fn old_partners(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.entries
            .iter()
            .filter(|(_, f)| f.as_stale_bit())
            .map(|(&p, _)| p)
    }

    /// The reconciliation trigger metric: `Σ v / |CL|` under the 1-bit
    /// view (§6.1.1's `Σ_{v∈CL} v / |CL| ≥ α`).
    pub fn stale_fraction(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        self.stale as f64 / self.entries.len() as f64
    }

    /// True when reconciliation must fire.
    pub fn needs_reconciliation(&self, alpha: f64) -> bool {
        !self.is_empty() && self.stale_fraction() >= alpha
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peer(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn add_set_remove() {
        let mut cl = CooperationList::new();
        cl.add_partner(peer(1), Freshness::Fresh);
        cl.add_partner(peer(2), Freshness::NeedsRefresh);
        assert_eq!(cl.len(), 2);
        assert!(cl.contains(peer(1)));
        assert_eq!(cl.freshness(peer(2)), Some(Freshness::NeedsRefresh));
        assert!(cl.set_freshness(peer(1), Freshness::Unavailable));
        assert!(!cl.set_freshness(peer(9), Freshness::Fresh));
        assert!(cl.remove_partner(peer(1)));
        assert!(!cl.remove_partner(peer(1)));
        assert_eq!(cl.len(), 1);
    }

    #[test]
    fn fresh_and_old_partitions() {
        let mut cl = CooperationList::new();
        cl.add_partner(peer(1), Freshness::Fresh);
        cl.add_partner(peer(2), Freshness::NeedsRefresh);
        cl.add_partner(peer(3), Freshness::Unavailable);
        cl.add_partner(peer(4), Freshness::Fresh);
        let fresh: Vec<NodeId> = cl.fresh_partners().collect();
        let old: Vec<NodeId> = cl.old_partners().collect();
        assert_eq!(fresh, vec![peer(1), peer(4)]);
        assert_eq!(old, vec![peer(2), peer(3)]);
    }

    #[test]
    fn stale_fraction_and_trigger() {
        let mut cl = CooperationList::new();
        assert_eq!(cl.stale_fraction(), 0.0);
        assert!(!cl.needs_reconciliation(0.0), "empty list never triggers");
        for i in 0..10 {
            cl.add_partner(peer(i), Freshness::Fresh);
        }
        assert_eq!(cl.stale_fraction(), 0.0);
        for i in 0..3 {
            cl.set_freshness(peer(i), Freshness::NeedsRefresh);
        }
        assert!((cl.stale_fraction() - 0.3).abs() < 1e-12);
        assert!(cl.needs_reconciliation(0.3));
        assert!(!cl.needs_reconciliation(0.31));
    }

    mod properties {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            /// The stale fraction always equals |old| / |all|, and the
            /// fresh/old partitions are complementary.
            #[test]
            fn partitions_are_exact(states in prop::collection::vec(0u8..3, 1..120)) {
                let mut cl = CooperationList::new();
                for (i, &s) in states.iter().enumerate() {
                    cl.add_partner(NodeId(i as u32), Freshness::from_u2(s).unwrap());
                }
                let fresh = cl.fresh_partners().count();
                let old = cl.old_partners().count();
                prop_assert_eq!(fresh + old, cl.len());
                let expect = old as f64 / cl.len() as f64;
                prop_assert!((cl.stale_fraction() - expect).abs() < 1e-12);
                // Trigger is exactly the threshold comparison.
                prop_assert_eq!(cl.needs_reconciliation(expect), !cl.is_empty());
                if old < cl.len() {
                    prop_assert!(!cl.needs_reconciliation(expect + 0.01));
                }
            }

            /// The stale count kept through any sequence of adds,
            /// removals and freshness updates equals a recount of the
            /// entries, and the fraction is the same quotient.
            #[test]
            fn kept_stale_count_matches_a_recount(
                ops in prop::collection::vec((0u8..3, 0u32..24, 0u8..3), 1..200),
            ) {
                let mut cl = CooperationList::new();
                for (op, peer, state) in ops {
                    let (p, f) = (NodeId(peer), Freshness::from_u2(state).unwrap());
                    match op {
                        0 => cl.add_partner(p, f),
                        1 => {
                            cl.remove_partner(p);
                        }
                        _ => {
                            cl.set_freshness(p, f);
                        }
                    }
                    let recount = cl.old_partners().count();
                    prop_assert_eq!(cl.stale, recount);
                    let fraction = if cl.is_empty() {
                        0.0
                    } else {
                        recount as f64 / cl.len() as f64
                    };
                    prop_assert_eq!(cl.stale_fraction().to_bits(), fraction.to_bits());
                }
            }
        }
    }
}
