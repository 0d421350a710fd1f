//! Query-answer caches (§5.2.2's group-locality device).
//!
//! The paper's inter-domain flooding leans on small-world behaviour:
//! *"the probability of finding answers to query Q in the neighborhood
//! of a relevant peer is very high [...] some of its neighbors may be
//! interested in the same data, and thus have cached answers to similar
//! queries."* [`QueryCache`] is that per-peer cache: a bounded LRU from
//! query template to the answering peers last observed, letting a
//! flooded neighbor short-circuit a whole domain visit.
//!
//! Cached entries are *descriptions of the past* — exactly like summary
//! freshness, they can go stale; consumers decide how to validate.
//!
//! Answer lists are shared, not copied: every peer that answered a
//! query together holds the same `Rc<[NodeId]>`, and a cache hit hands
//! out another reference to it.
//!
//! A flood looks the cache up at every reached peer, and a lookup's
//! originator re-inserts the same template after every run of valid
//! answers, so both operations return early when the template is
//! already the most recently used entry: nothing moves, and the cache
//! ends in the state the full remove-and-push-front would leave.

use std::collections::VecDeque;
use std::rc::Rc;

use p2psim::network::NodeId;

/// One cached answer: the peers that answered a template's query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedAnswer {
    /// Workload template index.
    pub template: usize,
    /// Peers observed answering (shared with every cache that
    /// recorded the same answer).
    pub answering: Rc<[NodeId]>,
}

/// A bounded per-peer LRU cache of query answers.
#[derive(Debug, Clone)]
pub struct QueryCache {
    capacity: usize,
    /// Most-recently-used first.
    entries: VecDeque<CachedAnswer>,
}

impl QueryCache {
    /// Creates a cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            entries: VecDeque::new(),
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts or refreshes the answer for a template (moves it to the
    /// MRU position; evicts the LRU entry when full).
    pub fn insert(&mut self, template: usize, answering: Rc<[NodeId]>) {
        if let Some(front) = self.entries.front_mut().filter(|e| e.template == template) {
            // Already the most recently used: only the answer changes.
            front.answering = answering;
            return;
        }
        self.entries.retain(|e| e.template != template);
        self.entries.push_front(CachedAnswer {
            template,
            answering,
        });
        while self.entries.len() > self.capacity {
            self.entries.pop_back();
        }
    }

    /// Looks a template up, refreshing its recency on hit. A hit on the
    /// most recently used entry moves nothing.
    pub fn lookup(&mut self, template: usize) -> Option<&CachedAnswer> {
        if self.entries.front()?.template != template {
            let pos = self.entries.iter().position(|e| e.template == template)?;
            let entry = self.entries.remove(pos).expect("position just found");
            self.entries.push_front(entry);
        }
        self.entries.front()
    }

    /// The cached answers, most recently used first.
    pub fn iter(&self) -> impl Iterator<Item = &CachedAnswer> + '_ {
        self.entries.iter()
    }

    /// Peeks without touching recency (for tests/metrics).
    pub fn peek(&self, template: usize) -> Option<&CachedAnswer> {
        self.entries.iter().find(|e| e.template == template)
    }

    /// Drops every cached answer (e.g. after a reconciliation invalidates
    /// the domain's descriptions).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peers(ids: &[u32]) -> Rc<[NodeId]> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    fn ids(ids: &[u32]) -> Vec<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let mut c = QueryCache::new(4);
        assert!(c.is_empty());
        c.insert(0, peers(&[1, 2]));
        c.insert(1, peers(&[3]));
        assert_eq!(c.len(), 2);
        assert_eq!(&*c.lookup(0).unwrap().answering, &ids(&[1, 2])[..]);
        assert!(c.lookup(9).is_none());
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = QueryCache::new(2);
        c.insert(0, peers(&[1]));
        c.insert(1, peers(&[2]));
        // Touch 0 so 1 becomes the LRU.
        c.lookup(0);
        c.insert(2, peers(&[3]));
        assert!(c.peek(0).is_some());
        assert!(c.peek(1).is_none(), "LRU evicted");
        assert!(c.peek(2).is_some());
    }

    #[test]
    fn reinsert_replaces_and_refreshes() {
        let mut c = QueryCache::new(2);
        c.insert(0, peers(&[1]));
        c.insert(1, peers(&[2]));
        c.insert(0, peers(&[9, 10]));
        assert_eq!(c.len(), 2);
        assert_eq!(&*c.peek(0).unwrap().answering, &ids(&[9, 10])[..]);
        // 1 is now LRU.
        c.insert(2, peers(&[3]));
        assert!(c.peek(1).is_none());
    }

    #[test]
    fn capacity_floor_and_clear() {
        let mut c = QueryCache::new(0); // clamped to 1
        c.insert(0, peers(&[1]));
        c.insert(1, peers(&[2]));
        assert_eq!(c.len(), 1);
        c.clear();
        assert!(c.is_empty());
    }
}
