//! Hierarchical categorical vocabularies.
//!
//! Categorical attributes (sex, disease) are described by *taxonomies*: a
//! tree of terms where leaves are raw database values and inner nodes are
//! generalizations. This is the shape of SNOMED CT, which the paper names
//! as the Common Background Knowledge of its medical-collaboration
//! scenario; we build a small synthetic equivalent (see
//! [`crate::bk::BackgroundKnowledge::medical_cbk`]) since SNOMED itself is
//! licensed. The protocol only needs a *shared* vocabulary, not a real
//! clinical one.

use serde::{Deserialize, Serialize};

use crate::descriptor::{DescriptorSet, Grade, LabelId, MAX_LABELS};
use crate::error::FuzzyError;

/// A node in the taxonomy tree.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct TaxNode {
    label: String,
    parent: Option<u16>,
    children: Vec<u16>,
}

/// A rooted tree of categorical terms.
///
/// Every node — leaf or inner — is a descriptor with a [`LabelId`]; the
/// root is id 0. Raw values map to leaves with grade 1 (categorical data
/// is crisp); generalization walks toward the root.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Taxonomy {
    name: String,
    nodes: Vec<TaxNode>,
}

impl Taxonomy {
    /// Creates a taxonomy with just a root term.
    pub fn new(name: impl Into<String>, root_label: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            nodes: vec![TaxNode {
                label: root_label.into(),
                parent: None,
                children: vec![],
            }],
        }
    }

    /// Builds a flat taxonomy: a root with the given leaves. This is the
    /// common case for small enumerations like `sex`.
    pub fn flat(
        name: impl Into<String>,
        root_label: impl Into<String>,
        leaves: &[&str],
    ) -> Result<Self, FuzzyError> {
        let mut t = Self::new(name, root_label);
        for l in leaves {
            t.add_child(LabelId(0), *l)?;
        }
        Ok(t)
    }

    /// The attribute name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The root descriptor (always `LabelId(0)`).
    pub fn root(&self) -> LabelId {
        LabelId(0)
    }

    /// Total number of terms (inner + leaf).
    pub fn label_count(&self) -> usize {
        self.nodes.len()
    }

    /// Adds a child term under `parent` and returns its id.
    pub fn add_child(
        &mut self,
        parent: LabelId,
        label: impl Into<String>,
    ) -> Result<LabelId, FuzzyError> {
        let label = label.into();
        if self.nodes.len() >= MAX_LABELS {
            return Err(FuzzyError::TooManyLabels {
                attribute: self.name.clone(),
                got: self.nodes.len() + 1,
            });
        }
        if parent.index() >= self.nodes.len() {
            return Err(FuzzyError::BadTaxonomy(format!(
                "parent {} out of range in `{}`",
                parent.0, self.name
            )));
        }
        if self.nodes.iter().any(|n| n.label == label) {
            return Err(FuzzyError::DuplicateLabel {
                attribute: self.name.clone(),
                label,
            });
        }
        let id = LabelId(self.nodes.len() as u16);
        self.nodes.push(TaxNode {
            label,
            parent: Some(parent.0),
            children: vec![],
        });
        self.nodes[parent.index()].children.push(id.0);
        Ok(id)
    }

    /// Looks a term up by label.
    pub fn label_id(&self, label: &str) -> Option<LabelId> {
        self.nodes
            .iter()
            .position(|n| n.label == label)
            .map(|i| LabelId(i as u16))
    }

    /// The label of a term id.
    pub fn label_name(&self, id: LabelId) -> Option<&str> {
        self.nodes.get(id.index()).map(|n| n.label.as_str())
    }

    /// The parent of a term (None for the root).
    pub fn parent(&self, id: LabelId) -> Option<LabelId> {
        self.nodes
            .get(id.index())
            .and_then(|n| n.parent)
            .map(LabelId)
    }

    /// The children of a term.
    pub fn children(&self, id: LabelId) -> Vec<LabelId> {
        self.nodes
            .get(id.index())
            .map(|n| n.children.iter().copied().map(LabelId).collect())
            .unwrap_or_default()
    }

    /// True when the term has no children.
    pub fn is_leaf(&self, id: LabelId) -> bool {
        self.nodes
            .get(id.index())
            .map(|n| n.children.is_empty())
            .unwrap_or(false)
    }

    /// All leaves, in id order.
    pub fn leaves(&self) -> Vec<LabelId> {
        (0..self.nodes.len() as u16)
            .map(LabelId)
            .filter(|&l| self.is_leaf(l))
            .collect()
    }

    /// Maps a raw categorical value to descriptors. Exact term matches get
    /// grade 1; unknown values map to the root (the "anything" reading), so
    /// summarization never loses tuples.
    pub fn categorize(&self, value: &str) -> Vec<(LabelId, Grade)> {
        vec![self.category(value)]
    }

    /// The one descriptor [`Taxonomy::categorize`] maps `value` to.
    pub fn category(&self, value: &str) -> (LabelId, Grade) {
        (self.label_id(value).unwrap_or(self.root()), 1.0)
    }

    /// The ancestors of a term from its parent up to the root.
    pub fn ancestors(&self, id: LabelId) -> Vec<LabelId> {
        let mut out = Vec::new();
        let mut cur = self.parent(id);
        while let Some(p) = cur {
            out.push(p);
            cur = self.parent(p);
        }
        out
    }

    /// All descendants of a term (not including itself).
    pub fn descendants(&self, id: LabelId) -> DescriptorSet {
        let mut set = DescriptorSet::EMPTY;
        let mut stack = self.children(id);
        while let Some(c) = stack.pop() {
            set.insert(c);
            stack.extend(self.children(c));
        }
        set
    }

    /// Expands a descriptor set downward: every term plus all of its
    /// descendants. Query reformulation uses this so that a predicate on
    /// an inner term ("infectious disease") also matches summaries that
    /// carry only leaf descriptors ("malaria").
    pub fn expand_down(&self, set: DescriptorSet) -> DescriptorSet {
        let mut out = set;
        for l in set.iter() {
            out = out.union(self.descendants(l));
        }
        out
    }

    /// The deepest common ancestor of two terms.
    pub fn common_ancestor(&self, a: LabelId, b: LabelId) -> LabelId {
        if a == b {
            return a;
        }
        let mut seen = DescriptorSet::singleton(a);
        for anc in self.ancestors(a) {
            seen.insert(anc);
        }
        if seen.contains(b) {
            return b;
        }
        for anc in self.ancestors(b) {
            if seen.contains(anc) {
                return anc;
            }
        }
        self.root()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature disease taxonomy in the shape of SNOMED CT.
    fn diseases() -> Taxonomy {
        let mut t = Taxonomy::new("disease", "disease");
        let infectious = t.add_child(t.root(), "infectious").unwrap();
        t.add_child(infectious, "malaria").unwrap();
        t.add_child(infectious, "tuberculosis").unwrap();
        let eating = t.add_child(t.root(), "eating_disorder").unwrap();
        t.add_child(eating, "anorexia").unwrap();
        t.add_child(eating, "bulimia").unwrap();
        t
    }

    #[test]
    fn build_and_lookup() {
        let t = diseases();
        assert_eq!(t.label_count(), 7);
        let malaria = t.label_id("malaria").unwrap();
        assert_eq!(t.label_name(malaria).unwrap(), "malaria");
        assert!(t.is_leaf(malaria));
        assert!(!t.is_leaf(t.root()));
        assert_eq!(t.leaves().len(), 4);
    }

    #[test]
    fn categorize_is_crisp() {
        let t = diseases();
        let pairs = t.categorize("anorexia");
        assert_eq!(pairs.len(), 1);
        assert_eq!(t.label_name(pairs[0].0).unwrap(), "anorexia");
        assert_eq!(pairs[0].1, 1.0);
    }

    #[test]
    fn unknown_value_maps_to_root() {
        let t = diseases();
        let pairs = t.categorize("gout");
        assert_eq!(pairs[0].0, t.root());
    }

    #[test]
    fn ancestors_walk_to_root() {
        let t = diseases();
        let malaria = t.label_id("malaria").unwrap();
        let anc: Vec<&str> = t
            .ancestors(malaria)
            .iter()
            .map(|&l| t.label_name(l).unwrap())
            .collect();
        assert_eq!(anc, vec!["infectious", "disease"]);
    }

    #[test]
    fn descendants_and_expand_down() {
        let t = diseases();
        let infectious = t.label_id("infectious").unwrap();
        let desc = t.descendants(infectious);
        assert_eq!(desc.len(), 2);
        assert!(desc.contains(t.label_id("malaria").unwrap()));

        let q = DescriptorSet::singleton(infectious);
        let expanded = t.expand_down(q);
        assert_eq!(expanded.len(), 3); // infectious + 2 leaves
    }

    #[test]
    fn common_ancestor_cases() {
        let t = diseases();
        let malaria = t.label_id("malaria").unwrap();
        let tb = t.label_id("tuberculosis").unwrap();
        let anorexia = t.label_id("anorexia").unwrap();
        let infectious = t.label_id("infectious").unwrap();
        assert_eq!(t.common_ancestor(malaria, tb), infectious);
        assert_eq!(t.common_ancestor(malaria, anorexia), t.root());
        assert_eq!(t.common_ancestor(malaria, malaria), malaria);
        assert_eq!(t.common_ancestor(malaria, infectious), infectious);
    }

    #[test]
    fn duplicate_and_bad_parent_rejected() {
        let mut t = diseases();
        assert!(matches!(
            t.add_child(t.root(), "malaria"),
            Err(FuzzyError::DuplicateLabel { .. })
        ));
        assert!(matches!(
            t.add_child(LabelId(99), "x"),
            Err(FuzzyError::BadTaxonomy(_))
        ));
    }

    #[test]
    fn flat_taxonomy() {
        let t = Taxonomy::flat("sex", "any", &["female", "male"]).unwrap();
        assert_eq!(t.label_count(), 3);
        assert!(t.is_leaf(t.label_id("female").unwrap()));
        assert_eq!(t.categorize("female")[0].1, 1.0);
    }

    #[test]
    fn label_capacity_enforced() {
        let mut t = Taxonomy::new("big", "root");
        for i in 0..(MAX_LABELS - 1) {
            t.add_child(LabelId(0), format!("leaf{i}")).unwrap();
        }
        assert!(matches!(
            t.add_child(LabelId(0), "overflow"),
            Err(FuzzyError::TooManyLabels { .. })
        ));
    }
}
