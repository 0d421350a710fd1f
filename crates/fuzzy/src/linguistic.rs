//! Linguistic variables (Zadeh 1975).
//!
//! A linguistic variable attaches a vocabulary of labelled membership
//! functions to a numeric attribute, e.g. *age* with `young`, `adult`,
//! `old` (the paper's Figure 2). *Fuzzification* rewrites a raw value into
//! weighted descriptors: `20 years ↦ {0.7/young, 0.3/adult}`.

use serde::{Deserialize, Serialize};

use crate::descriptor::{DescriptorSet, Grade, LabelId, MAX_LABELS};
use crate::error::FuzzyError;
use crate::membership::MembershipFunction;

/// One labelled membership function inside a linguistic variable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Term {
    /// Human-readable label ("young", "underweight", ...).
    pub label: String,
    /// The membership function giving grades over the numeric domain.
    pub mf: MembershipFunction,
}

/// A linguistic variable: a named numeric domain plus its terms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinguisticVariable {
    name: String,
    /// Domain bounds the variable is expected to cover.
    domain: (f64, f64),
    terms: Vec<Term>,
}

impl LinguisticVariable {
    /// Creates a linguistic variable, validating label uniqueness and the
    /// vocabulary size bound.
    pub fn new(
        name: impl Into<String>,
        domain: (f64, f64),
        terms: Vec<Term>,
    ) -> Result<Self, FuzzyError> {
        let name = name.into();
        if terms.len() > MAX_LABELS {
            return Err(FuzzyError::TooManyLabels {
                attribute: name,
                got: terms.len(),
            });
        }
        for (i, t) in terms.iter().enumerate() {
            if terms[..i].iter().any(|u| u.label == t.label) {
                return Err(FuzzyError::DuplicateLabel {
                    attribute: name,
                    label: t.label.clone(),
                });
            }
        }
        Ok(Self {
            name,
            domain,
            terms,
        })
    }

    /// The variable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The declared domain bounds.
    pub fn domain(&self) -> (f64, f64) {
        self.domain
    }

    /// The vocabulary, in label-id order.
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        self.terms.len()
    }

    /// Looks a label up by name.
    pub fn label_id(&self, label: &str) -> Option<LabelId> {
        self.terms
            .iter()
            .position(|t| t.label == label)
            .map(|i| LabelId(i as u16))
    }

    /// The label name for an id, if in range.
    pub fn label_name(&self, id: LabelId) -> Option<&str> {
        self.terms.get(id.index()).map(|t| t.label.as_str())
    }

    /// Fuzzifies a raw value: every label with a non-zero grade, in label
    /// order. This is the *mapping service*'s per-attribute step.
    pub fn fuzzify(&self, x: f64) -> Vec<(LabelId, Grade)> {
        let mut out = Vec::new();
        self.fuzzify_into(x, &mut out);
        out
    }

    /// [`LinguisticVariable::fuzzify`] into a caller-owned buffer, which is
    /// cleared first.
    pub fn fuzzify_into(&self, x: f64, out: &mut Vec<(LabelId, Grade)>) {
        out.clear();
        out.extend(self.terms.iter().enumerate().filter_map(|(i, t)| {
            let g = t.mf.eval(x);
            (g > 0.0).then_some((LabelId(i as u16), g))
        }));
    }

    /// Fuzzifies, drops grades below `tau`, and renormalizes the kept
    /// grades to sum to 1.
    ///
    /// This threshold-and-renormalize step is what makes the engine
    /// reproduce the paper's Table 2 exactly: tuple `t3` (age 18) grades
    /// `{0.9/young, 0.1/adult}`; with `tau = 0.2` the marginal `adult`
    /// reading is pruned and `young` is renormalized to 1, so `t3` lands
    /// entirely in cell `c1` and the cell's tuple count is 2.
    pub fn fuzzify_pruned(&self, x: f64, tau: f64) -> Vec<(LabelId, Grade)> {
        prune_and_renormalize(&self.fuzzify(x), tau)
            .map(|(l, g, _)| (l, g))
            .collect()
    }

    /// The set of labels whose α-cut (at `alpha`) intersects `[lo, hi]`.
    /// Used by query reformulation to turn a range predicate such as
    /// `BMI < 19` into descriptors `{underweight, normal}`.
    pub fn labels_overlapping(&self, lo: f64, hi: f64, alpha: f64) -> DescriptorSet {
        let mut set = DescriptorSet::EMPTY;
        for (i, t) in self.terms.iter().enumerate() {
            if let Some((clo, chi)) = t.mf.alpha_cut(alpha) {
                if clo <= hi && chi >= lo {
                    set.insert(LabelId(i as u16));
                }
            }
        }
        set
    }

    /// The single best label for a value (highest grade; ties broken by
    /// label order). Returns `None` if no label covers `x`.
    pub fn best_label(&self, x: f64) -> Option<(LabelId, Grade)> {
        self.fuzzify(x)
            .into_iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
    }
}

/// The prune-and-renormalize step of
/// [`LinguisticVariable::fuzzify_pruned`], over grades already computed
/// by [`LinguisticVariable::fuzzify`]: drops the grades below `tau` and
/// yields each kept label with its grade renormalized so the kept grades
/// sum to 1, and with its raw grade.
///
/// Callers that need both readings (the mapping service annotates cells
/// with raw grades) evaluate the membership functions once.
pub fn prune_and_renormalize(
    raw: &[(LabelId, Grade)],
    tau: f64,
) -> impl Iterator<Item = (LabelId, Grade, Grade)> + '_ {
    let kept = move || raw.iter().copied().filter(move |&(_, g)| g >= tau);
    let total: f64 = kept().map(|(_, g)| g).sum();
    kept().map(move |(l, g)| (l, if total > 0.0 { g / total } else { g }, g))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn age_variable() -> LinguisticVariable {
        // The paper's Figure 2 shape (young / adult / old over age).
        LinguisticVariable::new(
            "age",
            (0.0, 120.0),
            vec![
                Term {
                    label: "young".into(),
                    mf: MembershipFunction::trapezoid(0.0, 0.0, 17.0, 27.0).unwrap(),
                },
                Term {
                    label: "adult".into(),
                    mf: MembershipFunction::trapezoid(17.0, 27.0, 55.0, 65.0).unwrap(),
                },
                Term {
                    label: "old".into(),
                    mf: MembershipFunction::trapezoid(55.0, 65.0, 120.0, 120.0).unwrap(),
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn figure2_mapping_of_age_20() {
        let v = age_variable();
        let pairs = v.fuzzify(20.0);
        assert_eq!(pairs.len(), 2);
        let young = v.label_id("young").unwrap();
        let adult = v.label_id("adult").unwrap();
        let get = |l: LabelId| pairs.iter().find(|p| p.0 == l).unwrap().1;
        assert!((get(young) - 0.7).abs() < 1e-12);
        assert!((get(adult) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn pruning_renormalizes_age_18() {
        let v = age_variable();
        // Raw: {0.9/young, 0.1/adult}. With tau = 0.2 only young survives
        // and is renormalized to 1.0 (c1 in Table 2 then counts 2 tuples).
        let pairs = v.fuzzify_pruned(18.0, 0.2);
        assert_eq!(pairs.len(), 1);
        assert_eq!(v.label_name(pairs[0].0).unwrap(), "young");
        assert!((pairs[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pruning_keeps_balanced_splits() {
        let v = age_variable();
        let pairs = v.fuzzify_pruned(20.0, 0.2);
        assert_eq!(pairs.len(), 2, "0.7/0.3 split must survive tau=0.2");
        let total: f64 = pairs.iter().map(|p| p.1).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pruning_helper_matches_the_inline_filter() {
        // The filter-then-renormalize loop `fuzzify_pruned` had before the
        // step became `prune_and_renormalize`.
        let inline = |v: &LinguisticVariable, x: f64, tau: f64| {
            let mut kept: Vec<(LabelId, Grade)> = v
                .fuzzify(x)
                .into_iter()
                .filter(|&(_, g)| g >= tau)
                .collect();
            let total: f64 = kept.iter().map(|&(_, g)| g).sum();
            if total > 0.0 {
                for (_, g) in &mut kept {
                    *g /= total;
                }
            }
            kept
        };
        let v = age_variable();
        for tau in [0.0, 0.1, 0.2, 0.3, 0.5, 1.0] {
            for x in (-20..=260).map(|i| i as f64 * 0.5) {
                let raw = v.fuzzify(x);
                let helper: Vec<_> = prune_and_renormalize(&raw, tau).collect();
                let want = inline(&v, x, tau);
                assert_eq!(helper.len(), want.len(), "x = {x}, tau = {tau}");
                for (&(l, g, r), &(wl, wg)) in helper.iter().zip(&want) {
                    assert_eq!((l, g.to_bits()), (wl, wg.to_bits()), "x = {x}, tau = {tau}");
                    assert_eq!(Some(r), raw.iter().find(|p| p.0 == l).map(|p| p.1));
                }
                assert_eq!(v.fuzzify_pruned(x, tau), want);
            }
        }
    }

    #[test]
    fn label_lookup_roundtrip() {
        let v = age_variable();
        for (i, t) in v.terms().iter().enumerate() {
            let id = v.label_id(&t.label).unwrap();
            assert_eq!(id, LabelId(i as u16));
            assert_eq!(v.label_name(id).unwrap(), t.label);
        }
        assert!(v.label_id("nope").is_none());
        assert!(v.label_name(LabelId(99)).is_none());
    }

    #[test]
    fn duplicate_labels_rejected() {
        let err = LinguisticVariable::new(
            "x",
            (0.0, 1.0),
            vec![
                Term {
                    label: "a".into(),
                    mf: MembershipFunction::crisp(0.0, 0.5).unwrap(),
                },
                Term {
                    label: "a".into(),
                    mf: MembershipFunction::crisp(0.5, 1.0).unwrap(),
                },
            ],
        )
        .unwrap_err();
        assert!(matches!(err, FuzzyError::DuplicateLabel { .. }));
    }

    #[test]
    fn range_reformulation_bmi_lt_19() {
        // The paper's §5.1 example: `BMI < 19` extends to
        // {underweight, normal} under the BK.
        let bmi = LinguisticVariable::new(
            "bmi",
            (0.0, 60.0),
            vec![
                Term {
                    label: "underweight".into(),
                    mf: MembershipFunction::trapezoid(0.0, 0.0, 17.5, 19.5).unwrap(),
                },
                Term {
                    label: "normal".into(),
                    mf: MembershipFunction::trapezoid(17.5, 19.5, 24.0, 27.0).unwrap(),
                },
                Term {
                    label: "overweight".into(),
                    mf: MembershipFunction::trapezoid(24.0, 27.0, 60.0, 60.0).unwrap(),
                },
            ],
        )
        .unwrap();
        let set = bmi.labels_overlapping(0.0, 19.0, 0.01);
        assert!(set.contains(bmi.label_id("underweight").unwrap()));
        assert!(set.contains(bmi.label_id("normal").unwrap()));
        assert!(!set.contains(bmi.label_id("overweight").unwrap()));
    }

    #[test]
    fn best_label_picks_dominant_reading() {
        let v = age_variable();
        let (id, g) = v.best_label(20.0).unwrap();
        assert_eq!(v.label_name(id).unwrap(), "young");
        assert!((g - 0.7).abs() < 1e-12);
        assert!(v.best_label(-10.0).is_none());
    }
}
