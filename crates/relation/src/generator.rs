//! Synthetic dataset generators.
//!
//! The paper evaluates on synthetic workloads ("each query is matched by
//! 10 % of the total number of peers", Table 3). To realize that, the
//! scenario layer needs *controllable* peer databases: a designated subset
//! of peers must hold tuples matching a query template while the rest must
//! not. The discriminating attribute is `disease` (crisp categorical), so
//! match/avoid generation is exact, not probabilistic.
//!
//! Sex and disease names are interned: the sex names once per process,
//! the disease names in the distributions, and the targets' values as
//! `Arc<str>`; a generated row's text values share those, so
//! a row costs one allocation (its value vector), not one per text value.

use std::sync::{Arc, LazyLock};

use rand::Rng;

use crate::schema::Schema;
use crate::table::Table;
use crate::value::Value;

/// The two sex values, `[female, male]`, interned once: the BK's sex
/// labels name exactly these.
static SEXES: LazyLock<[Arc<str>; 2]> = LazyLock::new(|| ["female".into(), "male".into()]);

/// Distribution parameters for a synthetic Patient population.
#[derive(Debug, Clone)]
pub struct PatientDistributions {
    /// Mean and std-dev of the age normal distribution.
    pub age: (f64, f64),
    /// Age clamp range.
    pub age_range: (f64, f64),
    /// Mean and std-dev of the BMI normal distribution.
    pub bmi: (f64, f64),
    /// BMI clamp range.
    pub bmi_range: (f64, f64),
    /// Probability that a patient is female.
    pub female_prob: f64,
    /// Disease names with relative weights (need not sum to 1).
    pub diseases: Vec<(Arc<str>, f64)>,
}

impl Default for PatientDistributions {
    fn default() -> Self {
        Self {
            age: (45.0, 22.0),
            age_range: (0.0, 100.0),
            bmi: (23.0, 4.5),
            bmi_range: (12.0, 45.0),
            female_prob: 0.5,
            diseases: [
                ("malaria", 2.0),
                ("tuberculosis", 1.0),
                ("influenza", 3.0),
                ("anorexia", 1.0),
                ("bulimia", 0.5),
                ("diabetes", 2.0),
                ("hypertension", 2.5),
                ("asthma", 1.5),
            ]
            .into_iter()
            .map(|(n, w)| (n.into(), w))
            .collect(),
        }
    }
}

/// The tuple profile a query template selects on. `None` fields are
/// unconstrained.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MatchTarget {
    /// Required sex value.
    pub sex: Option<Arc<str>>,
    /// Required disease value.
    pub disease: Option<Arc<str>>,
    /// Required age interval (inclusive).
    pub age: Option<(f64, f64)>,
    /// Required BMI interval (inclusive).
    pub bmi: Option<(f64, f64)>,
}

impl MatchTarget {
    /// True when a patient row (age, sex, bmi, disease) satisfies the target.
    pub fn admits(&self, row: &[Value]) -> bool {
        let age = row[0].as_f64().unwrap_or(f64::NAN);
        let sex = row[1].as_str().unwrap_or("");
        let bmi = row[2].as_f64().unwrap_or(f64::NAN);
        let disease = row[3].as_str().unwrap_or("");
        if let Some(s) = &self.sex {
            if **s != *sex {
                return false;
            }
        }
        if let Some(d) = &self.disease {
            if **d != *disease {
                return false;
            }
        }
        if let Some((lo, hi)) = self.age {
            if !(age >= lo && age <= hi) {
                return false;
            }
        }
        if let Some((lo, hi)) = self.bmi {
            if !(bmi >= lo && bmi <= hi) {
                return false;
            }
        }
        true
    }
}

/// Samples a standard normal via Box–Muller (keeps us inside the approved
/// `rand` dependency; `rand_distr` is intentionally not used).
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Samples a clamped normal.
fn clamped_normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std: f64, range: (f64, f64)) -> f64 {
    (mean + std * standard_normal(rng)).clamp(range.0, range.1)
}

/// Weighted choice over `(name, weight)` pairs; the last pair absorbs
/// rounding.
fn weighted_choice<'a, R: Rng + ?Sized>(
    rng: &mut R,
    items: impl Iterator<Item = &'a (Arc<str>, f64)> + Clone,
) -> Value {
    let total: f64 = items.clone().map(|(_, w)| w.max(0.0)).sum();
    debug_assert!(total > 0.0, "weights must be positive");
    let mut pick = rng.gen_range(0.0..total);
    let mut last = None;
    for (name, w) in items {
        pick -= w.max(0.0);
        if pick <= 0.0 {
            return Value::Text(Arc::clone(name));
        }
        last = Some(name);
    }
    last.map_or_else(|| Value::text(""), |name| Value::Text(Arc::clone(name)))
}

/// The interned name of the sex drawn with probability `female_prob`.
fn draw_sex<R: Rng + ?Sized>(rng: &mut R, female_prob: f64) -> Value {
    let [female, male] = &*SEXES;
    Value::Text(Arc::clone(if rng.gen_bool(female_prob) {
        female
    } else {
        male
    }))
}

/// Generates one background patient row from the distributions.
pub fn random_patient<R: Rng + ?Sized>(rng: &mut R, dist: &PatientDistributions) -> Vec<Value> {
    let mut row = Vec::with_capacity(4);
    random_patient_into(rng, dist, &mut row);
    row
}

/// [`random_patient`] into `row`, replacing its contents: the same
/// draws and values, in a vector that may be reused.
pub fn random_patient_into<R: Rng + ?Sized>(
    rng: &mut R,
    dist: &PatientDistributions,
    row: &mut Vec<Value>,
) {
    let age = clamped_normal(rng, dist.age.0, dist.age.1, dist.age_range).round();
    let sex = draw_sex(rng, dist.female_prob.clamp(0.0, 1.0));
    let bmi = clamped_normal(rng, dist.bmi.0, dist.bmi.1, dist.bmi_range);
    let disease = weighted_choice(rng, dist.diseases.iter());
    row.clear();
    row.extend([
        Value::Int(age as i64),
        sex,
        Value::Float((bmi * 10.0).round() / 10.0),
        disease,
    ]);
}

/// Generates a patient row guaranteed to satisfy `target`; unconstrained
/// attributes come from `dist`.
pub fn matching_patient<R: Rng + ?Sized>(
    rng: &mut R,
    dist: &PatientDistributions,
    target: &MatchTarget,
) -> Vec<Value> {
    let mut row = Vec::with_capacity(4);
    matching_patient_into(rng, dist, target, &mut row);
    row
}

/// [`matching_patient`] into `row`, replacing its contents.
pub fn matching_patient_into<R: Rng + ?Sized>(
    rng: &mut R,
    dist: &PatientDistributions,
    target: &MatchTarget,
    row: &mut Vec<Value>,
) {
    let (age_lo, age_hi) = target.age.unwrap_or(dist.age_range);
    let age = rng.gen_range(age_lo..=age_hi).round();
    let sex = match &target.sex {
        Some(s) => Value::Text(Arc::clone(s)),
        None => draw_sex(rng, dist.female_prob),
    };
    let (bmi_lo, bmi_hi) = target.bmi.unwrap_or(dist.bmi_range);
    let bmi = rng.gen_range(bmi_lo..=bmi_hi);
    let disease = match &target.disease {
        Some(d) => Value::Text(Arc::clone(d)),
        None => weighted_choice(rng, dist.diseases.iter()),
    };
    row.clear();
    row.extend([
        Value::Int(age as i64),
        sex,
        Value::Float((bmi * 10.0).round() / 10.0),
        disease,
    ]);
}

/// Generates a patient row guaranteed to *not* satisfy `target`.
///
/// The target must constrain at least one attribute. When a disease is
/// constrained, avoidance simply excludes it from the pool (crisp).
/// Otherwise the first constrained attribute is forced outside its
/// interval / value.
pub fn avoiding_patient<R: Rng + ?Sized>(
    rng: &mut R,
    dist: &PatientDistributions,
    target: &MatchTarget,
) -> Vec<Value> {
    let mut row = Vec::with_capacity(4);
    avoiding_patient_into(rng, dist, target, &mut row);
    row
}

/// [`avoiding_patient`] into `row`, replacing its contents.
pub fn avoiding_patient_into<R: Rng + ?Sized>(
    rng: &mut R,
    dist: &PatientDistributions,
    target: &MatchTarget,
    row: &mut Vec<Value>,
) {
    // The row's own disease draw is overwritten below when the target
    // constrains the disease; it is still drawn, so the RNG stream does
    // not depend on the target.
    random_patient_into(rng, dist, row);
    if let Some(d) = &target.disease {
        let pool = dist.diseases.iter().filter(|(n, _)| n != d);
        assert!(
            pool.clone().next().is_some(),
            "cannot avoid the only disease in the pool"
        );
        row[3] = weighted_choice(rng, pool);
        return;
    }
    if let Some(s) = &target.sex {
        let [female, male] = &*SEXES;
        let other = if **s == **female { male } else { female };
        row[1] = Value::Text(Arc::clone(other));
        return;
    }
    if let Some((lo, hi)) = target.age {
        // Ages are integers, so avoidance works on integer bands that
        // cannot round back into the target interval.
        let (dlo, dhi) = (dist.age_range.0 as i64, dist.age_range.1 as i64);
        let below_hi = (lo.ceil() as i64) - 1;
        let above_lo = (hi.floor() as i64) + 1;
        let below = below_hi >= dlo;
        let above = above_lo <= dhi;
        assert!(below || above, "age target covers the whole domain");
        let age = if below && (!above || rng.gen_bool(0.5)) {
            rng.gen_range(dlo..=below_hi)
        } else {
            rng.gen_range(above_lo..=dhi)
        };
        row[0] = Value::Int(age);
        return;
    }
    if let Some((lo, hi)) = target.bmi {
        // BMIs are stored with one decimal, so keep a 0.1 guard band
        // around the target to survive rounding.
        let (dlo, dhi) = dist.bmi_range;
        let below = lo - 0.1 > dlo;
        let above = hi + 0.1 < dhi;
        assert!(below || above, "bmi target covers the whole domain");
        let bmi = if below && (!above || rng.gen_bool(0.5)) {
            rng.gen_range(dlo..(lo - 0.1))
        } else {
            rng.gen_range((hi + 0.2)..=dhi)
        };
        row[2] = Value::Float((bmi * 10.0).round() / 10.0);
        return;
    }
    panic!("avoiding_patient needs a constrained target");
}

/// Builds a full peer database: `n` rows, of which `guaranteed_matches`
/// satisfy `target` and the rest are guaranteed misses.
pub fn patient_table<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    dist: &PatientDistributions,
    target: &MatchTarget,
    guaranteed_matches: usize,
) -> Table {
    let mut t = Table::new(Schema::patient());
    let hits = guaranteed_matches.min(n);
    let unconstrained = *target == MatchTarget::default();
    for _ in 0..hits {
        t.insert(matching_patient(rng, dist, target))
            .expect("generated row conforms");
    }
    for _ in hits..n {
        // An unconstrained target admits every row, so "avoiding" it is
        // impossible — background rows are then simply random.
        let row = if unconstrained {
            random_patient(rng, dist)
        } else {
            avoiding_patient(rng, dist, target)
        };
        t.insert(row).expect("generated row conforms");
    }
    t.drain_changes(); // construction is not "modification"
    t
}

/// Generic numeric table for synthetic BKs: `arity` float attributes
/// uniform over `range`. Used by benchmarks that sweep grid granularity.
pub fn numeric_table<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    arity: usize,
    range: (f64, f64),
) -> Table {
    let attrs = (0..arity)
        .map(|i| crate::schema::Attribute::new(format!("attr{i}"), crate::schema::AttrType::Float))
        .collect();
    let schema = Schema::new(attrs).expect("unique generated names");
    let mut t = Table::new(schema);
    for _ in 0..n {
        let row = (0..arity)
            .map(|_| Value::Float(rng.gen_range(range.0..range.1)))
            .collect();
        t.insert(row).expect("generated row conforms");
    }
    t.drain_changes();
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn random_patients_are_valid_rows() {
        let mut r = rng();
        let dist = PatientDistributions::default();
        let schema = Schema::patient();
        for _ in 0..200 {
            let row = random_patient(&mut r, &dist);
            schema.check_row(&row).unwrap();
            let age = row[0].as_f64().unwrap();
            assert!((0.0..=100.0).contains(&age));
            let bmi = row[2].as_f64().unwrap();
            assert!((12.0..=45.0).contains(&bmi));
        }
    }

    #[test]
    fn matching_rows_always_match() {
        let mut r = rng();
        let dist = PatientDistributions::default();
        let target = MatchTarget {
            sex: Some("female".into()),
            disease: Some("anorexia".into()),
            bmi: Some((12.0, 19.0)),
            age: None,
        };
        for _ in 0..200 {
            let row = matching_patient(&mut r, &dist, &target);
            assert!(target.admits(&row), "row {row:?}");
        }
    }

    #[test]
    fn avoiding_rows_never_match() {
        let mut r = rng();
        let dist = PatientDistributions::default();
        for target in [
            MatchTarget {
                disease: Some("malaria".into()),
                ..Default::default()
            },
            MatchTarget {
                sex: Some("female".into()),
                ..Default::default()
            },
            MatchTarget {
                age: Some((20.0, 40.0)),
                ..Default::default()
            },
            MatchTarget {
                bmi: Some((18.0, 25.0)),
                ..Default::default()
            },
        ] {
            for _ in 0..200 {
                let row = avoiding_patient(&mut r, &dist, &target);
                assert!(!target.admits(&row), "target {target:?} admitted {row:?}");
            }
        }
    }

    #[test]
    fn patient_table_split() {
        let mut r = rng();
        let dist = PatientDistributions::default();
        let target = MatchTarget {
            disease: Some("malaria".into()),
            ..Default::default()
        };
        let t = patient_table(&mut r, 50, &dist, &target, 10);
        assert_eq!(t.len(), 50);
        let matches = t.iter().filter(|(_, row)| target.admits(row)).count();
        assert_eq!(matches, 10);
        assert_eq!(t.pending_changes(), 0, "construction drains its changes");
    }

    #[test]
    fn age_distribution_is_roughly_centered() {
        let mut r = rng();
        let dist = PatientDistributions::default();
        let n = 2000;
        let mean: f64 = (0..n)
            .map(|_| random_patient(&mut r, &dist)[0].as_f64().unwrap())
            .sum::<f64>()
            / n as f64;
        // Clamping skews slightly; a generous band is enough to catch
        // a broken sampler.
        assert!((35.0..=55.0).contains(&mean), "mean age {mean}");
    }

    #[test]
    fn numeric_table_shape() {
        let mut r = rng();
        let t = numeric_table(&mut r, 100, 3, (0.0, 100.0));
        assert_eq!(t.len(), 100);
        assert_eq!(t.schema().arity(), 3);
        for (_, row) in t.iter() {
            for v in row {
                let x = v.as_f64().unwrap();
                assert!((0.0..100.0).contains(&x));
            }
        }
    }

    #[test]
    fn determinism_under_same_seed() {
        let dist = PatientDistributions::default();
        let target = MatchTarget {
            disease: Some("asthma".into()),
            ..Default::default()
        };
        let a = patient_table(&mut rng(), 20, &dist, &target, 5);
        let b = patient_table(&mut rng(), 20, &dist, &target, 5);
        assert_eq!(a.tuples(), b.tuples());
    }
}
