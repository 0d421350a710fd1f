//! The mapping service (§3.2.1): records → weighted grid cells.
//!
//! For each record, every summarized attribute is fuzzified against the
//! Background Knowledge; grades below the BK's pruning threshold τ are
//! dropped and the survivors renormalized (see
//! [`fuzzy::linguistic::LinguisticVariable::fuzzify_pruned`]; the mapper
//! evaluates each value once and keeps the raw grades too, through
//! [`fuzzy::linguistic::prune_and_renormalize`]). The record
//! is then split over the cartesian product of its per-attribute label
//! sets, each cell weighted by the product of grades. This reproduces the
//! paper's Table 2 exactly: three patients map to `c1 = (young,
//! underweight) : 2`, `c2 = (young, normal) : 0.7`, `c3 = (adult,
//! normal) : 0.3`.

use fuzzy::bk::{AttributeVocabulary, BackgroundKnowledge};
use fuzzy::descriptor::{Grade, LabelId};
use fuzzy::linguistic::prune_and_renormalize;
use relation::schema::Schema;
use relation::value::Value;

use crate::cell::{CandidateCell, CellKey};
use crate::error::SummaryError;

/// Binds a Background Knowledge to a relation schema: for each BK
/// attribute, the index of the feeding column.
///
/// ```
/// use fuzzy::BackgroundKnowledge;
/// use relation::{schema::Schema, table::Table};
/// use saintetiq::mapping::Mapper;
///
/// let mapper = Mapper::bind(BackgroundKnowledge::medical_cbk(), &Schema::patient())?;
/// let table = Table::patient_table1();
/// // Tuple t2 (age 20) splits across two cells: 0.7 young + 0.3 adult.
/// let t2 = table.get(relation::tuple::TupleId(2)).unwrap();
/// let cells = mapper.map_record(&t2.values)?;
/// assert_eq!(cells.len(), 2);
/// let total: f64 = cells.iter().map(|c| c.weight).sum();
/// assert!((total - 1.0).abs() < 1e-9, "mass is conserved");
/// # Ok::<(), saintetiq::SummaryError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Mapper {
    bk: BackgroundKnowledge,
    /// `columns[i]` = schema column index feeding BK attribute `i`.
    columns: Vec<usize>,
}

impl Mapper {
    /// Binds `bk` to `schema` by attribute name. Every BK attribute must
    /// exist in the schema with a compatible kind (numeric vocabulary ↔
    /// int/float column, categorical ↔ text column).
    pub fn bind(bk: BackgroundKnowledge, schema: &Schema) -> Result<Self, SummaryError> {
        let mut columns = Vec::with_capacity(bk.arity());
        for attr in bk.attributes() {
            let idx = schema
                .index_of(attr.name())
                .ok_or_else(|| SummaryError::MissingColumn(attr.name().to_string()))?;
            let col = &schema.attributes()[idx];
            let numeric_col = matches!(
                col.ty,
                relation::schema::AttrType::Int | relation::schema::AttrType::Float
            );
            let numeric_bk = matches!(attr, AttributeVocabulary::Numeric(_));
            if numeric_col != numeric_bk {
                return Err(SummaryError::KindMismatch {
                    attribute: attr.name().to_string(),
                });
            }
            columns.push(idx);
        }
        Ok(Self { bk, columns })
    }

    /// The bound background knowledge.
    pub fn bk(&self) -> &BackgroundKnowledge {
        &self.bk
    }

    /// The schema column index feeding BK attribute `attr_idx`.
    pub fn column(&self, attr_idx: usize) -> usize {
        self.columns[attr_idx]
    }

    /// Maps one record into its weighted candidate cells. Cell weights
    /// over one record sum to 1 (mass conservation), so summary counts
    /// equal record counts.
    ///
    /// A record with a NULL or out-of-vocabulary value on some attribute
    /// is unmappable on that dimension and yields `Err`; the caller
    /// decides whether to skip or fail (the engine skips and counts).
    pub fn map_record(&self, row: &[Value]) -> Result<Vec<CandidateCell>, SummaryError> {
        let mut cells = MappedCells::default();
        self.map_record_into(row, &mut cells)?;
        Ok((0..cells.len())
            .map(|i| CandidateCell {
                key: CellKey(cells.labels(i).to_vec()),
                weight: cells.weight(i),
                grades: cells.grades(i).to_vec(),
            })
            .collect())
    }

    /// [`Mapper::map_record`] into buffers the caller keeps across
    /// records: nothing is allocated once they have grown to a record's
    /// size. On `Err` the buffers hold no usable cells.
    pub fn map_record_into(
        &self,
        row: &[Value],
        out: &mut MappedCells,
    ) -> Result<(), SummaryError> {
        out.clear(self.bk.arity());
        // Per attribute: the (label, renormalized grade, raw grade) kept,
        // attribute `a`'s ending at `out.ends[a]`.
        for (attr_idx, attr) in self.bk.attributes().iter().enumerate() {
            let value = &row[self.columns[attr_idx]];
            let unmappable = || SummaryError::Unmappable {
                attribute: attr.name().to_string(),
                value: value.to_string(),
            };
            let start = out.kept.len();
            match attr {
                AttributeVocabulary::Numeric(var) => {
                    let x = value.as_f64().ok_or_else(unmappable)?;
                    // One evaluation gives both readings: the renormalized
                    // grade weighs the cell, the raw one becomes its
                    // "0.3/adult" annotation.
                    var.fuzzify_into(x, &mut out.raw);
                    out.kept
                        .extend(prune_and_renormalize(&out.raw, self.bk.tau));
                }
                AttributeVocabulary::Categorical(tax) => {
                    let (l, g) = tax.category(value.as_str().ok_or_else(unmappable)?);
                    out.kept.push((l, g, g));
                }
            }
            if out.kept.len() == start {
                return Err(unmappable());
            }
            out.ends.push(out.kept.len());
        }

        // Cartesian product of kept labels, the last attribute varying
        // fastest; weight = Π renormalized grades, in attribute order.
        let span = |a: usize| if a == 0 { 0 } else { out.ends[a - 1] }..out.ends[a];
        let count: usize = (0..out.arity).map(|a| span(a).len()).product();
        out.pick.resize(out.arity, 0);
        for _ in 0..count {
            let mut weight = 1.0;
            for (a, &i) in out.pick.iter().enumerate() {
                let (label, g, raw) = out.kept[span(a).start + i];
                out.labels.push(label);
                out.grades.push(raw);
                weight *= g;
            }
            out.weights.push(weight);
            for (a, i) in out.pick.iter_mut().enumerate().rev() {
                *i += 1;
                if *i < span(a).len() {
                    break;
                }
                *i = 0;
            }
        }
        Ok(())
    }

    /// Maps a whole table; unmappable records are skipped and counted in
    /// the second return value.
    pub fn map_table(&self, table: &relation::table::Table) -> (Vec<Vec<CandidateCell>>, usize) {
        let mut out = Vec::with_capacity(table.len());
        let mut skipped = 0;
        for (_, row) in table.iter() {
            match self.map_record(row) {
                Ok(cells) => out.push(cells),
                Err(_) => skipped += 1,
            }
        }
        (out, skipped)
    }

    /// Renders a cell key with label names, for display/debugging:
    /// `(young, female, underweight, anorexia)`.
    pub fn describe(&self, key: &[LabelId]) -> String {
        let names: Vec<&str> = self
            .bk
            .attributes()
            .iter()
            .zip(key)
            .map(|(attr, &l)| attr.label_name(l).unwrap_or("?"))
            .collect();
        format!("({})", names.join(", "))
    }
}

/// One record's candidate cells as [`Mapper::map_record_into`] writes
/// them: cell `i` has labels [`MappedCells::labels`]`(i)`, weight
/// [`MappedCells::weight`]`(i)` and raw grades
/// [`MappedCells::grades`]`(i)`, in [`Mapper::map_record`]'s order. The
/// buffers are reused from record to record.
#[derive(Debug, Clone, Default)]
pub struct MappedCells {
    arity: usize,
    /// Every cell's labels, back to back.
    labels: Vec<LabelId>,
    /// Every cell's raw grades, back to back.
    grades: Vec<Grade>,
    weights: Vec<f64>,
    /// The kept (label, renormalized grade, raw grade) triples of every
    /// attribute, back to back; attribute `a`'s end at `ends[a]`.
    kept: Vec<(LabelId, Grade, Grade)>,
    ends: Vec<usize>,
    /// One numeric attribute's raw grades.
    raw: Vec<(LabelId, Grade)>,
    /// The product's current pick per attribute.
    pick: Vec<usize>,
}

impl MappedCells {
    fn clear(&mut self, arity: usize) {
        self.arity = arity;
        self.labels.clear();
        self.grades.clear();
        self.weights.clear();
        self.kept.clear();
        self.ends.clear();
        self.pick.clear();
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True when the record mapped to no cell.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Cell `i`'s grid coordinate.
    pub fn labels(&self, i: usize) -> &[LabelId] {
        &self.labels[i * self.arity..(i + 1) * self.arity]
    }

    /// Cell `i`'s weight (see [`CandidateCell::weight`]).
    pub fn weight(&self, i: usize) -> f64 {
        self.weights[i]
    }

    /// Cell `i`'s raw grades (see [`CandidateCell::grades`]).
    pub fn grades(&self, i: usize) -> &[Grade] {
        &self.grades[i * self.arity..(i + 1) * self.arity]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzy::bk::BackgroundKnowledge;
    use relation::table::Table;
    use std::collections::BTreeMap;

    fn mapper() -> Mapper {
        Mapper::bind(BackgroundKnowledge::medical_cbk(), &Schema::patient()).unwrap()
    }

    /// Reproduces the paper's Table 2 from Table 1 exactly.
    #[test]
    fn paper_table2() {
        let m = mapper();
        let table = Table::patient_table1();
        let (mapped, skipped) = m.map_table(&table);
        assert_eq!(skipped, 0);

        // Aggregate weights per (age-label, bmi-label) as Table 2 does
        // (it shows only the age and bmi dimensions).
        let bk = m.bk();
        let age_i = bk.attribute_index("age").unwrap();
        let bmi_i = bk.attribute_index("bmi").unwrap();
        let mut counts: BTreeMap<(String, String), f64> = BTreeMap::new();
        for cells in &mapped {
            for c in cells {
                let age = bk
                    .attribute_at(age_i)
                    .unwrap()
                    .label_name(c.key.0[age_i])
                    .unwrap();
                let bmi = bk
                    .attribute_at(bmi_i)
                    .unwrap()
                    .label_name(c.key.0[bmi_i])
                    .unwrap();
                *counts
                    .entry((age.to_string(), bmi.to_string()))
                    .or_insert(0.0) += c.weight;
            }
        }
        assert_eq!(counts.len(), 3, "exactly cells c1, c2, c3: {counts:?}");
        let get = |a: &str, b: &str| counts[&(a.to_string(), b.to_string())];
        assert!(
            (get("young", "underweight") - 2.0).abs() < 1e-9,
            "c1 count 2"
        );
        assert!((get("young", "normal") - 0.7).abs() < 1e-9, "c2 count 0.7");
        assert!((get("adult", "normal") - 0.3).abs() < 1e-9, "c3 count 0.3");
    }

    #[test]
    fn raw_grades_annotate_cells() {
        let m = mapper();
        let table = Table::patient_table1();
        // Tuple t2 (age 20): its (adult, normal) cell carries raw grade
        // 0.3 on age — the paper's "0.3/adult".
        let t2 = table.get(relation::tuple::TupleId(2)).unwrap();
        let cells = m.map_record(&t2.values).unwrap();
        let bk = m.bk();
        let age_i = bk.attribute_index("age").unwrap();
        let adult = bk.attribute_at(age_i).unwrap().label_id("adult").unwrap();
        let adult_cell = cells.iter().find(|c| c.key.0[age_i] == adult).unwrap();
        assert!((adult_cell.grades[age_i] - 0.3).abs() < 1e-9);
        assert!((adult_cell.weight - 0.3).abs() < 1e-9);
    }

    #[test]
    fn mass_is_conserved_per_record() {
        let m = mapper();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
        let dist = relation::generator::PatientDistributions::default();
        for _ in 0..100 {
            let row = relation::generator::random_patient(&mut rng, &dist);
            let cells = m.map_record(&row).unwrap();
            let total: f64 = cells.iter().map(|c| c.weight).sum();
            assert!((total - 1.0).abs() < 1e-9, "mass {total} for {row:?}");
        }
    }

    #[test]
    fn null_values_are_unmappable() {
        let m = mapper();
        let row = vec![
            Value::Null,
            Value::text("female"),
            Value::Float(20.0),
            Value::text("malaria"),
        ];
        assert!(matches!(
            m.map_record(&row),
            Err(SummaryError::Unmappable { .. })
        ));
    }

    #[test]
    fn unknown_disease_maps_to_taxonomy_root() {
        let m = mapper();
        let row = vec![
            Value::Int(30),
            Value::text("male"),
            Value::Float(22.0),
            Value::text("gout"),
        ];
        let cells = m.map_record(&row).unwrap();
        let bk = m.bk();
        let dis_i = bk.attribute_index("disease").unwrap();
        for c in &cells {
            assert_eq!(
                bk.attribute_at(dis_i)
                    .unwrap()
                    .label_name(c.key.0[dis_i])
                    .unwrap(),
                "any_disease"
            );
        }
    }

    #[test]
    fn bind_rejects_missing_and_mismatched_columns() {
        let bk = BackgroundKnowledge::medical_cbk();
        let schema = Schema::new(vec![relation::schema::Attribute::new(
            "age",
            relation::schema::AttrType::Int,
        )])
        .unwrap();
        assert!(matches!(
            Mapper::bind(bk.clone(), &schema),
            Err(SummaryError::MissingColumn(_))
        ));

        let schema = Schema::new(vec![
            relation::schema::Attribute::new("age", relation::schema::AttrType::Text),
            relation::schema::Attribute::new("sex", relation::schema::AttrType::Text),
            relation::schema::Attribute::new("bmi", relation::schema::AttrType::Float),
            relation::schema::Attribute::new("disease", relation::schema::AttrType::Text),
        ])
        .unwrap();
        assert!(matches!(
            Mapper::bind(bk, &schema),
            Err(SummaryError::KindMismatch { .. })
        ));
    }

    #[test]
    fn describe_renders_label_names() {
        let m = mapper();
        let table = Table::patient_table1();
        let t1 = table.get(relation::tuple::TupleId(1)).unwrap();
        let cells = m.map_record(&t1.values).unwrap();
        let s = m.describe(&cells[0].key);
        assert!(
            s.contains("young") && s.contains("underweight") && s.contains("anorexia"),
            "{s}"
        );
    }
}

/// The mapper's bit-exact reference, kept as a self-check that tests call.
mod reference {
    use fuzzy::bk::{AttributeVocabulary, BackgroundKnowledge};
    use fuzzy::descriptor::{Grade, LabelId};
    use relation::rand::rngs::StdRng;
    use relation::rand::SeedableRng;
    use relation::schema::Schema;
    use relation::value::Value;

    use super::Mapper;
    use crate::cell::{CandidateCell, CellKey};
    use crate::error::SummaryError;

    /// The mapper before it evaluated each value once, kept as the
    /// reference: `fuzzify` for the raw grades, `fuzzify_pruned` for the
    /// kept ones, and a product grown attribute by attribute.
    fn reference_map_record(m: &Mapper, row: &[Value]) -> Result<Vec<CandidateCell>, SummaryError> {
        let mut per_attr: Vec<Vec<(LabelId, Grade, Grade)>> = Vec::new();
        for (attr_idx, attr) in m.bk.attributes().iter().enumerate() {
            let value = &row[m.columns[attr_idx]];
            let unmappable = || SummaryError::Unmappable {
                attribute: attr.name().to_string(),
                value: value.to_string(),
            };
            let kept: Vec<(LabelId, Grade, Grade)> = match attr {
                AttributeVocabulary::Numeric(var) => {
                    let x = value.as_f64().ok_or_else(unmappable)?;
                    let raw = var.fuzzify(x);
                    var.fuzzify_pruned(x, m.bk.tau)
                        .into_iter()
                        .map(|(l, g)| {
                            let rawg = raw
                                .iter()
                                .find(|(rl, _)| *rl == l)
                                .map(|&(_, g)| g)
                                .unwrap_or(g);
                            (l, g, rawg)
                        })
                        .collect()
                }
                AttributeVocabulary::Categorical(tax) => {
                    let s = value.as_str().ok_or_else(unmappable)?;
                    tax.categorize(s)
                        .into_iter()
                        .map(|(l, g)| (l, g, g))
                        .collect()
                }
            };
            if kept.is_empty() {
                return Err(unmappable());
            }
            per_attr.push(kept);
        }
        let mut cells = vec![CandidateCell {
            key: CellKey(Vec::new()),
            weight: 1.0,
            grades: Vec::new(),
        }];
        for kept in &per_attr {
            let mut next = Vec::new();
            for cell in &cells {
                for &(label, g, raw) in kept {
                    let mut key = cell.key.0.clone();
                    key.push(label);
                    let mut grades = cell.grades.clone();
                    grades.push(raw);
                    next.push(CandidateCell {
                        key: CellKey(key),
                        weight: cell.weight * g,
                        grades,
                    });
                }
            }
            cells = next;
        }
        Ok(cells)
    }

    /// Asserts the mapper and the reference agree on `row`: the same error,
    /// or the same cells in the same order with bit-equal weights and
    /// grades. Returns whether the row mapped.
    fn assert_maps_like_reference(m: &Mapper, row: &[Value]) -> bool {
        let (got, want) = (m.map_record(row), reference_map_record(m, row));
        match (got, want) {
            (Ok(got), Ok(want)) => {
                assert_eq!(got.len(), want.len(), "{row:?}");
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.key, w.key, "{row:?}");
                    assert_eq!(g.weight.to_bits(), w.weight.to_bits(), "{row:?}");
                    let bits = |c: &CandidateCell| -> Vec<u64> {
                        c.grades.iter().map(|g| g.to_bits()).collect()
                    };
                    assert_eq!(bits(g), bits(w), "{row:?}");
                }
                true
            }
            (got, want) => {
                assert_eq!(got, want, "{row:?}");
                false
            }
        }
    }

    /// Interesting numeric inputs for `var`: every corner point of every
    /// term, points just inside and outside each, values outside the
    /// domain, and non-finite values.
    fn probe_values(var: &fuzzy::LinguisticVariable) -> Vec<f64> {
        let (lo, hi) = var.domain();
        let mut xs = vec![
            lo - 10.0,
            hi + 10.0,
            f64::NAN,
            f64::INFINITY,
            (lo + hi) / 2.0,
        ];
        for t in var.terms() {
            let corners = match t.mf {
                fuzzy::MembershipFunction::Trapezoidal { a, b, c, d } => vec![a, b, c, d],
                fuzzy::MembershipFunction::Triangular { a, b, c } => vec![a, b, c],
                fuzzy::MembershipFunction::Crisp { lo, hi } => vec![lo, hi],
                fuzzy::MembershipFunction::Singleton { at } => vec![at],
            };
            for x in corners {
                xs.extend([x, x - 0.25, x + 0.25, x - 1e-9, x + 1e-9]);
            }
        }
        xs
    }

    /// A BK with overlapping (non-Ruspini) triangles, so kept grades do
    /// not sum to 1, next to the paper's age partition and a flat
    /// taxonomy.
    fn overlapping_mapper(tau: f64) -> Mapper {
        use fuzzy::linguistic::{LinguisticVariable, Term};
        use fuzzy::MembershipFunction as Mf;
        let term = |label: &str, mf: Mf| Term {
            label: label.into(),
            mf,
        };
        let x = LinguisticVariable::new(
            "x",
            (0.0, 10.0),
            vec![
                term("low", Mf::triangle(0.0, 2.0, 6.0).unwrap()),
                term("mid", Mf::triangle(1.0, 4.0, 8.0).unwrap()),
                term("high", Mf::trapezoid(3.0, 5.0, 9.0, 10.0).unwrap()),
            ],
        )
        .unwrap();
        let medical = BackgroundKnowledge::medical_cbk();
        let mut bk = BackgroundKnowledge::new("overlapping");
        bk.push_attribute(AttributeVocabulary::Numeric(x)).unwrap();
        bk.push_attribute(medical.attribute("age").unwrap().clone())
            .unwrap();
        bk.push_attribute(medical.attribute("sex").unwrap().clone())
            .unwrap();
        bk.tau = tau;
        let schema = Schema::new(vec![
            relation::schema::Attribute::new("sex", relation::schema::AttrType::Text),
            relation::schema::Attribute::new("x", relation::schema::AttrType::Float),
            relation::schema::Attribute::new("age", relation::schema::AttrType::Int),
        ])
        .unwrap();
        Mapper::bind(bk, &schema).unwrap()
    }

    /// Self-check: [`Mapper::map_record`] against the mapper before it
    /// evaluated each value once, bit for bit, over probe values at every
    /// membership-function corner, NULLs, out-of-vocabulary values, random
    /// patients and overlapping partitions with `tau` at grades that occur
    /// exactly. Panics on the first difference.
    #[doc(hidden)]
    pub fn one_pass_mapping_matches_the_reference() {
        let mut rng = <StdRng as SeedableRng>::seed_from_u64(3);
        let dist = relation::generator::PatientDistributions::default();
        let numeric = |m: &Mapper, name: &str| match m.bk().attribute(name).unwrap() {
            AttributeVocabulary::Numeric(var) => var.clone(),
            AttributeVocabulary::Categorical(_) => unreachable!("{name} is numeric"),
        };
        let categories = [
            Value::text("female"),
            Value::text("male"),
            Value::text("unknown"),
            Value::Null,
            Value::Int(3),
        ];
        let (mut mapped, mut failed, mut at_tau) = (0usize, 0usize, 0usize);

        // The medical CBK (tau = 0.2): age 25 and 19 grade exactly tau.
        let m = Mapper::bind(BackgroundKnowledge::medical_cbk(), &Schema::patient()).unwrap();
        let (age, bmi) = (numeric(&m, "age"), numeric(&m, "bmi"));
        let mut ages: Vec<Value> = probe_values(&age).into_iter().map(Value::Float).collect();
        ages.extend([
            Value::Int(19),
            Value::Int(25),
            Value::Null,
            Value::text("old"),
        ]);
        let mut bmis: Vec<Value> = probe_values(&bmi).into_iter().map(Value::Float).collect();
        bmis.push(Value::Null);
        let diseases = [Value::text("malaria"), Value::text("gout"), Value::Null];
        for a in &ages {
            for b in &bmis {
                for (s, d) in categories.iter().zip(diseases.iter().cycle()) {
                    let row = vec![a.clone(), s.clone(), b.clone(), d.clone()];
                    if assert_maps_like_reference(&m, &row) {
                        mapped += 1;
                    } else {
                        failed += 1;
                    }
                }
            }
        }
        for _ in 0..500 {
            let row = relation::generator::random_patient(&mut rng, &dist);
            assert!(assert_maps_like_reference(&m, &row));
        }
        for x in [19.0, 25.0] {
            at_tau += age
                .fuzzify(x)
                .iter()
                .filter(|&&(_, g)| g == m.bk().tau)
                .count();
        }

        // Overlapping triangles, with tau at grades that occur exactly.
        for tau in [0.0, 0.2, 0.25, 0.5, 0.75, 1.0] {
            let m = overlapping_mapper(tau);
            let x = numeric(&m, "x");
            let xs = probe_values(&x);
            at_tau += xs
                .iter()
                .flat_map(|&v| x.fuzzify(v))
                .filter(|&(_, g)| g == tau)
                .count();
            for &v in &xs {
                for a in [Value::Int(20), Value::Float(25.0), Value::Null] {
                    for s in &categories {
                        let row = vec![s.clone(), Value::Float(v), a.clone()];
                        if assert_maps_like_reference(&m, &row) {
                            mapped += 1;
                        } else {
                            failed += 1;
                        }
                    }
                }
            }
        }
        assert!(
            mapped > 1000 && failed > 1000,
            "mapped {mapped}, failed {failed}"
        );
        assert!(at_tau >= 4, "only {at_tau} grades exactly at tau");
    }
}

#[doc(hidden)]
pub use reference::one_pass_mapping_matches_the_reference;
