//! Workload generation (Table 3: "200 queries, each matched by 10 % of
//! the total number of peers").
//!
//! A workload is a set of **query templates** over the medical CBK; each
//! peer's database is generated to match each template independently with
//! probability `match_fraction`, and to *provably* not match the others
//! (templates select on distinct diseases, and background tuples draw
//! from a disjoint disease pool). Ground truth is therefore exact, which
//! the stale-answer accounting of Figures 4–5 requires.
//!
//! A [`PeerGenerator`] is bound once to the BK and the templates, and
//! then generates peer after peer in two steps. [`PeerGenerator::draw`]
//! makes every RNG draw of a peer's database into a recycled row set and
//! checks its ground truth; [`Summarizer::summarize`] turns the rows into
//! the local summary, a pure function of the rows and the peer id that
//! draws nothing. The summarizer keeps one engine whose mapper is bound
//! once, whose buffers are reused, and whose tree arena is encoded and
//! flattened into reused output buffers for each peer, then cleared with
//! its capacity kept. A simulation kernel keeps one generator and
//! summarizes drifted databases through a [`crate::summary_pool`], which
//! may run the second step on another thread. [`generate_peer_data`]
//! binds a generator for a single call.

use std::rc::Rc;

use bytes::Bytes;
use fuzzy::bk::BackgroundKnowledge;
use rand::Rng;
use relation::generator::{
    avoiding_patient_into, matching_patient_into, random_patient_into, MatchTarget,
    PatientDistributions,
};
use relation::predicate::Predicate;
use relation::query::SelectQuery;
use relation::schema::Schema;
use relation::value::Value;
use saintetiq::cell::SourceId;
use saintetiq::delta::SourceDelta;
use saintetiq::engine::{EngineConfig, SaintEtiQEngine};
use saintetiq::wire;

use crate::error::P2pError;

/// One workload query template.
#[derive(Debug, Clone)]
pub struct QueryTemplate {
    /// Template name.
    pub name: String,
    /// The disease it selects on (the discriminating attribute).
    pub disease: String,
    /// The routable selection query (`select age where disease = ...`).
    pub query: SelectQuery,
    /// Generator-side target for producing matching rows.
    pub target: MatchTarget,
}

/// Diseases reserved for templates, in template-index order. The
/// remaining diseases of the CBK form the background pool.
const TEMPLATE_DISEASES: [&str; 3] = ["malaria", "anorexia", "diabetes"];
const BACKGROUND_DISEASES: [&str; 5] = [
    "tuberculosis",
    "influenza",
    "bulimia",
    "hypertension",
    "asthma",
];

/// Builds `count` (1..=3) templates over the medical CBK.
pub fn make_templates(count: usize) -> Vec<QueryTemplate> {
    assert!((1..=TEMPLATE_DISEASES.len()).contains(&count));
    TEMPLATE_DISEASES[..count]
        .iter()
        .map(|d| QueryTemplate {
            name: format!("q-{d}"),
            disease: d.to_string(),
            query: SelectQuery::new(vec!["age".into()], vec![Predicate::eq("disease", *d)]),
            target: MatchTarget {
                disease: Some((*d).into()),
                ..Default::default()
            },
        })
        .collect()
}

/// Distributions for background (non-matching) patients: only
/// background-pool diseases, so no accidental template match can occur.
pub fn background_distributions() -> PatientDistributions {
    PatientDistributions {
        diseases: BACKGROUND_DISEASES
            .iter()
            .map(|&d| (d.into(), 1.0))
            .collect(),
        ..Default::default()
    }
}

/// Zipf-distributed template popularity: rank `i` (0-based) is drawn
/// with probability ∝ `1/(i+1)^s`. With `s = 0` every template is
/// equally popular (the round-robin schedule's stationary distribution);
/// growing `s` concentrates the workload on the first templates — the
/// skew real P2P query logs show and the answer caches / group locality
/// of §5.2.2 exploit.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    /// Cumulative probabilities per rank; the last entry is 1.0.
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the sampler over `n` ranks with exponent `s`.
    ///
    /// # Panics
    /// When `n == 0` or `s` is not finite and non-negative (guarded
    /// upstream by `SimConfig::validate`).
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf over an empty rank set");
        assert!(s.is_finite() && s >= 0.0, "zipf exponent {s} invalid");
        let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        // Guard the tail against accumulated rounding.
        *cdf.last_mut().expect("n > 0") = 1.0;
        Self { cdf }
    }

    /// Draws one rank in `0..n` from the vendored deterministic RNG.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// The probability of rank `i`.
    pub fn probability(&self, i: usize) -> f64 {
        let lo = if i == 0 { 0.0 } else { self.cdf[i - 1] };
        self.cdf[i] - lo
    }
}

/// One peer's generated state: its database-derived artifacts.
///
/// The local summary is kept in two forms built from the same tree:
/// `summary`, its wire encoding, which every message and byte count
/// measures, and `flat`, the peer's contribution flattened once, which
/// every accumulator that pulls the peer stores as is. A pull therefore
/// decodes nothing.
#[derive(Debug, Clone)]
pub struct PeerData {
    /// Bit `t` set ⇔ the database currently holds ≥1 tuple matching
    /// template `t` (exact ground truth).
    pub match_bits: u32,
    /// The encoded local summary (what `localsum`/reconciliation ships).
    pub summary: Bytes,
    /// The local summary flattened for this peer's source id, its
    /// encoded size recorded as `summary.len()`; shared by the
    /// accumulators that hold it.
    pub flat: Rc<SourceDelta>,
}

impl PeerData {
    /// True when the peer currently matches template `t`.
    pub fn matches(&self, t: usize) -> bool {
        self.match_bits & (1 << t) != 0
    }
}

/// One peer's database as drawn: its rows in insertion order, one value
/// per attribute of the patient schema each.
pub type Rows = Vec<Vec<Value>>;

/// One peer's local summary in the two forms a peer keeps
/// ([`PeerData::summary`] and [`PeerData::flat`]).
#[derive(Debug, Clone)]
pub struct PeerSummary {
    /// The encoded local summary.
    pub summary: Bytes,
    /// The summary flattened for its peer, its encoded size recorded.
    pub flat: Rc<SourceDelta>,
}

/// A summarizer's output buffers: the last summary's encoding and flat
/// form, overwritten by the next summary and copied out by
/// [`SummaryBuf::to_summary`].
#[derive(Debug, Clone)]
pub struct SummaryBuf {
    bytes: Vec<u8>,
    flat: SourceDelta,
}

impl SummaryBuf {
    /// The summary held, copied into fresh allocations of exactly its
    /// size, made by the calling thread.
    pub fn to_summary(&self) -> PeerSummary {
        PeerSummary {
            summary: Bytes::copy_from_slice(&self.bytes),
            flat: Rc::new(self.flat.clone()),
        }
    }
}

/// The summarization step of peer generation: rows to local summary.
///
/// A pure function of the rows and the peer id — it draws nothing and
/// reads no state shared with anyone — so two summarizers bound to the
/// same BK make the same bytes and flat form from the same rows, on any
/// thread. Nothing carries over from one peer to the next but the
/// capacity of the engine's buffers and tree arena.
#[derive(Debug, Clone)]
pub struct Summarizer {
    engine: SaintEtiQEngine,
}

impl Summarizer {
    /// Binds a summarizer to `bk` over the patient schema.
    pub fn new(bk: &BackgroundKnowledge) -> Result<Self, P2pError> {
        let engine = SaintEtiQEngine::new(
            bk.clone(),
            &Schema::patient(),
            EngineConfig::default(),
            SourceId(0),
        )?;
        Ok(Self { engine })
    }

    /// Empty output buffers over this summarizer's BK.
    pub fn buffer(&self) -> SummaryBuf {
        SummaryBuf {
            bytes: Vec::new(),
            flat: SourceDelta::from_tree(self.engine.tree(), SourceId(0)),
        }
    }

    /// An empty summary over the summarizer's BK: a placeholder for a
    /// peer whose summary is still being built.
    pub fn empty_summary(&self) -> PeerSummary {
        self.buffer().to_summary()
    }

    /// Summarizes `rows`, in order, as `peer`'s local summary into
    /// `out`: SaintEtiQ incorporation, the wire encoding and the flat
    /// form.
    ///
    /// # Panics
    /// When a row is shorter than the patient schema.
    pub fn summarize(&mut self, peer: u32, rows: &[Vec<Value>], out: &mut SummaryBuf) {
        self.engine.set_source(SourceId(peer));
        self.engine.summarize_rows(rows.iter().map(Vec::as_slice));
        let tree = self.engine.tree();
        wire::encode_into(tree, &mut out.bytes);
        out.flat.refill_from_tree(tree, SourceId(peer));
        out.flat.set_encoded_bytes(out.bytes.len());
        self.engine.clear_tree();
    }
}

/// Generates peers' databases and local summaries, bound once to a BK
/// and a template set.
///
/// Binding once changes nothing a peer's data depends on: each
/// [`PeerGenerator::generate`] makes the same RNG draws and returns the
/// same [`PeerData`] as a generator bound for that call alone. Nothing
/// carries over from one peer to the next but the capacity of the
/// buffers, the row sets and the tree arena it reuses.
#[derive(Debug, Clone)]
pub struct PeerGenerator {
    templates: Vec<QueryTemplate>,
    schema: Schema,
    background: PatientDistributions,
    summarizer: Summarizer,
    /// The summarizer's output buffers on this generator's thread.
    out: SummaryBuf,
    /// Row sets to draw into, their rows' capacity kept.
    spare_rows: Vec<Rows>,
}

impl PeerGenerator {
    /// Binds a generator to `bk` and `templates`.
    pub fn new(bk: &BackgroundKnowledge, templates: &[QueryTemplate]) -> Result<Self, P2pError> {
        let summarizer = Summarizer::new(bk)?;
        Ok(Self {
            templates: templates.to_vec(),
            schema: Schema::patient(),
            background: background_distributions(),
            out: summarizer.buffer(),
            summarizer,
            spare_rows: Vec::new(),
        })
    }

    /// The templates the generator is bound to.
    pub fn templates(&self) -> &[QueryTemplate] {
        &self.templates
    }

    /// The summarization step, for another thread to own a copy of.
    pub fn summarizer(&self) -> &Summarizer {
        &self.summarizer
    }

    /// Generates one peer's database and local summary: [`Self::draw`],
    /// then [`Self::summarize`].
    pub fn generate<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        peer: u32,
        match_fraction: f64,
        records: usize,
    ) -> Result<PeerData, P2pError> {
        let mut rows = self.take_rows();
        let drawn = self.draw(rng, match_fraction, records, &mut rows);
        let data = drawn.map(|match_bits| {
            let PeerSummary { summary, flat } = self.summarize(peer, &rows);
            PeerData {
                match_bits,
                summary,
                flat,
            }
        });
        self.recycle_rows(rows);
        data
    }

    /// Draws one peer's database into `rows`, replacing its contents,
    /// and returns its match bits.
    ///
    /// Each template is matched independently with probability
    /// `match_fraction`; matched templates contribute one guaranteed
    /// matching tuple, the rest of the `records` rows are background.
    /// Every row is checked against the patient schema, and ground
    /// truth is re-verified by exact evaluation, in every build: a
    /// mismatch is a [`P2pError::GroundTruth`]. Relational failures
    /// propagate as [`P2pError`] instead of panicking. Every RNG draw of
    /// generation happens here.
    pub fn draw<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        match_fraction: f64,
        records: usize,
        rows: &mut Rows,
    ) -> Result<u32, P2pError> {
        let bg = &self.background;
        let arity = self.schema.arity();
        let mut n = 0;
        let mut match_bits = 0u32;
        for (t, tpl) in self.templates.iter().enumerate() {
            if rng.gen_bool(match_fraction.clamp(0.0, 1.0)) {
                match_bits |= 1 << t;
                let row = next_row(rows, &mut n, arity);
                matching_patient_into(rng, bg, &tpl.target, row);
                self.schema.check_row(row)?;
            }
        }
        while n < records.max(1) {
            // Background rows avoid every template disease by construction
            // (the background distribution's pool is disjoint); `avoiding`
            // against the first template keeps the intent explicit.
            let row = next_row(rows, &mut n, arity);
            match self.templates.first() {
                None => random_patient_into(rng, bg, row),
                Some(first) => avoiding_patient_into(rng, bg, &first.target, row),
            }
            self.schema.check_row(row)?;
        }
        rows.truncate(n);
        check_ground_truth(&self.templates, &self.schema, rows, match_bits)?;
        Ok(match_bits)
    }

    /// Summarizes `rows` as `peer`'s local summary on the calling thread
    /// (see [`Summarizer::summarize`]).
    pub fn summarize(&mut self, peer: u32, rows: &[Vec<Value>]) -> PeerSummary {
        self.summarizer.summarize(peer, rows, &mut self.out);
        self.out.to_summary()
    }

    /// A row set to draw into: a recycled one when there is one.
    pub fn take_rows(&mut self) -> Rows {
        self.spare_rows.pop().unwrap_or_default()
    }

    /// Keeps `rows` for a later draw.
    pub fn recycle_rows(&mut self, rows: Rows) {
        self.spare_rows.push(rows);
    }
}

/// Row `*n` of `rows` to draw into, a recycled one when there is one;
/// bumps `*n`.
fn next_row<'r>(rows: &'r mut Rows, n: &mut usize, arity: usize) -> &'r mut Vec<Value> {
    if *n == rows.len() {
        rows.push(Vec::with_capacity(arity));
    }
    *n += 1;
    &mut rows[*n - 1]
}

/// Exact ground-truth verification (the workload's core guarantee):
/// `rows` match template `t` exactly when bit `t` of `match_bits` is
/// set. Each template scans the rows in order and stops at the first
/// match, as [`SelectQuery::matches_any`] does over a table.
fn check_ground_truth(
    templates: &[QueryTemplate],
    schema: &Schema,
    rows: &[Vec<Value>],
    match_bits: u32,
) -> Result<(), P2pError> {
    for (t, tpl) in templates.iter().enumerate() {
        let claimed = match_bits & (1 << t) != 0;
        if tpl
            .query
            .matches_any_row(schema, rows.iter().map(Vec::as_slice))?
            != claimed
        {
            return Err(P2pError::GroundTruth {
                template: t,
                claimed,
            });
        }
    }
    Ok(())
}

/// Generates one peer's database and local summary with a generator
/// bound for this call only; see [`PeerGenerator::generate`]. Code that
/// generates many peers keeps one [`PeerGenerator`] instead.
pub fn generate_peer_data<R: Rng + ?Sized>(
    rng: &mut R,
    peer: u32,
    bk: &BackgroundKnowledge,
    templates: &[QueryTemplate],
    match_fraction: f64,
    records: usize,
) -> Result<PeerData, P2pError> {
    PeerGenerator::new(bk, templates)?.generate(rng, peer, match_fraction, records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn templates_select_distinct_diseases() {
        let ts = make_templates(3);
        assert_eq!(ts.len(), 3);
        let diseases: Vec<&str> = ts.iter().map(|t| t.disease.as_str()).collect();
        assert_eq!(diseases, vec!["malaria", "anorexia", "diabetes"]);
        for t in &ts {
            assert_eq!(t.query.projection, vec!["age".to_string()]);
        }
    }

    #[test]
    #[should_panic]
    fn too_many_templates_rejected() {
        make_templates(4);
    }

    #[test]
    fn background_pool_is_disjoint_from_templates() {
        let bg = background_distributions();
        for (d, _) in &bg.diseases {
            assert!(
                !TEMPLATE_DISEASES.contains(&&**d),
                "{d} is a template disease"
            );
        }
    }

    #[test]
    fn peer_data_ground_truth_is_exact() -> Result<(), P2pError> {
        let bk = BackgroundKnowledge::medical_cbk();
        let templates = make_templates(3);
        let mut rng = StdRng::seed_from_u64(5);
        for peer in 0..50 {
            let pd = generate_peer_data(&mut rng, peer, &bk, &templates, 0.5, 20)?;
            // Decode the summary and check that the match bits agree with
            // what summary-level routing would conclude for fresh data.
            let tree = wire::decode(&pd.summary)?;
            for (t, tpl) in templates.iter().enumerate() {
                let sq = saintetiq::query::proposition::reformulate(&tpl.query, &bk)?;
                let sources = saintetiq::query::relevant_sources(&tree, &sq.proposition);
                let summary_says = sources.contains(&SourceId(peer));
                assert_eq!(
                    summary_says,
                    pd.matches(t),
                    "peer {peer} template {t}: summary routing must agree with \
                     ground truth on fresh data (crisp disease attribute)"
                );
            }
        }
        Ok(())
    }

    #[test]
    fn match_probability_is_respected() {
        let bk = BackgroundKnowledge::medical_cbk();
        let templates = make_templates(1);
        let mut rng = StdRng::seed_from_u64(9);
        let n = 2000;
        let matches = (0..n)
            .filter(|&p| {
                generate_peer_data(&mut rng, p, &bk, &templates, 0.10, 10)
                    .expect("valid workload")
                    .matches(0)
            })
            .count();
        let rate = matches as f64 / n as f64;
        assert!(
            (0.07..=0.13).contains(&rate),
            "match rate {rate} (want ≈0.10)"
        );
    }

    #[test]
    fn zero_match_fraction_yields_no_matches() -> Result<(), P2pError> {
        let bk = BackgroundKnowledge::medical_cbk();
        let templates = make_templates(2);
        let mut rng = StdRng::seed_from_u64(11);
        for p in 0..20 {
            let pd = generate_peer_data(&mut rng, p, &bk, &templates, 0.0, 15)?;
            assert_eq!(pd.match_bits, 0);
        }
        Ok(())
    }

    #[test]
    fn broken_ground_truth_is_an_error() -> Result<(), P2pError> {
        let templates = make_templates(2);
        let schema = Schema::patient();
        let mut rng = StdRng::seed_from_u64(3);
        let rows = vec![relation::generator::matching_patient(
            &mut rng,
            &background_distributions(),
            &templates[1].target,
        )];
        check_ground_truth(&templates, &schema, &rows, 0b10)?;
        // The rows match template 1, not template 0.
        for (bits, template, claimed) in [(0b00, 1, false), (0b11, 0, true), (0b01, 0, true)] {
            let err = check_ground_truth(&templates, &schema, &rows, bits).unwrap_err();
            assert_eq!(err, P2pError::GroundTruth { template, claimed });
            assert!(
                err.to_string().contains(&format!("template {template}")),
                "{err}"
            );
        }
        Ok(())
    }

    #[test]
    fn zipf_sampler_matches_the_law() {
        let z = ZipfSampler::new(3, 1.0);
        // Weights 1, 1/2, 1/3 → probabilities 6/11, 3/11, 2/11.
        assert!((z.probability(0) - 6.0 / 11.0).abs() < 1e-12);
        assert!((z.probability(1) - 3.0 / 11.0).abs() < 1e-12);
        assert!((z.probability(2) - 2.0 / 11.0).abs() < 1e-12);

        let mut rng = StdRng::seed_from_u64(17);
        let mut counts = [0usize; 3];
        let n = 30_000;
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let rate = c as f64 / n as f64;
            assert!(
                (rate - z.probability(i)).abs() < 0.02,
                "rank {i}: {rate} vs {}",
                z.probability(i)
            );
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[2]);
    }

    #[test]
    fn zipf_exponent_zero_is_uniform() {
        let z = ZipfSampler::new(3, 0.0);
        for i in 0..3 {
            assert!((z.probability(i) - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn summaries_are_compact() {
        let bk = BackgroundKnowledge::medical_cbk();
        let templates = make_templates(3);
        let mut rng = StdRng::seed_from_u64(13);
        let pd = generate_peer_data(&mut rng, 0, &bk, &templates, 0.1, 24).expect("valid workload");
        let cells = pd.flat.cell_count();
        assert!(cells <= 24 * 4, "cells {cells}");
        assert!(
            pd.summary.len() < 64 * 1024,
            "summary bytes {}",
            pd.summary.len()
        );
    }
}
