//! The flat form a pull folds in, checked bit for bit.
//!
//! A peer flattens its local summary once, when it builds it
//! (`PeerData::flat`), and every accumulator that pulls the peer stores
//! that flat form instead of decoding the wire bytes. The round-trip
//! property here pins the flat form to what decoding would give, down to
//! the bits of every weight, grade and statistic. The other checks guard
//! what queries and the stored GS rest on: the canonical build folds
//! each cell's contributions as one run yet matches the one-at-a-time
//! build, localization on the accumulator matches selection over the
//! built tree, and generated summaries never carry a weight too faint
//! for that scan.

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use fuzzy::bk::BackgroundKnowledge;
use fuzzy::descriptor::{DescriptorSet, LabelId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relation::generator::{patient_table, MatchTarget, PatientDistributions};
use relation::schema::Schema;
use relation::stats::AttributeStats;
use saintetiq::cell::{CellKey, SourceId};
use saintetiq::delta::{FlatCell, GsAccumulator, SourceDelta};
use saintetiq::engine::{incorporate_cell, EngineConfig, SaintEtiQEngine};
use saintetiq::hierarchy::{Node, SummaryTree, INTENT_THRESHOLD};
use saintetiq::query::proposition::{Clause, Proposition};
use saintetiq::wire;
use summary_p2p::error::P2pError;
use summary_p2p::peerstate::{CBK_NAME, CBK_SHAPE};
use summary_p2p::workload::{generate_peer_data, make_templates};

fn acc() -> GsAccumulator {
    GsAccumulator::new(CBK_NAME, CBK_SHAPE.to_vec())
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn stat_bits(stats: &[AttributeStats]) -> Vec<[u64; 5]> {
    stats
        .iter()
        .map(|s| {
            let (c, mn, mx, mean, m2) = s.raw_parts();
            [c, mn, mx, mean, m2].map(f64::to_bits)
        })
        .collect()
}

/// Asserts that two flat forms hold the same cells for the same source
/// and BK, comparing every float by its bits.
fn assert_same_flat(a: &SourceDelta, b: &SourceDelta) {
    assert_eq!(a.source(), b.source());
    assert_eq!(a.bk_name(), b.bk_name());
    assert_eq!(a.label_counts(), b.label_counts());
    assert_eq!(a.cell_count(), b.cell_count());
    for (x, y) in a.cells().zip(b.cells()) {
        assert_eq!(x.key, y.key);
        assert_eq!(
            x.weight.to_bits(),
            y.weight.to_bits(),
            "weight at {:?}",
            x.key
        );
        assert_eq!(bits(x.grades), bits(y.grades), "grades at {:?}", x.key);
        assert_eq!(x.stat_attrs, y.stat_attrs, "statistics at {:?}", x.key);
        assert_eq!(
            stat_bits(x.stats),
            stat_bits(y.stats),
            "statistics at {:?}",
            x.key
        );
    }
}

/// Asserts that a local summary's flat form holds each of the tree's
/// cells, in key order, with its source's weight, its grades and its
/// non-empty statistics, read straight from the tree.
fn assert_flat_is_the_tree(flat: &SourceDelta, tree: &SummaryTree) {
    assert_eq!(flat.cell_count(), tree.cells().count());
    for (cell, entry) in flat.cells().zip(tree.cells()) {
        let key = entry.key();
        assert_eq!(cell.key, key);
        let weight = entry
            .source_weight(flat.source())
            .expect("the source's cell");
        assert_eq!(cell.weight.to_bits(), weight.to_bits(), "weight at {key:?}");
        assert_eq!(bits(cell.grades), bits(entry.max_grades()));
        let (attrs, stats): (Vec<u16>, Vec<AttributeStats>) = (0u16..)
            .zip(entry.stats())
            .filter(|(_, s)| s.count() > 0.0)
            .unzip();
        assert_eq!(cell.stat_attrs, &attrs[..], "statistics at {key:?}");
        assert_eq!(
            stat_bits(cell.stats),
            stat_bits(&stats),
            "statistics at {key:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A peer's flat form is the flattening of its decoded summary, bit
    /// for bit, and holds that summary's cells; it records the summary's
    /// encoded size; and accumulators fed the flat forms or the wire
    /// bytes build the same GS.
    #[test]
    fn flat_form_matches_the_decoded_summary(
        seed in any::<u64>(),
        fraction in prop::sample::select(vec![0.0, 0.1, 0.5, 1.0]),
        records in prop::sample::select(vec![1usize, 10, 16, 24]),
    ) {
        let bk = BackgroundKnowledge::medical_cbk();
        let templates = make_templates(3);
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut shared, mut decoded) = (acc(), acc());
        for peer in 0..12 {
            let pd = generate_peer_data(&mut rng, peer, &bk, &templates, fraction, records)
                .expect("valid workload");
            let id = SourceId(peer);
            let tree = wire::decode(&pd.summary).expect("own encodings decode");
            assert_same_flat(&SourceDelta::from_tree(&tree, id), &pd.flat);
            assert_flat_is_the_tree(&pd.flat, &tree);
            prop_assert_eq!(pd.flat.encoded_bytes(), pd.summary.len());
            prop_assert_eq!(pd.summary.len(), wire::encoded_size(&tree));
            prop_assert_eq!(shared.update_source_flat(id, &pd.flat), Ok(pd.summary.len()));
            prop_assert_eq!(
                decoded.update_source_encoded(id, &pd.summary),
                Ok(pd.summary.len())
            );
        }
        prop_assert_eq!(
            &wire::encode(&shared.build_merged())[..],
            &wire::encode(&decoded.build_merged())[..]
        );
    }
}

/// Localization scans the accumulator instead of the built GS
/// (`GsAccumulator::relevant_sources`), which is exact only while no
/// stored contribution is too faint to enter an intent; otherwise it
/// falls back to building the tree per query. Generated summaries
/// must therefore never carry such a weight.
#[test]
fn generated_summaries_carry_no_faint_weight() -> Result<(), P2pError> {
    let bk = BackgroundKnowledge::medical_cbk();
    let templates = make_templates(3);
    let mut rng = StdRng::seed_from_u64(21);
    for (fraction, records) in [(0.0, 1), (0.1, 10), (0.1, 16), (0.5, 24), (1.0, 24)] {
        for peer in 0..40 {
            let pd = generate_peer_data(&mut rng, peer, &bk, &templates, fraction, records)?;
            let tree = wire::decode(&pd.summary)?;
            for entry in tree.cells() {
                let key = entry.key();
                for (source, w) in entry.sources() {
                    assert!(
                        w > INTENT_THRESHOLD,
                        "peer {peer}: source {source:?} weighs {w} in cell {key:?}"
                    );
                }
            }
        }
    }
    Ok(())
}

fn local_summary(seed: u64, source: u32, n: usize) -> SummaryTree {
    let mut rng = StdRng::seed_from_u64(seed);
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

/// The build before cells were folded as runs, kept as the reference:
/// every contribution goes through `incorporate_cell` and
/// `merge_cell_stats` on its own, its statistics spread back over every
/// attribute.
fn reference_build(a: &GsAccumulator) -> SummaryTree {
    let mut tree = SummaryTree::new(CBK_NAME, CBK_SHAPE.to_vec());
    let mut by_cell: BTreeMap<&[LabelId], Vec<(SourceId, FlatCell)>> = BTreeMap::new();
    for (src, delta) in a.deltas() {
        for cell in delta.cells() {
            by_cell.entry(cell.key).or_default().push((src, cell));
        }
    }
    for (labels, contribs) in by_cell {
        let key = &CellKey(labels.to_vec());
        for (src, cell) in contribs {
            incorporate_cell(
                &mut tree,
                &EngineConfig::default(),
                key,
                src,
                cell.weight,
                cell.grades,
                None,
            );
            let mut stats = vec![AttributeStats::new(); CBK_SHAPE.len()];
            for (&attr, st) in cell.stat_attrs.iter().zip(cell.stats) {
                stats[usize::from(attr)] = *st;
            }
            tree.merge_cell_stats(key, &stats);
        }
    }
    tree
}

/// Asserts that two trees are equal node for node, down to the bits of
/// every count and histogram slot, and that every intent is its
/// histogram's support.
fn assert_same_tree(a: &SummaryTree, b: &SummaryTree) {
    assert_eq!(wire::encode(a), wire::encode(b));
    let hist_bits = |n: Node| -> Vec<u64> { n.hist().iter().map(|w| w.to_bits()).collect() };
    let support =
        |n: Node| -> Vec<bool> { n.hist().iter().map(|&w| w > INTENT_THRESHOLD).collect() };
    let intent_bits = |n: Node| -> Vec<bool> {
        a.label_counts()
            .iter()
            .zip(n.intent())
            .flat_map(|(&len, s)| (0..len).map(|l| s.contains(LabelId(l as u16))))
            .collect()
    };
    let mut stack = vec![(a.root(), b.root())];
    while let Some((x, y)) = stack.pop() {
        let (nx, ny) = (a.node(x), b.node(y));
        assert_eq!(nx.count().to_bits(), ny.count().to_bits(), "count at {x:?}");
        assert_eq!(hist_bits(nx), hist_bits(ny), "hist at {x:?}");
        assert_eq!(nx.intent(), ny.intent(), "intent at {x:?}");
        assert_eq!(intent_bits(nx), support(nx), "intent != support at {x:?}");
        assert_eq!(nx.cell(), ny.cell(), "cell at {x:?}");
        assert_eq!(nx.child_count(), ny.child_count(), "arity at {x:?}");
        stack.extend(nx.children().zip(ny.children()));
    }
}

/// `n` synthetic sources over the CBK grid. Every source contributes to
/// one hot cell; the first 27 also own a private cell each; the rest
/// of the cells are random. Weights mix ordinary values with zero and
/// negative ones (which add nothing) and positive ones at or below the
/// intent threshold.
fn synthetic(n: u32, seed: u64) -> GsAccumulator {
    let mut rng = StdRng::seed_from_u64(seed);
    let key = |l: [u16; 4]| CellKey(l.iter().map(|&x| LabelId(x)).collect());
    let mut a = acc();
    for s in 0..n {
        let mut keys = BTreeSet::from([key([0, 0, 0, 0])]);
        if s < 27 {
            keys.insert(key([
                (s % 3) as u16,
                (s / 3 % 3) as u16,
                (s / 9) as u16,
                11,
            ]));
        }
        for _ in 0..rng.gen_range(0..8) {
            keys.insert(key([
                rng.gen_range(0..3),
                rng.gen_range(0..3),
                rng.gen_range(0..3),
                rng.gen_range(0..11),
            ]));
        }
        let cells: Vec<(&CellKey, f64, Vec<f64>, Vec<AttributeStats>)> = keys
            .iter()
            .map(|key| {
                let weight = match (s, rng.gen_range(0..10)) {
                    (0, _) | (_, 0) => -0.5,
                    (1, _) | (_, 1) => 0.0,
                    (2, _) | (_, 2) => 1e-13,
                    (_, 3) => 1e-12,
                    _ => rng.gen_range(0.01..2.0),
                };
                let mut stats = vec![AttributeStats::new(); 4];
                for st in &mut stats {
                    if rng.gen_bool(0.5) {
                        st.push_weighted(rng.gen_range(0.0..100.0), rng.gen_range(0.1..2.0));
                    }
                }
                let grades = (0..4).map(|_| rng.gen_range(0.0..1.0)).collect();
                (key, weight, grades, stats)
            })
            .collect();
        let delta = SourceDelta::from_cells(
            SourceId(s),
            CBK_NAME,
            &CBK_SHAPE,
            cells
                .iter()
                .map(|(k, w, g, st)| (&k[..], *w, &g[..], &st[..])),
        );
        a.update_source_flat(SourceId(s), &Rc::new(delta)).unwrap();
    }
    a
}

#[test]
fn folded_runs_match_the_one_at_a_time_build() {
    for (n, seed) in [(3, 1), (40, 2), (400, 3)] {
        let a = synthetic(n, seed);
        let built = a.build_merged();
        assert_same_tree(&built, &reference_build(&a));
        if n == 400 {
            assert!(built.cells().any(|c| c.source_count() == 1));
            assert!(built.cells().any(|c| c.source_count() >= 200));
        }
    }
    // Real local summaries, one source per cell and many.
    let mut a = acc();
    for i in 0..60 {
        a.update_source(SourceId(i), &local_summary(300 + i as u64, i, 40))
            .unwrap();
    }
    let built = a.build_merged();
    built.check_invariants();
    assert_same_tree(&built, &reference_build(&a));
}

/// Every one-clause proposition over each attribute's label subsets
/// (the 12-label attribute: every subset when `all_subsets`, else its
/// singletons and their complements), two-clause ones, an
/// unsatisfiable one and the empty one.
fn propositions(all_subsets: bool) -> Vec<Proposition> {
    let counts = CBK_SHAPE;
    let set = |mask: u32| {
        DescriptorSet::from_labels((0..12u16).filter(|l| mask >> l & 1 == 1).map(LabelId))
    };
    let clause = |attr: usize, mask: u32| Clause {
        attr,
        set: set(mask),
    };
    let mut out = vec![Proposition::default()];
    for (attr, &n) in counts.iter().enumerate() {
        let full = (1u32 << n) - 1;
        let masks: Vec<u32> = if n <= 3 || all_subsets {
            (1..=full).collect()
        } else {
            (0..n).flat_map(|l| [1 << l, full ^ (1 << l)]).collect()
        };
        out.extend(masks.into_iter().map(|m| Proposition {
            clauses: vec![clause(attr, m)],
        }));
    }
    for (a, b) in [(0b001, 0b011), (0b110, 0b010), (0b101, 0b111)] {
        out.push(Proposition {
            clauses: vec![clause(0, a), clause(2, b)],
        });
        out.push(Proposition {
            clauses: vec![clause(1, a), clause(3, b << 9 | b)],
        });
    }
    out.push(Proposition {
        clauses: vec![clause(0, 0b001), clause(1, 0)],
    });
    out
}

fn assert_scan_matches_tree(a: &GsAccumulator, props: &[Proposition]) {
    let tree = a.build_merged();
    for p in props {
        assert_eq!(
            a.relevant_sources(p),
            saintetiq::query::relevant_sources(&tree, p),
            "localization differs for {p:?}"
        );
    }
}

#[test]
fn localization_scan_matches_tree_selection() {
    // Zero, negative and faint weights: faint ones take the fallback.
    for (n, seed) in [(3, 1), (40, 2), (400, 3)] {
        let a = synthetic(n, seed);
        assert!(
            a.faint_cells() > 0,
            "the synthetic sources carry faint cells"
        );
        assert_scan_matches_tree(&a, &propositions(false));
    }
    // Real local summaries: the scan itself.
    let mut a = acc();
    for i in 0..60 {
        a.update_source(SourceId(i), &local_summary(300 + i as u64, i, 40))
            .unwrap();
    }
    assert_eq!(a.faint_cells(), 0);
    assert_scan_matches_tree(&a, &propositions(true));
    // The faint count follows replacements and removals.
    let mut b = synthetic(40, 2);
    let faint: Vec<SourceId> = b
        .deltas()
        .filter(|(_, d)| d.faint_cells() > 0)
        .map(|(s, _)| s)
        .collect();
    for s in faint {
        if s.0 % 2 == 0 {
            b.remove_source(s);
        } else {
            b.update_source(s, &local_summary(500 + u64::from(s.0), s.0, 20))
                .unwrap();
        }
    }
    assert_eq!(b.faint_cells(), 0);
    assert_scan_matches_tree(&b, &propositions(false));
    b.clear();
    assert!(b.relevant_sources(&Proposition::default()).is_empty());
}
