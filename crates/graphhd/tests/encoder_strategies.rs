//! Differential properties of the encoder kinds: every kind matches its
//! naive i32-counter reference bit for bit, is deterministic under a
//! fixed seed, bit-identical across thread counts, and survives a
//! snapshot round trip with its identity intact.

mod reference;

use graphcore::{generate, Graph};
use graphhd::labeled::LabeledGraphEncoder;
use graphhd::{EncoderKind, GraphEncoder, GraphHdConfig, GraphHdModel};
use parallel::Pool;
use prng::{WordRng, Xoshiro256PlusPlus};
use proptest::prelude::*;
use std::sync::Arc;

const KINDS: [EncoderKind; 3] = [
    EncoderKind::Centrality,
    EncoderKind::VertexSimilarity { levels: 16 },
    EncoderKind::EdgeWeighted { weight_cap: 4 },
];

fn arb_graph() -> impl Strategy<Value = Graph> {
    (5usize..25, 0.05f64..0.5, any::<u64>()).prop_map(|(n, p, seed)| {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        generate::erdos_renyi(n, p, &mut rng).expect("valid parameters")
    })
}

fn arb_kind() -> impl Strategy<Value = EncoderKind> {
    prop_oneof![
        Just(EncoderKind::Centrality),
        (2u32..64).prop_map(|levels| EncoderKind::VertexSimilarity { levels }),
        (1u32..16).prop_map(|weight_cap| EncoderKind::EdgeWeighted { weight_cap }),
    ]
}

fn config(kind: EncoderKind, seed: u64) -> GraphHdConfig {
    GraphHdConfig::builder()
        .dim(512)
        .seed(seed)
        .with_encoder(kind)
        .build()
        .expect("valid config")
}

fn encoder(kind: EncoderKind, seed: u64) -> GraphEncoder {
    GraphEncoder::new(config(kind, seed)).expect("valid config")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_kind_matches_its_naive_reference(
        g in arb_graph(),
        kind in arb_kind(),
        seed in any::<u64>(),
    ) {
        let config = config(kind, seed);
        prop_assert_eq!(
            encoder(kind, seed).encode(&g),
            reference::naive_encode(&config, &g)
        );
    }

    #[test]
    fn labeled_encoder_matches_its_naive_reference(
        g in arb_graph(),
        seed in any::<u64>(),
        alphabet in 1u32..5,
    ) {
        let config = config(EncoderKind::Centrality, seed);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let labels: Vec<u32> = (0..g.vertex_count())
            .map(|_| (rng.next_u64() % u64::from(alphabet)) as u32)
            .collect();
        let labeled = LabeledGraphEncoder::new(config).expect("valid config");
        prop_assert_eq!(
            labeled.encode(&g, &labels).expect("one label per vertex"),
            reference::naive_labeled_encode(&config, &g, &labels)
        );
    }

    #[test]
    fn every_strategy_is_deterministic_under_a_fixed_seed(
        g in arb_graph(),
        kind in arb_kind(),
        seed in any::<u64>(),
    ) {
        // Two independently constructed encoders with the same seed must
        // agree bit-for-bit — nothing in a strategy may draw entropy
        // outside the seeded item/level memories.
        let a = encoder(kind, seed);
        let b = encoder(kind, seed);
        prop_assert_eq!(a.encode(&g), b.encode(&g));
    }

    #[test]
    fn batch_encoding_is_bit_identical_across_thread_counts(
        kind in arb_kind(),
        seed in any::<u64>(),
    ) {
        let graphs: Vec<Graph> = (5..17)
            .flat_map(|n| [generate::complete(n), generate::path(n), generate::star(n)])
            .collect();
        let serial = encoder(kind, seed).with_pool(Arc::new(Pool::with_threads(1)));
        let expected: Vec<_> = graphs.iter().map(|g| serial.encode(g)).collect();
        for threads in [1usize, 4] {
            let pooled = encoder(kind, seed).with_pool(Arc::new(Pool::with_threads(threads)));
            prop_assert_eq!(&pooled.encode_all(&graphs), &expected, "threads {}", threads);
        }
    }

    #[test]
    fn snapshot_round_trip_preserves_encoder_identity(
        kind in arb_kind(),
        seed in any::<u64>(),
    ) {
        let graphs = [generate::complete(9), generate::path(9)];
        let config = GraphHdConfig::builder()
            .dim(256)
            .seed(seed)
            .with_encoder(kind)
            .build()
            .expect("valid config");
        let model = GraphHdModel::fit(config, &graphs, &[0, 1], 2).expect("valid inputs");
        let mut bytes = Vec::new();
        model.save_to(&mut bytes).expect("in-memory write");
        let restored = GraphHdModel::load_from(&mut bytes.as_slice()).expect("valid snapshot");
        prop_assert_eq!(restored.encoder().config(), model.encoder().config());
        prop_assert_eq!(restored.encoder().config().encoder, kind);
        // The restored model re-derives the same strategy: fresh graphs
        // encode and classify identically.
        for n in 5..15 {
            let g = generate::cycle(n);
            prop_assert_eq!(restored.predict(&g), model.predict(&g));
        }
    }
}

#[test]
fn the_three_shipped_strategies_disagree_on_a_clustered_graph() {
    // A graph with both a clique and a tail exercises the similarity
    // levels and the edge weights; no two strategies may collapse into
    // the same encoding there.
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(11);
    let g = generate::erdos_renyi(24, 0.3, &mut rng).expect("valid parameters");
    let encodings: Vec<_> = KINDS
        .iter()
        .map(|&kind| encoder(kind, 1).encode(&g))
        .collect();
    for i in 0..KINDS.len() {
        for j in i + 1..KINDS.len() {
            assert_ne!(
                encodings[i],
                encodings[j],
                "{} vs {}",
                KINDS[i].name(),
                KINDS[j].name()
            );
        }
    }
}

#[test]
fn version_1_fixture_bytes_load_as_the_centrality_strategy() {
    // A byte-exact v1 snapshot (the pre-strategy format: no encoder
    // fields, num_classes at offset 54) assembled by hand, independent
    // of the current writer.
    let graphs = [generate::complete(8), generate::path(8)];
    let config = GraphHdConfig::builder()
        .dim(64)
        .seed(0xA5)
        .build()
        .expect("valid config");
    let model = GraphHdModel::fit(config, &graphs, &[0, 1], 2).expect("valid inputs");

    let mut fixture = Vec::new();
    fixture.extend_from_slice(b"GRAPHHD\0");
    fixture.extend_from_slice(&1u32.to_le_bytes()); // format version 1
    fixture.extend_from_slice(&64u64.to_le_bytes()); // dim
    fixture.extend_from_slice(&0xA5u64.to_le_bytes()); // seed
    fixture.push(0); // centrality tag: PageRank
    fixture.push(2); // tie-break tag: Seeded (the config default)
    fixture.extend_from_slice(&0u64.to_le_bytes()); // tie-break seed
    let pagerank = graphcore::PageRankConfig::default();
    fixture.extend_from_slice(&(pagerank.iterations as u64).to_le_bytes());
    fixture.extend_from_slice(&pagerank.damping.to_bits().to_le_bytes());
    fixture.extend_from_slice(&2u64.to_le_bytes()); // num_classes
    for class_vector in model.class_vectors() {
        for &word in class_vector.words() {
            fixture.extend_from_slice(&word.to_le_bytes());
        }
    }

    let restored = GraphHdModel::load_from(&mut fixture.as_slice()).expect("valid v1 snapshot");
    assert_eq!(restored.encoder().config().encoder, EncoderKind::Centrality);
    assert_eq!(restored.encoder().config(), model.encoder().config());
    assert_eq!(restored.class_vectors(), model.class_vectors());
}
