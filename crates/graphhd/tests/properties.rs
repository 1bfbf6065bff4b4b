//! Property-based tests for the GraphHD encoder and model.

use graphcore::{generate, Graph, GraphBuilder};
use graphhd::{GraphEncoder, GraphHdConfig};
use hdvec::Accumulator;
use prng::{WordRng, Xoshiro256PlusPlus};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (5usize..25, 0.05f64..0.5, any::<u64>()).prop_map(|(n, p, seed)| {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        generate::erdos_renyi(n, p, &mut rng).expect("valid parameters")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn bitsliced_encoding_equals_naive_accumulation(g in arb_graph(), dim in 1usize..600) {
        // The production encoder bundles edges with bit-sliced counters
        // and thresholds the planes; re-derive the hypervector from i32
        // counters and compare exactly, at word-boundary dimensions too.
        let encoder = GraphEncoder::new(GraphHdConfig::builder().dim(dim).build().expect("valid dimension")).expect("valid");
        let ranks = encoder.vertex_ranks(&g);
        let mut naive = Accumulator::new(dim).expect("valid dimension");
        for (u, v) in g.edges() {
            let hu = encoder.memory().hypervector(u64::from(ranks[u as usize]));
            let hv = encoder.memory().hypervector(u64::from(ranks[v as usize]));
            naive.add(&hu.bind(&hv));
        }
        prop_assert_eq!(encoder.encode(&g), naive.to_hypervector(encoder.config().tie_break));
    }

    #[test]
    fn encoding_is_isomorphism_invariant_on_tie_free_graphs(g in arb_graph()) {
        // Relabel vertices; if the PageRank scores are tie-free the rank
        // assignment is permutation-equivariant and the encoding fixed.
        let scores = graphcore::pagerank(&g, &graphcore::PageRankConfig::default());
        let mut sorted = scores.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let tie_free = sorted.windows(2).all(|w| (w[1] - w[0]).abs() > 1e-12);
        prop_assume!(tie_free);

        let n = g.vertex_count();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(7);
        let mut perm: Vec<u32> = (0..n as u32).collect();
        rng.shuffle(&mut perm);
        let mut builder = GraphBuilder::new(n);
        for (u, v) in g.edges() {
            builder.add_edge(perm[u as usize], perm[v as usize]);
        }
        let permuted = builder.build();

        let encoder = GraphEncoder::new(GraphHdConfig::builder().dim(256).build().expect("valid dimension")).expect("valid");
        prop_assert_eq!(encoder.encode(&g), encoder.encode(&permuted));
    }

    #[test]
    fn encode_all_parallel_equals_serial(seed in any::<u64>(), count in 1usize..40) {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let graphs: Vec<Graph> = (0..count)
            .map(|i| generate::erdos_renyi(5 + i % 7, 0.3, &mut rng).expect("valid"))
            .collect();
        let encoder = GraphEncoder::new(GraphHdConfig::builder().dim(256).build().expect("valid dimension")).expect("valid");
        let parallel = encoder.encode_all(&graphs);
        let serial: Vec<_> = graphs.iter().map(|g| encoder.encode(g)).collect();
        prop_assert_eq!(parallel, serial);
    }
}
