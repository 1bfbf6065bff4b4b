//! Naive reference encoders: every encoder recipe restated from public
//! primitives, with no vertex cache, an uncached basis lookup per edge
//! end, and i32 counters (`hdvec::Accumulator`) instead of bit-planes.
//! The production encoders must match these bit for bit.

use graphcore::{ranks_by_score, similarity, Graph};
use graphhd::{EncoderKind, GraphEncoder, GraphHdConfig};
use hdvec::{Accumulator, Hypervector, ItemMemory, LevelMemory};

/// The seed stream of the vertex-similarity level memory, part of the
/// encoder's seed contract.
const LEVEL_SEED_STREAM: u64 = 0x1E_5E1;

/// The seed stream of the labeled encoder's label memory.
const LABEL_SEED_STREAM: u64 = 0x1A_BE1;

/// `config`'s encoder kind, naively.
pub fn naive_encode(config: &GraphHdConfig, graph: &Graph) -> Hypervector {
    let memory = ItemMemory::new(config.dim, config.seed).expect("valid dimension");
    let basis = |rank: u32| memory.hypervector(u64::from(rank));
    let mut acc = Accumulator::new(config.dim).expect("valid dimension");
    match config.encoder {
        EncoderKind::Centrality | EncoderKind::EdgeWeighted { .. } => {
            let ranks = GraphEncoder::new(*config)
                .expect("valid config")
                .vertex_ranks(graph);
            for (u, v) in graph.edges() {
                let weight = match config.encoder {
                    EncoderKind::EdgeWeighted { weight_cap } => {
                        1 + graph.common_neighbors(u, v).min(weight_cap as usize - 1)
                    }
                    _ => 1,
                };
                let edge = basis(ranks[u as usize]).bind(&basis(ranks[v as usize]));
                acc.add_weighted(&edge, weight as i32);
            }
        }
        EncoderKind::VertexSimilarity { levels } => {
            let levels = LevelMemory::new(
                config.dim,
                levels as usize,
                prng::mix_seed(config.seed, LEVEL_SEED_STREAM),
            )
            .expect("valid levels");
            let scores = similarity::neighborhood_similarity(graph);
            let ranks = ranks_by_score(&scores);
            let vertex = |v: u32| {
                let v = v as usize;
                basis(ranks[v]).bind(levels.hypervector(levels.quantize(scores[v])))
            };
            for (u, v) in graph.edges() {
                // The lower-ranked end binds the higher-ranked end's
                // one-step permutation.
                let (lo, hi) = if ranks[u as usize] < ranks[v as usize] {
                    (u, v)
                } else {
                    (v, u)
                };
                acc.add(&vertex(lo).bind(&vertex(hi).permute(1)));
            }
        }
    }
    acc.to_hypervector(config.tie_break)
}

/// The labeled encoder naively: each vertex is its centrality rank's
/// basis hypervector bound with its label's hypervector.
pub fn naive_labeled_encode(config: &GraphHdConfig, graph: &Graph, labels: &[u32]) -> Hypervector {
    let memory = ItemMemory::new(config.dim, config.seed).expect("valid dimension");
    let label_memory = ItemMemory::new(config.dim, prng::mix_seed(config.seed, LABEL_SEED_STREAM))
        .expect("valid dimension");
    let ranks = GraphEncoder::new(*config)
        .expect("valid config")
        .vertex_ranks(graph);
    let vertex = |v: u32| {
        let v = v as usize;
        memory
            .hypervector(u64::from(ranks[v]))
            .bind(&label_memory.hypervector(u64::from(labels[v])))
    };
    let mut acc = Accumulator::new(config.dim).expect("valid dimension");
    for (u, v) in graph.edges() {
        acc.add(&vertex(u).bind(&vertex(v)));
    }
    acc.to_hypervector(config.tie_break)
}
