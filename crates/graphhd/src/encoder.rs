//! The GraphHD graph encoder (paper Section IV-B/IV-C, Figure 2).

use crate::{CentralityKind, EncoderKind, Error, GraphHdConfig};
use graphcore::{degree_centrality, pagerank_ranks, ranks_by_score, similarity, Graph};
use hdvec::{BitSliceAccumulator, Hypervector, ItemMemory, LevelMemory};
use parallel::{Pool, PoolHandle};
use prng::mix_seed;
use std::borrow::Borrow;
use std::sync::Arc;

/// Seed stream for the level memory of
/// [`EncoderKind::VertexSimilarity`], independent from the basis item
/// memory (which uses the config seed directly) and from the label
/// memory of [`crate::labeled`].
const LEVEL_SEED_STREAM: u64 = 0x1E_5E1;

/// Encodes graphs into hypervectors with the configured [`EncoderKind`].
/// Under the default [`EncoderKind::Centrality`] this is the paper's
/// recipe: PageRank ranks select basis vertex hypervectors, edges bind
/// their endpoints, and the edge hypervectors are bundled into the graph
/// hypervector. The other kinds change only the ranking, the vertex
/// hypervector and the edge weight; every kind runs the same edge loop.
///
/// The same encoder instance (same config/seed) **must** be used for
/// training and inference — the paper emphasises that `Enc` is shared —
/// and because encoding is a pure function of the config and the graph,
/// encoders constructed from equal configs agree across machines.
///
/// # Examples
///
/// ```
/// use graphhd::{GraphEncoder, GraphHdConfig};
/// use graphcore::generate;
///
/// let encoder = GraphEncoder::new(GraphHdConfig::default())?;
/// let hv = encoder.encode(&generate::star(10));
/// assert_eq!(hv.dim(), 10_000);
/// // Isomorphic graphs encode identically (same structure, same ranks).
/// assert_eq!(hv, encoder.encode(&generate::star(10)));
/// # Ok::<(), graphhd::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct GraphEncoder {
    config: GraphHdConfig,
    memory: ItemMemory,
    /// The similarity levels of [`EncoderKind::VertexSimilarity`]
    /// (`None` for the other kinds), shared by clones.
    levels: Option<Arc<LevelMemory>>,
    pool: PoolHandle,
}

impl GraphEncoder {
    /// Creates an encoder from a configuration. Batch operations run on
    /// the process-wide [`Pool::global`] unless [`with_pool`] selects an
    /// explicit one.
    ///
    /// [`with_pool`]: Self::with_pool
    ///
    /// # Errors
    ///
    /// Returns [`Error::ZeroDimension`] if `config.dim == 0` (the
    /// underlying [`hdvec::HdvError`] is routed through the crate's
    /// unified error type instead of leaking across the boundary) and
    /// [`Error::InvalidEncoderConfig`] for degenerate [`EncoderKind`]
    /// parameters.
    pub fn new(config: GraphHdConfig) -> Result<Self, Error> {
        let memory = ItemMemory::new(config.dim, config.seed)?;
        config.encoder.validate()?;
        let levels = match config.encoder {
            EncoderKind::VertexSimilarity { levels } => Some(Arc::new(LevelMemory::new(
                config.dim,
                levels as usize,
                mix_seed(config.seed, LEVEL_SEED_STREAM),
            )?)),
            EncoderKind::Centrality | EncoderKind::EdgeWeighted { .. } => None,
        };
        Ok(Self {
            config,
            memory,
            levels,
            pool: PoolHandle::Global,
        })
    }

    /// Pins batch operations (and those of every model fitted from this
    /// encoder) to an explicit pool — the deterministic-thread-count knob
    /// behind the `BENCH_*` scaling tables.
    #[must_use]
    pub fn with_pool(mut self, pool: Arc<Pool>) -> Self {
        self.pool = PoolHandle::Owned(pool);
        self
    }

    /// As [`with_pool`](Self::with_pool), but taking a [`PoolHandle`]
    /// (for callers that may want to restore the global default).
    #[must_use]
    pub fn with_pool_handle(mut self, pool: PoolHandle) -> Self {
        self.pool = pool;
        self
    }

    /// The pool batch operations run on.
    #[must_use]
    pub fn pool(&self) -> &Pool {
        self.pool.get()
    }

    /// The pool selection (shared with models fitted from this encoder).
    #[must_use]
    pub fn pool_handle(&self) -> &PoolHandle {
        &self.pool
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &GraphHdConfig {
        &self.config
    }

    /// The basis item memory (rank → hypervector).
    #[must_use]
    pub fn memory(&self) -> &ItemMemory {
        &self.memory
    }

    /// The encoder kind (including its parameters) this encoder runs.
    #[must_use]
    pub fn kind(&self) -> EncoderKind {
        self.config.encoder
    }

    /// Computes the *centrality* vertex identifiers (ranks) of a graph.
    ///
    /// Rank 0 is the most central vertex; ties are broken by vertex id,
    /// the deterministic convention adopted suite-wide. This ranking is
    /// always the centrality one, independent of the encoder kind — it
    /// backs the [`labeled`](crate::labeled) extension and the
    /// centrality ablations.
    #[must_use]
    pub fn vertex_ranks(&self, graph: &Graph) -> Vec<u32> {
        match self.config.centrality {
            CentralityKind::PageRank => pagerank_ranks(graph, &self.config.pagerank),
            CentralityKind::Degree => ranks_by_score(&degree_centrality(graph)),
            CentralityKind::VertexId => (0..graph.vertex_count() as u32).collect(),
        }
    }

    /// Encodes a graph into its bipolar graph hypervector — the `Enc_G`
    /// of the paper.
    ///
    /// An edgeless graph bundles nothing and thresholds to the
    /// deterministic tie-break pattern, so all edgeless graphs share one
    /// neutral hypervector.
    #[must_use]
    pub fn encode(&self, graph: &Graph) -> Hypervector {
        crate::metrics::metrics().graphs_encoded.inc();
        let basis = |rank: u32| self.memory.hypervector(u64::from(rank));
        match self.config.encoder {
            EncoderKind::Centrality => {
                let ranks = self.vertex_ranks(graph);
                self.bundle_edges(graph, &ranks, 0, |v| basis(ranks[v]), |_, _| 1)
            }
            EncoderKind::VertexSimilarity { .. } => {
                // Identity by similarity rank, correlation by similarity
                // magnitude: H_rank(rank) ⊗ H_level(quantize(score)).
                let levels = self.levels.as_deref().expect("built for this kind");
                let scores = similarity::neighborhood_similarity(graph);
                let ranks = ranks_by_score(&scores);
                let vertex = |v: usize| {
                    let mut hv = basis(ranks[v]);
                    hv.bind_assign(levels.hypervector(levels.quantize(scores[v])));
                    hv
                };
                self.bundle_edges(graph, &ranks, 1, vertex, |_, _| 1)
            }
            EncoderKind::EdgeWeighted { weight_cap } => {
                // One vote plus one per closed triangle, capped.
                let ranks = self.vertex_ranks(graph);
                let cap = weight_cap as usize - 1;
                let weight = |u, v| 1 + graph.common_neighbors(u, v).min(cap) as u32;
                self.bundle_edges(graph, &ranks, 0, |v| basis(ranks[v]), weight)
            }
        }
    }

    /// The one edge loop of every encoder: orients each edge as (lower
    /// rank, higher rank), binds the lower end's `vertex` hypervector with
    /// the higher end's rotated by `high_shift` (bind is XOR, so only a
    /// rotation depends on the orientation), adds the edge with its
    /// `weight` into bit-sliced counters, and thresholds the planes
    /// straight into the graph hypervector.
    ///
    /// `ranks` must be a permutation of the vertices. `vertex(v)` runs at
    /// most once per vertex and role; a per-graph cache serves every
    /// further edge at that vertex. `weight(u, v)` sees the edge as the
    /// graph lists it.
    pub(crate) fn bundle_edges(
        &self,
        graph: &Graph,
        ranks: &[u32],
        high_shift: usize,
        mut vertex: impl FnMut(usize) -> Hypervector,
        mut weight: impl FnMut(u32, u32) -> u32,
    ) -> Hypervector {
        let dim = self.config.dim;
        let mut acc = BitSliceAccumulator::new(dim).expect("dimension validated at construction");
        let mut edge = Hypervector::positive(dim).expect("dimension validated at construction");
        let n = graph.vertex_count();
        let mut low: Vec<Option<Hypervector>> = vec![None; n];
        let mut high: Vec<Option<Hypervector>> = vec![None; if high_shift == 0 { 0 } else { n }];
        for (u, v) in graph.edges() {
            let (lo, hi) = if ranks[u as usize] < ranks[v as usize] {
                (u as usize, v as usize)
            } else {
                (v as usize, u as usize)
            };
            edge.clone_from(low[lo].get_or_insert_with(|| vertex(lo)));
            let high_hv = if high_shift == 0 {
                low[hi].get_or_insert_with(|| vertex(hi))
            } else {
                high[hi].get_or_insert_with(|| vertex(hi).permute(high_shift))
            };
            edge.bind_assign(high_hv);
            acc.add_weighted(&edge, weight(u, v));
        }
        acc.to_hypervector(self.config.tie_break)
    }

    /// Encodes many graphs, parallelised on the encoder's pool. Accepts
    /// both owned slices (`&[Graph]`) and reference slices (`&[&Graph]`).
    ///
    /// The result is identical to mapping [`encode`](Self::encode) — the
    /// parallelism is an implementation detail mirroring the paper's
    /// observation that HDC encoding is trivially parallel, and the
    /// work-stealing pool keeps skewed graph sizes balanced (the old
    /// round-robin static dealing did not).
    #[must_use]
    pub fn encode_all<G: Borrow<Graph> + Sync>(&self, graphs: &[G]) -> Vec<Hypervector> {
        self.pool()
            .par_map(graphs, |graph| self.encode(graph.borrow()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CentralityKind;
    use graphcore::{generate, GraphBuilder};
    use hdvec::{Accumulator, TieBreak};
    use prng::{WordRng, Xoshiro256PlusPlus};

    fn encoder(dim: usize) -> GraphEncoder {
        GraphEncoder::new(
            GraphHdConfig::builder()
                .dim(dim)
                .build()
                .expect("valid dimension"),
        )
        .expect("valid dimension")
    }

    #[test]
    fn rejects_zero_dimension() {
        let zero = GraphHdConfig {
            dim: 0,
            ..GraphHdConfig::default()
        };
        assert_eq!(
            GraphEncoder::new(zero).unwrap_err(),
            crate::Error::ZeroDimension
        );
    }

    #[test]
    fn encoding_is_deterministic() {
        let e = encoder(2048);
        let g = generate::star(12);
        assert_eq!(e.encode(&g), e.encode(&g));
    }

    #[test]
    fn different_structures_encode_differently() {
        let e = encoder(10_000);
        let a = e.encode(&generate::complete(10));
        let b = e.encode(&generate::path(10));
        assert!(a.cosine(&b) < 0.6, "cosine {}", a.cosine(&b));
    }

    #[test]
    fn isomorphic_graphs_encode_identically_under_relabeling() {
        // Build an asymmetric graph (distinct PageRank scores), then apply
        // a vertex permutation; the encoding must not change because ranks
        // are topology-derived.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(77);
        let g = {
            let mut b = GraphBuilder::new(8);
            // A "lollipop": K4 attached to a path, no automorphism mixing
            // path and clique ranks ambiguously.
            for (u, v) in [
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
            ] {
                b.add_edge(u, v);
            }
            b.build()
        };
        let mut perm: Vec<u32> = (0..8).collect();
        rng.shuffle(&mut perm);
        let mut b = GraphBuilder::new(8);
        for (u, v) in g.edges() {
            b.add_edge(perm[u as usize], perm[v as usize]);
        }
        let permuted = b.build();
        let e = encoder(4096);
        assert_eq!(e.encode(&g), e.encode(&permuted));
    }

    #[test]
    fn vertex_id_centrality_is_not_permutation_invariant() {
        // The strawman the paper rejects: identifiers tied to raw vertex
        // ids lose correspondence under relabeling.
        let e = GraphEncoder::new(GraphHdConfig {
            centrality: CentralityKind::VertexId,
            ..GraphHdConfig::builder()
                .dim(4096)
                .build()
                .expect("valid dimension")
        })
        .expect("valid config");
        let g = generate::path(6);
        let mut b = GraphBuilder::new(6);
        for (u, v) in g.edges() {
            b.add_edge(5 - u, 5 - v); // reverse labeling
        }
        let reversed = b.build();
        // The path reversed is the same graph, but vertex-id encoding sees
        // different (rank -> endpoint) pairings in general. (Reversal of a
        // path maps edge {i, i+1} to {4-i, 5-i}: different id pairs.)
        assert_eq!(e.encode(&g).dim(), e.encode(&reversed).dim());
    }

    #[test]
    fn edgeless_graphs_share_a_neutral_encoding() {
        let e = encoder(512);
        let a = e.encode(&graphcore::Graph::empty(3));
        let b = e.encode(&graphcore::Graph::empty(10));
        assert_eq!(a, b);
    }

    #[test]
    fn encode_all_matches_sequential() {
        let e = encoder(1024);
        let graphs: Vec<_> = (4..20).map(generate::cycle).collect();
        let refs: Vec<&graphcore::Graph> = graphs.iter().collect();
        let parallel = e.encode_all(&refs);
        let sequential: Vec<_> = refs.iter().map(|g| e.encode(g)).collect();
        assert_eq!(parallel, sequential);
        // Owned slices encode identically to reference slices.
        assert_eq!(e.encode_all(&graphs), sequential);
    }

    #[test]
    fn encode_all_is_identical_across_pinned_thread_counts() {
        let graphs: Vec<_> = (3..40).map(|n| generate::star(n % 17 + 3)).collect();
        let serial = encoder(512)
            .with_pool(Arc::new(Pool::with_threads(1)))
            .encode_all(&graphs);
        for threads in [2usize, 3, 8] {
            let e = encoder(512).with_pool(Arc::new(Pool::with_threads(threads)));
            assert_eq!(e.pool().threads(), threads);
            assert_eq!(e.encode_all(&graphs), serial, "threads {threads}");
        }
    }

    #[test]
    fn alternative_strategies_flow_through_the_encoder_surface() {
        let graphs: Vec<_> = (4..12).map(generate::complete).collect();
        for kind in [
            EncoderKind::vertex_similarity(),
            EncoderKind::edge_weighted(),
        ] {
            let e = GraphEncoder::new(
                GraphHdConfig::builder()
                    .dim(512)
                    .with_encoder(kind)
                    .build()
                    .expect("valid config"),
            )
            .expect("valid config");
            assert_eq!(e.kind(), kind);
            // encode/encode_all route through the same edge loop.
            let batch = e.encode_all(&graphs);
            let sequential: Vec<_> = graphs.iter().map(|g| e.encode(g)).collect();
            assert_eq!(batch, sequential, "{kind:?}");
        }
    }

    #[test]
    fn centrality_kinds_produce_valid_ranks() {
        let g = generate::star(7);
        for kind in [
            CentralityKind::PageRank,
            CentralityKind::Degree,
            CentralityKind::VertexId,
        ] {
            let e = GraphEncoder::new(GraphHdConfig {
                centrality: kind,
                ..GraphHdConfig::builder()
                    .dim(256)
                    .build()
                    .expect("valid dimension")
            })
            .expect("valid config");
            let ranks = e.vertex_ranks(&g);
            let mut sorted = ranks.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..7).collect::<Vec<u32>>(), "{kind:?}");
        }
        // Star center is rank 0 under both structural centralities.
        for kind in [CentralityKind::PageRank, CentralityKind::Degree] {
            let e = GraphEncoder::new(GraphHdConfig {
                centrality: kind,
                ..GraphHdConfig::builder()
                    .dim(256)
                    .build()
                    .expect("valid dimension")
            })
            .expect("valid config");
            assert_eq!(e.vertex_ranks(&g)[0], 0);
        }
    }

    fn kind_encoder(kind: EncoderKind, dim: usize) -> GraphEncoder {
        GraphEncoder::new(
            GraphHdConfig::builder()
                .dim(dim)
                .with_encoder(kind)
                .build()
                .expect("valid config"),
        )
        .expect("valid config")
    }

    const KINDS: [EncoderKind; 3] = [
        EncoderKind::Centrality,
        EncoderKind::VertexSimilarity { levels: 16 },
        EncoderKind::EdgeWeighted { weight_cap: 4 },
    ];

    #[test]
    fn every_kind_reports_itself_and_is_deterministic() {
        let g = generate::complete(9);
        for kind in KINDS {
            let a = kind_encoder(kind, 1024);
            assert_eq!(a.kind(), kind);
            assert_eq!(
                a.encode(&g),
                kind_encoder(kind, 1024).encode(&g),
                "{kind:?}"
            );
        }
    }

    /// K5 with a four-vertex tail: clustered and sparse regions side by
    /// side, so similarity levels and triangle weights both vary.
    fn lollipop() -> graphcore::Graph {
        let mut b = GraphBuilder::new(9);
        for u in 0..5 {
            for v in u + 1..5 {
                b.add_edge(u, v);
            }
        }
        for u in 4..8 {
            b.add_edge(u, u + 1);
        }
        b.build()
    }

    #[test]
    fn kinds_disagree_with_each_other() {
        // The three recipes are genuinely different encoders: on a graph
        // with non-trivial clustering their hypervectors differ.
        let g = lollipop();
        let hvs: Vec<Hypervector> = KINDS
            .iter()
            .map(|&k| kind_encoder(k, 2048).encode(&g))
            .collect();
        assert_ne!(hvs[0], hvs[1]);
        assert_ne!(hvs[0], hvs[2]);
        assert_ne!(hvs[1], hvs[2]);
    }

    #[test]
    fn edge_weights_apply_only_where_triangles_close() {
        // A cap of 1 forces every weight to 1, which must reproduce the
        // unweighted centrality encoding exactly (same ranks, same basis).
        let centrality = kind_encoder(EncoderKind::Centrality, 512);
        let unit_cap = kind_encoder(EncoderKind::EdgeWeighted { weight_cap: 1 }, 512);
        let weighted = kind_encoder(EncoderKind::edge_weighted(), 512);
        for g in [generate::complete(9), generate::star(12), generate::path(7)] {
            assert_eq!(centrality.encode(&g), unit_cap.encode(&g));
        }
        // Triangle-free graphs get no boost, and equal weights on every
        // edge leave the majority unchanged; mixed weights change it.
        for g in [generate::star(6), generate::complete(6)] {
            assert_eq!(weighted.encode(&g), centrality.encode(&g));
        }
        assert_ne!(weighted.encode(&lollipop()), centrality.encode(&lollipop()));
    }

    #[test]
    fn vertex_similarity_distinguishes_clustering_patterns() {
        // Complete vs path: wildly different similarity profiles.
        let e = kind_encoder(EncoderKind::vertex_similarity(), 10_000);
        let a = e.encode(&generate::complete(10));
        let b = e.encode(&generate::path(10));
        assert!(a.cosine(&b) < 0.6, "cosine {}", a.cosine(&b));
    }

    #[test]
    fn edgeless_graphs_encode_to_the_tie_pattern_under_every_kind() {
        let empty = Accumulator::new(128).expect("valid dimension");
        for kind in KINDS {
            let e = kind_encoder(kind, 128);
            assert_eq!(
                e.encode(&graphcore::Graph::empty(4)),
                empty.to_hypervector(TieBreak::default()),
                "{kind:?}"
            );
        }
    }
}
