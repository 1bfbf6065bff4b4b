//! Workload definitions and the set-up a run pays before each serving
//! phase: generate the dataset, split it, fit a model, round-trip it
//! through a snapshot into a serving engine, and start a loopback server.

use crate::serve;
use datasets::{surrogate, StratifiedKFold};
use engine::Engine;
use graphcore::Graph;
use graphhd::{GraphEncoder, GraphHdConfig, GraphHdModel};
use netserve::{ModelRegistry, Server, ServerBuilder};
use parallel::Pool;
use std::path::Path;
use std::sync::Arc;

/// Name the served model is registered under.
pub const MODEL: &str = "bench";
/// Workers of the pool that fits and predicts in the measured loop.
pub const FIT_THREADS: usize = 1;
/// Workers of the serving engine's pool.
pub const SERVE_THREADS: usize = 2;
/// Hypervector dimensionality (the paper's d).
pub const DIM: usize = 10_000;

/// One named benchmark workload. Every workload runs the whole model
/// life cycle; they differ in the dataset, in how many connections the
/// end-to-end run serves from, and in the traced run's open-loop request
/// rate (about a quarter of serving capacity).
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Surrogate dataset (Table I statistics), generated from the seed.
    pub dataset: &'static str,
    /// Client connections classifying at once in the end-to-end run.
    pub connections: usize,
    /// Single-graph requests per second in the traced open loop.
    pub rate_per_s: f64,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "train-nci1",
        dataset: "NCI1",
        connections: 1,
        rate_per_s: 2000.0,
    },
    Workload {
        name: "train-dd",
        dataset: "DD",
        connections: 1,
        rate_per_s: 250.0,
    },
    Workload {
        name: "serve-nci1",
        dataset: "NCI1",
        connections: serve::CONNECTIONS,
        rate_per_s: 2000.0,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The fixed stratified train/test split of a surrogate dataset.
#[derive(Debug)]
pub struct Data {
    pub train: Vec<Graph>,
    pub train_labels: Vec<u32>,
    pub test: Vec<Graph>,
    pub test_labels: Vec<u32>,
    pub num_classes: usize,
}

impl Data {
    /// Generates the workload's dataset and takes the first of five
    /// stratified folds as the test split.
    pub fn generate(workload: &Workload, seed: u64) -> Result<Self, String> {
        let dataset = surrogate::by_name(workload.dataset, seed)
            .ok_or_else(|| format!("unknown dataset {}", workload.dataset))?;
        let folds = StratifiedKFold::new(5, seed)
            .and_then(|kfold| kfold.split(dataset.labels()))
            .map_err(|e| format!("split: {e}"))?;
        let fold = &folds[0];
        let pick = |indices: &[usize]| -> (Vec<Graph>, Vec<u32>) {
            indices
                .iter()
                .map(|&i| (dataset.graph(i).clone(), dataset.label(i)))
                .unzip()
        };
        let (train, train_labels) = pick(&fold.train);
        let (test, test_labels) = pick(&fold.test);
        Ok(Self {
            train,
            train_labels,
            test,
            test_labels,
            num_classes: dataset.num_classes(),
        })
    }
}

/// The paper's encoder configuration at d = 10,000.
pub fn config() -> Result<GraphHdConfig, String> {
    GraphHdConfig::builder()
        .dim(DIM)
        .build()
        .map_err(|e| format!("config: {e}"))
}

/// An encoder pinned to its own pool of `threads` workers.
pub fn encoder(threads: usize) -> Result<GraphEncoder, String> {
    Ok(GraphEncoder::new(config()?)
        .map_err(|e| format!("encoder: {e}"))?
        .with_pool(Arc::new(Pool::with_threads(threads))))
}

pub fn fit(encoder: &GraphEncoder, data: &Data) -> Result<GraphHdModel, String> {
    GraphHdModel::fit_with_encoder(
        encoder.clone(),
        &data.train,
        &data.train_labels,
        data.num_classes,
    )
    .map_err(|e| format!("fit: {e}"))
}

/// Everything a run measures against.
#[derive(Debug)]
pub struct Setup {
    pub data: Data,
    /// The one-worker encoder the measured fit/predict loop uses.
    pub encoder: GraphEncoder,
    /// The model fitted during set-up (the one that is served).
    pub model: GraphHdModel,
    pub engine: Engine,
    pub server: Server,
}

impl Setup {
    /// Runs the whole set-up once. `scratch` holds the snapshot file
    /// for the duration of the round trip.
    pub fn run(workload: &Workload, seed: u64, scratch: &Path) -> Result<Self, String> {
        let data = Data::generate(workload, seed)?;
        let encoder = encoder(FIT_THREADS)?;
        let model = fit(&encoder, &data)?;
        let (engine, server) = serve(&model, scratch)?;
        Ok(Self {
            data,
            encoder,
            model,
            engine,
            server,
        })
    }

    /// Stops the server and drains the engine.
    pub fn shutdown(&self) {
        self.server.shutdown();
        self.engine.shutdown();
    }
}

/// Saves `model`, restores it into a two-worker engine, and serves that
/// engine on an OS-assigned loopback port.
pub fn serve(model: &GraphHdModel, scratch: &Path) -> Result<(Engine, Server), String> {
    std::fs::create_dir_all(scratch).map_err(|e| format!("scratch dir: {e}"))?;
    let path = scratch.join(format!("model-{}.ghd", std::process::id()));
    model
        .save(&path)
        .map_err(|e| format!("snapshot save: {e}"))?;
    let engine = Engine::builder()
        .threads(SERVE_THREADS)
        .from_snapshot(&path);
    let _ = std::fs::remove_file(&path);
    let engine = engine.map_err(|e| format!("snapshot restore: {e}"))?;
    let registry = Arc::new(ModelRegistry::new());
    registry
        .insert(MODEL, engine.clone())
        .map_err(|e| format!("registry: {e}"))?;
    let server = ServerBuilder::new(registry)
        .addr("127.0.0.1:0")
        .max_connections(8)
        .serve()
        .map_err(|e| format!("server: {e}"))?;
    Ok((engine, server))
}
