//! `hdbench`: the GraphHD suite's benchmark.
//!
//! ```text
//! hdbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run measures the end-to-end metrics in rounds of
//! fitting and predicting in process, then setting up a loopback server
//! and classifying single graphs over it; then it computes the
//! cross-validated accuracy. With
//! `--trace 1` it records spans around its calls into each layer and
//! reports the per-layer metrics instead (see `layers.rs`). Either way
//! it checks every output it gets and prints, as its last line, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.
//!
//! The benchmark drives only public APIs of the suite's crates, and
//! sizes every thread pool explicitly. End-to-end timings are scaled to
//! a reference host speed measured by the benchmark's own kernel while
//! no thread of the suite is alive (see `calibrate.rs`).

mod calibrate;
mod layers;
mod report;
mod serve;
mod setup;
mod trace;

use datasets::StratifiedKFold;
use engine::Engine;
use graphcore::Graph;
use graphhd::{GraphEncoder, GraphHdModel};
use hdvec::Hypervector;
use netserve::Server;
use report::{mean, median, quantile_u64, Outcome};
use setup::{Setup, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: hdbench --workload <train-nci1|train-dd|serve-nci1> --seed <n> --seconds <s> --trace <0|1>";
/// Folds of the cross-validated accuracy.
const CV_FOLDS: usize = 10;
/// Datasets the accuracy is averaged over.
const ACCURACY_DATASETS: u64 = 4;
/// Workers of the pool that encodes for the (untimed) accuracy.
const ACCURACY_THREADS: usize = 2;
/// Length of one round of fitting, setting up and serving; `setup_s` is
/// the median of the rounds' set-ups.
const ROUND_SECONDS: f64 = 5.0;
/// Share of a round spent fitting and predicting in process.
const FIT_SHARE: f64 = 0.5;
/// Length of one serving segment (after its warm-up).
const SEGMENT: Duration = Duration::from_millis(500);
/// Batch frames served (and checked) per serving segment.
const BATCH_CHECKS: usize = 2;

#[derive(Debug)]
pub struct Args {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    setup::workload(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The benchmark package's directory; run files go to `out/` in it.
fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hdbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if std::env::var_os("GRAPHHD_FAULTS").is_some() {
        eprintln!("hdbench: GRAPHHD_FAULTS is set; an armed fault plan would fail operations");
        return ExitCode::from(2);
    }
    let dir = bench_dir();
    let repo = dir.parent().unwrap_or(&dir).to_path_buf();
    println!(
        "{}",
        report::provenance(
            &repo,
            args.workload.name,
            args.seed,
            args.seconds,
            args.trace
        )
    );
    let scratch = dir.join("out");
    let result = if args.trace {
        layers::run(&args, &scratch)
    } else {
        end_to_end(&args, &scratch)
    };
    match result {
        Ok(outcome) => {
            for m in &outcome.metrics {
                println!("{:<32} {:>16.4} {}", m.name, m.value, m.unit);
            }
            for v in &outcome.violations {
                eprintln!("hdbench: check failed: {v}");
            }
            println!("{}", outcome.result_line());
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("hdbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Classes a separately built one-worker model assigns to each test
/// graph, one `predict` call per graph: what every measured path must
/// reproduce.
pub fn reference_classes(data: &setup::Data) -> Result<Vec<u32>, String> {
    let model = setup::fit(&setup::encoder(1)?, data)?;
    Ok(data.test.iter().map(|g| model.predict(g)).collect())
}

/// The checks every serving phase ends with: the server answered every
/// frame it read and decoded them all, and the engine's counters
/// reconcile with nothing failed, expired or shed.
pub fn check_serving(engine: &Engine, server: &Server, out: &mut Outcome) {
    let deadline = Instant::now() + Duration::from_secs(2);
    let (net, stats) = loop {
        let net = server.stats();
        let stats = engine.stats();
        let quiet = net.frames_in == net.frames_out && stats.queue_depth == 0;
        if quiet || Instant::now() >= deadline {
            break (net, stats);
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    out.check(
        net.frames_in == net.frames_out,
        format!(
            "frames_in {} != frames_out {}",
            net.frames_in, net.frames_out
        ),
    );
    out.check(
        net.decode_errors == 0,
        format!("decode_errors {}", net.decode_errors),
    );
    out.check(
        stats.accepted == stats.completed + stats.failed + stats.expired,
        format!(
            "engine accepted {} != completed {} + failed {} + expired {}",
            stats.accepted, stats.completed, stats.failed, stats.expired
        ),
    );
    out.check(
        stats.failed == 0 && stats.expired == 0 && stats.shed == 0,
        format!(
            "engine failed {} expired {} shed {}",
            stats.failed, stats.expired, stats.shed
        ),
    );
}

/// Mean accuracy over ten stratified folds of a whole dataset (the
/// paper's protocol), from one encoding of every graph.
fn cv_accuracy(encoder: &GraphEncoder, data: &setup::Data, seed: u64) -> Result<f64, String> {
    let graphs: Vec<&Graph> = data.train.iter().chain(&data.test).collect();
    let labels: Vec<u32> = data
        .train_labels
        .iter()
        .chain(&data.test_labels)
        .copied()
        .collect();
    let encodings = encoder.encode_all(&graphs);
    let folds = StratifiedKFold::new(CV_FOLDS, seed)
        .and_then(|kfold| kfold.split(&labels))
        .map_err(|e| format!("cross-validation split: {e}"))?;
    let mut total = 0.0;
    for fold in &folds {
        let train: Vec<Hypervector> = fold.train.iter().map(|&i| encodings[i].clone()).collect();
        let train_labels: Vec<u32> = fold.train.iter().map(|&i| labels[i]).collect();
        let model =
            GraphHdModel::fit_encoded(encoder.clone(), &train, &train_labels, data.num_classes);
        let hits = fold
            .test
            .iter()
            .filter(|&&i| model.predict_encoded(&encodings[i]) == labels[i])
            .count();
        total += hits as f64 / fold.test.len() as f64;
    }
    Ok(total / folds.len() as f64)
}

/// Cross-validated accuracy averaged over [`ACCURACY_DATASETS`] datasets
/// generated from seeds derived from `seed`. Deterministic for a seed;
/// averaging over datasets narrows its spread across seeds, which one
/// dataset's finite size sets.
fn accuracy(workload: &Workload, seed: u64) -> Result<f64, String> {
    let encoder = setup::encoder(ACCURACY_THREADS)?;
    let mut total = 0.0;
    for k in 0..ACCURACY_DATASETS {
        let derived = seed.wrapping_add(k * 0x9E37_79B9_7F4A_7C15);
        let data = setup::Data::generate(workload, derived)?;
        total += cv_accuracy(&encoder, &data, derived)?;
    }
    Ok(total / ACCURACY_DATASETS as f64)
}

/// Samples of one timing, as measured and scaled to the reference host
/// speed by the calibration taken beside each.
#[derive(Debug, Default)]
struct Timings {
    raw: Vec<f64>,
    scaled: Vec<f64>,
}

impl Timings {
    /// A throughput: it grows with the host's speed.
    fn rate(&mut self, value: f64, speed: f64) {
        self.raw.push(value);
        self.scaled.push(value * calibrate::REFERENCE / speed);
    }

    /// A duration: it shrinks with the host's speed.
    fn duration(&mut self, value: f64, speed: f64) {
        self.raw.push(value);
        self.scaled.push(value * speed / calibrate::REFERENCE);
    }
}

/// One serving segment: the workload's connections classify single
/// graphs for [`SEGMENT`], then two batch frames are checked; returns
/// the median single-graph round trip in µs.
fn serve_segment(
    args: &Args,
    engine: &Engine,
    server: &Server,
    singles: &[(Vec<Graph>, Vec<u32>)],
    frames: &[(Vec<Graph>, Vec<u32>)],
    epoch: Instant,
    out: &mut Outcome,
) -> Result<f64, String> {
    let addr = server.local_addr();
    let connections = args.workload.connections;
    let single = serve::closed_loops(addr, singles, connections, SEGMENT, epoch)?;
    let p50_us = quantile_u64(&single.frame_ns, 0.5) / 1e3;
    let batch = serve::closed_loop(addr, frames, 0, Duration::ZERO, BATCH_CHECKS, epoch, false)?;
    for served in [single, batch] {
        out.attempted += served.attempted;
        out.failed += served.failed;
        out.check(
            served.mismatched == 0,
            "served answers differ from GraphHdModel::predict",
        );
    }
    check_serving(engine, server, out);
    Ok(p50_us)
}

fn end_to_end(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let data = setup::Data::generate(args.workload, args.seed)?;
    let encoder = setup::encoder(setup::FIT_THREADS)?;
    let expected = reference_classes(&data)?;
    let singles = serve::frames(&data.test, &expected, 1);
    let frames = serve::frames(&data.test, &expected, serve::BATCH);
    // Rounds of fitting, then setting up and serving: each metric samples
    // the whole run, since the host's speed drifts over seconds.
    let rounds = (args.seconds / ROUND_SECONDS).round().max(1.0);
    let round = Duration::from_secs_f64(args.seconds / rounds);
    let fit_for = round.mul_f64(FIT_SHARE);
    let epoch = Instant::now();
    // Host speed, measured only while no suite thread is alive: before
    // each fit and each predict (one-worker pools run on the calling
    // thread), before each set-up and after each serving segment's
    // teardown.
    let mut speeds = Vec::new();
    let mut setup_s = Timings::default();
    let mut fit_rates = Timings::default();
    let mut infer_rates = Timings::default();
    let mut first: Option<Vec<Hypervector>> = None;
    // Each serving segment's median request latency. Keeping only these,
    // not every sample, stops the benchmark's own memory from following
    // the request count (and so the host's speed) into `peak_rss_mb`. The
    // run reports their mean: from segment to segment the median moves
    // between levels (on DD about 0.6 and 1.0 ms) that no calibration
    // follows, and a median of such segments jumps between them where
    // the mean does not.
    let mut serve_p50_us = Timings::default();
    for _ in 0..rounds as usize {
        let round_end = Instant::now() + round;
        // In process: fit and predict on the one-worker pool.
        let until = Instant::now() + fit_for;
        let mut speed;
        loop {
            speed = calibrate::host_speed()?;
            speeds.push(speed);
            let start = Instant::now();
            let model = setup::fit(&encoder, &data);
            let fitted = Instant::now();
            out.attempted += 1;
            let Ok(model) = model else {
                out.failed += 1;
                break;
            };
            let fit_s = (fitted - start).as_secs_f64();
            fit_rates.rate(data.train.len() as f64 / fit_s, speed);
            speed = calibrate::host_speed()?;
            speeds.push(speed);
            let start = Instant::now();
            let predictions = model.predict_batch(&data.test);
            let predicted = Instant::now();
            out.attempted += 1;
            let predict_s = (predicted - start).as_secs_f64();
            infer_rates.rate(data.test.len() as f64 / predict_s, speed);
            out.check(
                predictions == expected,
                "pooled predict_batch differs from the one-worker reference",
            );
            let vectors = model.class_vectors();
            match &first {
                None => first = Some(vectors.to_vec()),
                Some(v) => out.check(v == vectors, "repeated fits gave different class vectors"),
            }
            if predicted >= until {
                break;
            }
        }
        // Over the socket: set up from scratch, then serve in segments
        // until the round ends. After the first, each segment restarts the
        // engine and server from a snapshot of the set-up's model, so the
        // suite's threads start afresh: where the host places them is the
        // likeliest cause of the levels `serve_p50_us` moves between.
        speed = calibrate::host_speed()?;
        speeds.push(speed);
        let start = Instant::now();
        let Setup {
            model,
            engine,
            server,
            ..
        } = Setup::run(args.workload, args.seed, scratch)?;
        let setup_took = start.elapsed().as_secs_f64();
        out.check(
            first.as_deref() == Some(model.class_vectors()),
            "the served model differs from the measured fits",
        );
        let mut started = Some((engine, server));
        for segment in 0.. {
            let (engine, server) = match started.take() {
                Some(pair) => pair,
                None => setup::serve(&model, scratch)?,
            };
            let p50_us = serve_segment(args, &engine, &server, &singles, &frames, epoch, &mut out)?;
            server.shutdown();
            engine.shutdown();
            drop((engine, server));
            // Each segment (the first with its set-up) sits between two
            // calibrations.
            let after = calibrate::host_speed()?;
            speeds.push(after);
            let mid = (speed + after) / 2.0;
            if segment == 0 {
                setup_s.duration(setup_took, mid);
            }
            serve_p50_us.duration(p50_us, mid);
            speed = after;
            if Instant::now() + SEGMENT.mul_f64(1.0 + serve::WARMUP_SHARE) > round_end {
                break;
            }
        }
    }

    out.metric("setup_s", median(&setup_s.scaled), "s");
    out.metric("peak_rss_mb", report::peak_rss_mb(), "MB");
    out.metric("train_graphs_per_s", median(&fit_rates.scaled), "graphs/s");
    out.metric(
        "infer_graphs_per_s",
        median(&infer_rates.scaled),
        "graphs/s",
    );
    out.metric("accuracy", accuracy(args.workload, args.seed)?, "ratio");
    out.metric("serve_p50_us", mean(&serve_p50_us.scaled), "us");
    eprintln!(
        "hdbench: {} set-ups, {} fits, {} serving segments; host speed {:.1}/s over {} calibrations \
         (reference {}); unscaled: setup {:.4} s, train {:.1}/s, infer {:.1}/s, serve p50 \
         {:.2} us",
        setup_s.raw.len(),
        fit_rates.raw.len(),
        serve_p50_us.raw.len(),
        median(&speeds),
        speeds.len(),
        calibrate::REFERENCE,
        median(&setup_s.raw),
        median(&fit_rates.raw),
        median(&infer_rates.raw),
        mean(&serve_p50_us.raw),
    );
    Ok(out)
}
