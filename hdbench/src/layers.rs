//! The traced run: per-layer metrics, measured from outside each layer
//! by timing calls into its public functions.
//!
//! - `graphcore`/`hdvec`/`graphhd`: every graph is encoded twice, once
//!   by `GraphEncoder::encode` and once stage by stage from the same
//!   public primitives the encoder uses (rank, basis, bind, bundle). The
//!   threshold stage has no stable public entry point, so it is the
//!   residual: encode minus the timed stages.
//! - `parallel`: fits at one and two workers, with `Pool::stats()`.
//! - `engine`: in-process `Engine::classify`, and interval deltas of
//!   `Engine::stats()` across the serving phases.
//! - `netserve`: the wire codec on in-memory frames, `Server::stats()`,
//!   and `ModelRegistry::net_latency` against the client's round trip.

use crate::report::{quantile_u64, Outcome};
use crate::serve;
use crate::setup::{self, Data, Setup, MODEL};
use crate::trace::Tracer;
use crate::{check_serving, reference_classes, Args};
use graphcore::{pagerank_ranks, Graph};
use hdvec::{BitSliceAccumulator, ClassMemory, Hypervector, ItemMemory};
use netserve::wire::{self, Request, Response};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// In-process `Engine::classify` calls timed one by one.
const ENGINE_CALLS: usize = 400;
/// Frames of each kind pushed through the wire codec.
const CODEC_FRAMES: usize = 200;
/// Alternating one- and two-worker fit rounds.
const SCALING_ROUNDS: usize = 3;
/// Shares of `--seconds` for the open loop and the batch loop.
const OPEN_LOOP_SHARE: f64 = 0.3;
const BATCH_SHARE: f64 = 0.15;
/// An open-loop phase is invalid when the generator's median lateness
/// exceeds this share of the median latency.
const MAX_LATE_SHARE: f64 = 0.25;
/// Attempts at a valid open-loop phase before the run gives up.
const OPEN_LOOP_ATTEMPTS: usize = 3;

pub fn run(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch, true);
    let mut out = Outcome::default();
    let s = traced_setup(args, scratch, &mut tr)?;
    let data = &s.data;
    let span = tr.open("check.reference", None, 0);
    let expected = reference_classes(data)?;
    tr.close(span);

    encode_stages(&s, &mut tr, &mut out)?;
    fit_and_predict(&s, &expected, &mut tr, &mut out)?;
    engine_in_process(&s, &expected, &mut tr, &mut out);
    wire_codec(data, &expected, &mut tr, &mut out)?;
    serving(args, &s, &expected, epoch, &mut tr, &mut out)?;
    check_serving(&s.engine, &s.server, &mut out);
    s.shutdown();
    drop(s);

    out.metric("trace.spans", tr.len() as f64, "count");
    out.metric("bench.host_speed", crate::calibrate::host_speed()?, "1/s");
    let path = scratch.join(format!("trace-{}-{}.json", args.workload.name, args.seed));
    std::fs::create_dir_all(scratch)
        .and_then(|()| std::fs::write(&path, tr.to_json()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("hdbench: {} spans written to {}", tr.len(), path.display());
    eprintln!(
        "hdbench: {:<28} {:>8} {:>14} {:>14}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, t) in tr.layer_times() {
        eprintln!(
            "hdbench: {name:<28} {:>8} {:>14.3} {:>14.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    Ok(out)
}

/// One set-up, with a span around each layer it calls into.
fn traced_setup(args: &Args, scratch: &Path, tr: &mut Tracer) -> Result<Setup, String> {
    let root = tr.open("setup", None, 0);
    let span = tr.open("datasets.generate", Some(root), 0);
    let data = Data::generate(args.workload, args.seed)?;
    tr.close(span);
    let encoder = setup::encoder(setup::FIT_THREADS)?;
    let span = tr.open("graphhd.fit", Some(root), 0);
    let model = setup::fit(&encoder, &data)?;
    tr.close(span);
    let span = tr.open("netserve.start", Some(root), 0);
    let (engine, server) = setup::serve(&model, scratch)?;
    tr.close(span);
    tr.close(root);
    Ok(Setup {
        data,
        encoder,
        model,
        engine,
        server,
    })
}

fn mean(total: u64, count: u64) -> f64 {
    total as f64 / count.max(1) as f64
}

/// Rank, basis, bind and bundle per graph, against a full encode, and
/// scoring per query.
fn encode_stages(s: &Setup, tr: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let config = *s.encoder.config();
    let memory = ItemMemory::new(config.dim, config.seed).map_err(|e| format!("{e}"))?;
    let graphs: Vec<&Graph> = s.data.train.iter().chain(&s.data.test).collect();
    // Whole encodes first, back to back as a fit runs them; the staged
    // pass below would otherwise evict their working set between calls.
    for (g, graph) in graphs.iter().enumerate() {
        let span = tr.open("graphhd.encode", None, g as u64);
        black_box(s.encoder.encode(graph));
        tr.close(span);
    }
    let mut edges_hv: Vec<Hypervector> = Vec::new();
    let (mut vertices, mut edges) = (0u64, 0u64);
    for (g, graph) in graphs.iter().enumerate() {
        let request = g as u64;
        let root = tr.open("graphhd.stages", None, request);
        let span = tr.open("graphcore.rank", Some(root), request);
        let ranks = black_box(pagerank_ranks(graph, &config.pagerank));
        tr.close(span);
        let span = tr.open("hdvec.basis", Some(root), request);
        let basis: Vec<Hypervector> = ranks
            .iter()
            .map(|&r| memory.hypervector(u64::from(r)))
            .collect();
        tr.close(span);
        let edge_count = graph.edge_count();
        while edges_hv.len() < edge_count {
            edges_hv.push(Hypervector::positive(config.dim).map_err(|e| format!("{e}"))?);
        }
        let span = tr.open("hdvec.bind", Some(root), request);
        for (edge, (u, v)) in edges_hv.iter_mut().zip(graph.edges()) {
            edge.clone_from(&basis[u as usize]);
            edge.bind_assign(&basis[v as usize]);
        }
        tr.close(span);
        let span = tr.open("hdvec.bundle", Some(root), request);
        let mut acc = BitSliceAccumulator::new(config.dim).map_err(|e| format!("{e}"))?;
        for edge in &edges_hv[..edge_count] {
            acc.add(edge);
        }
        black_box(&acc);
        tr.close(span);
        tr.close(root);
        vertices += graph.vertex_count() as u64;
        edges += edge_count as u64;
    }
    let n = graphs.len() as u64;
    let encode = tr.total_ns("graphhd.encode");
    let rank = tr.total_ns("graphcore.rank");
    let basis = tr.total_ns("hdvec.basis");
    let bind = tr.total_ns("hdvec.bind");
    let bundle = tr.total_ns("hdvec.bundle");
    let stages = rank + basis + bind + bundle;
    out.metric("graphcore.rank_ns", mean(rank, n), "ns");
    out.metric("graphcore.vertices", mean(vertices, n), "count");
    out.metric("graphcore.edges", mean(edges, n), "count");
    out.metric("hdvec.basis_ns", mean(basis, vertices), "ns");
    out.metric("hdvec.bind_ns", mean(bind, edges), "ns");
    out.metric("hdvec.bundle_ns", mean(bundle, edges), "ns");
    out.metric("graphhd.encode_ns", mean(encode, n), "ns");
    out.metric(
        "graphhd.encode_residual_ns",
        (encode as f64 - stages as f64) / n as f64,
        "ns",
    );
    out.metric(
        "graphhd.stage_coverage",
        stages as f64 / encode.max(1) as f64,
        "ratio",
    );

    // Scoring: one query per test graph against the trained classes.
    let classes = ClassMemory::from_vectors(s.model.class_vectors()).map_err(|e| format!("{e}"))?;
    let queries: Vec<Hypervector> = s.data.test.iter().map(|g| s.encoder.encode(g)).collect();
    let mut scores = Vec::new();
    let span = tr.open("hdvec.score", None, 0);
    for query in &queries {
        classes.cosine_many_into(query, &mut scores);
        black_box(&scores);
    }
    let score = tr.close(span);
    out.metric("hdvec.score_ns", mean(score, queries.len() as u64), "ns");
    Ok(())
}

/// Fit and predict on the one-worker pool, fits at two workers, and
/// the two-worker pool's busy share and steals.
fn fit_and_predict(
    s: &Setup,
    expected: &[u32],
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let data = &s.data;
    let encode_ns = mean(
        tr.total_ns("graphhd.encode"),
        tr.durations("graphhd.encode").len() as u64,
    );
    let two = setup::encoder(2)?;
    let (mut one_ns, mut two_ns) = (Vec::new(), Vec::new());
    let (mut busy, mut wall, mut steals) = (0u64, 0u64, 0u64);
    for round in 0..SCALING_ROUNDS {
        let span = tr.open("graphhd.fit", None, 1);
        let one_model = setup::fit(&s.encoder, data)?;
        one_ns.push(tr.close(span));
        let before = two.pool().stats();
        let span = tr.open("graphhd.fit", None, 2);
        let two_model = setup::fit(&two, data)?;
        let took = tr.close(span);
        let after = two.pool().stats();
        two_ns.push(took);
        out.attempted += 2;
        out.check(
            one_model.class_vectors() == two_model.class_vectors()
                && one_model.class_vectors() == s.model.class_vectors(),
            format!("fit round {round}: class vectors differ between pools or rounds"),
        );
        wall += took * after.workers.len() as u64;
        busy += after
            .workers
            .iter()
            .zip(&before.workers)
            .map(|(a, b)| a.busy_ns - b.busy_ns)
            .sum::<u64>();
        steals += after.steals - before.steals;
    }
    let one = quantile_u64(&one_ns, 0.5);
    let per_graph = one / data.train.len() as f64;
    out.metric("graphhd.fit_overhead_ns", per_graph - encode_ns, "ns");
    out.metric(
        "parallel.fit_scaling",
        one / quantile_u64(&two_ns, 0.5),
        "ratio",
    );
    out.metric(
        "parallel.busy_share",
        busy as f64 / wall.max(1) as f64,
        "ratio",
    );
    out.metric(
        "parallel.steals",
        steals as f64 / SCALING_ROUNDS as f64,
        "count",
    );

    let span = tr.open("graphhd.predict", None, 1);
    let predictions = s.model.predict_batch(&data.test);
    let took = tr.close(span);
    out.attempted += 1;
    out.check(
        predictions == expected,
        "predict_batch differs from the one-worker reference",
    );
    out.metric(
        "graphhd.predict_overhead_ns",
        took as f64 / data.test.len() as f64 - encode_ns,
        "ns",
    );
    Ok(())
}

/// `Engine::classify` from one caller, no socket.
fn engine_in_process(s: &Setup, expected: &[u32], tr: &mut Tracer, out: &mut Outcome) {
    let test = &s.data.test;
    for i in 0..ENGINE_CALLS {
        let index = i % test.len();
        let span = tr.open("engine.classify", None, index as u64);
        let answer = s.engine.classify(&test[index]);
        tr.close(span);
        out.attempted += 1;
        match answer {
            Ok(class) => out.check(
                class == expected[index],
                format!("Engine::classify of test graph {index}"),
            ),
            Err(_) => out.failed += 1,
        }
    }
    let calls = tr.durations("engine.classify");
    out.metric("engine.classify_p50_ns", quantile_u64(&calls, 0.5), "ns");
}

/// The wire codec on in-memory single and batch frames.
fn wire_codec(
    data: &Data,
    expected: &[u32],
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let frames = serve::frames(&data.test, expected, serve::BATCH);
    for i in 0..CODEC_FRAMES {
        let index = i % data.test.len();
        let single = Request::Classify {
            model: MODEL.to_string(),
            deadline: None,
            graph: data.test[index].clone(),
        };
        let (graphs, classes) = &frames[i % frames.len()];
        let batch = Request::ClassifyBatch {
            model: MODEL.to_string(),
            deadline: None,
            graphs: graphs.clone(),
        };
        let single_spans = [
            "netserve.encode_request",
            "netserve.decode",
            "netserve.encode_response",
        ];
        let batch_spans = [
            "netserve.encode_request_batch",
            "netserve.decode_batch",
            "netserve.encode_response_batch",
        ];
        for (request, response, [encode_request, decode, encode_response]) in [
            (single, Response::Class(expected[index]), single_spans),
            (batch, Response::Classes(classes.clone()), batch_spans),
        ] {
            let span = tr.open(encode_request, None, i as u64);
            let bytes = black_box(wire::encode_request(&request));
            tr.close(span);
            let span = tr.open(decode, None, i as u64);
            let decoded = wire::read_request(&mut bytes.as_slice());
            tr.close(span);
            let span = tr.open(encode_response, None, i as u64);
            black_box(wire::encode_response(&response));
            tr.close(span);
            out.check(
                matches!(decoded, Ok(Some(ref r)) if *r == request),
                format!("wire round trip of frame {i} ({decode})"),
            );
        }
    }
    let p50 = |name: &str| quantile_u64(&tr.durations(name), 0.5);
    out.metric("netserve.decode_ns", p50("netserve.decode"), "ns");
    out.metric(
        "netserve.decode_batch_ns",
        p50("netserve.decode_batch"),
        "ns",
    );
    out.metric(
        "netserve.encode_ns",
        p50("netserve.encode_request") + p50("netserve.encode_response"),
        "ns",
    );
    out.metric(
        "netserve.encode_batch_ns",
        p50("netserve.encode_request_batch") + p50("netserve.encode_response_batch"),
        "ns",
    );
    Ok(())
}

/// Runs the open loop until the generator keeps to its schedule.
fn valid_open_loop(
    s: &Setup,
    expected: &[u32],
    rate: f64,
    duration: Duration,
    epoch: Instant,
    trace: bool,
) -> Result<serve::OpenLoop, String> {
    let addr = s.server.local_addr();
    let mut last = String::new();
    for _ in 0..OPEN_LOOP_ATTEMPTS {
        let run = serve::open_loop(addr, &s.data.test, expected, rate, duration, epoch, trace)?;
        let p50 = quantile_u64(&run.latency_ns, 0.5);
        let late = quantile_u64(&run.late_ns, 0.5);
        if late <= MAX_LATE_SHARE * p50 {
            return Ok(run);
        }
        last = format!("generator median lateness {late:.0} ns against p50 {p50:.0} ns");
        eprintln!("hdbench: open loop invalid ({last}); repeating it");
    }
    Err(format!("open loop invalid: {last}"))
}

/// The serving phases, split between engine and socket.
fn serving(
    args: &Args,
    s: &Setup,
    expected: &[u32],
    epoch: Instant,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let single_for = Duration::from_secs_f64(args.seconds * OPEN_LOOP_SHARE);
    let batch_for = Duration::from_secs_f64(args.seconds * BATCH_SHARE);
    let engine_before = s.engine.stats();
    let net_before = s
        .server
        .registry()
        .net_latency(MODEL)
        .ok_or("served model missing from the registry")?;
    let single = valid_open_loop(
        s,
        expected,
        args.workload.rate_per_s,
        single_for,
        epoch,
        true,
    )?;
    let engine_mid = s.engine.stats();
    let net_after = s.server.registry().net_latency(MODEL).unwrap_or_default();

    let frames = serve::frames(&s.data.test, expected, serve::BATCH);
    let batch = serve::closed_loop(s.server.local_addr(), &frames, 0, batch_for, 3, epoch, true)?;
    let engine_after = s.engine.stats();

    out.attempted += single.attempted + batch.attempted;
    out.failed += single.failed + batch.failed;
    out.check(
        single.mismatched + batch.mismatched == 0,
        "served answers differ from GraphHdModel::predict",
    );
    for tracer in single.tracers {
        tr.absorb(tracer);
    }
    for tracer in batch.tracers {
        tr.absorb(tracer);
    }

    let queue = engine_mid.queue_wait_ns.since(&engine_before.queue_wait_ns);
    let dispatch = engine_mid.dispatch_ns.since(&engine_before.dispatch_ns);
    let batch_size = engine_mid.batch_size.since(&engine_before.batch_size);
    let request = engine_mid.request_ns.since(&engine_before.request_ns);
    let net = net_after.since(&net_before);
    out.metric("engine.queue_wait_p50_ns", queue.p50() as f64, "ns");
    out.metric("engine.dispatch_p50_ns", dispatch.p50() as f64, "ns");
    out.metric("engine.batch_size_mean", batch_size.mean(), "count");
    let batch_dispatch = engine_after.dispatch_ns.since(&engine_mid.dispatch_ns);
    let batch_graphs = engine_after.batch_size.since(&engine_mid.batch_size);
    out.metric(
        "engine.dispatch_ns_per_graph",
        batch_dispatch.sum as f64 / batch_graphs.sum.max(1) as f64,
        "ns",
    );
    let round_trip = quantile_u64(&single.round_trip_ns, 0.5);
    out.metric("netserve.net_request_p50_ns", net.p50() as f64, "ns");
    out.metric(
        "netserve.socket_tax_ns",
        round_trip - request.p50() as f64,
        "ns",
    );
    let stats = s.server.stats();
    out.metric("netserve.frames_in", stats.frames_in as f64, "count");
    out.metric(
        "netserve.decode_errors",
        stats.decode_errors as f64,
        "count",
    );
    out.metric(
        "serve.p99_us",
        quantile_u64(&single.latency_ns, 0.99) / 1e3,
        "us",
    );
    out.metric(
        "generator.late_p50_us",
        quantile_u64(&single.late_ns, 0.5) / 1e3,
        "us",
    );
    out.metric(
        "generator.late_p99_us",
        quantile_u64(&single.late_ns, 0.99) / 1e3,
        "us",
    );
    eprintln!(
        "hdbench: traced serving: {} requests ({} sent behind schedule; p50 {:.1} us from due, \
         round trip {:.1} us), {} frames ({:.1} ms p50)",
        single.latency_ns.len(),
        single.behind,
        quantile_u64(&single.latency_ns, 0.5) / 1e3,
        round_trip / 1e3,
        batch.frame_ns.len(),
        quantile_u64(&batch.frame_ns, 0.5) / 1e6,
    );
    Ok(())
}
