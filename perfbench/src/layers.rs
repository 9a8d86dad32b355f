//! The traced run: end-to-end traffic twice (untraced, then with spans, so
//! the difference is the tracing overhead) followed by timed calls into each
//! layer's public functions on the workload's own dataset and request shape.
//! Every call is recorded as a span; the per-layer metrics are summaries of
//! those spans plus counts read from the layers and from `Stats`.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use eclipse_core::algo::SkylineBackend;
use eclipse_core::index::{IntersectionIndexKind, ProbeScratch};
use eclipse_core::{EclipseEngine, ExecutionContext, Point, QueryOptions, WeightRatioBox};
use eclipse_router::router::{Router, RouterConfig, RouterHandle};
use eclipse_serve::protocol::{Request, Response, StatsReport};
use eclipse_serve::Client;

use crate::inputs::{self, Mutation};
use crate::report::Report;
use crate::rng::Rng;
use crate::spans::Tracer;
use crate::stats::{self, Samples};
use crate::workloads::{self, Deployment, Inputs, Measurement, Op};

/// The per-layer metrics of a traced run, as listed in `BENCHMARK.json`.
pub const PER_LAYER: [&str; 45] = [
    "geom.traverse_us",
    "geom.candidates_per_probe",
    "geom.nodes",
    "geom.depth",
    "index.query_us",
    "index.count_us",
    "index.replay_us",
    "index.hits_per_candidate",
    "index.build_s",
    "index.heap_bytes",
    "skyline.size",
    "skyline.s",
    "engine.batch_us",
    "index.batch_us",
    "engine.self_us",
    "exec.fanout_speedup",
    "engine.insert_p50_us",
    "engine.insert_p99_us",
    "engine.delete_p50_us",
    "engine.delete_p99_us",
    "engine.outcomes.deleted_non_skyline",
    "engine.outcomes.deleted_skyline",
    "engine.outcomes.inserted_dominated",
    "engine.outcomes.inserted_skyline",
    "persist.save_s",
    "persist.restore_s",
    "persist.snapshot_bytes",
    "serve.codec_us",
    "serve.frame_bytes",
    "serve.ping_p50_us",
    "serve.ping_p99_us",
    "serve.errors",
    "serve.timeouts",
    "serve.rejected",
    "serve.in_flight_max",
    "persist.evictions",
    "persist.reloads",
    "persist.reloads_per_probe",
    "serve.request_us",
    "serve.overhead_us",
    "router.hop_us",
    "router.retries",
    "router.failovers",
    "trace.overhead_us",
    "trace.spans",
];

/// Time allowed to each layer's timed loop.
const LAYER_BUDGET: Duration = Duration::from_millis(1500);

/// Runs `f(i)` for `i = 0, 1, ...` until `max` calls or the time budget
/// (always at least `min` calls).
fn timed_loop(budget: Duration, min: usize, max: usize, mut f: impl FnMut(usize)) -> usize {
    let end = Instant::now() + budget;
    let mut i = 0;
    while i < max && (i < min || Instant::now() < end) {
        f(i);
        i += 1;
    }
    i
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median of `name`'s span durations (µs).
fn span_p50(tracer: &Tracer, name: &str) -> (f64, usize) {
    tracer
        .by_name()
        .get(name)
        .map_or((f64::NAN, 0), |(d, _)| (d.median(), d.len()))
}

pub fn traced_run(
    inputs: &Inputs,
    dep: &Deployment,
    window: Duration,
    report: &mut Report,
) -> Result<Tracer, String> {
    let mut tracer = Tracer::new(Instant::now());
    let half = (window / 2).max(Duration::from_secs(1));
    let retry_before = dep
        .router
        .as_ref()
        .map(RouterHandle::retry_budget_available);
    let stats_before = workloads::stats(dep.entry)?;

    // End to end, untraced then traced.
    let untraced = workloads::measure(inputs, dep, 1, half, None)?;
    let traced = workloads::measure(inputs, dep, 2, half, Some(&mut tracer))?;
    report.absorb(&untraced);
    report.absorb(&traced);
    report.info_block(&untraced);
    let stats_after = workloads::stats(dep.entry)?;
    let served_p50 = p50_of_windows(&untraced, Op::Query);
    let traced_p50 = p50_of_windows(&traced, Op::Query);
    report.note(format!(
        "info served query p50: untraced {served_p50} us, traced {traced_p50} us"
    ));
    for (name, (dur, own)) in tracer.by_name() {
        report.note(format!(
            "span {name}: {} spans, p50 {} us, self p50 {} us",
            dur.len(),
            dur.median(),
            own.median()
        ));
    }

    let spec = &inputs.spec;
    let reference = &inputs.references[0];
    let ctx = reference.execution_context().clone();
    let index = reference
        .build_index(IntersectionIndexKind::Quadtree)
        .map_err(|e| format!("reference index: {e}"))?;
    let batches: Vec<&[WeightRatioBox]> = inputs.probes.chunks(spec.batch).collect();

    // eclipse-geom and the eclipse-core index: one span per call, grouped
    // under a per-probe root.
    let mut scratch = ProbeScratch::new();
    let mut candidates = 0usize;
    let mut hits = 0usize;
    let probes = timed_loop(LAYER_BUDGET, 16, inputs.probes.len(), |i| {
        let b = &inputs.probes[i];
        let root = tracer.open("layer.probe", i as u64, None);
        candidates += tracer.time("geom.traverse", i as u64, Some(root), || {
            index.intersections_crossing(b).expect("valid probe")
        });
        hits += tracer.time("index.query", i as u64, Some(root), || {
            index
                .query_with_scratch(b, &mut scratch)
                .expect("valid probe")
                .len()
        });
        tracer.time("index.count", i as u64, Some(root), || {
            index
                .count_with_scratch(b, &mut scratch)
                .expect("valid probe")
        });
        tracer.close(root);
    });
    let (traverse, _) = span_p50(&tracer, "geom.traverse");
    let (query, _) = span_p50(&tracer, "index.query");
    let (count, _) = span_p50(&tracer, "index.count");
    let basis = |what: &str| format!("p50 of {probes} calls to {what}");
    report.metric(
        "geom.traverse_us",
        traverse,
        "us",
        basis("EclipseIndex::intersections_crossing"),
    );
    report.metric_count(
        "geom.candidates_per_probe",
        candidates as f64 / probes as f64,
        format!("mean over {probes} probes"),
    );
    report.metric_count(
        "geom.nodes",
        index.backend_nodes() as f64,
        "EclipseIndex::backend_nodes".into(),
    );
    report.metric_count(
        "geom.depth",
        index.backend_depth() as f64,
        "EclipseIndex::backend_depth".into(),
    );
    report.metric(
        "index.query_us",
        query,
        "us",
        basis("EclipseIndex::query_with_scratch"),
    );
    report.metric(
        "index.count_us",
        count,
        "us",
        basis("EclipseIndex::count_with_scratch"),
    );
    report.metric(
        "index.replay_us",
        query - traverse,
        "us",
        "index.query_us - geom.traverse_us".into(),
    );
    report.metric(
        "index.hits_per_candidate",
        hits as f64 / candidates.max(1) as f64,
        "ratio",
        format!("{hits} results over {candidates} candidate hyperplanes"),
    );

    // Set-up work on fresh engines: skyline and index construction.
    let mut skyline_s = Vec::new();
    let mut build_s = Vec::new();
    let mut skyline_len = 0;
    let points = &inputs.datasets[0].points;
    timed_loop(LAYER_BUDGET, 1, 5, |i| {
        let fresh = fresh_engine(points, &ctx);
        let start = Instant::now();
        skyline_len = tracer.time("skyline.compute", i as u64, None, || {
            fresh.skyline_with(SkylineBackend::Auto).len()
        });
        skyline_s.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        tracer.time("index.build", i as u64, None, || {
            fresh
                .build_index(IntersectionIndexKind::Quadtree)
                .expect("index builds")
        });
        build_s.push(start.elapsed().as_secs_f64());
    });
    report.metric(
        "index.build_s",
        stats::median(&build_s),
        "s",
        format!(
            "median of {} EclipseEngine::build_index on fresh engines",
            build_s.len()
        ),
    );
    report.metric(
        "index.heap_bytes",
        index.heap_bytes() as f64,
        "B",
        "EclipseIndex::heap_bytes".into(),
    );
    report.metric_count(
        "skyline.size",
        skyline_len as f64,
        "skyline_with(Auto).len()".into(),
    );
    report.metric(
        "skyline.s",
        stats::median(&skyline_s),
        "s",
        format!(
            "median of {} EclipseEngine::skyline_with(Auto) on fresh engines",
            skyline_s.len()
        ),
    );

    // The engine's batch path at the workload's request shape, the index's
    // batch path beneath it (pool fan-out included), and the same probes
    // one at a time.
    let options = QueryOptions::default();
    let mut engine_self = Samples::new();
    let mut speedup = Vec::new();
    let calls = timed_loop(LAYER_BUDGET, 8, batches.len(), |i| {
        let batch = batches[i];
        let start = Instant::now();
        tracer.time("engine.batch", i as u64, None, || {
            reference
                .eclipse_query_batch(batch, &options)
                .expect("valid batch")
        });
        let batch_us = us(start.elapsed());
        let start = Instant::now();
        tracer.time("index.batch", i as u64, None, || {
            index.query_batch(batch, &ctx).expect("valid batch")
        });
        let fanned_us = us(start.elapsed());
        let root = tracer.open("layer.batch_probes", i as u64, None);
        let start = Instant::now();
        for b in batch {
            tracer.time("index.batch_probe", i as u64, Some(root), || {
                index
                    .query_with_scratch(b, &mut scratch)
                    .expect("valid probe")
                    .len()
            });
        }
        let singles_us = us(start.elapsed());
        tracer.close(root);
        engine_self.push(batch_us - fanned_us);
        speedup.push(singles_us / fanned_us);
    });
    let (batch_p50, _) = span_p50(&tracer, "engine.batch");
    let (index_batch_p50, _) = span_p50(&tracer, "index.batch");
    report.metric(
        "engine.batch_us",
        batch_p50,
        "us",
        format!(
            "p50 of {calls} EclipseEngine::eclipse_query_batch calls of {} probes",
            spec.batch
        ),
    );
    report.metric(
        "index.batch_us",
        index_batch_p50,
        "us",
        format!(
            "p50 of {calls} EclipseIndex::query_batch calls of {} probes",
            spec.batch
        ),
    );
    report.metric(
        "engine.self_us",
        engine_self.median(),
        "us",
        "p50 over batches of eclipse_query_batch minus EclipseIndex::query_batch on the same batch"
            .into(),
    );
    report.metric(
        "exec.fanout_speedup",
        stats::median(&speedup),
        "ratio",
        format!(
            "median over {calls} batches of summed single probes / EclipseIndex::query_batch \
             ({} probes, {} pool threads)",
            spec.batch,
            ctx.threads()
        ),
    );

    // Mutation maintenance on a private copy of the dataset.
    mutations(report, &mut tracer, inputs, &ctx);

    // eclipse-persist: engine snapshots.
    let mut save_s = Vec::new();
    let mut restore_s = Vec::new();
    let mut snapshot_bytes = 0usize;
    timed_loop(LAYER_BUDGET, 1, 5, |i| {
        let start = Instant::now();
        let bytes = tracer.time("persist.save", i as u64, None, || {
            reference
                .save_snapshot("perfbench", IntersectionIndexKind::Quadtree)
                .expect("snapshot encodes")
        });
        save_s.push(start.elapsed().as_secs_f64());
        snapshot_bytes = bytes.len();
        let start = Instant::now();
        tracer.time("persist.restore", i as u64, None, || {
            EclipseEngine::from_snapshot(&bytes).expect("snapshot decodes")
        });
        restore_s.push(start.elapsed().as_secs_f64());
    });
    report.metric(
        "persist.save_s",
        stats::median(&save_s),
        "s",
        format!("median of {} EclipseEngine::save_snapshot", save_s.len()),
    );
    report.metric(
        "persist.restore_s",
        stats::median(&restore_s),
        "s",
        format!("median of {} EclipseEngine::from_snapshot", restore_s.len()),
    );
    report.metric(
        "persist.snapshot_bytes",
        snapshot_bytes as f64,
        "B",
        "length of one engine snapshot".into(),
    );

    // eclipse-serve: codec on the workload's real messages, transport.
    let codec = codec(&mut tracer, inputs);
    report.metric(
        "serve.codec_us",
        codec.0,
        "us",
        format!(
            "p50 over {} messages of Request+Response encode and decode",
            codec.2
        ),
    );
    report.metric(
        "serve.frame_bytes",
        codec.1,
        "B",
        "median request plus response frame bytes".into(),
    );
    let direct = owner(dep, inputs);
    let pings = ping(&mut tracer, direct)?;
    report.metric(
        "serve.ping_p50_us",
        pings.median(),
        "us",
        format!("p50 of {} Client::ping", pings.len()),
    );
    let (p, tail) = pings.tail().unwrap_or((f64::NAN, f64::NAN));
    report.metric(
        "serve.ping_p99_us",
        tail,
        "us",
        format!("p{p} of {} Client::ping", pings.len()),
    );
    let samples: Vec<&StatsReport> = untraced.stats.iter().chain(&traced.stats).collect();
    let in_flight_max = samples
        .iter()
        .map(|s| {
            s.in_flight
                .max(u64::from(s.conn_queue_depths.first().copied().unwrap_or(0)))
        })
        .max()
        .unwrap_or(0);
    let delta =
        |f: fn(&StatsReport) -> u64| f(&stats_after).saturating_sub(f(&stats_before)) as f64;
    report.metric_count(
        "serve.errors",
        delta(|s| s.errors),
        "Stats.errors during the traced run".into(),
    );
    report.metric_count(
        "serve.timeouts",
        delta(|s| s.timeouts),
        "Stats.timeouts during the traced run".into(),
    );
    report.metric_count(
        "serve.rejected",
        delta(|s| s.rejected),
        "Stats.rejected during the traced run".into(),
    );
    report.metric_count(
        "serve.in_flight_max",
        in_flight_max as f64,
        format!(
            "largest in-flight count over {} Stats samples",
            samples.len()
        ),
    );
    let probes_served = delta(|s| s.probes).max(1.0);
    let reloads = delta(|s| s.reloads);
    report.metric_count(
        "persist.evictions",
        delta(|s| s.evictions),
        "Stats.evictions during the traced run".into(),
    );
    report.metric_count(
        "persist.reloads",
        reloads,
        "Stats.reloads during the traced run".into(),
    );
    report.metric(
        "persist.reloads_per_probe",
        reloads / probes_served,
        "ratio",
        format!("reloads over {probes_served} probes served"),
    );

    // One request at a time, at the workload's request shape, straight to
    // the owning server and through a router: the served request without
    // load, and the router hop.
    let temporary = match &dep.router {
        Some(_) => None,
        None => Some(
            Router::bind("127.0.0.1:0", RouterConfig::new([direct.to_string()]))
                .and_then(Router::spawn)
                .map_err(|e| format!("router: {e}"))?,
        ),
    };
    let router = dep
        .router
        .as_ref()
        .or(temporary.as_ref())
        .expect("a router");
    let (direct_us, routed_us) = served_requests(&mut tracer, inputs, router.addr(), direct)?;
    let request_p50 = direct_us.median();
    report.metric(
        "serve.request_us",
        request_p50,
        "us",
        format!(
            "p50 of {} QueryBatch requests sent one at a time to the owning server",
            direct_us.len()
        ),
    );
    let overhead = request_p50 - batch_p50 - codec.0;
    report.metric(
        "serve.overhead_us",
        overhead,
        "us",
        "serve.request_us - engine.batch_us - serve.codec_us".into(),
    );
    report.metric(
        "router.hop_us",
        routed_us.median() - request_p50,
        "us",
        format!(
            "p50 of {} routed requests minus serve.request_us, alternating",
            routed_us.len()
        ),
    );
    let retries = match (retry_before, &dep.router) {
        (Some(before), Some(r)) => before.saturating_sub(r.retry_budget_available()) as f64,
        _ => 0.0,
    };
    report.metric_count(
        "router.retries",
        retries,
        "retry-budget tokens spent net of refills during the run (0 without a router)".into(),
    );
    report.metric_count(
        "router.failovers",
        router.failovers().len() as f64,
        "RouterHandle::failovers".into(),
    );
    if let Some(r) = temporary {
        r.shutdown();
    }

    report.metric(
        "trace.overhead_us",
        traced_p50 - served_p50,
        "us",
        "traced minus untraced served query p50".into(),
    );
    // Where one unloaded request's time goes, layer by layer: the index's
    // batch path split into traversal and replay by their per-probe shares.
    let traverse_share = (traverse / query).clamp(0.0, 1.0);
    let split = [
        ("serve.overhead_us", overhead),
        ("serve.codec_us", codec.0),
        ("engine.self_us", engine_self.median()),
        ("index.replay", index_batch_p50 * (1.0 - traverse_share)),
        ("geom.traverse", index_batch_p50 * traverse_share),
    ];
    let largest = split
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("none", |s| s.0);
    report.note(format!(
        "info self-time split of one unloaded request of {} probes (us): {split:?}; largest: {largest}",
        spec.batch
    ));
    let spans = tracer.spans().len() as f64;
    report.metric_count("trace.spans", spans, "spans recorded by this run".into());
    Ok(tracer)
}

/// The p50 of a measured phase's query latency: the median of the
/// per-window p50s.
fn p50_of_windows(m: &Measurement, op: Op) -> f64 {
    let per_window: Vec<f64> = m.windows.iter().map(|w| w.op(op).median()).collect();
    stats::median(&per_window)
}

fn fresh_engine(points: &[Point], ctx: &ExecutionContext) -> EclipseEngine {
    EclipseEngine::new(points.to_vec())
        .expect("generated datasets are valid")
        .with_execution_context(ctx.clone())
}

/// The server that owns the workload's first dataset.
fn owner(dep: &Deployment, inputs: &Inputs) -> SocketAddr {
    if dep.servers.len() == 1 {
        return dep.servers[0].addr();
    }
    let slot =
        eclipse_persist::fnv1a(inputs.datasets[0].name.as_bytes()) % dep.servers.len() as u64;
    dep.servers[slot as usize].addr()
}

/// Insert/delete maintenance on a private copy of the workload's first
/// dataset, with a seeded mix of all four mutation outcomes.
fn mutations(report: &mut Report, tracer: &mut Tracer, inputs: &Inputs, ctx: &ExecutionContext) {
    let points = &inputs.datasets[0].points;
    let engine = fresh_engine(points, ctx);
    engine
        .build_index(IntersectionIndexKind::Quadtree)
        .expect("index builds");
    let schedule = inputs::mutation_schedule(
        points,
        &engine.skyline(),
        256,
        &mut Rng::derive(inputs.seed, inputs::SALT_LAYERS),
    );
    let mut insert = Samples::new();
    let mut delete = Samples::new();
    let mut outcomes: BTreeMap<&'static str, f64> = [
        "inserted_dominated",
        "inserted_skyline",
        "deleted_non_skyline",
        "deleted_skyline",
    ]
    .into_iter()
    .map(|k| (k, 0.0))
    .collect();
    timed_loop(LAYER_BUDGET * 2, 4, schedule.len(), |i| {
        let start = Instant::now();
        let summary = match &schedule[i] {
            Mutation::Insert(c) => tracer.time("engine.insert", i as u64, None, || {
                engine.insert(Point::from_slice(c))
            }),
            Mutation::Delete(id) => tracer.time("engine.delete", i as u64, None, || {
                engine.delete(*id as usize)
            }),
        }
        .expect("generated mutations apply");
        let took = us(start.elapsed());
        match schedule[i] {
            Mutation::Insert(_) => insert.push(took),
            Mutation::Delete(_) => delete.push(took),
        }
        let key = match summary.outcome {
            eclipse_core::MutationOutcome::InsertedDominated => "inserted_dominated",
            eclipse_core::MutationOutcome::InsertedSkyline => "inserted_skyline",
            eclipse_core::MutationOutcome::DeletedNonSkyline => "deleted_non_skyline",
            eclipse_core::MutationOutcome::DeletedSkyline => "deleted_skyline",
        };
        *outcomes.get_mut(key).expect("known outcome") += 1.0;
    });
    for (name, samples) in [("engine.insert", &insert), ("engine.delete", &delete)] {
        report.metric(
            &format!("{name}_p50_us"),
            samples.median(),
            "us",
            format!("p50 of {} EclipseEngine::{}", samples.len(), &name[7..]),
        );
        // Few calls fit in the budget on large datasets: below p90 the
        // tail is the slowest call.
        let (p, tail) = samples
            .tail()
            .filter(|&(p, _)| p >= 90.0)
            .unwrap_or((100.0, samples.percentile(100.0)));
        report.metric(
            &format!("{name}_p99_us"),
            tail,
            "us",
            format!("p{p} of {} EclipseEngine::{}", samples.len(), &name[7..]),
        );
    }
    for (key, n) in outcomes {
        report.metric_count(
            &format!("engine.outcomes.{key}"),
            n,
            "MutationOutcome of the calls above".into(),
        );
    }
}

/// Encodes and decodes the workload's read requests and their replies;
/// returns (p50 µs per message, median frame bytes, messages).
fn codec(tracer: &mut Tracer, inputs: &Inputs) -> (f64, f64, usize) {
    let reads: Vec<usize> = (0..inputs.ops.len())
        .filter(|&i| inputs.ops[i] != Op::Stats)
        .collect();
    let mut frames = Samples::new();
    let messages = timed_loop(LAYER_BUDGET / 2, 16, reads.len().min(4096), |k| {
        let i = reads[k];
        let reply = &inputs.expected[i];
        let root = tracer.open("serve.codec", k as u64, None);
        let request = tracer.time("codec.request.decode", k as u64, Some(root), || {
            Request::decode(&inputs.bodies[i]).expect("generated requests decode")
        });
        tracer.time("codec.request.encode", k as u64, Some(root), || {
            request.encode()
        });
        let response = tracer.time("codec.response.decode", k as u64, Some(root), || {
            Response::decode(reply).expect("expected replies decode")
        });
        tracer.time("codec.response.encode", k as u64, Some(root), || {
            response.encode()
        });
        tracer.close(root);
        // Length prefix and v2 header on both frames.
        frames.push((inputs.bodies[i].len() + reply.len() + 2 * (4 + 12)) as f64);
    });
    let (p50, _) = span_p50(tracer, "serve.codec");
    (p50, frames.median(), messages)
}

/// Blocking pings against one server.
fn ping(tracer: &mut Tracer, addr: SocketAddr) -> Result<Samples, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut samples = Samples::new();
    let mut error = None;
    timed_loop(LAYER_BUDGET / 2, 1100, 20_000, |i| {
        let start = Instant::now();
        if let Err(e) = tracer.time("serve.ping", i as u64, None, || client.ping()) {
            error = Some(e.to_string());
        }
        samples.push(us(start.elapsed()));
    });
    match error {
        Some(e) => Err(format!("ping: {e}")),
        None => Ok(samples),
    }
}

/// The workload's query batches sent one at a time, alternating between
/// the backend that owns the dataset and the router; returns the direct and
/// routed latencies (µs).
fn served_requests(
    tracer: &mut Tracer,
    inputs: &Inputs,
    routed: SocketAddr,
    direct: SocketAddr,
) -> Result<(Samples, Samples), String> {
    let name = &inputs.datasets[0].name;
    let mut via_router = Client::connect(routed).map_err(|e| format!("connect router: {e}"))?;
    let mut to_backend = Client::connect(direct).map_err(|e| format!("connect backend: {e}"))?;
    let batches: Vec<&[WeightRatioBox]> = inputs.probes.chunks(inputs.spec.batch).collect();
    let mut routed_us = Samples::new();
    let mut direct_us = Samples::new();
    let mut error = None;
    timed_loop(LAYER_BUDGET, 32, 5000, |i| {
        let batch = batches[i % batches.len()];
        for (client, samples, span) in [
            (&mut to_backend, &mut direct_us, "serve.request"),
            (&mut via_router, &mut routed_us, "router.request"),
        ] {
            let start = Instant::now();
            if let Err(e) = tracer.time(span, i as u64, None, || client.query_batch(name, batch)) {
                error = Some(e.to_string());
            }
            samples.push(us(start.elapsed()));
        }
    });
    match error {
        Some(e) => Err(format!("served requests: {e}")),
        None => Ok((direct_us, routed_us)),
    }
}
