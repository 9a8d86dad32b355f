//! The two workloads: what each deploys, generates, sends and checks.
//! Both run one dataset family, INDE, against in-process servers (and, for
//! `routed-evict`, an in-process router) on loopback TCP, from one process
//! with [`CLIENTS`] blocking clients in closed loop, one thread and one
//! connection each.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use eclipse_core::{EclipseEngine, ExecutionContext, Point, QueryOptions, WeightRatioBox};
use eclipse_router::router::{Router, RouterConfig, RouterHandle};
use eclipse_serve::protocol::{IndexKind, Request, Response, StatsReport};
use eclipse_serve::server::{Server, ServerConfig, ServerHandle};
use eclipse_serve::Client;

use crate::check::{self, Failure, Verdict};
use crate::drive;
use crate::inputs;
use crate::rng::Rng;
use crate::spans::Tracer;
use crate::stats::{self, Samples};
use crate::wire;

/// How often a run samples `Stats` on its first load connection.
const STATS_PER_S: f64 = 4.0;

/// Load clients: `nproc` on the reference host.
pub const CLIENTS: usize = 2;

/// Requests per traced phase whose spans are kept: every k-th request is
/// traced so memory and the span dump stay bounded at high rates.
const TRACED_REQUESTS: usize = 20_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    HeavyBatch,
    RoutedEvict,
}

impl Kind {
    pub const ALL: [Kind; 2] = [Kind::HeavyBatch, Kind::RoutedEvict];

    pub fn name(self) -> &'static str {
        match self {
            Kind::HeavyBatch => "heavy-batch",
            Kind::RoutedEvict => "routed-evict",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn spec(self) -> Spec {
        match self {
            Kind::HeavyBatch => Spec {
                kind: self,
                n: 32_768,
                d: 4,
                datasets: 1,
                batch: 16,
                probes: 1024,
                setup_reps: 5,
                warmup: Duration::from_secs(1),
                window_requests: 96,
            },
            Kind::RoutedEvict => Spec {
                kind: self,
                n: 16_384,
                d: 3,
                datasets: 6,
                batch: 1,
                probes: 512,
                setup_reps: 9,
                warmup: Duration::from_secs(2),
                window_requests: 0,
            },
        }
    }
}

/// Everything that defines a workload.
#[derive(Clone, Debug)]
pub struct Spec {
    pub kind: Kind,
    pub n: usize,
    pub d: usize,
    pub datasets: usize,
    /// Probes per read request.
    pub batch: usize,
    /// Distinct probe boxes the requests draw from.
    pub probes: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Traffic before the measured window: lets lazy set-up finish and the
    /// server's loops warm up.
    pub warmup: Duration,
    /// Measured requests per window (see [`Window`]); zero makes the run
    /// one window.
    pub window_requests: usize,
}

impl Spec {
    pub fn routed(&self) -> bool {
        self.kind == Kind::RoutedEvict
    }

    fn batches(&self) -> usize {
        self.probes / self.batch
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Query,
    Count,
    Stats,
}

/// A generated dataset with its name on the server.
pub struct Dataset {
    pub name: String,
    pub points: Vec<Point>,
}

/// The generated inputs of one run plus their reference answers.
pub struct Inputs {
    pub spec: Spec,
    pub seed: u64,
    pub datasets: Vec<Dataset>,
    pub probes: Vec<WeightRatioBox>,
    /// Unevicted, unrouted, in-process reference engines, one per dataset.
    pub references: Vec<EclipseEngine>,
    /// Encoded read requests (then one `Stats`), with their operations and
    /// expected reply bodies (empty for the `Stats`).
    pub bodies: Vec<Vec<u8>>,
    pub ops: Vec<Op>,
    pub expected: Vec<Vec<u8>>,
}

/// Dataset names for the routed workload: three hash to each of the two
/// backends, alternating in popularity rank.
fn routed_names(count: usize) -> Vec<String> {
    let mut per_slot: [Vec<String>; 2] = [Vec::new(), Vec::new()];
    let mut k = 0;
    while per_slot.iter().any(|s| s.len() < count / 2) {
        let name = format!("inde-{k}");
        let slot = (eclipse_persist::fnv1a(name.as_bytes()) % 2) as usize;
        if per_slot[slot].len() < count / 2 {
            per_slot[slot].push(name);
        }
        k += 1;
    }
    (0..count).map(|r| per_slot[r % 2][r / 2].clone()).collect()
}

impl Inputs {
    pub fn generate(spec: Spec, seed: u64, ctx: &ExecutionContext) -> Inputs {
        let names = if spec.datasets == 1 {
            vec!["inde".to_string()]
        } else {
            routed_names(spec.datasets)
        };
        let datasets: Vec<Dataset> = names
            .into_iter()
            .enumerate()
            .map(|(j, name)| Dataset {
                name,
                points: inputs::inde(spec.n, spec.d, inputs::dataset_seed(spec.datasets, j)),
            })
            .collect();
        let probes = inputs::probe_boxes(
            &mut Rng::derive(seed, inputs::SALT_PROBES),
            spec.probes,
            spec.d,
        );
        let references: Vec<EclipseEngine> = datasets
            .iter()
            .map(|ds| {
                EclipseEngine::new(ds.points.clone())
                    .expect("generated datasets are valid")
                    .with_execution_context(ctx.clone())
            })
            .collect();
        let mut bodies = Vec::new();
        let mut ops = Vec::new();
        let mut expected = Vec::new();
        for (j, ds) in datasets.iter().enumerate() {
            for b in 0..spec.batches() {
                let boxes = &probes[b * spec.batch..(b + 1) * spec.batch];
                let results = check::reference_results(&references[j], boxes);
                let q = check::encode_read(&results, false);
                let c = check::encode_read(&results, true);
                for (op, exp) in [(Op::Query, q), (Op::Count, c)] {
                    bodies.push(check::read_request(&ds.name, boxes, op == Op::Count));
                    ops.push(op);
                    expected.push(exp);
                }
            }
        }
        bodies.push(Request::Stats.encode());
        ops.push(Op::Stats);
        expected.push(Vec::new());
        Inputs {
            spec,
            seed,
            datasets,
            probes,
            references,
            bodies,
            ops,
            expected,
        }
    }

    fn read_body(&self, dataset: usize, batch: usize, count: bool) -> u32 {
        (((dataset * self.spec.batches()) + batch) * 2 + usize::from(count)) as u32
    }

    fn stats_body(&self) -> u32 {
        (self.bodies.len() - 1) as u32
    }
}

/// Servers (and router) serving one run.
pub struct Deployment {
    pub servers: Vec<ServerHandle>,
    pub router: Option<RouterHandle>,
    /// Where the load goes: the router if there is one, else the server.
    pub entry: SocketAddr,
}

impl Deployment {
    pub fn shutdown(self) {
        if let Some(router) = self.router {
            router.shutdown();
        }
        for server in self.servers {
            server.shutdown();
        }
    }
}

/// Worker threads per server: the host's cores, split over the backends.
fn server_threads(spec: &Spec, cores: usize) -> usize {
    if spec.routed() {
        (cores / 2).max(1)
    } else {
        cores.max(1)
    }
}

/// Per-backend memory budget of the routed workload: half the accounted
/// bytes of the datasets placed on that backend.
fn backend_budgets(inputs: &Inputs) -> [u64; 2] {
    let mut working_set = [0u64; 2];
    for (ds, reference) in inputs.datasets.iter().zip(&inputs.references) {
        reference
            .build_index(IndexKind::Quadtree.into())
            .expect("reference index builds");
        let slot = (eclipse_persist::fnv1a(ds.name.as_bytes()) % 2) as usize;
        working_set[slot] += reference.heap_bytes() as u64;
    }
    working_set.map(|b| b / 2)
}

/// Deploys a fresh, empty stack and times its set-up: from the empty
/// servers to the first answered probe (dataset load plus index build, and
/// for the routed workload also one snapshot per dataset).
pub fn deploy(inputs: &Inputs, cores: usize, scratch: &Path) -> Result<(Deployment, f64), String> {
    let spec = &inputs.spec;
    let threads = server_threads(spec, cores);
    let backends = if spec.routed() { 2 } else { 1 };
    let budgets = if spec.routed() {
        backend_budgets(inputs).map(Some)
    } else {
        [None, None]
    };
    let mut servers = Vec::new();
    for (b, budget) in budgets.iter().enumerate().take(backends) {
        let config = ServerConfig {
            max_memory_bytes: *budget,
            ..ServerConfig::default()
        };
        let server = Server::bind_with_config(
            "127.0.0.1:0",
            ExecutionContext::with_threads(threads),
            config,
        )
        .map_err(|e| format!("bind server: {e}"))?;
        if spec.routed() {
            let dir = scratch.join(format!("backend-{b}"));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).map_err(|e| format!("snapshot dir: {e}"))?;
            server.set_snapshot_dir(dir);
        }
        servers.push(server.spawn().map_err(|e| format!("spawn server: {e}"))?);
    }
    let router = if spec.routed() {
        let addrs: Vec<String> = servers.iter().map(|s| s.addr().to_string()).collect();
        let router = Router::bind("127.0.0.1:0", RouterConfig::new(addrs))
            .map_err(|e| format!("bind router: {e}"))?;
        Some(router.spawn().map_err(|e| format!("spawn router: {e}"))?)
    } else {
        None
    };
    let entry = router
        .as_ref()
        .map_or(servers[0].addr(), RouterHandle::addr);
    let deployment = Deployment {
        servers,
        router,
        entry,
    };

    let start = Instant::now();
    let mut client = Client::connect(entry).map_err(|e| format!("connect: {e}"))?;
    for ds in &inputs.datasets {
        client
            .load_dataset(&ds.name, &ds.points, IndexKind::Quadtree)
            .map_err(|e| format!("load {}: {e}", ds.name))?;
        if spec.routed() {
            client
                .save_index(&ds.name, IndexKind::Quadtree)
                .map_err(|e| format!("snapshot {}: {e}", ds.name))?;
        }
    }
    let first = client
        .query_batch(&inputs.datasets[0].name, &inputs.probes[..1])
        .map_err(|e| format!("first probe: {e}"))?;
    let setup_s = start.elapsed().as_secs_f64();
    let expected = inputs.references[0]
        .eclipse_query_batch(&inputs.probes[..1], &QueryOptions::default())
        .expect("valid probe");
    if first != expected {
        return Err(format!(
            "first probe answered {first:?}, reference {expected:?}"
        ));
    }
    Ok((deployment, setup_s))
}

/// Status codes stored per request.
const OK: u8 = 0;
const WRONG: u8 = 255;

fn failure_code(f: Failure) -> u8 {
    1 + f as u8
}

fn code_failure(code: u8) -> Option<Failure> {
    [
        Failure::Overloaded,
        Failure::Timeout,
        Failure::ServerError,
        Failure::Unavailable,
    ]
    .into_iter()
    .find(|&f| failure_code(f) == code)
}

/// The measured requests of one window.  A run is cut, in reply order,
/// into windows of [`Spec::window_requests`] requests; per-window figures
/// are summarised by their median over the run, so a burst of host noise
/// moves a few windows, not the reported figure.
#[derive(Default)]
pub struct Window {
    pub query: Samples,
    pub count: Samples,
    /// Probes answered correctly within the window.
    pub probes: u64,
}

impl Window {
    pub fn op(&self, op: Op) -> &Samples {
        match op {
            Op::Query => &self.query,
            Op::Count => &self.count,
            Op::Stats => unreachable!("stats requests are not measured"),
        }
    }
}

/// What one measured phase observed.
#[derive(Default)]
pub struct Measurement {
    /// One entry per window.
    pub windows: Vec<Window>,
    pub window_s: f64,
    pub probes_ok: u64,
    /// Probes answered correctly per second, the median over windows.
    pub probes_per_s: f64,
    pub attempted: u64,
    pub failures: BTreeMap<Failure, u64>,
    pub wrong: Vec<String>,
    /// `Stats` replies sampled 4 times a second during the run.
    pub stats: Vec<StatsReport>,
}

impl Measurement {
    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    /// All windows' samples of one kind, merged.
    pub fn all(&self, pick: impl Fn(&Window) -> &Samples) -> Samples {
        let mut out = Samples::new();
        for w in &self.windows {
            out.extend(pick(w));
        }
        out
    }

    /// Median of `Stats.total_bytes` over the samples.
    pub fn resident_bytes(&self) -> f64 {
        let mut s = Samples::new();
        for r in &self.stats {
            s.push(r.total_bytes as f64);
        }
        s.median()
    }

    fn note(&mut self, window: usize, op: Op, code: u8, latency_us: f64) {
        self.attempted += 1;
        let w = &mut self.windows[window];
        let samples = match op {
            Op::Query => &mut w.query,
            Op::Count => &mut w.count,
            Op::Stats => unreachable!("stats requests are not measured"),
        };
        if code == OK {
            samples.push(latency_us);
        } else {
            samples.push_missed();
            if let Some(f) = code_failure(code) {
                *self.failures.entry(f).or_default() += 1;
            }
        }
    }
}

fn op_span(op: Op) -> &'static str {
    match op {
        Op::Query => "request.query",
        Op::Count => "request.count",
        Op::Stats => "request.stats",
    }
}

/// Runs one measured phase (the warm-up, then `window`) against `dep`:
/// [`CLIENTS`] blocking clients, each timing every request from its own
/// send to its reply.  With a tracer, measured requests also leave their
/// spans.
pub fn measure(
    inputs: &Inputs,
    dep: &Deployment,
    phase: u64,
    window: Duration,
    tracer: Option<&mut Tracer>,
) -> Result<Measurement, String> {
    let spec = &inputs.spec;
    let mut rng = Rng::derive(inputs.seed, inputs::SALT_PLAN + (phase << 8));
    let zipf = inputs::zipf_cdf(spec.datasets);
    let schedule: Vec<Vec<u32>> = (0..CLIENTS)
        .map(|_| {
            (0..4096)
                .map(|j| {
                    let dataset = inputs::draw(&zipf, &mut rng);
                    inputs.read_body(dataset, rng.below(spec.batches()), j % 2 == 1)
                })
                .collect()
        })
        .collect();
    let wrong = std::sync::Mutex::new(Vec::new());
    let sampled = std::sync::Mutex::new(Vec::new());
    let monitor = Some((
        inputs.stats_body(),
        Duration::from_secs_f64(1.0 / STATS_PER_S),
    ));
    let on_reply = |b: u32, reply: &[u8]| {
        if inputs.ops[b as usize] == Op::Stats {
            if let Ok(Response::Stats(report)) = Response::decode(reply) {
                sampled.lock().expect("stats samples").push(report);
            }
            return OK;
        }
        match check::classify(reply, &inputs.expected[b as usize]) {
            Verdict::Correct => OK,
            Verdict::Failed(f) => failure_code(f),
            Verdict::Wrong(why) => {
                wrong.lock().expect("wrong-answer log").push(why);
                WRONG
            }
        }
    };
    let (t0, recs) = drive::closed_loop(
        dep.entry,
        &schedule,
        &inputs.bodies,
        spec.warmup + window,
        monitor,
        on_reply,
    )?;
    let mut m = Measurement {
        wrong: wrong.into_inner().expect("wrong-answer log"),
        stats: sampled.into_inner().expect("stats samples"),
        ..Measurement::default()
    };
    // Requests sent after the warm-up are measured, windowed in reply order;
    // a last, short chunk joins the window before it.
    let warm_ns = spec.warmup.as_nanos() as u64;
    let mut measured: Vec<&drive::ClosedRec> = recs
        .iter()
        .flatten()
        .filter(|r| r.send_ns >= warm_ns)
        .collect();
    measured.sort_by_key(|r| r.recv_ns);
    let per_window = match spec.window_requests {
        0 => measured.len().max(1),
        n => n,
    };
    let count = (measured.len() / per_window).max(1);
    m.windows = (0..count).map(|_| Window::default()).collect();
    let mut ends = vec![warm_ns; count];
    let trace_stride = (measured.len() / TRACED_REQUESTS).max(1);
    let mut tracer = tracer;
    for (id, rec) in measured.iter().enumerate() {
        let w = (id / per_window).min(count - 1);
        let op = inputs.ops[rec.body as usize];
        if rec.status == OK {
            m.probes_ok += spec.batch as u64;
            m.windows[w].probes += spec.batch as u64;
        }
        ends[w] = rec.recv_ns;
        let latency = (rec.recv_ns - rec.send_ns) as f64 / 1e3;
        m.note(w, op, rec.status, latency);
        if let Some(t) = tracer.as_deref_mut().filter(|_| id % trace_stride == 0) {
            let id = id as u64;
            let at = |ns: u64| t0 + Duration::from_nanos(ns);
            let root = t.record(op_span(op), id, None, at(rec.send_ns), at(rec.checked_ns));
            t.record(
                "client.call",
                id,
                Some(root),
                at(rec.send_ns),
                at(rec.recv_ns),
            );
            t.record(
                "client.check",
                id,
                Some(root),
                at(rec.recv_ns),
                at(rec.checked_ns),
            );
        }
    }
    // A window lasts from the previous window's last reply to its own.
    let rates: Vec<f64> = m
        .windows
        .iter()
        .zip(&ends)
        .scan(warm_ns, |start, (w, &end)| {
            let ns = end.saturating_sub(*start).max(1);
            *start = end;
            Some(w.probes as f64 * 1e9 / ns as f64)
        })
        .collect();
    m.window_s = ends[count - 1].saturating_sub(warm_ns) as f64 / 1e9;
    m.probes_per_s = stats::median(&rates);
    Ok(m)
}

/// One `Stats` call on a fresh control connection.
pub fn stats(addr: SocketAddr) -> Result<StatsReport, String> {
    let mut conn = wire::Conn::connect(addr).map_err(|e| format!("stats connect: {e}"))?;
    match conn.call(&Request::Stats, Duration::from_secs(10)) {
        Ok(Response::Stats(report)) => Ok(report),
        other => Err(format!("Stats answered {other:?}")),
    }
}

/// A fresh per-run scratch directory under `root` (snapshots, span dumps).
pub fn scratch_dir(root: &Path, kind: Kind, seed: u64) -> Result<PathBuf, String> {
    let dir = root.join(format!(
        "{}-seed{seed}-pid{}",
        kind.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}
