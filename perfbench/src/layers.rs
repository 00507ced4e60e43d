//! The traced run: spans around the benchmark's own calls into each
//! layer's public functions, on the workloads' generated inputs.
//!
//! One sweep covers every layer whatever the workload, so each traced
//! run reports every per-layer metric:
//!
//! * fleet — seeded nodes as in `fleet-ingest`: gather, `Agent::tick`,
//!   decode, encode, deframe, `append_batch`, flush, compact, and a
//!   flood of the recorded frames through an in-process `IngestServer`;
//! * dashboards — the same day of history, each query class direct
//!   (warm and cold) and one mix cycle over `CWQ1`;
//! * chaos — the soak campaign replayed with a pause every 100 s; the
//!   replay's audit hash must equal the one recorded for its seed.
//!
//! Each segment also runs untraced on the same inputs, three times each
//! way, alternating; the difference of the medians is the tracing
//! overhead. Spans are written to
//! `.bench_out/spans-<workload>-<seed>.json`.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cwx_monitor::monitor::Value;
use cwx_monitor::transmit::{Report, WireDecoder, WireEncoder};
use cwx_net::frame::FrameBuffer;
use cwx_proc::gather::{
    DiskStatsGatherer, GatherLevel, LoadAvgGatherer, MemInfoGatherer, NetDevGatherer, StatGatherer,
    UptimeGatherer,
};
use cwx_store::disk::{DiskStore, StoreConfig};
use cwx_store::{BatchSample, Resolution, Store};
use cwx_util::time::{SimDuration, SimTime};

use crate::dash::{self, Class};
use crate::fleet::{Node, LIVE_BASE_SECS};
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use crate::util::{dir_bytes, metric, Metric, Outcome, WorkDir};

/// Nodes of the fleet segment.
const NODES: usize = 100;
/// Reports per node in the fleet segment.
const TICKS: u64 = 20;
/// Samples per `append_batch` call (the ingest lanes' batch bound).
const BATCH: usize = 512;
/// Warm repetitions per query class.
const WARM: usize = 5;
/// Untraced/traced repetitions of each segment.
const REPS: usize = 3;
/// Simulated nanoseconds per chaos chunk.
const CHUNK_NS: u64 = 100_000_000_000;

/// What the fleet segment measured.
#[derive(Default)]
struct Fleet {
    gather_ns: Vec<f64>,
    tick_ns: Vec<f64>,
    encode_ns: f64,
    decode_ns: f64,
    deframe_ns: f64,
    append_ns: f64,
    flush_ms: f64,
    compact_ms: f64,
    reports: u64,
    numeric: u64,
    sent_values: u64,
    offered_values: u64,
    wire_bytes: u64,
    disk_bytes: u64,
    frames: Vec<u8>,
}

fn fleet_segment(seed: u64, dir: &std::path::Path, tr: &mut Tracer) -> Fleet {
    let root = tr.begin("bench.fleet", 0, 0);
    let mut f = Fleet::default();
    let mut nodes: Vec<Node> = (0..NODES).map(|i| Node::new(i as u32, seed)).collect();
    let registry = nodes[0].monitor_keys().len() as u64;

    // gather: the six gatherers of node 0's /proc, each tick
    let src = nodes[0].proc_source();
    let mut mem = MemInfoGatherer::new(src.clone(), GatherLevel::KeepOpen).expect("meminfo");
    let mut stat = StatGatherer::new(&src).expect("stat");
    let mut load = LoadAvgGatherer::new(&src).expect("loadavg");
    let mut up = UptimeGatherer::new(&src).expect("uptime");
    let mut net = NetDevGatherer::new(&src).expect("net/dev");
    let mut disk = DiskStatsGatherer::new(&src).expect("diskstats");

    let mut payloads: Vec<Vec<u8>> = Vec::new();
    for k in 0..TICKS {
        for (i, node) in nodes.iter_mut().enumerate() {
            let trace = k * NODES as u64 + i as u64 + 1;
            let secs = LIVE_BASE_SECS + k as f64 + i as f64 / NODES as f64;
            let id = tr.begin("cwx-monitor.agent_tick", root, trace);
            let t = node.tick(secs);
            tr.end(id);
            f.tick_ns.push(t.tick_ns as f64);
            f.reports += 1;
            f.numeric += t.numeric as u64;
            f.sent_values += t.sent as u64;
            f.offered_values += registry;
            f.wire_bytes += t.payload.len() as u64;
            payloads.push(t.payload);
            if i == 0 {
                let g = tr.begin("cwx-proc.gather", root, trace);
                let t0 = Instant::now();
                let _ = std::hint::black_box(mem.sample().expect("meminfo"));
                let _ = std::hint::black_box(stat.sample().expect("stat"));
                let _ = std::hint::black_box(load.sample().expect("loadavg"));
                let _ = std::hint::black_box(up.sample().expect("uptime"));
                let _ = std::hint::black_box(net.sample().expect("net/dev").len());
                let _ = std::hint::black_box(disk.sample().expect("diskstats").len());
                f.gather_ns.push(t0.elapsed().as_nanos() as f64);
                tr.end(g);
            }
        }
    }

    // decode every recorded payload, one decoder for the relay
    let mut dec = WireDecoder::new();
    let t0 = Instant::now();
    let reports: Vec<Report> = payloads
        .iter()
        .enumerate()
        .map(|(j, p)| {
            tr.span("cwx-monitor.decode", root, j as u64 + 1, || {
                dec.decode_auto(p).expect("recorded frames decode")
            })
        })
        .collect();
    f.decode_ns = t0.elapsed().as_nanos() as f64 / reports.len() as f64;

    // re-encode with one encoder per node
    let mut encs: Vec<WireEncoder> = (0..NODES).map(|_| WireEncoder::new()).collect();
    let mut buf = Vec::new();
    let t0 = Instant::now();
    for (j, r) in reports.iter().enumerate() {
        tr.span("cwx-monitor.encode", root, j as u64 + 1, || {
            encs[r.node as usize].encode_into(r, &mut buf)
        });
    }
    f.encode_ns = t0.elapsed().as_nanos() as f64 / reports.len() as f64;

    // frame, then deframe in 64 KiB reads
    for p in &payloads {
        cwx_net::frame::put_frame(&mut f.frames, p);
    }
    let mut fb = FrameBuffer::new(1 << 20);
    let mut frames = 0u64;
    let t0 = Instant::now();
    for chunk in f.frames.chunks(64 << 10) {
        let id = tr.begin("cwx-net.deframe", root, 0);
        fb.extend(chunk);
        while let Some(frame) = fb.next_frame().expect("recorded frames are well formed") {
            std::hint::black_box(frame.len());
            frames += 1;
        }
        tr.end(id);
    }
    f.deframe_ns = t0.elapsed().as_nanos() as f64 / frames as f64;

    // append in lane-sized batches, default store config
    let store = DiskStore::open(&dir.join("append"), StoreConfig::default()).expect("open store");
    let samples: Vec<BatchSample<'_>> = reports
        .iter()
        .flat_map(|r| {
            let at = SimTime::ZERO + SimDuration::from_secs_f64(r.time_secs);
            r.values.iter().filter_map(move |(k, v)| match v {
                Value::Num(x) => Some(BatchSample {
                    node: r.node,
                    monitor: k.as_str(),
                    time: at,
                    value: *x,
                }),
                Value::Text(_) => None,
            })
        })
        .collect();
    let t0 = Instant::now();
    for batch in samples.chunks(BATCH) {
        tr.span("cwx-store.append_batch", root, 0, || {
            store.append_batch(batch)
        });
    }
    f.append_ns = t0.elapsed().as_nanos() as f64 / samples.len() as f64;
    let t0 = Instant::now();
    tr.span("cwx-store.flush_all", root, 0, || {
        store.flush_all().expect("flush")
    });
    f.flush_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    tr.span("cwx-store.compact_all", root, 0, || {
        store.compact_all().expect("compact")
    });
    f.compact_ms = t0.elapsed().as_secs_f64() * 1e3;
    f.disk_bytes = dir_bytes(store.dir());
    tr.end(root);
    f
}

impl Fleet {
    /// Counters that must repeat exactly for one seed.
    fn exact(&self) -> Vec<u64> {
        vec![
            self.reports,
            self.numeric,
            self.sent_values,
            self.offered_values,
            self.wire_bytes,
            self.disk_bytes,
        ]
    }
}

/// Flood the recorded frames through an in-process ingest server.
fn ingest_segment(frames: &[u8], numeric: u64, dir: &std::path::Path, tr: &mut Tracer) -> [f64; 5] {
    let store =
        Arc::new(DiskStore::open(&dir.join("ingest"), StoreConfig::default()).expect("open"));
    let ingest = crate::server::start_ingest(store).expect("start ingest");
    let root = tr.begin("clusterworx.ingest.flood", 0, 0);
    let mut conn = TcpStream::connect(ingest.addr()).expect("connect");
    conn.write_all(frames).expect("flood");
    drop(conn);
    let t0 = Instant::now();
    while ingest.stats().samples < numeric && t0.elapsed() < Duration::from_secs(30) {
        std::thread::sleep(Duration::from_millis(1));
    }
    tr.end(root);
    let (s, lat) = (ingest.stats(), ingest.latency());
    ingest.shutdown();
    [
        lat.p50_us,
        lat.p99_us,
        s.backpressure_trips as f64,
        s.evicted as f64,
        s.decode_errors as f64,
    ]
}

/// What the dashboards segment measured, per class.
#[derive(Default)]
struct Dash {
    warm_ms: BTreeMap<&'static str, f64>,
    ns_per_entry: BTreeMap<&'static str, f64>,
    scanned: BTreeMap<&'static str, u64>,
    zoom_cold_ms: f64,
    hit_ratio: [f64; 4],
}

/// Direct queries (warm, cold, one mix cycle) on the populated store.
fn dash_queries(store: &DiskStore, tr: &mut Tracer) -> Dash {
    let root = tr.begin("bench.dashboards", 0, 0);
    let mut d = Dash::default();
    let mut trace = 1u64;

    for (class, spec) in dash::class_specs() {
        let name = class.name();
        let _ = store.query(&spec).expect("warm-up");
        let mut times = Vec::new();
        let mut scanned = 0;
        for _ in 0..WARM {
            let t0 = Instant::now();
            let r = tr.span("cwx-store.query", root, trace, || {
                store.query(&spec).expect("query")
            });
            times.push(t0.elapsed().as_secs_f64() * 1e3);
            scanned = r.stats.scanned_raw + r.stats.scanned_buckets;
            trace += 1;
        }
        let ms = median(&times);
        d.warm_ms.insert(name, ms);
        d.scanned.insert(name, scanned);
        d.ns_per_entry
            .insert(name, ms * 1e6 / scanned.max(1) as f64);
        if class == Class::Zoom {
            store.clear_cache();
            let t0 = Instant::now();
            tr.span("cwx-store.query_cold", root, trace, || {
                store.query(&spec).expect("cold")
            });
            d.zoom_cold_ms = t0.elapsed().as_secs_f64() * 1e3;
            trace += 1;
        }
    }
    // one mix cycle from a cold cache: per-tier hit ratios
    store.clear_cache();
    let before = store.cache_stats();
    for (_, spec) in dash::mix_cycle() {
        tr.span("cwx-store.query", root, trace, || {
            store.query(&spec).expect("query")
        });
        trace += 1;
    }
    let after = store.cache_stats();
    for (i, r) in [
        Resolution::Raw,
        Resolution::TenSeconds,
        Resolution::FiveMinutes,
        Resolution::OneHour,
    ]
    .into_iter()
    .enumerate()
    {
        let (h, m) = (
            after.tier(r).hits - before.tier(r).hits,
            after.tier(r).misses - before.tier(r).misses,
        );
        d.hit_ratio[i] = if h + m == 0 {
            f64::NAN
        } else {
            h as f64 / (h + m) as f64
        };
    }
    tr.end(root);
    d
}

/// One mix cycle over `CWQ1` through the executor: (shed, errors).
fn dash_cwq1(store: Arc<DiskStore>, tr: &mut Tracer) -> (u64, u64) {
    let root = tr.begin("bench.cwq1", 0, 0);
    let ingest = crate::server::start_ingest(store).expect("start ingest");
    let mut conn = TcpStream::connect(ingest.addr()).expect("connect");
    for (trace, (_, spec)) in (1u64..).zip(dash::mix_cycle()) {
        tr.span("clusterworx.cwq1", root, trace, || {
            let _ = crate::client::query(&mut conn, &spec).expect("CWQ1 round trip");
        });
    }
    drop(conn);
    let q = ingest.query_stats().unwrap_or_default();
    ingest.shutdown();
    tr.end(root);
    (q.shed, q.errors)
}

/// What the chaos segment measured.
#[derive(Default)]
struct Chaos {
    events: u64,
    ns_per_event: f64,
    chunk_ms_max: f64,
    pending_peak: u64,
    audit_records: u64,
    audit_hash: u64,
}

impl Chaos {
    /// Counters that must repeat exactly for one seed.
    fn exact(&self) -> Vec<u64> {
        vec![self.events, self.pending_peak, self.audit_records]
    }
}

fn chaos_segment(seed: u64, tr: &mut Tracer) -> Chaos {
    let (scenario_seed, _) = crate::soak::SEEDS[(seed % crate::soak::SEEDS.len() as u64) as usize];
    let m = crate::soak::manifest(scenario_seed);
    let root = tr.begin("bench.chaos", 0, 0);
    let obs = crate::soak::observe_every(&m, tr, root, CHUNK_NS);
    tr.end(root);
    Chaos {
        events: obs.events,
        ns_per_event: obs.wall_s * 1e9 / obs.events as f64,
        chunk_ms_max: obs.step_ms.iter().copied().fold(0.0, f64::max),
        pending_peak: obs.pending_peak as u64,
        audit_records: obs.audit_records,
        audit_hash: obs.audit_hash,
    }
}

/// Self time per layer (span-name prefix before the first dot), ms.
fn layer_self_ms(tr: &Tracer) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (name, st) in tr.self_times() {
        let layer = name.split('.').next().unwrap_or(name).to_string();
        *out.entry(layer).or_insert(0.0) += st.self_ns as f64 / 1e6;
    }
    out
}

/// The traced run.
pub fn run(workload: &str, seed: u64, out: &mut Outcome) -> std::io::Result<()> {
    let dir = WorkDir::new("trace")?;
    let mut tr = Tracer::new(true);
    let mut off = Tracer::new(false);

    // each segment untraced and traced, alternating, medians of wall
    let mut fleet_times = (Vec::new(), Vec::new());
    let mut f = None;
    let mut exact = Vec::new();
    for rep in 0..REPS {
        let t0 = Instant::now();
        let u = fleet_segment(seed, &dir.path().join(format!("u{rep}")), &mut off);
        fleet_times.0.push(t0.elapsed().as_secs_f64());
        exact.push(u.exact());
        let t0 = Instant::now();
        let mut scratch = Tracer::new(true);
        let tracer = if rep == 0 { &mut tr } else { &mut scratch };
        let seg = fleet_segment(seed, &dir.path().join(format!("t{rep}")), tracer);
        fleet_times.1.push(t0.elapsed().as_secs_f64());
        exact.push(seg.exact());
        f.get_or_insert(seg);
    }
    let f = f.expect("one repetition");
    let ing = ingest_segment(&f.frames, f.numeric, dir.path(), &mut tr);

    let (store, _) = tr.span("cwx-store.populate", 0, 0, || {
        dash::populate(&dir.path().join("dash"), seed).expect("populate")
    });
    let mut dash_times = (Vec::new(), Vec::new());
    let mut d = None;
    for rep in 0..REPS {
        let t0 = Instant::now();
        let u = dash_queries(&store, &mut off);
        dash_times.0.push(t0.elapsed().as_secs_f64());
        exact.push(u.scanned.values().copied().collect());
        let t0 = Instant::now();
        let mut scratch = Tracer::new(true);
        let tracer = if rep == 0 { &mut tr } else { &mut scratch };
        let seg = dash_queries(&store, tracer);
        dash_times.1.push(t0.elapsed().as_secs_f64());
        exact.push(seg.scanned.values().copied().collect());
        d.get_or_insert(seg);
    }
    let d = d.expect("one repetition");
    let (shed, errors) = dash_cwq1(Arc::new(store), &mut tr);

    let (_, want_audit) = crate::soak::SEEDS[(seed % crate::soak::SEEDS.len() as u64) as usize];
    let mut chaos_times = (Vec::new(), Vec::new());
    let mut c = None;
    for rep in 0..REPS {
        let t0 = Instant::now();
        let u = chaos_segment(seed, &mut off);
        chaos_times.0.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let mut scratch = Tracer::new(true);
        let tracer = if rep == 0 { &mut tr } else { &mut scratch };
        let seg = chaos_segment(seed, tracer);
        chaos_times.1.push(t0.elapsed().as_secs_f64());
        for run in [&u, &seg] {
            exact.push(run.exact());
            out.check(
                run.audit_hash == want_audit,
                format!(
                    "soak replay audit hash {:016x}, recorded {want_audit:016x}",
                    run.audit_hash
                ),
            );
        }
        c.get_or_insert(seg);
    }
    let c = c.expect("one repetition");
    // fleet runs, then dashboards runs, then chaos runs: each group of
    // repeats must agree exactly
    for group in [
        &exact[..2 * REPS],
        &exact[2 * REPS..4 * REPS],
        &exact[4 * REPS..],
    ] {
        out.check(
            group.windows(2).all(|w| w[0] == w[1]),
            format!("exact counters differ between runs of one seed: {group:?}"),
        );
    }
    let overhead = |u: f64, t: f64| (t - u) / u * 100.0;
    let fleet_overhead = overhead(median(&fleet_times.0), median(&fleet_times.1));
    let dash_overhead = overhead(median(&dash_times.0), median(&dash_times.1));
    let chaos_overhead = overhead(median(&chaos_times.0), median(&chaos_times.1));

    std::fs::create_dir_all(".bench_out")?;
    let spans =
        std::path::PathBuf::from(".bench_out").join(format!("spans-{workload}-{seed}.json"));
    tr.write_json(&spans)?;

    let gather = Summary::of(&f.gather_ns, 0.5);
    let tick = Summary::of(&f.tick_ns, 0.5);
    let m = per_layer(&Sweep {
        fleet: &f,
        ingest: ing,
        dash: &d,
        cwq1: (shed, errors),
        chaos: &c,
        overhead_pct: [fleet_overhead, dash_overhead, chaos_overhead],
        self_ms: layer_self_ms(&tr),
    });
    out.check(
        ing[3] == 0.0 && ing[4] == 0.0,
        "flood evicted or failed to decode",
    );
    out.check(shed == 0 && errors == 0, "CWQ1 queries shed or failed");
    out.check(
        d.hit_ratio.iter().all(|r| r.is_finite()),
        format!("a tier saw no cache accesses in the mix: {:?}", d.hit_ratio),
    );
    out.attempted = f.reports + dash::mix_cycle().len() as u64 + 1;
    out.failed = (ing[3] + ing[4]) as u64 + shed + errors;
    out.notes = vec![
        format!("spans: {} written to {}", tr.spans().len(), spans.display()),
        format!(
            "segment wall untraced/traced (s): fleet {:?}/{:?}, dashboards {:?}/{:?}, \
             chaos {:?}/{:?}",
            fleet_times.0, fleet_times.1, dash_times.0, dash_times.1, chaos_times.0, chaos_times.1
        ),
        format!(
            "agent tick {} ns; gather {} ns",
            tick.describe(""),
            gather.describe("")
        ),
        format!("flood of {} reports: flush p99 {:.0} us", f.reports, ing[1]),
    ];
    out.metrics = m;
    Ok(())
}

/// Everything the sweep measured.
struct Sweep<'a> {
    fleet: &'a Fleet,
    /// flush p50/p99 (us), backpressure trips, evictions, decode errors
    ingest: [f64; 5],
    dash: &'a Dash,
    /// executor (shed, errors)
    cwq1: (u64, u64),
    chaos: &'a Chaos,
    /// fleet, dashboards, chaos
    overhead_pct: [f64; 3],
    self_ms: BTreeMap<String, f64>,
}

/// The per-layer metrics, in `BENCHMARK.json` order.
fn per_layer(w: &Sweep<'_>) -> Vec<Metric> {
    let (f, d, c) = (w.fleet, w.dash, w.chaos);
    let mut m: Vec<Metric> = vec![
        metric("cwx-proc.gather_us", "us", median(&f.gather_ns) / 1e3),
        metric("cwx-monitor.agent_tick_us", "us", median(&f.tick_ns) / 1e3),
        metric(
            "cwx-monitor.sent_per_offered",
            "ratio",
            f.sent_values as f64 / f.offered_values as f64,
        ),
        metric("cwx-monitor.encode_ns_per_report", "ns", f.encode_ns),
        metric("cwx-monitor.decode_ns_per_report", "ns", f.decode_ns),
        metric(
            "cwx-monitor.wire_bytes_per_sample",
            "B",
            f.wire_bytes as f64 / f.numeric as f64,
        ),
        metric("cwx-net.deframe_ns_per_frame", "ns", f.deframe_ns),
        metric("clusterworx.ingest.flush_p50_us", "us", w.ingest[0]),
        metric("clusterworx.ingest.flush_p99_us", "us", w.ingest[1]),
        metric(
            "clusterworx.ingest.backpressure_trips",
            "count",
            w.ingest[2],
        ),
        metric("clusterworx.ingest.evicted", "count", w.ingest[3]),
        metric("clusterworx.ingest.decode_errors", "count", w.ingest[4]),
        metric("cwx-store.append_batch_ns_per_sample", "ns", f.append_ns),
        metric("cwx-store.flush_ms", "ms", f.flush_ms),
        metric("cwx-store.compact_ms", "ms", f.compact_ms),
        metric(
            "cwx-store.disk_bytes_per_sample",
            "B",
            f.disk_bytes as f64 / f.numeric as f64,
        ),
    ];
    for class in ["panel", "zoom", "pctl"] {
        m.push(metric(
            format!("cwx-store.query_ms.{class}"),
            "ms",
            d.warm_ms.get(class).copied().unwrap_or(f64::NAN),
        ));
    }
    m.push(metric("cwx-store.query_cold_ms.zoom", "ms", d.zoom_cold_ms));
    for class in ["panel", "zoom", "pctl"] {
        m.push(metric(
            format!("cwx-store.query_ns_per_entry.{class}"),
            "ns",
            d.ns_per_entry.get(class).copied().unwrap_or(f64::NAN),
        ));
    }
    for class in ["panel", "zoom", "pctl"] {
        m.push(metric(
            format!("cwx-store.scanned_entries.{class}"),
            "count",
            d.scanned.get(class).map_or(f64::NAN, |&n| n as f64),
        ));
    }
    for (tier, r) in ["raw", "10s", "5m", "1h"].iter().zip(d.hit_ratio) {
        m.push(metric(
            format!("cwx-store.cache_hit_ratio.{tier}"),
            "ratio",
            r,
        ));
    }
    m.extend([
        metric("cwx-store.executor_shed", "count", w.cwq1.0 as f64),
        metric("cwx-store.executor_errors", "count", w.cwq1.1 as f64),
        metric("cwx-util.sim.events", "count", c.events as f64),
        metric("cwx-util.sim.ns_per_event", "ns", c.ns_per_event),
        metric("cwx-util.sim.chunk_ms_max", "ms", c.chunk_ms_max),
        metric("cwx-util.sim.pending_peak", "count", c.pending_peak as f64),
        metric(
            "cwx-scenario.audit_records",
            "count",
            c.audit_records as f64,
        ),
        metric("trace.overhead_pct.fleet-ingest", "%", w.overhead_pct[0]),
        metric("trace.overhead_pct.dashboards", "%", w.overhead_pct[1]),
        metric("trace.overhead_pct.sim", "%", w.overhead_pct[2]),
    ]);
    for layer in LAYERS {
        m.push(metric(
            format!("{layer}.self_ms"),
            "ms",
            w.self_ms.get(layer).copied().unwrap_or(0.0),
        ));
    }
    m
}

/// Layers whose self time the traced run reports.
pub const LAYERS: [&str; 6] = [
    "cwx-proc",
    "cwx-monitor",
    "cwx-net",
    "clusterworx",
    "cwx-store",
    "cwx-util",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{contract_problems, declared_metrics, END_TO_END};

    fn repo_file(name: &str) -> String {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    fn sweep_metrics() -> Vec<Metric> {
        let fleet = Fleet {
            gather_ns: vec![1.0],
            tick_ns: vec![1.0],
            numeric: 1,
            offered_values: 1,
            ..Fleet::default()
        };
        let mut dash = Dash::default();
        for class in ["panel", "zoom", "pctl"] {
            dash.warm_ms.insert(class, 1.0);
            dash.ns_per_entry.insert(class, 1.0);
            dash.scanned.insert(class, 1);
        }
        per_layer(&Sweep {
            fleet: &fleet,
            ingest: [0.0; 5],
            dash: &dash,
            cwq1: (0, 0),
            chaos: &Chaos::default(),
            overhead_pct: [0.0; 3],
            self_ms: BTreeMap::new(),
        })
    }

    #[test]
    fn traced_run_emits_every_per_layer_metric_of_benchmark_json() {
        let declared = declared_metrics(&repo_file("../BENCHMARK.json"), "per_layer").unwrap();
        let problems = contract_problems(&declared, &sweep_metrics());
        assert!(problems.is_empty(), "{problems:#?}");
    }

    #[test]
    fn every_workload_emits_every_end_to_end_metric_of_benchmark_json() {
        let declared = declared_metrics(&repo_file("../BENCHMARK.json"), "end_to_end").unwrap();
        let emitted = crate::util::end_to_end([1.0; 5]);
        assert!(contract_problems(&declared, &emitted).is_empty());
        assert_eq!(declared.len(), END_TO_END.len());
    }

    #[test]
    fn layer_map_covers_every_per_layer_metric() {
        let bench = repo_file("../BENCHMARK.json");
        let declared = declared_metrics(&bench, "per_layer").unwrap();
        let map = cwx_scenario::json::parse(&repo_file("layers.json")).unwrap();
        let metrics = map.get("metrics").expect("metrics object");
        let doc = cwx_scenario::json::parse(&bench).unwrap();
        let listed: Vec<&str> = doc
            .get("workloads")
            .and_then(|w| w.as_arr())
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(|n| n.as_str()))
            .collect();
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        for (name, _) in &declared {
            let entry = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{name} unmapped"));
            for m in entry.get("moves").and_then(|v| v.as_arr()).expect("moves") {
                let m = m.as_str().expect("metric name");
                assert!(
                    e2e.contains(&m) || m == "failed",
                    "{name} moves unknown {m}"
                );
            }
            let on = entry.get("on").and_then(|v| v.as_arr()).expect("on");
            assert!(!on.is_empty(), "{name} names no workload");
            for w in on {
                let w = w.as_str().expect("workload name");
                assert!(listed.contains(&w), "{name} on unlisted workload {w}");
            }
        }
    }
}
