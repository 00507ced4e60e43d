//! `dashboards`: a closed-loop dashboard client issuing a fixed cyclic
//! `CWQ1` query mix against a day of compacted history, while a paced
//! agent relay keeps ingesting "now".

use std::net::TcpStream;
use std::time::{Duration, Instant};

use cwx_store::disk::{DiskStore, StoreConfig};
use cwx_store::{AggFunc, BatchSample, QueryGroup, QuerySpec, Store};
use cwx_util::time::{SimDuration, SimTime};
use rand::Rng;

use crate::client::query;
use crate::fleet::{mix, Schedule, LIVE_BASE_SECS};
use crate::fleet_ingest::{
    check_ingest, check_lateness, cwq1_counts, paced_phase, parse_finish, setup, setup_median,
    Shape,
};
use crate::stats::Summary;
use crate::util::{end_to_end, unix_ns, Outcome, WorkDir};

/// Nodes with history, all of them live and probed.
pub const FLEET: u32 = 96;
/// Nodes per rack (the `panel` group-by).
pub const RACK: u32 = 10;
/// History cadence, seconds.
pub const HISTORY_CADENCE: u64 = 10;
/// Seconds of history (one day, ending where live traffic starts).
pub const HISTORY_SECS: u64 = 86_400;
/// Monitors with history; the live agents report them too.
pub const HISTORY_KEYS: [&str; 2] = ["cpu.util_pct", "mem.used_pct"];
/// Seconds between one live node's reports. Live samples stay below
/// the three memtable flushes per shard that would trigger a full
/// compaction of the day of history during the run.
pub const LIVE_CADENCE: f64 = 2.0;
/// Set-ups per run (each builds the day of history); the median is
/// reported.
pub const SETUPS: usize = 3;
/// A query not answered within this counts as failed.
pub const QUERY_TIMEOUT: Duration = Duration::from_secs(2);

const SEC: u64 = 1_000_000_000;

fn t(secs: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(secs)
}

/// Query classes of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Tier-served dashboard panel; its working set fits the cache.
    Panel,
    /// A day at 10 s over all nodes: scan-bound, spills the cache.
    Zoom,
    /// A percentile: always a raw scan.
    Pctl,
}

impl Class {
    /// Name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Class::Panel => "panel",
            Class::Zoom => "zoom",
            Class::Pctl => "pctl",
        }
    }
}

fn all_nodes() -> Vec<QueryGroup> {
    vec![QueryGroup {
        key: "all".into(),
        nodes: (0..FLEET).collect(),
    }]
}

fn racks() -> Vec<QueryGroup> {
    (0..FLEET.div_ceil(RACK))
        .map(|r| QueryGroup {
            key: format!("rack{r}"),
            nodes: (r * RACK..((r + 1) * RACK).min(FLEET)).collect(),
        })
        .collect()
}

fn spec(monitor: &str, from: u64, window: u64, agg: AggFunc, groups: Vec<QueryGroup>) -> QuerySpec {
    QuerySpec {
        monitor: monitor.into(),
        from: t(from),
        to: SimTime::from_nanos(HISTORY_SECS * SEC - 1),
        window_nanos: window * SEC,
        agg,
        groups,
        max_scan: 0,
    }
}

/// The distinct queries of the mix: a day at 5 m and at 1 h and the
/// last hour at 5 m (panels, served from the 5 m and 1 h tiers), the
/// last hour's p99 and a day at 10 s.
pub fn queries() -> Vec<(Class, QuerySpec)> {
    let last_hour = HISTORY_SECS - 3_600;
    vec![
        (
            Class::Panel,
            spec("cpu.util_pct", 0, 300, AggFunc::Avg, racks()),
        ),
        (
            Class::Panel,
            spec("cpu.util_pct", 0, 3_600, AggFunc::Avg, racks()),
        ),
        (
            Class::Panel,
            spec("mem.used_pct", last_hour, 300, AggFunc::Max, racks()),
        ),
        (
            Class::Pctl,
            spec("mem.used_pct", last_hour, 300, AggFunc::P99, all_nodes()),
        ),
        (
            Class::Zoom,
            spec("cpu.util_pct", 0, 10, AggFunc::Avg, all_nodes()),
        ),
    ]
}

/// The cyclic mix as indices into [`queries`]: runs of panels, two
/// percentiles and one zoom per cycle of 27. Both scans read whole
/// day-long raw or 10 s blocks and spill the block cache, so a panel's
/// first ask after a scan misses; both day views repeat within each run
/// of panels, so their later asks hit.
fn mix_order() -> Vec<usize> {
    let (day, day_hours, hour, pctl, zoom) = (0, 1, 2, 3, 4);
    let mut cycle = Vec::new();
    for scan in [pctl, pctl, zoom] {
        for view in [day, day_hours, hour, day_hours] {
            cycle.extend([view, day]);
        }
        cycle.push(scan);
    }
    cycle
}

/// The cyclic mix.
pub fn mix_cycle() -> Vec<(Class, QuerySpec)> {
    let q = queries();
    mix_order().into_iter().map(|i| q[i].clone()).collect()
}

/// The first query of each class (the per-layer figures of a class).
pub fn class_specs() -> Vec<(Class, QuerySpec)> {
    let mut out: Vec<(Class, QuerySpec)> = Vec::new();
    for (c, s) in queries() {
        if !out.iter().any(|(k, _)| *k == c) {
            out.push((c, s));
        }
    }
    out
}

/// Value of monitor `key` on `node` at `secs` of the history day.
fn history_value(rng: &mut impl Rng, key: usize, node: u32, secs: u64) -> f64 {
    let day = (secs as f64 / HISTORY_SECS as f64 * std::f64::consts::TAU).sin();
    let base = [50.0, 60.0][key];
    let swing = [30.0, 20.0][key];
    base + swing * day + node as f64 * 0.01 + rng.random_range(-1.0..1.0)
}

/// First argument that turns the binary into the history writer.
pub const POPULATE_FLAG: &str = "--populate";

/// Samples of history [`populate`] writes.
pub const HISTORY_SAMPLES: u64 =
    FLEET as u64 * HISTORY_KEYS.len() as u64 * (HISTORY_SECS / HISTORY_CADENCE);

/// Entry point of the history writer: `--populate <seed> <store-dir>`.
/// It runs in a process of its own so the server's peak RSS is that of
/// serving, not of the bulk load.
pub fn populate_main(args: &[String]) -> i32 {
    let (Some(seed), Some(dir)) = (args.first().and_then(|s| s.parse().ok()), args.get(1)) else {
        eprintln!("usage: perfbench --populate <seed> <store-dir>");
        return 2;
    };
    match populate(std::path::Path::new(dir), seed) {
        Ok(_) => 0,
        Err(e) => {
            eprintln!("perfbench populate: {e}");
            1
        }
    }
}

/// Run [`populate_main`] in a child process and wait for it.
fn populate_child(seed: u64, dir: &std::path::Path) -> std::io::Result<()> {
    let status = std::process::Command::new(std::env::current_exe()?)
        .args([POPULATE_FLAG, &seed.to_string(), &dir.to_string_lossy()])
        .status()?;
    if status.success() {
        Ok(())
    } else {
        Err(std::io::Error::other(format!(
            "history writer failed: {status}"
        )))
    }
}

/// Append a day of history for the fleet (bulk thresholds, one
/// compaction at the end) and reopen it with the default
/// `StoreConfig`, as a server restarting on an existing store would.
pub fn populate(dir: &std::path::Path, seed: u64) -> Result<(DiskStore, u64), String> {
    let bulk = StoreConfig {
        flush_threshold: 1 << 22,
        compact_threshold: usize::MAX,
        ..StoreConfig::default()
    };
    let store = DiskStore::open(dir, bulk).map_err(|e| e.to_string())?;
    let mut rng = cwx_util::rng::rng(mix(seed, 0xDA5B));
    let mut batch: Vec<BatchSample<'_>> = Vec::with_capacity(FLEET as usize * HISTORY_KEYS.len());
    let mut n = 0u64;
    for step in 0..HISTORY_SECS / HISTORY_CADENCE {
        let secs = step * HISTORY_CADENCE;
        batch.clear();
        for node in 0..FLEET {
            for (k, key) in HISTORY_KEYS.iter().enumerate() {
                batch.push(BatchSample {
                    node,
                    monitor: key,
                    time: t(secs),
                    value: history_value(&mut rng, k, node, secs),
                });
            }
        }
        store.append_batch(&batch);
        n += batch.len() as u64;
    }
    store.compact_all().map_err(|e| e.to_string())?;
    drop(store);
    let store = DiskStore::open(dir, StoreConfig::default()).map_err(|e| e.to_string())?;
    Ok((store, n))
}

/// Reference answer of `spec` from `Store::range` + `aggregate`, as
/// `group,start_ns,value,count` rows.
pub fn reference(store: &DiskStore, spec: &QuerySpec) -> Vec<String> {
    let (from, to) = spec.window_bounds();
    let w = spec.window_nanos;
    let mut rows = Vec::new();
    for g in &spec.groups {
        // per window: (sum, count, max, raw values)
        let mut windows: std::collections::BTreeMap<u64, (f64, u64, f64, Vec<f64>)> =
            std::collections::BTreeMap::new();
        for &node in &g.nodes {
            let samples = store.range(node, &spec.monitor, from, to);
            if spec.agg.tier_serveable() {
                for b in cwx_store::aggregate(&samples, w) {
                    let e = windows.entry(b.start.as_nanos()).or_insert((
                        0.0,
                        0,
                        f64::NEG_INFINITY,
                        Vec::new(),
                    ));
                    e.0 += b.mean * b.count as f64;
                    e.1 += b.count;
                    e.2 = e.2.max(b.max);
                }
            } else {
                for s in samples {
                    let e = windows.entry(s.time.as_nanos() / w * w).or_default();
                    e.1 += 1;
                    e.3.push(s.value);
                }
            }
        }
        for (start, (sum, count, max, mut vals)) in windows {
            let value = match spec.agg {
                AggFunc::Avg => sum / count as f64,
                AggFunc::Max => max,
                AggFunc::P99 => {
                    vals.sort_by(f64::total_cmp);
                    crate::stats::nearest_rank(&vals, 0.99)
                }
                other => panic!("no reference for {}", other.name()),
            };
            rows.push(format!("{},{start},{value},{count}", g.key));
        }
    }
    rows
}

/// The `REF` answer lines the server prints at the end of a run, one
/// per query of [`queries`].
pub fn reference_lines(store: &DiskStore) -> Vec<String> {
    queries()
        .iter()
        .enumerate()
        .map(|(i, (_, s))| format!("REF {i} {}", reference(store, s).join(";")))
        .collect()
}

/// Compare a `CWQ1` reply with reference rows: same windows and
/// counts, values equal to 1e-9 relative.
pub fn matches_reference(reply: &[(String, u64, f64, u64)], reference: &str) -> Result<(), String> {
    let want: Vec<&str> = reference.split(';').filter(|r| !r.is_empty()).collect();
    if want.len() != reply.len() {
        return Err(format!(
            "{} points, reference has {}",
            reply.len(),
            want.len()
        ));
    }
    for ((g, start, value, count), row) in reply.iter().zip(want) {
        let f: Vec<&str> = row.split(',').collect();
        let (rg, rs, rv, rc) = (f[0], f[1], f[2], f[3]);
        let rv: f64 = rv.parse().map_err(|_| format!("bad reference row {row}"))?;
        let same = g == rg
            && start.to_string() == rs
            && count.to_string() == rc
            && ((value - rv).abs() <= 1e-9 * rv.abs().max(1.0));
        if !same {
            return Err(format!(
                "point {g},{start},{value},{count} vs reference {row}"
            ));
        }
    }
    Ok(())
}

/// `(group, window start ns, value, count)` rows of a `CWQ1` answer.
pub type Points = Vec<(String, u64, f64, u64)>;

/// Results of the closed-loop dashboard client.
#[derive(Debug, Default)]
pub struct DashLog {
    /// Round-trip latency per answered query, ms.
    pub lat_ms: Vec<f64>,
    /// Round-trip latency per class, ms.
    pub by_class: Vec<(Class, f64)>,
    /// Queries issued.
    pub issued: u64,
    /// Queries refused (shed, budget, bad request) or timed out.
    pub failed: u64,
    /// First reply of each query: `(index into [`queries`], points)`.
    pub first: Vec<(usize, Points)>,
    /// Wall seconds the loop ran.
    pub secs: f64,
    /// Refusal texts.
    pub errors: Vec<String>,
}

/// Issue the mix in a closed loop, one query outstanding, until
/// `until_ns`.
pub fn dashboard_loop(conn: &mut TcpStream, until_ns: u64) -> DashLog {
    let queries = queries();
    let cycle = mix_order();
    let mut log = DashLog::default();
    let t0 = Instant::now();
    'run: while unix_ns() < until_ns {
        for &i in &cycle {
            let (class, spec) = &queries[i];
            if unix_ns() >= until_ns {
                break 'run;
            }
            log.issued += 1;
            let q0 = Instant::now();
            match query(conn, spec) {
                Ok(Ok(reply)) => {
                    let ms = q0.elapsed().as_secs_f64() * 1e3;
                    log.lat_ms.push(ms);
                    log.by_class.push((*class, ms));
                    if !log.first.iter().any(|(k, _)| *k == i) {
                        log.first.push((i, reply.points));
                    }
                }
                Ok(Err(e)) => {
                    log.failed += 1;
                    log.errors.push(e);
                }
                Err(e) => {
                    log.failed += 1;
                    log.errors.push(e.to_string());
                    break 'run;
                }
            }
        }
    }
    log.secs = t0.elapsed().as_secs_f64();
    log
}

/// The `dashboards` workload.
pub fn run(seed: u64, seconds: u64, out: &mut Outcome) -> std::io::Result<()> {
    let dir = WorkDir::new("dashboards")?;
    let (mut rig, setup_s, setups) = setup_median(&dir, SETUPS, |store_dir| {
        populate_child(seed, store_dir)?;
        let shape = Shape {
            paced_nodes: FLEET as usize,
            relays: 1,
            flood_nodes: 0,
        };
        setup("dashboards", seed, store_dir, &shape)
    })?;
    let history = HISTORY_SAMPLES;
    let mut relay = TcpStream::connect(&rig.server.addr)?;
    relay.set_nodelay(true)?;
    let mut dash = TcpStream::connect(&rig.server.addr)?;
    dash.set_nodelay(true)?;
    dash.set_read_timeout(Some(QUERY_TIMEOUT))?;

    let ticks = (seconds.saturating_sub(3) as f64 / LIVE_CADENCE).max(3.0) as u64;
    let sched = Schedule {
        start_ns: unix_ns() + 300_000_000,
        base_secs: LIVE_BASE_SECS,
        cadence_secs: LIVE_CADENCE,
        nodes: FLEET as usize,
    };
    let plan = crate::server::ProbePlan {
        sched,
        ticks,
        probes: (0..FLEET as usize).map(|i| (i, i as u32)).collect(),
    };
    rig.server.cmd(&plan.to_line())?;
    let (cpu0, _, _) = rig.server.mark()?;
    let end_ns = sched.due_ns(0, ticks);
    let (paced, log) = std::thread::scope(|s| {
        // the relay is one thread, the dashboard client the other
        let h = s.spawn(|| {
            paced_phase(
                std::slice::from_mut(&mut relay),
                &mut rig.paced,
                &sched,
                ticks,
            )
        });
        // start querying with the first live report
        std::thread::sleep(Duration::from_nanos(
            sched.start_ns.saturating_sub(unix_ns()),
        ));
        let log = dashboard_loop(&mut dash, end_ns);
        (h.join().expect("relay panicked"), log)
    });
    let (cpu1, _, _) = rig.server.mark()?;
    let (drained, _, _) = rig.server.wait_samples(paced.numeric, 5_000)?;
    out.check(drained, "live samples did not drain within 5 s");

    let counted = cwq1_counts(&mut relay, &rig.keys, &rig.all_nodes).map(|c| c.0);
    drop((relay, dash));
    let fin = parse_finish(rig.server.finish()?);
    let r = |k: &str| fin.result.get(k).copied().unwrap_or(f64::NAN);
    let mut failed = check_ingest(out, &fin, paced.numeric, history, counted, &paced);
    let late = check_lateness(out, &paced);
    for (i, points) in &log.first {
        let refline = fin
            .other
            .iter()
            .find_map(|l| l.strip_prefix(&format!("REF {i} ")));
        match refline {
            Some(r) => {
                if let Err(e) = matches_reference(points, r) {
                    out.check(false, format!("query {i} differs from reference: {e}"));
                }
            }
            None => out.check(false, format!("no reference for query {i}")),
        }
    }
    let distinct = queries().len();
    out.check(
        log.first.len() == distinct,
        format!("only {} of {distinct} queries answered", log.first.len()),
    );
    for tier in ["raw", "10s", "5m", "1h"] {
        out.check(
            r(&format!("hit_{tier}")).is_finite(),
            format!("no query touched the {tier} tier's cached blocks"),
        );
    }
    for e in log.errors.iter().take(3) {
        out.check(false, format!("query failed: {e}"));
    }
    failed += log.failed;

    let q = Summary::of(&log.lat_ms, 0.99);
    out.check(
        q.tail_ok(),
        format!("too few queries for p99: {}", q.describe("ms")),
    );
    let vis = Summary::of(&fin.lat_ms, 0.99);
    let answered = log.lat_ms.len() as u64;
    let qps = answered as f64 / log.secs;
    let cpu_us_per_query = (cpu1 - cpu0) * 1e6 / answered.max(1) as f64;
    out.attempted = log.issued + paced.reports;
    out.failed = failed;
    out.metrics = end_to_end([setup_s, q.p50, q.tail, cpu_us_per_query, r("peak_rss_mib")]);
    let class_line = |c: Class| {
        let v: Vec<f64> = log
            .by_class
            .iter()
            .filter(|(k, _)| *k == c)
            .map(|(_, ms)| *ms)
            .collect();
        format!("{}: {}", c.name(), Summary::of(&v, 0.5).describe("ms"))
    };
    out.notes = vec![
        format!("setup_s runs: {setups:?}"),
        format!("query: {}", q.describe("ms")),
        class_line(Class::Panel),
        class_line(Class::Zoom),
        class_line(Class::Pctl),
        format!(
            "queries_per_s: {qps:.1} ({answered} answered in {:.2} s)",
            log.secs
        ),
        format!("server_cpu_us_per_query: {cpu_us_per_query:.1} (live ingest included)"),
        format!("ingest_visible: {}", vis.describe("ms")),
        format!("gen.lateness: {}", late.describe("ms")),
        format!(
            "cache hit ratio raw {:.3} 10s {:.3} 5m {:.3} 1h {:.3}",
            r("hit_raw"),
            r("hit_10s"),
            r("hit_5m"),
            r("hit_1h")
        ),
        format!(
            "history: {history} samples; executor shed {} errors {}",
            r("executor_shed"),
            r("executor_errors")
        ),
    ];
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_mostly_panels_with_every_class() {
        let cycle = mix_cycle();
        let count = |c: Class| cycle.iter().filter(|(k, _)| *k == c).count();
        assert!(count(Class::Panel) * 2 > cycle.len());
        assert!(count(Class::Zoom) >= 1 && count(Class::Pctl) >= 1);
        assert_eq!(class_specs().len(), 3);
        // every distinct query runs, one of them from the 1 h tier
        let order = mix_order();
        assert!((0..queries().len()).all(|i| order.contains(&i)));
        assert!(queries()
            .iter()
            .any(|(_, q)| q.window_nanos == 3_600 * SEC && q.agg.tier_serveable()));
    }

    #[test]
    fn reference_comparison_is_exact_on_counts() {
        let reply = vec![("all".to_string(), 0u64, 1.5f64, 3u64)];
        assert!(matches_reference(&reply, "all,0,1.5,3").is_ok());
        assert!(matches_reference(&reply, "all,0,1.5,4").is_err());
        assert!(matches_reference(&reply, "all,0,1.6,3").is_err());
        assert!(matches_reference(&reply, "all,0,1.5,3;all,10,1,1").is_err());
    }
}
