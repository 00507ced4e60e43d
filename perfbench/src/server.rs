//! The process under test: a reactor `IngestServer` over a `DiskStore`,
//! alone in its own process so its CPU and RSS are its own.
//!
//! The benchmark drives it over stdin with one command per line and
//! reads one `@`-prefixed answer line per command from stdout. Besides
//! the program itself the process runs benchmark threads: the main
//! thread, which answers the commands (`WAIT` polls the ingest counters
//! every millisecond), and the probe pollers, one per store shard, which
//! call `Store::latest` for probe nodes whose report is due and timestamp
//! the first call that returns it. The server CPU reported leaves them
//! all out.

use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use clusterworx::actions::ControlPlane;
use clusterworx::ingest::{IngestConfig, IngestMode, IngestServer};
use clusterworx::server::Server;
use cwx_store::disk::{DiskStore, StoreConfig};
use cwx_store::{Resolution, Store};
use cwx_util::time::SimDuration;
use parking_lot::{Mutex, RwLock};

use crate::fleet::{Schedule, PROBE_KEY};
use crate::util::{dir_bytes, peak_rss_mib, process_cpu_ns, thread_cpu_ns, unix_ns};

/// First argument that turns the binary into the server process.
pub const SERVE_FLAG: &str = "--serve";

/// Thread name of the probe pollers.
const POLLER: &str = "pb-poller";

/// Which probes to watch and when their reports are due.
#[derive(Debug, Clone)]
pub struct ProbePlan {
    /// The generator's schedule.
    pub sched: Schedule,
    /// Reports per node on the schedule.
    pub ticks: u64,
    /// `(schedule index, node id)` of each probe.
    pub probes: Vec<(usize, u32)>,
}

impl ProbePlan {
    /// The `START` command line carrying this plan.
    pub fn to_line(&self) -> String {
        let probes: Vec<String> = self
            .probes
            .iter()
            .map(|(i, n)| format!("{i}:{n}"))
            .collect();
        format!(
            "START {} {} {} {} {} {}",
            self.sched.start_ns,
            self.sched.base_secs,
            self.sched.cadence_secs,
            self.sched.nodes,
            self.ticks,
            probes.join(",")
        )
    }

    fn parse(words: &[&str]) -> Option<ProbePlan> {
        let sched = Schedule {
            start_ns: words.first()?.parse().ok()?,
            base_secs: words.get(1)?.parse().ok()?,
            cadence_secs: words.get(2)?.parse().ok()?,
            nodes: words.get(3)?.parse().ok()?,
        };
        let ticks = words.get(4)?.parse().ok()?;
        let probes = words
            .get(5)?
            .split(',')
            .map(|p| {
                let (i, n) = p.split_once(':')?;
                Some((i.parse().ok()?, n.parse().ok()?))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(ProbePlan {
            sched,
            ticks,
            probes,
        })
    }
}

/// The probes of `plan` split by the store shard that holds them, one
/// plan per shard with probes. A segment flush holds its shard's lock,
/// so a single poller waiting on it would see every other shard's
/// reports late. Mirrors `DiskStore`'s placement: node group modulo
/// shard count.
fn split_by_shard(plan: &ProbePlan, cfg: &StoreConfig) -> Vec<ProbePlan> {
    let mut parts: Vec<ProbePlan> = (0..cfg.n_shards)
        .map(|_| ProbePlan {
            probes: Vec::new(),
            ..plan.clone()
        })
        .collect();
    for &(i, node) in &plan.probes {
        parts[(node / cfg.nodes_per_group) as usize % cfg.n_shards]
            .probes
            .push((i, node));
    }
    parts.retain(|p| !p.probes.is_empty());
    parts
}

/// Add this thread's CPU time since the last call to `cpu_ns`.
fn publish_cpu(cpu_ns: &AtomicU64, published: &mut u64) {
    let now = thread_cpu_ns();
    cpu_ns.fetch_add(now - *published, Ordering::Relaxed);
    *published = now;
}

/// Probe latencies (ms, due → visible) and the reports never seen.
///
/// The poller adds its own CPU time to `cpu_ns` so the server's CPU can
/// be reported without the benchmark's share.
fn poll_probes(
    store: &DiskStore,
    plan: &ProbePlan,
    stop: &AtomicBool,
    cpu_ns: &AtomicU64,
) -> (Vec<f64>, u64) {
    let mut next_k = vec![0u64; plan.probes.len()];
    let mut lat = Vec::with_capacity(plan.probes.len() * plan.ticks as usize);
    let mut published = 0;
    while !stop.load(Ordering::Relaxed) {
        publish_cpu(cpu_ns, &mut published);
        let now = unix_ns();
        let mut pending = false;
        for (p, &(i, node)) in plan.probes.iter().enumerate() {
            let k = next_k[p];
            if k >= plan.ticks {
                continue;
            }
            pending = true;
            let due = plan.sched.due_ns(i, k);
            if now < due {
                continue;
            }
            let want = plan.sched.sim_secs(i, k);
            if let Some(s) = store.latest(node, PROBE_KEY) {
                if s.time.as_secs_f64() >= want - 1e-6 {
                    lat.push(Schedule::latency_ms(due, now));
                    next_k[p] += 1;
                }
            }
        }
        if !pending {
            break;
        }
        std::thread::sleep(Duration::from_micros(250));
    }
    publish_cpu(cpu_ns, &mut published);
    let missed = next_k.iter().map(|&k| plan.ticks - k).sum();
    (lat, missed)
}

/// A reactor `IngestServer` over `store`, lanes matching its shards.
pub fn start_ingest(store: Arc<DiskStore>) -> std::io::Result<IngestServer> {
    let cfg = store.config().clone();
    let server = Arc::new(RwLock::new(Server::new(
        "perfbench",
        SimDuration::from_secs(5),
        1,
        SimDuration::from_secs(3600),
    )));
    let control = Arc::new(Mutex::new(ControlPlane::new(1024)));
    IngestServer::start(
        IngestConfig {
            mode: IngestMode::Reactor,
            n_lanes: cfg.n_shards,
            nodes_per_group: cfg.nodes_per_group,
            ..IngestConfig::default()
        },
        server,
        Some(store),
        control,
        Instant::now(),
    )
}

struct Args {
    workload: String,
    dir: PathBuf,
}

fn parse_args(args: &[String]) -> Option<Args> {
    Some(Args {
        workload: args.first()?.clone(),
        dir: PathBuf::from(args.get(1)?),
    })
}

fn reply(line: String) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "@{line}");
    let _ = out.flush();
}

/// Entry point of the server process; returns the exit code.
pub fn main(args: &[String]) -> i32 {
    let Some(a) = parse_args(args) else {
        eprintln!("usage: perfbench --serve <workload> <store-dir>");
        return 2;
    };
    let store = match DiskStore::open(&a.dir, StoreConfig::default()) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("perfbench server: cannot open store: {e}");
            return 1;
        }
    };
    let ingest = match start_ingest(Arc::clone(&store)) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("perfbench server: cannot start ingest: {e}");
            return 1;
        }
    };
    reply(format!("READY {}", ingest.addr()));

    let stop = Arc::new(AtomicBool::new(false));
    let poller_cpu = Arc::new(AtomicU64::new(0));
    // server CPU seconds: the process's, less the probe pollers' and
    // this (command) thread's; called on this thread only
    let server_cpu = {
        let poller_cpu = Arc::clone(&poller_cpu);
        move || {
            let bench = poller_cpu.load(Ordering::Relaxed) + thread_cpu_ns();
            process_cpu_ns().saturating_sub(bench) as f64 / 1e9
        }
    };
    let mut pollers: Vec<std::thread::JoinHandle<(Vec<f64>, u64)>> = Vec::new();
    let mut probes: Vec<u32> = Vec::new();
    let cache0 = store.cache_stats();
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.first().copied() {
            Some("START") => {
                let Some(plan) = ProbePlan::parse(&words[1..]) else {
                    reply("ERR bad START".into());
                    continue;
                };
                probes = plan.probes.iter().map(|&(_, n)| n).collect();
                for part in split_by_shard(&plan, store.config()) {
                    let store = Arc::clone(&store);
                    let stop = Arc::clone(&stop);
                    let cpu = Arc::clone(&poller_cpu);
                    pollers.push(
                        std::thread::Builder::new()
                            .name(POLLER.into())
                            .spawn(move || poll_probes(&store, &part, &stop, &cpu))
                            .expect("spawn a probe poller"),
                    );
                }
                reply("OK".into());
            }
            Some("MARK") => reply(format!(
                "MARK {} {} {}",
                server_cpu(),
                ingest.stats().samples,
                unix_ns()
            )),
            Some("WAIT") => {
                let want: u64 = words.get(1).and_then(|w| w.parse().ok()).unwrap_or(0);
                let limit_ms: u64 = words.get(2).and_then(|w| w.parse().ok()).unwrap_or(0);
                let t0 = Instant::now();
                let mut got = ingest.stats().samples;
                while got < want && t0.elapsed() < Duration::from_millis(limit_ms) {
                    std::thread::sleep(Duration::from_millis(1));
                    got = ingest.stats().samples;
                }
                reply(format!("WAITED {} {} {got}", got >= want, unix_ns()));
            }
            Some("FINISH") => {
                stop.store(true, Ordering::Relaxed);
                let (mut lat, mut missed) = (Vec::new(), 0);
                for h in pollers.drain(..) {
                    let (l, m) = h.join().expect("probe poller panicked");
                    lat.extend(l);
                    missed += m;
                }
                let cpu = server_cpu();
                finish(
                    &store,
                    ingest,
                    &probes,
                    &lat,
                    missed,
                    &cache0,
                    &a.workload,
                    cpu,
                );
                return 0;
            }
            _ => break,
        }
    }
    stop.store(true, Ordering::Relaxed);
    for h in pollers {
        let _ = h.join();
    }
    ingest.shutdown();
    0
}

#[allow(clippy::too_many_arguments)]
fn finish(
    store: &Arc<DiskStore>,
    ingest: IngestServer,
    probes: &[u32],
    lat: &[f64],
    missed: u64,
    cache0: &cwx_store::cache::CacheStats,
    workload: &str,
    cpu: f64,
) {
    let stats = ingest.stats();
    let flush = ingest.latency();
    let exec = ingest.query_stats().unwrap_or_default();
    ingest.shutdown();
    let cache = store.cache_stats();
    let hit_ratio = |r: Resolution| {
        let (a, b) = (cache.tier(r), cache0.tier(r));
        let (h, m) = (a.hits - b.hits, a.misses - b.misses);
        if h + m == 0 {
            f64::NAN
        } else {
            h as f64 / (h + m) as f64
        }
    };
    let lat: Vec<String> = lat.iter().map(|v| format!("{v}")).collect();
    reply(format!("LAT {}", lat.join(" ")));
    for &node in probes {
        if let Some(s) = store.latest(node, PROBE_KEY) {
            reply(format!("LAST {node} {} {}", s.time.as_secs_f64(), s.value));
        }
    }
    if workload == "dashboards" {
        for line in crate::dash::reference_lines(store) {
            reply(line);
        }
    }
    reply(format!(
        "RESULT missed={missed} total_samples={} volatile={} degraded={} ingested_samples={} \
         frames={} evicted={} decode_errors={} backpressure_trips={} flush_p50_us={} \
         flush_p99_us={} executor_shed={} executor_errors={} queries_shed={} cpu_s={cpu} \
         peak_rss_mib={} disk_bytes={} hit_raw={} hit_10s={} hit_5m={} hit_1h={}",
        store.total_samples(),
        store.volatile_samples(),
        u8::from(store.degraded()),
        stats.samples,
        stats.frames,
        stats.evicted,
        stats.decode_errors,
        stats.backpressure_trips,
        flush.p50_us,
        flush.p99_us,
        exec.shed,
        exec.errors,
        stats.queries_shed,
        peak_rss_mib(),
        dir_bytes(store.dir()),
        hit_ratio(Resolution::Raw),
        hit_ratio(Resolution::TenSeconds),
        hit_ratio(Resolution::FiveMinutes),
        hit_ratio(Resolution::OneHour),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_plan_round_trips_through_its_command_line() {
        let plan = ProbePlan {
            sched: Schedule {
                start_ns: 1_700_000_000_123_456_789,
                base_secs: 86_400.0,
                cadence_secs: 1.0,
                nodes: 300,
            },
            ticks: 12,
            probes: vec![(0, 0), (7, 7), (299, 1299)],
        };
        let line = plan.to_line();
        let words: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(words[0], "START");
        let back = ProbePlan::parse(&words[1..]).expect("parses");
        assert_eq!(back.sched, plan.sched);
        assert_eq!(back.ticks, 12);
        assert_eq!(back.probes, plan.probes);
    }

    #[test]
    fn probes_split_by_store_shard() {
        let plan = ProbePlan {
            sched: Schedule {
                start_ns: 0,
                base_secs: 0.0,
                cadence_secs: 2.0,
                nodes: 100,
            },
            ticks: 3,
            probes: (0..100).map(|i| (i, i as u32)).collect(),
        };
        let cfg = StoreConfig::default();
        let parts = split_by_shard(&plan, &cfg);
        assert_eq!(parts.len(), cfg.n_shards);
        let mut all: Vec<(usize, u32)> = parts.iter().flat_map(|p| p.probes.clone()).collect();
        all.sort();
        assert_eq!(all, plan.probes);
        assert!(parts.iter().all(|p| p.ticks == 3));
    }
}
