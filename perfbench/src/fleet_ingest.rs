//! `fleet-ingest`: open-loop agent traffic into the reactor, then a
//! flood of recorded frames as fast as TCP accepts them. No queries.

use std::net::TcpStream;
use std::time::Instant;

use cwx_store::{AggFunc, QueryGroup, QuerySpec};
use cwx_util::time::SimTime;

use crate::client::{kv, query, ServerProc};
use crate::fleet::{self, Node, PacedLog, Recorded, Schedule, LIVE_BASE_SECS};
use crate::stats::{median, Summary};
use crate::util::{end_to_end, unix_ns, Outcome, WorkDir};

/// Nodes on the paced schedule.
pub const PACED_NODES: usize = 300;
/// Seconds between one node's reports.
pub const CADENCE_SECS: f64 = 2.0;
/// Nodes whose recorded frames make the flood.
pub const FLOOD_NODES: usize = 300;
/// Reports each flood node recorded per flood part.
pub const FLOOD_ROUNDS: u64 = 10;
/// Flood parts, sent one after another, each drained before the next.
/// The reported rate is the median part's: a part's time is mostly the
/// segment flushes and compactions it triggers, and on a VM the
/// deletes among them wait on the host's discard of freed blocks, whose
/// speed comes and goes.
pub const FLOOD_PARTS: usize = 10;
/// Relay connections (and generator threads).
pub const RELAYS: usize = 2;
/// A report must be visible within this.
pub const LIMIT_MS: f64 = 1000.0;
/// A generator later than this at p99 invalidates the run.
pub const MAX_LATENESS_MS: f64 = 50.0;
/// Set-ups per run; the median is reported.
pub const SETUPS: usize = 7;

/// Everything set-up builds before the clock starts.
pub struct Rig {
    /// The server process.
    pub server: ServerProc,
    /// Paced nodes per relay, with their schedule indices.
    pub paced: Vec<(Vec<Node>, Vec<usize>)>,
    /// Recorded flood frames per part, per relay.
    pub flood: Vec<Vec<Recorded>>,
    /// Every monitor key an agent offers.
    pub keys: Vec<String>,
    /// Node ids on the wire.
    pub all_nodes: Vec<u32>,
}

/// How many nodes a rig drives, over how many relays.
pub struct Shape {
    /// Nodes on the paced schedule.
    pub paced_nodes: usize,
    /// Relay connections.
    pub relays: usize,
    /// Nodes whose recorded frames make the flood (0: no flood).
    pub flood_nodes: usize,
}

/// Simulated time (seconds) of the first flood report.
const FLOOD_FROM_SECS: f64 = LIVE_BASE_SECS + 10_000.0;

/// Build the rig: server (with its store), agents, recorded frames.
pub fn setup(
    workload: &str,
    seed: u64,
    dir: &std::path::Path,
    shape: &Shape,
) -> std::io::Result<Rig> {
    let Shape {
        paced_nodes,
        relays,
        flood_nodes,
    } = *shape;
    // the server builds its store while the agents are constructed
    let server = ServerProc::spawn(workload, dir)?;
    let mut paced: Vec<(Vec<Node>, Vec<usize>)> =
        (0..relays).map(|_| (Vec::new(), Vec::new())).collect();
    for i in 0..paced_nodes {
        let r = &mut paced[i % relays];
        r.0.push(Node::new(i as u32, seed));
        r.1.push(i);
    }
    let mut flood: Vec<Vec<Recorded>> = (0..FLOOD_PARTS).map(|_| Vec::new()).collect();
    for r in 0..relays {
        let mut nodes: Vec<Node> = (0..flood_nodes)
            .filter(|i| i % relays == r)
            .map(|i| Node::new((paced_nodes + i) as u32, seed))
            .collect();
        for (p, part) in flood.iter_mut().enumerate() {
            let from = FLOOD_FROM_SECS + (p as u64 * FLOOD_ROUNDS) as f64 * CADENCE_SECS;
            part.push(fleet::record(&mut nodes, FLOOD_ROUNDS, from, CADENCE_SECS));
        }
    }
    let keys = Node::new(0, seed).monitor_keys();
    let all_nodes = (0..(paced_nodes + flood_nodes) as u32).collect();
    Ok(Rig {
        server,
        paced,
        flood,
        keys,
        all_nodes,
    })
}

/// Set up `reps` times, each on a fresh store directory under `dir`;
/// keep the last rig and return it with the median set-up time.
/// Discarded rigs are torn down outside the timed part.
pub fn setup_median(
    dir: &WorkDir,
    reps: usize,
    mut build: impl FnMut(&std::path::Path) -> std::io::Result<Rig>,
) -> std::io::Result<(Rig, f64, Vec<f64>)> {
    let mut times = Vec::new();
    for i in 0..reps {
        let store_dir = dir.path().join(format!("setup-{i}"));
        let t0 = Instant::now();
        let r = build(&store_dir)?;
        times.push(t0.elapsed().as_secs_f64());
        if i + 1 == reps {
            return Ok((r, median(&times), times));
        }
        r.server.quit()?;
        std::fs::remove_dir_all(&store_dir)?;
    }
    unreachable!("reps is at least one")
}

/// Run the paced phase on every relay at once.
pub fn paced_phase(
    conns: &mut [TcpStream],
    paced: &mut [(Vec<Node>, Vec<usize>)],
    sched: &Schedule,
    ticks: u64,
) -> PacedLog {
    let logs: Vec<PacedLog> = std::thread::scope(|s| {
        let mut work = conns.iter_mut().zip(paced.iter_mut());
        let (c0, (n0, i0)) = work.next().expect("one relay");
        let others: Vec<_> = work
            .map(|(c, (n, i))| s.spawn(move || fleet::run_paced(c, n, i, sched, ticks)))
            .collect();
        let mut logs = vec![fleet::run_paced(c0, n0, i0, sched, ticks)];
        logs.extend(
            others
                .into_iter()
                .map(|h| h.join().expect("relay panicked")),
        );
        logs
    });
    let mut all = PacedLog::default();
    for l in logs {
        all.reports += l.reports;
        all.numeric += l.numeric;
        all.lateness_ms.extend(l.lateness_ms);
        all.tick_us.extend(l.tick_us);
        all.last_probe.extend(l.last_probe);
        all.write_errors += l.write_errors;
    }
    all
}

/// Write each relay's recorded frames as fast as TCP accepts them,
/// from one thread, relay after relay: the server, not a second writer,
/// gets the other core.
pub fn flood_phase(conns: &mut [TcpStream], flood: &[Recorded]) -> u64 {
    use std::io::Write;
    conns
        .iter_mut()
        .zip(flood)
        .map(|(c, rec)| u64::from(c.write_all(&rec.bytes).is_err()))
        .sum()
}

/// `n` connections to `addr`, Nagle off.
pub fn connect(addr: &str, n: usize) -> std::io::Result<Vec<TcpStream>> {
    (0..n)
        .map(|_| {
            let c = TcpStream::connect(addr)?;
            c.set_nodelay(true)?;
            Ok(c)
        })
        .collect()
}

/// `CWQ1` count queries of every key over `nodes`, summed: `(raw,
/// tier)`. The raw count folds one 2^47 ns window (not a multiple of
/// any tier width, so every stored sample is scanned); the tier count
/// folds one-day windows, which the store answers from its one-hour
/// tier plus the raw suffix past the last compaction.
pub fn cwq1_counts(
    conn: &mut TcpStream,
    keys: &[String],
    nodes: &[u32],
) -> Result<(u64, u64), String> {
    let day = 86_400 * 1_000_000_000u64;
    let mut totals = [0u64; 2];
    for key in keys {
        for (total, window) in totals.iter_mut().zip([1u64 << 47, day]) {
            let spec = QuerySpec {
                monitor: key.clone(),
                from: SimTime::ZERO,
                to: SimTime::from_nanos((1 << 47) - 1),
                window_nanos: window,
                agg: AggFunc::Count,
                groups: vec![QueryGroup {
                    key: "all".into(),
                    nodes: nodes.to_vec(),
                }],
                max_scan: 0,
            };
            let reply = query(conn, &spec)
                .map_err(|e| format!("count query on {key}: {e}"))?
                .map_err(|e| format!("count query on {key} refused: {e}"))?;
            *total += reply.points.iter().map(|p| p.3).sum::<u64>();
        }
    }
    Ok((totals[0], totals[1]))
}

/// What the server reported at the end of a run.
#[derive(Debug, Default)]
pub struct Finish {
    /// Probe latencies (ms).
    pub lat_ms: Vec<f64>,
    /// `(node, time, value)` of each probe's latest sample.
    pub last: Vec<(u32, f64, f64)>,
    /// `RESULT` fields.
    pub result: std::collections::BTreeMap<String, f64>,
    /// Other answer lines (reference answers).
    pub other: Vec<String>,
}

/// Parse the `FINISH` answer lines.
pub fn parse_finish(lines: Vec<String>) -> Finish {
    let mut f = Finish::default();
    for l in lines {
        if let Some(rest) = l.strip_prefix("LAT") {
            f.lat_ms = rest
                .split_whitespace()
                .filter_map(|v| v.parse().ok())
                .collect();
        } else if let Some(rest) = l.strip_prefix("LAST ") {
            let w: Vec<f64> = rest
                .split_whitespace()
                .filter_map(|v| v.parse().ok())
                .collect();
            if let [n, t, v] = w[..] {
                f.last.push((n as u32, t, v));
            }
        } else if let Some(rest) = l.strip_prefix("RESULT ") {
            f.result = kv(rest);
        } else {
            f.other.push(l);
        }
    }
    f
}

/// Checks common to both ingest workloads: durability (the server's
/// ingested count, the store's `total_samples` less its `history`, a
/// `CWQ1` raw count), probe values, counters that must stay zero.
/// Returns the operations that failed; missing samples count once.
pub fn check_ingest(
    out: &mut Outcome,
    fin: &Finish,
    expected_samples: u64,
    history: u64,
    cwq1_raw: Result<u64, String>,
    paced: &PacedLog,
) -> u64 {
    let r = |k: &str| fin.result.get(k).copied().unwrap_or(f64::NAN);
    let live = r("ingested_samples") as u64;
    out.check(
        live == expected_samples,
        format!("ingested {live} samples, sent {expected_samples}"),
    );
    let stored = (r("total_samples") as u64).saturating_sub(history);
    out.check(
        stored == expected_samples,
        format!("store holds {stored} live samples, sent {expected_samples}"),
    );
    out.check(r("volatile") == 0.0, "store fell back to volatile ingest");
    out.check(r("degraded") == 0.0, "store degraded");
    match cwq1_raw {
        Ok(n) => out.check(
            n.saturating_sub(history) == expected_samples,
            format!(
                "CWQ1 raw count saw {} live samples, sent {expected_samples}",
                n.saturating_sub(history)
            ),
        ),
        Err(e) => out.check(false, e),
    }
    for &(node, sent) in &paced.last_probe {
        let got = fin.last.iter().find(|l| l.0 == node).map(|l| l.2);
        out.check(
            got == Some(sent),
            format!("probe node {node}: store holds {got:?}, last sent {sent}"),
        );
    }
    let late = fin.lat_ms.iter().filter(|&&l| l > LIMIT_MS).count() as u64;
    let missed = r("missed") as u64;
    out.check(
        missed == 0,
        format!("{missed} probe reports never became visible"),
    );
    out.check(r("evicted") == 0.0, "a relay connection was evicted");
    out.check(r("decode_errors") == 0.0, "frames failed to decode");
    out.check(paced.write_errors == 0, "relay writes failed");
    let not_durable = u64::from(live.min(stored) < expected_samples);
    late + missed
        + r("evicted") as u64
        + r("decode_errors") as u64
        + paced.write_errors
        + not_durable
}

/// Flag a generator that fell behind: its latencies are not a
/// measurement of the system.
pub fn check_lateness(out: &mut Outcome, paced: &PacedLog) -> Summary {
    let late = Summary::of(&paced.lateness_ms, 0.99);
    out.check(
        late.tail <= MAX_LATENESS_MS,
        format!(
            "generator fell behind its schedule (lateness p99 {:.1} ms > {MAX_LATENESS_MS} ms): \
             run invalid",
            late.tail
        ),
    );
    late
}

/// The `fleet-ingest` workload.
pub fn run(seed: u64, seconds: u64, out: &mut Outcome) -> std::io::Result<()> {
    let dir = WorkDir::new("fleet-ingest")?;
    let shape = Shape {
        paced_nodes: PACED_NODES,
        relays: RELAYS,
        flood_nodes: FLOOD_NODES,
    };
    let (mut rig, setup_s, setups) = setup_median(&dir, SETUPS, |store_dir| {
        setup("fleet-ingest", seed, store_dir, &shape)
    })?;
    let mut conns = connect(&rig.server.addr, RELAYS)?;

    // paced phase: everything but ~24 s (set-up, flood, drain, checks);
    // at 40 s that is 16 s, short of any shard's first compaction,
    // whose stalls made the tail spread past the bound across seeds.
    // The flood then starts from the same memtable state on every
    // seed: seven of its ten parts trigger compactions, and the median
    // part is one of them.
    let ticks = ((seconds.saturating_sub(24) as f64 / CADENCE_SECS) as u64).max(3);
    let sched = Schedule {
        start_ns: unix_ns() + 300_000_000,
        base_secs: LIVE_BASE_SECS,
        cadence_secs: CADENCE_SECS,
        nodes: PACED_NODES,
    };
    // every paced node is a probe
    let plan = crate::server::ProbePlan {
        sched,
        ticks,
        probes: (0..PACED_NODES).map(|i| (i, i as u32)).collect(),
    };
    rig.server.cmd(&plan.to_line())?;
    let (cpu0, s0, _) = rig.server.mark()?;
    let paced = paced_phase(&mut conns, &mut rig.paced, &sched, ticks);
    let (drained, _, _) = rig.server.wait_samples(paced.numeric, 5_000)?;
    out.check(drained, "paced samples did not drain within 5 s");
    let (cpu1, s1, _) = rig.server.mark()?;

    // flood phase: parts back to back, each drained before the next
    let mut expected = paced.numeric;
    let (mut flood_numeric, mut flood_frames, mut flood_errors) = (0u64, 0u64, 0u64);
    let (mut rates, mut flood_s) = (Vec::new(), 0.0);
    for part in &rig.flood {
        let numeric: u64 = part.iter().map(|r| r.numeric).sum();
        expected += numeric;
        let f0 = unix_ns();
        flood_errors += flood_phase(&mut conns, part);
        let (flooded, f1, _) = rig.server.wait_samples(expected, 30_000)?;
        out.check(flooded, "flood did not drain within 30 s");
        let secs = (f1 - f0) as f64 / 1e9;
        rates.push(numeric as f64 / secs);
        flood_s += secs;
        flood_numeric += numeric;
        flood_frames += part.iter().map(|r| r.frames).sum::<u64>();
    }
    out.check(flood_errors == 0, "flood writes failed");
    let (cpu2, s2, _) = rig.server.mark()?;

    let counted = cwq1_counts(&mut conns[0], &rig.keys, &rig.all_nodes);
    drop(conns);
    let fin = parse_finish(rig.server.finish()?);
    let tier_gap = counted
        .as_ref()
        .map_or(0, |&(raw, tier)| raw as i64 - tier as i64);
    let failed = check_ingest(out, &fin, expected, 0, counted.map(|c| c.0), &paced) + flood_errors;
    let late = check_lateness(out, &paced);

    let vis = Summary::of(&fin.lat_ms, 0.99);
    out.check(
        vis.tail_ok(),
        format!("too few probe samples for p99: {}", vis.describe("ms")),
    );
    let tick = Summary::of(&paced.tick_us, 0.99);
    let r = |k: &str| fin.result.get(k).copied().unwrap_or(f64::NAN);
    // server CPU over everything ingested: every flush and compaction
    // the data causes lies inside the window
    let cpu_us_per_sample = (cpu2 - cpu0) * 1e6 / (s2 - s0).max(1) as f64;
    let paced_cpu_us = (cpu1 - cpu0) * 1e6 / (s1 - s0).max(1) as f64;
    let peak = median(&rates);
    out.attempted = paced.reports + flood_frames;
    out.failed = failed;
    out.metrics = end_to_end([
        setup_s,
        vis.p50,
        vis.tail,
        cpu_us_per_sample,
        r("peak_rss_mib"),
    ]);
    out.notes = vec![
        format!("setup_s runs: {setups:?}"),
        format!("ingest_visible: {}", vis.describe("ms")),
        format!(
            "ingest_peak_samples_per_s: {peak:.0}, median of parts {rates:.0?} \
             ({flood_numeric} samples in {flood_s:.3} s in all)"
        ),
        format!(
            "server_cpu_us_per_sample: {cpu_us_per_sample:.3} over {} samples; paced phase alone \
             {paced_cpu_us:.3} over {} samples, offered {:.0}/s",
            s2 - s0,
            s1 - s0,
            paced.numeric as f64 / (ticks as f64 * CADENCE_SECS)
        ),
        format!("agent_tick: {}", tick.describe("us")),
        format!("gen.lateness: {}", late.describe("ms")),
        format!("peak_rss_mib: {}", r("peak_rss_mib")),
        format!("cwx-store.tier_count_gap: {tier_gap} samples a one-day CWQ1 count misses"),
        format!(
            "server: flush p50 {} us p99 {} us, backpressure_trips {}, disk {} B",
            r("flush_p50_us"),
            r("flush_p99_us"),
            r("backpressure_trips"),
            r("disk_bytes")
        ),
    ];
    Ok(())
}
