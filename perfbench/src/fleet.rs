//! The load generator: simulated nodes running real agents, relayed
//! over a few TCP connections on an open-loop schedule.
//!
//! Every node owns a seeded [`SyntheticProc`] and a real
//! [`cwx_monitor::Agent`] emitting binary `CWB1`; the agent's own
//! encoder is the per-node `WireEncoder`. A relay connection carries
//! the frames of many nodes, as a relay agent would; the server keeps
//! one decoder state per node on it.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use cwx_monitor::agent::{Agent, AgentConfig};
use cwx_monitor::monitor::Value;
use cwx_monitor::snapshot::Sensors;
use cwx_proc::synthetic::{SyntheticProc, SyntheticState};
use cwx_util::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::Rng;

use crate::util::unix_ns;

/// The monitor every probe reads back: it changes on every tick, so
/// consolidation never suppresses it.
pub const PROBE_KEY: &str = "uptime.secs";

/// Simulated time (seconds) where live traffic starts: one day in,
/// after the history the dashboards workload preloads.
pub const LIVE_BASE_SECS: f64 = 86_400.0;

/// Derive an independent stream seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    // splitmix64 finalizer
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One simulated compute node.
pub struct Node {
    /// Node id on the wire.
    pub id: u32,
    agent: Agent<SyntheticProc>,
    proc_: SyntheticProc,
    rng: StdRng,
    util: f64,
    last_secs: Option<f64>,
}

/// One agent tick's result.
pub struct Tick {
    /// The `CWB1` payload.
    pub payload: Vec<u8>,
    /// Numeric values in the report (what the store will hold).
    pub numeric: usize,
    /// Values the report carries.
    pub sent: usize,
    /// The probe monitor's value, when the report carries it.
    pub probe: Option<f64>,
    /// Wall time of `Agent::tick`, nanoseconds.
    pub tick_ns: u64,
}

impl Node {
    /// A node whose /proc contents and activity derive from `seed`.
    pub fn new(id: u32, seed: u64) -> Node {
        let mut rng = cwx_util::rng::rng(mix(seed, id as u64 + 1));
        let cpus = rng.random_range(1..=4usize);
        let state = SyntheticState {
            mem_total_kb: 1 << rng.random_range(20..=22u32),
            cpus: vec![[0; 4]; cpus],
            ..SyntheticState::default()
        };
        let proc_ = SyntheticProc::new(state);
        let cfg = AgentConfig {
            node: id,
            binary: true,
            ..AgentConfig::default()
        };
        let agent = Agent::new(proc_.clone(), cfg).expect("synthetic /proc always opens");
        let util = rng.random::<f64>();
        Node {
            id,
            agent,
            proc_,
            rng,
            util,
            last_secs: None,
        }
    }

    /// The node's /proc source (clones share its state).
    pub fn proc_source(&self) -> SyntheticProc {
        self.proc_.clone()
    }

    /// Keys of the monitors the agent offers per tick.
    pub fn monitor_keys(&mut self) -> Vec<String> {
        self.agent
            .registry_mut()
            .iter_mut()
            .map(|m| m.key.as_str().to_string())
            .collect()
    }

    /// Advance the node's activity to `secs` and run one agent tick
    /// stamped with that simulated time.
    pub fn tick(&mut self, secs: f64) -> Tick {
        let dt = self.last_secs.map_or(1.0, |l| (secs - l).max(0.0));
        self.last_secs = Some(secs);
        self.util = (self.util + self.rng.random_range(-0.2..0.2)).clamp(0.0, 1.0);
        let util = self.util;
        let free = self.rng.random_range(0.2..0.9);
        self.proc_.with_state(|s| {
            s.tick(dt, util);
            s.mem_free_kb = (s.mem_total_kb as f64 * free) as u64;
            s.load_one = util * s.cpus.len() as f64;
            s.load_five = 0.8 * s.load_five + 0.2 * s.load_one;
            s.load_fifteen = 0.95 * s.load_fifteen + 0.05 * s.load_one;
        });
        let sensors = Sensors {
            cpu_temp_c: 35.0 + 30.0 * util + self.rng.random_range(0.0..1.0),
            board_temp_c: 30.0 + 5.0 * util,
            fan_rpm: 3000.0 + 2000.0 * util,
            power_watts: 80.0 + 60.0 * util,
            udp_echo_ok: true,
        };
        let now = SimTime::ZERO + SimDuration::from_secs_f64(secs);
        let t0 = Instant::now();
        let out = self
            .agent
            .tick(now, sensors)
            .expect("synthetic /proc reads never fail");
        let tick_ns = t0.elapsed().as_nanos() as u64;
        let numeric = out
            .report
            .values
            .iter()
            .filter(|(_, v)| matches!(v, Value::Num(_)))
            .count();
        let probe = out
            .report
            .values
            .iter()
            .find(|(k, _)| k.as_str() == PROBE_KEY)
            .and_then(|(_, v)| v.as_num());
        Tick {
            sent: out.report.values.len(),
            payload: out.payload,
            numeric,
            probe,
            tick_ns,
        }
    }
}

/// The open-loop schedule: node `i` of `n` reports at simulated time
/// `base + k·cadence + phase(i)`, due on the wall clock at
/// `start_ns + (k·cadence + phase(i))`. Phases spread the fleet evenly
/// over one cadence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schedule {
    /// Wall instant (Unix ns) of simulated time `base_secs`.
    pub start_ns: u64,
    /// Simulated seconds at `start_ns`.
    pub base_secs: f64,
    /// Seconds between a node's reports.
    pub cadence_secs: f64,
    /// Nodes on the schedule.
    pub nodes: usize,
}

impl Schedule {
    /// Offset of node index `i` within a cadence, seconds.
    pub fn phase(&self, i: usize) -> f64 {
        self.cadence_secs * i as f64 / self.nodes as f64
    }

    /// Simulated time of report `k` of node index `i`.
    pub fn sim_secs(&self, i: usize, k: u64) -> f64 {
        self.base_secs + k as f64 * self.cadence_secs + self.phase(i)
    }

    /// Wall instant (Unix ns) report `k` of node index `i` is due.
    pub fn due_ns(&self, i: usize, k: u64) -> u64 {
        self.wall_of(self.sim_secs(i, k))
    }

    /// Wall instant (Unix ns) of a simulated time on this schedule.
    pub fn wall_of(&self, sim_secs: f64) -> u64 {
        self.start_ns + ((sim_secs - self.base_secs) * 1e9).round() as u64
    }

    /// Latency of an event seen at `seen_ns` for a report due at
    /// `due_ns`, milliseconds. Timed from the due instant, never from
    /// the send instant, so a stalled generator's delay is counted.
    pub fn latency_ms(due_ns: u64, seen_ns: u64) -> f64 {
        (seen_ns as f64 - due_ns as f64) / 1e6
    }
}

/// What one relay thread did on the paced schedule.
#[derive(Debug, Default)]
pub struct PacedLog {
    /// Reports sent.
    pub reports: u64,
    /// Numeric samples sent.
    pub numeric: u64,
    /// Send instant − due instant per report, milliseconds.
    pub lateness_ms: Vec<f64>,
    /// `Agent::tick` wall time per report, microseconds.
    pub tick_us: Vec<f64>,
    /// Last probe value sent, per node id (every paced node is a probe).
    pub last_probe: Vec<(u32, f64)>,
    /// Write errors (connection lost).
    pub write_errors: u64,
}

fn wait_until(due_ns: u64) {
    let now = unix_ns();
    if due_ns > now {
        std::thread::sleep(Duration::from_nanos(due_ns - now));
    }
}

/// Drive `nodes` (the indices `idx` on `sched`) for `ticks` cadences
/// over `conn`, on time, whatever the server does.
pub fn run_paced(
    conn: &mut TcpStream,
    nodes: &mut [Node],
    idx: &[usize],
    sched: &Schedule,
    ticks: u64,
) -> PacedLog {
    let mut log = PacedLog::default();
    let mut frame = Vec::with_capacity(4096);
    let mut last_probe: Vec<Option<f64>> = vec![None; nodes.len()];
    for k in 0..ticks {
        for (j, node) in nodes.iter_mut().enumerate() {
            let i = idx[j];
            let due = sched.due_ns(i, k);
            wait_until(due);
            log.lateness_ms
                .push(Schedule::latency_ms(due, unix_ns()).max(0.0));
            let t = node.tick(sched.sim_secs(i, k));
            log.tick_us.push(t.tick_ns as f64 / 1e3);
            log.reports += 1;
            log.numeric += t.numeric as u64;
            if t.probe.is_some() {
                last_probe[j] = t.probe;
            }
            frame.clear();
            cwx_net::frame::put_frame(&mut frame, &t.payload);
            if conn.write_all(&frame).is_err() {
                log.write_errors += 1;
            }
        }
    }
    log.last_probe = nodes
        .iter()
        .zip(last_probe)
        .filter_map(|(n, p)| p.map(|v| (n.id, v)))
        .collect();
    log
}

/// Frames recorded ahead of time for the flood phase.
#[derive(Debug, Default)]
pub struct Recorded {
    /// Length-prefixed frames, back to back, in send order.
    pub bytes: Vec<u8>,
    /// Frames recorded.
    pub frames: u64,
    /// Numeric samples they carry.
    pub numeric: u64,
}

/// Record `rounds` reports from each of `nodes`, round-major, with
/// simulated times starting at `from_secs`.
pub fn record(nodes: &mut [Node], rounds: u64, from_secs: f64, cadence: f64) -> Recorded {
    let mut rec = Recorded::default();
    for r in 0..rounds {
        for node in nodes.iter_mut() {
            let t = node.tick(from_secs + r as f64 * cadence);
            cwx_net::frame::put_frame(&mut rec.bytes, &t.payload);
            rec.frames += 1;
            rec.numeric += t.numeric as u64;
        }
    }
    rec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_spreads_nodes_over_one_cadence() {
        let s = Schedule {
            start_ns: 1_000_000_000,
            base_secs: 100.0,
            cadence_secs: 2.0,
            nodes: 4,
        };
        assert_eq!(s.sim_secs(0, 0), 100.0);
        assert_eq!(s.sim_secs(1, 0), 100.5);
        assert_eq!(s.sim_secs(3, 2), 105.5);
        assert_eq!(s.due_ns(1, 0), 1_500_000_000);
        assert_eq!(s.due_ns(3, 2), 6_500_000_000);
        assert_eq!(s.wall_of(s.sim_secs(2, 7)), s.due_ns(2, 7));
    }

    #[test]
    fn latency_counts_from_due_not_send() {
        // due at 1.000 s, the generator stalled and sent at 1.300 s,
        // the report became visible at 1.320 s: 320 ms, not 20 ms
        let due = 1_000_000_000;
        let sent = 1_300_000_000;
        let seen = 1_320_000_000;
        assert_eq!(Schedule::latency_ms(due, seen), 320.0);
        assert_eq!(Schedule::latency_ms(due, sent), 300.0);
    }

    #[test]
    fn nodes_are_a_pure_function_of_the_seed() {
        let run = |seed| {
            let mut n = Node::new(3, seed);
            (0..5)
                .map(|k| n.tick(10.0 + k as f64).payload)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn probe_key_is_sent_every_tick() {
        let mut n = Node::new(0, 1);
        for k in 0..10 {
            assert!(n.tick(k as f64).probe.is_some(), "tick {k}");
        }
    }
}
