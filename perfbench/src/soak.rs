//! The management-plane inputs of the traced run: the shipped
//! `soak.toml` scenario (400 nodes, 2,600 s + 800 s settle), unmodified
//! but for its seed, replayed through
//! `cwx_chaos::run_campaign_sim_observed` with a pause at a fixed step
//! of simulated time to time each step on the wall clock. The pauses
//! are fingerprint-neutral, so the replay ends in the audit hash
//! `run_scenario` records for the same seed.

use std::time::Instant;

use cwx_chaos::{campaign_config, run_campaign_sim_observed};
use cwx_scenario::{Manifest, Mode};

use crate::trace::Tracer;

/// The shipped manifest, compiled in so the benchmark runs it as is.
pub const SOAK_TOML: &str = include_str!("../../examples/scenarios/soak.toml");

/// Scenario seeds the benchmark uses, with the audit hash each one must
/// reproduce (recorded from `run_scenario`'s `result.json`). A benchmark
/// seed `n` runs `SEEDS[n % SEEDS.len()]`.
pub const SEEDS: [(u64, u64); 10] = [
    (4001, 0xceade77ce20e4e56),
    (4002, 0x7bec3578e8db309c),
    (4003, 0x719caa9763827a2a),
    (4004, 0x567c1bd2a0d94270),
    (4005, 0xdb176533d71f32cd),
    (4006, 0xdb176533d71f32cd),
    (4007, 0x9837e541fba6aad1),
    (4008, 0x1224c0f0fd787e38),
    (4009, 0x06cfd154b9800798),
    (4010, 0xdb176533d71f32cd),
];

/// The manifest with its seed replaced.
pub fn manifest(seed: u64) -> Manifest {
    let mut m = Manifest::parse(SOAK_TOML).expect("the shipped soak manifest parses");
    m.set_seed(seed);
    m
}

/// What the observed replay measured.
pub struct Observed {
    /// Wall milliseconds per step.
    pub step_ms: Vec<f64>,
    /// Events the simulation executed.
    pub events: u64,
    /// Most events pending at any pause.
    pub pending_peak: usize,
    /// Audit hash of the replay.
    pub audit_hash: u64,
    /// Audit records written (what `result.json` reports as
    /// `audit.records`).
    pub audit_records: u64,
    /// Wall seconds of the whole replay.
    pub wall_s: f64,
}

/// Replay the campaign with pauses every `step_ns` simulated
/// nanoseconds, each step a span under `parent`.
pub fn observe_every(m: &Manifest, tracer: &mut Tracer, parent: u64, step_ns: u64) -> Observed {
    let Mode::Chaos(spec) = &m.mode else {
        panic!("soak.toml is a chaos scenario")
    };
    let campaign = &spec.campaign;
    let mut cfg = campaign_config(campaign);
    cfg.rack_network = spec.rack_network;
    let total_ns = ((campaign.duration_secs + campaign.settle_secs) * 1e9) as u64;
    let at: Vec<u64> = (1..=total_ns / step_ns).map(|k| k * step_ns).collect();
    let mut step_ms = Vec::with_capacity(at.len());
    let mut pending_peak = 0usize;
    let t0 = Instant::now();
    let mut last = Instant::now();
    let mut span = tracer.begin("cwx-util.sim.step", parent, 1);
    let (report, sim) = run_campaign_sim_observed(
        campaign,
        cfg,
        spec.policy.to_policy(),
        &at,
        &mut |t, sim| {
            let now = Instant::now();
            step_ms.push((now - last).as_secs_f64() * 1e3);
            last = now;
            pending_peak = pending_peak.max(sim.events_pending());
            tracer.end(span);
            span = tracer.begin("cwx-util.sim.step", parent, t / step_ns + 1);
        },
    );
    tracer.end(span);
    Observed {
        step_ms,
        events: sim.events_executed(),
        pending_peak,
        audit_hash: report.audit_hash,
        audit_records: report.audit_len as u64,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}
