//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! perfbench --workload <fleet-ingest|dashboards> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload on inputs generated from the seed, checks the
//! program's outputs, prints human lines and, last, one JSON result
//! line. `--trace 0` reports the end-to-end metrics `BENCHMARK.json`
//! lists; `--trace 1` runs the traced layer sweep and reports the
//! per-layer metrics. Exits non-zero when a check fails.

mod client;
mod dash;
mod fleet;
mod fleet_ingest;
mod layers;
mod server;
mod soak;
mod stats;
mod trace;
mod util;

use util::Outcome;

/// The workloads this binary runs. The management plane (the soak
/// scenario) is measured only by the traced run: as a timed workload on
/// a 2-core VM its CPU-bound figures spread across seeds past the
/// largest bound a metric may have (0.25).
pub const WORKLOADS: [&str; 2] = ["fleet-ingest", "dashboards"];

#[derive(Debug, PartialEq)]
struct Opts {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (known: {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".into());
    }
    Ok(Opts {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some(server::SERVE_FLAG) => std::process::exit(server::main(&args[2..])),
        Some(dash::POPULATE_FLAG) => std::process::exit(dash::populate_main(&args[2..])),
        _ => {}
    }
    let opts = match parse_opts(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let bench = match std::fs::read_to_string("BENCHMARK.json") {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perfbench: run from the repository root (BENCHMARK.json: {e})");
            std::process::exit(2);
        }
    };
    let section = if opts.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let declared = match util::declared_metrics(&bench, section) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = Outcome::default();
    let ran = match opts.workload.as_str() {
        w if opts.trace => layers::run(w, opts.seed, &mut out),
        "fleet-ingest" => fleet_ingest::run(opts.seed, opts.seconds, &mut out),
        "dashboards" => dash::run(opts.seed, opts.seconds, &mut out),
        _ => unreachable!("workload names are checked by parse_opts"),
    };
    if let Err(e) = ran {
        eprintln!("perfbench: {} failed: {e}", opts.workload);
        std::process::exit(1);
    }
    let undeclared = util::contract_problems(&declared, &out.metrics);
    out.problems.extend(undeclared);
    out.correct = out.problems.is_empty();
    for n in &out.notes {
        println!("{}: {n}", opts.workload);
    }
    for m in &out.metrics {
        println!("{}: {} = {} {}", opts.workload, m.name, m.value, m.unit);
    }
    for p in &out.problems {
        eprintln!("perfbench: CHECK FAILED: {p}");
    }
    println!("{}", out.result_line());
    std::process::exit(if out.correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let o = parse_opts(&args(
            "--workload dashboards --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            o,
            Opts {
                workload: "dashboards".into(),
                seed: 7,
                seconds: 20,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 5",
            "--workload chaos-soak --seed 1 --seconds 5",
            "--workload dashboards --seconds 5",
            "--workload dashboards --seed x --seconds 5",
            "--workload dashboards --seed 1 --seconds 5 --trace 2",
            "--workload dashboards --seed 1 --seconds 0",
            "--workload dashboards --seed 1 --seconds",
            "--bogus 1",
        ] {
            assert!(parse_opts(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn benchmark_json_names_only_runnable_workloads() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = cwx_scenario::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(|w| w.as_arr())
            .unwrap()
            .iter()
            .filter_map(|w| w.get("name").and_then(|n| n.as_str()))
            .collect();
        assert_eq!(names, WORKLOADS);
    }
}
