//! Process measurements, work directories and the result line.

use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

/// Wall clock as nanoseconds since the Unix epoch: the one clock both
/// the generator and the server process read, so a due instant set in
/// one can be compared with a visibility instant seen in the other.
pub fn unix_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock after 1970")
        .as_nanos() as u64
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout of
    // the 64-bit Linux targets this benchmark runs on, and both clock
    // ids are defined by POSIX for every process and thread.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "CPU-time clocks are always available on Linux");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time of this process, all threads, nanoseconds (scheduler
/// accounting, not tick-sampled).
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread, nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0;
    };
    rd.flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// A fresh directory under `.bench_work/` in the current directory,
/// removed again when dropped.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Create `.bench_work/<pid>-<tag>`, emptying it first.
    pub fn new(tag: &str) -> std::io::Result<WorkDir> {
        let dir = PathBuf::from(".bench_work").join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // leave no empty parent behind either
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// The end-to-end metrics every workload reports, in this order. The
/// rates (fleet-ingest's flood samples per second, dashboards' queries
/// per second) are printed figures, not metrics: the flood's spread past
/// the largest bound allowed (see README.md), and one list serves both
/// workloads.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mib", "MiB"),
];

/// The end-to-end metrics from their values, in [`END_TO_END`] order.
pub fn end_to_end(values: [f64; 5]) -> Vec<Metric> {
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| metric(name, unit, value))
        .collect()
}

/// Build a metric.
pub fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed and the run was valid.
    pub correct: bool,
    /// Operations attempted (reports, queries, scenario runs).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Reported metrics.
    pub metrics: Vec<Metric>,
    /// Failed checks, one line each.
    pub problems: Vec<String>,
    /// Human lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a check: a false `ok` adds `what` to the problems.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.problems.push(what.into());
        }
    }

    /// The last stdout line: `{"correct": …, "attempted": …, "failed":
    /// …, "metrics": {name: {"value": …, "unit": …}}}`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// `(name, unit)` of the metrics `BENCHMARK.json` lists under `section`
/// (`"end_to_end"` or `"per_layer"`).
pub fn declared_metrics(bench_json: &str, section: &str) -> Result<Vec<(String, String)>, String> {
    let doc = cwx_scenario::json::parse(bench_json)?;
    let list = doc
        .get(section)
        .and_then(|v| v.as_arr())
        .ok_or_else(|| format!("BENCHMARK.json has no `{section}` list"))?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(|v| v.as_str());
            let unit = m.get("unit").and_then(|v| v.as_str());
            match (name, unit) {
                (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                _ => Err(format!("a `{section}` entry lacks a name or unit")),
            }
        })
        .collect()
}

/// Problems with `emitted` against the declared `(name, unit)` list:
/// missing, undeclared, wrong unit, or not a finite number.
pub fn contract_problems(declared: &[(String, String)], emitted: &[Metric]) -> Vec<String> {
    let mut out = Vec::new();
    for (name, unit) in declared {
        match emitted.iter().find(|m| &m.name == name) {
            None => out.push(format!("metric {name} is declared but not emitted")),
            Some(m) if m.unit != unit => {
                out.push(format!("metric {name} has unit {} not {unit}", m.unit))
            }
            Some(m) if !m.value.is_finite() => {
                out.push(format!("metric {name} is not a finite number"))
            }
            Some(_) => {}
        }
    }
    for m in emitted {
        if !declared.iter().any(|(n, _)| n == &m.name) {
            out.push(format!("metric {} is emitted but not declared", m.name));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu_ns(), thread_cpu_ns());
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(thread_cpu_ns() > t0);
        assert!(process_cpu_ns() > p0);
    }

    #[test]
    fn contract_problems_name_each_mismatch() {
        let declared = vec![
            ("a".to_string(), "s".to_string()),
            ("b".into(), "ms".into()),
        ];
        let ok = vec![metric("a", "s", 1.0), metric("b", "ms", 2.0)];
        assert!(contract_problems(&declared, &ok).is_empty());
        let bad = vec![metric("a", "ms", 1.0), metric("c", "s", f64::NAN)];
        let p = contract_problems(&declared, &bad);
        assert_eq!(p.len(), 3, "{p:?}");
    }
}
