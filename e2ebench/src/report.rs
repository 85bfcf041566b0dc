//! Metric registry, run environment, and the one-line JSON result.
//!
//! The two tables below are the benchmark's contract: an untraced run
//! prints every [`END_TO_END`] metric and a traced run every
//! [`PER_LAYER`] metric, on every workload, under exactly these names and
//! units (`BENCHMARK.json` lists the same ones). A per-layer metric whose
//! layer a workload never calls reads 0.

use std::collections::BTreeMap;
use std::path::Path;

/// `(name, unit)` of each end-to-end metric.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("mpts_per_s", "Mpts/s"),
    ("samples_per_s", "1/s"),
    ("step_ms_p50", "ms"),
    ("stored_mb", "MB"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of each per-layer metric. Times are per traced pass,
/// but `setup.*` times are per set-up.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("setup.inputs_s", "s"),
    ("setup.cfd_s", "s"),
    ("setup.hpc_s", "s"),
    ("setup.ingest_s", "s"),
    ("setup.serve_s", "s"),
    ("cfd.busy_s", "s"),
    ("cfd.steps", "count"),
    ("field.derived_busy_s", "s"),
    ("hpc.busy_s", "s"),
    ("hpc.phase1_s", "s"),
    ("hpc.phase2_rank_s", "s"),
    ("hpc.imbalance", "ratio"),
    ("hpc.retry_rounds", "count"),
    ("core.points_in", "count"),
    ("core.points_out", "count"),
    ("hpc.case.Hmaxent-Xmaxent_s", "s"),
    ("hpc.case.Hmaxent-Xuips_s", "s"),
    ("hpc.case.Hrandom-Xfull_s", "s"),
    ("hpc.case.Hrandom-Xmaxent_s", "s"),
    ("hpc.case.Hrandom-Xuips_s", "s"),
    ("store.ingest_busy_s", "s"),
    ("store.ingest_bytes", "bytes"),
    ("store.shards_written", "count"),
    ("codec.resim_ratio", "ratio"),
    ("codec.resim_mse", "mse"),
    ("store.fetch_busy_s", "s"),
    ("store.fetch_ms_p50", "ms"),
    ("store.fetch_ms_p90", "ms"),
    ("store.requests", "count"),
    ("store.bytes_out", "bytes"),
    ("store.cache_hit_rate", "ratio"),
    ("store.busy_retries", "count"),
    ("nn.forward_busy_s", "s"),
    ("nn.backward_busy_s", "s"),
    ("nn.optim_busy_s", "s"),
    ("nn.gflop", "GFLOP"),
    ("nn.gflop_per_s", "GFLOP/s"),
    ("nn.final_loss", "mse"),
    ("loop.step_ms_p90", "ms"),
    ("trace.pass_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Name of the per-case sampling-time metric for a fig8 case.
pub fn case_metric(case: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|(name, _)| *name)
        .find(|name| {
            name.strip_prefix("hpc.case.")
                .and_then(|n| n.strip_suffix("_s"))
                == Some(case)
        })
        .unwrap_or_else(|| panic!("no per-case metric for {case}"))
}

/// Metric values of one run, checked against the registry.
pub struct Metrics {
    traced: bool,
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// An empty set for an untraced (`trace == false`) or traced run.
    pub fn new(trace: bool) -> Metrics {
        Metrics {
            traced: trace,
            values: BTreeMap::new(),
        }
    }

    /// Whether this run reports the per-layer table.
    pub fn traced(&self) -> bool {
        self.traced
    }

    fn table(&self) -> &'static [(&'static str, &'static str)] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Records `value` under `name`, which must be in this run's table.
    ///
    /// # Panics
    /// Panics on an unregistered name or a non-finite value: both are
    /// bugs in the benchmark, and JSON cannot carry a NaN.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.table().iter().any(|(n, _)| *n == name),
            "metric {name} is not in this run's table"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name, value);
    }

    /// The `metrics` JSON object: every metric of the table in order,
    /// each value with every digit of Rust's shortest round-trip form
    /// (which never uses an exponent, so it is always a JSON number).
    /// Missing per-layer metrics read 0; a missing end-to-end metric is
    /// left out, which the caller only allows on a failed run.
    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .table()
            .iter()
            .filter_map(|&(name, unit)| {
                let value = match self.values.get(name) {
                    Some(v) => *v,
                    None if self.traced => 0.0,
                    None => return None,
                };
                Some(format!(
                    r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#
                ))
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// True when every metric of the table has a value.
    pub fn complete(&self) -> bool {
        self.traced
            || self
                .table()
                .iter()
                .all(|(n, _)| self.values.contains_key(n))
    }
}

/// The result line the run prints last on stdout.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {}}}"#,
        metrics.to_json()
    )
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Bytes of every regular file under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// The settings a result depends on, as one JSON object: the seed, the
/// kernel and mmap switches, the core count, the CPU model, and the
/// source revision (when run from a git checkout).
pub fn environment(seed: u64, workload: &str) -> String {
    let var = |name: &str| json_string(&std::env::var(name).unwrap_or_else(|_| "unset".into()));
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        r#"{{"workload": {}, "seed": {seed}, "nproc": {}, "cpu_model": {}, "git_rev": {}, "SICKLE_KERNEL": {}, "kernel": "{:?}", "SICKLE_MMAP": {}}}"#,
        json_string(workload),
        nproc(),
        json_string(&cpu),
        json_string(&git_rev()),
        var("SICKLE_KERNEL"),
        sickle_simd::kernel(),
        var("SICKLE_MMAP"),
    )
}

/// `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    serde_json::to_string(s).expect("a string always serializes")
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; "unknown" outside a git checkout.
fn git_rev() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn listed(benchmark: &serde_json::Value, key: &str) -> Vec<(String, String)> {
        benchmark
            .get(key)
            .and_then(|v| v.as_array())
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(seen.insert(*name), "duplicate metric name {name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit} for {name}"
            );
        }
        for (case, _, _) in sickle_bench::workloads::fig8_cases() {
            assert_eq!(case_metric(case), format!("hpc.case.{case}_s"));
        }
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let benchmark = serde_json::value_from_str(&text).expect("BENCHMARK.json parses");
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&benchmark, "end_to_end"), own(END_TO_END));
        assert_eq!(listed(&benchmark, "per_layer"), own(PER_LAYER));
    }

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let mut traced = Metrics::new(true);
        traced.set("cfd.steps", 100.0);
        let line = result_line(true, 3, 0, &traced);
        let parsed = serde_json::value_from_str(&line).expect("result line is JSON");
        let metrics = parsed.get("metrics").and_then(|m| m.as_object()).unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
        let steps = parsed
            .get("metrics")
            .and_then(|m| m.get("cfd.steps"))
            .unwrap();
        assert_eq!(steps.get("value").and_then(|v| v.as_f64()), Some(100.0));
        assert_eq!(steps.get("unit").and_then(|v| v.as_str()), Some("count"));
        assert_eq!(parsed.get("attempted").and_then(|v| v.as_f64()), Some(3.0));

        let mut untraced = Metrics::new(false);
        assert!(!untraced.complete());
        for (name, _) in END_TO_END {
            untraced.set(name, 0.125);
        }
        assert!(untraced.complete());
    }

    #[test]
    fn environment_is_one_json_object() {
        let env = serde_json::value_from_str(&environment(7, "curate")).expect("env is JSON");
        assert_eq!(env.get("seed").and_then(|v| v.as_f64()), Some(7.0));
        assert_eq!(env.get("workload").and_then(|v| v.as_str()), Some("curate"));
        assert!(env.get("SICKLE_MMAP").and_then(|v| v.as_str()).is_some());
    }

    #[test]
    #[should_panic(expected = "not in this run's table")]
    fn per_layer_names_are_rejected_in_an_untraced_run() {
        Metrics::new(false).set("cfd.busy_s", 1.0);
    }
}
