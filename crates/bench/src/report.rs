//! The one `BENCH_*.json` schema, its budget check, and the regression
//! rule `bench_diff` applies between two reports of the same suite.
//!
//! Every perf bin builds a [`Report`]: each gated value is declared once,
//! where it is measured, as a [`Metric`] `{name, value, unit, better,
//! budget, floor}`; pass/fail facts are checks; everything else is
//! ungated `detail`. [`Report::finish`] is the only code that writes a
//! report: it rejects non-finite numbers, writes the JSON, prints budget
//! violations, and returns the bin's exit code.
//!
//! - `budget` is the absolute bound this run must meet on this host
//!   (`value >= budget` when higher is better, `<=` when lower is);
//! - `floor` is the absolute level separating signal from noise when a
//!   fresh run is compared against a committed baseline (see [`diff`]).
//!   Only dimensionless metrics carry one: the two runs usually come from
//!   different machines, so absolute ns/s numbers would flag hardware,
//!   not code.

use std::fmt;
use std::path::Path;
use std::process::ExitCode;

use serde::{Deserialize, Serialize, Value};

use crate::all_finite;

/// Which way "better" points for a metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum Better {
    Higher,
    Lower,
}

/// One gated value.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    name: String,
    value: f64,
    unit: String,
    better: Better,
    /// Absolute bound this run must meet; `None` when the metric is not
    /// budgeted on this host.
    budget: Option<f64>,
    /// Level a regression must cross before [`diff`] counts it: above the
    /// floor for `Lower` metrics (a jump from 0.001% to 0.002% overhead is
    /// jitter), below it for `Higher` metrics (a 2300× cache speedup
    /// sliding to 1800× on other hardware is fine; collapsing under the
    /// floor means the cache stopped working). `None`: not compared.
    floor: Option<f64>,
}

impl Metric {
    /// Sets the absolute bound this run must meet.
    pub fn budget(&mut self, budget: f64) -> &mut Self {
        self.budget = Some(budget);
        self
    }

    /// Sets the regression floor [`diff`] compares against.
    pub fn floor(&mut self, floor: f64) -> &mut Self {
        self.floor = Some(floor);
        self
    }

    fn meets_budget(&self) -> bool {
        match (self.budget, self.better) {
            (None, _) => true,
            (Some(b), Better::Higher) => self.value >= b,
            (Some(b), Better::Lower) => self.value <= b,
        }
    }
}

/// One pass/fail fact (bit-identity, zero errors, ...).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct Check {
    name: String,
    pass: bool,
}

/// A `BENCH_<suite>.json` report.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Report {
    suite: String,
    metrics: Vec<Metric>,
    checks: Vec<Check>,
    /// Ungated measurements (raw phases, per-row timings, ...), an object.
    detail: Value,
}

impl Report {
    /// An empty report for `suite`.
    pub fn new(suite: &str) -> Self {
        Report {
            suite: suite.to_string(),
            metrics: Vec::new(),
            checks: Vec::new(),
            detail: Value::Object(Vec::new()),
        }
    }

    /// Declares a gated value; chain [`Metric::budget`] / [`Metric::floor`].
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &str,
        better: Better,
    ) -> &mut Metric {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit: unit.to_string(),
            better,
            budget: None,
            floor: None,
        });
        self.metrics.last_mut().expect("just pushed")
    }

    /// Declares a pass/fail fact.
    pub fn check(&mut self, name: &str, pass: bool) {
        self.checks.push(Check {
            name: name.to_string(),
            pass,
        });
    }

    /// Records an ungated measurement under `key`.
    pub fn detail(&mut self, key: &str, value: impl Serialize) {
        let Value::Object(fields) = &mut self.detail else {
            unreachable!("detail is always an object");
        };
        fields.push((key.to_string(), value.to_value()));
    }

    /// Reads a report written by [`Report::finish`].
    ///
    /// # Errors
    /// Returns a message when the file cannot be read or does not match
    /// the schema.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("cannot parse {}: {e:?}", path.display()))
    }

    /// Every number in the report, metric values and detail leaves alike,
    /// with its dotted path.
    fn numbers(&self) -> Vec<(String, f64)> {
        fn walk(path: String, v: &Value, out: &mut Vec<(String, f64)>) {
            match v {
                Value::Num(x) => out.push((path, *x)),
                Value::Array(items) => {
                    for (i, item) in items.iter().enumerate() {
                        walk(format!("{path}.{i}"), item, out);
                    }
                }
                Value::Object(fields) => {
                    for (k, item) in fields {
                        walk(format!("{path}.{k}"), item, out);
                    }
                }
                _ => {}
            }
        }
        let mut out: Vec<(String, f64)> = self
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.value))
            .collect();
        walk("detail".into(), &self.detail, &mut out);
        out
    }

    /// Missed budgets and failed checks, one message each.
    fn violations(&self) -> Vec<String> {
        let budgets = self.metrics.iter().filter(|m| !m.meets_budget()).map(|m| {
            let op = match m.better {
                Better::Higher => ">=",
                Better::Lower => "<=",
            };
            format!(
                "{} = {} {}, budget {op} {}",
                m.name,
                m.value,
                m.unit,
                m.budget.expect("only budgeted metrics can miss")
            )
        });
        let checks = self
            .checks
            .iter()
            .filter(|c| !c.pass)
            .map(|c| format!("check `{}` failed", c.name));
        budgets.chain(checks).collect()
    }

    /// Writes the report to the bin's single optional argument (default
    /// `BENCH_<suite>.json`) and returns the bin's exit code.
    pub fn finish(self) -> ExitCode {
        let path = std::env::args()
            .nth(1)
            .unwrap_or_else(|| format!("BENCH_{}.json", self.suite));
        self.write(Path::new(&path))
    }

    /// Rejects non-finite numbers (nothing is written), otherwise writes
    /// the report to `path`, prints every violation, and fails when there
    /// is one.
    fn write(&self, path: &Path) -> ExitCode {
        let numbers = self.numbers();
        let named: Vec<(&str, f64)> = numbers.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        if !all_finite(&named) {
            for (name, v) in named.iter().filter(|(_, v)| !v.is_finite()) {
                eprintln!("error: {}: {name} is {v} (non-finite)", self.suite);
            }
            return ExitCode::FAILURE;
        }
        let json = serde_json::to_string_pretty(self).expect("a finite report serializes");
        if let Err(e) = std::fs::write(path, json + "\n") {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("  wrote {}", path.display());
        let violations = self.violations();
        for v in &violations {
            eprintln!("  BUDGET VIOLATION: {v}");
        }
        if violations.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// One floored baseline metric compared against the fresh run.
#[derive(Debug)]
struct DiffRow {
    name: String,
    baseline: f64,
    /// `None` when the fresh report lacks the metric.
    fresh: Option<f64>,
    /// Change in the "worse" direction, percent of the larger of baseline
    /// and floor (so near-zero baselines don't explode).
    regression_pct: f64,
    regressed: bool,
}

impl DiffRow {
    fn fails(&self) -> bool {
        self.fresh.is_none() || self.regressed
    }
}

/// The outcome of [`diff`].
#[derive(Debug)]
pub struct Diff {
    suite: String,
    max_regression_pct: f64,
    rows: Vec<DiffRow>,
}

impl Diff {
    /// True when no floored metric regressed or went missing.
    pub fn passed(&self) -> bool {
        !self.rows.iter().any(DiffRow::fails)
    }
}

impl fmt::Display for Diff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "suite: {}  (max regression: {:.0}%)",
            self.suite, self.max_regression_pct
        )?;
        writeln!(
            f,
            "{:<52} {:>12} {:>12} {:>9}  status",
            "metric", "baseline", "fresh", "delta"
        )?;
        for r in &self.rows {
            let Some(fresh) = r.fresh else {
                writeln!(
                    f,
                    "{:<52} {:>12.4} {:>12}         -  MISSING",
                    r.name, r.baseline, "-"
                )?;
                continue;
            };
            let status = if r.regressed {
                "REGRESSED"
            } else if r.regression_pct > 0.0 {
                "ok (worse)"
            } else {
                "ok"
            };
            writeln!(
                f,
                "{:<52} {:>12.4} {:>12.4} {:>+8.1}%  {status}",
                r.name, r.baseline, fresh, r.regression_pct
            )?;
        }
        Ok(())
    }
}

/// Compares every floored metric of `baseline` against the same-named
/// metric of `fresh`. A metric regresses when it is worse by more than
/// `max_regression_pct` *and* lands past its floor; a metric missing from
/// `fresh` fails. Metrics added since the baseline have nothing to compare
/// against and are skipped.
///
/// # Errors
/// Returns a message when the two reports are of different suites.
pub fn diff(baseline: &Report, fresh: &Report, max_regression_pct: f64) -> Result<Diff, String> {
    if baseline.suite != fresh.suite {
        return Err(format!(
            "suite mismatch: baseline is `{}`, fresh is `{}`",
            baseline.suite, fresh.suite
        ));
    }
    let rows = baseline
        .metrics
        .iter()
        .filter_map(|m| {
            let floor = m.floor?;
            let fresh = fresh
                .metrics
                .iter()
                .find(|f| f.name == m.name)
                .map(|f| f.value);
            let (regression_pct, regressed) = fresh.map_or((0.0, false), |new| {
                let scale = m.value.abs().max(floor).max(1e-12);
                let (pct, past_floor) = match m.better {
                    Better::Higher => (100.0 * (m.value - new) / scale, new < floor),
                    Better::Lower => (100.0 * (new - m.value) / scale, new > floor),
                };
                (pct, pct > max_regression_pct && past_floor)
            });
            Some(DiffRow {
                name: m.name.clone(),
                baseline: m.value,
                fresh,
                regression_pct,
                regressed,
            })
        })
        .collect();
    Ok(Diff {
        suite: baseline.suite.clone(),
        max_regression_pct,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(suite: &str, name: &str, value: f64, better: Better, floor: f64) -> Report {
        let mut r = Report::new(suite);
        r.metric(name, value, "x", better).floor(floor);
        r
    }

    #[test]
    fn worse_past_the_floor_fails() {
        let base = one("s", "ratio", 10.0, Better::Higher, 5.0);
        let fresh = one("s", "ratio", 4.0, Better::Higher, 5.0);
        let d = diff(&base, &fresh, 20.0).unwrap();
        assert!(!d.passed());
        assert!(d.rows[0].regressed);
        let base = one("s", "overhead_pct", 1.0, Better::Lower, 2.0);
        let fresh = one("s", "overhead_pct", 3.0, Better::Lower, 2.0);
        assert!(!diff(&base, &fresh, 20.0).unwrap().passed());
    }

    #[test]
    fn worse_but_inside_the_floor_passes() {
        // 50% worse, but still above the floor: hardware, not a regression.
        let base = one("s", "ratio", 2000.0, Better::Higher, 100.0);
        let fresh = one("s", "ratio", 1000.0, Better::Higher, 100.0);
        let d = diff(&base, &fresh, 20.0).unwrap();
        assert!(d.passed());
        assert!(d.rows[0].regression_pct > 20.0 && !d.rows[0].regressed);
        // Doubling a tiny overhead stays under its floor.
        let base = one("s", "overhead_pct", 0.001, Better::Lower, 0.5);
        let fresh = one("s", "overhead_pct", 0.4, Better::Lower, 0.5);
        assert!(diff(&base, &fresh, 20.0).unwrap().passed());
    }

    #[test]
    fn a_missing_metric_fails() {
        let base = one("s", "ratio", 10.0, Better::Higher, 5.0);
        let fresh = one("s", "renamed", 10.0, Better::Higher, 5.0);
        let d = diff(&base, &fresh, 20.0).unwrap();
        assert_eq!(d.rows[0].fresh, None);
        assert!(!d.passed());
        assert!(d.to_string().contains("MISSING"));
    }

    #[test]
    fn unfloored_metrics_are_not_compared() {
        let mut base = Report::new("s");
        base.metric("secs", 1.0, "s", Better::Lower).budget(2.0);
        let d = diff(&base, &Report::new("s"), 20.0).unwrap();
        assert!(d.rows.is_empty() && d.passed());
    }

    #[test]
    fn a_suite_mismatch_is_an_error() {
        let base = one("a", "ratio", 10.0, Better::Higher, 5.0);
        let fresh = one("b", "ratio", 10.0, Better::Higher, 5.0);
        assert!(diff(&base, &fresh, 20.0).is_err());
    }

    #[test]
    fn non_finite_values_and_missed_budgets_fail() {
        let path = std::env::temp_dir().join(format!("sickle_report_{}.json", std::process::id()));
        let mut ok = Report::new("s");
        ok.metric("ratio", 3.0, "x", Better::Higher).budget(2.0);
        ok.metric("pct", 1.0, "%", Better::Lower).budget(1.0);
        ok.check("identical", true);
        assert!(ok.violations().is_empty());
        assert_eq!(ok.write(&path), ExitCode::SUCCESS);
        assert_eq!(Report::load(&path).unwrap(), ok);

        let mut missed = ok.clone();
        missed.metric("slow", 0.5, "x", Better::Higher).budget(2.0);
        assert_eq!(missed.violations().len(), 1);
        assert_eq!(missed.write(&path), ExitCode::FAILURE);

        let mut failed = ok.clone();
        failed.check("errors_zero", false);
        assert_eq!(failed.write(&path), ExitCode::FAILURE);

        std::fs::remove_file(&path).unwrap();
        let mut nan = ok.clone();
        nan.metric("loss", f64::NAN, "mse", Better::Lower);
        assert_eq!(nan.write(&path), ExitCode::FAILURE);
        let mut inf = ok;
        inf.detail("rows", vec![1.0, f64::INFINITY]);
        assert_eq!(inf.write(&path), ExitCode::FAILURE);
        assert!(!path.exists(), "a non-finite report is never written");
    }

    #[test]
    fn committed_reports_parse_and_diff_clean_against_themselves() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut suites = Vec::new();
        for entry in std::fs::read_dir(&root).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            let report = Report::load(&path).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(name, format!("BENCH_{}.json", report.suite));
            assert!(
                report.violations().is_empty(),
                "{name}: {:?}",
                report.violations()
            );
            let d = diff(&report, &report, 0.0).unwrap();
            assert!(d.passed(), "{name}:\n{d}");
            suites.push(report.suite);
        }
        assert_eq!(
            suites.len(),
            8,
            "one committed report per perf suite: {suites:?}"
        );
    }
}
