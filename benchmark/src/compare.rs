//! `run.sh compare <a> <b>`: one row per (end-to-end metric, workload)
//! with both medians, the bound from `BENCHMARK.json` and a verdict. Each
//! side is a results file or a directory of them (one file per run).

use std::path::Path;

use crate::json::Json;
use crate::spec::Better;
use crate::stats::{quartiles, spread};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    /// The runs inside one side disagree by more than the bound, so the
    /// sides cannot be told apart at that resolution.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `a` is the baseline, `b` the candidate.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (Some((_, med_a, _)), Some((_, med_b, _))) = (quartiles(a), quartiles(b)) else {
        return Verdict::Unresolved;
    };
    if spread(a).unwrap_or(0.0) > bound || spread(b).unwrap_or(0.0) > bound {
        return Verdict::Unresolved;
    }
    let worsening = better.worsening(med_a, med_b);
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

pub struct MetricSpec {
    pub name: String,
    pub better: Better,
    pub bound: f64,
}

/// The end-to-end metrics and workload names `BENCHMARK.json` declares.
pub fn read_contract(path: &Path) -> Result<(Vec<MetricSpec>, Vec<String>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let bad = || format!("{}: not a benchmark contract", path.display());
    let metrics = json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(bad)?
        .iter()
        .map(|m| {
            Some(MetricSpec {
                name: m.get("name")?.as_str()?.to_owned(),
                better: match m.get("better")?.as_str()? {
                    "lower" => Better::Lower,
                    "higher" => Better::Higher,
                    _ => return None,
                },
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(bad)?;
    let workloads = json
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(bad)?
        .iter()
        .map(|w| Some(w.get("name")?.as_str()?.to_owned()))
        .collect::<Option<Vec<_>>>()
        .ok_or_else(bad)?;
    Ok((metrics, workloads))
}

/// The results files of one side.
pub fn load_side(path: &Path) -> Result<Vec<Json>, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        let entries = std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))?;
        for entry in entries {
            let p = entry.map_err(|e| e.to_string())?.path();
            if p.extension().is_some_and(|x| x == "json") {
                files.push(p);
            }
        }
        files.sort();
    } else {
        files.push(path.to_owned());
    }
    if files.is_empty() {
        return Err(format!("{}: no results files", path.display()));
    }
    files
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

/// Every value one side holds for (workload, metric); runs whose checks
/// failed carry no weight.
pub fn values(side: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    side.iter()
        .filter_map(|file| {
            let w = file.get("workloads")?.get(workload)?;
            if w.get("valid") != Some(&Json::Bool(true)) {
                return None;
            }
            w.get("end_to_end")?.get(metric)?.get("value")?.as_f64()
        })
        .collect()
}

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: Vec<f64>,
    pub b: Vec<f64>,
    pub bound: f64,
    pub verdict: Verdict,
}

pub fn compare(contract: &Path, a: &Path, b: &Path) -> Result<Vec<Row>, String> {
    let (metrics, workloads) = read_contract(contract)?;
    let (side_a, side_b) = (load_side(a)?, load_side(b)?);
    let mut rows = Vec::new();
    for workload in &workloads {
        for m in &metrics {
            let (va, vb) = (
                values(&side_a, workload, &m.name),
                values(&side_b, workload, &m.name),
            );
            let verdict = verdict(&va, &vb, m.better, m.bound);
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name.clone(),
                a: va,
                b: vb,
                bound: m.bound,
                verdict,
            });
        }
    }
    Ok(rows)
}

/// Prints the table; `true` when no row is `worse`. (A higher failure
/// share is a `worse` row too: `attempts_per_txn` is one of the metrics.)
pub fn print(rows: &[Row]) -> bool {
    println!(
        "{:<13} {:<13} {:>3} {:>13} {:>7} {:>3} {:>13} {:>7} {:>8} {:>6}  verdict",
        "workload", "metric", "n", "median_a", "iqr_a", "n", "median_b", "iqr_b", "change", "bound"
    );
    for r in rows {
        let med = |v: &[f64]| quartiles(v).map_or(f64::NAN, |q| q.1);
        let (ma, mb) = (med(&r.a), med(&r.b));
        println!(
            "{:<13} {:<13} {:>3} {:>13.4} {:>6.1}% {:>3} {:>13.4} {:>6.1}% {:>+7.1}% {:>5.0}%  {}",
            r.workload,
            r.metric,
            r.a.len(),
            ma,
            spread(&r.a).unwrap_or(f64::NAN) * 100.0,
            r.b.len(),
            mb,
            spread(&r.b).unwrap_or(f64::NAN) * 100.0,
            (mb - ma) / ma * 100.0,
            r.bound * 100.0,
            r.verdict.as_str()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} better, {} within, {} worse, {} unresolved",
        count(Verdict::Better),
        count(Verdict::Within),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    );
    count(Verdict::Worse) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_follows_direction_bound_and_spread() {
        let steady = |m: f64| vec![m * 0.99, m, m * 1.01];
        // Lower is better, bound 10%.
        assert_eq!(
            verdict(&steady(100.0), &steady(105.0), Better::Lower, 0.1),
            Verdict::Within
        );
        assert_eq!(
            verdict(&steady(100.0), &steady(115.0), Better::Lower, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&steady(100.0), &steady(85.0), Better::Lower, 0.1),
            Verdict::Better
        );
        // Higher is better: the same numbers read the other way.
        assert_eq!(
            verdict(&steady(100.0), &steady(115.0), Better::Higher, 0.1),
            Verdict::Better
        );
        assert_eq!(
            verdict(&steady(100.0), &steady(85.0), Better::Higher, 0.1),
            Verdict::Worse
        );
        // A side whose own runs spread wider than the bound resolves nothing.
        let noisy = vec![70.0, 100.0, 130.0];
        assert_eq!(
            verdict(&noisy, &steady(150.0), Better::Lower, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&steady(100.0), &noisy, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&[], &steady(1.0), Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // One run a side has no spread to speak of.
        assert_eq!(
            verdict(&[100.0], &[104.0], Better::Lower, 0.1),
            Verdict::Within
        );
    }

    #[test]
    fn values_skip_invalid_runs_and_missing_metrics() {
        let file = |valid: bool, tput: f64| {
            Json::parse(&format!(
                r#"{{"workloads": {{"w": {{"valid": {valid}, "end_to_end": {{"tput_tps": {{"value": {tput}, "unit": "1/s"}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let side = vec![file(true, 10.0), file(false, 99.0), file(true, 12.0)];
        assert_eq!(values(&side, "w", "tput_tps"), vec![10.0, 12.0]);
        assert!(values(&side, "w", "setup_s").is_empty());
        assert!(values(&side, "other", "tput_tps").is_empty());
    }
}
