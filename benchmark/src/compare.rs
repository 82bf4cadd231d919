//! `benchmark compare DIR_A DIR_B`: compare two sets of `--out` records
//! (A = parent, B = change), one row per (workload, metric).
//!
//! Each side's median and quartiles are printed with a verdict, by the
//! rules in `BENCHMARK.json`'s bounds:
//!
//! * **unresolved** — either side's quartile spread, as a share of its
//!   median, is wider than the bound, and not every B run beats every A
//!   run;
//! * **worse** — B's median is worse than A's by more than the bound;
//! * **better** — B wins at least nine tenths of the runs paired by seed
//!   (ties count for neither) and the medians differ by more than A's
//!   quartile spread, or the spread is too wide but every B run beats
//!   every A run;
//! * **unchanged** — otherwise.
//!
//! Per-layer metrics have no bound; their rows say only `better`,
//! `worse` or `unchanged` by the pair rule and never fail the command.
//! The exit code is 1 when any end-to-end row is worse.

use crate::json::Json;
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// The benchmark definition this binary was built with.
pub const SPEC: &str = include_str!("../../BENCHMARK.json");

/// Direction and bound of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    /// Higher values are better.
    pub higher_better: bool,
    /// Allowed worsening as a share of the median; `None` for per-layer
    /// metrics.
    pub bound: Option<f64>,
}

/// Every metric's rule from a `BENCHMARK.json` text.
pub fn rules(spec: &str) -> Result<BTreeMap<String, Rule>, String> {
    let doc = Json::parse(spec)?;
    let mut out = BTreeMap::new();
    for (section, bounded) in [("end_to_end", true), ("per_layer", false)] {
        let list = doc
            .get(section)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no {section} list"))?;
        for m in list {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let higher_better = match m.get("better").and_then(Json::as_str) {
                Some("higher") => true,
                Some("lower") => false,
                _ => return Err(format!("metric {name}: better must be higher or lower")),
            };
            let bound = if bounded {
                Some(
                    m.get("bound")
                        .and_then(Json::as_f64)
                        .ok_or("bound missing")?,
                )
            } else {
                None
            };
            out.insert(
                name.to_string(),
                Rule {
                    higher_better,
                    bound,
                },
            );
        }
    }
    Ok(out)
}

/// One run's values, as read from a record.
struct Record {
    workload: String,
    seed: Option<f64>,
    metrics: Vec<(String, f64)>,
}

fn load_dir(dir: &Path) -> Result<Vec<Record>, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    let mut out = Vec::new();
    for f in files {
        let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", f.display()))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: no workload", f.display()))?
            .to_string();
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or_else(|| format!("{}: no metrics", f.display()))?
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect();
        out.push(Record {
            workload,
            seed: doc.get("seed").and_then(Json::as_f64),
            metrics,
        });
    }
    Ok(out)
}

/// A verdict on one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better.
    Better,
    /// B is worse beyond the bound.
    Worse,
    /// No difference shown.
    Unchanged,
    /// Too noisy to say.
    Unresolved,
}

/// Judge B against A. `pairs` are `(a, b)` values from runs with the
/// same seed.
pub fn verdict(a: &[f64], b: &[f64], pairs: &[(f64, f64)], rule: Rule) -> Verdict {
    let (Some(ma), Some(mb), Some((qa1, qa3)), Some((qb1, qb3))) =
        (median(a), median(b), quartiles(a), quartiles(b))
    else {
        return Verdict::Unresolved;
    };
    let sign = if rule.higher_better { 1.0 } else { -1.0 };
    let beats = |x: f64, y: f64| sign * (x - y) > 0.0;
    let gain = sign * (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
    let spread = ((qa3 - qa1) / ma.abs().max(f64::MIN_POSITIVE))
        .max((qb3 - qb1) / mb.abs().max(f64::MIN_POSITIVE));
    let all_better = b.iter().all(|&y| a.iter().all(|&x| beats(y, x)));
    let wins = pairs.iter().filter(|&&(x, y)| beats(y, x)).count();
    let losses = pairs.iter().filter(|&&(x, y)| beats(x, y)).count();
    let clear = (mb - ma).abs() > qa3 - qa1;
    let pair_rule = |n: usize| !pairs.is_empty() && n * 10 >= pairs.len() * 9 && clear;
    match rule.bound {
        Some(bound) => {
            if spread > bound {
                if all_better {
                    Verdict::Better
                } else {
                    Verdict::Unresolved
                }
            } else if gain < -bound {
                Verdict::Worse
            } else if gain > 0.0 && pair_rule(wins) {
                Verdict::Better
            } else {
                Verdict::Unchanged
            }
        }
        None if gain > 0.0 && pair_rule(wins) => Verdict::Better,
        None if gain < 0.0 && pair_rule(losses) => Verdict::Worse,
        None => Verdict::Unchanged,
    }
}

/// Values of `metric` for `workload`, keyed by seed where known.
fn values(records: &[Record], workload: &str, metric: &str) -> Vec<(Option<f64>, f64)> {
    records
        .iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| {
            let v = r.metrics.iter().find(|(k, _)| k == metric)?.1;
            Some((r.seed, v))
        })
        .collect()
}

/// Pair runs by seed; without seeds on both sides, by order.
fn pair_up(a: &[(Option<f64>, f64)], b: &[(Option<f64>, f64)]) -> Vec<(f64, f64)> {
    let by_seed: Vec<(f64, f64)> = a
        .iter()
        .filter_map(|&(sa, x)| {
            let sa = sa?;
            b.iter()
                .find(|(sb, _)| *sb == Some(sa))
                .map(|&(_, y)| (x, y))
        })
        .collect();
    if by_seed.is_empty() {
        a.iter().zip(b).map(|(&(_, x), &(_, y))| (x, y)).collect()
    } else {
        by_seed
    }
}

/// Entry point of the `compare` subcommand.
pub fn main(args: &[String]) -> ExitCode {
    let [dir_a, dir_b] = args else {
        eprintln!("usage: benchmark compare DIR_A DIR_B");
        return ExitCode::from(2);
    };
    match compare(Path::new(dir_a), Path::new(dir_b)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
    }
}

/// Print the comparison; `Ok(false)` when an end-to-end metric is worse.
fn compare(dir_a: &Path, dir_b: &Path) -> Result<bool, String> {
    let rules = rules(SPEC)?;
    let (a, b) = (load_dir(dir_a)?, load_dir(dir_b)?);
    let mut workloads: Vec<&str> = a.iter().chain(&b).map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let fmt = |xs: &[f64]| match (median(xs), quartiles(xs)) {
        (Some(m), Some((q1, q3))) => format!("{m:>12.5} [{q1:.5}, {q3:.5}] n={}", xs.len()),
        _ => "-".to_string(),
    };
    let mut ok = true;
    println!("A = {}   B = {}", dir_a.display(), dir_b.display());
    for workload in workloads {
        println!("\n{workload}");
        for (metric, rule) in &rules {
            let (va, vb) = (values(&a, workload, metric), values(&b, workload, metric));
            if va.is_empty() && vb.is_empty() {
                continue;
            }
            let xs: Vec<f64> = va.iter().map(|v| v.1).collect();
            let ys: Vec<f64> = vb.iter().map(|v| v.1).collect();
            let v = verdict(&xs, &ys, &pair_up(&va, &vb), *rule);
            if v == Verdict::Worse && rule.bound.is_some() {
                ok = false;
            }
            let label = match v {
                Verdict::Better => "better",
                Verdict::Worse => "WORSE",
                Verdict::Unchanged => "unchanged",
                Verdict::Unresolved => "unresolved",
            };
            let kind = if rule.bound.is_some() { "" } else { " (layer)" };
            println!(
                "  {metric:<32} A {:<40} B {:<40} {label}{kind}",
                fmt(&xs),
                fmt(&ys)
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Rule = Rule {
        higher_better: false,
        bound: Some(0.1),
    };

    fn paired(a: &[f64], b: &[f64]) -> Vec<(f64, f64)> {
        a.iter().copied().zip(b.iter().copied()).collect()
    }

    #[test]
    fn verdicts_follow_the_bounds() {
        let a = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.01, 9.99];
        // Same distribution: unchanged.
        assert_eq!(verdict(&a, &a, &paired(&a, &a), LOWER), Verdict::Unchanged);
        // 20% slower on every run: worse.
        let slow: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(
            verdict(&a, &slow, &paired(&a, &slow), LOWER),
            Verdict::Worse
        );
        // 5% slower: within the bound.
        let bit: Vec<f64> = a.iter().map(|x| x * 1.05).collect();
        assert_eq!(
            verdict(&a, &bit, &paired(&a, &bit), LOWER),
            Verdict::Unchanged
        );
        // 20% faster on every run: better.
        let fast: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        assert_eq!(
            verdict(&a, &fast, &paired(&a, &fast), LOWER),
            Verdict::Better
        );
        // Spread wider than the bound and overlapping: unresolved.
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        assert_eq!(
            verdict(&a, &noisy, &paired(&a, &noisy), LOWER),
            Verdict::Unresolved
        );
        // Per-layer metrics: only the pair rule.
        let layer = Rule {
            higher_better: true,
            bound: None,
        };
        assert_eq!(
            verdict(&a, &slow, &paired(&a, &slow), layer),
            Verdict::Better
        );
        assert_eq!(
            verdict(&a, &fast, &paired(&a, &fast), layer),
            Verdict::Worse
        );
    }

    #[test]
    fn pairs_by_seed() {
        let a = [(Some(1.0), 10.0), (Some(2.0), 20.0)];
        let b = [(Some(2.0), 21.0), (Some(1.0), 11.0)];
        assert_eq!(pair_up(&a, &b), vec![(10.0, 11.0), (20.0, 21.0)]);
    }
}
