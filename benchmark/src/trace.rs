//! A std-only span recorder.
//!
//! The benchmark wraps each call it makes into a layer of the system in a
//! [`span`]: name, start, end, and the span open on the same thread when
//! it began (its parent). Spans and counters stay in memory until
//! [`take`] hands them over at the end of a run, so recording costs one
//! clock read and one short lock per boundary. Recording is off unless
//! the thread turned it on with [`set_enabled`]; a disabled [`span`] is a
//! thread-local flag test and nothing else, which lets the traced run
//! alternate traced and untraced operations to measure the overhead.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary the span covers, e.g. `engine.s1_sanitize`.
    pub name: &'static str,
    /// Start, in ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, in ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<Vec<(&'static str, f64)>>,
    names: Mutex<BTreeSet<&'static str>>,
}

fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
        counters: Mutex::new(Vec::new()),
        names: Mutex::new(BTreeSet::new()),
    })
}

/// Every update under these locks is a single push or field store, so a
/// guard recovered from a panicking holder still sees consistent data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Turn recording on or off for the calling thread.
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
}

/// A `&'static` copy of a computed span name (stage names are built at
/// run time); each distinct name is leaked once.
pub fn intern(name: &str) -> &'static str {
    let mut names = lock(&recorder().names);
    if let Some(&known) = names.get(name) {
        return known;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    names.insert(leaked);
    leaked
}

/// Closes its span when dropped.
#[must_use = "a span ends when its guard drops"]
pub struct Guard(Option<usize>);

/// Open a span named `name` on this thread (a no-op when disabled).
pub fn span(name: &'static str) -> Guard {
    if !ENABLED.with(Cell::get) {
        return Guard(None);
    }
    let r = recorder();
    let parent = OPEN.with(|open| open.borrow().last().copied());
    let start_ns = elapsed_ns(r);
    let id = {
        let mut spans = lock(&r.spans);
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        spans.len() - 1
    };
    OPEN.with(|open| open.borrow_mut().push(id));
    Guard(Some(id))
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(id) = self.0 else { return };
        let r = recorder();
        let end_ns = elapsed_ns(r);
        if let Some(s) = lock(&r.spans).get_mut(id) {
            s.end_ns = end_ns;
        }
        OPEN.with(|open| {
            open.borrow_mut().pop();
        });
    }
}

fn elapsed_ns(r: &Recorder) -> u64 {
    u64::try_from(r.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Record one sample of a counter (bytes written, stages recomputed)
/// at the boundary where it is known; a no-op when disabled.
pub fn count(name: &'static str, value: f64) {
    if ENABLED.with(Cell::get) {
        lock(&recorder().counters).push((name, value));
    }
}

/// Hand over and clear everything recorded so far.
pub fn take() -> Trace {
    let r = recorder();
    Trace {
        spans: std::mem::take(&mut *lock(&r.spans)),
        counters: std::mem::take(&mut *lock(&r.counters)),
    }
}

/// Everything one run recorded.
#[derive(Debug, Default)]
pub struct Trace {
    /// Spans in opening order; `parent` indexes this vector.
    pub spans: Vec<Span>,
    /// Counter samples in recording order.
    pub counters: Vec<(&'static str, f64)>,
}

/// Per-name summary of a set of spans.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    /// Span name.
    pub name: &'static str,
    /// Spans of this name.
    pub count: usize,
    /// Median duration, s.
    pub median: f64,
    /// Shortest, s.
    pub min: f64,
    /// Longest, s.
    pub max: f64,
    /// Median self time (duration minus direct children), s.
    pub self_median: f64,
    /// Summed self time, s.
    pub self_total: f64,
}

impl Trace {
    /// Durations in seconds of every span called `name`.
    pub fn secs(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Every sample of counter `name`.
    pub fn counter(&self, name: &str) -> Vec<f64> {
        self.counters
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .collect()
    }

    /// Self time of every span: its duration minus its direct children's.
    fn self_secs(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.secs();
            }
        }
        own.iter().map(|v| v.max(0.0)).collect()
    }

    /// One row per span name, sorted by name.
    pub fn summary(&self) -> Vec<LayerRow> {
        let own = self.self_secs();
        let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for (s, &self_s) in self.spans.iter().zip(&own) {
            let entry = by_name.entry(s.name).or_default();
            entry.0.push(s.secs());
            entry.1.push(self_s);
        }
        by_name
            .into_iter()
            .map(|(name, (durs, selfs))| LayerRow {
                name,
                count: durs.len(),
                median: crate::stats::median(&durs).unwrap_or(0.0),
                min: durs.iter().copied().fold(f64::INFINITY, f64::min),
                max: durs.iter().copied().fold(0.0, f64::max),
                self_median: crate::stats::median(&selfs).unwrap_or(0.0),
                self_total: selfs.iter().sum(),
            })
            .collect()
    }

    /// The spans that are not inside a span named `root` (nor one
    /// themselves), parents re-indexed.
    pub fn outside(&self, root: &str) -> Trace {
        let mut inside = vec![false; self.spans.len()];
        let mut index = vec![None; self.spans.len()];
        let mut spans = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            // Parents open before their children, so they come first.
            inside[i] = s.name == root || s.parent.is_some_and(|p| inside[p]);
            if !inside[i] {
                index[i] = Some(spans.len());
                spans.push(Span {
                    parent: s.parent.and_then(|p| index[p]),
                    ..s.clone()
                });
            }
        }
        Trace {
            spans,
            counters: self.counters.clone(),
        }
    }

    /// Print the per-layer summary and the whole-path share table: each
    /// layer's summed self time as a share of all time recorded outside
    /// spans named `exclude` (the traced run's layer pass, which is not
    /// part of the workload's own path).
    pub fn print_tables(&self, out: &mut dyn Write, exclude: &str) -> std::io::Result<()> {
        let rows = self.summary();
        writeln!(
            out,
            "{:<34} {:>6} {:>11} {:>11} {:>11} {:>11}",
            "layer", "count", "median_ms", "min_ms", "max_ms", "self_ms"
        )?;
        for r in &rows {
            writeln!(
                out,
                "{:<34} {:>6} {:>11.3} {:>11.3} {:>11.3} {:>11.3}",
                r.name,
                r.count,
                r.median * 1e3,
                r.min * 1e3,
                r.max * 1e3,
                r.self_median * 1e3
            )?;
        }
        let mut shares = self.outside(exclude).summary();
        let total: f64 = shares.iter().map(|r| r.self_total).sum();
        shares.sort_by(|a, b| b.self_total.total_cmp(&a.self_total));
        writeln!(
            out,
            "\n{:<34} {:>11} {:>7}",
            "whole-path share", "self_s", "share"
        )?;
        for r in shares.iter().filter(|r| r.self_total > 0.0) {
            writeln!(
                out,
                "{:<34} {:>11.3} {:>6.1}%",
                r.name,
                r.self_total,
                100.0 * r.self_total / total.max(f64::MIN_POSITIVE)
            )?;
        }
        Ok(())
    }

    /// Spans as a JSON array of `[name, start_ns, end_ns, parent]`.
    pub fn spans_json(&self) -> String {
        let items: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "[{},{},{},{}]",
                    crate::json::string(s.name),
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string())
                )
            })
            .collect();
        format!("[{}]", items.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nests_spans_and_computes_self_time() {
        // Tests share the recorder, so drain it and look only at the
        // names this test owns.
        set_enabled(true);
        {
            let _outer = span("test.outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("test.inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        count("test.bytes", 42.0);
        set_enabled(false);
        {
            let _ignored = span("test.outer");
        }
        let trace = take();
        let outer = trace
            .spans
            .iter()
            .position(|s| s.name == "test.outer")
            .unwrap();
        let inner = trace.spans.iter().find(|s| s.name == "test.inner").unwrap();
        assert_eq!(inner.parent, Some(outer));
        assert_eq!(trace.secs("test.outer").len(), 1, "disabled span recorded");
        assert_eq!(trace.counter("test.bytes"), vec![42.0]);
        let rows = trace.summary();
        let row = rows.iter().find(|r| r.name == "test.outer").unwrap();
        assert!(row.self_median < row.median);
        assert!(row.self_median > 0.0);
        assert!(trace
            .outside("test.outer")
            .spans
            .iter()
            .all(|s| !s.name.starts_with("test.")));
        assert_eq!(intern("engine.x"), intern("engine.x"));
    }
}
