//! Benchmark-owned spans: the outside-in trace of a traced pass.
//!
//! The harness wraps each call into a public function of a layer in a
//! span (name, start, end, parent). Nothing inside the product is
//! instrumented; a layer's *self* time is its spans minus the child spans
//! they cover. Spans stay in memory for the whole pass and are written as
//! one JSON document when it ends.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Row {
    name: u16,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug, Default)]
struct Inner {
    names: Vec<&'static str>,
    rows: Vec<Row>,
}

/// An in-memory span store. Shared by reference with evaluator wrappers
/// that may record from rank threads, hence the (uncontended) mutex.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    inner: Mutex<Inner>,
}

/// Count and summed duration of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Total {
    /// Number of spans.
    pub count: u64,
    /// Summed duration, seconds.
    pub seconds: f64,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty store whose clock starts now.
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Nanoseconds since the store was created.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn push(&self, name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> u32 {
        let mut inner = self.inner.lock().expect("span store poisoned");
        let name = match inner.names.iter().position(|n| *n == name) {
            Some(i) => i,
            None => {
                inner.names.push(name);
                inner.names.len() - 1
            }
        } as u16;
        inner.rows.push(Row {
            name,
            parent,
            start_ns,
            end_ns,
        });
        (inner.rows.len() - 1) as u32
    }

    /// Opens a span now and returns its id, so children recorded before it
    /// closes can name it as their parent.
    pub fn open(&self, name: &'static str, parent: u32) -> u32 {
        let now = self.now_ns();
        self.push(name, parent, now, now)
    }

    /// Closes a span opened with [`Spans::open`].
    pub fn close(&self, id: u32) {
        let now = self.now_ns();
        self.inner.lock().expect("span store poisoned").rows[id as usize].end_ns = now;
    }

    /// Runs `f` inside a span named `name` and returns its result.
    pub fn time<T>(&self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> T {
        self.timed(name, parent, f).0
    }

    /// [`Spans::time`], also returning the span's duration in seconds.
    pub fn timed<T>(&self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        let row = self.inner.lock().expect("span store poisoned").rows[id as usize];
        (out, (row.end_ns - row.start_ns) as f64 * 1e-9)
    }

    /// Count and summed duration of every span named `name`.
    pub fn total(&self, name: &str) -> Total {
        let inner = self.inner.lock().expect("span store poisoned");
        let Some(id) = inner.names.iter().position(|n| *n == name) else {
            return Total::default();
        };
        let mut t = Total::default();
        for r in inner.rows.iter().filter(|r| r.name as usize == id) {
            t.count += 1;
            t.seconds += (r.end_ns - r.start_ns) as f64 * 1e-9;
        }
        t
    }

    /// Durations (seconds) of every span named `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        let inner = self.inner.lock().expect("span store poisoned");
        let Some(id) = inner.names.iter().position(|n| *n == name) else {
            return Vec::new();
        };
        inner
            .rows
            .iter()
            .filter(|r| r.name as usize == id)
            .map(|r| (r.end_ns - r.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("span store poisoned").rows.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes the store to `<dir>/spans-<workload>.json` and returns the path.
    pub fn write(&self, dir: &Path, workload: &str) -> Result<PathBuf, String> {
        let path = dir.join(format!("spans-{workload}.json"));
        std::fs::write(&path, self.to_json_text(workload))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(path)
    }

    /// The whole store as one JSON document. Spans are rows
    /// `[name_index, start_ns, end_ns, parent]` against the `names` table
    /// (`parent` is `-1` for a root), which keeps a few hundred thousand
    /// step spans at tens of bytes each.
    pub fn to_json_text(&self, workload: &str) -> String {
        use std::fmt::Write;
        let inner = self.inner.lock().expect("span store poisoned");
        let mut out = String::with_capacity(64 + inner.rows.len() * 32);
        out.push_str("{\"schema\":\"tensorkmc.benchmark.spans.v1\",\"workload\":\"");
        out.push_str(workload);
        out.push_str("\",\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\"],\"names\":[");
        for (i, n) in inner.names.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{n}\"");
        }
        out.push_str("],\"spans\":[");
        for (i, r) in inner.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if r.parent == ROOT {
                -1
            } else {
                i64::from(r.parent)
            };
            let _ = write!(out, "[{},{},{},{}]", r.name, r.start_ns, r.end_ns, parent);
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_json_round_trip() {
        let s = Spans::new();
        let parent = s.push("core.step", ROOT, 10, 110);
        s.push("operators.evaluate", parent, 20, 60);
        s.push("core.step", ROOT, 120, 150);
        let t = s.total("core.step");
        assert_eq!(t.count, 2);
        assert!((t.seconds - 130e-9).abs() < 1e-15);
        assert_eq!(s.durations("operators.evaluate"), vec![40e-9]);
        let doc = tensorkmc_compat::json::Json::parse(&s.to_json_text("w")).unwrap();
        assert_eq!(doc.get("workload").unwrap().as_str().unwrap(), "w");
        let tensorkmc_compat::json::Json::Arr(rows) = doc.get("spans").unwrap() else {
            panic!("spans is an array");
        };
        assert_eq!(rows.len(), 3);
    }
}
