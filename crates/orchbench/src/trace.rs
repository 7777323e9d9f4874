//! In-memory spans and counts for the traced pass.
//!
//! The benchmark records a span (name, start, end, parent, batch id) around
//! each call it makes into a layer, keeps them in memory, and writes them
//! out once at exit as Chrome trace-event JSON (loads in Perfetto or
//! `chrome://tracing`). A layer's *self time* is its span minus the part
//! its direct children cover; counts are taken at the same boundaries so
//! ratios (rows/s, edges/s) are measured where the work happens.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Handle of an open or closed span.
pub type SpanId = u32;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one (`None` for roots).
    pub parent: Option<SpanId>,
    /// Spans of one batch (or one grid cell) share this id; 0 = none.
    pub batch: u32,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, u64>,
}

/// Span and count recorder. Interior-mutable so the sampling closure, the
/// refresh backend and the recycle hook of one traced epoch can all record
/// into it while the trainer holds them.
pub struct Recorder {
    origin: Instant,
    inner: RefCell<Inner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        let mut inner = Inner::default();
        // Sized for a full traced pass so recording never reallocates
        // inside a measured span.
        inner.spans.reserve(1 << 14);
        Self {
            origin: Instant::now(),
            inner: RefCell::new(inner),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Self::end`].
    pub fn begin(&self, name: &'static str, parent: Option<SpanId>, batch: u32) -> SpanId {
        let start_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        inner.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            batch,
        });
        (inner.spans.len() - 1) as SpanId
    }

    /// Closes a span and returns its duration in seconds.
    pub fn end(&self, id: SpanId) -> f64 {
        let end_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        let span = &mut inner.spans[id as usize];
        span.end_ns = end_ns;
        span.seconds()
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        batch: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, batch);
        let out = f();
        self.end(id);
        out
    }

    /// Adds `n` to a named count.
    pub fn count(&self, name: &'static str, n: u64) {
        *self.inner.borrow_mut().counts.entry(name).or_insert(0) += n;
    }

    pub fn count_of(&self, name: &str) -> u64 {
        self.inner.borrow().counts.get(name).copied().unwrap_or(0)
    }

    /// Durations (seconds) of every span called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.inner
            .borrow()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Summed duration of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Per-span self time in nanoseconds: duration minus the durations of
    /// its direct children.
    fn own_ns(spans: &[Span]) -> Vec<u64> {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        spans
            .iter()
            .zip(child_ns)
            .map(|(s, covered)| (s.end_ns - s.start_ns).saturating_sub(covered))
            .collect()
    }

    /// Self time per span name, summed over spans of that name.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let inner = self.inner.borrow();
        let mut out = BTreeMap::new();
        for (s, own) in inner.spans.iter().zip(Self::own_ns(&inner.spans)) {
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// Σ self time of every descendant of the spans called `root` ÷ Σ of
    /// those root spans — how much of the whole the parts account for.
    pub fn coverage(&self, root: &str) -> f64 {
        let inner = self.inner.borrow();
        let own = Self::own_ns(&inner.spans);
        // A parent is always recorded before its children, so one forward
        // pass settles "is under a root span" for every span.
        let mut under = vec![false; inner.spans.len()];
        let (mut whole, mut parts) = (0u64, 0u64);
        for (i, s) in inner.spans.iter().enumerate() {
            if s.name == root {
                whole += s.end_ns - s.start_ns;
            }
            if let Some(p) = s.parent {
                under[i] = inner.spans[p as usize].name == root || under[p as usize];
            }
            if under[i] {
                parts += own[i];
            }
        }
        if whole == 0 {
            0.0
        } else {
            parts as f64 / whole as f64
        }
    }

    /// Writes every span as a Chrome trace-event "complete" event.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let inner = self.inner.borrow();
        let mut out = String::with_capacity(inner.spans.len() * 128 + 64);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in inner.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            // Microseconds with nanosecond decimals, as the format expects.
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"batch\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i,
                parent,
                s.batch
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_and_coverage_adds_up() {
        let rec = Recorder::new();
        let root = rec.begin("epoch", None, 0);
        let a = rec.begin("a", Some(root), 1);
        let inner = rec.begin("a.child", Some(a), 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.end(inner);
        rec.end(a);
        rec.span("b", Some(root), 2, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.end(root);
        rec.count("rows", 3);
        rec.count("rows", 4);

        let own = rec.self_seconds();
        assert!(own["a"] < own["a.child"], "a's time is its child's");
        assert!(own["epoch"] < 0.001, "root is covered by its children");
        let cov = rec.coverage("epoch");
        assert!(cov > 0.9 && cov <= 1.0 + 1e-9, "coverage {cov}");
        assert_eq!(rec.count_of("rows"), 7);
        assert_eq!(rec.durations("b").len(), 1);
    }

    #[test]
    fn chrome_trace_is_one_complete_event_per_span() {
        let rec = Recorder::new();
        let root = rec.begin("epoch", None, 0);
        rec.span("sample.batch", Some(root), 7, || ());
        rec.end(root);
        let path =
            std::env::temp_dir().join(format!("orchbench-trace-{}.json", std::process::id()));
        rec.write_chrome(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let doc = crate::json::Value::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("ph").and_then(|v| v.as_str()), Some("X"));
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("batch"))
                .and_then(|v| v.as_f64()),
            Some(7.0)
        );
    }
}
