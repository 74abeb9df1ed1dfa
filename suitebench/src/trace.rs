//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records a layer name, its start and end (nanoseconds since the
//! tracer was created), the span that was open on the same thread when it
//! began (its parent) and a request id shared by every span of one
//! operation. Spans are kept in memory while the workload runs and written
//! out once at the end ([`write_jsonl`]). A layer's *self time* is the
//! duration of its spans minus the part of it their child spans cover
//! ([`self_time_by_layer`]); children on other threads (concurrent
//! clients) are adopted with [`Tracer::within`].
//!
//! A disabled tracer records nothing: [`Tracer::span`] then just calls the
//! closure, so untraced runs pay one branch per wrapped call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name, e.g. `petri.explore`.
    pub layer: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread, if any.
    pub parent: Option<usize>,
    /// The operation this span belongs to.
    pub request: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// Indices of the spans currently open on this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// The span recorder (see the module docs).
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span of `layer` for operation `request`.
    pub fn span<T>(&self, layer: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let parent = OPEN.with(|open| open.borrow().last().copied());
        let index = {
            let mut spans = self.spans.lock().expect("span list poisoned");
            spans.push(Span {
                layer,
                start_ns: 0,
                end_ns: 0,
                parent,
                request,
            });
            spans.len() - 1
        };
        OPEN.with(|open| open.borrow_mut().push(index));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        OPEN.with(|open| open.borrow_mut().pop());
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans[index].start_ns = start_ns;
        spans[index].end_ns = end_ns;
        out
    }

    /// The innermost span open on the calling thread.
    #[must_use]
    pub fn open_span(&self) -> Option<usize> {
        OPEN.with(|open| open.borrow().last().copied())
    }

    /// Runs `f` with `parent` (a span open on another thread, see
    /// [`open_span`](Self::open_span)) as the parent of the spans `f`
    /// opens on this thread.
    pub fn within<T>(&self, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let Some(parent) = parent.filter(|_| self.enabled) else {
            return f();
        };
        OPEN.with(|open| open.borrow_mut().push(parent));
        let out = f();
        OPEN.with(|open| open.borrow_mut().pop());
        out
    }

    /// Takes every recorded span out of the tracer, in the order they
    /// were opened.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span list poisoned"))
    }
}

/// Self time per layer in nanoseconds: each span's duration minus the
/// part of it covered by the union of its direct children (concurrent
/// children overlap, so their durations are not simply summed).
#[must_use]
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (span, mut intervals) in spans.iter().zip(children) {
        intervals.sort_unstable();
        let (mut covered, mut reach) = (0u64, span.start_ns);
        for (start, end) in intervals {
            let (start, end) = (start.max(reach), end.min(span.end_ns));
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        *by_layer.entry(span.layer).or_default() += span.duration_ns().saturating_sub(covered);
    }
    by_layer
}

/// Writes `spans` to `path`, one JSON object per line.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (index, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{index},\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            span.layer, span.start_ns, span.end_ns, span.request
        )?;
    }
    out.flush()
}
