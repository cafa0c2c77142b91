//! The traced run's span recorder: the benchmark opens a span around every
//! call into a layer, keeps the spans in memory and writes them out once at
//! the end. A span's layer is its name up to the first `.` (`cost.prune` is
//! in layer `cost`); the root span of a cell or request is in layer `bench`.

use pase_obs::{phase, Trace};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.call` name.
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The cell or request this span belongs to; shared by all its spans.
    pub group: u64,
    /// Start offset from the recorder's epoch.
    pub start: Duration,
    /// End offset from the recorder's epoch.
    pub end: Duration,
}

impl Span {
    /// The layer: the name up to the first `.`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// A span recorder. Disabled recorders keep nothing, so the untraced run
/// pays only for the clock reads it needs for its own metrics.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that records iff `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Time `f` as span `name` of `group`, nested under the innermost open
    /// span. Returns the result and the elapsed wall time either way.
    pub fn time<T>(&mut self, name: &str, group: u64, f: impl FnOnce() -> T) -> (T, Duration) {
        if !self.enabled {
            let t0 = Instant::now();
            let out = f();
            return (out, t0.elapsed());
        }
        let idx = self.spans.len();
        let start = self.epoch.elapsed();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            group,
            start,
            end: start,
        });
        self.open.push(idx);
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed();
        self.open.pop();
        self.spans[idx].end = self.epoch.elapsed();
        (out, dt)
    }

    /// Open a root span that [`Spans::time`] calls nest under until
    /// [`Spans::close`]. No-op when disabled.
    pub fn open(&mut self, name: &str, group: u64) {
        if !self.enabled {
            return;
        }
        let start = self.epoch.elapsed();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            group,
            start,
            end: start,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost span opened with [`Spans::open`].
    pub fn close(&mut self) {
        if let Some(idx) = self.open.pop() {
            self.spans[idx].end = self.epoch.elapsed();
        }
    }

    /// Attach the search phases a `pase_obs::Trace` recorded inside the most
    /// recently closed span named `parent_name` of `group`, as children of
    /// it. `trace_epoch` is when the trace was created.
    pub fn adopt_phases(
        &mut self,
        parent_name: &str,
        group: u64,
        trace: &Trace,
        trace_epoch: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let Some(parent) = self
            .spans
            .iter()
            .rposition(|s| s.name == parent_name && s.group == group)
        else {
            return;
        };
        let base = trace_epoch.saturating_duration_since(self.epoch);
        for s in trace.spans() {
            let Some(name) = core_phase_name(&s.name) else {
                continue;
            };
            self.spans.push(Span {
                name: name.to_string(),
                parent: Some(parent),
                group,
                start: base + s.start,
                end: base + s.start + s.dur,
            });
        }
    }

    /// Take every closed span, leaving the recorder empty (same epoch).
    /// Parent indices in the returned spans index into the returned vector.
    pub fn drain(&mut self) -> Vec<Span> {
        debug_assert!(self.open.is_empty(), "drain with open spans");
        std::mem::take(&mut self.spans)
    }
}

/// Append `batch` (as returned by [`Spans::drain`]) to `archive`, shifting
/// its parent indices.
pub fn archive(archive: &mut Vec<Span>, batch: Vec<Span>) {
    let offset = archive.len();
    archive.extend(batch.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + offset);
        s
    }));
}

/// Total self time per span name: each span's duration minus the time its
/// direct children cover.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<String, Duration> {
    let mut child_time = vec![Duration::ZERO; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_time[p] += s.end.saturating_sub(s.start);
        }
    }
    let mut out: BTreeMap<String, Duration> = BTreeMap::new();
    for (s, child) in spans.iter().zip(&child_time) {
        let own = s.end.saturating_sub(s.start).saturating_sub(*child);
        *out.entry(s.name.clone()).or_default() += own;
    }
    out
}

/// Total self time per layer (see [`self_time_by_name`]).
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<String, Duration> {
    let mut out: BTreeMap<String, Duration> = BTreeMap::new();
    for (name, t) in self_time_by_name(spans) {
        let layer = name.split('.').next().unwrap_or(&name).to_string();
        *out.entry(layer).or_default() += t;
    }
    out
}

/// The spans as a Chrome trace-event JSON document (`chrome://tracing`),
/// with the parent index and group id as event arguments.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}, \
                 \"group\": {}}}}}",
            s.name,
            s.layer(),
            s.start.as_secs_f64() * 1e6,
            s.end.saturating_sub(s.start).as_secs_f64() * 1e6,
            s.group
        );
    }
    out.push_str("\n]}\n");
    out
}

/// The benchmark's name for a search phase the program records, or `None`
/// for spans that nest inside another phase (the packing kernel) or that
/// the benchmark times itself (table build, prune).
fn core_phase_name(name: &str) -> Option<&'static str> {
    match name {
        phase::STRUCTURE => Some("core.structure"),
        phase::PLAN => Some("core.plan"),
        phase::BACKTRACK => Some("core.backtrack"),
        phase::SEQUENTIAL_FILL => Some("core.dp_fill"),
        n if phase::is_wavefront(n) => Some("core.dp_fill"),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let ms = Duration::from_millis;
        let span = |name: &str, parent, start, end| Span {
            name: name.into(),
            parent,
            group: 7,
            start: ms(start),
            end: ms(end),
        };
        let spans = vec![
            span("bench.cell", None, 0, 100),
            span("cost.tables", Some(0), 10, 40),
            span("core.search", Some(0), 40, 90),
            span("core.dp_fill", Some(2), 45, 85),
        ];
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["bench.cell"], ms(20));
        assert_eq!(by_name["cost.tables"], ms(30));
        assert_eq!(by_name["core.search"], ms(10));
        assert_eq!(by_name["core.dp_fill"], ms(40));
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["core"], ms(50));
        assert_eq!(by_layer["bench"], ms(20));
    }

    #[test]
    fn disabled_recorder_keeps_nothing_but_still_times() {
        let mut s = Spans::new(false);
        s.open("bench.cell", 1);
        let (v, dt) = s.time("models.build", 1, || 41 + 1);
        s.close();
        assert_eq!(v, 42);
        assert!(dt < Duration::from_secs(1));
        assert!(s.drain().is_empty());
    }

    #[test]
    fn nested_spans_record_their_parent_and_group() {
        let mut s = Spans::new(true);
        s.open("bench.cell", 3);
        s.time("cost.tables", 3, || ());
        s.close();
        let spans = s.drain();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].group, 3);
        assert_eq!(spans[1].layer(), "cost");
        assert!(chrome_json(&spans).contains("\"cost.tables\""));
        let mut all = spans.clone();
        archive(&mut all, spans);
        assert_eq!(all[3].parent, Some(2));
    }
}
