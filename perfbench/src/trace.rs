//! Outside-in spans: the traced run wraps each call into a layer in a span
//! `{name, start, end, parent, step}`, keeps them in memory and writes
//! them out when the run ends.
//!
//! A layer's self time is its span minus the part its child spans cover.
//! Replay spans time work the step does not need (the benchmark re-runs
//! the solver to split its time out); they are flagged so the tracing
//! overhead can leave them out.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, as reported in the per-layer metrics.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Step the span belongs to.
    pub step: u32,
    /// Whether the span times a replay rather than the step's own work.
    pub replay: bool,
}

impl Span {
    /// Wall duration, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a trace, in scaled seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    /// Summed wall duration.
    pub total_s: f64,
    /// Summed self time (duration minus children).
    pub self_s: f64,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    step: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            step: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the step index stamped on spans opened from now on.
    pub fn set_step(&mut self, step: u32) {
        self.step = step;
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, replay: bool) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            step: self.step,
            replay,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: u32) {
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, false);
        let out = f();
        self.exit(id);
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals and self times per span name, each span's seconds
    /// multiplied by `scale[step]` (a step's host normalization).
    pub fn layer_totals(&self, scale: &[f64]) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let k = scale[s.step as usize] * 1e-9;
            let t = out.entry(s.name).or_default();
            t.total_s += s.duration_ns() as f64 * k;
            t.self_s += s.duration_ns().saturating_sub(children) as f64 * k;
        }
        out
    }

    /// Per-step wall time of the spans named `step_name`, less the replay
    /// spans inside each: what the step costs with tracing on.
    pub fn step_durations_ns(&self, step_name: &str) -> Vec<u64> {
        let mut replay_ns = vec![0u64; self.spans.len()];
        for s in self.spans.iter().filter(|s| s.replay) {
            // Charge the replay to its outermost non-replay ancestor.
            let mut at = s.parent;
            while let Some(p) = at {
                if self.spans[p as usize].parent.is_none() {
                    replay_ns[p as usize] += s.duration_ns();
                    break;
                }
                at = self.spans[p as usize].parent;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == step_name)
            .map(|(i, s)| s.duration_ns().saturating_sub(replay_ns[i]))
            .collect()
    }

    /// Writes the spans as JSON lines to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"step\":{},\"replay\":{}}}",
                s.name, s.start_ns, s.end_ns, s.step, s.replay
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_replays_leave_the_step() {
        let mut t = Tracer::new();
        let step = t.enter("step", false);
        let child = t.enter("child", false);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(child);
        let rep = t.enter("replay", true);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(rep);
        t.exit(step);
        let totals = t.layer_totals(&[1.0]);
        let s = totals["step"];
        let children = totals["child"].total_s + totals["replay"].total_s;
        assert!(s.self_s < s.total_s);
        assert!((s.self_s - (s.total_s - children)).abs() < 1e-12);
        let d = t.step_durations_ns("step")[0] as f64 * 1e-9;
        assert!((d - (s.total_s - totals["replay"].total_s)).abs() < 1e-12);
    }
}
