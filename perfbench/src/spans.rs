//! Layer spans recorded from outside the program.
//!
//! Every call the benchmark makes into one of the pipeline's layers is
//! wrapped in [`Tracer::layer`]. With tracing off the wrapper only runs the
//! call; with tracing on it records a span (name, start, end, parent span,
//! cell id) in memory. Spans are written once, at exit, by
//! [`Tracer::write_json`]. Work counts (instructions and events simulated)
//! are added at the same boundaries while recording, so per-instruction
//! ratios divide a layer's traced time by the work done in that time.
//! Each call's duration is also logged as a *step*, traced or not, so the
//! untraced run can time an iteration step by step.

use std::fmt::Write as _;
use std::time::Instant;

/// The pipeline layers the benchmark times, named after the crate module
/// that does the work.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    /// `twig_workload::ProgramGenerator::generate`.
    Generate,
    /// The workload walker (`Walker`, `WalkerSource`).
    Walk,
    /// `twig_workload::ColumnarWriter`.
    ColumnarWrite,
    /// A decode-only pass over `twig_workload::ColumnarSource`.
    ColumnarDecode,
    /// `TwigOptimizer::collect_profile_and_stats_*` (twig-profile).
    Profile,
    /// `TwigOptimizer::analyze_for` (twig analysis).
    Analysis,
    /// `TwigOptimizer::rewrite_of` (twig rewrite).
    Rewrite,
    /// `PlainBtb` simulator passes with observability off (twig-sim).
    Sim,
    /// Shotgun and Confluence passes (twig-prefetchers).
    Prefetchers,
    /// Simulator passes with `ObsConfig::counters()` on (twig-obs).
    Obs,
}

impl Layer {
    pub const ALL: [Layer; 10] = [
        Layer::Generate,
        Layer::Walk,
        Layer::ColumnarWrite,
        Layer::ColumnarDecode,
        Layer::Profile,
        Layer::Analysis,
        Layer::Rewrite,
        Layer::Sim,
        Layer::Prefetchers,
        Layer::Obs,
    ];

    /// Span name; the per-layer time metric is this name with `_s` appended.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Generate => "workload.generate",
            Layer::Walk => "workload.walk",
            Layer::ColumnarWrite => "workload.columnar_write",
            Layer::ColumnarDecode => "workload.columnar_decode",
            Layer::Profile => "profile.collect",
            Layer::Analysis => "analysis.analyze",
            Layer::Rewrite => "rewrite.rewrite",
            Layer::Sim => "sim.run",
            Layer::Prefetchers => "prefetchers.run",
            Layer::Obs => "obs.run",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Instructions retired and events consumed by one layer's calls.
#[derive(Clone, Copy, Default, Debug)]
pub struct Work {
    pub instrs: u64,
    pub events: u64,
}

/// Index of a result cell (an `app/system/config` string) in
/// [`Tracer::cells`]; every span carries the cell it works toward.
pub type CellId = u32;

/// Marks a span that belongs to no single cell (setup, iterations).
pub const NO_CELL: CellId = u32::MAX;

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    cell: CellId,
}

/// In-memory span recorder; a no-op when off.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    cells: Vec<String>,
    work: [Work; Layer::ALL.len()],
    steps: Vec<u64>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            cells: Vec::new(),
            work: [Work::default(); Layer::ALL.len()],
            steps: Vec::new(),
        }
    }

    /// Switches span recording on or off between iterations (the traced
    /// run alternates untraced and traced iterations to price tracing).
    pub fn set_recording(&mut self, on: bool) {
        self.on = on;
    }

    /// Interns a cell name. Returns [`NO_CELL`] when not recording, so the
    /// untraced run does no string work.
    pub fn cell(&mut self, name: impl FnOnce() -> String) -> CellId {
        if !self.on {
            return NO_CELL;
        }
        let name = name();
        match self.cells.iter().position(|c| *c == name) {
            Some(i) => i as CellId,
            None => {
                self.cells.push(name);
                (self.cells.len() - 1) as CellId
            }
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a parent span (setup, iteration); close it with [`Self::close`].
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            cell: NO_CELL,
        });
        self.open.push(idx);
        Some(idx)
    }

    pub fn close(&mut self, span: Option<usize>) {
        let Some(idx) = span else { return };
        let end = self.now_ns();
        self.spans[idx].end_ns = end;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
    }

    /// Runs one call into `layer`, recording a span around it when on.
    /// Its duration is logged as one step either way (see
    /// [`Self::take_steps`]).
    pub fn layer<T>(&mut self, layer: Layer, cell: CellId, call: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let out = call();
        let end_ns = self.now_ns();
        self.steps.push(end_ns - start_ns);
        if !self.on {
            return out;
        }
        self.spans.push(Span {
            name: layer.name(),
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            cell,
        });
        out
    }

    /// Durations in nanoseconds of every layer call since the last take,
    /// in call order. An iteration makes the same calls in the same order
    /// every time, so entry `k` of two iterations times the same step.
    pub fn take_steps(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.steps)
    }

    /// Adds simulated work done by one call into `layer` (while recording).
    pub fn add_work(&mut self, layer: Layer, instrs: u64, events: u64) {
        if !self.on {
            return;
        }
        let w = &mut self.work[layer.index()];
        w.instrs += instrs;
        w.events += events;
    }

    pub fn work(&self, layer: Layer) -> Work {
        self.work[layer.index()]
    }

    /// Self time of every span named `name`, summed, in seconds: each
    /// span's duration minus the part its direct children cover.
    pub fn self_seconds(&self, name: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let ns: u64 = self
            .spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .sum();
        ns as f64 * 1e-9
    }

    /// All spans and cell names as one JSON document.
    pub fn write_json(&self) -> String {
        let mut out = String::from("{\n  \"cells\": [");
        for (i, cell) in self.cells.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{cell}\"");
        }
        out.push_str("],\n  \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let cell = if s.cell == NO_CELL {
                "null".to_string()
            } else {
                s.cell.to_string()
            };
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"cell\": {cell}}}{sep}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true);
        let outer = t.open("iteration");
        t.layer(Layer::Sim, NO_CELL, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.close(outer);
        let total = t.spans[0].end_ns - t.spans[0].start_ns;
        let sim = t.self_seconds("sim.run");
        assert!(sim >= 0.005);
        let iteration = t.self_seconds("iteration");
        assert!((iteration + sim - total as f64 * 1e-9).abs() < 1e-9);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.cell(|| "x".into()), NO_CELL);
        t.layer(Layer::Sim, NO_CELL, || ());
        t.add_work(Layer::Sim, 10, 2);
        assert!(t.spans.is_empty());
        assert_eq!(t.work(Layer::Sim).instrs, 0);
    }

    #[test]
    fn steps_are_logged_traced_or_not() {
        for on in [false, true] {
            let mut t = Tracer::new(on);
            t.layer(Layer::Sim, NO_CELL, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.layer(Layer::Rewrite, NO_CELL, || ());
            let steps = t.take_steps();
            assert_eq!(steps.len(), 2);
            assert!(steps[0] >= 2_000_000);
            assert!(t.take_steps().is_empty());
        }
    }
}
