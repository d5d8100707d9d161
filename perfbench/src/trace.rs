//! Spans recorded around the program's public calls, and the per-layer
//! accounting built from them.
//!
//! A traced pass opens one root span ([`Call::Pass`]); every public call
//! the replay makes inside it gets a child span carrying the cell it
//! belongs to. Spans stay in memory until the run ends. A span's *self
//! time* is its duration minus the union of its children's intervals, so
//! the self times of all spans add up to the root durations exactly when
//! every child lies inside its parent — [`account`] checks that, which is
//! the conservation the per-layer report rests on.

use std::time::Instant;

/// A layer of the program, named after its crate or module. `Harness` is
/// the replay's own glue between public calls (reported as
/// `trace.unattributed_s`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Harness,
    Uarch,
    Compiler,
    Isa,
    Workloads,
    BenchCellcache,
    SupportCache,
    BenchGate,
    Nisec,
}

impl Layer {
    pub const ALL: [Layer; 9] = [
        Layer::Harness,
        Layer::Uarch,
        Layer::Compiler,
        Layer::Isa,
        Layer::Workloads,
        Layer::BenchCellcache,
        Layer::SupportCache,
        Layer::BenchGate,
        Layer::Nisec,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Harness => "harness",
            Layer::Uarch => "uarch",
            Layer::Compiler => "compiler",
            Layer::Isa => "isa",
            Layer::Workloads => "workloads",
            Layer::BenchCellcache => "bench.cellcache",
            Layer::SupportCache => "support.cache",
            Layer::BenchGate => "bench.gate",
            Layer::Nisec => "nisec",
        }
    }
}

/// The public calls a replay drives, one span kind each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    /// Root span of one traced pass.
    Pass,
    /// `levioso_workloads::suite` (and `levioso_bench::sweep_kernels`,
    /// which is a filtered `suite`).
    Suite,
    /// `levioso_bench::cellcache::workload_key`.
    WorkloadKey,
    /// `TieredCache::estimate_cost`.
    EstimateCost,
    /// `TieredCache::lookup`.
    Lookup,
    /// `TieredCache::store`.
    Store,
    /// `Scheme::prepare`.
    Prepare,
    /// `Simulator::new`.
    SimNew,
    /// `Simulator::run`.
    SimRun,
    /// `Workload::expected_checksum` (the reference interpreter).
    ExpectedChecksum,
    /// `gate::check_figures`, `gate::shape_violations` and
    /// `gate::compare_figure`.
    Gate,
    /// `levioso_nisec::gen_program` plus its secret pairs.
    GenProgram,
    /// `levioso_nisec::cellcache::cell_key`.
    CellKey,
    /// `levioso_nisec::diff`.
    Diff,
}

impl Call {
    pub fn layer(self) -> Layer {
        match self {
            Call::Pass => Layer::Harness,
            Call::Suite => Layer::Workloads,
            Call::WorkloadKey => Layer::BenchCellcache,
            Call::EstimateCost | Call::Lookup | Call::Store => Layer::SupportCache,
            Call::Prepare => Layer::Compiler,
            Call::SimNew | Call::SimRun => Layer::Uarch,
            Call::ExpectedChecksum => Layer::Isa,
            Call::Gate => Layer::BenchGate,
            Call::GenProgram | Call::CellKey | Call::Diff => Layer::Nisec,
        }
    }

    const COUNT: usize = 14;

    fn index(self) -> usize {
        self as usize
    }
}

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub call: Call,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The sweep or campaign cell the call belongs to, if any.
    pub cell: Option<u32>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans in memory. Spans nest by call order: a span begun while
/// another is open becomes its child.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, call: Call, cell: Option<u32>) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { call, start_ns, end_ns: start_ns, parent, cell });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Closes `id` and every span still open inside it — the spans a
    /// panic unwound through.
    pub fn unwind_to(&mut self, id: usize) {
        while let Some(top) = self.open.last().copied() {
            self.end(top);
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<R>(&mut self, call: Call, cell: Option<u32>, f: impl FnOnce() -> R) -> R {
        let id = self.begin(call, cell);
        let out = f();
        self.end(id);
        out
    }

    /// Duration of the most recently closed leaf span.
    pub fn last_ns(&self) -> u64 {
        self.spans.last().map_or(0, Span::duration_ns)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per-call and per-layer self time of a set of traced passes.
#[derive(Clone, Debug, Default)]
pub struct Accounting {
    /// Sum of the root ([`Call::Pass`]) span durations.
    pub wall_ns: u64,
    per_call: [u64; Call::COUNT],
    calls: [u64; Call::COUNT],
}

impl Accounting {
    /// Self time of every span of kind `call`, in seconds.
    pub fn call_s(&self, call: Call) -> f64 {
        self.per_call[call.index()] as f64 * 1e-9
    }

    /// Number of spans of kind `call`.
    pub fn calls(&self, call: Call) -> u64 {
        self.calls[call.index()]
    }

    /// Self time of a layer, in seconds.
    pub fn layer_s(&self, layer: Layer) -> f64 {
        self.layer_ns(layer) as f64 * 1e-9
    }

    fn layer_ns(&self, layer: Layer) -> u64 {
        CALLS.iter().filter(|c| c.layer() == layer).map(|c| self.per_call[c.index()]).sum()
    }

    /// `Σ layer self time == traced wall time`, the conservation check.
    pub fn conserved(&self) -> bool {
        Layer::ALL.iter().map(|&l| self.layer_ns(l)).sum::<u64>() == self.wall_ns
    }
}

const CALLS: [Call; Call::COUNT] = [
    Call::Pass,
    Call::Suite,
    Call::WorkloadKey,
    Call::EstimateCost,
    Call::Lookup,
    Call::Store,
    Call::Prepare,
    Call::SimNew,
    Call::SimRun,
    Call::ExpectedChecksum,
    Call::Gate,
    Call::GenProgram,
    Call::CellKey,
    Call::Diff,
];

/// Folds spans into per-call self times. Fails if a span is still open,
/// a child escapes its parent, or a non-root span has no parent — any of
/// which would break conservation.
pub fn account(spans: &[Span]) -> Result<Accounting, String> {
    let mut acc = Accounting::default();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        match (s.call, s.parent) {
            (Call::Pass, None) => acc.wall_ns += s.duration_ns(),
            (Call::Pass, Some(_)) => return Err("a pass span nested inside another span".into()),
            (call, None) => return Err(format!("{call:?} span outside any pass")),
            (call, Some(p)) => {
                let parent = &spans[p];
                if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                    return Err(format!("{call:?} span escapes its parent"));
                }
            }
        }
        acc.per_call[s.call.index()] += self_ns;
        acc.calls[s.call.index()] += 1;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(call: Call, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { call, start_ns, end_ns, parent, cell: None }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(Call::Pass, 0, 100, None),
            span(Call::SimRun, 10, 40, Some(0)),
            span(Call::Lookup, 30, 50, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![60, 30, 20]);
    }

    #[test]
    fn accounting_conserves_wall_time() {
        let spans = [
            span(Call::Pass, 0, 100, None),
            span(Call::SimRun, 10, 40, Some(0)),
            span(Call::Store, 50, 55, Some(0)),
        ];
        let acc = account(&spans).unwrap();
        assert!(acc.conserved());
        assert_eq!(acc.wall_ns, 100);
        assert_eq!(acc.layer_ns(Layer::Harness), 65);
        assert_eq!(acc.calls(Call::Store), 1);
    }

    #[test]
    fn escaping_children_are_rejected() {
        let spans = [span(Call::Pass, 0, 10, None), span(Call::SimRun, 5, 20, Some(0))];
        assert!(account(&spans).is_err());
        assert!(account(&[span(Call::SimRun, 0, 1, None)]).is_err());
    }

    #[test]
    fn tracer_nests_by_call_order() {
        let mut t = Tracer::default();
        let root = t.begin(Call::Pass, None);
        let x = t.span(Call::SimRun, Some(3), || 7);
        t.end(root);
        assert_eq!(x, 7);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].cell, Some(3));
        assert!(account(t.spans()).unwrap().conserved());
    }
}
