//! Delay attribution: who is to blame for every policy-blocked cycle?
//!
//! The core reports each blocked cycle through
//! [`TraceSink::on_policy_block`] with a [`Blame`]: the policy rule that
//! fired and the oldest still-blocking speculation slot. [`AttribSink`]
//! aggregates those events into per-rule cycle/instruction counters, a
//! per-rule [`Histogram`] of *per-instruction* total delay, and per-kind
//! (branch / indirect jump / load) blamed-cycle counters.
//!
//! Accounting matches the simulator's own: the core folds an
//! instruction's `policy_delay_cycles` into [`SimStats`] only at commit
//! and drops it on squash, so the sink buffers blame per in-flight
//! instruction and commits/drops it on the same events. The invariant —
//! checked by `tests/attrib.rs` and the `levitrace` binary — is exact
//! conservation of cycles:
//!
//! ```text
//! AttribStats::blamed_cycles() == SimStats::policy_delay_cycles
//! ```
//!
//! Instructions are not conserved: [`AttribStats::blamed_instrs`] counts
//! an instruction once per rule that blocked it.

use crate::run_workload_traced;
use levioso_core::Scheme;
use levioso_stats::{histogram_table, Table};
use levioso_support::{Histogram, Json};
use levioso_uarch::{Blame, BlamedKind, CoreConfig, DynInstr, Seq, SimStats, TraceSink};
use levioso_workloads::Workload;
use std::collections::{BTreeMap, HashMap};

/// Aggregated counters for one blame rule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuleStats {
    /// Total blocked cycles attributed to this rule (committed
    /// instructions only).
    pub cycles: u64,
    /// Committed instructions that were blocked by this rule at least
    /// once.
    pub instrs: u64,
    /// Distribution of per-instruction total delay under this rule.
    pub hist: Histogram,
}

/// The folded attribution result for one simulation (or a merge of
/// several — merging is element-wise and order-independent).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AttribStats {
    /// Per-rule aggregates, keyed by the policy's rule name.
    pub rules: BTreeMap<String, RuleStats>,
    /// Blamed cycles by blocking-slot kind: `[branch, indirect, load]`.
    pub kind_cycles: [u64; 3],
    /// Blamed cycles with no specific blocking slot (e.g. structural
    /// retries reported with `blamed: None`).
    pub unattributed_cycles: u64,
}

impl AttribStats {
    /// Total blamed cycles across all rules. Conserved against
    /// [`SimStats::policy_delay_cycles`].
    pub fn blamed_cycles(&self) -> u64 {
        self.rules.values().map(|r| r.cycles).sum()
    }

    /// Total blamed instructions across all rules: each committed
    /// instruction counts once per rule that blocked it, so an
    /// instruction blocked under two rules counts twice.
    pub fn blamed_instrs(&self) -> u64 {
        self.rules.values().map(|r| r.instrs).sum()
    }

    /// Adds another attribution result into this one.
    pub fn merge(&mut self, other: &AttribStats) {
        for (rule, rs) in &other.rules {
            let e = self.rules.entry(rule.clone()).or_default();
            e.cycles += rs.cycles;
            e.instrs += rs.instrs;
            e.hist.merge(&rs.hist);
        }
        for (k, v) in self.kind_cycles.iter_mut().zip(&other.kind_cycles) {
            *k += v;
        }
        self.unattributed_cycles += other.unattributed_cycles;
    }

    /// Renders the per-rule summary table plus (when non-empty) the
    /// per-rule delay histograms.
    pub fn render(&self, title: &str) -> String {
        let mut t = Table::new(
            title,
            &["rule", "blocked cycles", "blocked instrs", "mean delay", "p99 delay"],
        );
        for (rule, rs) in &self.rules {
            t.push_row(vec![
                rule.clone(),
                rs.cycles.to_string(),
                rs.instrs.to_string(),
                format!("{:.1}", rs.hist.mean()),
                rs.hist.quantile_hi(0.99).to_string(),
            ]);
        }
        t.push_row(vec![
            "total".to_string(),
            self.blamed_cycles().to_string(),
            self.blamed_instrs().to_string(),
            "-".to_string(),
            "-".to_string(),
        ]);
        let mut out = t.render();
        out.push('\n');
        let mut k = Table::new("blamed cycles by blocking-slot kind", &["kind", "cycles"]);
        for (kind, &cycles) in ["branch", "indirect", "load"].iter().zip(&self.kind_cycles) {
            k.push_row(vec![kind.to_string(), cycles.to_string()]);
        }
        k.push_row(vec!["(none)".to_string(), self.unattributed_cycles.to_string()]);
        out.push_str(&k.render());
        if self.rules.values().any(|r| !r.hist.is_empty()) {
            let series: Vec<(&str, &Histogram)> =
                self.rules.iter().map(|(rule, rs)| (rule.as_str(), &rs.hist)).collect();
            out.push('\n');
            out.push_str(&histogram_table("per-instruction delay distribution", &series).render());
        }
        out
    }

    /// Serializes to a JSON value (`u64` counters as decimal strings,
    /// matching [`Histogram::to_json`]).
    pub fn to_json(&self) -> Json {
        let rules = self
            .rules
            .iter()
            .map(|(rule, rs)| {
                Json::obj([
                    ("rule", Json::str(rule)),
                    ("cycles", Json::Str(rs.cycles.to_string())),
                    ("instrs", Json::Str(rs.instrs.to_string())),
                    ("delay_histogram", rs.hist.to_json()),
                ])
            })
            .collect();
        Json::obj([
            ("rules", Json::Arr(rules)),
            (
                "kind_cycles",
                Json::obj([
                    ("branch", Json::Str(self.kind_cycles[0].to_string())),
                    ("indirect", Json::Str(self.kind_cycles[1].to_string())),
                    ("load", Json::Str(self.kind_cycles[2].to_string())),
                    ("none", Json::Str(self.unattributed_cycles.to_string())),
                ]),
            ),
            ("blamed_cycles", Json::Str(self.blamed_cycles().to_string())),
        ])
    }
}

/// Blame buffered for one in-flight instruction (folded at commit,
/// dropped at squash — mirroring the core's `policy_delay_cycles`
/// accounting).
#[derive(Debug, Clone, Default)]
struct Pending {
    /// Blocked cycles per rule, insertion-ordered (an instruction sees at
    /// most a couple of distinct rules, so a flat vec beats a map).
    by_rule: Vec<(&'static str, u64)>,
    /// Blocked cycles by blamed-slot kind + unattributed.
    kinds: [u64; 4],
}

/// A [`TraceSink`] that aggregates policy-block blame into
/// [`AttribStats`].
#[derive(Debug, Default)]
pub struct AttribSink {
    pending: HashMap<Seq, Pending>,
    stats: AttribStats,
}

impl AttribSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        AttribSink::default()
    }

    /// Consumes the sink, returning the folded attribution. Blame still
    /// pending for in-flight instructions is discarded, exactly as the
    /// core discards their `policy_delay_cycles`.
    pub fn into_stats(self) -> AttribStats {
        self.stats
    }
}

impl TraceSink for AttribSink {
    fn on_policy_block(&mut self, _cycle: u64, instr: &DynInstr, blame: &Blame) {
        let p = self.pending.entry(instr.seq).or_default();
        match p.by_rule.iter_mut().find(|(r, _)| *r == blame.rule) {
            Some((_, n)) => *n += 1,
            None => p.by_rule.push((blame.rule, 1)),
        }
        let k = match blame.blamed {
            Some(slot) => match slot.kind {
                BlamedKind::Branch => 0,
                BlamedKind::Indirect => 1,
                BlamedKind::Load => 2,
            },
            None => 3,
        };
        p.kinds[k] += 1;
    }

    fn on_commit(&mut self, _cycle: u64, instr: &DynInstr) {
        let Some(p) = self.pending.remove(&instr.seq) else { return };
        for (rule, cycles) in p.by_rule {
            let rs = self.stats.rules.entry(rule.to_string()).or_default();
            rs.cycles += cycles;
            rs.instrs += 1;
            rs.hist.record(cycles);
        }
        for (i, n) in p.kinds.iter().enumerate().take(3) {
            self.stats.kind_cycles[i] += n;
        }
        self.stats.unattributed_cycles += p.kinds[3];
    }

    fn on_squash(&mut self, _cycle: u64, seq: Seq, _pc: u32) {
        self.pending.remove(&seq);
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

/// Runs one workload with an [`AttribSink`] attached and returns both the
/// simulator statistics and the folded attribution.
///
/// # Panics
///
/// Panics if the simulation fails, the checksum diverges, or attribution
/// conservation is violated (blamed cycles must equal the simulator's
/// own `policy_delay_cycles`).
pub fn run_workload_attributed(
    w: &Workload,
    scheme: Scheme,
    config: &CoreConfig,
) -> (SimStats, AttribStats) {
    let (stats, sink) = run_workload_traced(w, scheme, config, Box::new(AttribSink::new()));
    let sink = sink.into_any().downcast::<AttribSink>().expect("the sink we attached");
    let attrib = sink.into_stats();
    assert_eq!(
        attrib.blamed_cycles(),
        stats.policy_delay_cycles,
        "{} under {scheme}: blame is not conserved",
        w.name
    );
    (stats, attrib)
}

/// The delay-attribution report: per scheme, attribution aggregated over
/// the whole workload suite (cells run in parallel; aggregation walks the
/// fixed cell order, so the result is thread-count-independent).
pub fn attribution_report(
    sweep: &crate::Sweep,
    scale: levioso_workloads::Scale,
    schemes: &[Scheme],
) -> Vec<(Scheme, AttribStats)> {
    let config = CoreConfig::default();
    let workloads = levioso_workloads::suite(scale);
    let cells: Vec<(Scheme, &Workload)> =
        schemes.iter().flat_map(|&scheme| workloads.iter().map(move |w| (scheme, w))).collect();
    let results =
        sweep.run(&cells, |_, &(scheme, w)| run_workload_attributed(w, scheme, &config).1);
    let mut out = Vec::new();
    let mut cursor = results.into_iter();
    for &scheme in schemes {
        let mut agg = AttribStats::default();
        for _ in &workloads {
            agg.merge(&cursor.next().expect("cell per (scheme, workload)"));
        }
        out.push((scheme, agg));
    }
    out
}

/// Renders a full `--attrib` report (one section per scheme) plus its
/// machine-readable JSON document.
pub fn render_attribution(report: &[(Scheme, AttribStats)]) -> (String, String) {
    let mut text = String::new();
    for (scheme, stats) in report {
        text.push_str(&stats.render(&format!("delay attribution: {scheme}")));
        text.push('\n');
    }
    let json = Json::obj([
        ("schema", Json::str("levioso-attrib/1")),
        (
            "schemes",
            Json::Arr(
                report
                    .iter()
                    .map(|(scheme, stats)| {
                        Json::obj([
                            ("scheme", Json::str(scheme.name())),
                            ("attribution", stats.to_json()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .emit_pretty();
    (text, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AttribStats {
        let mut a = AttribStats::default();
        let rs = a.rules.entry("levioso:true-dep-unresolved".to_string()).or_default();
        rs.cycles = 10;
        rs.instrs = 3;
        rs.hist.record_n(3, 2);
        rs.hist.record(4);
        a.kind_cycles = [7, 1, 2];
        a
    }

    #[test]
    fn merge_accumulates_rules_and_kinds() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        let rs = &a.rules["levioso:true-dep-unresolved"];
        assert_eq!((rs.cycles, rs.instrs, rs.hist.count()), (20, 6, 6));
        assert_eq!(a.kind_cycles, [14, 2, 4]);
        assert_eq!(a.blamed_cycles(), 20);
    }

    /// The text `ATTRIB_overhead.json` holds per cell, pinned: nothing
    /// reads it back, so this is what checks its format.
    #[test]
    fn json_text_is_pinned() {
        let text = concat!(
            r#"{"rules":[{"rule":"levioso:true-dep-unresolved","cycles":"10","instrs":"3","#,
            r#""delay_histogram":{"count":"3","sum":"10","max":"4","buckets":[[2,"2"],[3,"1"]]}}],"#,
            r#""kind_cycles":{"branch":"7","indirect":"1","load":"2","none":"0"},"#,
            r#""blamed_cycles":"10"}"#,
        );
        assert_eq!(sample().to_json().emit(), text);
    }

    #[test]
    fn render_includes_rules_and_totals() {
        let r = sample().render("delay attribution: levioso");
        assert!(r.contains("levioso:true-dep-unresolved"));
        assert!(r.contains("total"));
        assert!(r.contains("per-instruction delay distribution"));
    }
}
