//! Metrics and the result a run prints.

use crate::stats::Derived;

/// How far a metric's value can be trusted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Measured directly, or a difference of medians larger than its
    /// inputs' spread.
    Measured,
    /// A difference of medians within its inputs' spread: noise.
    Unresolved,
    /// The workload does not exercise what the metric measures.
    NotApplicable,
    /// No sample was taken (every job of that kind failed).
    Missing,
}

/// One named metric with its unit, and the end-to-end metric and
/// workload a change to it should move.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The value (0 when not applicable or missing).
    pub value: f64,
    /// Unit as `BENCHMARK.json` lists it.
    pub unit: &'static str,
    /// Which end-to-end metric on which workload this should move.
    pub moves: &'static str,
    /// How far the value can be trusted.
    pub status: Status,
}

impl Metric {
    /// A direct measurement with no attribution (an end-to-end metric).
    pub fn measured(
        name: &'static str,
        value: Option<f64>,
        unit: &'static str,
    ) -> Self {
        Metric::layer(name, value, unit, "")
    }

    /// A direct measurement of one layer.
    pub fn layer(
        name: &'static str,
        value: Option<f64>,
        unit: &'static str,
        moves: &'static str,
    ) -> Self {
        let (value, status) = match value {
            Some(v) if v.is_finite() => (v, Status::Measured),
            _ => (0.0, Status::Missing),
        };
        Metric {
            name,
            value,
            unit,
            moves,
            status,
        }
    }

    /// A difference of medians, guarded by its inputs' spread.
    pub fn derived(
        name: &'static str,
        d: Derived,
        unit: &'static str,
        moves: &'static str,
    ) -> Self {
        Metric::ratio(name, d, d.value, unit, moves)
    }

    /// A derived difference the workload may not have: `NotApplicable`
    /// with value 0 unless `applies`.
    pub fn derived_if(
        applies: bool,
        name: &'static str,
        d: impl FnOnce() -> Derived,
        unit: &'static str,
        moves: &'static str,
    ) -> Self {
        if applies {
            Metric::derived(name, d(), unit, moves)
        } else {
            Metric {
                name,
                value: 0.0,
                unit,
                moves,
                status: Status::NotApplicable,
            }
        }
    }

    /// A value computed from two sampled medians (a ratio, say), resolved
    /// only when their difference `d` is.
    pub fn ratio(
        name: &'static str,
        d: Derived,
        value: f64,
        unit: &'static str,
        moves: &'static str,
    ) -> Self {
        let mut m = Metric::layer(name, Some(value), unit, moves);
        if m.status == Status::Measured && !d.resolved {
            m.status = Status::Unresolved;
        }
        m
    }

    /// Whether the value is within noise.
    pub fn is_unresolved(&self) -> bool {
        self.status == Status::Unresolved
    }

    /// The value as the text report shows it.
    fn shown(&self) -> String {
        match self.status {
            Status::Measured => format!("{:.6}", self.value),
            Status::Unresolved => "unresolved".into(),
            Status::NotApplicable => "n/a".into(),
            Status::Missing => "missing".into(),
        }
    }
}

/// What one run of the benchmark found.
#[derive(Debug)]
pub struct Outcome {
    /// No job failed a check.
    pub correct: bool,
    /// Jobs run in the measured phase.
    pub attempted: u64,
    /// Jobs that errored or failed a check.
    pub failed: u64,
    /// How many samples the medians rest on, and their quartiles.
    pub summary: String,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// One line per metric: name, value (or why there is none), unit, and
    /// what it should move.
    pub fn table(&self) -> String {
        let mut out = format!("{}\n", self.summary);
        for m in &self.metrics {
            out.push_str(&format!(
                "{:<28} {:>18} {:<6}",
                m.name,
                m.shown(),
                m.unit
            ));
            if !m.moves.is_empty() {
                out.push_str(&format!(" moves: {}", m.moves));
            }
            out.push('\n');
        }
        out
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \
             \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
