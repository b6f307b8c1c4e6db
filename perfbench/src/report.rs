//! What a run reports: metrics by name and unit, the error count, and the
//! final JSON line.

use std::fmt::Write as _;

use etsc_serve::StreamAlarm;
use etsc_stream::Alarm;

use crate::drive::Round;

#[derive(Default)]
pub struct Outcome {
    /// Calls made plus stream sequences and frames checked.
    pub attempted: u64,
    /// Calls that failed plus checks that did not match.
    pub failed: u64,
    /// `(name, value, unit)`, in print order.
    metrics: Vec<(&'static str, f64, &'static str)>,
    problems: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Count `checked` checks of which `bad` failed, described by `what`.
    pub fn check(&mut self, checked: u64, bad: u64, what: impl FnOnce() -> String) {
        self.attempted += checked;
        self.failed += bad;
        if bad > 0 {
            self.problems.push(what());
        }
    }

    /// Fold one round's calls and per-stream alarm checks into the count.
    pub fn check_round(&mut self, round: &Round, reference: &[Vec<Alarm>]) {
        let failed = round.failed_calls;
        self.check(round.calls, failed, || format!("{failed} calls failed"));
        let mismatched = mismatched_streams(&round.alarms, reference) as u64;
        self.check(reference.len() as u64, mismatched, || {
            format!(
                "{mismatched} streams' alarms differ from the serial StreamMonitor::run reference"
            )
        });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.problems.is_empty()
            && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    pub fn problems(&self) -> &[String] {
        &self.problems
    }

    /// The result line: the last line a run prints.
    pub fn json(&self) -> String {
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            // JSON has no NaN or infinity; such a value already made the
            // run incorrect.
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        json
    }
}

/// Streams whose alarm sequence differs from the reference (alarms for an
/// unknown stream count as one mismatch each).
fn mismatched_streams(alarms: &[StreamAlarm], reference: &[Vec<Alarm>]) -> usize {
    let mut per_stream: Vec<Vec<Alarm>> = vec![Vec::new(); reference.len()];
    let mut unknown = 0;
    for a in alarms {
        match per_stream.get_mut(a.stream as usize) {
            Some(v) => v.push(a.alarm),
            None => unknown += 1,
        }
    }
    unknown
        + per_stream
            .iter()
            .zip(reference)
            .filter(|(got, want)| got != want)
            .count()
}
