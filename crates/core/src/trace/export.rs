//! Chrome `trace_event` export: render a span set as the JSON the
//! `chrome://tracing` / Perfetto viewers load directly.
//!
//! The output is one JSON object with a `traceEvents` array of complete
//! (`"ph":"X"`) events — `ts`/`dur` in microseconds as the format
//! requires, span/trace/parent ids carried in `args` so causal links
//! survive the round trip — plus an `otherData` block naming the exporting
//! process and the drop counter, so a truncated ring is visible in the
//! viewer rather than silently partial.
//!
//! # The one sanctioned wall-clock site
//!
//! Span timestamps are deterministic clock nanoseconds; the export
//! envelope additionally stamps `exported_unix_ms` from the system clock
//! so archived traces can be correlated with external logs. That read is
//! presentation-only — it happens after every span was recorded and can
//! never reach alarm bytes — so `exported_unix_ms` carries the trace
//! plane's only `#[expect(clippy::disallowed_methods)]`; wall-clock reads
//! anywhere else in the trace plane fail the workspace clippy gate.

use std::time::{SystemTime, UNIX_EPOCH};

use super::span::Span;

/// Milliseconds since the Unix epoch at export time (0 if the system
/// clock is before the epoch). Presentation metadata only — see the
/// [module docs](self) for why this wall-clock read is sanctioned.
#[expect(
    clippy::disallowed_methods,
    reason = "determinism: presentation-only export stamp, read after every span was recorded"
)]
fn exported_unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// Escape a string for inclusion in a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render `spans` as a Chrome `trace_event` JSON document.
///
/// `process` names the exporting process (a node address, `"client"`, …)
/// and becomes both the `pid` metadata and part of `otherData`;
/// `dropped_spans` is the ring's eviction counter at export time. The
/// output parses with any JSON reader (the e2e suite uses the workspace's
/// own `etsc_bench::json`) and loads in `chrome://tracing` unmodified.
pub fn chrome_trace_json(process: &str, spans: &[Span], dropped_spans: u64) -> String {
    let mut out = String::with_capacity(128 + spans.len() * 160);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"otherData\":{");
    out.push_str(&format!(
        "\"process\":\"{}\",\"dropped_spans\":{dropped_spans},\"exported_unix_ms\":{}",
        escape_json(process),
        exported_unix_ms()
    ));
    out.push_str("},\"traceEvents\":[");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // ts/dur are microseconds in the trace_event format; keep
        // nanosecond precision with three decimal places.
        let ts_us = span.start_ns as f64 / 1_000.0;
        let dur_us = span.dur_ns as f64 / 1_000.0;
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"etsc\",\"ph\":\"X\",\"ts\":{ts_us:.3},\
             \"dur\":{dur_us:.3},\"pid\":\"{}\",\"tid\":\"trace-{}\",\"args\":{{\
             \"trace_id\":{},\"span_id\":{},\"parent_id\":{},\"arg\":{}}}}}",
            span.kind.name(),
            escape_json(process),
            span.trace_id,
            span.trace_id,
            span.span_id,
            span.parent_id,
            span.arg,
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::super::span::SpanKind;
    use super::*;

    fn span(id: u64, parent: u64, kind: SpanKind) -> Span {
        Span {
            trace_id: 7,
            span_id: id,
            parent_id: parent,
            kind,
            start_ns: 1_500,
            dur_ns: 250,
            arg: 3,
        }
    }

    #[test]
    fn renders_complete_events_with_causal_args() {
        let spans = [
            span(1, 0, SpanKind::ClientIngest),
            span(2, 1, SpanKind::NodeIngest),
        ];
        let json = chrome_trace_json("node0", &spans, 4);
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"name\":\"client_ingest\""));
        assert!(json.contains("\"name\":\"node_ingest\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"dur\":0.250"));
        assert!(json.contains("\"span_id\":2,\"parent_id\":1"));
        assert!(json.contains("\"dropped_spans\":4"));
        assert!(json.contains("\"process\":\"node0\""));
        assert!(json.contains("\"exported_unix_ms\":"));
    }

    #[test]
    fn empty_export_is_still_a_complete_document() {
        let json = chrome_trace_json("client", &[], 0);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":[]"));
    }

    #[test]
    fn process_names_are_escaped() {
        let json = chrome_trace_json("a\"b\\c", &[], 0);
        assert!(json.contains("\"process\":\"a\\\"b\\\\c\""));
    }
}
