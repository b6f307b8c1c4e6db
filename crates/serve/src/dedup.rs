//! Sink-side exactly-once alarm delivery.
//!
//! Alarm delivery out of a single runtime is at-least-once across a
//! checkpoint/recover cycle: undelivered alarms are written into the
//! checkpoint, and a recovered runtime's first
//! [`drain`](crate::Runtime::drain) re-delivers everything the checkpoint
//! held — including alarms the sink may already have seen before the
//! crash. A failover makes this concrete: the supervisor recovers the dead
//! node's runtime from its last checkpoint and hands the sink that
//! checkpoint's pending alarms, some of which were already delivered.
//!
//! [`DedupCursor`] closes the gap at the sink. It tracks, per stream, the
//! per-stream time of the last alarm delivered and drops anything at or
//! behind it. The cursor is keyed on [`Alarm::time`](etsc_stream::Alarm) —
//! the **per-stream sample clock** — rather than the global ingest `seq`,
//! because `seq` is local to one runtime's lineage: the survivor that
//! adopts a failed-over stream assigns its own sequence numbers, while the
//! stream's sample clock continues exactly where the snapshot left it (the
//! determinism the whole migration path guarantees). Within one stream,
//! alarm times are strictly increasing, so "drop time ≤ cursor" removes
//! precisely the redelivered prefix and nothing legitimate.

use std::collections::BTreeMap;

use etsc_persist::{Decoder, Encoder, PersistError};

use crate::runtime::StreamAlarm;
use etsc_core::metrics::{push_counter, push_gauge};

/// A sink-side dedup filter upgrading alarm delivery from at-least-once to
/// exactly-once across crash, recovery, and failover (see the
/// [module docs](self)).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DedupCursor {
    /// stream id → per-stream time of the last delivered alarm.
    seen: BTreeMap<u64, usize>,
    delivered: u64,
    dropped: u64,
}

impl DedupCursor {
    /// A fresh cursor that has seen nothing.
    pub fn new() -> DedupCursor {
        DedupCursor::default()
    }

    /// Filter one drained chunk: alarms at or behind a stream's cursor are
    /// dropped as redelivery duplicates, the rest advance the cursor and
    /// pass through in order.
    pub fn filter(&mut self, alarms: Vec<StreamAlarm>) -> Vec<StreamAlarm> {
        let mut out = Vec::with_capacity(alarms.len());
        for a in alarms {
            let fresh = match self.seen.get(&a.stream) {
                Some(&cursor) => a.alarm.time > cursor,
                None => true,
            };
            if fresh {
                self.seen.insert(a.stream, a.alarm.time);
                self.delivered += 1;
                out.push(a);
            } else {
                self.dropped += 1;
            }
        }
        out
    }

    /// Alarms passed through over the cursor's life.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Alarms dropped as duplicates over the cursor's life.
    pub fn duplicates_dropped(&self) -> u64 {
        self.dropped
    }

    /// Streams the cursor has delivered at least one alarm for.
    pub fn streams(&self) -> usize {
        self.seen.len()
    }

    /// Append the cursor to `enc` (codec: `etsc-persist`), so a sink can
    /// checkpoint its delivery frontier alongside whatever it feeds.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.delivered);
        enc.put_u64(self.dropped);
        enc.put_usize(self.seen.len());
        for (&stream, &time) in &self.seen {
            enc.put_u64(stream);
            enc.put_usize(time);
        }
    }

    /// Read a cursor encoded by [`encode`](Self::encode).
    pub fn decode(dec: &mut Decoder<'_>) -> Result<DedupCursor, PersistError> {
        let delivered = dec.get_u64("dedup delivered")?;
        let dropped = dec.get_u64("dedup dropped")?;
        let n = dec.get_usize("dedup stream count")?;
        dec.check_claim(n, 16, "dedup streams")?;
        let mut seen = BTreeMap::new();
        for _ in 0..n {
            let stream = dec.get_u64("dedup stream id")?;
            let time = dec.get_usize("dedup stream time")?;
            seen.insert(stream, time);
        }
        Ok(DedupCursor {
            seen,
            delivered,
            dropped,
        })
    }

    /// Render the cursor's counters in Prometheus text exposition format
    /// (same conventions as
    /// [`ServeStats::render_prometheus`](crate::ServeStats::render_prometheus)).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        push_counter(
            &mut out,
            "etsc_sink_delivered_total",
            "Alarms delivered to the sink after dedup.",
            self.delivered,
        );
        push_counter(
            &mut out,
            "etsc_sink_duplicates_dropped_total",
            "Redelivered alarms dropped by the sink dedup cursor.",
            self.dropped,
        );
        push_gauge(
            &mut out,
            "etsc_sink_streams",
            "Streams with at least one delivered alarm.",
            self.seen.len() as u64,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etsc_stream::Alarm;

    fn alarm(stream: u64, seq: u64, time: usize) -> StreamAlarm {
        StreamAlarm {
            stream,
            seq,
            alarm: Alarm {
                time,
                anchor: time.saturating_sub(4),
                label: 1,
                confidence: 0.9,
            },
        }
    }

    #[test]
    fn passes_fresh_alarms_and_drops_redelivered_prefix() {
        let mut cur = DedupCursor::new();
        let first = cur.filter(vec![alarm(3, 0, 10), alarm(3, 1, 25), alarm(7, 2, 5)]);
        assert_eq!(first.len(), 3);
        // A crash+recover re-delivers the checkpointed tail, then fresh work.
        let second = cur.filter(vec![alarm(3, 1, 25), alarm(3, 9, 40), alarm(7, 3, 6)]);
        assert_eq!(second.len(), 2);
        assert_eq!(second[0].alarm.time, 40);
        assert_eq!(second[1].stream, 7);
        assert_eq!(cur.delivered(), 5);
        assert_eq!(cur.duplicates_dropped(), 1);
        assert_eq!(cur.streams(), 2);
    }

    #[test]
    fn time_zero_alarms_are_not_swallowed() {
        // A stream can legitimately alarm at sample index 0; an unseen
        // stream must pass it through.
        let mut cur = DedupCursor::new();
        assert_eq!(cur.filter(vec![alarm(1, 0, 0)]).len(), 1);
        assert_eq!(cur.filter(vec![alarm(1, 0, 0)]).len(), 0, "now a dup");
    }

    #[test]
    fn survives_a_codec_round_trip() {
        let mut cur = DedupCursor::new();
        cur.filter(vec![alarm(3, 0, 10), alarm(7, 1, 2)]);
        cur.filter(vec![alarm(3, 0, 10)]); // one dup
        let mut enc = Encoder::new();
        cur.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = DedupCursor::decode(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(back, cur);
        // The restored cursor keeps filtering from the same frontier.
        let mut back = back;
        assert_eq!(back.filter(vec![alarm(7, 5, 2)]).len(), 0);
        assert_eq!(back.filter(vec![alarm(7, 5, 3)]).len(), 1);
    }

    #[test]
    fn prometheus_exposition_names_the_counters() {
        let mut cur = DedupCursor::new();
        cur.filter(vec![alarm(3, 0, 10)]);
        let text = cur.render_prometheus();
        assert!(text.contains("etsc_sink_delivered_total 1"));
        assert!(text.contains("etsc_sink_duplicates_dropped_total 0"));
        assert!(text.contains("etsc_sink_streams 1"));
    }
}
