//! The one way to time and trace a region of work.

use super::{EventKind, Severity, Span, SpanKind, TraceContext, Tracer};
use crate::metrics::{Clock, Histogram};

/// A region of work, timed and traced in one place: the clocks are read
/// when it opens, and [`finish`](Self::finish) records what it covered.
///
/// A scope owns its handles and borrows nothing, so it can span `&mut self`
/// work. It records into up to three sinks, each skipped when its clock is
/// disabled: a histogram observation on the [`timed`](Self::timed) clock,
/// and a span and events on the tracer's clock. A span needs a parent: a
/// fresh trace ([`root`](Self::root)) or a [`TraceContext`]
/// ([`child`](Self::child)). A [`timer`](Self::timer) is a scope that only
/// times, closed by [`stop`](Self::stop). A scope dropped without being
/// closed, as on an error path, records neither its span nor its duration.
/// The [module docs](super) show one in use.
#[derive(Debug, Default)]
pub struct Scope {
    /// The timing clock and its reading at open; `None` when untimed or
    /// disabled.
    timer: Option<(Clock, u64)>,
    /// The tracer, when one is installed and enabled.
    tracer: Option<Tracer>,
    /// The open span: its kind, parent, start, and id (0 until allocated);
    /// only with a tracer and a parent.
    span: Option<(SpanKind, TraceContext, u64, u64)>,
}

impl Scope {
    /// Open a new trace under `tracer`, with a root span of `kind`.
    pub fn root(tracer: Option<&Tracer>, kind: SpanKind) -> Self {
        let parent = tracer.filter(|t| t.enabled()).map(|t| TraceContext {
            trace_id: t.next_id(),
            parent_span: 0,
        });
        Self::child(tracer, parent, kind)
    }

    /// Open a span of `kind` under `parent`. Without a parent the scope
    /// records no span, but its [`event`](Self::event)s still log.
    pub fn child(tracer: Option<&Tracer>, parent: Option<TraceContext>, kind: SpanKind) -> Self {
        let tracer = tracer.filter(|t| t.enabled()).cloned();
        let span = tracer
            .as_ref()
            .zip(parent)
            .map(|(t, parent)| (kind, parent, t.start(), 0));
        Self {
            timer: None,
            tracer,
            span,
        }
    }

    /// A stopwatch on `clock`: no span, no events; [`stop`](Self::stop)
    /// records its duration.
    pub fn timer(clock: &Clock) -> Self {
        Self::default().timed(clock)
    }

    /// Also time the scope on `clock`, for the histogram handed to
    /// [`finish`](Self::finish).
    pub fn timed(mut self, clock: &Clock) -> Self {
        self.timer = (!clock.is_disabled()).then(|| (clock.clone(), clock.now_ns()));
        self
    }

    /// The context work inside the scope runs under: its span's, or `None`
    /// when it records no span. The first call allocates the span's id, so
    /// the work can parent to the span before it is recorded.
    pub fn ctx(&mut self) -> Option<TraceContext> {
        let (tracer, (_, parent, _, id)) = (self.tracer.as_ref()?, self.span.as_mut()?);
        if *id == 0 {
            *id = tracer.next_id();
        }
        Some(TraceContext {
            trace_id: parent.trace_id,
            parent_span: *id,
        })
    }

    /// Log an event at the current time (skipped without an enabled
    /// tracer).
    pub fn event(&self, severity: Severity, kind: EventKind, a: u64, b: u64) {
        if let Some(t) = &self.tracer {
            t.event(severity, kind, a, b);
        }
    }

    /// Close a [`timer`](Self::timer): record its duration into `hist`.
    pub fn stop(self, hist: &Histogram) {
        self.finish(0, Some(hist));
    }

    /// Close the scope: record its duration into `hist` when timed, and
    /// its span, carrying `arg`, when one is open.
    pub fn finish(mut self, arg: u64, hist: Option<&Histogram>) {
        if let (Some((clock, started)), Some(hist)) = (&self.timer, hist) {
            hist.record(clock.now_ns().saturating_sub(*started));
        }
        if let (Some(ctx), Some(t), Some((kind, parent, start_ns, _))) =
            (self.ctx(), &self.tracer, self.span)
        {
            t.record(Span {
                trace_id: ctx.trace_id,
                span_id: ctx.parent_span,
                parent_id: parent.parent_span,
                kind,
                start_ns,
                dur_ns: t.clock().now_ns().saturating_sub(start_ns),
                arg,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TracerConfig;

    fn tracer(clock: &Clock) -> Tracer {
        let cfg = TracerConfig {
            clock: clock.clone(),
            id_seed: 10,
            ..TracerConfig::default()
        };
        Tracer::new(cfg)
    }

    #[test]
    fn preallocated_span_ids_record_later_and_disable_cleanly() {
        let (clock, hist) = (Clock::manual(), Histogram::new());
        let t = tracer(&clock);
        // Trace id 10; the root's span id, 11, is taken before the root is
        // recorded, so the child can parent to it.
        let mut root = Scope::root(Some(&t), SpanKind::NodeIngest).timed(&clock);
        let ctx = root.ctx();
        assert_eq!(ctx.map(|c| (c.trace_id, c.parent_span)), Some((10, 11)));
        clock.advance_ns(30);
        Scope::child(Some(&t), ctx, SpanKind::ShardEnqueue).finish(4, None);
        // Without a parent a scope records no span, but its events log.
        let orphan = Scope::child(Some(&t), None, SpanKind::Migration);
        orphan.event(Severity::Info, EventKind::Migration, 2, 0);
        orphan.finish(2, None);
        clock.advance_ns(20);
        root.finish(9, Some(&hist));
        let spans = t.spans();
        assert!(spans.iter().all(|s| s.trace_id == 10));
        let spans: Vec<_> = spans
            .iter()
            .map(|s| (s.span_id, s.parent_id, s.kind, s.start_ns, s.dur_ns))
            .collect();
        assert_eq!(
            spans,
            [
                (12, 11, SpanKind::ShardEnqueue, 30, 0),
                (11, 0, SpanKind::NodeIngest, 0, 50)
            ]
        );
        assert_eq!((t.events().len(), hist.snapshot().sum), (1, 50));

        // A disabled tracer opens no span, takes no id and records nothing;
        // a disabled clock times nothing.
        let off = Clock::disabled();
        let t = tracer(&off);
        let mut root = Scope::root(Some(&t), SpanKind::NodeIngest).timed(&off);
        let mut child = Scope::child(Some(&t), ctx, SpanKind::ShardEnqueue);
        assert_eq!((root.ctx(), child.ctx()), (None, None));
        child.event(Severity::Error, EventKind::FailoverDeclared, 1, 1);
        child.finish(1, None);
        root.finish(2, Some(&hist));
        Scope::timer(&off).stop(&hist);
        assert!(t.spans().is_empty() && t.events().is_empty());
        assert_eq!((t.next_id(), hist.snapshot().count()), (10, 1));
    }
}
