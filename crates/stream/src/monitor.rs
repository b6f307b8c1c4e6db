//! The stream monitor: running an early classifier on unbounded data.
//!
//! A UCR-format evaluation hands the classifier one perfectly segmented
//! exemplar at a time. A deployment does not know when (or whether) a
//! pattern starts. The monitor therefore keeps a set of candidate **anchors**
//! — recent positions at which a pattern might have begun — and feeds each
//! arriving sample to every anchor's incremental
//! [`DecisionSession`](etsc_early::DecisionSession). When a session commits,
//! an alarm fires (and a refractory period suppresses the alarm storm that
//! would otherwise follow from neighboring anchors).
//!
//! Each anchor costs one `push` per sample — amortized O(1) in the anchor's
//! age for the incremental session implementations — where the previous
//! design re-sliced every anchor's whole prefix and called the stateless
//! `decide` on it, doing O(prefix) work per anchor per sample (O(L²) over an
//! anchor's lifetime). Sessions are pooled and reused across anchors, so
//! steady-state monitoring does not allocate.
//!
//! Alarm semantics: at most one alarm fires per sample — the oldest
//! committed anchor, provided the monitor is outside its refractory period.
//! Anchors that commit while another fires stay live and fire on subsequent
//! samples; any commit still pending when the refractory period begins is
//! suppressed for good (the anchor retires silently — refractory
//! *suppresses* alarms, it does not defer them). Fired and expired anchors
//! are retired immediately; their sessions return to the pool.
//!
//! This design surfaces all three of the paper's streaming failure modes:
//! prefixes of longer innocuous patterns trigger anchors mid-word (the
//! prefix problem), contained atomic units trigger them inside larger events
//! (inclusion), and look-alike background shapes trigger them anywhere
//! (homophones).

use etsc_core::ClassLabel;
use etsc_early::{DecisionSession, EarlyClassifier, SessionNorm};
use etsc_persist::{Encoder, PersistError};

/// Envelope kind tag for [`StreamMonitor::snapshot_anchors`] state.
pub const MONITOR_STATE_KIND: &str = "StreamMonitorAnchors";

/// Minimum live-anchor count before the per-sample fan-out is worth worker
/// threads. The spawn round paid on *every* sample costs ~10µs per worker,
/// while a session push costs tens of nanoseconds (the perfbench ledger's
/// `early.push_ns` for `ProbThreshold<NearestCentroid>`; O(1) bookkeeping
/// once a session latches), so only dense anchor populations — hundreds of
/// anchors, from small strides over long patterns — clear it.
const PAR_MIN_ANCHORS: usize = 512;

/// Normalization applied to each anchored prefix before classification.
///
/// Deliberately **no oracle option**: a deployment cannot standardize a
/// prefix with statistics of data that has not arrived yet (Section 4 of
/// the paper). To see what happens when a model trained on z-normalized
/// exemplars meets a stream, run `Raw` (the mismatch the paper predicts
/// floods the model with false negatives) and `PerPrefix` (the honest best
/// effort).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamNorm {
    /// Feed raw samples unchanged.
    Raw,
    /// Honest per-prefix normalization: sessions z-normalize the data each
    /// decision consumes using only already-arrived samples (running
    /// statistics; see [`SessionNorm::PerPrefix`]).
    PerPrefix,
}

impl From<StreamNorm> for SessionNorm {
    fn from(norm: StreamNorm) -> Self {
        match norm {
            StreamNorm::Raw => SessionNorm::Raw,
            StreamNorm::PerPrefix => SessionNorm::PerPrefix,
        }
    }
}

/// Monitor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamMonitorConfig {
    /// Spacing between candidate anchors, in samples. 1 = an anchor at every
    /// position (exhaustive; cost scales inversely).
    pub anchor_stride: usize,
    /// Normalization policy for anchored prefixes.
    pub norm: StreamNorm,
    /// Samples after an alarm during which no further alarm may fire.
    pub refractory: usize,
}

impl Default for StreamMonitorConfig {
    fn default() -> Self {
        Self {
            anchor_stride: 4,
            norm: StreamNorm::PerPrefix,
            refractory: 0,
        }
    }
}

/// An alarm emitted by the monitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alarm {
    /// Sample index at which the classifier committed.
    pub time: usize,
    /// Anchor (hypothesized pattern onset) that produced the alarm.
    pub anchor: usize,
    /// Predicted class.
    pub label: ClassLabel,
    /// Classifier confidence.
    pub confidence: f64,
}

impl Alarm {
    /// Append this alarm to `enc` (codec: `etsc-persist`). Alarms travel in
    /// serving-runtime checkpoints — an alarm that was produced but not yet
    /// delivered when a checkpoint was cut must survive the restart.
    ///
    /// The confidence crosses as its IEEE bits, so a decoded alarm compares
    /// equal (`PartialEq`) to the original.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_usize(self.time);
        enc.put_usize(self.anchor);
        enc.put_usize(self.label);
        enc.put_f64(self.confidence);
    }

    /// Decode an alarm written by [`encode`](Self::encode).
    pub fn decode(dec: &mut etsc_persist::Decoder<'_>) -> Result<Self, PersistError> {
        Ok(Self {
            time: dec.get_usize("alarm time")?,
            anchor: dec.get_usize("alarm anchor")?,
            label: dec.get_usize("alarm label")?,
            confidence: dec.get_f64("alarm confidence")?,
        })
    }
}

/// A streaming monitor wrapping an early classifier.
pub struct StreamMonitor<'a, C: EarlyClassifier + ?Sized> {
    clf: &'a C,
    cfg: StreamMonitorConfig,
    /// Live anchors and their sessions, ascending by anchor offset.
    anchors: Vec<(usize, Box<dyn DecisionSession + 'a>)>,
    /// Retired sessions awaiting reuse (reset on reissue).
    pool: Vec<Box<dyn DecisionSession + 'a>>,
    /// Absolute index of the next incoming sample.
    now: usize,
    /// No alarms before this time (refractory gate).
    quiet_until: usize,
}

impl<'a, C: EarlyClassifier + ?Sized> StreamMonitor<'a, C> {
    /// Create a monitor over a fitted early classifier.
    pub fn new(clf: &'a C, cfg: StreamMonitorConfig) -> Self {
        assert!(cfg.anchor_stride >= 1, "anchor stride must be positive");
        Self {
            clf,
            cfg,
            anchors: Vec::new(),
            pool: Vec::new(),
            now: 0,
            quiet_until: 0,
        }
    }

    /// Feed one sample; returns an alarm if a session committed.
    pub fn push(&mut self, x: f64) -> Option<Alarm> {
        let max_len = self.clf.series_len();
        // Spawn a new anchor on stride boundaries, reusing pooled sessions.
        if self.now.is_multiple_of(self.cfg.anchor_stride) {
            let session = match self.pool.pop() {
                Some(mut s) => {
                    s.reset();
                    s
                }
                None => self.clf.session(self.cfg.norm.into()),
            };
            self.anchors.push((self.now, session));
        }
        let t = self.now;
        self.now += 1;
        let quiet = t < self.quiet_until;

        // One push per live session (committed sessions are latched: their
        // pushes are O(1) bookkeeping while they wait to fire or be
        // suppressed below). With a dense anchor population the pushes fan
        // out across worker threads (`etsc_core::parallel`, honoring
        // `ETSC_THREADS`); sessions are independent, so decisions are
        // identical to the serial sweep, and the gate keeps small
        // populations on the cheap serial path.
        let threads = etsc_core::parallel::gate(self.anchors.len(), PAR_MIN_ANCHORS);
        etsc_core::parallel::for_each_mut_with(threads, &mut self.anchors, |(_, session)| {
            session.push(x);
        });

        // At most one alarm per sample: the oldest committed anchor fires,
        // if the monitor is outside its refractory period. Further anchors
        // committed at the same instant stay live and drain on subsequent
        // samples — unless the refractory period swallows them first.
        //
        // The label is read through `label_confidence()` rather than
        // asserted: a committed session can stop carrying a prediction
        // between ticks (e.g. [`close_anchor`](Self::close_anchor) recycles
        // and resets sessions, and third-party `DecisionSession`
        // implementations may un-latch on reset-like transitions). Such an
        // anchor simply does not fire — it retires through the normal
        // age-out path instead of panicking the whole monitor.
        let mut fired: Option<Alarm> = None;
        if !quiet {
            fired = self.anchors.iter().find_map(|(anchor, session)| {
                session
                    .decision()
                    .label_confidence()
                    .map(|(label, confidence)| Alarm {
                        time: t,
                        anchor: *anchor,
                        label,
                        confidence,
                    })
            });
        }

        // Retire anchors that can produce no further alarms: the one that
        // just fired, committed anchors inside the refractory period
        // (suppressed for good — refractory suppresses, it does not defer),
        // and uncommitted anchors that have consumed a full pattern length.
        let fired_anchor = fired.map(|a| a.anchor);
        let pool = &mut self.pool;
        self.anchors.retain_mut(|(anchor, session)| {
            let committed = session.decision().is_predict();
            let retire = if committed {
                quiet || Some(*anchor) == fired_anchor
            } else {
                session.len() >= max_len
            };
            if retire {
                pool.push(std::mem::replace(
                    session,
                    Box::new(NeverSession) as Box<dyn DecisionSession + 'a>,
                ));
                false
            } else {
                true
            }
        });

        if let Some(alarm) = fired {
            self.quiet_until = t + 1 + self.cfg.refractory;
            return Some(alarm);
        }
        None
    }

    /// Run the monitor over an entire slice, collecting all alarms.
    pub fn run(&mut self, stream: &[f64]) -> Vec<Alarm> {
        stream.iter().filter_map(|&x| self.push(x)).collect()
    }

    /// Retire the anchor at offset `anchor` immediately, recycling its
    /// session into the pool. Returns `false` if no such anchor is live.
    ///
    /// This is the supervisor hook for invalidating a hypothesis mid-flight
    /// — e.g. an upstream segmenter decided the pattern cannot have started
    /// there. Closing is safe in the same tick as a commit: an anchor that
    /// latched `Predict` on the current sample and is closed before the
    /// next [`push`](Self::push) simply never alarms (its reset session
    /// carries no prediction, and the alarm scan reads predictions through
    /// a graceful option path, not an assertion).
    pub fn close_anchor(&mut self, anchor: usize) -> bool {
        match self.anchors.iter().position(|(a, _)| *a == anchor) {
            Some(i) => {
                let (_, mut session) = self.anchors.remove(i);
                session.reset();
                self.pool.push(session);
                true
            }
            None => false,
        }
    }

    /// Serialize every in-flight anchor — offset, incremental session
    /// state, and the monitor's clock/refractory gate — into a
    /// self-describing, checksummed envelope.
    ///
    /// This is the restart/migration primitive: snapshot before a deploy,
    /// hand the bytes (plus a [`Persist`](etsc_persist::Persist) snapshot
    /// of the fitted classifier) to the replacement process, and
    /// [`resume_anchors`](Self::resume_anchors) there. The resumed monitor
    /// produces **bit-identical** alarms to one that was never interrupted:
    /// session accumulators round-trip as IEEE bits, and the refractory
    /// clock (`quiet_until`) travels with them — a snapshot taken
    /// mid-refractory stays mid-refractory.
    ///
    /// The session pool does not travel (it holds no observable state);
    /// errors if any live session's type does not support checkpointing.
    pub fn snapshot_anchors(&self) -> Result<Vec<u8>, PersistError> {
        let mut enc = Encoder::new();
        enc.put_usize(self.cfg.anchor_stride);
        enc.put_u8(match self.cfg.norm {
            StreamNorm::Raw => 0,
            StreamNorm::PerPrefix => 1,
        });
        enc.put_usize(self.cfg.refractory);
        enc.put_usize(self.now);
        enc.put_usize(self.quiet_until);
        enc.put_usize(self.anchors.len());
        for (anchor, session) in &self.anchors {
            enc.put_usize(*anchor);
            enc.try_section(|e| session.save_state(e))?;
        }
        Ok(etsc_persist::envelope(
            MONITOR_STATE_KIND,
            &enc.into_bytes(),
        ))
    }

    /// Rehydrate anchors from [`snapshot_anchors`](Self::snapshot_anchors)
    /// bytes, replacing this monitor's live anchors, clock, and refractory
    /// gate entirely (current anchors are reset into the session pool).
    ///
    /// The monitor must be configured identically to the one that produced
    /// the snapshot (stride, normalization, refractory) and wrap the same
    /// fitted classifier — or a snapshot-restored copy of it, which is
    /// behavior-identical. Configuration mismatches are rejected as
    /// [`PersistError::Corrupt`] rather than silently changing alarm
    /// semantics.
    pub fn resume_anchors(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        let mut dec = etsc_persist::open_envelope(bytes, MONITOR_STATE_KIND)?;
        let stride = dec.get_usize("monitor stride")?;
        let norm = match dec.get_u8("monitor norm")? {
            0 => StreamNorm::Raw,
            1 => StreamNorm::PerPrefix,
            t => return Err(PersistError::Corrupt(format!("monitor: norm tag {t}"))),
        };
        let refractory = dec.get_usize("monitor refractory")?;
        if stride != self.cfg.anchor_stride || norm != self.cfg.norm {
            return Err(PersistError::Corrupt(format!(
                "monitor: snapshot config (stride {stride}, {norm:?}) does not match \
                 this monitor (stride {}, {:?})",
                self.cfg.anchor_stride, self.cfg.norm
            )));
        }
        if refractory != self.cfg.refractory {
            return Err(PersistError::Corrupt(format!(
                "monitor: snapshot refractory {refractory} does not match {}",
                self.cfg.refractory
            )));
        }
        let now = dec.get_usize("monitor now")?;
        let quiet_until = dec.get_usize("monitor quiet_until")?;
        let n = dec.get_usize("monitor anchor count")?;
        // Every anchor costs at least an offset (8 B) plus a section length
        // (8 B); validate the declared count against the bytes actually
        // present before allocating — anchor snapshots cross process (and,
        // via the serving layers, network) boundaries, so a hostile count
        // must be a typed error, not a huge allocation.
        dec.check_claim(n, 16, "monitor anchors")?;
        let mut anchors: Vec<(usize, Box<dyn DecisionSession + 'a>)> = Vec::with_capacity(n);
        for _ in 0..n {
            let offset = dec.get_usize("monitor anchor offset")?;
            if offset >= now && now > 0 || anchors.last().is_some_and(|(a, _)| *a >= offset) {
                return Err(PersistError::Corrupt(format!(
                    "monitor: anchor offset {offset} breaks ascending order below now = {now}"
                )));
            }
            let mut sub = dec.section("monitor anchor session")?;
            let session = self.clf.resume_session(self.cfg.norm.into(), &mut sub)?;
            sub.finish()?;
            anchors.push((offset, session));
        }
        dec.finish()?;
        // Recycle the monitor's current sessions before adopting the
        // snapshot's — nothing leaks, and steady-state reuse still holds.
        for (_, mut session) in self.anchors.drain(..) {
            session.reset();
            self.pool.push(session);
        }
        self.anchors = anchors;
        self.now = now;
        self.quiet_until = quiet_until;
        Ok(())
    }

    /// The configuration this monitor was built with.
    ///
    /// Serving layers that own many monitors use this to assert that a
    /// migration target is configured identically to the source before
    /// shipping anchor snapshots at it (the snapshot path re-validates, but
    /// the accessor lets callers fail fast with their own error type).
    pub fn config(&self) -> &StreamMonitorConfig {
        &self.cfg
    }

    /// Number of currently live anchors (for instrumentation).
    pub fn live_anchors(&self) -> usize {
        self.anchors.len()
    }

    /// Number of pooled (idle, reusable) sessions (for instrumentation).
    pub fn pooled_sessions(&self) -> usize {
        self.pool.len()
    }
}

/// Placeholder swapped into retiring slots while their session moves to the
/// pool; never pushed.
struct NeverSession;

impl DecisionSession for NeverSession {
    fn push(&mut self, _x: f64) -> etsc_early::Decision {
        unreachable!("placeholder session is never driven")
    }
    fn decision(&self) -> etsc_early::Decision {
        etsc_early::Decision::Wait
    }
    fn len(&self) -> usize {
        0
    }
    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use etsc_early::Decision;

    /// Commits to class 0 whenever the last `need` points average above 0.5.
    struct LevelDetector {
        need: usize,
        len: usize,
    }

    impl EarlyClassifier for LevelDetector {
        fn n_classes(&self) -> usize {
            1
        }
        fn series_len(&self) -> usize {
            self.len
        }
        fn min_prefix(&self) -> usize {
            self.need
        }
        fn decide(&self, prefix: &[f64]) -> Decision {
            if prefix.len() >= self.need {
                let m = prefix.iter().sum::<f64>() / prefix.len() as f64;
                if m > 0.5 {
                    return Decision::Predict {
                        label: 0,
                        confidence: 1.0,
                    };
                }
            }
            Decision::Wait
        }
        fn predict_full(&self, _s: &[f64]) -> usize {
            0
        }
    }

    #[test]
    fn quiet_stream_produces_no_alarms() {
        let clf = LevelDetector { need: 4, len: 16 };
        let mut mon = StreamMonitor::new(
            &clf,
            StreamMonitorConfig {
                anchor_stride: 1,
                norm: StreamNorm::Raw,
                refractory: 0,
            },
        );
        let alarms = mon.run(&vec![0.0; 200]);
        assert!(alarms.is_empty());
    }

    #[test]
    fn event_triggers_alarm_near_onset() {
        let clf = LevelDetector { need: 4, len: 16 };
        let mut mon = StreamMonitor::new(
            &clf,
            StreamMonitorConfig {
                anchor_stride: 1,
                norm: StreamNorm::Raw,
                refractory: 50,
            },
        );
        let mut stream = vec![0.0; 100];
        stream.extend(vec![1.0; 30]);
        stream.extend(vec![0.0; 100]);
        let alarms = mon.run(&stream);
        assert_eq!(alarms.len(), 1, "refractory should merge the alarm burst");
        let a = alarms[0];
        assert!(a.time >= 100 && a.time <= 110, "alarm at {}", a.time);
        assert_eq!(a.label, 0);
    }

    #[test]
    fn refractory_zero_produces_alarm_bursts() {
        let clf = LevelDetector { need: 4, len: 16 };
        let mut mon = StreamMonitor::new(
            &clf,
            StreamMonitorConfig {
                anchor_stride: 1,
                norm: StreamNorm::Raw,
                refractory: 0,
            },
        );
        let mut stream = vec![0.0; 50];
        stream.extend(vec![1.0; 30]);
        let alarms = mon.run(&stream);
        assert!(
            alarms.len() > 3,
            "without refractory every anchor fires: {}",
            alarms.len()
        );
    }

    #[test]
    fn anchor_stride_bounds_live_anchors() {
        let clf = LevelDetector { need: 4, len: 32 };
        let mut mon = StreamMonitor::new(
            &clf,
            StreamMonitorConfig {
                anchor_stride: 8,
                norm: StreamNorm::Raw,
                refractory: 0,
            },
        );
        for _ in 0..500 {
            mon.push(-1.0);
        }
        assert!(mon.live_anchors() <= 32 / 8 + 1);
    }

    #[test]
    fn sessions_are_pooled_and_reused() {
        let clf = LevelDetector { need: 4, len: 32 };
        let mut mon = StreamMonitor::new(
            &clf,
            StreamMonitorConfig {
                anchor_stride: 8,
                norm: StreamNorm::Raw,
                refractory: 0,
            },
        );
        for _ in 0..5_000 {
            mon.push(-1.0);
        }
        // Steady state: anchors retire as fast as they spawn, so the pool
        // stays bounded by the peak number of live anchors.
        assert!(
            mon.pooled_sessions() <= 32 / 8 + 1,
            "pool should stay bounded: {}",
            mon.pooled_sessions()
        );
    }

    #[test]
    fn per_prefix_norm_changes_what_the_classifier_sees() {
        // A detector keyed on raw level never fires under per-prefix norm
        // (z-normalized prefixes have mean zero by construction).
        let clf = LevelDetector { need: 4, len: 16 };
        let mut raw = StreamMonitor::new(
            &clf,
            StreamMonitorConfig {
                anchor_stride: 1,
                norm: StreamNorm::Raw,
                refractory: 0,
            },
        );
        let mut pp = StreamMonitor::new(
            &clf,
            StreamMonitorConfig {
                anchor_stride: 1,
                norm: StreamNorm::PerPrefix,
                refractory: 0,
            },
        );
        let stream = vec![2.0; 64];
        assert!(!raw.run(&stream).is_empty());
        assert!(pp.run(&stream).is_empty());
    }

    /// Commits whenever at least 4 samples have arrived and the newest one
    /// is high — so every mature anchor commits on the same sample.
    struct EdgeDetector;

    impl EarlyClassifier for EdgeDetector {
        fn n_classes(&self) -> usize {
            1
        }
        fn series_len(&self) -> usize {
            64
        }
        fn min_prefix(&self) -> usize {
            4
        }
        fn decide(&self, prefix: &[f64]) -> Decision {
            if prefix.len() >= 4 && prefix.last().is_some_and(|&x| x > 0.5) {
                Decision::Predict {
                    label: 0,
                    confidence: 1.0,
                }
            } else {
                Decision::Wait
            }
        }
        fn predict_full(&self, _s: &[f64]) -> usize {
            0
        }
    }

    #[test]
    fn simultaneous_commits_all_fire_without_refractory() {
        // Three mature anchors (0, 2, 4) commit on the same sample (t = 7,
        // the first high one). With refractory 0 none may be lost: the
        // oldest fires immediately, the rest drain one per sample.
        let clf = EdgeDetector;
        let mut mon = StreamMonitor::new(
            &clf,
            StreamMonitorConfig {
                anchor_stride: 2,
                norm: StreamNorm::Raw,
                refractory: 0,
            },
        );
        let mut stream = vec![0.0; 7];
        stream.extend(vec![1.0; 3]);
        let alarms = mon.run(&stream);
        let head: Vec<(usize, usize)> = alarms.iter().map(|a| (a.time, a.anchor)).collect();
        assert_eq!(
            &head[..3],
            &[(7, 0), (8, 2), (9, 4)],
            "all simultaneous commits must eventually alarm: {head:?}"
        );
    }

    #[test]
    fn commit_and_close_in_the_same_tick_is_graceful() {
        // Three anchors (0, 2, 4) all commit on sample 7 (the first high
        // one). The oldest fires immediately; the second is closed by the
        // caller in the same tick, *after* it latched Predict but before
        // its alarm could drain. The monitor must not panic, must not leak
        // an alarm from the closed anchor, and must still drain the third.
        let clf = EdgeDetector;
        let mut mon = StreamMonitor::new(
            &clf,
            StreamMonitorConfig {
                anchor_stride: 2,
                norm: StreamNorm::Raw,
                refractory: 0,
            },
        );
        let mut alarms = Vec::new();
        for i in 0..8 {
            let x = if i >= 7 { 1.0 } else { 0.0 };
            alarms.extend(mon.push(x));
        }
        assert_eq!(
            alarms
                .iter()
                .map(|a| (a.time, a.anchor))
                .collect::<Vec<_>>(),
            vec![(7, 0)],
            "oldest committed anchor fires on the commit tick"
        );
        // Anchor 2 committed on the same tick and is still latched.
        assert!(mon.close_anchor(2), "latched anchor closes cleanly");
        assert!(!mon.close_anchor(2), "double close reports absence");
        let pooled = mon.pooled_sessions();
        assert!(pooled >= 2, "fired + closed sessions are recycled");
        // Subsequent pushes: anchor 2 never alarms; anchor 4 still drains.
        alarms.clear();
        for _ in 0..3 {
            alarms.extend(mon.push(1.0));
        }
        assert!(
            alarms.iter().all(|a| a.anchor != 2),
            "closed anchor must not alarm: {alarms:?}"
        );
        assert!(
            alarms.iter().any(|a| a.anchor == 4),
            "remaining committed anchor still drains: {alarms:?}"
        );
    }

    #[test]
    fn close_anchor_unknown_offset_is_a_no_op() {
        let clf = LevelDetector { need: 4, len: 16 };
        let mut mon = StreamMonitor::new(&clf, StreamMonitorConfig::default());
        assert!(!mon.close_anchor(123));
        mon.push(0.0);
        assert_eq!(mon.live_anchors(), 1);
        assert!(mon.close_anchor(0));
        assert_eq!(mon.live_anchors(), 0);
        assert_eq!(mon.pooled_sessions(), 1);
    }

    /// A persistable mean-level detector: commits once `need` samples have
    /// arrived and their running mean exceeds 0.5 — with full session
    /// checkpoint support, so monitor snapshot tests have a native subject.
    struct PersistableDetector {
        need: usize,
        len: usize,
    }

    struct MeanSession<'a> {
        clf: &'a PersistableDetector,
        sum: f64,
        len: usize,
        decision: Decision,
    }

    impl DecisionSession for MeanSession<'_> {
        fn push(&mut self, x: f64) -> Decision {
            self.len += 1;
            if self.decision.is_predict() {
                return self.decision;
            }
            self.sum += x;
            if self.len >= self.clf.need && self.sum / self.len as f64 > 0.5 {
                self.decision = Decision::Predict {
                    label: 0,
                    confidence: 1.0,
                };
            }
            self.decision
        }
        fn decision(&self) -> Decision {
            self.decision
        }
        fn len(&self) -> usize {
            self.len
        }
        fn reset(&mut self) {
            self.sum = 0.0;
            self.len = 0;
            self.decision = Decision::Wait;
        }
        fn save_state(&self, enc: &mut Encoder) -> Result<(), PersistError> {
            enc.put_f64(self.sum);
            enc.put_usize(self.len);
            enc.put_bool(self.decision.is_predict());
            Ok(())
        }
    }

    impl EarlyClassifier for PersistableDetector {
        fn n_classes(&self) -> usize {
            1
        }
        fn series_len(&self) -> usize {
            self.len
        }
        fn min_prefix(&self) -> usize {
            self.need
        }
        fn session(&self, _norm: SessionNorm) -> Box<dyn DecisionSession + '_> {
            Box::new(MeanSession {
                clf: self,
                sum: 0.0,
                len: 0,
                decision: Decision::Wait,
            })
        }
        fn resume_session(
            &self,
            _norm: SessionNorm,
            dec: &mut etsc_early::Decoder<'_>,
        ) -> Result<Box<dyn DecisionSession + '_>, PersistError> {
            let sum = dec.get_f64("sum")?;
            let len = dec.get_usize("len")?;
            let committed = dec.get_bool("committed")?;
            Ok(Box::new(MeanSession {
                clf: self,
                sum,
                len,
                decision: if committed {
                    Decision::Predict {
                        label: 0,
                        confidence: 1.0,
                    }
                } else {
                    Decision::Wait
                },
            }))
        }
        fn predict_full(&self, _s: &[f64]) -> usize {
            0
        }
    }

    #[test]
    fn snapshot_resume_mid_stream_reproduces_alarms_exactly() {
        let clf = PersistableDetector { need: 4, len: 24 };
        let cfg = StreamMonitorConfig {
            anchor_stride: 2,
            norm: StreamNorm::Raw,
            refractory: 30,
        };
        let mut stream = vec![0.0; 40];
        stream.extend(vec![1.0; 20]);
        stream.extend(vec![0.0; 40]);
        stream.extend(vec![1.0; 20]);

        // Uninterrupted reference.
        let mut whole = StreamMonitor::new(&clf, cfg);
        let reference = whole.run(&stream);
        assert!(!reference.is_empty());

        // Interrupted twin: snapshot mid-refractory (right after the first
        // alarm), resume into a FRESH monitor, continue.
        let mut head = StreamMonitor::new(&clf, cfg);
        let mut alarms = Vec::new();
        let mut split = 0;
        for (i, &x) in stream.iter().enumerate() {
            if let Some(a) = head.push(x) {
                alarms.push(a);
                split = i + 1;
                break;
            }
        }
        let bytes = head.snapshot_anchors().unwrap();
        let mut resumed = StreamMonitor::new(&clf, cfg);
        resumed.resume_anchors(&bytes).unwrap();
        for &x in &stream[split..] {
            alarms.extend(resumed.push(x));
        }
        assert_eq!(alarms, reference, "restored monitor must drop no alarm");
    }

    #[test]
    fn resume_rejects_mismatched_configuration() {
        let clf = PersistableDetector { need: 4, len: 24 };
        let cfg = StreamMonitorConfig {
            anchor_stride: 2,
            norm: StreamNorm::Raw,
            refractory: 10,
        };
        let mut mon = StreamMonitor::new(&clf, cfg);
        for _ in 0..9 {
            mon.push(0.0);
        }
        let bytes = mon.snapshot_anchors().unwrap();
        let mut other = StreamMonitor::new(
            &clf,
            StreamMonitorConfig {
                anchor_stride: 3,
                ..cfg
            },
        );
        assert!(matches!(
            other.resume_anchors(&bytes),
            Err(PersistError::Corrupt(_))
        ));
        // Same config resumes fine.
        let mut same = StreamMonitor::new(&clf, cfg);
        same.resume_anchors(&bytes).unwrap();
        assert_eq!(same.live_anchors(), mon.live_anchors());
    }

    #[test]
    fn snapshot_of_unsupported_sessions_refuses_cleanly() {
        // LevelDetector uses the default ReplaySession, which has no
        // save_state; the monitor must surface Unsupported, not panic.
        let clf = LevelDetector { need: 4, len: 16 };
        let mut mon = StreamMonitor::new(&clf, StreamMonitorConfig::default());
        mon.push(0.0);
        assert!(matches!(
            mon.snapshot_anchors(),
            Err(PersistError::Unsupported(_))
        ));
    }

    #[test]
    fn alarm_codec_round_trips_bit_exactly() {
        let alarm = Alarm {
            time: 1234,
            anchor: 1200,
            label: 3,
            confidence: 0.1 + 0.2, // not exactly representable — bits must travel
        };
        let mut enc = Encoder::new();
        alarm.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = etsc_persist::Decoder::new(&bytes);
        let back = Alarm::decode(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(back, alarm);
        assert_eq!(back.confidence.to_bits(), alarm.confidence.to_bits());
        // Truncated bytes error instead of panicking.
        let mut short = etsc_persist::Decoder::new(&bytes[..bytes.len() - 1]);
        assert!(matches!(
            Alarm::decode(&mut short),
            Err(PersistError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn config_accessor_reports_the_construction_config() {
        let clf = LevelDetector { need: 4, len: 16 };
        let cfg = StreamMonitorConfig {
            anchor_stride: 3,
            norm: StreamNorm::Raw,
            refractory: 9,
        };
        let mon = StreamMonitor::new(&clf, cfg);
        assert_eq!(*mon.config(), cfg);
    }

    #[test]
    fn commits_during_refractory_are_suppressed_not_deferred() {
        // Refractory long enough to cover the entire event: only the first
        // commit may alarm; anchors that commit during the quiet period
        // retire silently instead of alarming when the period ends.
        let clf = LevelDetector { need: 4, len: 16 };
        let mut mon = StreamMonitor::new(
            &clf,
            StreamMonitorConfig {
                anchor_stride: 1,
                norm: StreamNorm::Raw,
                refractory: 300,
            },
        );
        let mut stream = vec![0.0; 50];
        stream.extend(vec![1.0; 40]);
        stream.extend(vec![0.0; 200]);
        let alarms = mon.run(&stream);
        assert_eq!(alarms.len(), 1, "alarms: {alarms:?}");
    }
}
