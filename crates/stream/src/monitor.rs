//! The stream monitor: running an early classifier on unbounded data.
//!
//! A UCR-format evaluation hands the classifier one perfectly segmented
//! exemplar at a time. A deployment does not know when (or whether) a
//! pattern starts. The monitor therefore keeps a set of candidate **anchors**
//! — recent positions at which a pattern might have begun — and feeds each
//! arriving sample to every anchor's incremental session. When a session
//! commits, an alarm fires (and a refractory period suppresses the alarm
//! storm that would otherwise follow from neighboring anchors).
//!
//! The monitor keeps only the anchor offsets, the firing and refractory
//! rules, and retirement; it does not pool sessions itself. Each anchor is
//! a lane: of the model's own [`DecisionLanes`] block, one state advanced
//! in one loop, where the model provides it ([`EarlyClassifier::lanes`];
//! `ProbThreshold<NearestCentroid>`), and otherwise of a [`SessionLanes`]
//! fleet, one boxed [`DecisionSession`](etsc_early::DecisionSession) per
//! anchor, which pools retired sessions so steady-state monitoring does not
//! allocate. Either way each anchor costs one session push per sample —
//! amortized O(1) in the anchor's age — and alarms, confidences and
//! snapshot bytes are those of the per-anchor sessions.
//!
//! A lane block's push touches no lane status: it reports whether any lane
//! holds a commit, and the monitor walks the statuses, to fire, suppress
//! and retire, only on a commit or when its oldest anchor expires. Every
//! lane has consumed the samples since its anchor opened, so the oldest
//! anchor's age says whether any uncommitted lane has consumed a full
//! pattern length; [`resume_anchors`](StreamMonitor::resume_anchors)
//! refuses lanes for which that does not hold. A fleet's statuses are read
//! from its sessions as it is pushed, so it is walked on every sample.
//!
//! Alarm semantics: at most one alarm fires per sample — the oldest
//! committed anchor, provided the monitor is outside its refractory period.
//! Anchors that commit while another fires stay live and fire on subsequent
//! samples; any commit still pending when the refractory period begins is
//! suppressed for good (the anchor retires silently — refractory
//! *suppresses* alarms, it does not defer them). Fired and expired anchors
//! are retired immediately; their lanes' storage is reused.
//!
//! This design surfaces all three of the paper's streaming failure modes:
//! prefixes of longer innocuous patterns trigger anchors mid-word (the
//! prefix problem), contained atomic units trigger them inside larger events
//! (inclusion), and look-alike background shapes trigger them anywhere
//! (homophones).

use etsc_core::ClassLabel;
use etsc_early::{Decision, DecisionLanes, EarlyClassifier, LaneStatus, SessionLanes, SessionNorm};
use etsc_persist::{Decoder, Encoder, PersistError};

/// Envelope kind tag for [`StreamMonitor::snapshot_anchors`] state.
pub const MONITOR_STATE_KIND: &str = "StreamMonitorAnchors";

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
    /// Live anchor offsets, ascending; anchor `i` is lane `i` of `lanes`.
    anchors: Vec<usize>,
    lanes: Lanes<'a, C>,
    /// Absolute index of the next incoming sample.
    now: usize,
    /// The first stride boundary at or after `now`: where the next anchor
    /// opens. A counter rather than `now % stride`, which costs a 64-bit
    /// division on every sample and slowed the lane loop's own divisions
    /// measurably.
    next_anchor: usize,
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
            lanes: Lanes::new(clf, cfg.norm.into()),
            now: 0,
            next_anchor: 0,
            quiet_until: 0,
        }
    }

    /// Feed one sample; returns an alarm if a session committed.
    pub fn push(&mut self, x: f64) -> Option<Alarm> {
        // Spawn a new anchor on stride boundaries.
        if self.now == self.next_anchor {
            self.anchors.push(self.now);
            self.lanes.open();
            self.next_anchor = self.now.saturating_add(self.cfg.anchor_stride);
        }
        let t = self.now;
        self.now += 1;
        let max_len = self.clf.series_len();

        // One push per live lane (committed lanes are latched: their pushes
        // only count the sample while they wait to fire or be suppressed
        // below): a lane block's here, a session fleet's in the walk below,
        // which reads each session's status as it goes.
        //
        // A lane block reports whether any lane holds a commit. Without
        // one, only uncommitted lanes that have consumed a full pattern
        // length can retire, and the oldest lane is the longest: each lane
        // has consumed the `now − anchor` samples since its anchor opened.
        // So the block's statuses are walked only on a commit or when the
        // oldest anchor expires.
        if let Lanes::Block(b) = &mut self.lanes {
            let committed = b.lanes.push(x);
            let expired = |&anchor: &usize| self.now - anchor >= max_len;
            if !committed && !self.anchors.first().is_some_and(expired) {
                return None;
            }
        }
        let quiet = t < self.quiet_until;

        // At most one alarm per sample: the oldest committed anchor fires,
        // if the monitor is outside its refractory period. Further anchors
        // committed at the same instant stay live and drain on subsequent
        // samples — unless the refractory period swallows them first.
        //
        // Retire anchors that can produce no further alarms: the one that
        // just fired, committed anchors inside the refractory period
        // (suppressed for good — refractory suppresses, it does not defer),
        // and uncommitted anchors that have consumed a full pattern length.
        //
        // `visit` applies both rules to each lane, oldest first, and
        // compacts the anchor offsets in step. An offset is read only when
        // its anchor fires or a lane before it retired.
        let anchors = &mut self.anchors;
        let mut fired: Option<Alarm> = None;
        let (mut lane, mut kept) = (0, 0);
        let visit = |status: &LaneStatus| {
            let i = lane;
            lane += 1;
            let retire = match status.decision {
                Decision::Predict { label, confidence } if !quiet && fired.is_none() => {
                    fired = Some(Alarm {
                        time: t,
                        anchor: anchors[i],
                        label,
                        confidence,
                    });
                    true
                }
                Decision::Predict { .. } => quiet,
                Decision::Wait => status.len >= max_len,
            };
            if !retire {
                if kept < i {
                    anchors[kept] = anchors[i];
                }
                kept += 1;
            }
            !retire
        };
        match &mut self.lanes {
            Lanes::Block(b) => {
                let Block { lanes, keep } = &mut **b;
                keep.clear();
                keep.extend(lanes.status().iter().map(visit));
                if kept < keep.len() {
                    lanes.retain(keep);
                }
            }
            Lanes::Sessions(sessions) => {
                sessions.push(x);
                sessions.retain(visit);
            }
        }
        self.anchors.truncate(kept);

        let alarm = fired?;
        self.quiet_until = t + 1 + self.cfg.refractory;
        Some(alarm)
    }

    /// Run the monitor over an entire slice, collecting all alarms.
    pub fn run(&mut self, stream: &[f64]) -> Vec<Alarm> {
        stream.iter().filter_map(|&x| self.push(x)).collect()
    }

    /// Retire the anchor at offset `anchor` immediately, recycling its
    /// lane. Returns `false` if no such anchor is live.
    ///
    /// This is the supervisor hook for invalidating a hypothesis mid-flight
    /// — e.g. an upstream segmenter decided the pattern cannot have started
    /// there. Closing is safe in the same tick as a commit: an anchor that
    /// latched `Predict` on the current sample and is closed before the
    /// next [`push`](Self::push) simply never alarms.
    pub fn close_anchor(&mut self, anchor: usize) -> bool {
        let Some(i) = self.anchors.iter().position(|&a| a == anchor) else {
            return false;
        };
        match &mut self.lanes {
            Lanes::Block(b) => {
                let Block { lanes, keep } = &mut **b;
                keep.clear();
                keep.resize(self.anchors.len(), true);
                keep[i] = false;
                lanes.retain(keep);
            }
            Lanes::Sessions(sessions) => {
                let mut lane = 0;
                sessions.retain(|_| {
                    lane += 1;
                    lane != i + 1
                });
            }
        }
        self.anchors.remove(i);
        true
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
    /// Each anchor's state is its session's checkpoint, whether a lane
    /// block or a session fleet holds it, so the bytes do not depend on
    /// which. Retired lanes' storage does not travel (it holds no
    /// observable state);
    /// errors if any live session's type does not support checkpointing.
    ///
    /// The envelope is written by [`Encoder::try_envelope`], each anchor's
    /// session state in place as a section of it.
    pub fn snapshot_anchors(&self) -> Result<Vec<u8>, PersistError> {
        let mut enc = Encoder::new();
        enc.try_envelope(MONITOR_STATE_KIND, |e| self.encode_anchors(e))?;
        Ok(enc.into_bytes())
    }

    /// In-place [`snapshot_anchors`](Self::snapshot_anchors): append to
    /// `enc` exactly the bytes `enc.put_bytes(&self.snapshot_anchors()?)`
    /// would, without building the envelope in a buffer of its own
    /// ([`Encoder::try_nested_envelope`]). This is how a serving runtime
    /// embeds every stream's anchors in its checkpoint. On error `enc` is
    /// left as it was.
    pub fn snapshot_anchors_into(&self, enc: &mut Encoder) -> Result<(), PersistError> {
        enc.try_nested_envelope(MONITOR_STATE_KIND, |e| self.encode_anchors(e))
    }

    /// The payload both snapshot forms share.
    fn encode_anchors(&self, enc: &mut Encoder) -> Result<(), PersistError> {
        enc.put_usize(self.cfg.anchor_stride);
        enc.put_u8(match self.cfg.norm {
            StreamNorm::Raw => 0,
            StreamNorm::PerPrefix => 1,
        });
        enc.put_usize(self.cfg.refractory);
        enc.put_usize(self.now);
        enc.put_usize(self.quiet_until);
        enc.put_usize(self.anchors.len());
        for (lane, anchor) in self.anchors.iter().enumerate() {
            enc.put_usize(*anchor);
            enc.try_section(|e| self.lanes.save_lane(lane, e))?;
        }
        Ok(())
    }

    /// Rehydrate anchors from [`snapshot_anchors`](Self::snapshot_anchors)
    /// bytes, replacing this monitor's live anchors, clock, and refractory
    /// gate entirely. On error the monitor is left unchanged.
    ///
    /// The monitor must be configured identically to the one that produced
    /// the snapshot (stride, normalization, refractory) and wrap the same
    /// fitted classifier — or a snapshot-restored copy of it, which is
    /// behavior-identical. Configuration mismatches are rejected as
    /// [`PersistError::Corrupt`] rather than silently changing alarm
    /// semantics, and so are anchors this configuration could not have
    /// opened: offsets off the stride grid, not strictly ascending, or not
    /// below the snapshot's clock, and lanes whose session has not consumed
    /// exactly the samples since their anchor opened.
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
        let mut anchors: Vec<usize> = Vec::with_capacity(n);
        // Fresh lanes, adopted only once every lane has resumed.
        let mut lanes = Lanes::new(self.clf, self.cfg.norm.into());
        for _ in 0..n {
            let offset = dec.get_usize("monitor anchor offset")?;
            if offset >= now
                || !offset.is_multiple_of(stride)
                || anchors.last().is_some_and(|&a| a >= offset)
            {
                return Err(PersistError::Corrupt(format!(
                    "monitor: anchor offset {offset} is not a stride-{stride} \
                     boundary ascending below now = {now}"
                )));
            }
            let mut sub = dec.section("monitor anchor session")?;
            lanes.resume_lane(&mut sub)?;
            sub.finish()?;
            anchors.push(offset);
        }
        dec.finish()?;
        // Every lane has consumed the samples since its anchor opened, and
        // `push` retires lanes by that age.
        let mut lane = 0;
        let mut stray = None;
        lanes.for_each_status(|s| {
            let age = now - anchors[lane];
            if s.len != age && stray.is_none() {
                stray = Some((anchors[lane], s.len, age));
            }
            lane += 1;
        });
        if let Some((offset, len, age)) = stray {
            return Err(PersistError::Corrupt(format!(
                "monitor: the lane of anchor {offset} has consumed {len} samples, \
                 not the {age} since it opened"
            )));
        }
        self.anchors = anchors;
        self.lanes = lanes;
        self.now = now;
        self.next_anchor = now.checked_next_multiple_of(stride).unwrap_or(usize::MAX);
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

    /// Number of retired lanes whose storage waits for reuse — pooled
    /// sessions on the generic path (for instrumentation).
    pub fn pooled_sessions(&self) -> usize {
        self.lanes.pooled()
    }
}

/// A monitor's lanes: the model's own [`DecisionLanes`] block when it has
/// one ([`EarlyClassifier::lanes`]), else a [`SessionLanes`] fleet held by
/// value, so that the retirement pass over it is inlined. Behind a boxed
/// block with a dynamically dispatched predicate per lane, the generic path
/// measured ~20% slower per sample than the per-anchor loop it replaced
/// (4096 `TemplateMatcher` streams, one or two anchors each, 2-vCPU Xeon).
/// The block's state is boxed as well: at that stream count every byte of
/// the monitor counted while the serve runtime kept monitors in an ordered
/// map (padding the per-anchor monitor by 48 bytes cost ~6% of
/// `records_per_s` on perfbench's `many-streams-checkpoint`; in the serve
/// shard's dense slab the same padding measures within noise).
enum Lanes<'a, C: EarlyClassifier + ?Sized> {
    Block(Box<Block<'a>>),
    Sessions(SessionLanes<'a, C>),
}

/// A model's lane block and its retirement flags, one per lane, reused
/// by every walk.
struct Block<'a> {
    lanes: Box<dyn DecisionLanes + 'a>,
    keep: Vec<bool>,
}

impl<'a, C: EarlyClassifier + ?Sized> Lanes<'a, C> {
    fn new(clf: &'a C, norm: SessionNorm) -> Self {
        match clf.lanes(norm) {
            Some(lanes) => Self::Block(Box::new(Block {
                lanes,
                keep: Vec::new(),
            })),
            None => Self::Sessions(SessionLanes::new(clf, norm)),
        }
    }

    fn open(&mut self) {
        match self {
            Self::Block(b) => b.lanes.open(),
            Self::Sessions(sessions) => sessions.open(),
        }
    }

    /// Call `f` with every lane's status, in lane order.
    fn for_each_status(&mut self, mut f: impl FnMut(&LaneStatus)) {
        match self {
            Self::Block(b) => b.lanes.status().iter().for_each(f),
            Self::Sessions(sessions) => sessions.retain(|s| {
                f(s);
                true
            }),
        }
    }

    fn save_lane(&self, lane: usize, enc: &mut Encoder) -> Result<(), PersistError> {
        match self {
            Self::Block(b) => b.lanes.save_lane(lane, enc),
            Self::Sessions(sessions) => sessions.save_lane(lane, enc),
        }
    }

    fn resume_lane(&mut self, dec: &mut Decoder<'_>) -> Result<(), PersistError> {
        match self {
            Self::Block(b) => b.lanes.resume_lane(dec),
            Self::Sessions(sessions) => sessions.resume_lane(dec),
        }
    }

    fn pooled(&self) -> usize {
        match self {
            Self::Block(b) => b.lanes.pooled(),
            Self::Sessions(sessions) => sessions.pooled(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etsc_early::DecisionSession;

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

    /// Snapshot bytes for `PersistableDetector` under `cfg` (raw norm):
    /// the monitor clock `now` and uncommitted anchors at `anchors`, each
    /// with the samples since it opened.
    fn hand_snapshot(cfg: StreamMonitorConfig, now: usize, anchors: &[usize]) -> Vec<u8> {
        let lanes: Vec<_> = anchors
            .iter()
            .map(|&a| (a, now.saturating_sub(a)))
            .collect();
        hand_snapshot_lens(cfg, now, &lanes)
    }

    /// As [`hand_snapshot`], with each anchor's session length given:
    /// `(offset, len)` per lane.
    fn hand_snapshot_lens(
        cfg: StreamMonitorConfig,
        now: usize,
        lanes: &[(usize, usize)],
    ) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_usize(cfg.anchor_stride);
        enc.put_u8(0);
        enc.put_usize(cfg.refractory);
        enc.put_usize(now);
        enc.put_usize(0);
        enc.put_usize(lanes.len());
        for &(a, len) in lanes {
            enc.put_usize(a);
            enc.section(|e| {
                e.put_f64(0.0);
                e.put_usize(len);
                e.put_bool(false);
            });
        }
        etsc_persist::envelope(MONITOR_STATE_KIND, &enc.into_bytes())
    }

    #[test]
    fn resume_rejects_anchors_the_monitor_could_not_have_opened() {
        let clf = PersistableDetector { need: 4, len: 24 };
        let cfg = StreamMonitorConfig {
            anchor_stride: 16,
            norm: StreamNorm::Raw,
            refractory: 0,
        };
        let corrupt = |bytes: &[u8]| {
            let mut mon = StreamMonitor::new(&clf, cfg);
            matches!(mon.resume_anchors(bytes), Err(PersistError::Corrupt(_)))
        };
        // An anchor at the clock has not been opened yet: resuming it would
        // open a second anchor at the same offset on the next push.
        assert!(corrupt(&hand_snapshot(cfg, 0, &[0])));
        assert!(corrupt(&hand_snapshot(cfg, 32, &[32])));
        // Anchors open on stride boundaries only.
        assert!(corrupt(&hand_snapshot(cfg, 20, &[3])));
        assert!(corrupt(&hand_snapshot(cfg, 40, &[16, 17])));
        assert!(corrupt(&hand_snapshot(cfg, 40, &[32, 16])), "ascending");
        // Each lane has consumed the samples since its anchor opened, which
        // is the age `push` retires lanes by: a lane one sample longer (or
        // shorter) is not one a monitor wrote.
        assert!(corrupt(&hand_snapshot_lens(cfg, 40, &[(16, 25), (32, 8)])));
        assert!(corrupt(&hand_snapshot_lens(cfg, 40, &[(16, 24), (32, 9)])));
        assert!(corrupt(&hand_snapshot_lens(cfg, 40, &[(16, 24), (32, 7)])));

        // What a monitor could have written resumes.
        let mut mon = StreamMonitor::new(&clf, cfg);
        mon.resume_anchors(&hand_snapshot(cfg, 40, &[16, 32]))
            .unwrap();
        assert_eq!(mon.live_anchors(), 2);
        // An empty snapshot at the origin resumes, and behaves as new.
        let mut mon = StreamMonitor::new(&clf, cfg);
        mon.resume_anchors(&hand_snapshot(cfg, 0, &[])).unwrap();
        mon.push(0.0);
        assert_eq!(mon.live_anchors(), 1);
        // A rejected snapshot leaves the monitor as it was.
        assert!(mon.resume_anchors(&hand_snapshot(cfg, 20, &[3])).is_err());
        assert_eq!(mon.live_anchors(), 1);
        let longer = hand_snapshot_lens(cfg, 40, &[(16, 24), (32, 9)]);
        assert!(mon.resume_anchors(&longer).is_err());
        assert_eq!(mon.live_anchors(), 1);
        assert_eq!(mon.snapshot_anchors().unwrap(), {
            let mut twin = StreamMonitor::new(&clf, cfg);
            twin.push(0.0);
            twin.snapshot_anchors().unwrap()
        });
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
