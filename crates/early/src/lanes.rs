//! Lane blocks: the live sessions of one stream, advanced together.
//!
//! A stream monitor tests every candidate onset (anchor) of a stream on
//! every sample. Each anchor is a session of its own, yet all of them see
//! the same sample at the same time, so a fitted model can hold them as one
//! state — one *lane* per session — and advance them in one loop
//! ([`EarlyClassifier::lanes`]). [`DecisionLanes`] is that block. Models
//! without one run one boxed [`DecisionSession`] per lane in a
//! [`SessionLanes`] fleet, the generic path.
//!
//! A lane behaves exactly like the session it stands for: the same
//! decisions, confidences and lengths after every push, and the same
//! checkpoint bytes, so a lane saved by one block resumes as a session, or
//! in another block, and continues bit-identically.

use etsc_core::parallel;
use etsc_persist::{Decoder, Encoder, PersistError};

use crate::{Decision, DecisionSession, EarlyClassifier, SessionNorm};

/// Minimum number of lanes before a one-sample push
/// ([`SessionLanes::push`]) is worth worker threads. The spawn round paid on
/// *every* push costs ~10µs per worker, while a session push costs tens to
/// hundreds of nanoseconds (O(1) bookkeeping once latched), so only dense
/// populations — hundreds of lanes, from small anchor strides over long
/// patterns — clear it.
pub(crate) const PAR_MIN_SESSIONS: usize = 512;

/// What a lane reports after each push: its session's
/// [`decision`](DecisionSession::decision) and [`len`](DecisionSession::len).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneStatus {
    /// The decision as of the last push (`Wait` before any).
    pub decision: Decision,
    /// Samples consumed.
    pub len: usize,
}

impl LaneStatus {
    /// A lane that has consumed nothing.
    pub(crate) const FRESH: Self = Self {
        decision: Decision::Wait,
        len: 0,
    };
}

/// The live sessions of one stream, one lane each, advanced together.
///
/// Lanes are indexed in open order; [`retain`](Self::retain) keeps that
/// order, so lane `i` of [`status`](Self::status) stays the `i`-th oldest
/// live lane. Each lane latches like a session: once its decision is a
/// `Predict`, later pushes only count samples.
///
/// A push touches no status. Every live lane consumes every push, so a
/// block may count pushes once and derive each lane's length from that
/// count, filling the lengths in only when the statuses are read
/// ([`status`](Self::status), hence `&mut self`), saved, or a lane is
/// opened or resumed. Instead of a status pass, [`push`](Self::push)
/// reports whether any lane holds a commit; a caller that retires lanes by
/// length alone can skip reading the statuses until that flag is set or
/// its oldest lane is due.
///
/// `Send` for the same reason as [`DecisionSession`]: a serving runtime
/// services streams on worker threads.
pub trait DecisionLanes: Send {
    /// Open a lane after the live ones, as a fresh session would start.
    fn open(&mut self);

    /// Feed `x` to every lane, oldest first. Returns whether any live lane
    /// holds a commit: one that committed on this push, or on an earlier
    /// one, or was resumed committed, and has not been retired since.
    fn push(&mut self, x: f64) -> bool;

    /// Every lane's status, in lane order, with lengths filled in.
    fn status(&mut self) -> &[LaneStatus];

    /// Keep the lanes whose flag in `keep` is set, in order; lanes without
    /// a flag are kept. Retired lanes' storage is reused by later opens.
    fn retain(&mut self, keep: &[bool]);

    /// Append lane `lane`'s resumable state to `enc`: the bytes
    /// [`DecisionSession::save_state`] writes for the same session.
    /// `lane` must be below the lane count.
    fn save_lane(&self, lane: usize, enc: &mut Encoder) -> Result<(), PersistError>;

    /// Open a lane rehydrated from [`DecisionSession::save_state`] bytes,
    /// validated as [`EarlyClassifier::resume_session`] validates them. On
    /// error the block may hold a partial lane: resume into a fresh block
    /// and drop it on error.
    fn resume_lane(&mut self, dec: &mut Decoder<'_>) -> Result<(), PersistError>;

    /// Retired lanes whose storage waits for reuse (instrumentation).
    fn pooled(&self) -> usize;
}

/// The generic path: one boxed [`DecisionSession`] per lane, for models
/// without a [`DecisionLanes`] block of their own. Retired sessions stay
/// behind the live ones in the same buffer and are reset on reuse, so
/// steady-state operation does not allocate. With hundreds of lanes a push
/// fans out across worker threads (`etsc_core::parallel`, honoring
/// `ETSC_THREADS`); sessions are independent, so statuses are identical to
/// the serial loop.
///
/// The methods mirror [`DecisionLanes`], except that a lane's status is
/// read from its session as [`retain`](Self::retain) visits it, through a
/// predicate the caller's compiler can inline. A monitor over thousands of
/// streams holds this fleet by value and pays no per-lane dispatch beyond
/// the sessions' own.
pub struct SessionLanes<'a, C: EarlyClassifier + ?Sized> {
    clf: &'a C,
    norm: SessionNorm,
    /// The live lanes' sessions in lane order, then retired sessions
    /// awaiting reuse.
    sessions: Vec<Box<dyn DecisionSession + 'a>>,
    /// Number of live lanes.
    live: usize,
}

impl<'a, C: EarlyClassifier + ?Sized> SessionLanes<'a, C> {
    /// An empty fleet whose lanes are `clf`'s sessions under `norm`.
    pub fn new(clf: &'a C, norm: SessionNorm) -> Self {
        Self {
            clf,
            norm,
            sessions: Vec::new(),
            live: 0,
        }
    }

    /// Open a lane after the live ones, reusing a retired session.
    pub fn open(&mut self) {
        match self.sessions.get_mut(self.live) {
            Some(retired) => retired.reset(),
            None => self.sessions.push(self.clf.session(self.norm)),
        }
        self.live += 1;
    }

    /// Feed `x` to every lane, oldest first.
    #[inline]
    pub fn push(&mut self, x: f64) {
        let live = &mut self.sessions[..self.live];
        let threads = parallel::gate(live.len(), PAR_MIN_SESSIONS);
        parallel::for_each_mut_with(threads, live, |s| {
            s.push(x);
        });
    }

    /// Call `keep` once per lane, in lane order, with the lane's status,
    /// and keep the lanes for which it returns `true`, in order. Reading
    /// the statuses and retiring lanes is one pass.
    #[inline]
    pub fn retain(&mut self, mut keep: impl FnMut(&LaneStatus) -> bool) {
        let mut kept = 0;
        for lane in 0..self.live {
            let session = &self.sessions[lane];
            let status = LaneStatus {
                decision: session.decision(),
                len: session.len(),
            };
            if keep(&status) {
                if kept < lane {
                    self.sessions.swap(kept, lane);
                }
                kept += 1;
            }
        }
        self.live = kept;
    }

    /// As [`DecisionLanes::save_lane`]: the session's own checkpoint.
    /// `lane` must be below the lane count.
    pub fn save_lane(&self, lane: usize, enc: &mut Encoder) -> Result<(), PersistError> {
        self.sessions[..self.live][lane].save_state(enc)
    }

    /// As [`DecisionLanes::resume_lane`], through
    /// [`EarlyClassifier::resume_session`].
    pub fn resume_lane(&mut self, dec: &mut Decoder<'_>) -> Result<(), PersistError> {
        let session = self.clf.resume_session(self.norm, dec)?;
        self.sessions.push(session);
        let last = self.sessions.len() - 1;
        self.sessions.swap(self.live, last);
        self.live += 1;
        Ok(())
    }

    /// Retired sessions awaiting reuse (instrumentation).
    pub fn pooled(&self) -> usize {
        self.sessions.len() - self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etsc_core::ClassLabel;

    /// Commits to class 0 with confidence 1 once `commit_at` samples arrive.
    struct FixedCommit {
        commit_at: usize,
    }

    impl EarlyClassifier for FixedCommit {
        fn n_classes(&self) -> usize {
            1
        }
        fn series_len(&self) -> usize {
            16
        }
        fn decide(&self, prefix: &[f64]) -> Decision {
            if prefix.len() >= self.commit_at {
                Decision::Predict {
                    label: 0,
                    confidence: 1.0,
                }
            } else {
                Decision::Wait
            }
        }
        fn predict_full(&self, _series: &[f64]) -> ClassLabel {
            0
        }
    }

    /// Every lane's status, in lane order, retiring none.
    fn statuses<C: EarlyClassifier + ?Sized>(lanes: &mut SessionLanes<'_, C>) -> Vec<LaneStatus> {
        let mut out = Vec::new();
        lanes.retain(|s| {
            out.push(*s);
            true
        });
        out
    }

    #[test]
    fn session_lanes_open_push_retain_and_recycle() {
        let clf = FixedCommit { commit_at: 2 };
        let mut lanes = SessionLanes::new(&clf, SessionNorm::Raw);
        assert!(statuses(&mut lanes).is_empty());
        lanes.open();
        assert_eq!(statuses(&mut lanes), [LaneStatus::FRESH]);
        // Stagger the lanes: lane 0 gets a head start.
        lanes.push(0.5);
        lanes.open();
        lanes.push(0.5);
        let committed = Decision::Predict {
            label: 0,
            confidence: 1.0,
        };
        assert_eq!(
            statuses(&mut lanes),
            [
                LaneStatus {
                    decision: committed,
                    len: 2
                },
                LaneStatus {
                    decision: Decision::Wait,
                    len: 1
                },
            ]
        );
        // Lane 0 latched; lane 1 commits now.
        lanes.push(0.5);
        let now = statuses(&mut lanes);
        assert_eq!(now[0].len, 3);
        assert!(now[1].decision.is_predict());

        // The predicate sees each lane once, oldest first.
        let mut seen = Vec::new();
        lanes.retain(|s| {
            seen.push(s.len);
            s.len < 3
        });
        assert_eq!(seen, [3, 2]);
        assert_eq!(statuses(&mut lanes).len(), 1);
        assert_eq!(statuses(&mut lanes)[0].len, 2, "the younger lane survives");
        assert_eq!(lanes.pooled(), 1);
        // The recycled session starts fresh for a new lane.
        lanes.open();
        assert_eq!(lanes.pooled(), 0);
        assert_eq!(statuses(&mut lanes)[1], LaneStatus::FRESH);
    }

    #[test]
    fn session_lanes_save_and_resume_through_the_sessions() {
        use crate::template::TemplateMatcher;
        let train = etsc_core::UcrDataset::new(
            vec![vec![0.0, 1.0, 2.0, 3.0], vec![3.0, 2.0, 1.0, 0.0]],
            vec![0, 1],
        )
        .unwrap();
        let clf = TemplateMatcher::from_centroids(&train, 0.5, 2);
        let mut lanes = SessionLanes::new(&clf, SessionNorm::Raw);
        lanes.open();
        lanes.push(0.1);
        let mut saved = Encoder::new();
        lanes.save_lane(0, &mut saved).unwrap();
        let bytes = saved.into_bytes();

        let mut session = clf.session(SessionNorm::Raw);
        session.push(0.1);
        let mut direct = Encoder::new();
        session.save_state(&mut direct).unwrap();
        assert_eq!(bytes, direct.into_bytes(), "a lane saves as its session");

        let mut resumed = SessionLanes::new(&clf, SessionNorm::Raw);
        resumed.resume_lane(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(statuses(&mut resumed), statuses(&mut lanes));
        for x in [1.0, 2.0, 3.0] {
            lanes.push(x);
            resumed.push(x);
            assert_eq!(statuses(&mut resumed), statuses(&mut lanes));
        }

        // Resumed next to a retired session, the lane still opens after the
        // live ones and the retired session stays pooled.
        let mut mixed = SessionLanes::new(&clf, SessionNorm::Raw);
        mixed.open();
        mixed.open();
        mixed.push(0.1);
        mixed.retain(|s| s.len == 0);
        assert_eq!(mixed.pooled(), 2);
        mixed.open();
        mixed.push(0.1);
        mixed.resume_lane(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(mixed.pooled(), 1);
        let mut again = Encoder::new();
        mixed.save_lane(1, &mut again).unwrap();
        assert_eq!(again.into_bytes(), bytes);
        assert_eq!(statuses(&mut mixed).len(), 2);
    }
}
