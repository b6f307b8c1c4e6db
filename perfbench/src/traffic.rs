//! Seeded traffic: GunPoint exemplars embedded in per-stream smoothed random
//! walks, the Appendix B construction spread over many streams.
//!
//! The model is always fitted on the same training split; the seed decides
//! only the traffic (each stream's background walk, where events sit and
//! which test exemplar each event is). Records are laid out time-major —
//! sample `t` of every stream before sample `t + 1` of any — and a batch is
//! a run of consecutive records.

use etsc_core::{Event, UcrDataset};
use etsc_datasets::random_walk::smoothed_random_walk;
use etsc_serve::Record;

/// Moving-average width of the background walk (as in Appendix B).
const WALK_SMOOTH: usize = 15;
/// Embedded exemplars are z-normalized; this gives them the walk's scale.
const EXEMPLAR_SCALE: f64 = 2.0;

/// splitmix64: a tiny, well-mixed generator for placement decisions.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One round's traffic, identical in every round of a run.
pub struct Traffic {
    /// Samples of each stream, indexed by stream id.
    pub series: Vec<Vec<f64>>,
    /// Embedded events of each stream, in time order.
    pub events: Vec<Vec<Event>>,
    /// Every sample as a record, time-major.
    pub records: Vec<Record>,
}

impl Traffic {
    /// `streams` streams of `samples` samples each; events are separated
    /// by `gap` background samples on average.
    pub fn generate(
        test: &UcrDataset,
        streams: usize,
        samples: usize,
        gap: usize,
        seed: u64,
    ) -> Self {
        let len = test.series_len();
        let mut series = Vec::with_capacity(streams);
        let mut events = Vec::with_capacity(streams);
        for k in 0..streams {
            let stream_seed =
                SplitMix::new(seed ^ (k as u64).wrapping_mul(0xA24B_AED4_963E_E407)).next_u64();
            let mut data = smoothed_random_walk(samples, WALK_SMOOTH, stream_seed);
            let mut rng = SplitMix::new(stream_seed ^ 0x5851_F42D_4C95_7F2D);
            let mut stream_events = Vec::new();
            let mut pos = gap / 2 + rng.below(gap);
            while pos + len <= samples {
                let i = rng.below(test.len());
                let level = data[pos];
                for (slot, &v) in data[pos..pos + len].iter_mut().zip(test.series(i)) {
                    *slot = level + EXEMPLAR_SCALE * v;
                }
                stream_events.push(Event::new(pos, pos + len, test.label(i)));
                pos += len + gap / 2 + rng.below(gap);
            }
            series.push(data);
            events.push(stream_events);
        }
        let mut records = Vec::with_capacity(streams * samples);
        for t in 0..samples {
            for (k, s) in series.iter().enumerate() {
                records.push(Record::new(k as u64, s[t]));
            }
        }
        Self {
            series,
            events,
            records,
        }
    }

    pub fn streams(&self) -> usize {
        self.series.len()
    }
}
