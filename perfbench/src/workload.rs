//! The three workloads, their models, and their serving configurations.

use etsc_bench::gunpoint_splits;
use etsc_classifiers::centroid::NearestCentroid;
use etsc_core::UcrDataset;
use etsc_early::template::TemplateMatcher;
use etsc_early::threshold::ProbThreshold;
use etsc_serve::RuntimeConfig;
use etsc_stream::{StreamMonitorConfig, StreamNorm};

/// The GunPoint split every model is fitted on. Fixed, so a seed changes
/// the traffic and never the model.
const TRAIN_SEED: u64 = 13;
/// Commit threshold of the softmax model. At 0.7 and above the two-class
/// softmax never fires on this traffic; at 0.6 the alarm count explodes.
const PROB_THETA: f64 = 0.65;
const PROB_MIN_PREFIX: usize = 20;
/// Training-distance quantile the template threshold is calibrated to.
const TEMPLATE_QUANTILE: f64 = 0.95;
const TEMPLATE_MIN_PREFIX: usize = 20;
/// Samples of suppression after an alarm (as in Appendix B).
const REFRACTORY: usize = 75;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// `ProbThreshold<NearestCentroid>` at [`PROB_THETA`].
    Prob,
    /// `TemplateMatcher::from_centroids`.
    Template,
}

/// Where the runtimes live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// One in-process `Runtime`.
    InProcess,
    /// Two loopback `Node`s (one shard, one worker each) behind a `Cluster`.
    Loopback,
}

/// Everything that defines a workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub model: ModelKind,
    pub transport: Transport,
    pub streams: usize,
    /// Samples per stream per round.
    pub samples: usize,
    /// Mean background samples between embedded events.
    pub gap: usize,
    /// Records per ingest call.
    pub batch: usize,
    /// Batches per drain.
    pub drain_every: usize,
    /// Anchor stride; `None` means one anchor per pattern length.
    pub stride: Option<usize>,
    pub norm: StreamNorm,
    pub shards: usize,
    /// Cut a checkpoint every this many drains.
    pub checkpoint_every: Option<usize>,
    /// Re-shard to this many shards once, halfway through a round.
    pub rebalance_to: Option<usize>,
    /// Ledger layers this workload exists to exercise.
    pub target: &'static [&'static str],
}

impl Spec {
    /// The named workload; `tiny` shrinks it for smoke tests.
    pub fn named(name: &str, tiny: bool) -> Option<Self> {
        let shrink = |full: usize, small: usize| if tiny { small } else { full };
        let spec = match name {
            "anchor-fanout" => Spec {
                name: "anchor-fanout",
                model: ModelKind::Prob,
                transport: Transport::InProcess,
                streams: shrink(64, 8),
                samples: shrink(40_000, 2_400),
                gap: 2_200,
                batch: shrink(64, 8),
                drain_every: 32,
                stride: Some(16),
                norm: StreamNorm::PerPrefix,
                shards: 2,
                checkpoint_every: None,
                rebalance_to: None,
                target: &["early", "stream"],
            },
            "many-streams-checkpoint" => Spec {
                name: "many-streams-checkpoint",
                model: ModelKind::Template,
                transport: Transport::InProcess,
                streams: shrink(4_096, 64),
                samples: shrink(1_200, 600),
                gap: 300,
                batch: shrink(4_096, 64),
                drain_every: 3,
                stride: None,
                norm: StreamNorm::Raw,
                shards: 2,
                checkpoint_every: Some(25),
                rebalance_to: Some(3),
                target: &["serve", "persist"],
            },
            "cluster-loopback" => Spec {
                name: "cluster-loopback",
                model: ModelKind::Template,
                transport: Transport::Loopback,
                streams: shrink(256, 16),
                samples: shrink(12_000, 600),
                gap: 300,
                batch: 64,
                drain_every: 32,
                stride: None,
                norm: StreamNorm::Raw,
                shards: 1,
                checkpoint_every: None,
                rebalance_to: None,
                target: &["net"],
            },
            _ => return None,
        };
        Some(spec)
    }

    pub fn monitor(&self, series_len: usize) -> StreamMonitorConfig {
        StreamMonitorConfig {
            anchor_stride: self.stride.unwrap_or(series_len),
            norm: self.norm,
            refractory: REFRACTORY,
        }
    }

    /// Runtime configuration with `workers` drain threads and `shards`
    /// shards; queues hold a whole drain cycle, so ingest never flushes.
    pub fn runtime(&self, series_len: usize, shards: usize, workers: usize) -> RuntimeConfig {
        RuntimeConfig {
            shards,
            queue_capacity: self.batch * self.drain_every + 1,
            monitor: self.monitor(series_len),
            model_name: "perfbench".to_string(),
            threads: Some(workers),
            ..RuntimeConfig::default()
        }
    }
}

/// A fitted model of either kind.
pub enum Model {
    Prob(ProbThreshold<NearestCentroid>),
    Template(TemplateMatcher),
}

/// The z-normalized GunPoint train and test splits.
pub fn splits() -> (UcrDataset, UcrDataset) {
    let (mut train, mut test) = gunpoint_splits(TRAIN_SEED);
    train.znormalize();
    test.znormalize();
    (train, test)
}

pub fn fit(kind: ModelKind, train: &UcrDataset) -> Model {
    match kind {
        ModelKind::Prob => Model::Prob(ProbThreshold::new(
            NearestCentroid::fit(train),
            PROB_THETA,
            train.series_len(),
            PROB_MIN_PREFIX,
        )),
        ModelKind::Template => {
            let threshold = TemplateMatcher::calibrate_threshold(train, TEMPLATE_QUANTILE);
            Model::Template(TemplateMatcher::from_centroids(
                train,
                threshold,
                TEMPLATE_MIN_PREFIX,
            ))
        }
    }
}
