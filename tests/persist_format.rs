//! Wire-format stability gate: golden snapshot fixtures checked into
//! `tests/fixtures/persist/` must keep decoding under the current
//! [`FORMAT_VERSION`]. A PR that changes the byte layout will fail here —
//! the correct response is to **bump the format version** (readers then
//! reject old snapshots explicitly) and regenerate the fixtures with
//!
//! ```text
//! cargo test --test persist_format regenerate_golden_fixtures -- --ignored
//! ```
//!
//! never to silently reshape the existing version.
//!
//! The fixture models are fitted on a fully deterministic, hand-rolled
//! dataset (no RNG), so regeneration is reproducible across machines.
//!
//! `serve_state.etsc` pins the serving runtime's checkpoint
//! ([`SERVE_STATE_KIND`]) the same way: the current runtime must write
//! those bytes exactly for the scripted traffic below, and recovering from
//! them must continue every alarm sequence.

use std::num::NonZeroU64;
use std::path::PathBuf;

use etsc::classifiers::centroid::NearestCentroid;
use etsc::classifiers::gaussian::{CovarianceKind, GaussianModel};
use etsc::classifiers::sfa::Sfa;
use etsc::classifiers::weasel::Weasel;
use etsc::core::UcrDataset;
use etsc::early::ects::{Ects, EctsConfig};
use etsc::early::edsc::{Edsc, EdscConfig, ThresholdMethod};
use etsc::early::relclass::{RelClass, RelClassConfig};
use etsc::early::teaser::Teaser;
use etsc::early::template::TemplateMatcher;
use etsc::early::{checkpoint_session, resume_session, EarlyClassifier, SessionNorm};
use etsc::persist::{
    envelope, inspect, Encoder, ModelRegistry, Persist, PersistError, FORMAT_VERSION,
};
use etsc::serve::{
    IngestMeta, OverflowPolicy, Record, Runtime, RuntimeConfig, StreamAlarm, SERVE_STATE_KIND,
};
use etsc::stream::{StreamMonitorConfig, StreamNorm};

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/persist")
}

/// Deterministic two-class training set: class level ±1.5 with a fixed
/// arithmetic wiggle. No RNG anywhere, so fixtures regenerate bit-for-bit.
fn fixture_train() -> UcrDataset {
    let (n, len) = (8usize, 24usize);
    let mut data = Vec::new();
    let mut labels = Vec::new();
    for c in 0..2usize {
        for i in 0..n {
            data.push(
                (0..len)
                    .map(|j| {
                        let level = if c == 0 { -1.5 } else { 1.5 };
                        level + 0.05 * (((i * 7 + j * 5 + c * 3) % 11) as f64 - 5.0)
                    })
                    .collect(),
            );
            labels.push(c);
        }
    }
    UcrDataset::new(data, labels).unwrap()
}

/// Deterministic probe, long enough to drive decisions.
fn fixture_probe() -> Vec<f64> {
    (0..24)
        .map(|j| 1.5 + 0.05 * (((j * 5 + 3) % 11) as f64 - 5.0))
        .collect()
}

fn fixture_models() -> (
    NearestCentroid,
    GaussianModel,
    Ects,
    Edsc,
    RelClass,
    TemplateMatcher,
) {
    let train = fixture_train();
    (
        NearestCentroid::fit(&train),
        GaussianModel::fit(&train, CovarianceKind::Full),
        Ects::fit(&train, &EctsConfig::default()),
        Edsc::fit(
            &train,
            &EdscConfig {
                lengths: vec![6, 10],
                stride: 3,
                method: ThresholdMethod::Chebyshev { k: 2.0 },
                min_precision: 0.7,
                max_features_per_class: 6,
            },
        ),
        RelClass::fit(&train, &RelClassConfig::default()),
        TemplateMatcher::from_centroids(&train, 0.5, 4),
    )
}

/// Session checkpoint fixture: an ECTS raw session interrupted at sample 9.
fn fixture_session_bytes(ects: &Ects) -> Vec<u8> {
    let probe = fixture_probe();
    let mut s = ects.session(SessionNorm::Raw);
    for &x in &probe[..9] {
        s.push(x);
    }
    checkpoint_session(s.as_ref()).expect("ects session checkpoints")
}

/// Serve fixture streams, opened in this (unsorted) order; the ids spread
/// over both shards of the 2-shard start and move when it grows to 3.
const SERVE_IDS: [u64; 6] = [901, 7, 4_000_000_007, 33, u64::MAX - 2, 120];
/// Traffic rounds (one record per stream each): a drain after round
/// `SERVE_DRAIN_AT`, a rebalance after `SERVE_REBALANCE_AT`, and the
/// checkpoint cut after `SERVE_CUT` rounds, with the rounds since the
/// drain still undelivered.
const SERVE_REBALANCE_AT: usize = 20;
const SERVE_DRAIN_AT: usize = 30;
const SERVE_CUT: usize = 40;
const SERVE_ROUNDS: usize = 72;
/// The tagged client whose ingest cursor the checkpoint carries.
const SERVE_CLIENT: u64 = 77;

fn serve_config() -> RuntimeConfig {
    RuntimeConfig {
        shards: 2,
        queue_capacity: 64,
        overflow: OverflowPolicy::Block,
        monitor: StreamMonitorConfig {
            anchor_stride: 3,
            norm: StreamNorm::Raw,
            refractory: 12,
        },
        model_name: "template".to_string(),
        threads: Some(2),
    }
}

/// Round `t` of the serve fixture traffic: each stream replays the class-1
/// template from its own phase, so anchors that land on a period start
/// match it and every stream alarms, at different rounds.
fn serve_round(template: &TemplateMatcher, t: usize) -> Vec<Record> {
    let pattern = &template.templates()[1];
    SERVE_IDS
        .iter()
        .enumerate()
        .map(|(k, &id)| Record::new(id, pattern[(t + 5 * k) % pattern.len()]))
        .collect()
}

/// Drive a fresh runtime to the checkpoint cut; returns it with the
/// alarms drained before the cut. Rounds go through the tagged client, so
/// the cut carries its cursor.
fn serve_head(template: &TemplateMatcher) -> (Runtime<'_, TemplateMatcher>, Vec<StreamAlarm>) {
    let mut rt = Runtime::new(template, serve_config()).unwrap();
    for &id in &SERVE_IDS {
        assert!(rt.open_stream(id));
    }
    let mut delivered = Vec::new();
    for t in 0..SERVE_CUT {
        let tag = NonZeroU64::new(SERVE_CLIENT).map(|client| (client, t as u64 + 1));
        assert!(rt
            .ingest_with(&serve_round(template, t), IngestMeta { tag, ctx: None })
            .unwrap());
        if t + 1 == SERVE_REBALANCE_AT {
            rt.rebalance(3).unwrap();
        }
        if t + 1 == SERVE_DRAIN_AT {
            delivered.extend(rt.drain());
        }
    }
    (rt, delivered)
}

fn serve_tmp(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("etsc-persist-format-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// The serve-state checkpoint the current runtime writes at the cut.
fn serve_state_bytes(template: &TemplateMatcher) -> Vec<u8> {
    let (mut rt, _) = serve_head(template);
    let root = serve_tmp("serve-state");
    let registry = ModelRegistry::open(&root).unwrap();
    rt.checkpoint(&registry).unwrap();
    let bytes = registry.load_bytes("template.serve").unwrap();
    let _ = std::fs::remove_dir_all(&root);
    bytes
}

/// One-time generator (run with `-- --ignored` after a deliberate format
/// bump). Writes every fixture the stability tests below read.
#[test]
#[ignore = "fixture generator; run manually after a format-version bump"]
fn regenerate_golden_fixtures() {
    let dir = fixture_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let (centroid, gaussian, ects, edsc, relclass, template) = fixture_models();
    std::fs::write(dir.join("nearest_centroid.etsc"), centroid.snapshot()).unwrap();
    std::fs::write(dir.join("gaussian_full.etsc"), gaussian.snapshot()).unwrap();
    std::fs::write(dir.join("ects.etsc"), ects.snapshot()).unwrap();
    std::fs::write(dir.join("edsc_che.etsc"), edsc.snapshot()).unwrap();
    std::fs::write(dir.join("relclass_diag.etsc"), relclass.snapshot()).unwrap();
    std::fs::write(dir.join("template.etsc"), template.snapshot()).unwrap();
    std::fs::write(
        dir.join("ects_session_raw.etsc"),
        fixture_session_bytes(&ects),
    )
    .unwrap();
    std::fs::write(dir.join("serve_state.etsc"), serve_state_bytes(&template)).unwrap();
}

fn read_fixture(name: &str) -> Vec<u8> {
    let path = fixture_dir().join(name);
    std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "golden fixture {} missing ({e}); regenerate with \
             `cargo test --test persist_format regenerate_golden_fixtures -- --ignored`",
            path.display()
        )
    })
}

#[test]
fn golden_fixtures_carry_the_current_format_version() {
    for name in [
        "nearest_centroid.etsc",
        "gaussian_full.etsc",
        "ects.etsc",
        "edsc_che.etsc",
        "relclass_diag.etsc",
        "template.etsc",
        "ects_session_raw.etsc",
        "serve_state.etsc",
    ] {
        let info = inspect(&read_fixture(name))
            .unwrap_or_else(|e| panic!("fixture {name}: envelope no longer validates: {e}"));
        assert_eq!(
            info.version, FORMAT_VERSION,
            "fixture {name} was written under format {}, reader is at {FORMAT_VERSION} — \
             a layout change must bump the version and regenerate fixtures",
            info.version
        );
    }
}

#[test]
fn golden_model_fixtures_decode_and_match_refits() {
    let (centroid, gaussian, ects, edsc, relclass, template) = fixture_models();
    let probe = fixture_probe();

    let c = NearestCentroid::restore(&read_fixture("nearest_centroid.etsc")).unwrap();
    assert_eq!(
        etsc::classifiers::Classifier::predict_proba(&c, &probe),
        etsc::classifiers::Classifier::predict_proba(&centroid, &probe),
        "nearest_centroid fixture decodes to different behavior"
    );

    let g = GaussianModel::restore(&read_fixture("gaussian_full.etsc")).unwrap();
    for t in [4, 12, 24] {
        for cls in 0..2 {
            assert_eq!(
                g.log_likelihood_prefix(cls, &probe[..t]),
                gaussian.log_likelihood_prefix(cls, &probe[..t]),
                "gaussian_full fixture: class {cls} prefix {t}"
            );
        }
    }

    let e = Ects::restore(&read_fixture("ects.etsc")).unwrap();
    let d = Edsc::restore(&read_fixture("edsc_che.etsc")).unwrap();
    let r = RelClass::restore(&read_fixture("relclass_diag.etsc")).unwrap();
    let m = TemplateMatcher::restore(&read_fixture("template.etsc")).unwrap();
    for t in 1..=probe.len() {
        assert_eq!(
            e.decide(&probe[..t]),
            ects.decide(&probe[..t]),
            "ects @ {t}"
        );
        assert_eq!(
            d.decide(&probe[..t]),
            edsc.decide(&probe[..t]),
            "edsc @ {t}"
        );
        assert_eq!(
            r.decide(&probe[..t]),
            relclass.decide(&probe[..t]),
            "relclass @ {t}"
        );
        assert_eq!(
            m.decide(&probe[..t]),
            template.decide(&probe[..t]),
            "template @ {t}"
        );
    }
}

/// Golden fixture `name` with the u64 at payload offset `offset` set to
/// `value`, re-sealed so the envelope checksum still passes.
fn forge_u64(name: &str, kind: &str, offset: usize, value: u64) -> Vec<u8> {
    let bytes = read_fixture(name);
    let payload_len = inspect(&bytes).unwrap().payload_len;
    let end = bytes.len() - 8;
    let mut payload = bytes[end - payload_len..end].to_vec();
    payload[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
    envelope(kind, &payload)
}

#[test]
fn forged_model_counts_are_typed_errors() {
    // 2^30 templates or classes claimed by a payload of a few hundred
    // bytes: restore must refuse the count before sizing anything by it,
    // not abort on a 24 GiB allocation.
    let template = forge_u64("template.etsc", TemplateMatcher::KIND, 16, 1 << 30);
    assert!(matches!(
        TemplateMatcher::restore(&template),
        Err(PersistError::Corrupt(_))
    ));
    let centroid = forge_u64("nearest_centroid.etsc", NearestCentroid::KIND, 8, 1 << 30);
    assert!(matches!(
        NearestCentroid::restore(&centroid),
        Err(PersistError::Corrupt(_))
    ));
    // The Gaussian class count sits behind the covariance tag and
    // `series_len`; RelClass reaches the same decoder through its model
    // section (an 8-byte length first). EDSC's feature count follows three
    // `usize` fields.
    let gaussian = forge_u64("gaussian_full.etsc", GaussianModel::KIND, 9, 1 << 30);
    assert!(matches!(
        GaussianModel::restore(&gaussian),
        Err(PersistError::Corrupt(_))
    ));
    let relclass = forge_u64("relclass_diag.etsc", RelClass::KIND, 17, 1 << 30);
    assert!(matches!(
        RelClass::restore(&relclass),
        Err(PersistError::Corrupt(_))
    ));
    let edsc = forge_u64("edsc_che.etsc", Edsc::KIND, 24, 1 << 30);
    assert!(matches!(
        Edsc::restore(&edsc),
        Err(PersistError::Corrupt(_))
    ));
}

/// `head` (the fields before a count), the count 2^30, then 256 zero bytes,
/// sealed as a `kind` envelope.
fn forged_count(kind: &str, head: impl FnOnce(&mut Encoder)) -> Vec<u8> {
    let mut enc = Encoder::new();
    head(&mut enc);
    enc.put_usize(1 << 30);
    let mut payload = enc.into_bytes();
    payload.extend([0; 256]);
    envelope(kind, &payload)
}

#[test]
fn forged_teaser_weasel_and_sfa_counts_are_typed_errors() {
    // No fixture holds these three models, so each payload is built by
    // hand: the fields in front of the count, then 2^30 items claimed by a
    // few hundred bytes.
    let sfa = forged_count(Sfa::KIND, |e| {
        e.put_usize(1 << 29); // n_coeffs, so that 2^30 dimensions agree
        e.put_usize(4); // alphabet
    });
    assert!(matches!(Sfa::restore(&sfa), Err(PersistError::Corrupt(_))));
    // 2^63 coefficients with no dimensions: twice the count wraps to 0.
    let mut enc = Encoder::new();
    enc.put_usize(1 << 63);
    enc.put_usize(4);
    enc.put_usize(0);
    let wrapped = envelope(Sfa::KIND, &enc.into_bytes());
    assert!(matches!(
        Sfa::restore(&wrapped),
        Err(PersistError::Corrupt(_))
    ));
    let weasel = forged_count(Weasel::KIND, |e| {
        e.put_usize(2); // classes
        e.put_usize(1); // stride
    });
    assert!(matches!(
        Weasel::restore(&weasel),
        Err(PersistError::Corrupt(_))
    ));
    let teaser = forged_count(Teaser::KIND, |e| {
        e.put_usize(1); // consistency
        e.put_usize(2); // classes
        e.put_usize(24); // series_len
        e.put_bool(false); // znorm_prefixes
    });
    assert!(matches!(
        Teaser::restore(&teaser),
        Err(PersistError::Corrupt(_))
    ));
}

#[test]
fn golden_session_fixture_resumes_bit_identically() {
    let (_, _, ects, _, _, _) = fixture_models();
    let probe = fixture_probe();
    // Uninterrupted reference over the full probe.
    let mut whole = ects.session(SessionNorm::Raw);
    let reference: Vec<_> = probe.iter().map(|&x| whole.push(x)).collect();
    // The checked-in checkpoint was taken at sample 9.
    let bytes = read_fixture("ects_session_raw.etsc");
    let mut resumed = resume_session(&ects, SessionNorm::Raw, &bytes).unwrap();
    for (t, &x) in probe[9..].iter().enumerate() {
        assert_eq!(
            resumed.push(x),
            reference[9 + t],
            "fixture session diverged at step {}",
            9 + t
        );
    }
}

#[test]
fn golden_serve_state_is_written_byte_for_byte() {
    let (_, _, _, _, _, template) = fixture_models();
    let golden = read_fixture("serve_state.etsc");
    assert_eq!(inspect(&golden).unwrap().kind, SERVE_STATE_KIND);
    assert!(
        serve_state_bytes(&template) == golden,
        "the runtime no longer writes the golden serve checkpoint: a layout change must bump \
         the format version and regenerate fixtures"
    );
}

#[test]
fn golden_serve_state_recovers_and_continues_every_alarm_sequence() {
    let (_, _, _, _, _, template) = fixture_models();
    // Uninterrupted reference over the whole traffic, on a fixed topology.
    let mut whole = Runtime::new(&template, serve_config()).unwrap();
    for t in 0..SERVE_ROUNDS {
        whole.ingest(&serve_round(&template, t)).unwrap();
    }
    let reference = whole.drain();
    for &id in &SERVE_IDS {
        assert!(
            reference.iter().any(|a| a.stream == id),
            "stream {id} must alarm"
        );
    }

    // The checked-in checkpoint: alarms drained before the cut, then a
    // runtime recovered from the golden bytes finishes the traffic.
    let (head, mut alarms) = serve_head(&template);
    drop(head);
    let root = serve_tmp("serve-recover");
    let registry = ModelRegistry::open(&root).unwrap();
    registry.save("template", &template).unwrap();
    registry
        .save_bytes("template.serve", &read_fixture("serve_state.etsc"))
        .unwrap();
    let mut tail = Runtime::recover(&template, &root, "template").unwrap();
    let stats = tail.stats();
    assert_eq!(tail.shard_count(), 3, "the cut came after the rebalance");
    assert_eq!(stats.rebalances, 1);
    assert_eq!(tail.stream_ids(), {
        let mut ids = SERVE_IDS.to_vec();
        ids.sort_unstable();
        ids
    });
    assert!(
        stats.pending_alarms >= 1,
        "the cut holds undelivered alarms"
    );
    assert_eq!(
        tail.ingest_cursors().get(&SERVE_CLIENT),
        Some(&(SERVE_CUT as u64))
    );
    for t in SERVE_CUT..SERVE_ROUNDS {
        tail.ingest(&serve_round(&template, t)).unwrap();
    }
    alarms.extend(tail.drain());
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!(alarms, reference, "recovery must drop and invent nothing");
}
