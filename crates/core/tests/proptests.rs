//! Property-based tests for the foundation invariants the rest of the
//! workspace depends on.

use etsc_core::distance::{dot_product, euclidean, squared_euclidean, znormalized_dist};
use etsc_core::dtw::{dtw_sq, envelope, lb_keogh_sq, lb_kim_sq};
use etsc_core::metrics::{Histogram, HistogramSnapshot};
use etsc_core::nn::{distance_profile, distance_profile_naive, BatchProfile};
use etsc_core::parallel;
use etsc_core::stats::{mean, mean_std, std_dev, RunningStats};
use etsc_core::trace::ring::{merge_snapshots, SLOT_WORDS};
use etsc_core::trace::{Scope, SpanKind, SpanRing, Tracer, TracerConfig};
use etsc_core::znorm::{is_znormalized, znormalize, CONSTANT_EPS};
use proptest::prelude::*;

fn series(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e3f64..1e3, len)
}

/// The worker counts every parallel-equivalence property is checked at:
/// serial, even split, and an odd count that forces ragged chunks.
const THREAD_COUNTS: [usize; 3] = [1, 2, 7];

proptest! {
    #[test]
    fn znorm_output_is_znormalized(xs in series(2..64)) {
        let z = znormalize(&xs);
        prop_assert!(is_znormalized(&z, 1e-6));
    }

    #[test]
    fn znorm_is_translation_and_scale_invariant(
        xs in series(2..64),
        shift in -100.0f64..100.0,
        scale in 0.01f64..100.0,
    ) {
        let moved: Vec<f64> = xs.iter().map(|&x| shift + scale * x).collect();
        let a = znormalize(&xs);
        let b = znormalize(&moved);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-5, "{x} vs {y}");
        }
    }

    #[test]
    fn znorm_idempotent(xs in series(2..64)) {
        let once = znormalize(&xs);
        let twice = znormalize(&once);
        for (a, b) in once.iter().zip(&twice) {
            prop_assert!((a - b).abs() < 1e-7);
        }
    }

    #[test]
    fn running_stats_match_batch(xs in series(1..128)) {
        let mut rs = RunningStats::new();
        for &x in &xs { rs.push(x); }
        prop_assert!((rs.mean() - mean(&xs)).abs() < 1e-6);
        prop_assert!((rs.std_dev() - std_dev(&xs)).abs() < 1e-6);
    }

    #[test]
    fn mean_std_single_pass_matches_two_pass(xs in series(1..128)) {
        let (m, s) = mean_std(&xs);
        prop_assert!((m - mean(&xs)).abs() < 1e-8);
        prop_assert!((s - std_dev(&xs)).abs() < 1e-6);
    }

    #[test]
    fn euclidean_is_symmetric_and_nonneg(a in series(1..32), b in series(1..32)) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let d1 = euclidean(a, b);
        let d2 = euclidean(b, a);
        prop_assert!(d1 >= 0.0);
        prop_assert!((d1 - d2).abs() < 1e-9);
    }

    #[test]
    fn euclidean_triangle_inequality(
        a in series(8..9), b in series(8..9), c in series(8..9),
    ) {
        let ab = euclidean(&a, &b);
        let bc = euclidean(&b, &c);
        let ac = euclidean(&a, &c);
        prop_assert!(ac <= ab + bc + 1e-9);
    }

    #[test]
    fn dtw_is_lower_or_equal_to_euclidean(a in series(4..24), b in series(4..24)) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        prop_assert!(dtw_sq(a, b, None) <= squared_euclidean(a, b) + 1e-9);
    }

    #[test]
    fn dtw_zero_iff_identical_under_no_band(a in series(2..24)) {
        prop_assert!(dtw_sq(&a, &a, None).abs() < 1e-12);
    }

    #[test]
    fn lb_keogh_lower_bounds_dtw(
        a in series(10..11), b in series(10..11), band in 0usize..5,
    ) {
        let (u, l) = envelope(&b, band);
        let lb = lb_keogh_sq(&a, &u, &l);
        let d = dtw_sq(&a, &b, Some(band));
        prop_assert!(lb <= d + 1e-6, "lb {lb} > dtw {d}");
    }

    #[test]
    fn lb_kim_lower_bounds_dtw(a in series(6..7), b in series(6..7)) {
        prop_assert!(lb_kim_sq(&a, &b) <= dtw_sq(&a, &b, None) + 1e-9);
    }

    #[test]
    fn znormalized_dist_agrees_with_explicit_normalization(
        q in series(4..32),
        x in series(4..32),
    ) {
        let n = q.len().min(x.len());
        let (q, x) = (&q[..n], &x[..n]);
        // Skip near-constant windows: the convention maps them to zeros and
        // the naive path does the same, but both paths hit CONSTANT_EPS
        // boundaries differently.
        prop_assume!(std_dev(x) > 1e-6 && std_dev(q) > 1e-6);
        let qz = znormalize(q);
        let fast = znormalized_dist(&qz, x);
        let naive = euclidean(&qz, &znormalize(x));
        prop_assert!((fast - naive).abs() < 1e-5, "{fast} vs {naive}");
    }

    #[test]
    fn unrolled_kernels_reassociate_only(a in series(1..200), b in series(1..200)) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let naive_dot: f64 = a.iter().zip(b).map(|(&x, &y)| x * y).sum();
        let naive_sq: f64 = a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum();
        // Inputs are up to 1e3 in magnitude and 200 long, so sums reach
        // ~2e8; 1e-12 relative is the reassociation-only budget.
        let scale = 1.0 + naive_dot.abs().max(naive_sq.abs());
        prop_assert!((dot_product(a, b) - naive_dot).abs() <= 1e-12 * scale);
        prop_assert!((squared_euclidean(a, b) - naive_sq).abs() <= 1e-12 * scale);
    }
}

/// A haystack whose tail is a constant run, exercising the `CONSTANT_EPS`
/// branch (constant windows z-normalize to all zeros, d² = m) alongside
/// ordinary windows.
fn haystack_with_constant_run() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-50.0f64..50.0, 40..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rolling_profile_matches_naive_per_window_profile(
        hay in haystack_with_constant_run(),
        q in series(2..24),
        run_start in 0usize..80,
        level in -20.0f64..20.0,
    ) {
        let mut hay = hay;
        // Plant a constant run somewhere in the haystack.
        let run_start = run_start.min(hay.len().saturating_sub(1));
        let run_end = (run_start + 30).min(hay.len());
        hay[run_start..run_end].fill(level);
        prop_assume!(q.len() <= hay.len());

        let rolling = distance_profile(&q, &hay);
        let naive = distance_profile_naive(&q, &hay);
        prop_assert_eq!(rolling.len(), naive.len());
        let m = q.len();
        for (i, (r, n)) in rolling.iter().zip(&naive).enumerate() {
            let window = &hay[i..i + m];
            if window.iter().all(|&v| v == window[0]) {
                // Exactly constant window: the engine applies the
                // convention exactly (d = sqrt(m)); the naive reference's
                // epsilon test can misclassify here (documented divergence
                // on `distance_profile_naive`), so it is not the oracle.
                prop_assert!((r - (m as f64).sqrt()).abs() < 1e-9, "window {i}: {r}");
            } else {
                prop_assert!((r - n).abs() < 1e-5, "window {i}: rolling {r} vs naive {n}");
            }
        }
    }

    #[test]
    fn rolling_profile_constant_windows_hit_eps_branch(
        q in series(4..16),
        level in -5.0f64..5.0,
    ) {
        // Fully constant haystack: every window takes the constant branch
        // and the profile is exactly sqrt(m) everywhere (the z-normalization
        // convention maps constant windows to all zeros, so d² = Σq̂² = m).
        let hay = vec![level; q.len() + 20];
        prop_assume!(std_dev(&q) > CONSTANT_EPS);
        let rolling = distance_profile(&q, &hay);
        let expect = (q.len() as f64).sqrt();
        for r in &rolling {
            prop_assert!((r - expect).abs() < 1e-9, "{r} vs sqrt(m) {expect}");
        }
    }

    #[test]
    fn profile_engine_parallel_is_bit_identical_to_serial(
        hay in series(60..200),
        q in series(2..24),
    ) {
        prop_assume!(q.len() <= hay.len());
        let engine = BatchProfile::new(&hay);
        let serial = engine.profile_with(1, &q);
        for &t in &THREAD_COUNTS[1..] {
            prop_assert_eq!(&engine.profile_with(t, &q), &serial, "threads {}", t);
        }
        // The ETSC_THREADS-driven entry points agree too.
        for &t in &THREAD_COUNTS {
            let via_env = parallel::with_threads(t, || engine.profile(&q));
            prop_assert_eq!(&via_env, &serial, "with_threads({})", t);
        }
    }

    #[test]
    fn pruned_nearest_agrees_with_profile_argmin(
        hay in haystack_with_constant_run(),
        q in series(2..24),
        trend in -0.5f64..0.5,
    ) {
        // Add a trend: the regime where a sloppy Cauchy–Schwarz bound would
        // mis-prune.
        let hay: Vec<f64> = hay.iter().enumerate().map(|(i, &v)| v + trend * i as f64).collect();
        prop_assume!(q.len() <= hay.len());
        let engine = BatchProfile::new(&hay);
        let profile = engine.profile(&q);
        let min = profile.iter().cloned().fold(f64::INFINITY, f64::min);
        for &t in &THREAD_COUNTS {
            let m = parallel::with_threads(t, || engine.nearest(&q)).unwrap();
            // The winner's distance must be the profile minimum (the pruned
            // scan may land on a different index only for exact ties).
            prop_assert!((m.dist - min).abs() < 1e-9, "threads {}: {} vs {}", t, m.dist, min);
            prop_assert!((profile[m.start] - min).abs() < 1e-9);
        }
    }

    #[test]
    fn parallel_primitives_match_serial_at_fixed_thread_counts(
        xs in series(1..300),
    ) {
        let serial_map: Vec<f64> = xs.iter().map(|&x| x * 1.5 - 2.0).collect();
        let serial_sq: Vec<f64> = xs.iter().map(|&x| x * x).collect();
        for &t in &THREAD_COUNTS {
            prop_assert_eq!(&parallel::map_with(t, &xs, |&x| x * 1.5 - 2.0), &serial_map);
            prop_assert_eq!(
                &parallel::map_range_with(t, xs.len(), |i| xs[i] * xs[i]),
                &serial_sq
            );
            let mut mutated = xs.clone();
            parallel::for_each_mut_with(t, &mut mutated, |x| *x += 1.0);
            let expect: Vec<f64> = xs.iter().map(|&x| x + 1.0).collect();
            prop_assert_eq!(&mutated, &expect);
            let mut sliced = xs.clone();
            parallel::for_each_slice_mut_with(t, &mut sliced, |off, chunk| {
                for (k, v) in chunk.iter_mut().enumerate() {
                    *v = xs[off + k] * 2.0;
                }
            });
            let expect2: Vec<f64> = xs.iter().map(|&x| x * 2.0).collect();
            prop_assert_eq!(&sliced, &expect2);
        }
    }
}

/// Scale raw u64 draws down by per-element exponents, so observation sets
/// cover every bucket region — uniform u64 alone almost never lands below
/// 2^55. `e` picks the magnitude (`0` → the value 0, `e` → `[0, 2^e)`);
/// the two input vectors zip, truncating to the shorter.
fn scaled_values(exps: &[usize], raws: &[u64]) -> Vec<u64> {
    exps.iter()
        .zip(raws)
        .map(|(&e, &r)| if e == 0 { 0 } else { r >> (64 - e.min(64)) })
        .collect()
}

/// A span-ring payload carrying `tag` in its first word (the proptests
/// only need one distinguishing word per record).
fn tag_words(tag: u64) -> [u64; SLOT_WORDS] {
    let mut w = [0u64; SLOT_WORDS];
    w[0] = tag;
    w
}

/// Record `values` into a fresh histogram and snapshot it.
fn snap(values: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

proptest! {
    #[test]
    fn histogram_buckets_bracket_every_value(e in 0usize..65, raw in 0u64..=u64::MAX) {
        let v = *scaled_values(&[e], &[raw]).first().expect("one value");
        let s = snap(&[v]);
        let i = s
            .buckets
            .iter()
            .position(|&c| c == 1)
            .expect("one value lands in exactly one bucket");
        prop_assert!(v <= HistogramSnapshot::bucket_upper_bound(i));
        if i > 0 {
            prop_assert!(v > HistogramSnapshot::bucket_upper_bound(i - 1));
        }
    }

    #[test]
    fn histogram_power_of_two_boundaries_are_exact(k in 1usize..63) {
        // 2^k − 1 is the last value of bucket k and 2^k the first of the
        // next (the overflow bucket for k = 62) — the boundary is exact,
        // never off by one.
        let below = (1u64 << k) - 1;
        let at = 1u64 << k;
        let s = snap(&[below, at]);
        prop_assert_eq!(s.buckets[k], 1);
        prop_assert_eq!(s.buckets[(k + 1).min(63)], 1);
        prop_assert_eq!(HistogramSnapshot::bucket_upper_bound(k), below);
    }

    #[test]
    fn histogram_quantiles_are_monotone_and_never_understate(
        exps in prop::collection::vec(0usize..65, 1..80),
        raws in prop::collection::vec(0u64..=u64::MAX, 1..80),
    ) {
        let values = scaled_values(&exps, &raws);
        let s = snap(&values);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let n = sorted.len() as u64;
        let qs = [0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0];
        for w in qs.windows(2) {
            prop_assert!(s.quantile(w[0]) <= s.quantile(w[1]), "monotone in q");
        }
        for &q in &qs {
            // The reported quantile is the upper bound of the bucket that
            // holds the rank, so it never understates the exact quantile.
            let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
            let exact = sorted[rank as usize - 1];
            prop_assert!(s.quantile(q) >= exact, "q={q}: {} < {exact}", s.quantile(q));
        }
    }

    #[test]
    fn histogram_merge_equals_recording_the_concatenation(
        // Exponents capped at 57: 120 observations of < 2^57 keep the sum
        // below u64::MAX, the regime the histogram documents (`record`
        // wraps on a sum overflow, `merge` saturates — they only agree
        // while the total stays representable; the saturation property
        // has its own test below).
        exps in prop::collection::vec(0usize..58, 2..120),
        raws in prop::collection::vec(0u64..=u64::MAX, 2..120),
        split in 0usize..120,
    ) {
        let values = scaled_values(&exps, &raws);
        let (a, b) = values.split_at(split.min(values.len()));
        let (a, b) = (a.to_vec(), b.to_vec());
        let mut merged = snap(&a);
        merged.merge(&snap(&b));
        let concat: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        prop_assert_eq!(merged, snap(&concat));
    }

    #[test]
    fn histogram_merge_is_associative_and_commutative(
        exps in prop::collection::vec(0usize..65, 3..120),
        raws in prop::collection::vec(0u64..=u64::MAX, 3..120),
    ) {
        let values = scaled_values(&exps, &raws);
        let third = values.len() / 3;
        let (a, rest) = values.split_at(third);
        let (b, c) = rest.split_at(third);
        let (sa, sb, sc) = (snap(a), snap(b), snap(c));
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(&ab, &ba, "commutative");
        let mut ab_c = ab.clone();
        ab_c.merge(&sc);
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut a_bc = sa.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc, "associative");
    }

    #[test]
    fn span_ring_wraparound_keeps_the_newest_records_in_order(
        cap in 1usize..32,
        n in 0u64..200,
    ) {
        let ring = SpanRing::new(cap);
        for i in 0..n {
            ring.record(tag_words(i));
        }
        let snap = ring.snapshot();
        let kept = (ring.capacity() as u64).min(n);
        prop_assert_eq!(snap.len() as u64, kept);
        prop_assert_eq!(ring.dropped(), n - kept, "drop-oldest evicts exactly the excess");
        prop_assert_eq!(ring.recorded(), snap.len() as u64 + ring.dropped());
        // The survivors are the newest `kept` claims, oldest first.
        for (j, (seq, w)) in snap.iter().enumerate() {
            let expect = n - kept + j as u64;
            prop_assert_eq!(*seq, expect);
            prop_assert_eq!(w[0], expect);
        }
    }

    #[test]
    fn span_ring_accounts_for_every_claim_at_fixed_thread_counts(
        cap in 1usize..64,
        per_thread in 1u64..128,
    ) {
        for &t in &THREAD_COUNTS {
            let ring = SpanRing::new(cap);
            std::thread::scope(|s| {
                for tid in 0..t as u64 {
                    let ring = &ring;
                    s.spawn(move || {
                        for i in 0..per_thread {
                            ring.record(tag_words((tid << 32) | i));
                        }
                    });
                }
            });
            let total = t as u64 * per_thread;
            prop_assert_eq!(ring.recorded(), total, "threads {}", t);
            let snap = ring.snapshot();
            prop_assert_eq!(
                snap.len() as u64 + ring.dropped(),
                total,
                "threads {}: every claim is retained or counted dropped",
                t
            );
            for pair in snap.windows(2) {
                prop_assert!(pair[0].0 < pair[1].0, "snapshot ordered by claim sequence");
            }
            // Each thread's surviving records appear in its program order
            // (claim sequences are handed out monotonically per thread).
            for tid in 0..t as u64 {
                let tags: Vec<u64> = snap
                    .iter()
                    .map(|(_, w)| w[0])
                    .filter(|w| w >> 32 == tid)
                    .collect();
                for pair in tags.windows(2) {
                    prop_assert!(pair[0] < pair[1], "thread {} order survives the wrap", tid);
                }
            }
        }
    }

    #[test]
    fn span_ring_per_thread_rings_merge_into_one_ordered_union(per_thread in 1u64..64) {
        for &t in &THREAD_COUNTS {
            let rings: Vec<SpanRing> = (0..t)
                .map(|_| SpanRing::new(per_thread as usize))
                .collect();
            std::thread::scope(|s| {
                for (tid, ring) in rings.iter().enumerate() {
                    s.spawn(move || {
                        for i in 0..per_thread {
                            ring.record(tag_words(((tid as u64) << 32) | i));
                        }
                    });
                }
            });
            let parts: Vec<_> = rings.iter().map(|r| r.snapshot()).collect();
            let merged = merge_snapshots(&parts);
            // One single-writer ring per thread, each sized to its load:
            // nothing drops, and the merge is the exact union.
            prop_assert_eq!(merged.len() as u64, t as u64 * per_thread, "threads {}", t);
            for pair in merged.windows(2) {
                prop_assert!(pair[0] < pair[1], "merge is totally ordered");
            }
            let mut tags: Vec<u64> = merged.iter().map(|(_, w)| w[0]).collect();
            tags.sort_unstable();
            tags.dedup();
            prop_assert_eq!(tags.len() as u64, t as u64 * per_thread, "no tag lost or duplicated");
        }
    }

    #[test]
    fn tracer_span_ids_are_unique_and_monotone_across_threads(
        seed in 1u64..1_000_000,
        per_thread in 1usize..64,
    ) {
        for &t in &THREAD_COUNTS {
            let tracer = Tracer::new(TracerConfig {
                id_seed: seed,
                ..TracerConfig::default()
            });
            let per_thread_ids: Vec<Vec<u64>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..t)
                    .map(|_| {
                        let tracer = tracer.clone();
                        s.spawn(move || {
                            (0..per_thread)
                                .map(|_| {
                                    let mut root = Scope::root(Some(&tracer), SpanKind::ClientIngest);
                                    root.ctx().map_or(0, |ctx| ctx.parent_span)
                                })
                                .collect::<Vec<u64>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("id allocator thread"))
                    .collect()
            });
            for ids in &per_thread_ids {
                for pair in ids.windows(2) {
                    prop_assert!(pair[0] < pair[1], "monotone within a thread");
                }
                prop_assert!(ids.iter().all(|&id| id >= seed), "ids start at the seed");
            }
            let mut flat: Vec<u64> = per_thread_ids.into_iter().flatten().collect();
            let total = flat.len();
            flat.sort_unstable();
            flat.dedup();
            prop_assert_eq!(flat.len(), total, "threads {}: globally unique", t);
        }
    }

    #[test]
    fn histogram_overflow_bucket_saturates_instead_of_wrapping(extra in 0u64..=u64::MAX) {
        // A snapshot already at the counting limit absorbs more giant
        // observations without wrapping — the overflow bucket and the sum
        // both saturate.
        let mut s = HistogramSnapshot::empty();
        s.buckets[63] = u64::MAX;
        s.sum = u64::MAX;
        s.merge(&snap(&[u64::MAX, extra | (1 << 62)]));
        prop_assert_eq!(s.buckets[63], u64::MAX);
        prop_assert_eq!(s.sum, u64::MAX);
        prop_assert_eq!(s.quantile(1.0), u64::MAX);
    }
}
