//! The cache-hit answer path builds no gram and changes no bit.
//!
//! Selection is data independent, so a plan selected once answers every
//! later request on its workload.  Workloads whose gram is fixed at
//! construction memoise their cache key (`Workload::try_fingerprint`), so
//! those later requests — in the engine and in the serve tier — build no
//! gram, and a first request hands the gram it hashed on to the selection.
//! Structured plans likewise compute their predicted-error trace term once.
//! What a hit does run, the mechanism, is the textbook one bit for bit.

use adaptive_dp::core::engine::{Engine, FixedStrategySelector};
use adaptive_dp::core::{GaussianBackend, NoiseBackend, PrivacyParams};
use adaptive_dp::linalg::Matrix;
use adaptive_dp::serve::{block_on, ServeEngine};
use adaptive_dp::strategies::Strategy;
use adaptive_dp::workload::marginal::{MarginalKind, MarginalWorkload};
use adaptive_dp::workload::range::AllRangeWorkload;
use adaptive_dp::workload::{
    Domain, Fingerprint, NanGramEntry, RangeQueryWorkload, StructuredWorkload, Workload,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mm-hit-path-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn engine(store: Option<&PathBuf>) -> Engine {
    let mut builder = Engine::builder().privacy(PrivacyParams::paper_default());
    if let Some(dir) = store {
        builder = builder.strategy_store(dir);
    }
    builder.build().expect("engine builds")
}

fn data(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0.0..50.0)).collect()
}

/// Counts every gram its inner workload builds: through `gram()` and through
/// the key, whose memo it forwards (`memo: false` hides the memo, so the key
/// takes the trait's default path and builds a gram on every call).
struct Counting<W> {
    inner: W,
    memo: bool,
    grams: AtomicUsize,
}

impl<W> Counting<W> {
    fn new(inner: W, memo: bool) -> Self {
        Counting {
            inner,
            memo,
            grams: AtomicUsize::new(0),
        }
    }

    fn grams(&self) -> usize {
        self.grams.load(Ordering::Relaxed)
    }
}

impl<W: Workload> Workload for Counting<W> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn query_count(&self) -> usize {
        self.inner.query_count()
    }

    fn gram(&self) -> Matrix {
        self.grams.fetch_add(1, Ordering::Relaxed);
        self.inner.gram()
    }

    fn try_fingerprint(&self) -> Result<(Fingerprint, Option<Matrix>), NanGramEntry> {
        if !self.memo {
            let gram = self.gram();
            let fp = adaptive_dp::workload::try_gram_fingerprint(&gram)?;
            return Ok((fp, Some(gram)));
        }
        let (fp, gram) = self.inner.try_fingerprint()?;
        if gram.is_some() {
            self.grams.fetch_add(1, Ordering::Relaxed);
        }
        Ok((fp, gram))
    }

    fn evaluate(&self, x: &[f64]) -> Vec<f64> {
        self.inner.evaluate(x)
    }

    fn description(&self) -> String {
        self.inner.description()
    }

    fn query_squared_norms(&self) -> Vec<f64> {
        self.inner.query_squared_norms()
    }
}

/// One miss then five hits on one instance: the answer bits, and how many
/// grams the six requests built.
fn six_answers<W: Workload>(engine: &Engine, w: &Counting<W>) -> (Vec<Vec<u64>>, usize) {
    let x = data(w.dim(), 5);
    let mut rng = StdRng::seed_from_u64(17);
    let bits = (0..6)
        .map(|i| {
            let a = engine.answer(w, &x, &mut rng).expect("answers");
            assert_eq!(a.cache_hit, i > 0, "request {i}");
            a.answers.iter().map(|v| v.to_bits()).collect()
        })
        .collect();
    (bits, w.grams())
}

#[test]
fn one_miss_and_five_hits_build_one_gram() {
    let range = || AllRangeWorkload::new(Domain::one_dim(32));
    let marginal = || MarginalWorkload::all_k_way(Domain::new(&[4, 3, 2]), 2, MarginalKind::Range);
    for with_store in [false, true] {
        let dir = scratch_dir(if with_store { "store" } else { "memory" });
        let store = with_store.then_some(&dir);

        let memo = Counting::new(range(), true);
        let (bits, grams) = six_answers(&engine(store), &memo);
        assert_eq!(
            grams, 1,
            "store {with_store}: one gram for one miss and five hits"
        );
        // The default key path builds a gram per request and answers the
        // same bits: the memo changes the work, never the answer.
        let plain = Counting::new(range(), false);
        let (plain_bits, plain_grams) = six_answers(&engine(None), &plain);
        assert_eq!(plain_grams, 6);
        assert_eq!(bits, plain_bits, "memoised and default keys answer alike");

        let marginal = Counting::new(marginal(), true);
        let (_, grams) = six_answers(&engine(store), &marginal);
        assert_eq!(grams, 1, "store {with_store}: marginal workload");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_store_warm_restart_builds_one_gram_per_instance() {
    let dir = scratch_dir("restart");
    let x = data(32, 9);
    let cold = Counting::new(AllRangeWorkload::new(Domain::one_dim(32)), true);
    let mut rng = StdRng::seed_from_u64(1);
    let first = engine(Some(&dir)).answer(&cold, &x, &mut rng).unwrap();
    assert_eq!(cold.grams(), 1);

    let warm_engine = engine(Some(&dir));
    let warm = Counting::new(AllRangeWorkload::new(Domain::one_dim(32)), true);
    for _ in 0..3 {
        let mut rng = StdRng::seed_from_u64(1);
        let again = warm_engine.answer(&warm, &x, &mut rng).unwrap();
        assert!(again.cache_hit);
        assert_eq!(again.fingerprint, first.fingerprint);
        assert_eq!(
            again.expected_rms_error.to_bits(),
            first.expected_rms_error.to_bits()
        );
        assert_eq!(
            again
                .answers
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            first
                .answers
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
    }
    assert_eq!(
        warm.grams(),
        1,
        "the key's gram; the trace term came from the store"
    );
    assert_eq!(
        warm_engine.stats().selections,
        0,
        "the plan came from the store"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_warm_serve_request_builds_no_gram() {
    let engine = Arc::new(engine(None));
    let serve = ServeEngine::builder(engine.clone()).build();
    let w = Arc::new(Counting::new(
        AllRangeWorkload::new(Domain::one_dim(24)),
        true,
    ));
    let x = data(24, 3);
    let cold = block_on(serve.answer(w.clone(), x.clone(), 7)).expect("cold request");
    let after_cold = w.grams();
    assert!(after_cold >= 1);
    for seed in 8..11 {
        let warm = block_on(serve.answer(w.clone(), x.clone(), seed)).expect("warm request");
        assert!(warm.cache_hit);
        assert_eq!(warm.fingerprint, cold.fingerprint);
    }
    assert_eq!(w.grams(), after_cold, "no gram at submit or in the answer");
    // The served answer is the engine's, bit for bit.
    let served = block_on(serve.answer(w.clone(), x.clone(), 42)).unwrap();
    let direct = engine
        .answer(&*w, &x, &mut StdRng::seed_from_u64(42))
        .unwrap();
    assert_eq!(
        served
            .answers
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        direct
            .answers
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>()
    );
}

#[test]
fn the_structured_predicted_error_is_cached_bit_for_bit() {
    let n = 1024;
    let mut rng = StdRng::seed_from_u64(11);
    let intervals: Vec<(usize, usize)> = (0..256)
        .map(|_| {
            let lo = rng.gen_range(0..n);
            (lo, rng.gen_range(lo..n))
        })
        .collect();
    let w = RangeQueryWorkload::from_intervals(n, intervals);
    let x = data(n, 13);
    let dir = scratch_dir("structured");
    let first_engine = engine(Some(&dir));
    let answer = |e: &Engine| {
        e.answer_structured(&w, &x, &mut StdRng::seed_from_u64(2))
            .expect("structured answer")
    };
    let first = answer(&first_engine);
    let second = answer(&first_engine);
    assert!(!first.cache_hit && second.cache_hit);
    let bits = first
        .expected_rms_error
        .expect("Haar on a power-of-two domain has a closed form")
        .to_bits();
    assert_eq!(second.expected_rms_error.unwrap().to_bits(), bits);
    // A warm restart loads the strategy descriptor, recomputes the term and
    // gets the same bits.
    let restarted = engine(Some(&dir));
    let warm = answer(&restarted);
    assert!(warm.cache_hit);
    assert_eq!(restarted.stats().structured_selections, 0);
    assert_eq!(warm.expected_rms_error.unwrap().to_bits(), bits);
    assert_eq!(warm.fingerprint, first.fingerprint);
    let _ = std::fs::remove_dir_all(&dir);
    // The descriptor is what keys the plan, so a different interval set is
    // a different plan with its own term.
    let other = RangeQueryWorkload::prefixes(n);
    let other_answer = first_engine
        .answer_structured(&other, &x, &mut StdRng::seed_from_u64(2))
        .unwrap();
    assert_ne!(other_answer.fingerprint, first.fingerprint);
    assert_ne!(other_answer.expected_rms_error.unwrap().to_bits(), bits);
    assert_eq!(other.descriptor().query_count(), n);
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A warm dense hit is the textbook mechanism, bit for bit: the same seeded
/// noise at the engine's scale, then plain ascending loops, zero entries
/// skipped, for `A·x`, `Aᵀy` and the two triangular solves over the plan's
/// strategy matrix and `l()`.  The strategy is a dense block over one
/// single-entry row per cell, the shape of Program 2's column completion.
/// n = 723 is not a multiple of 4, and the 1 446 × 723 products exceed 10⁶
/// multiply-adds, so the width-1 products split across threads when more
/// than one is allowed.
#[test]
fn a_warm_dense_hit_is_the_textbook_mechanism_bit_for_bit() {
    let n = 723;
    let p = 2 * n;
    let strategy = Matrix::from_fn(p, n, |i, j| {
        if i < n {
            ((i * 7 + j * 13) % 17) as f64 / 16.0 - 0.5
        } else if j == (i * 31) % n {
            1.0 + (i % 3) as f64
        } else {
            0.0
        }
    });
    let engine = Engine::builder()
        .privacy(PrivacyParams::paper_default())
        .selector(FixedStrategySelector::new(Strategy::from_matrix(
            "block over single entries",
            strategy,
        )))
        .build()
        .expect("engine builds");
    let w = AllRangeWorkload::new(Domain::one_dim(n));
    let x = data(n, 31);
    let miss = engine
        .answer(&w, &x, &mut StdRng::seed_from_u64(1))
        .unwrap();
    assert!(!miss.cache_hit);
    let hit = engine
        .answer(&w, &x, &mut StdRng::seed_from_u64(2))
        .unwrap();
    assert!(hit.cache_hit);

    let entry = engine.cached_selection(hit.fingerprint).expect("cached");
    let a = entry.strategy().matrix().expect("materialised");
    let l = entry.factor().expect("factor").l();
    let backend = GaussianBackend;
    let scale = backend.noise_scale(engine.privacy(), backend.sensitivity(entry.strategy()));
    // mm-lint: allow(charge-before-noise): the reference rebuilds the noise stream of the accounted engine answer under test, on the same privacy parameters
    let noise = backend.sample(&mut StdRng::seed_from_u64(2), scale, p);
    let y: Vec<f64> = (0..p)
        .map(|i| {
            let mut acc = 0.0;
            for k in 0..n {
                if a[(i, k)] != 0.0 {
                    acc += a[(i, k)] * x[k];
                }
            }
            acc + noise[i]
        })
        .collect();
    let mut z = vec![0.0; n];
    for r in 0..p {
        for j in 0..n {
            if a[(r, j)] != 0.0 {
                z[j] += a[(r, j)] * y[r];
            }
        }
    }
    for i in 0..n {
        let mut v = z[i];
        for j in 0..i {
            if l[(i, j)] != 0.0 {
                v -= l[(i, j)] * z[j];
            }
        }
        z[i] = v / l[(i, i)];
    }
    for i in (0..n).rev() {
        let mut v = z[i];
        for j in (i + 1)..n {
            if l[(j, i)] != 0.0 {
                v -= l[(j, i)] * z[j];
            }
        }
        z[i] = v / l[(i, i)];
    }
    assert_eq!(bits(&hit.estimate), bits(&z), "estimate");
    assert_eq!(bits(&hit.answers), bits(&w.evaluate(&z)), "answers");

    // A K = 3 batch is three single answers on the same rng stream.
    let xs = [data(n, 41), data(n, 42), data(n, 43)];
    let batch = engine
        .answer_batch(&w, &xs, &mut StdRng::seed_from_u64(3))
        .unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    for (batched, x) in batch.iter().zip(&xs) {
        let single = engine.answer(&w, x, &mut rng).unwrap();
        assert_eq!(bits(&batched.estimate), bits(&single.estimate));
        assert_eq!(bits(&batched.answers), bits(&single.answers));
    }
}
