//! Replays: stages with no seam are measured by re-running the same public
//! function on the request's own input right after the request, off the
//! request path.  Replay spans never count toward reconciliation.

use crate::trace::{Recorder, Stage};
use mm_core::design_set::{weighted_design_strategy_with_costs, DesignWeightingOptions};
use mm_core::eigen_design::{workload_eigensystem, EigenDesignOptions};
use mm_core::engine::{CachedSelection, SelectionPlan, StrategyStore};
use mm_core::{Engine, GaussianBackend, NoiseBackend};
use mm_linalg::Matrix;
use mm_opt::{cg_normal_equations, CgOptions};
use mm_workload::{structured_fingerprint, try_gram_fingerprint, StructuredWorkload, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Replays the dense stages of one request: key derivation and cache
/// lookup always; the selection stages and the store write when the
/// request selected (`selected`); the mechanism kernels on the cached plan.
pub fn dense(
    rec: &Recorder,
    engine: &Engine,
    workload: &dyn Workload,
    x: &[f64],
    selected: bool,
    store: Option<&StrategyStore>,
) -> Result<(), String> {
    let gram = workload.gram();
    let base = rec
        .time(Stage::ReplayFingerprint, || try_gram_fingerprint(&gram))
        .map_err(|e| format!("replayed fingerprint: NaN gram at {e:?}"))?;
    let fp = engine.plan_fingerprint(base, gram.rows());
    let Some(plan) = rec.time(Stage::ReplayLookup, || engine.cached_plan(fp)) else {
        // Evicted since the request; nothing left to replay against.
        return Ok(());
    };
    let SelectionPlan::Dense(entry) = &*plan else {
        return Ok(());
    };
    if selected {
        let opts = EigenDesignOptions::default();
        let (_, retained, q) = rec
            .time(Stage::ReplayEigen, || {
                workload_eigensystem(&gram, opts.rank_tol)
            })
            .map_err(|e| format!("replayed eigensystem: {e}"))?;
        let weighting = DesignWeightingOptions {
            solver: opts.solver.clone(),
            completion: opts.completion,
        };
        rec.time(Stage::ReplayWeighting, || {
            weighted_design_strategy_with_costs("replay", &q, retained, &weighting)
        })
        .map_err(|e| format!("replayed weighting: {e}"))?;
        let fresh = CachedSelection::new(entry.strategy().clone());
        rec.time(Stage::ReplayFactor, || fresh.factor())
            .map_err(|e| format!("replayed factor: {e}"))?;
        rec.time(Stage::ReplayTrace, || fresh.trace_term(&gram))
            .map_err(|e| format!("replayed trace term: {e}"))?;
        if let Some(store) = store {
            let start = rec.now();
            store.try_save(fp, &plan, Some(&gram));
            let end = rec.now();
            let path = store.entry_path(fp);
            let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            rec.record(Stage::ReplaySave, start, end, bytes);
            let _ = std::fs::remove_file(path);
        }
    }
    let Some(a) = entry.strategy().matrix() else {
        return Ok(());
    };
    let factor = entry.factor().map_err(|e| format!("cached factor: {e}"))?;
    let xm = Matrix::from_fn(x.len(), 1, |i, _| x[i]);
    // Kernel cost does not depend on the values, so the replay skips the
    // noise draw the request added between these two products.
    let y = rec
        .time(Stage::ReplayMatmul, || a.matmul(&xm))
        .map_err(|e| format!("replayed A·X: {e}"))?;
    let aty = rec
        .time(Stage::ReplayMatmulT, || a.matmul_transpose_left(&y))
        .map_err(|e| format!("replayed Aᵀ·Y: {e}"))?;
    rec.time(Stage::ReplayTrsm, || {
        factor
            .solve_lower_multi(&aty)
            .and_then(|z| factor.solve_upper_multi(&z))
    })
    .map_err(|e| format!("replayed solves: {e}"))?;
    Ok(())
}

/// Replays the structured answer's reconstruction: the cache lookup, then
/// conjugate gradient on the cached operator from the request's own noisy
/// observations (CG's iteration count depends on them), counting applies.
pub fn structured(
    rec: &Recorder,
    engine: &Engine,
    workload: &dyn StructuredWorkload,
    x: &[f64],
    noise_seed: u64,
) -> Result<(), String> {
    let fp = structured_fingerprint(&workload.descriptor());
    let plan = rec.time(Stage::ReplayLookup, || engine.cached_plan(fp));
    let Some(strategy) = plan.as_deref().and_then(SelectionPlan::as_structured) else {
        return Ok(());
    };
    let op = strategy.operator().clone();
    let backend = GaussianBackend;
    let sens = backend.sensitivity_from_norms(strategy.l2_sensitivity(), strategy.l1_sensitivity());
    let scale = backend.noise_scale(engine.privacy(), sens);
    let mut y = mm_linalg::LinearOperator::apply(&*op, x);
    let noise = backend.sample(&mut StdRng::seed_from_u64(noise_seed), scale, y.len());
    for (yi, ni) in y.iter_mut().zip(noise) {
        *yi += ni;
    }
    let op: Arc<dyn mm_linalg::LinearOperator> = op;
    let timed = |f: &dyn Fn() -> Vec<f64>| {
        let start = rec.now();
        let out = f();
        rec.record(Stage::ReplayApply, start, rec.now(), 1);
        out
    };
    rec.time(Stage::ReplayCg, || {
        cg_normal_equations(
            |v| timed(&|| op.apply(v)),
            |w| timed(&|| op.apply_transpose(w)),
            &y,
            &CgOptions::default(),
        )
    })
    .map_err(|e| format!("replayed CG: {e}"))?;
    Ok(())
}
