//! The one block-coordinate-descent engine behind every fit.
//!
//! The paper's method is a single BCD on one objective (see the crate
//! docs). The dense, CSR and anchor fits differ only in how the per-view
//! graphs are stored, so each storage implements [`ViewSet`] — a
//! persistent fused operator, its per-view traces and a spectral bound —
//! and this module owns everything else, once:
//!
//! * input validation and the `c = 1` short-circuit;
//! * the warm start: an embedding eigensolve of the uniform operator,
//!   then one re-weighting round and a second solve of the re-weighted
//!   operator — each one [`spectral_embedding`] (scalar Lanczos) on the
//!   view set's operator, whatever the storage or size;
//! * the sweep: w-step, F-step (one [`gpi_stiefel_op_ws`] run on the
//!   view set's operator, shifted by its bound), R-step (Procrustes) and
//!   Y-step, plus the reported objective;
//! * history, convergence, telemetry and the two-stage K-means ablation.
//!
//! With [`Weighting::Auto`] the reported objective is the parameter-free
//! functional `Σ_v √tr(Fᵀ L⁽ᵛ⁾ F) + λ‖FR − Y_eff‖²` (the auto-weights are
//! its MM surrogate); with `Uniform`/`Fixed` it is the plainly weighted
//! sum. In the paper's configuration ([`Discretization::Rotation`]) it is
//! monotonically non-increasing — asserted in tests and plotted by bench
//! figure F1.

use crate::config::{Discretization, UmscConfig, Weighting};
use crate::error::UmscError;
use crate::gpi::gpi_stiefel_op_ws;
use crate::indicator::{
    discretize_rows, discretize_rows_into, discretize_scaled_inplace, labels_to_indicator,
    labels_to_indicator_into, scaled_indicator_into,
};
use crate::pipeline::spectral_embedding;
use crate::solver::{init_rotation, IterationStats, SolverState, StepStats, UmscResult};
use crate::workspace::{SolverWorkspace, TraceScratch};
use crate::Result;
use umsc_kmeans::{kmeans, KMeansConfig};
use umsc_linalg::{procrustes_into, LinOp, Matrix};

/// One representation of the per-view graphs: everything the engine
/// needs that depends on how the views are stored. The set is itself the
/// fused operator at its current weights: `Σ_v w_v L⁽ᵛ⁾` plus at most a
/// multiple of `I`, which moves neither its eigenvectors nor the F-step's
/// minimizer over the Stiefel manifold. Every embedding eigensolve of a
/// fit is [`spectral_embedding`] on it.
pub(crate) trait ViewSet: LinOp {
    /// Solver label of the sweep and fit telemetry records.
    const SOLVER: &'static str;

    /// Number of views.
    fn num_views(&self) -> usize;

    /// `tr(Fᵀ L⁽ᵛ⁾ F)` for every view, in view order, into `traces`.
    fn traces_into(&self, f: &Matrix, scratch: &mut TraceScratch, traces: &mut Vec<f64>);

    /// Moves the fused operator to new view weights in place.
    fn set_weights(&mut self, weights: &[f64]);

    /// The GPI shift `η ≥ λ_max` of the operator at its current weights.
    fn gpi_shift(&self) -> f64;
}

/// Points the fused operator at uniform weights (the first solve).
fn set_uniform<V: ViewSet>(views: &mut V) {
    let v = views.num_views();
    views.set_weights(&vec![1.0 / v as f64; v]);
}

/// [`ViewSet::traces_into`] through short-lived scratch, so nothing
/// sized here stays alive across an eigensolve.
fn traces<V: ViewSet>(views: &V, f: &Matrix) -> Vec<f64> {
    let mut traces = Vec::with_capacity(views.num_views());
    views.traces_into(f, &mut TraceScratch::new(), &mut traces);
    traces
}

/// Checks what every fit requires and returns `n`. `views` holds each
/// view's matrix shape — `n × n` Laplacians when `square`, otherwise
/// `n × m_v` factors — whether all its stored entries are finite (a NaN
/// or infinite entry would turn into a NaN trace, which the w-step would
/// read as the best view) and whether it is symmetric (the eigensolves
/// and the GPI shift assume a symmetric operator; factors pass `true`).
pub(crate) fn validate(
    cfg: &UmscConfig,
    views: impl Iterator<Item = ((usize, usize), bool, bool)>,
    square: bool,
) -> Result<usize> {
    let invalid = |msg: String| Err(UmscError::InvalidInput(msg));
    let views: Vec<((usize, usize), bool, bool)> = views.collect();
    let Some(&((n, _), _, _)) = views.first() else {
        return invalid("no views given".into());
    };
    for (v, &((rows, cols), finite, symmetric)) in views.iter().enumerate() {
        if rows != n || (square && cols != n) {
            return invalid(format!("view {v} has shape {rows}x{cols}, expected {n} rows"));
        }
        if !finite {
            return invalid(format!("view {v} has a non-finite entry"));
        }
        if !symmetric {
            return invalid(format!("view {v} is not symmetric"));
        }
    }
    if !cfg.lambda.is_finite() || cfg.lambda < 0.0 {
        return invalid(format!("lambda must be finite and non-negative, got {}", cfg.lambda));
    }
    if cfg.max_iter == 0 {
        return invalid("max_iter is zero".into());
    }
    if cfg.gpi_max_iter == 0 {
        return invalid("gpi_max_iter is zero".into());
    }
    let c = cfg.num_clusters;
    if c == 0 {
        return invalid("num_clusters is zero".into());
    }
    if c > n {
        return invalid(format!("num_clusters {c} exceeds n = {n}"));
    }
    if let Weighting::Fixed(w) = &cfg.weighting {
        if w.len() != views.len() {
            return invalid(format!("{} fixed weights for {} views", w.len(), views.len()));
        }
        if w.iter().any(|&x| !x.is_finite() || x < 0.0) {
            return invalid("fixed weights must be finite and non-negative".into());
        }
        if w.iter().sum::<f64>() <= 0.0 {
            return invalid("fixed weights must not all be zero".into());
        }
    }
    Ok(n)
}

/// Fits validated views (see [`validate`], which returned `n`).
pub(crate) fn fit<V: ViewSet>(cfg: &UmscConfig, views: &mut V, n: usize) -> Result<UmscResult> {
    if cfg.num_clusters == 1 {
        set_uniform(views);
        return Ok(UmscResult {
            labels: vec![0; n],
            embedding: spectral_embedding(views, 1, cfg.seed)?,
            rotation: Matrix::identity(1),
            indicator: Matrix::filled(n, 1, 1.0),
            view_weights: normalized(&vec![1.0; views.num_views()]),
            history: Vec::new(),
            converged: true,
        });
    }
    match cfg.discretization {
        Discretization::KMeans { restarts } => fit_two_stage(cfg, views, restarts),
        Discretization::Rotation | Discretization::ScaledRotation => fit_one_stage(cfg, views),
    }
}

/// One-stage BCD (the paper's method).
fn fit_one_stage<V: ViewSet>(cfg: &UmscConfig, views: &mut V) -> Result<UmscResult> {
    let obs = umsc_obs::enabled();
    let fit_start = obs.then(std::time::Instant::now);
    let mut st = init_state(cfg, views)?;
    let mut ws = SolverWorkspace::new();
    let mut history: Vec<IterationStats> = Vec::with_capacity(cfg.max_iter);
    let mut converged = false;

    for _iter in 0..cfg.max_iter {
        let sweep_start = obs.then(std::time::Instant::now);
        let stats = sweep(cfg, views, &mut st, &mut ws)?;
        let prev = history.last().map(|s| s.objective);
        history.push(IterationStats {
            objective: stats.objective,
            embedding_term: stats.embedding_term,
            rotation_term: stats.rotation_term,
            weights: normalized(&st.weights),
        });
        if obs {
            let entry = history.last().expect("just pushed");
            emit_sweep(V::SOLVER, history.len() - 1, &stats, prev, &entry.weights, elapsed_ns(sweep_start));
        }
        if prev.is_some_and(|p| settled(cfg, p, stats.objective)) {
            converged = true;
            break;
        }
    }
    if umsc_obs::enabled() {
        umsc_obs::emit_fit(V::SOLVER, history.len(), converged, elapsed_ns(fit_start));
        umsc_obs::emit_aggregates(V::SOLVER);
    }

    let SolverState { f, r, y, labels, weights } = st;
    Ok(UmscResult {
        labels,
        embedding: f,
        rotation: r,
        indicator: y,
        view_weights: normalized(&weights),
        history,
        converged,
    })
}

/// The BCD state after the warm start.
///
/// `F` starts at the relaxed (λ→0) solution after one re-weighting
/// round: the spectral embedding of the re-weighted operator. Starting
/// the joint loop from the unweighted mean Laplacian instead lets noisy
/// views pollute the first indicator, and the alignment feedback then
/// locks the bad start in. The rotation is initialized by the Yu–Shi
/// scheme (raw argmax on F degenerates because the first Laplacian
/// eigenvector is near-constant).
pub(crate) fn init_state<V: ViewSet>(cfg: &UmscConfig, views: &mut V) -> Result<SolverState> {
    let f = warm_start(cfg, views)?;
    let r = init_rotation(&f)?;
    let labels = discretize_rows(&f.matmul(&r));
    let y = labels_to_indicator(&labels, cfg.num_clusters);
    let v = views.num_views();
    Ok(SolverState { f, r, y, labels, weights: vec![1.0 / v as f64; v] })
}

/// Solves the relaxed (λ→0) problem: the spectral embedding of the
/// uniform operator, then one re-weighting round and the embedding of the
/// re-weighted operator. Further re-weighting is left to the sweeps,
/// whose w-step uses the same closed form.
fn warm_start<V: ViewSet>(cfg: &UmscConfig, views: &mut V) -> Result<Matrix> {
    let _span = umsc_obs::span!("solve.warm_start");
    set_uniform(views);
    let mut f = spectral_embedding(views, cfg.num_clusters, cfg.seed)?;
    reweight_solve(cfg, views, &mut f)?;
    Ok(f)
}

/// One re-weighting round: weights from the traces of `f`, the operator
/// moved to them, and a new embedding solve. Returns the weights.
fn reweight_solve<V: ViewSet>(cfg: &UmscConfig, views: &mut V, f: &mut Matrix) -> Result<Vec<f64>> {
    let mut weights = Vec::with_capacity(views.num_views());
    weights_from_traces_into(&cfg.weighting, &traces(views, f), &mut weights);
    views.set_weights(&weights);
    *f = spectral_embedding(views, cfg.num_clusters, cfg.seed)?;
    Ok(weights)
}

/// Performs one full BCD sweep (w-, F-, R-, Y-step) in place.
///
/// All intermediates live in `ws`; after the first call (which sizes the
/// buffers) the sweep performs **zero heap allocations** on every view
/// set — asserted by the counting-allocator tests in
/// `tests/alloc_free.rs`.
pub(crate) fn sweep<V: ViewSet>(
    cfg: &UmscConfig,
    views: &mut V,
    st: &mut SolverState,
    ws: &mut SolverWorkspace,
) -> Result<StepStats> {
    let (n, c) = st.f.shape();
    let scaled = cfg.discretization == Discretization::ScaledRotation;
    // The alignment term ‖FR − Y‖² grows with n while the Rayleigh term
    // tr(FᵀLF) is O(c), so λ is normalized by c/(10n): dimensionless
    // across dataset sizes, with λ = 1 sitting inside the stable plateau
    // of the sensitivity curve (figure F2) rather than at its edge — the
    // alignment term refines the warm-started embedding instead of
    // overruling the graphs.
    let lambda_eff = cfg.lambda * c as f64 / (10.0 * n as f64);
    ws.ensure(n, c);

    // --- w-step: closed-form weights from the current traces. ---
    {
        let _span = umsc_obs::span!("solve.w_step");
        views.traces_into(&st.f, &mut ws.trace, &mut ws.traces);
        weights_from_traces_into(&cfg.weighting, &ws.traces, &mut st.weights);
    }

    // --- F-step: min tr(Fᵀ L̄ F) − 2λ tr(Fᵀ Y_eff Rᵀ) over the Stiefel
    // manifold, with L̄ the fused operator at the new weights. ---
    {
        let _span = umsc_obs::span!("solve.f_step");
        effective_indicator(&st.y, scaled, &mut ws.sizes, &mut ws.y_eff);
        ws.y_eff.matmul_transpose_b_into(&st.r, &mut ws.b);
        ws.b.scale_mut(lambda_eff);
        views.set_weights(&st.weights);
        let eta = views.gpi_shift();
        gpi_stiefel_op_ws(views, eta, &ws.b, &mut st.f, cfg.gpi_max_iter, 1e-10, &mut ws.gpi)?;
    }

    // --- R-step --- Procrustes on the row-normalized embedding F̃
    // (Yu–Shi): each point votes equally in the alignment, so low-norm
    // boundary rows cannot skew the rotation.
    {
        let _span = umsc_obs::span!("solve.r_step");
        // `ws.y_eff` still holds the F-step's effective indicator: Y has
        // not moved since.
        ws.f_tilde.copy_from(&st.f);
        for i in 0..n {
            umsc_linalg::ops::normalize(ws.f_tilde.row_mut(i));
        }
        ws.f_tilde.matmul_transpose_a_into(&ws.y_eff, &mut ws.cc);
        procrustes_into(&ws.cc, &mut ws.svd_r, &mut st.r)?;
        umsc_obs::counter!("procrustes.updates", 1);
    }

    // --- Y-step --- For the plain indicator, row-wise argmax is the
    // exact minimizer. For the scaled indicator the column scales couple
    // the rows, so the exact block minimizer is the size-aware coordinate
    // descent (crucial on unbalanced data).
    {
        let _span = umsc_obs::span!("solve.y_step");
        st.f.matmul_into(&st.r, &mut ws.fr);
        discretize_rows_into(&ws.fr, &mut st.labels, &mut ws.counts);
        if scaled {
            discretize_scaled_inplace(&ws.fr, &mut st.labels, 30, &mut ws.dsc_sizes, &mut ws.dsc_sums);
        }
        labels_to_indicator_into(&st.labels, &mut st.y);
        umsc_obs::counter!("indicator.updates", 1);
    }

    // --- bookkeeping on the reported objective ---
    views.traces_into(&st.f, &mut ws.trace, &mut ws.traces);
    let emb = embedding_objective(&cfg.weighting, &ws.traces);
    effective_indicator(&st.y, scaled, &mut ws.sizes, &mut ws.y_eff);
    let rot = lambda_eff * frobenius_distance(&ws.fr, &ws.y_eff).powi(2);
    Ok(StepStats { objective: emb + rot, embedding_term: emb, rotation_term: rot })
}

/// Two-stage ablation: auto-weighted embedding, then K-means.
fn fit_two_stage<V: ViewSet>(cfg: &UmscConfig, views: &mut V, restarts: usize) -> Result<UmscResult> {
    let c = cfg.num_clusters;
    set_uniform(views);
    let mut f = spectral_embedding(views, c, cfg.seed)?;
    let mut history: Vec<IterationStats> = Vec::with_capacity(cfg.max_iter);
    let mut converged = false;
    let mut weights = vec![1.0 / views.num_views() as f64; views.num_views()];

    for _iter in 0..cfg.max_iter {
        weights = reweight_solve(cfg, views, &mut f)?;
        let emb = embedding_objective(&cfg.weighting, &traces(views, &f));
        let prev = history.last().map(|s| s.objective);
        history.push(IterationStats {
            objective: emb,
            embedding_term: emb,
            rotation_term: 0.0,
            weights: normalized(&weights),
        });
        // Fixed weights never change: one embedding solve is exact.
        if prev.is_some_and(|p| settled(cfg, p, emb)) || cfg.weighting != Weighting::Auto {
            converged = true;
            break;
        }
    }

    // Stage two: K-means on the (row-normalized) embedding.
    let mut rows = f.clone();
    for i in 0..rows.rows() {
        umsc_linalg::ops::normalize(rows.row_mut(i));
    }
    let km = kmeans(&rows, &KMeansConfig::new(c).with_seed(cfg.seed).with_restarts(restarts.max(1)));
    let indicator = labels_to_indicator(&km.labels, c);
    Ok(UmscResult {
        labels: km.labels,
        embedding: f,
        rotation: Matrix::identity(c),
        indicator,
        view_weights: normalized(&weights),
        history,
        converged,
    })
}

/// Nanoseconds since `start`, or 0 when timing was skipped (tracing off,
/// so the disabled path stays syscall-free).
fn elapsed_ns(start: Option<std::time::Instant>) -> u64 {
    start.map_or(0, |t0| u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX))
}

/// Emits one `sweep` record: objective decomposition, relative objective
/// change vs the previous sweep, normalized view weights, sweep wall time,
/// and the allocator high-water mark (zero unless the counting allocator
/// is installed and armed).
fn emit_sweep(solver: &'static str, iter: usize, stats: &StepStats, prev: Option<f64>, weights: &[f64], elapsed_ns: u64) {
    let residual = prev.map_or(f64::NAN, |p| (p - stats.objective).abs() / (1.0 + p.abs()));
    umsc_obs::emit_sweep(&umsc_obs::SweepRecord {
        solver,
        iter,
        objective: stats.objective,
        embedding_term: stats.embedding_term,
        rotation_term: stats.rotation_term,
        residual,
        weights,
        elapsed_ns,
        peak_live_bytes: umsc_rt::alloc_track::current().peak_bytes,
    });
}

/// The outer loops' stopping rule: relative objective change within `tol`.
fn settled(cfg: &UmscConfig, prev: f64, obj: f64) -> bool {
    (prev - obj).abs() <= cfg.tol * (1.0 + prev.abs())
}

/// Closed-form view weights from the per-view embedding traces.
fn weights_from_traces_into(weighting: &Weighting, traces: &[f64], weights: &mut Vec<f64>) {
    weights.clear();
    match weighting {
        Weighting::Auto => weights.extend(traces.iter().map(|&t| 1.0 / (2.0 * t.max(1e-10).sqrt()))),
        Weighting::Uniform => weights.resize(traces.len(), 1.0 / traces.len() as f64),
        Weighting::Fixed(w) => {
            let s: f64 = w.iter().sum();
            weights.extend(w.iter().map(|&x| x / s));
        }
    }
}

/// The embedding term of the reported objective (see the module docs).
fn embedding_objective(weighting: &Weighting, traces: &[f64]) -> f64 {
    match weighting {
        Weighting::Auto => traces.iter().map(|&t| t.max(0.0).sqrt()).sum(),
        Weighting::Uniform => traces.iter().sum::<f64>() / traces.len() as f64,
        Weighting::Fixed(w) => {
            let s: f64 = w.iter().sum();
            w.iter().zip(traces.iter()).map(|(&wi, &t)| wi / s * t).sum()
        }
    }
}

/// Weights rescaled to sum 1 (uniform when they sum to zero).
pub(crate) fn normalized(w: &[f64]) -> Vec<f64> {
    let s: f64 = w.iter().sum();
    if s > 0.0 {
        w.iter().map(|&x| x / s).collect()
    } else {
        vec![1.0 / w.len().max(1) as f64; w.len()]
    }
}

/// Writes the effective indicator — `Y` itself, or the scaled
/// `Y(YᵀY)^{-1/2}` for the scaled-rotation objective — into `out`.
fn effective_indicator(y: &Matrix, scaled: bool, sizes: &mut Vec<f64>, out: &mut Matrix) {
    if scaled {
        scaled_indicator_into(y, sizes, out);
    } else {
        out.copy_from(y);
    }
}

/// `‖A − B‖_F` without materializing the difference. Accumulates the
/// squared residual in the same row-major order (and with the same
/// `a + (-1.0)·b` update) as `(&a - &b).frobenius_norm()`, so the result
/// is bitwise identical.
fn frobenius_distance(a: &Matrix, b: &Matrix) -> f64 {
    debug_assert_eq!(a.shape(), b.shape());
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| {
            // Keep the Sub impl's `x + (-1.0)·y` update verbatim.
            #[allow(clippy::neg_multiply)]
            let d = x + (-1.0) * y;
            d * d
        })
        .sum::<f64>()
        .sqrt()
}
