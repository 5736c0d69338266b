//! Large-scale unified multi-view spectral clustering on **anchor graphs**.
//!
//! The dense solver ([`crate::Umsc`]) costs O(n²)–O(n³) per view. This
//! module implements the scalable variant the one-stage literature reaches
//! for on large `n`: every view's graph is the anchor (bipartite) graph of
//! [`umsc_graph::anchor`], whose normalized Laplacian is `I − B_v·B_vᵀ`
//! with a thin factor `B_v ∈ R^{n×m}` (`m ≪ n` anchors). Each point links
//! to `k` anchors, so `B_v` is stored as a [`SparseFactor`]: `n × m` CSR
//! with at most `k` nonzeros per row plus its transpose, O(n·k) memory
//! instead of the n·m of a dense factor. The shared BCD engine runs on an
//! anchor view set that works matrix-free:
//!
//! * `tr(Fᵀ L_v F) = c − ‖B_vᵀF‖²_F` — O(nnz·c + m·c);
//! * one persistent shifted fused operator `σI − Σ_v w_v B_v B_vᵀ`
//!   (`σ = Σ_v w_v + ε`, see [`anchor_fused_operator`]), O(nnz) per
//!   column, moved to new weights in place — the embedding eigensolves
//!   and the F-step both run on it;
//! * GPI F-step — the engine's [`crate::gpi_stiefel_op_ws`] with the shift
//!   `η = 2·Σ_v w_v + ε` (each normalized Laplacian is bounded by `2I`),
//!   so each iteration forms `M = s·F + Σ_v w_v B_v(B_vᵀF) + λ·Y·Rᵀ` with
//!   `s = η − σ = Σ_v w_v`, then a thin polar decomposition; at most 20
//!   iterations, stopping once the GPI objective changes by less than
//!   `1e-10` relative;
//! * R/Y steps — the engine's (they only touch `n × c`).
//!
//! Total per-sweep cost O(nnz·c + m·c²) = O(n·k·c) plus the `n × c` polar
//! steps: linear in the number of points and independent of `m` but for
//! the `m × c` projections. Every sparse product is bitwise-identical to
//! the dense one on the densified factor, so [`AnchorUmsc::fit_factors`]
//! (dense factors, compacted once) and [`AnchorUmsc::fit_sparse_factors`]
//! agree bit for bit.

use crate::config::{UmscConfig, Weighting};
use crate::engine::{self, ViewSet};
use crate::error::UmscError;
use crate::solver::{SolverState, StepStats, UmscResult};
use crate::workspace::{SolverWorkspace, TraceScratch};
use crate::Result;
use umsc_data::MultiViewDataset;
use umsc_linalg::Matrix;
use umsc_op::{DiagShift, LinOp, LowRankAnchor, SparseFactor, WeightedSum};

/// Iteration cap of the anchor F-step's GPI.
const ANCHOR_GPI_ITERS: usize = 20;

/// The shifted fused operator `σI − Σ_v w_v B_v B_vᵀ` (`σ = Σ_v w_v + ε`)
/// over borrowed anchor factors: `Σ_v w_v L_v + εI` with
/// `L_v = I − B_v B_vᵀ`, so its smallest eigenvectors are the fused
/// Laplacian's. The anchor path's stand-in for
/// [`crate::sparse_fused_operator`]: reuse one instance across sweeps of
/// [`AnchorUmsc::one_step_solve`], which moves it to each sweep's weights
/// in place.
pub fn anchor_fused_operator<'a>(
    factors: &'a [SparseFactor],
    weights: &[f64],
) -> DiagShift<WeightedSum<LowRankAnchor<'a>>> {
    let ops = factors.iter().map(LowRankAnchor::sparse).collect();
    DiagShift::new(anchor_shift(weights), WeightedSum::with_weights(ops, weights))
}

/// The shift `σ = Σ_v w_v + ε` of [`anchor_fused_operator`].
fn anchor_shift(weights: &[f64]) -> f64 {
    weights.iter().sum::<f64>() + 1e-9
}

/// Configuration of the anchor-based solver.
#[derive(Debug, Clone)]
pub struct AnchorUmscConfig {
    /// Number of clusters `c`.
    pub num_clusters: usize,
    /// Number of anchors `m` per view (clamped to `n`).
    pub anchors: usize,
    /// Nearest anchors each point connects to.
    pub anchor_neighbors: usize,
    /// Trade-off λ (same dimensionless semantics as the dense solver).
    pub lambda: f64,
    /// View weighting (Auto or Uniform; Fixed also accepted).
    pub weighting: Weighting,
    /// Outer iteration cap.
    pub max_iter: usize,
    /// Relative stopping tolerance.
    pub tol: f64,
    /// Seed for anchor selection and Lanczos.
    pub seed: u64,
}

impl AnchorUmscConfig {
    /// Defaults: `m = 100` anchors, `k = 5` anchor neighbours, λ = 1.
    pub fn new(num_clusters: usize) -> Self {
        AnchorUmscConfig {
            num_clusters,
            anchors: 100,
            anchor_neighbors: 5,
            lambda: 1.0,
            weighting: Weighting::Auto,
            max_iter: 50,
            tol: 1e-6,
            seed: 0,
        }
    }

    /// Sets the anchor count.
    pub fn with_anchors(mut self, m: usize) -> Self {
        self.anchors = m;
        self
    }

    /// Sets λ.
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The anchor-based unified model.
///
/// ```
/// use umsc_core::{AnchorUmsc, AnchorUmscConfig};
/// use umsc_data::shapes::two_moons_multiview;
///
/// let data = two_moons_multiview(150, 0.05, 42);
/// let cfg = AnchorUmscConfig::new(2).with_anchors(60);
/// let result = AnchorUmsc::new(cfg).fit(&data).unwrap();
/// assert_eq!(result.labels.len(), 150);
/// ```
#[derive(Debug, Clone)]
pub struct AnchorUmsc {
    config: AnchorUmscConfig,
}

impl AnchorUmsc {
    /// Creates the model.
    pub fn new(config: AnchorUmscConfig) -> Self {
        AnchorUmsc { config }
    }

    /// Fits on a multi-view dataset: builds per-view sparse anchor
    /// factors, then runs the matrix-free one-stage loop.
    pub fn fit(&self, data: &MultiViewDataset) -> Result<UmscResult> {
        self.fit_sparse_factors(&self.anchor_views(data)?.factors)
    }

    /// Like [`AnchorUmsc::fit`] but also returns an [`AnchorModel`] that
    /// can assign **out-of-sample** points to the learned clusters via the
    /// Nyström extension (see `AnchorModel::assign`).
    pub fn fit_model(&self, data: &MultiViewDataset) -> Result<AnchorModel> {
        let AnchorViewData { factors, anchors, col_inv_sqrt } = self.anchor_views(data)?;
        let result = self.fit_sparse_factors(&factors)?;

        // Nyström data: per-view projections P_v = B_vᵀF and the Ritz
        // values ρ_j = f_jᵀ(Σ_v w_v B_v P_v)_j of the fused operator on
        // the embedding columns.
        let f = &result.embedding;
        let (n, c) = f.shape();
        let mut fused = Matrix::zeros(n, c);
        let mut bp = Matrix::zeros(n, c);
        let mut projections = Vec::with_capacity(factors.len());
        for (b, &w) in factors.iter().zip(&result.view_weights) {
            let mut p = Matrix::zeros(b.cols(), c);
            b.mul_transpose_into(f.as_slice(), c, p.as_mut_slice());
            b.mul_into(p.as_slice(), c, bp.as_mut_slice());
            fused.axpy(w, &bp);
            projections.push(p);
        }
        let ritz = (0..c).map(|j| (0..n).map(|i| f[(i, j)] * fused[(i, j)]).sum()).collect();
        let assigner = AnchorAssigner {
            anchors,
            col_inv_sqrt,
            anchor_neighbors: self.config.anchor_neighbors,
            weights: result.view_weights.clone(),
            projections,
            ritz,
            rotation: result.rotation.clone(),
        };
        Ok(AnchorModel { result, assigner })
    }

    /// Per-view anchors, sparse normalized factors and column scales.
    fn anchor_views(&self, data: &MultiViewDataset) -> Result<AnchorViewData> {
        data.validate().map_err(UmscError::InvalidInput)?;
        let cfg = &self.config;
        let m = cfg.anchors.min(data.n()).max(1);
        let k = cfg.anchor_neighbors.min(m).max(1);
        let nv = data.num_views();
        let mut out = AnchorViewData {
            factors: Vec::with_capacity(nv),
            anchors: Vec::with_capacity(nv),
            col_inv_sqrt: Vec::with_capacity(nv),
        };
        for (v, x) in data.views.iter().enumerate() {
            let anc = umsc_graph::select_anchors(x, m, cfg.seed ^ ((v as u64) << 32));
            let z = umsc_graph::anchor_weights_sparse(x, &anc, k);
            let (b, inv) = umsc_graph::normalized_factor_sparse(&z);
            out.factors.push(b);
            out.anchors.push(anc);
            out.col_inv_sqrt.push(inv);
        }
        Ok(out)
    }

    /// Fits from precomputed dense per-view normalized anchor factors `B_v`
    /// (each `n × m_v`; the affinity is `B_v·B_vᵀ`). Each factor is
    /// compacted once into a [`SparseFactor`]; the fit is then
    /// [`AnchorUmsc::fit_sparse_factors`], bit for bit.
    pub fn fit_factors(&self, factors: &[Matrix]) -> Result<UmscResult> {
        let sparse: Vec<SparseFactor> =
            factors.iter().map(|b| SparseFactor::from_dense(b.rows(), b.cols(), b.as_slice())).collect();
        self.fit_sparse_factors(&sparse)
    }

    /// Fits from precomputed sparse per-view normalized anchor factors
    /// `B_v` (each `n × m_v`; the affinity is `B_v·B_vᵀ`).
    pub fn fit_sparse_factors(&self, factors: &[SparseFactor]) -> Result<UmscResult> {
        let cfg = self.solver_config();
        let n = engine::validate(&cfg, factors.iter().map(|b| (b.shape(), b.is_finite(), true)), false)?;
        let uniform = vec![1.0 / factors.len() as f64; factors.len()];
        let mut fused = anchor_fused_operator(factors, &uniform);
        engine::fit(&cfg, &mut AnchorViews { factors, fused: &mut fused }, n)
    }

    /// One block-coordinate sweep on precomputed anchor factors, advancing
    /// `st` in place: the anchor analogue of
    /// [`crate::Umsc::one_step_solve`]. `fused` must wrap `factors`
    /// (build it with [`anchor_fused_operator`]); its weights are
    /// overwritten by the sweep. Allocation-free once `ws` and `fused`
    /// are warm.
    pub fn one_step_solve(
        &self,
        factors: &[SparseFactor],
        fused: &mut DiagShift<WeightedSum<LowRankAnchor<'_>>>,
        st: &mut SolverState,
        ws: &mut SolverWorkspace,
    ) -> Result<StepStats> {
        engine::sweep(&self.solver_config(), &mut AnchorViews { factors, fused }, st, ws)
    }

    /// The engine's view of this configuration.
    fn solver_config(&self) -> UmscConfig {
        let cfg = &self.config;
        UmscConfig {
            lambda: cfg.lambda,
            weighting: cfg.weighting.clone(),
            max_iter: cfg.max_iter,
            tol: cfg.tol,
            gpi_max_iter: ANCHOR_GPI_ITERS,
            seed: cfg.seed,
            ..UmscConfig::new(cfg.num_clusters)
        }
    }
}

/// Per-view anchor data built from the features, in view order: the fit
/// needs the factors, the Nyström assigner also the anchors and scales.
struct AnchorViewData {
    factors: Vec<SparseFactor>,
    anchors: Vec<Matrix>,
    col_inv_sqrt: Vec<Vec<f64>>,
}

/// The anchor view set: a persistent shifted fused operator
/// `σI − Σ_v w_v B_v B_vᵀ` (see [`anchor_fused_operator`]) over the views.
struct AnchorViews<'a, 'b, 'c> {
    factors: &'a [SparseFactor],
    fused: &'b mut DiagShift<WeightedSum<LowRankAnchor<'c>>>,
}

impl ViewSet for AnchorViews<'_, '_, '_> {
    const SOLVER: &'static str = "anchor";

    fn num_views(&self) -> usize {
        self.factors.len()
    }

    fn traces_into(&self, f: &Matrix, scratch: &mut TraceScratch, traces: &mut Vec<f64>) {
        let c = f.cols();
        size_projections(self.factors, c, &mut scratch.proj);
        traces.clear();
        for (b, btf) in self.factors.iter().zip(scratch.proj.iter_mut()) {
            b.mul_transpose_into(f.as_slice(), c, btf.as_mut_slice());
            traces.push((c as f64 - btf.frobenius_norm().powi(2)).max(0.0));
        }
    }

    fn set_weights(&mut self, weights: &[f64]) {
        self.fused.set_sigma(anchor_shift(weights));
        self.fused.inner_mut().set_weights(weights);
    }

    fn operator(&self) -> &dyn LinOp {
        &*self.fused
    }

    /// The operator is `Σ_v w_v L_v + εI` and each anchor Laplacian
    /// satisfies `L_v ⪯ 2I`, so `η = 2·Σ_v w_v + ε` bounds its `λ_max`.
    fn gpi_shift(&self, weights: &[f64]) -> f64 {
        2.0 * weights.iter().sum::<f64>() + 1e-9
    }
}

/// Sizes one `m_v × c` projection buffer per factor.
fn size_projections(factors: &[SparseFactor], c: usize, proj: &mut Vec<Matrix>) {
    proj.resize_with(factors.len(), || Matrix::zeros(0, 0));
    for (b, btf) in factors.iter().zip(proj.iter_mut()) {
        TraceScratch::fit(btf, b.cols(), c);
    }
}

/// A fitted anchor model able to assign out-of-sample points.
///
/// The Nyström extension of the fused anchor operator: a new point's
/// embedding is
///
/// ```text
/// f_new ≈ ( Σ_v w_v · b_newᵛ · (B_vᵀF) ) · diag(1/ρ_j)
/// ```
///
/// where `b_newᵛ` is the point's normalized anchor row in view `v`
/// (reusing the training column scales) and `ρ_j` are the Ritz values of
/// the fused operator on the learned embedding columns. The label is the
/// argmax of `f_new · R` — the same discretization the training points got.
#[derive(Debug, Clone)]
pub struct AnchorModel {
    /// The training-time fit (labels, embedding, rotation, weights, trace).
    pub result: UmscResult,
    /// Everything needed to assign out-of-sample points (persistable via
    /// [`AnchorAssigner::save`] / [`AnchorAssigner::load`]).
    pub assigner: AnchorAssigner,
}

impl AnchorModel {
    /// Assigns each row of the given per-view feature matrices (one matrix
    /// per view, same row count) to a learned cluster. Delegates to the
    /// embedded [`AnchorAssigner`].
    pub fn assign(&self, views: &[Matrix]) -> Result<Vec<usize>> {
        self.assigner.assign(views)
    }
}

/// The assignment-relevant slice of a fitted anchor model: per-view
/// anchors and normalization, learned weights, Nyström projections, Ritz
/// values and the rotation. Small (independent of `n`), persistable, and
/// sufficient to label new points forever after.
#[derive(Debug, Clone, PartialEq)]
pub struct AnchorAssigner {
    anchors: Vec<Matrix>,
    col_inv_sqrt: Vec<Vec<f64>>,
    anchor_neighbors: usize,
    weights: Vec<f64>,
    projections: Vec<Matrix>,
    ritz: Vec<f64>,
    rotation: Matrix,
}

impl AnchorAssigner {
    /// Assigns each row of the given per-view feature matrices (one matrix
    /// per view, same row count) to a learned cluster.
    ///
    /// # Errors
    /// Rejects view-count or feature-dimension mismatches.
    pub fn assign(&self, views: &[Matrix]) -> Result<Vec<usize>> {
        if views.len() != self.anchors.len() {
            return Err(UmscError::InvalidInput(format!(
                "expected {} views, got {}",
                self.anchors.len(),
                views.len()
            )));
        }
        let n_new = views.first().map_or(0, |v| v.rows());
        for (v, x) in views.iter().enumerate() {
            if x.rows() != n_new {
                return Err(UmscError::InvalidInput(format!("view {v} row count mismatch")));
            }
            if x.cols() != self.anchors[v].cols() {
                return Err(UmscError::InvalidInput(format!(
                    "view {v} has {} features, trained with {}",
                    x.cols(),
                    self.anchors[v].cols()
                )));
            }
        }
        let c = self.rotation.rows();
        let mut fused = Matrix::zeros(n_new, c);
        let mut contrib = Matrix::zeros(n_new, c);
        for (v, x) in views.iter().enumerate() {
            let m = self.anchors[v].rows();
            let k = self.anchor_neighbors.min(m).max(1);
            let z = umsc_graph::anchor_weights_sparse(x, &self.anchors[v], k);
            // Training column scales, then project.
            let b = umsc_graph::normalized_factor_with(&z, &self.col_inv_sqrt[v]);
            b.mul_into(self.projections[v].as_slice(), c, contrib.as_mut_slice());
            fused.axpy(self.weights[v], &contrib);
        }
        for i in 0..n_new {
            for (j, val) in fused.row_mut(i).iter_mut().enumerate() {
                let rho = self.ritz[j];
                if rho.abs() > 1e-10 {
                    *val /= rho;
                }
            }
        }
        let fr = fused.matmul(&self.rotation);
        Ok((0..n_new)
            .map(|i| umsc_linalg::ops::argmax(fr.row(i)).unwrap_or(0))
            .collect())
    }

    /// Persists the assigner to `path` in a compact self-describing binary
    /// format (magic header + little-endian f64 blocks). The file is
    /// independent of `n` — only anchors/projections are stored — so a
    /// model trained on millions of points saves in kilobytes.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(MODEL_MAGIC)?;
        write_u64(&mut out, self.anchors.len() as u64)?;
        write_u64(&mut out, self.anchor_neighbors as u64)?;
        write_matrix(&mut out, &self.rotation)?;
        write_vec(&mut out, &self.ritz)?;
        write_vec(&mut out, &self.weights)?;
        for v in 0..self.anchors.len() {
            write_matrix(&mut out, &self.anchors[v])?;
            write_vec(&mut out, &self.col_inv_sqrt[v])?;
            write_matrix(&mut out, &self.projections[v])?;
        }
        out.flush()
    }

    /// Loads an assigner previously written by [`AnchorAssigner::save`].
    pub fn load(path: &std::path::Path) -> std::io::Result<AnchorAssigner> {
        use std::io::Read;
        let mut input = std::io::BufReader::new(std::fs::File::open(path)?);
        let mut magic = [0u8; 8];
        input.read_exact(&mut magic)?;
        if &magic != MODEL_MAGIC {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{}: not an umsc anchor model (bad magic)", path.display()),
            ));
        }
        let nviews = read_u64(&mut input)? as usize;
        if nviews == 0 || nviews > 1024 {
            return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, "implausible view count"));
        }
        let anchor_neighbors = read_u64(&mut input)? as usize;
        let rotation = read_matrix(&mut input)?;
        let ritz = read_vec(&mut input)?;
        let weights = read_vec(&mut input)?;
        let mut anchors = Vec::with_capacity(nviews);
        let mut col_inv_sqrt = Vec::with_capacity(nviews);
        let mut projections = Vec::with_capacity(nviews);
        for _ in 0..nviews {
            anchors.push(read_matrix(&mut input)?);
            col_inv_sqrt.push(read_vec(&mut input)?);
            projections.push(read_matrix(&mut input)?);
        }
        if weights.len() != nviews {
            return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, "weight count mismatch"));
        }
        Ok(AnchorAssigner { anchors, col_inv_sqrt, anchor_neighbors, weights, projections, ritz, rotation })
    }
}

const MODEL_MAGIC: &[u8; 8] = b"UMSCAM01";

fn write_u64(w: &mut impl std::io::Write, v: u64) -> std::io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u64(r: &mut impl std::io::Read) -> std::io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

fn write_vec(w: &mut impl std::io::Write, v: &[f64]) -> std::io::Result<()> {
    write_u64(w, v.len() as u64)?;
    for &x in v {
        w.write_all(&x.to_le_bytes())?;
    }
    Ok(())
}

fn read_vec(r: &mut impl std::io::Read) -> std::io::Result<Vec<f64>> {
    let len = read_u64(r)? as usize;
    if len > (1 << 28) {
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, "implausible vector length"));
    }
    let mut out = Vec::with_capacity(len);
    let mut buf = [0u8; 8];
    for _ in 0..len {
        r.read_exact(&mut buf)?;
        out.push(f64::from_le_bytes(buf));
    }
    Ok(out)
}

fn write_matrix(w: &mut impl std::io::Write, m: &Matrix) -> std::io::Result<()> {
    write_u64(w, m.rows() as u64)?;
    write_u64(w, m.cols() as u64)?;
    for &x in m.as_slice() {
        w.write_all(&x.to_le_bytes())?;
    }
    Ok(())
}

fn read_matrix(r: &mut impl std::io::Read) -> std::io::Result<Matrix> {
    let rows = read_u64(r)? as usize;
    let cols = read_u64(r)? as usize;
    if rows.saturating_mul(cols) > (1 << 28) {
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, "implausible matrix size"));
    }
    let mut data = Vec::with_capacity(rows * cols);
    let mut buf = [0u8; 8];
    for _ in 0..rows * cols {
        r.read_exact(&mut buf)?;
        data.push(f64::from_le_bytes(buf));
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use umsc_data::synth::{MultiViewGmm, ViewSpec};
    use umsc_metrics::clustering_accuracy;

    fn gmm(n_per: usize, seed: u64) -> MultiViewDataset {
        let mut gen = MultiViewGmm::new(
            "anchor",
            3,
            n_per,
            vec![ViewSpec::clean(6), ViewSpec::clean(8)],
        );
        gen.separation = 6.0;
        gen.generate(seed)
    }

    #[test]
    fn recovers_clusters_like_dense() {
        let data = gmm(60, 1);
        let res = AnchorUmsc::new(AnchorUmscConfig::new(3).with_anchors(40)).fit(&data).unwrap();
        let acc = clustering_accuracy(&res.labels, &data.labels);
        assert!(acc > 0.95, "anchor ACC {acc}");
        // Valid structures.
        assert!(res.embedding.matmul_transpose_a(&res.embedding).approx_eq(&Matrix::identity(3), 1e-6));
        assert!((res.view_weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn objective_monotone() {
        let data = gmm(50, 2);
        let res = AnchorUmsc::new(AnchorUmscConfig::new(3).with_anchors(30)).fit(&data).unwrap();
        for w in res.history.windows(2) {
            assert!(
                w[1].objective <= w[0].objective + 1e-5 * (1.0 + w[0].objective.abs()),
                "{} -> {}",
                w[0].objective,
                w[1].objective
            );
        }
    }

    #[test]
    fn dense_sparse_and_model_fits_are_bit_identical() {
        let data = gmm(40, 12);
        let model = AnchorUmsc::new(AnchorUmscConfig::new(3).with_anchors(25));
        let sparse: Vec<SparseFactor> =
            data.views.iter().map(|x| umsc_graph::anchor_view_factor(x, 25, 5, 0).0).collect();
        let dense: Vec<Matrix> =
            sparse.iter().map(|b| Matrix::from_vec(b.rows(), b.cols(), b.to_dense())).collect();
        let a = model.fit_sparse_factors(&sparse).unwrap();
        let b = model.fit_factors(&dense).unwrap();
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.embedding.as_slice(), b.embedding.as_slice());
        assert_eq!(a.view_weights, b.view_weights);

        let fit = model.fit(&data).unwrap();
        let with_model = model.fit_model(&data).unwrap().result;
        assert_eq!(fit.labels, with_model.labels);
        assert_eq!(fit.embedding.as_slice(), with_model.embedding.as_slice());
    }

    #[test]
    fn uniform_operator_keeps_one_zero_eigenvalue_per_separated_cluster() {
        // Well-separated clusters whose anchor graphs fall apart into one
        // component per cluster: the uniform operator `σI − Σ_v B_v B_vᵀ/V`
        // has the eigenvalue ε = 1e-9 with multiplicity c. A single Lanczos
        // run returned 2 of 3 copies at (c, seed) = (3, 35) and 3 of 6 at
        // (6, 33).
        for (c, seed) in [(3, 35), (6, 33)] {
            let mut gen = MultiViewGmm::new("sep", c, 60, vec![ViewSpec::clean(10), ViewSpec::clean(14)]);
            gen.separation = 12.0;
            let data = gen.generate(seed);
            let model = AnchorUmsc::new(AnchorUmscConfig::new(c).with_anchors(60));
            let factors = model.anchor_views(&data).unwrap().factors;
            let uniform = vec![0.5; 2];
            let fused = anchor_fused_operator(&factors, &uniform);
            let (vals, _) = crate::spectral_embedding_with_values(&fused, c, 0).unwrap();
            assert!(vals.iter().all(|&v| (v - 1e-9).abs() < 1e-9), "(c, seed) = ({c}, {seed}): {vals:?}");
            let acc = clustering_accuracy(&model.fit(&data).unwrap().labels, &data.labels);
            assert_eq!(acc, 1.0, "(c, seed) = ({c}, {seed})");
        }
    }

    #[test]
    fn anchors_clamped_to_n() {
        let data = gmm(5, 3); // n = 15 < default anchors
        let res = AnchorUmsc::new(AnchorUmscConfig::new(3)).fit(&data).unwrap();
        assert_eq!(res.labels.len(), 15);
    }

    #[test]
    fn deterministic() {
        let data = gmm(40, 4);
        let a = AnchorUmsc::new(AnchorUmscConfig::new(3).with_anchors(25).with_seed(9)).fit(&data).unwrap();
        let b = AnchorUmsc::new(AnchorUmscConfig::new(3).with_anchors(25).with_seed(9)).fit(&data).unwrap();
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn noisy_view_downweighted() {
        let mut data = gmm(60, 5);
        data.corrupt_view(1, 1.0, 17);
        let res = AnchorUmsc::new(AnchorUmscConfig::new(3).with_anchors(40)).fit(&data).unwrap();
        assert!(res.view_weights[1] < res.view_weights[0], "{:?}", res.view_weights);
        let acc = clustering_accuracy(&res.labels, &data.labels);
        assert!(acc > 0.9, "ACC {acc}");
    }

    #[test]
    fn out_of_sample_assignment_matches_training_clusters() {
        // Split one dataset: fit on a training subset, assign the held-out
        // rows, and check them against held-out truth *through the
        // training permutation* (assigned labels live in training-label
        // space, so compare via matching ACC).
        let full = gmm(60, 7); // 180 points, labels in blocks of 60
        let (mut train_idx, mut test_idx) = (Vec::new(), Vec::new());
        for i in 0..full.n() {
            if i % 3 == 2 {
                test_idx.push(i);
            } else {
                train_idx.push(i);
            }
        }
        let take = |idx: &[usize]| MultiViewDataset {
            name: "split".into(),
            views: full
                .views
                .iter()
                .map(|x| {
                    let mut m = Matrix::zeros(idx.len(), x.cols());
                    for (r, &i) in idx.iter().enumerate() {
                        m.row_mut(r).copy_from_slice(x.row(i));
                    }
                    m
                })
                .collect(),
            labels: idx.iter().map(|&i| full.labels[i]).collect(),
            num_clusters: full.num_clusters,
        };
        let train = take(&train_idx);
        let test = take(&test_idx);

        let model = AnchorUmsc::new(AnchorUmscConfig::new(3).with_anchors(40)).fit_model(&train).unwrap();
        let train_acc = clustering_accuracy(&model.result.labels, &train.labels);
        assert!(train_acc > 0.95, "training ACC {train_acc}");

        let assigned = model.assign(&test.views).unwrap();
        let acc = clustering_accuracy(&assigned, &test.labels);
        assert!(acc > 0.9, "out-of-sample ACC {acc}");
    }

    #[test]
    fn assigner_save_load_round_trip() {
        let train = gmm(30, 11);
        let model = AnchorUmsc::new(AnchorUmscConfig::new(3).with_anchors(25)).fit_model(&train).unwrap();
        let path = std::env::temp_dir().join(format!("umsc_model_{}.bin", std::process::id()));
        model.assigner.save(&path).unwrap();
        let loaded = AnchorAssigner::load(&path).unwrap();
        assert_eq!(loaded, model.assigner);
        // Loaded assigner labels points identically.
        let a = model.assign(&train.views).unwrap();
        let b = loaded.assign(&train.views).unwrap();
        assert_eq!(a, b);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn load_rejects_garbage() {
        let path = std::env::temp_dir().join(format!("umsc_garbage_{}.bin", std::process::id()));
        std::fs::write(&path, b"definitely not a model").unwrap();
        let err = AnchorAssigner::load(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn assign_validates_input() {
        let train = gmm(20, 9);
        let model = AnchorUmsc::new(AnchorUmscConfig::new(3).with_anchors(15)).fit_model(&train).unwrap();
        // Wrong view count.
        assert!(model.assign(&train.views[..1]).is_err());
        // Wrong feature dimension.
        let bad = vec![Matrix::zeros(4, 99), Matrix::zeros(4, 8)];
        assert!(model.assign(&bad).is_err());
        // Empty batch is fine.
        let empty = vec![Matrix::zeros(0, 6), Matrix::zeros(0, 8)];
        assert_eq!(model.assign(&empty).unwrap().len(), 0);
    }
}
