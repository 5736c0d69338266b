//! Large-scale unified multi-view spectral clustering on **anchor graphs**.
//!
//! The dense solver ([`crate::Umsc`]) costs O(n²)–O(n³) per view. This
//! module implements the scalable variant the one-stage literature reaches
//! for on large `n`: every view's graph is the anchor (bipartite) graph of
//! [`umsc_graph::anchor`], whose normalized Laplacian is `I − B_v·B_vᵀ`
//! with a thin factor `B_v ∈ R^{n×m}` (`m ≪ n` anchors). Each point links
//! to `k` anchors, so `B_v` is stored as a [`SparseFactor`]: `n × m` CSR
//! with at most `k` nonzeros per row plus its transpose, O(n·k) memory
//! instead of the n·m of a dense factor. The shared BCD engine runs on one
//! view set, [`AnchorLaplacian`], that works matrix-free:
//!
//! * the operator `Σ_v w_v L_v − (Σ_v w_v)·I = B̂·diag(−w ⊗ 1_m)·B̂ᵀ`
//!   over one stacked factor `B̂ = [B_1 … B_V]`, O(nnz) per column; the
//!   embedding eigensolves and the F-step both run on it;
//! * `tr(Fᵀ L_v F) = c − ‖B_vᵀF‖²_F`, each `B_vᵀF` a row block of one
//!   `B̂ᵀF` — O(nnz·c + m·c);
//! * GPI F-step — the engine's [`crate::gpi_stiefel_op_ws`] with the shift
//!   `η = Σ_v w_v` (each `B_v B_vᵀ` has its spectrum in `[0, 1]`), so each
//!   iteration forms `M = Σ_v w_v·F + Σ_v w_v B_v(B_vᵀF) + λ·Y·Rᵀ`, then a
//!   thin polar decomposition; at most 20 iterations, stopping once the
//!   GPI objective changes by less than `1e-10` relative;
//! * R/Y steps — the engine's (they only touch `n × c`).
//!
//! Total per-sweep cost O(nnz·c + m·c²) = O(n·k·c) plus the `n × c` polar
//! steps: linear in the number of points and independent of `m` but for
//! the `m × c` projections. Every sparse product is bitwise-identical to
//! the dense one on the densified factor, so [`AnchorUmsc::fit_factors`]
//! (dense factors, compacted once) and [`AnchorUmsc::fit_sparse_factors`]
//! agree bit for bit.

use std::cell::RefCell;

use crate::config::{UmscConfig, Weighting};
use crate::engine::{self, ViewSet};
use crate::error::UmscError;
use crate::solver::{SolverState, StepStats, UmscResult};
use crate::workspace::{SolverWorkspace, TraceScratch};
use crate::Result;
use umsc_data::MultiViewDataset;
use umsc_linalg::Matrix;
use umsc_op::{CsrMatrix, LinOp, SparseFactor};
use umsc_rt::par::{threads_for, with_threads, PanelBuf};

/// Iteration cap of the anchor F-step's GPI.
const ANCHOR_GPI_ITERS: usize = 20;

/// The anchor fused operator `Σ_v w_v L_v − (Σ_v w_v)·I = −Σ_v w_v B_v B_vᵀ`
/// (`L_v = I − B_v B_vᵀ`): one stacked factor `B̂ = [B_1 … B_V]` and one
/// scale per stacked column, `−w_v` on view `v`'s block. An apply is
/// `T = B̂ᵀX`, `T ← diag(scale)·T`, `Y = B̂·T`: two CSR row kernels,
/// bitwise-identical at any thread count. Reuse one instance (from
/// [`anchor_fused_operator`]) across [`AnchorUmsc::one_step_solve`]
/// calls; once warm, applies and weight changes never touch the heap.
#[derive(Debug)]
pub struct AnchorLaplacian {
    stacked: SparseFactor,
    /// View `v` owns the stacked columns `offsets[v]..offsets[v + 1]`.
    offsets: Vec<usize>,
    /// `−w_v` on every column of view `v`.
    scale: Vec<f64>,
    /// `Σ_v w_v`, the GPI shift.
    weight_sum: f64,
    /// The `Σ_v m_v × ncols` intermediate `B̂ᵀX`.
    scratch: RefCell<PanelBuf>,
}

/// Stacks the views' anchor factors into their fused operator at
/// `weights`.
///
/// # Panics
/// Panics if `factors` is empty, the factors differ in row count, or
/// `weights.len()` differs from the factor count.
pub fn anchor_fused_operator(factors: &[SparseFactor], weights: &[f64]) -> AnchorLaplacian {
    let mut offsets = vec![0];
    offsets.extend(factors.iter().scan(0, |end, b| {
        *end += b.cols();
        Some(*end)
    }));
    let stacked = SparseFactor::hstack(factors);
    let scale = vec![0.0; stacked.cols()];
    let mut fused = AnchorLaplacian { stacked, offsets, scale, weight_sum: 0.0, scratch: RefCell::default() };
    fused.set_weights(weights);
    fused
}

impl AnchorLaplacian {
    /// Moves the operator to new view weights by rewriting its column
    /// scales.
    ///
    /// # Panics
    /// Panics if `weights.len()` differs from the view count.
    pub fn set_weights(&mut self, weights: &[f64]) {
        assert_eq!(weights.len(), self.num_views(), "AnchorLaplacian: weights length mismatch");
        for (block, &w) in self.offsets.windows(2).zip(weights) {
            self.scale[block[0]..block[1]].fill(-w);
        }
        self.weight_sum = weights.iter().sum();
    }
}

impl LinOp for AnchorLaplacian {
    fn dim(&self) -> usize {
        self.stacked.rows()
    }

    /// Both products run on the thread count gated on the whole apply's
    /// flops.
    fn apply_block_into(&self, x: &[f64], ncols: usize, y: &mut [f64]) {
        let mut scratch = self.scratch.borrow_mut();
        let t = scratch.ensure(self.stacked.cols() * ncols);
        with_threads(threads_for(4 * self.stacked.csr().nnz() * ncols), || {
            self.stacked.mul_transpose_into(x, ncols, t);
            for (row, &s) in t.chunks_exact_mut(ncols.max(1)).zip(&self.scale) {
                row.iter_mut().for_each(|v| *v *= s);
            }
            self.stacked.mul_into(t, ncols, y);
        });
    }
}

impl ViewSet for AnchorLaplacian {
    const SOLVER: &'static str = "anchor";

    fn num_views(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `c − ‖B_vᵀF‖²_F` per view, each `B_vᵀF` a row block of one `B̂ᵀF`.
    fn traces_into(&self, f: &Matrix, scratch: &mut TraceScratch, traces: &mut Vec<f64>) {
        let c = f.cols();
        scratch.prod.ensure_shape(self.stacked.cols(), c);
        self.stacked.mul_transpose_into(f.as_slice(), c, scratch.prod.as_mut_slice());
        traces.clear();
        for block in self.offsets.windows(2) {
            // The norm summed as `Matrix::frobenius_norm` sums it.
            let proj = &scratch.prod.as_slice()[block[0] * c..block[1] * c];
            let norm = proj.iter().map(|v| v * v).sum::<f64>().sqrt();
            traces.push((c as f64 - norm.powi(2)).max(0.0));
        }
    }

    fn set_weights(&mut self, weights: &[f64]) {
        AnchorLaplacian::set_weights(self, weights);
    }

    /// Each `B_v B_vᵀ` has its spectrum in `[0, 1]`, so the operator's
    /// lies in `[−Σw, 0]` and `η = Σw` leaves
    /// `ηI − A = Σw·I + Σ_v w_v B_v B_vᵀ` positive semidefinite.
    fn gpi_shift(&self) -> f64 {
        self.weight_sum
    }
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
    /// factors, stacks them into one operator, then runs the matrix-free
    /// one-stage loop.
    pub fn fit(&self, data: &MultiViewDataset) -> Result<UmscResult> {
        let AnchorViewData { mut fused, n, .. } = self.anchor_views(data)?;
        engine::fit(&self.solver_config(), &mut fused, n)
    }

    /// Like [`AnchorUmsc::fit`] but also returns an [`AnchorModel`] that
    /// can assign **out-of-sample** points to the learned clusters via the
    /// Nyström extension (see `AnchorModel::assign`).
    pub fn fit_model(&self, data: &MultiViewDataset) -> Result<AnchorModel> {
        let AnchorViewData { mut fused, n, anchors, col_inv_sqrt } = self.anchor_views(data)?;
        let result = engine::fit(&self.solver_config(), &mut fused, n)?;

        // Nyström data: per-view projections P_v = B_vᵀF, the row blocks
        // of B̂ᵀF, and the Ritz values ρ_j = f_jᵀ(Σ_v w_v B_v B_vᵀ f_j)
        // = −f_jᵀ(A f_j) of the fused operator A at the fit's weights.
        let f = &result.embedding;
        let c = f.cols();
        let mut btf = vec![0.0; fused.stacked.cols() * c];
        fused.stacked.mul_transpose_into(f.as_slice(), c, &mut btf);
        let block = |b: &[usize]| Matrix::from_vec(b[1] - b[0], c, btf[b[0] * c..b[1] * c].to_vec());
        let projections = fused.offsets.windows(2).map(block).collect();
        fused.set_weights(&result.view_weights);
        let mut af = Matrix::zeros(n, c);
        fused.apply_block_into(f.as_slice(), c, af.as_mut_slice());
        let ritz = (0..c).map(|j| -(0..n).map(|i| f[(i, j)] * af[(i, j)]).sum::<f64>()).collect();
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

    /// Per-view anchors and column scales, and the views' factors stacked
    /// into the fused operator; the per-view factors are dropped here.
    fn anchor_views(&self, data: &MultiViewDataset) -> Result<AnchorViewData> {
        data.validate().map_err(UmscError::InvalidInput)?;
        let _span = umsc_obs::span!("graph.build");
        let cfg = &self.config;
        let m = cfg.anchors.min(data.n()).max(1);
        let k = cfg.anchor_neighbors.min(m).max(1);
        let nv = data.num_views();
        let (mut factors, mut anchors, mut col_inv_sqrt) =
            (Vec::with_capacity(nv), Vec::with_capacity(nv), Vec::with_capacity(nv));
        for (v, x) in data.views.iter().enumerate() {
            let anc = umsc_graph::select_anchors(x, m, cfg.seed ^ ((v as u64) << 32));
            let z = umsc_graph::anchor_weights_sparse(x, &anc, k);
            let (b, inv) = umsc_graph::normalized_factor_sparse(&z);
            factors.push(b);
            anchors.push(anc);
            col_inv_sqrt.push(inv);
        }
        let (fused, n) = self.stack(&factors)?;
        Ok(AnchorViewData { fused, n, anchors, col_inv_sqrt })
    }

    /// Validates per-view factors and stacks them into the fused operator
    /// (at uniform weights); returns it with `n`.
    fn stack(&self, factors: &[SparseFactor]) -> Result<(AnchorLaplacian, usize)> {
        let views = factors.iter().map(|b| (b.shape(), b.csr().is_finite(), true));
        let n = engine::validate(&self.solver_config(), views, false)?;
        Ok((anchor_fused_operator(factors, &vec![1.0 / factors.len() as f64; factors.len()]), n))
    }

    /// Fits from precomputed dense per-view normalized anchor factors `B_v`
    /// (each `n × m_v`; the affinity is `B_v·B_vᵀ`). Each factor is
    /// compacted once into a [`SparseFactor`]; the fit is then
    /// [`AnchorUmsc::fit_sparse_factors`], bit for bit.
    pub fn fit_factors(&self, factors: &[Matrix]) -> Result<UmscResult> {
        let sparse = factors.iter().map(|b| SparseFactor::new(CsrMatrix::from_dense(b.rows(), b.cols(), b.as_slice())));
        let (mut fused, n) = self.stack(&sparse.collect::<Vec<_>>())?;
        engine::fit(&self.solver_config(), &mut fused, n)
    }

    /// Fits from precomputed sparse per-view normalized anchor factors
    /// `B_v` (each `n × m_v`; the affinity is `B_v·B_vᵀ`).
    pub fn fit_sparse_factors(&self, factors: &[SparseFactor]) -> Result<UmscResult> {
        let (mut fused, n) = self.stack(factors)?;
        engine::fit(&self.solver_config(), &mut fused, n)
    }

    /// One block-coordinate sweep on an anchor fused operator (build it
    /// with [`anchor_fused_operator`]), advancing `st` in place: the
    /// anchor analogue of [`crate::Umsc::one_step_solve`]. The sweep moves
    /// `fused` to its weights. Allocation-free once `ws` and `fused` are
    /// warm.
    pub fn one_step_solve(
        &self,
        fused: &mut AnchorLaplacian,
        st: &mut SolverState,
        ws: &mut SolverWorkspace,
    ) -> Result<StepStats> {
        engine::sweep(&self.solver_config(), fused, st, ws)
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

/// What a fit from features needs of its views: the fused operator and
/// `n`; the Nyström assigner also the anchors and column scales.
struct AnchorViewData {
    fused: AnchorLaplacian,
    n: usize,
    anchors: Vec<Matrix>,
    col_inv_sqrt: Vec<Vec<f64>>,
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
        write_block(&mut out, &[self.anchors.len(), self.anchor_neighbors], &[])?;
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
    ///
    /// # Errors
    /// `InvalidData` unless the file holds a model whose fields have the
    /// shapes [`AnchorAssigner::assign`] reads: one weight per view, a
    /// `c × c` rotation, `c` Ritz values, and per view at least one
    /// anchor, one column scale per anchor and an `m_v × c` projection.
    pub fn load(path: &std::path::Path) -> std::io::Result<AnchorAssigner> {
        use std::io::Read;
        let mut input = std::io::BufReader::new(std::fs::File::open(path)?);
        let mut magic = [0u8; 8];
        input.read_exact(&mut magic)?;
        if &magic != MODEL_MAGIC {
            return Err(invalid_data(format!("{}: not an umsc anchor model (bad magic)", path.display())));
        }
        let nviews = read_u64(&mut input)? as usize;
        if nviews == 0 || nviews > 1024 {
            return Err(invalid_data("implausible view count"));
        }
        let anchor_neighbors = read_u64(&mut input)? as usize;
        let rotation = read_matrix(&mut input)?;
        let ritz = read_vec(&mut input)?;
        let weights = read_vec(&mut input)?;
        let (mut anchors, mut col_inv_sqrt, mut projections) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..nviews {
            anchors.push(read_matrix(&mut input)?);
            col_inv_sqrt.push(read_vec(&mut input)?);
            projections.push(read_matrix(&mut input)?);
        }
        let c = rotation.rows();
        if weights.len() != nviews || rotation.cols() != c || ritz.len() != c {
            return Err(invalid_data(format!(
                "{} weights for {nviews} views, a {c}x{} rotation and {} Ritz values",
                weights.len(),
                rotation.cols(),
                ritz.len()
            )));
        }
        for (v, (a, p)) in anchors.iter().zip(&projections).enumerate() {
            let m = a.rows();
            if m == 0 || col_inv_sqrt[v].len() != m || p.shape() != (m, c) {
                let (s, (pr, pc)) = (col_inv_sqrt[v].len(), p.shape());
                return Err(invalid_data(format!("view {v}: {m} anchors, {s} column scales, a {pr}x{pc} projection")));
            }
        }
        Ok(AnchorAssigner { anchors, col_inv_sqrt, anchor_neighbors, weights, projections, ritz, rotation })
    }
}

const MODEL_MAGIC: &[u8; 8] = b"UMSCAM01";

fn invalid_data(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// Little-endian `u64` header words, then the `f64` payload.
fn write_block(w: &mut impl std::io::Write, header: &[usize], data: &[f64]) -> std::io::Result<()> {
    for &h in header {
        w.write_all(&(h as u64).to_le_bytes())?;
    }
    data.iter().try_for_each(|x| w.write_all(&x.to_le_bytes()))
}

fn write_vec(w: &mut impl std::io::Write, v: &[f64]) -> std::io::Result<()> {
    write_block(w, &[v.len()], v)
}

fn write_matrix(w: &mut impl std::io::Write, m: &Matrix) -> std::io::Result<()> {
    write_block(w, &[m.rows(), m.cols()], m.as_slice())
}

fn read_u64(r: &mut impl std::io::Read) -> std::io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// `len` little-endian `f64`s.
fn read_f64s(r: &mut impl std::io::Read, len: usize) -> std::io::Result<Vec<f64>> {
    if len > (1 << 28) {
        return Err(invalid_data("implausible block length"));
    }
    (0..len).map(|_| read_u64(r).map(f64::from_bits)).collect()
}

fn read_vec(r: &mut impl std::io::Read) -> std::io::Result<Vec<f64>> {
    let len = read_u64(r)? as usize;
    read_f64s(r, len)
}

fn read_matrix(r: &mut impl std::io::Read) -> std::io::Result<Matrix> {
    let (rows, cols) = (read_u64(r)? as usize, read_u64(r)? as usize);
    Ok(Matrix::from_vec(rows, cols, read_f64s(r, rows.saturating_mul(cols))?))
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
            sparse.iter().map(|b| Matrix::from_vec(b.rows(), b.cols(), b.csr().to_dense())).collect();
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
        // component per cluster: each `B_v B_vᵀ` has the eigenvalue 1 once
        // per component, so the uniform operator `−Σ_v B_v B_vᵀ/V` has the
        // eigenvalue −Σw = −1 with multiplicity c. A single Lanczos run
        // returned 2 of 3 copies at (c, seed) = (3, 35) and 3 of 6 at
        // (6, 33).
        for (c, seed) in [(3, 35), (6, 33)] {
            let mut gen = MultiViewGmm::new("sep", c, 60, vec![ViewSpec::clean(10), ViewSpec::clean(14)]);
            gen.separation = 12.0;
            let data = gen.generate(seed);
            let model = AnchorUmsc::new(AnchorUmscConfig::new(c).with_anchors(60));
            let fused = model.anchor_views(&data).unwrap().fused;
            let (vals, _) = crate::spectral_embedding_with_values(&fused, c, 0).unwrap();
            assert!(vals.iter().all(|&v| (v + 1.0).abs() < 1e-9), "(c, seed) = ({c}, {seed}): {vals:?}");
            let acc = clustering_accuracy(&model.fit(&data).unwrap().labels, &data.labels);
            assert_eq!(acc, 1.0, "(c, seed) = ({c}, {seed})");
        }
    }

    /// Two views with different anchor counts, so the blocks differ in width.
    fn two_factors(data: &MultiViewDataset) -> Vec<SparseFactor> {
        [25, 18].iter().zip(&data.views).map(|(&m, x)| umsc_graph::anchor_view_factor(x, m, 5, 3).0).collect()
    }

    #[test]
    fn fused_operator_matches_the_dense_stacked_products() {
        let data = gmm(30, 13);
        let factors = two_factors(&data);
        let mut fused = anchor_fused_operator(&factors, &[0.5, 0.5]);
        fused.set_weights(&[0.3, 0.9]);
        assert_eq!(fused.gpi_shift(), 0.3 + 0.9);
        // Reference: the dense row kernels on the densified stack,
        // B̂d·(diag(−w)·(B̂dᵀX)).
        let (n, vm) = fused.stacked.shape();
        let bd = Matrix::from_vec(n, vm, fused.stacked.csr().to_dense());
        for ncols in [1, 3] {
            let x = Matrix::from_fn(n, ncols, |i, j| ((i * 13 + j * 5 + 1) as f64).sin());
            let mut t = bd.matmul_transpose_a(&x);
            for j in 0..vm {
                let w = if j < fused.offsets[1] { 0.3 } else { 0.9 };
                t.row_mut(j).iter_mut().for_each(|v| *v *= -w);
            }
            let expect = bd.matmul(&t);
            for threads in [1, 2] {
                let mut y = vec![f64::NAN; n * ncols];
                with_threads(threads, || fused.apply_block_into(x.as_slice(), ncols, &mut y));
                assert_eq!(y.as_slice(), expect.as_slice(), "ncols={ncols} threads={threads}");
            }
            let mut y = vec![f64::NAN; n * ncols];
            if ncols == 1 {
                fused.apply_into(x.as_slice(), &mut y);
            } else {
                fused.apply_block_into(x.as_slice(), ncols, &mut y);
            }
            assert_eq!(y.as_slice(), expect.as_slice(), "ncols={ncols} gated");
        }
    }

    #[test]
    fn fused_traces_match_the_per_view_projections() {
        let data = gmm(30, 14);
        let factors = two_factors(&data);
        let fused = anchor_fused_operator(&factors, &[0.5, 0.5]);
        let f = Matrix::from_fn(fused.dim(), 3, |i, j| ((i * 7 + j * 11 + 2) as f64).cos() / 6.0);
        let mut traces = Vec::new();
        fused.traces_into(&f, &mut TraceScratch::new(), &mut traces);
        assert_eq!(traces.len(), 2);
        for (b, &t) in factors.iter().zip(&traces) {
            let mut btf = Matrix::zeros(b.cols(), 3);
            b.mul_transpose_into(f.as_slice(), 3, btf.as_mut_slice());
            let expect = (3.0 - btf.frobenius_norm().powi(2)).max(0.0);
            assert_eq!(t.to_bits(), expect.to_bits());
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
    fn load_rejects_fields_of_the_wrong_shape() {
        let train = gmm(20, 15);
        let model = AnchorUmsc::new(AnchorUmscConfig::new(3).with_anchors(15)).fit_model(&train).unwrap();
        let path = std::env::temp_dir().join(format!("umsc_cut_model_{}.bin", std::process::id()));
        for field in ["ritz", "projection", "col_inv_sqrt", "rotation"] {
            let mut assigner = model.assigner.clone();
            match field {
                "ritz" => assigner.ritz.truncate(2),
                "projection" => assigner.projections[1] = Matrix::zeros(assigner.projections[1].rows() - 1, 3),
                "col_inv_sqrt" => assigner.col_inv_sqrt[0].truncate(1),
                _ => assigner.rotation = Matrix::zeros(3, 2),
            }
            assigner.save(&path).unwrap();
            let err = AnchorAssigner::load(&path).expect_err(field);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{field}: {err}");
        }
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
