//! Reusable solver buffers.
//!
//! One outer BCD iteration touches several `n × c` intermediates, two SVD
//! scratches of different shapes (the `n × c` polar factor inside GPI and
//! the `c × c` Procrustes rotation), per-view trace scratch and a handful
//! of label/size vectors. Allocating them per iteration dominated
//! small-`c` profiles; [`SolverWorkspace`] owns them all so a sweep
//! performs **zero heap allocations** once warm, on every view set
//! (`tests/alloc_free.rs`). None is `n × n`: the fused Laplacian is the
//! view set's own storage.
//!
//! Buffers are grow-only and shape-stable across iterations; contents are
//! unspecified between calls — every kernel writing into them overwrites
//! what it reads.

use crate::gpi::GpiWorkspace;
use umsc_linalg::{Matrix, SvdScratch};

/// Counts the buffers in `reallocs` that [`Matrix::ensure_shape`] had to
/// reallocate under `workspace.realloc`.
pub(crate) fn count_reallocs(reallocs: &[bool]) {
    let n = reallocs.iter().filter(|&&r| r).count();
    if n > 0 {
        umsc_obs::counter!("workspace.realloc", n);
    }
}

/// Scratch for the per-view traces `tr(Fᵀ L⁽ᵛ⁾ F)`; each view set sizes
/// the buffers it uses. The warm start computes traces through
/// short-lived instances, so sizing here is not counted as a workspace
/// realloc.
#[derive(Debug, Clone)]
pub(crate) struct TraceScratch {
    /// `n × c` product `L⁽ᵛ⁾·F` (Laplacian views), or the stacked
    /// `Σ_v m_v × c` projection `B̂ᵀF` (anchor views).
    pub(crate) prod: Matrix,
    /// `c × c` product `Fᵀ·L⁽ᵛ⁾·F` (Laplacian views).
    pub(crate) cc: Matrix,
}

impl TraceScratch {
    pub(crate) fn new() -> Self {
        TraceScratch { prod: Matrix::zeros(0, 0), cc: Matrix::zeros(0, 0) }
    }
}

/// Scratch buffers for the unified solver's hot loop. Create once (e.g.
/// via [`SolverWorkspace::new`]), then pass to every
/// [`crate::Umsc::one_step_solve`] call; shapes are fixed on first use and
/// reused thereafter.
#[derive(Debug, Clone)]
pub struct SolverWorkspace {
    /// Per-view trace scratch.
    pub(crate) trace: TraceScratch,
    /// `c × c` Procrustes-input scratch.
    pub(crate) cc: Matrix,
    /// `n × c` effective indicator (`Y` or `Y(YᵀY)^{-1/2}`).
    pub(crate) y_eff: Matrix,
    /// `n × c` attraction term `λ·Y_eff·Rᵀ`.
    pub(crate) b: Matrix,
    /// `n × c` rotated embedding `F·R`.
    pub(crate) fr: Matrix,
    /// `n × c` row-normalized embedding `F̃`.
    pub(crate) f_tilde: Matrix,
    /// GPI inner-loop buffers.
    pub(crate) gpi: GpiWorkspace,
    /// `c × c` SVD scratch for the R-step Procrustes.
    pub(crate) svd_r: SvdScratch,
    /// Per-view traces `tr(Fᵀ L⁽ᵛ⁾ F)`.
    pub(crate) traces: Vec<f64>,
    /// Cluster sizes for the scaled indicator.
    pub(crate) sizes: Vec<f64>,
    /// Cluster counts for empty-cluster repair.
    pub(crate) counts: Vec<usize>,
    /// Cluster sizes for scaled discretization.
    pub(crate) dsc_sizes: Vec<usize>,
    /// Cluster column-sums for scaled discretization.
    pub(crate) dsc_sums: Vec<f64>,
}

impl SolverWorkspace {
    /// An empty workspace; every buffer is sized on first use.
    pub fn new() -> Self {
        SolverWorkspace {
            trace: TraceScratch::new(),
            cc: Matrix::zeros(0, 0),
            y_eff: Matrix::zeros(0, 0),
            b: Matrix::zeros(0, 0),
            fr: Matrix::zeros(0, 0),
            f_tilde: Matrix::zeros(0, 0),
            gpi: GpiWorkspace::new(),
            svd_r: SvdScratch::new(),
            traces: Vec::new(),
            sizes: Vec::new(),
            counts: Vec::new(),
            dsc_sizes: Vec::new(),
            dsc_sums: Vec::new(),
        }
    }

    /// Sizes the sweep's `n × c` and `c × c` buffers. Reallocates only
    /// when shapes change.
    pub(crate) fn ensure(&mut self, n: usize, c: usize) {
        count_reallocs(&[
            self.cc.ensure_shape(c, c),
            self.y_eff.ensure_shape(n, c),
            self.b.ensure_shape(n, c),
            self.fr.ensure_shape(n, c),
            self.f_tilde.ensure_shape(n, c),
        ]);
    }
}

impl Default for SolverWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_is_idempotent_and_shape_stable() {
        let mut ws = SolverWorkspace::new();
        ws.ensure(10, 3);
        assert_eq!(ws.b.shape(), (10, 3));
        assert_eq!(ws.cc.shape(), (3, 3));
        let ptr = ws.b.as_slice().as_ptr();
        ws.ensure(10, 3);
        assert_eq!(ws.b.as_slice().as_ptr(), ptr, "ensure with same shape must not reallocate");
        // Shape change reallocates.
        ws.ensure(12, 3);
        assert_eq!(ws.b.shape(), (12, 3));
    }
}
