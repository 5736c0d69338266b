//! Connected components of an affinity graph.
//!
//! Used as a sanity probe: if a view's graph has more connected components
//! than clusters, its normalized Laplacian has a zero eigenvalue of higher
//! multiplicity than `c` and the spectral embedding becomes ambiguous. The
//! generators and benchmarks assert against that.

use umsc_linalg::Matrix;

/// Labels each vertex with its connected-component id (0-based, in order of
/// discovery) for a dense affinity; edges are entries `> threshold`.
pub fn connected_components(w: &Matrix, threshold: f64) -> Vec<usize> {
    assert!(w.is_square(), "connected_components: affinity not square");
    let n = w.rows();
    let mut label = vec![usize::MAX; n];
    let mut next = 0usize;
    let mut stack = Vec::new();
    for start in 0..n {
        if label[start] != usize::MAX {
            continue;
        }
        label[start] = next;
        stack.push(start);
        while let Some(u) = stack.pop() {
            for (v, &wgt) in w.row(u).iter().enumerate() {
                if wgt > threshold && label[v] == usize::MAX {
                    label[v] = next;
                    stack.push(v);
                }
            }
            // Also follow incoming edges in case of (near) asymmetry.
            for v in 0..n {
                if w[(v, u)] > threshold && label[v] == usize::MAX {
                    label[v] = next;
                    stack.push(v);
                }
            }
        }
        next += 1;
    }
    label
}

/// Number of connected components of a dense affinity.
pub fn num_components(w: &Matrix, threshold: f64) -> usize {
    connected_components(w, threshold).iter().max().map_or(0, |m| m + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_connected_is_one_component() {
        let w = Matrix::filled(4, 4, 1.0);
        assert_eq!(num_components(&w, 0.0), 1);
    }

    #[test]
    fn empty_graph_all_singletons() {
        let w = Matrix::zeros(3, 3);
        assert_eq!(connected_components(&w, 0.0), vec![0, 1, 2]);
    }

    #[test]
    fn two_blocks() {
        let mut w = Matrix::zeros(5, 5);
        w[(0, 1)] = 1.0;
        w[(1, 0)] = 1.0;
        w[(1, 2)] = 1.0;
        w[(2, 1)] = 1.0;
        w[(3, 4)] = 1.0;
        w[(4, 3)] = 1.0;
        let labels = connected_components(&w, 0.0);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
        assert_eq!(num_components(&w, 0.0), 2);
    }

    #[test]
    fn threshold_cuts_weak_edges() {
        let mut w = Matrix::zeros(2, 2);
        w[(0, 1)] = 0.05;
        w[(1, 0)] = 0.05;
        assert_eq!(num_components(&w, 0.0), 1);
        assert_eq!(num_components(&w, 0.1), 2);
    }

    #[test]
    fn asymmetric_edge_still_connects() {
        let mut w = Matrix::zeros(2, 2);
        w[(0, 1)] = 1.0; // only one direction stored
        assert_eq!(num_components(&w, 0.0), 1);
    }

    #[test]
    fn empty_matrix() {
        assert_eq!(num_components(&Matrix::zeros(0, 0), 0.0), 0);
    }
}
