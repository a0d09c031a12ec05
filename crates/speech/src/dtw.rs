//! Dynamic time warping over feature-vector sequences.
//!
//! DTW aligns a recording's MFCC sequence against a command template even
//! when the two differ in speaking rate or have been shifted by propagation
//! delay, and the per-cell costs along the optimal path provide per-word
//! match quality for the accuracy metric.

use ivc_dsp::{DspError, Result};

/// Result of a DTW alignment.
#[derive(Debug, Clone, PartialEq)]
pub struct DtwAlignment {
    /// Total accumulated distance along the optimal path.
    pub total_distance: f64,
    /// Total distance divided by the path length.
    pub normalized_distance: f64,
    /// The optimal path as `(template_index, query_index)` pairs, from the
    /// start of both sequences to their ends.
    pub path: Vec<(usize, usize)>,
}

impl DtwAlignment {
    /// Mean per-step distance over the path cells whose template index lies
    /// in `[start, end)` — the per-word match quality used by the
    /// recogniser.  Returns `None` if the range is empty on the path.
    pub fn mean_distance_in_template_range(
        &self,
        start: usize,
        end: usize,
        costs: &[Vec<f64>],
    ) -> Option<f64> {
        let cells: Vec<&(usize, usize)> = self
            .path
            .iter()
            .filter(|(t, _)| *t >= start && *t < end)
            .collect();
        if cells.is_empty() {
            return None;
        }
        let sum: f64 = cells.iter().map(|(t, q)| costs[*t][*q]).sum();
        Some(sum / cells.len() as f64)
    }
}

/// Euclidean distance between two equal-length feature vectors.
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Computes the full pairwise cost matrix between two feature sequences.
pub fn cost_matrix(template: &[Vec<f64>], query: &[Vec<f64>]) -> Vec<Vec<f64>> {
    template
        .iter()
        .map(|t| query.iter().map(|q| euclidean(t, q)).collect())
        .collect()
}

/// Aligns two sequences given a precomputed cost matrix
/// (`costs[template_index][query_index]`).
pub fn align_with_costs(costs: &[Vec<f64>]) -> Result<DtwAlignment> {
    let n = costs.len();
    if n == 0 || costs[0].is_empty() {
        return Err(DspError::invalid("dtw", "empty cost matrix"));
    }
    let m = costs[0].len();
    let mut acc = vec![vec![f64::INFINITY; m]; n];
    // Backpointers: 0 = diagonal, 1 = from left (query insertion), 2 = from
    // above (template insertion).
    let mut back = vec![vec![0u8; m]; n];
    acc[0][0] = costs[0][0];
    for j in 1..m {
        acc[0][j] = acc[0][j - 1] + costs[0][j];
        back[0][j] = 1;
    }
    for i in 1..n {
        acc[i][0] = acc[i - 1][0] + costs[i][0];
        back[i][0] = 2;
        for j in 1..m {
            let diag = acc[i - 1][j - 1];
            let left = acc[i][j - 1];
            let up = acc[i - 1][j];
            let (best, dir) = if diag <= left && diag <= up {
                (diag, 0)
            } else if left <= up {
                (left, 1)
            } else {
                (up, 2)
            };
            acc[i][j] = best + costs[i][j];
            back[i][j] = dir;
        }
    }
    // Trace back the optimal path.
    let mut path = Vec::new();
    let (mut i, mut j) = (n - 1, m - 1);
    loop {
        path.push((i, j));
        if i == 0 && j == 0 {
            break;
        }
        match back[i][j] {
            0 => {
                i -= 1;
                j -= 1;
            }
            1 => j -= 1,
            _ => i -= 1,
        }
    }
    path.reverse();
    let total = acc[n - 1][m - 1];
    Ok(DtwAlignment {
        total_distance: total,
        normalized_distance: total / path.len() as f64,
        path,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(values: &[f64]) -> Vec<Vec<f64>> {
        values.iter().map(|&v| vec![v]).collect()
    }

    /// Aligns two feature sequences through their full cost matrix.
    fn align(template: &[Vec<f64>], query: &[Vec<f64>]) -> Result<DtwAlignment> {
        align_with_costs(&cost_matrix(template, query))
    }

    #[test]
    fn validation() {
        assert!(align(&[], &seq(&[1.0])).is_err());
        assert!(align(&seq(&[1.0]), &[]).is_err());
        assert!(align_with_costs(&[]).is_err());
    }

    #[test]
    fn identical_sequences_have_zero_distance() {
        let a = seq(&[0.0, 1.0, 2.0, 3.0, 2.0, 1.0]);
        let out = align(&a, &a).unwrap();
        assert!(out.total_distance < 1e-12);
        assert!(out.normalized_distance < 1e-12);
        // The path is the diagonal.
        for (k, (i, j)) in out.path.iter().enumerate() {
            assert_eq!(k, *i);
            assert_eq!(k, *j);
        }
    }

    #[test]
    fn time_stretched_sequence_still_aligns_cheaply() {
        let template = seq(&[0.0, 1.0, 2.0, 3.0, 2.0, 1.0, 0.0]);
        // The same shape, but each value doubled in duration.
        let stretched = seq(&[
            0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 2.0, 2.0, 1.0, 1.0, 0.0, 0.0,
        ]);
        let different = seq(&[5.0, -3.0, 7.0, -2.0, 6.0, -1.0, 5.0]);
        let good = align(&template, &stretched).unwrap();
        let bad = align(&template, &different).unwrap();
        assert!(
            good.normalized_distance < 0.2,
            "{}",
            good.normalized_distance
        );
        assert!(bad.normalized_distance > good.normalized_distance * 5.0);
    }

    #[test]
    fn path_is_monotonic_and_covers_both_ends() {
        let a = seq(&[0.0, 1.0, 0.5, 2.0]);
        let b = seq(&[0.0, 0.9, 0.6, 0.4, 2.1]);
        let out = align(&a, &b).unwrap();
        assert_eq!(out.path.first(), Some(&(0usize, 0usize)));
        assert_eq!(out.path.last(), Some(&(3usize, 4usize)));
        for w in out.path.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 >= w[0].1);
            assert!(w[1].0 - w[0].0 <= 1);
            assert!(w[1].1 - w[0].1 <= 1);
        }
    }

    #[test]
    fn per_range_distance_identifies_the_corrupted_segment() {
        let template = seq(&[1.0, 1.0, 1.0, 5.0, 5.0, 5.0]);
        // Second half corrupted.
        let query = seq(&[1.0, 1.0, 1.0, 9.0, 9.0, 9.0]);
        let costs = cost_matrix(&template, &query);
        let out = align_with_costs(&costs).unwrap();
        let first = out.mean_distance_in_template_range(0, 3, &costs).unwrap();
        let second = out.mean_distance_in_template_range(3, 6, &costs).unwrap();
        assert!(first < 0.5);
        assert!(second > 2.0);
        assert!(out
            .mean_distance_in_template_range(10, 20, &costs)
            .is_none());
    }

    #[test]
    fn euclidean_distance_basics() {
        assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(euclidean(&[1.0], &[1.0]), 0.0);
    }
}
