//! Dynamic time warping over feature-vector sequences.
//!
//! DTW aligns a recording's MFCC sequence against a command template even
//! when the two differ in speaking rate or have been shifted by propagation
//! delay, and the per-cell costs along the optimal path provide per-word
//! match quality for the accuracy metric.
//!
//! # Layout
//!
//! Sequences are flat (frame `i` is `frames[i * dimension..][..dimension]`),
//! and the cost and accumulator matrices are flat `n × m` buffers, row `i`
//! for template frame `i`.  [`cost_matrix`] reads the query
//! dimension-major ([`by_dimension`]): each template frame accumulates its
//! squared differences against every query frame, one dimension at a time
//! in the order `k = 0, 1, …`, then takes the square root.  Every pair
//! still sums its terms in that order, so each cost is the same `f64` the
//! pairwise Euclidean distance gives, and the loops over query frames are
//! independent, so they vectorise.
//!
//! # Why the minimum is the tie-broken choice
//!
//! The classic recurrence picks the cheapest of the diagonal, left and up
//! predecessors with a tie-breaking order (diagonal, then left, then up)
//! and remembers the choice as a backpointer.  Tied candidates are equal
//! values, so the accumulated cost is simply `min(diag, left, up) + cost`,
//! whichever of them wins: costs are square roots, so never `−0.0`, and
//! they are finite (the MFCC front end floors every logarithm), so no
//! `NaN` can make `min` disagree with the comparisons.  [`align`] therefore
//! takes `min(diag, up)` over a whole row in one vectorisable pass and
//! folds in `left` in a serial pass, without backpointers.  The path is
//! traced back from the accumulators with the same rule the backpointers
//! encoded: diagonal if `diag ≤ left && diag ≤ up`, else left if
//! `left ≤ up`, else up.

use ivc_dsp::{DspError, Result};

/// One cell of an optimal path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathStep {
    /// Template frame index.
    pub template: usize,
    /// Query frame index.
    pub query: usize,
    /// The local cost of the cell.
    pub cost: f64,
}

/// Replaces `out` with the dimension-major copy of the flat sequence
/// `frames`: `out[k * n + i]` is dimension `k` of frame `i`.
pub fn by_dimension(frames: &[f64], dimension: usize, out: &mut Vec<f64>) {
    let n = frames.len() / dimension;
    out.clear();
    for k in 0..dimension {
        out.extend(frames.iter().skip(k).step_by(dimension).take(n));
    }
}

/// Replaces `costs` with the `n × m` matrix of Euclidean distances between
/// the `n` frames of `template` (flat) and the `m` frames of the query
/// (dimension-major, see [`by_dimension`]).
pub fn cost_matrix(
    template: &[f64],
    query_by_dimension: &[f64],
    dimension: usize,
    costs: &mut Vec<f64>,
) {
    let n = template.len() / dimension;
    let m = query_by_dimension.len() / dimension;
    costs.clear();
    if n == 0 || m == 0 {
        return;
    }
    costs.resize(n * m, 0.0);
    let (first, rest) = query_by_dimension.split_at(m);
    for (frame, row) in template
        .chunks_exact(dimension)
        .zip(costs.chunks_exact_mut(m))
    {
        for (c, &q) in row.iter_mut().zip(first) {
            let d = frame[0] - q;
            *c = d * d;
        }
        for (&t, query) in frame[1..].iter().zip(rest.chunks_exact(m)) {
            for (c, &q) in row.iter_mut().zip(query) {
                let d = t - q;
                *c += d * d;
            }
        }
        for c in row.iter_mut() {
            *c = c.sqrt();
        }
    }
}

/// Aligns a template and a query given their `n × m` cost matrix (`m`
/// query frames per row), using `acc` as the accumulator buffer.  Appends
/// the optimal path, from the start of both sequences to their ends, to
/// `path` and returns the total accumulated distance along it.
pub fn align(costs: &[f64], m: usize, acc: &mut Vec<f64>, path: &mut Vec<PathStep>) -> Result<f64> {
    if m == 0 || costs.is_empty() || costs.len() % m != 0 {
        return Err(DspError::invalid("dtw", "empty cost matrix"));
    }
    let n = costs.len() / m;
    acc.clear();
    acc.resize(n * m, 0.0);
    acc[0] = costs[0];
    for j in 1..m {
        acc[j] = acc[j - 1] + costs[j];
    }
    for i in 1..n {
        let (done, rest) = acc.split_at_mut(i * m);
        let above = &done[(i - 1) * m..];
        let row = &mut rest[..m];
        let cost = &costs[i * m..(i + 1) * m];
        row[0] = above[0] + cost[0];
        // min(diag, up) for the whole row, then the serial min with left.
        for (slot, pair) in row[1..].iter_mut().zip(above.windows(2)) {
            *slot = pair[0].min(pair[1]);
        }
        for j in 1..m {
            row[j] = row[j].min(row[j - 1]) + cost[j];
        }
    }
    // Trace back the optimal path.
    let start = path.len();
    let (mut i, mut j) = (n - 1, m - 1);
    loop {
        path.push(PathStep {
            template: i,
            query: j,
            cost: costs[i * m + j],
        });
        if i == 0 && j == 0 {
            break;
        }
        if i == 0 {
            j -= 1;
        } else if j == 0 {
            i -= 1;
        } else {
            let diag = acc[(i - 1) * m + j - 1];
            let left = acc[i * m + j - 1];
            let up = acc[(i - 1) * m + j];
            if diag <= left && diag <= up {
                i -= 1;
                j -= 1;
            } else if left <= up {
                j -= 1;
            } else {
                i -= 1;
            }
        }
    }
    path[start..].reverse();
    Ok(acc[n * m - 1])
}

/// Mean cost of the steps of `path` whose template index lies in
/// `[start, end)` — the per-word match quality used by the recogniser.
/// Returns `None` if the range is empty on the path.
pub fn mean_cost_in_template_range(path: &[PathStep], start: usize, end: usize) -> Option<f64> {
    let steps = path
        .iter()
        .filter(|step| step.template >= start && step.template < end);
    let count = steps.clone().count();
    if count == 0 {
        return None;
    }
    let sum: f64 = steps.map(|step| step.cost).sum();
    Some(sum / count as f64)
}

/// The backpointer DTW over nested vectors that [`cost_matrix`] and
/// [`align`] replaced, kept as the oracle they are checked against bit for
/// bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// Result of a DTW alignment.
    #[derive(Debug, Clone, PartialEq)]
    pub(crate) struct DtwAlignment {
        /// Total accumulated distance along the optimal path.
        pub total_distance: f64,
        /// Total distance divided by the path length.
        pub normalized_distance: f64,
        /// The optimal path as `(template_index, query_index)` pairs, from
        /// the start of both sequences to their ends.
        pub path: Vec<(usize, usize)>,
    }

    impl DtwAlignment {
        /// Mean per-step distance over the path cells whose template index
        /// lies in `[start, end)`.
        pub(crate) fn mean_distance_in_template_range(
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
    pub(crate) fn euclidean(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    }

    /// Computes the full pairwise cost matrix between two feature sequences.
    pub(crate) fn cost_matrix(template: &[Vec<f64>], query: &[Vec<f64>]) -> Vec<Vec<f64>> {
        template
            .iter()
            .map(|t| query.iter().map(|q| euclidean(t, q)).collect())
            .collect()
    }

    /// Aligns two sequences given a precomputed cost matrix
    /// (`costs[template_index][query_index]`).
    pub(crate) fn align_with_costs(costs: &[Vec<f64>]) -> Result<DtwAlignment> {
        let n = costs.len();
        if n == 0 || costs[0].is_empty() {
            return Err(DspError::invalid("dtw", "empty cost matrix"));
        }
        let m = costs[0].len();
        let mut acc = vec![vec![f64::INFINITY; m]; n];
        // Backpointers: 0 = diagonal, 1 = from left (query insertion), 2 =
        // from above (template insertion).
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A one-dimensional sequence.
    fn seq(values: &[f64]) -> Vec<f64> {
        values.to_vec()
    }

    /// The costs of two flat sequences of `dimension`-vectors.
    fn costs_of(template: &[f64], query: &[f64], dimension: usize) -> (Vec<f64>, usize) {
        let (mut query_by_dimension, mut costs) = (Vec::new(), Vec::new());
        by_dimension(query, dimension, &mut query_by_dimension);
        cost_matrix(template, &query_by_dimension, dimension, &mut costs);
        (costs, query.len() / dimension)
    }

    /// Aligns two one-dimensional sequences: `(total distance, path)`.
    fn align_seq(template: &[f64], query: &[f64]) -> Result<(f64, Vec<PathStep>)> {
        let (costs, m) = costs_of(template, query, 1);
        let mut path = Vec::new();
        let total = align(&costs, m, &mut Vec::new(), &mut path)?;
        Ok((total, path))
    }

    /// The normalised distance of an alignment.
    fn normalized((total, path): &(f64, Vec<PathStep>)) -> f64 {
        total / path.len() as f64
    }

    #[test]
    fn validation() {
        assert!(align_seq(&[], &seq(&[1.0])).is_err());
        assert!(align_seq(&seq(&[1.0]), &[]).is_err());
        assert!(align(&[], 1, &mut Vec::new(), &mut Vec::new()).is_err());
        assert!(align(&[1.0, 2.0, 3.0], 2, &mut Vec::new(), &mut Vec::new()).is_err());
    }

    #[test]
    fn identical_sequences_have_zero_distance() {
        let a = seq(&[0.0, 1.0, 2.0, 3.0, 2.0, 1.0]);
        let out = align_seq(&a, &a).unwrap();
        assert!(out.0 < 1e-12);
        assert!(normalized(&out) < 1e-12);
        // The path is the diagonal.
        for (k, step) in out.1.iter().enumerate() {
            assert_eq!(k, step.template);
            assert_eq!(k, step.query);
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
        let good = normalized(&align_seq(&template, &stretched).unwrap());
        let bad = normalized(&align_seq(&template, &different).unwrap());
        assert!(good < 0.2, "{good}");
        assert!(bad > good * 5.0);
    }

    #[test]
    fn path_is_monotonic_and_covers_both_ends() {
        let a = seq(&[0.0, 1.0, 0.5, 2.0]);
        let b = seq(&[0.0, 0.9, 0.6, 0.4, 2.1]);
        let (_, path) = align_seq(&a, &b).unwrap();
        let cells: Vec<(usize, usize)> = path.iter().map(|s| (s.template, s.query)).collect();
        assert_eq!(cells.first(), Some(&(0usize, 0usize)));
        assert_eq!(cells.last(), Some(&(3usize, 4usize)));
        for w in cells.windows(2) {
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
        let (_, path) = align_seq(&template, &query).unwrap();
        let first = mean_cost_in_template_range(&path, 0, 3).unwrap();
        let second = mean_cost_in_template_range(&path, 3, 6).unwrap();
        assert!(first < 0.5);
        assert!(second > 2.0);
        assert!(mean_cost_in_template_range(&path, 10, 20).is_none());
    }

    #[test]
    fn euclidean_distance_basics() {
        let (costs, _) = costs_of(&[0.0, 0.0, 1.0, 1.0], &[3.0, 4.0, 1.0, 1.0], 2);
        assert_eq!(costs, vec![5.0, 2f64.sqrt(), 13f64.sqrt(), 0.0]);
    }

    #[test]
    fn by_dimension_transposes_frames() {
        let mut out = Vec::new();
        by_dimension(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3, &mut out);
        assert_eq!(out, vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    /// `frames` (flat, `dimension` wide) as one vector per frame.
    fn nested(frames: &[f64], dimension: usize) -> Vec<Vec<f64>> {
        frames
            .chunks_exact(dimension)
            .map(<[f64]>::to_vec)
            .collect()
    }

    /// Checks the flat alignment of two sequences against the backpointer
    /// reference: every cost, the total and the path, bit for bit.
    fn assert_matches_reference(template: &[f64], query: &[f64], dimension: usize) {
        let (costs, m) = costs_of(template, query, dimension);
        let mut path = vec![PathStep {
            template: 99,
            query: 99,
            cost: 0.0,
        }];
        let total = align(&costs, m, &mut Vec::new(), &mut path).unwrap();
        let nested_costs =
            reference::cost_matrix(&nested(template, dimension), &nested(query, dimension));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&costs), bits(&nested_costs.concat()));
        let expected = reference::align_with_costs(&nested_costs).unwrap();
        assert_eq!(total.to_bits(), expected.total_distance.to_bits());
        // The path is appended after what the buffer already held.
        assert_eq!(path[0].template, 99);
        let cells: Vec<(usize, usize)> = path[1..].iter().map(|s| (s.template, s.query)).collect();
        assert_eq!(cells, expected.path);
        for step in &path[1..] {
            assert_eq!(
                step.cost.to_bits(),
                nested_costs[step.template][step.query].to_bits()
            );
        }
    }

    #[test]
    fn flat_alignment_matches_the_backpointer_reference() {
        let mut rng = StdRng::seed_from_u64(11);
        for (n, m) in [(1, 1), (1, 7), (9, 1), (23, 17), (40, 61)] {
            let template: Vec<f64> = (0..n * 14).map(|_| rng.gen_range(-20.0..20.0)).collect();
            let query: Vec<f64> = (0..m * 14).map(|_| rng.gen_range(-20.0..20.0)).collect();
            assert_matches_reference(&template, &query, 14);
        }
    }

    #[test]
    fn ties_everywhere_follow_the_backpointer_rule() {
        // Every frame is the same vector, so every cost is 0 and every
        // predecessor ties; values on a coarse integer grid tie often too.
        for (n, m) in [(5, 5), (4, 9), (11, 3)] {
            assert_matches_reference(&vec![1.5; n * 3], &vec![1.5; m * 3], 3);
            let template: Vec<f64> = (0..n).map(|i| (i % 2) as f64).collect();
            let query: Vec<f64> = (0..m).map(|j| (j % 3 == 0) as u8 as f64).collect();
            assert_matches_reference(&template, &query, 1);
        }
        // Equal non-zero costs everywhere: the diagonal is the cheapest
        // predecessor of every cell on it, so a square path is diagonal.
        let (_, path) = align_seq(&[2.0; 4], &[0.0; 4]).unwrap();
        assert!(path.iter().all(|s| s.template == s.query));
    }
}
