//! 2-D prefix-sum tables.
//!
//! Answering a 2-D range query from a grid or response matrix is a rectangle
//! sum; a prefix table makes every such sum O(1), which matters because each
//! λ-D query expands into `(λ choose 2)` rectangle sums and the evaluation
//! workloads pose hundreds of thousands of them (Figs. 11–12).

/// Inclusion–exclusion prefix sums over a row-major `rows × cols` array.
#[derive(Debug, Clone, PartialEq)]
pub struct PrefixSum2d {
    rows: usize,
    cols: usize,
    /// `(rows+1) × (cols+1)` table; entry `(r, c)` holds the sum of the
    /// rectangle `[0, r) × [0, c)`.
    table: Vec<f64>,
}

impl PrefixSum2d {
    /// Builds the table from row-major `data` of shape `rows × cols`.
    pub fn build(data: &[f64], rows: usize, cols: usize) -> Self {
        let mut prefix = Self::zeros(rows, cols);
        prefix.refill(data);
        prefix
    }

    /// The table of an all-zero `rows × cols` array; [`PrefixSum2d::refill`]
    /// later overwrites it in place.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        PrefixSum2d {
            rows,
            cols,
            table: vec![0f64; (rows + 1) * (cols + 1)],
        }
    }

    /// Recomputes the table from row-major `data` of the same shape, without
    /// allocating.
    pub fn refill(&mut self, data: &[f64]) {
        let (rows, cols) = (self.rows, self.cols);
        assert_eq!(data.len(), rows * cols);
        let w = cols + 1;
        let table = &mut self.table;
        for r in 0..rows {
            let mut row_acc = 0f64;
            for c in 0..cols {
                row_acc += data[r * cols + c];
                table[(r + 1) * w + (c + 1)] = table[r * w + (c + 1)] + row_acc;
            }
        }
    }

    /// Sum over the half-open rectangle `[r0, r1) × [c0, c1)`.
    #[inline]
    pub fn rect(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> f64 {
        debug_assert!(r0 <= r1 && r1 <= self.rows);
        debug_assert!(c0 <= c1 && c1 <= self.cols);
        let w = self.cols + 1;
        self.table[r1 * w + c1] - self.table[r0 * w + c1] - self.table[r1 * w + c0]
            + self.table[r0 * w + c0]
    }

    /// Sum over the inclusive rectangle `[r0, r1] × [c0, c1]`.
    #[inline]
    pub fn rect_inclusive(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> f64 {
        self.rect(r0, r1 + 1, c0, c1 + 1)
    }

    /// Total sum of the underlying array.
    #[inline]
    pub fn total(&self) -> f64 {
        self.rect(0, self.rows, 0, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute(data: &[f64], cols: usize, r0: usize, r1: usize, c0: usize, c1: usize) -> f64 {
        let mut s = 0.0;
        for r in r0..r1 {
            for c in c0..c1 {
                s += data[r * cols + c];
            }
        }
        s
    }

    #[test]
    fn matches_brute_force() {
        let (rows, cols) = (5usize, 7usize);
        let data: Vec<f64> = (0..rows * cols).map(|i| (i as f64).sin()).collect();
        let p = PrefixSum2d::build(&data, rows, cols);
        for r0 in 0..=rows {
            for r1 in r0..=rows {
                for c0 in 0..=cols {
                    for c1 in c0..=cols {
                        let want = brute(&data, cols, r0, r1, c0, c1);
                        let got = p.rect(r0, r1, c0, c1);
                        assert!((want - got).abs() < 1e-9, "({r0},{r1},{c0},{c1})");
                    }
                }
            }
        }
    }

    #[test]
    fn inclusive_and_total() {
        let data = vec![1.0, 2.0, 3.0, 4.0];
        let p = PrefixSum2d::build(&data, 2, 2);
        assert_eq!(p.total(), 10.0);
        assert_eq!(p.rect_inclusive(0, 0, 0, 0), 1.0);
        assert_eq!(p.rect_inclusive(0, 1, 1, 1), 6.0);
        assert_eq!(p.rect_inclusive(0, 1, 0, 1), 10.0);
    }

    #[test]
    fn empty_rect_is_zero() {
        let data = vec![1.0; 9];
        let p = PrefixSum2d::build(&data, 3, 3);
        assert_eq!(p.rect(1, 1, 0, 3), 0.0);
        assert_eq!(p.rect(0, 3, 2, 2), 0.0);
    }
}
