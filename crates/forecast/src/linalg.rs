//! Minimal dense linear algebra for the ARIMA fits.
//!
//! The systems solved here are tiny (order ≤ a few dozen), so a plain
//! Gaussian elimination with partial pivoting and a ridge-regularized
//! normal-equation least squares are entirely adequate — a LAPACK
//! binding would be unjustified (see DESIGN.md §6).

/// Solves `A x = b` by Gaussian elimination with partial pivoting.
///
/// Returns `None` if the matrix is numerically singular.
///
/// # Panics
///
/// Panics if `a` is not square or `b`'s length does not match.
///
/// # Examples
///
/// ```
/// let a = vec![vec![2.0, 1.0], vec![1.0, 3.0]];
/// let x = ntc_forecast::linalg::solve(a, vec![3.0, 5.0]).unwrap();
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// ```
#[allow(clippy::needless_range_loop)] // indexed loops mirror the matrix algebra
pub fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = a.len();
    assert!(a.iter().all(|row| row.len() == n), "matrix must be square");
    assert_eq!(b.len(), n, "rhs length must match");

    for col in 0..n {
        // partial pivot
        let pivot = (col..n)
            .max_by(|&i, &j| {
                a[i][col]
                    .abs()
                    .partial_cmp(&a[j][col].abs())
                    .expect("finite matrix entries")
            })
            .expect("non-empty column");
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);

        for row in col + 1..n {
            let factor = a[row][col] / a[col][col];
            for k in col..n {
                a[row][k] -= factor * a[col][k];
            }
            b[row] -= factor * b[col];
        }
    }

    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut sum = b[row];
        for k in row + 1..n {
            sum -= a[row][k] * x[k];
        }
        x[row] = sum / a[row][row];
    }
    Some(x)
}

/// Ridge-regularized least squares: minimizes `‖X β − y‖² + λ‖β‖²` via
/// the normal equations `(XᵀX + λI) β = Xᵀy`.
///
/// `X` is given by its columns, each as long as `y`. A regression on
/// lagged values passes shifted views of the series it already holds,
/// so no design matrix is built. Each entry of `Xᵀy` and of the upper
/// triangle of `XᵀX` is its own sum over the rows in ascending order,
/// starting from `0.0`: the solution depends only on the columns'
/// values, never on how the sums are scheduled.
///
/// Returns an empty vector when there are no columns or no rows, and
/// `None` only if the regularized system is still singular (which
/// cannot happen for `λ > 0` unless inputs are non-finite).
///
/// # Panics
///
/// Panics if a column's length differs from `y`'s, or if `lambda` is
/// negative.
///
/// # Examples
///
/// ```
/// // y = 3x + 1: an x column and an intercept column.
/// let x: Vec<f64> = (0..10).map(f64::from).collect();
/// let y: Vec<f64> = x.iter().map(|x| 3.0 * x + 1.0).collect();
/// let beta = ntc_forecast::linalg::least_squares(&[&x, &[1.0; 10]], &y, 0.0).unwrap();
/// assert!((beta[0] - 3.0).abs() < 1e-9 && (beta[1] - 1.0).abs() < 1e-9);
/// ```
#[allow(clippy::needless_range_loop)] // indexed loops mirror the matrix algebra
pub fn least_squares(columns: &[&[f64]], y: &[f64], lambda: f64) -> Option<Vec<f64>> {
    assert!(lambda >= 0.0, "ridge parameter must be non-negative");
    assert!(
        columns.iter().all(|c| c.len() == y.len()),
        "every design-matrix column must match the rhs length"
    );
    let p = columns.len();
    if p == 0 || y.is_empty() {
        return Some(Vec::new());
    }

    // Per column i: Xᵀy[i], then XᵀX[i][j] for j ≥ i.
    let mut pairs = Vec::with_capacity(p * (p + 3) / 2);
    for (i, &ci) in columns.iter().enumerate() {
        pairs.push((ci, y));
        pairs.extend(columns[i..].iter().map(|&cj| (ci, cj)));
    }
    let mut sums = dots(&pairs).into_iter();
    let mut sum = || sums.next().expect("one sum per pair");
    let mut xtx = vec![vec![0.0; p]; p];
    let mut xty = vec![0.0; p];
    for i in 0..p {
        xty[i] = sum();
        for j in i..p {
            xtx[i][j] = sum();
            xtx[j][i] = xtx[i][j];
        }
        xtx[i][i] += lambda;
    }
    solve(xtx, xty)
}

/// `Σ_r a[r]·b[r]` for every pair `(a, b)` of equal-length slices, each
/// summed over ascending `r` from `0.0`. Four pairs share each pass over
/// the rows, so four independent sums are in flight at once instead of
/// one latency-bound chain.
fn dots(pairs: &[(&[f64], &[f64])]) -> Vec<f64> {
    let mut out = Vec::with_capacity(pairs.len());
    for group in pairs.chunks(4) {
        // A short last group repeats its first pair; the copies are
        // summed and dropped.
        let lane = |k: usize| group.get(k).unwrap_or(&group[0]);
        let ((a0, b0), (a1, b1), (a2, b2), (a3, b3)) = (lane(0), lane(1), lane(2), lane(3));
        let lanes = (a0.iter().zip(*b0).zip(a1.iter().zip(*b1)))
            .zip(a2.iter().zip(*b2).zip(a3.iter().zip(*b3)));
        let mut acc = [0.0; 4];
        for (((x0, y0), (x1, y1)), ((x2, y2), (x3, y3))) in lanes {
            acc[0] += x0 * y0;
            acc[1] += x1 * y1;
            acc[2] += x2 * y2;
            acc[3] += x3 * y3;
        }
        out.extend_from_slice(&acc[..group.len()]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_identity() {
        let a = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let x = solve(a, vec![3.0, 4.0]).unwrap();
        assert_eq!(x, vec![3.0, 4.0]);
    }

    #[test]
    fn solve_requires_pivoting() {
        // leading zero forces a row swap
        let a = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let x = solve(a, vec![2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn singular_detected() {
        let a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        assert!(solve(a, vec![1.0, 2.0]).is_none());
    }

    #[test]
    fn least_squares_recovers_line() {
        // y = 3x + 1 with exact data
        let x: Vec<f64> = (0..10).map(f64::from).collect();
        let y: Vec<f64> = x.iter().map(|x| 3.0 * x + 1.0).collect();
        let beta = least_squares(&[&x, &[1.0; 10]], &y, 0.0).unwrap();
        assert!((beta[0] - 3.0).abs() < 1e-9);
        assert!((beta[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ridge_shrinks_coefficients() {
        let x: Vec<f64> = (0..10).map(f64::from).collect();
        let y: Vec<f64> = x.iter().map(|x| 2.0 * x).collect();
        let free = least_squares(&[&x], &y, 0.0).unwrap()[0];
        let ridged = least_squares(&[&x], &y, 100.0).unwrap()[0];
        assert!(ridged < free);
        assert!(ridged > 0.0);
    }

    #[test]
    fn empty_design_is_ok() {
        assert_eq!(least_squares(&[], &[], 1.0), Some(vec![]));
        assert_eq!(least_squares(&[&[], &[]], &[], 1.0), Some(vec![]));
        assert_eq!(least_squares(&[], &[1.0, 2.0], 1.0), Some(vec![]));
    }
}
