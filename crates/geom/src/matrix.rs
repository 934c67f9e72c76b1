// Dense small-matrix code: indexed loops over fixed 3/6-wide dimensions
// are the clearest idiom here, so the iterator-style lint is off.
#![allow(clippy::needless_range_loop)]

use std::ops::{Add, Index, IndexMut, Mul};

use crate::Point3;

/// A 3×3 matrix of `f64`, row-major.
///
/// Used by the NDT scan matcher for voxel covariance matrices and their
/// inverses, and by [`Pose`](crate::Pose) for rotations. Covariance math is
/// done in `f64`: NDT inverts near-singular covariances of ~100-point
/// voxels, where `f32` loses too much precision.
///
/// # Examples
///
/// ```
/// use bonsai_geom::Mat3;
///
/// let m = Mat3::diagonal(2.0, 3.0, 4.0);
/// let inv = m.inverse().unwrap();
/// assert!((inv[(0, 0)] - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat3 {
    elems: [[f64; 3]; 3],
}

impl Mat3 {
    /// The zero matrix.
    pub const ZERO: Mat3 = Mat3 {
        elems: [[0.0; 3]; 3],
    };

    /// The identity matrix.
    pub const IDENTITY: Mat3 = Mat3 {
        elems: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    };

    /// Creates a matrix from rows.
    pub const fn from_rows(r0: [f64; 3], r1: [f64; 3], r2: [f64; 3]) -> Mat3 {
        Mat3 {
            elems: [r0, r1, r2],
        }
    }

    /// A diagonal matrix with the given diagonal entries.
    pub const fn diagonal(a: f64, b: f64, c: f64) -> Mat3 {
        Mat3::from_rows([a, 0.0, 0.0], [0.0, b, 0.0], [0.0, 0.0, c])
    }

    /// The rotation matrix for intrinsic yaw-pitch-roll (Z-Y-X) Euler
    /// angles, in radians.
    ///
    /// This is the convention Autoware uses for vehicle poses: `yaw` about
    /// z (heading), then `pitch` about y, then `roll` about x.
    pub fn from_euler(roll: f64, pitch: f64, yaw: f64) -> Mat3 {
        let (sr, cr) = roll.sin_cos();
        let (sp, cp) = pitch.sin_cos();
        let (sy, cy) = yaw.sin_cos();
        Mat3::from_rows(
            [cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr],
            [sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr],
            [-sp, cp * sr, cp * cr],
        )
    }

    /// The transpose.
    pub fn transpose(&self) -> Mat3 {
        let e = &self.elems;
        Mat3::from_rows(
            [e[0][0], e[1][0], e[2][0]],
            [e[0][1], e[1][1], e[2][1]],
            [e[0][2], e[1][2], e[2][2]],
        )
    }

    /// The determinant.
    pub fn determinant(&self) -> f64 {
        let e = &self.elems;
        e[0][0] * (e[1][1] * e[2][2] - e[1][2] * e[2][1])
            - e[0][1] * (e[1][0] * e[2][2] - e[1][2] * e[2][0])
            + e[0][2] * (e[1][0] * e[2][1] - e[1][1] * e[2][0])
    }

    /// The inverse, or `None` when the matrix is singular (|det| below
    /// `1e-300`, i.e. effectively rank-deficient).
    pub fn inverse(&self) -> Option<Mat3> {
        let det = self.determinant();
        if det.abs() < 1e-300 {
            return None;
        }
        let e = &self.elems;
        let inv_det = 1.0 / det;
        // Adjugate / det.
        Some(Mat3::from_rows(
            [
                (e[1][1] * e[2][2] - e[1][2] * e[2][1]) * inv_det,
                (e[0][2] * e[2][1] - e[0][1] * e[2][2]) * inv_det,
                (e[0][1] * e[1][2] - e[0][2] * e[1][1]) * inv_det,
            ],
            [
                (e[1][2] * e[2][0] - e[1][0] * e[2][2]) * inv_det,
                (e[0][0] * e[2][2] - e[0][2] * e[2][0]) * inv_det,
                (e[0][2] * e[1][0] - e[0][0] * e[1][2]) * inv_det,
            ],
            [
                (e[1][0] * e[2][1] - e[1][1] * e[2][0]) * inv_det,
                (e[0][1] * e[2][0] - e[0][0] * e[2][1]) * inv_det,
                (e[0][0] * e[1][1] - e[0][1] * e[1][0]) * inv_det,
            ],
        ))
    }

    /// Multiplies this matrix by a 3-vector of `f64`.
    pub fn mul_vec(&self, v: [f64; 3]) -> [f64; 3] {
        let e = &self.elems;
        [
            e[0][0] * v[0] + e[0][1] * v[1] + e[0][2] * v[2],
            e[1][0] * v[0] + e[1][1] * v[1] + e[1][2] * v[2],
            e[2][0] * v[0] + e[2][1] * v[1] + e[2][2] * v[2],
        ]
    }

    /// Rotates an `f32` point (coordinates widened to `f64` internally).
    pub fn mul_point(&self, p: Point3) -> Point3 {
        let v = self.mul_vec([p.x as f64, p.y as f64, p.z as f64]);
        Point3::new(v[0] as f32, v[1] as f32, v[2] as f32)
    }

    /// The outer product `a bᵀ`.
    pub fn outer(a: [f64; 3], b: [f64; 3]) -> Mat3 {
        let mut m = Mat3::ZERO;
        for i in 0..3 {
            for j in 0..3 {
                m.elems[i][j] = a[i] * b[j];
            }
        }
        m
    }

    /// Scales every element by `s`.
    pub fn scaled(&self, s: f64) -> Mat3 {
        let mut m = *self;
        for row in &mut m.elems {
            for v in row {
                *v *= s;
            }
        }
        m
    }
}

impl Index<(usize, usize)> for Mat3 {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.elems[r][c]
    }
}

impl IndexMut<(usize, usize)> for Mat3 {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.elems[r][c]
    }
}

impl Add for Mat3 {
    type Output = Mat3;

    fn add(self, rhs: Mat3) -> Mat3 {
        let mut m = Mat3::ZERO;
        for i in 0..3 {
            for j in 0..3 {
                m.elems[i][j] = self.elems[i][j] + rhs.elems[i][j];
            }
        }
        m
    }
}

impl Mul for Mat3 {
    type Output = Mat3;

    fn mul(self, rhs: Mat3) -> Mat3 {
        let mut m = Mat3::ZERO;
        for i in 0..3 {
            for j in 0..3 {
                let mut acc = 0.0;
                for k in 0..3 {
                    acc += self.elems[i][k] * rhs.elems[k][j];
                }
                m.elems[i][j] = acc;
            }
        }
        m
    }
}

/// A 6-vector of `f64` — the NDT pose-update increment
/// `(tx, ty, tz, roll, pitch, yaw)`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec6(pub [f64; 6]);

impl Vec6 {
    /// The zero vector.
    pub const ZERO: Vec6 = Vec6([0.0; 6]);

    /// The euclidean norm.
    pub fn norm(&self) -> f64 {
        self.0.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Whether every component is finite (neither NaN nor infinite).
    pub fn is_finite(&self) -> bool {
        self.0.iter().all(|v| v.is_finite())
    }
}

impl Add for Vec6 {
    type Output = Vec6;

    fn add(self, rhs: Vec6) -> Vec6 {
        let mut out = [0.0; 6];
        for i in 0..6 {
            out[i] = self.0[i] + rhs.0[i];
        }
        Vec6(out)
    }
}

impl Mul<f64> for Vec6 {
    type Output = Vec6;

    fn mul(self, s: f64) -> Vec6 {
        let mut out = self.0;
        for v in &mut out {
            *v *= s;
        }
        Vec6(out)
    }
}

impl Index<usize> for Vec6 {
    type Output = f64;

    fn index(&self, i: usize) -> &f64 {
        &self.0[i]
    }
}

impl IndexMut<usize> for Vec6 {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.0[i]
    }
}

/// A 6×6 matrix of `f64` — the NDT Newton-step Hessian.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat6 {
    elems: [[f64; 6]; 6],
}

impl Mat6 {
    /// The zero matrix.
    pub const ZERO: Mat6 = Mat6 {
        elems: [[0.0; 6]; 6],
    };

    /// The identity matrix.
    pub fn identity() -> Mat6 {
        let mut m = Mat6::ZERO;
        for i in 0..6 {
            m.elems[i][i] = 1.0;
        }
        m
    }

    /// Adds `s` to every diagonal element (Levenberg-style damping used to
    /// keep the NDT Hessian positive definite).
    pub fn add_diagonal(&mut self, s: f64) {
        for i in 0..6 {
            self.elems[i][i] += s;
        }
    }

    /// Solves `self · x = b` by Gaussian elimination with partial pivoting.
    ///
    /// Returns `None` when the matrix is numerically singular (pivot below
    /// `1e-12`).
    pub fn solve(&self, b: Vec6) -> Option<Vec6> {
        let mut a = self.elems;
        let mut x = b.0;
        for col in 0..6 {
            // Partial pivoting.
            let mut pivot_row = col;
            for row in col + 1..6 {
                if a[row][col].abs() > a[pivot_row][col].abs() {
                    pivot_row = row;
                }
            }
            if a[pivot_row][col].abs() < 1e-12 {
                return None;
            }
            a.swap(col, pivot_row);
            x.swap(col, pivot_row);
            for row in col + 1..6 {
                let factor = a[row][col] / a[col][col];
                for k in col..6 {
                    a[row][k] -= factor * a[col][k];
                }
                x[row] -= factor * x[col];
            }
        }
        // Back substitution.
        for col in (0..6).rev() {
            let mut acc = x[col];
            for k in col + 1..6 {
                acc -= a[col][k] * x[k];
            }
            x[col] = acc / a[col][col];
        }
        Some(Vec6(x))
    }
}

impl Index<(usize, usize)> for Mat6 {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.elems[r][c]
    }
}

impl IndexMut<(usize, usize)> for Mat6 {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.elems[r][c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_mat3_close(a: Mat3, b: Mat3, tol: f64) {
        for i in 0..3 {
            for j in 0..3 {
                assert!(
                    (a[(i, j)] - b[(i, j)]).abs() < tol,
                    "mismatch at ({i},{j}): {} vs {}",
                    a[(i, j)],
                    b[(i, j)]
                );
            }
        }
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let m = Mat3::from_rows([2.0, 1.0, 0.5], [0.1, 3.0, -1.0], [0.0, 0.7, 1.5]);
        let inv = m.inverse().unwrap();
        assert_mat3_close(m * inv, Mat3::IDENTITY, 1e-12);
        assert_mat3_close(inv * m, Mat3::IDENTITY, 1e-12);
    }

    #[test]
    fn singular_matrix_has_no_inverse() {
        let m = Mat3::from_rows([1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 0.0]);
        assert!(m.inverse().is_none());
    }

    #[test]
    fn euler_rotation_is_orthonormal() {
        let r = Mat3::from_euler(0.3, -0.2, 1.1);
        assert_mat3_close(r * r.transpose(), Mat3::IDENTITY, 1e-12);
        assert!((r.determinant() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn yaw_rotates_x_toward_y() {
        let r = Mat3::from_euler(0.0, 0.0, std::f64::consts::FRAC_PI_2);
        let p = r.mul_point(Point3::new(1.0, 0.0, 0.0));
        assert!((p.x).abs() < 1e-6);
        assert!((p.y - 1.0).abs() < 1e-6);
    }

    #[test]
    fn outer_product_shape() {
        let m = Mat3::outer([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]);
        assert_eq!(m[(0, 0)], 4.0);
        assert_eq!(m[(1, 2)], 12.0);
        assert_eq!(m[(2, 1)], 15.0);
    }

    #[test]
    fn mat6_solve_recovers_known_solution() {
        let mut a = Mat6::identity();
        // A well-conditioned non-trivial system.
        for i in 0..6 {
            for j in 0..6 {
                a[(i, j)] += 0.1 * ((i * 6 + j) as f64).sin();
            }
        }
        let x_true = Vec6([1.0, -2.0, 0.5, 3.0, -0.25, 4.0]);
        let mut b = Vec6::ZERO;
        for i in 0..6 {
            for j in 0..6 {
                b[i] += a[(i, j)] * x_true[j];
            }
        }
        let x = a.solve(b).unwrap();
        for i in 0..6 {
            assert!((x[i] - x_true[i]).abs() < 1e-9, "x[{i}] = {}", x[i]);
        }
    }

    #[test]
    fn mat6_solve_rejects_singular() {
        let m = Mat6::ZERO;
        assert!(m.solve(Vec6([1.0; 6])).is_none());
    }

    #[test]
    fn vec6_arithmetic() {
        let v = Vec6([1.0; 6]) + Vec6([2.0; 6]) * 0.5;
        assert_eq!(v, Vec6([2.0; 6]));
        assert!((Vec6([2.0; 6]).norm() - (24.0f64).sqrt()).abs() < 1e-12);
    }
}
