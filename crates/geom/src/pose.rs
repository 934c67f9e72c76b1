use crate::{Mat3, Point3, Vec6};

/// A rigid-body transform: rotation followed by translation.
///
/// Poses place the simulated vehicle in the world (the LiDAR driving
/// sequence) and parameterize the NDT scan matcher's estimate. Rotation is
/// stored as a matrix; construction is from Euler angles as in Autoware.
///
/// # Examples
///
/// ```
/// use bonsai_geom::{Point3, Pose};
///
/// let pose = Pose::from_translation_euler(
///     Point3::new(10.0, 0.0, 0.0), 0.0, 0.0, std::f64::consts::FRAC_PI_2);
/// let p = pose.apply(Point3::new(1.0, 0.0, 0.0));
/// assert!((p.x - 10.0).abs() < 1e-5);
/// assert!((p.y - 1.0).abs() < 1e-5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pose {
    /// The rotation part.
    pub rotation: Mat3,
    /// The translation part, applied after rotation.
    pub translation: Point3,
    euler: [f64; 3],
}

impl Pose {
    /// The identity pose.
    pub fn identity() -> Pose {
        Pose {
            rotation: Mat3::IDENTITY,
            translation: Point3::ZERO,
            euler: [0.0; 3],
        }
    }

    /// Creates a pose from a translation and Z-Y-X Euler angles (radians).
    pub fn from_translation_euler(translation: Point3, roll: f64, pitch: f64, yaw: f64) -> Pose {
        Pose {
            rotation: Mat3::from_euler(roll, pitch, yaw),
            translation,
            euler: [roll, pitch, yaw],
        }
    }

    /// Creates a pose from a translation and a rotation matrix, keeping
    /// the matrix exactly and recovering its Z-Y-X Euler angles for
    /// [`euler`](Pose::euler) and [`to_vec6`](Pose::to_vec6).
    ///
    /// A product of rotations can round `sin(pitch)` a hair past ±1;
    /// the recovery clamps it, so the pitch is ±π/2 there, never NaN.
    ///
    /// # Examples
    ///
    /// ```
    /// use bonsai_geom::{Mat3, Point3, Pose};
    ///
    /// let rotation = Mat3::from_euler(0.1, -0.2, 0.3);
    /// let pose = Pose::from_translation_rotation(Point3::new(1.0, 2.0, 3.0), rotation);
    /// assert_eq!(pose.rotation, rotation);
    /// let [roll, pitch, yaw] = pose.euler();
    /// assert!((roll - 0.1).abs() < 1e-12 && (pitch + 0.2).abs() < 1e-12);
    /// assert!((yaw - 0.3).abs() < 1e-12);
    /// ```
    pub fn from_translation_rotation(translation: Point3, rotation: Mat3) -> Pose {
        Pose {
            rotation,
            translation,
            euler: euler_from_matrix(&rotation),
        }
    }

    /// Creates a pose from a 6-vector `(tx, ty, tz, roll, pitch, yaw)` —
    /// the parameterization the NDT Newton solver optimizes.
    pub fn from_vec6(v: Vec6) -> Pose {
        Pose::from_translation_euler(
            Point3::new(v[0] as f32, v[1] as f32, v[2] as f32),
            v[3],
            v[4],
            v[5],
        )
    }

    /// This pose as the 6-vector `(tx, ty, tz, roll, pitch, yaw)`.
    pub fn to_vec6(&self) -> Vec6 {
        Vec6([
            self.translation.x as f64,
            self.translation.y as f64,
            self.translation.z as f64,
            self.euler[0],
            self.euler[1],
            self.euler[2],
        ])
    }

    /// The Euler angles `(roll, pitch, yaw)` this pose was built from.
    pub fn euler(&self) -> [f64; 3] {
        self.euler
    }

    /// Applies the transform to a point: `R·p + t`.
    pub fn apply(&self, p: Point3) -> Point3 {
        self.rotation.mul_point(p) + self.translation
    }

    /// The inverse transform.
    ///
    /// # Examples
    ///
    /// ```
    /// use bonsai_geom::{Point3, Pose};
    /// let pose = Pose::from_translation_euler(Point3::new(1.0, 2.0, 3.0), 0.1, 0.2, 0.3);
    /// let p = Point3::new(4.0, 5.0, 6.0);
    /// let q = pose.inverse().apply(pose.apply(p));
    /// assert!(p.distance(q) < 1e-4);
    /// ```
    pub fn inverse(&self) -> Pose {
        let rot_t = self.rotation.transpose();
        let t = rot_t.mul_point(-self.translation);
        // The inverse of a Z-Y-X Euler rotation is generally not a Z-Y-X
        // rotation with negated angles, so the cached Euler angles of an
        // inverse are only used for reporting; recover yaw/pitch/roll from
        // the matrix.
        Pose::from_translation_rotation(t, rot_t)
    }

    /// The composition `self ∘ other` (apply `other` first).
    pub fn compose(&self, other: &Pose) -> Pose {
        let rotation = self.rotation * other.rotation;
        let translation = self.rotation.mul_point(other.translation) + self.translation;
        Pose::from_translation_rotation(translation, rotation)
    }
}

impl Default for Pose {
    fn default() -> Pose {
        Pose::identity()
    }
}

/// Recovers Z-Y-X Euler angles `[roll, pitch, yaw]` from a rotation
/// matrix.
fn euler_from_matrix(r: &Mat3) -> [f64; 3] {
    // r[2][0] = -sin(pitch), clamped: rounding can carry it past ±1.
    let pitch = (-r[(2, 0)]).clamp(-1.0, 1.0).asin();
    let roll = r[(2, 1)].atan2(r[(2, 2)]);
    let yaw = r[(1, 0)].atan2(r[(0, 0)]);
    [roll, pitch, yaw]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_leaves_points_unchanged() {
        let p = Point3::new(1.0, -2.0, 3.0);
        assert_eq!(Pose::identity().apply(p), p);
    }

    #[test]
    fn inverse_round_trips_points() {
        let pose = Pose::from_translation_euler(Point3::new(5.0, -3.0, 1.0), 0.2, -0.4, 2.0);
        let p = Point3::new(10.0, 20.0, -5.0);
        let back = pose.inverse().apply(pose.apply(p));
        assert!(p.distance(back) < 1e-3, "distance {}", p.distance(back));
    }

    #[test]
    fn compose_matches_sequential_application() {
        let a = Pose::from_translation_euler(Point3::new(1.0, 0.0, 0.0), 0.0, 0.0, 0.5);
        let b = Pose::from_translation_euler(Point3::new(0.0, 2.0, 0.0), 0.1, 0.0, -0.3);
        let p = Point3::new(3.0, 4.0, 5.0);
        let seq = a.apply(b.apply(p));
        let composed = a.compose(&b).apply(p);
        assert!(seq.distance(composed) < 1e-4);
    }

    #[test]
    fn vec6_round_trip() {
        let v = Vec6([1.0, 2.0, 3.0, 0.1, -0.2, 0.3]);
        let got = Pose::from_vec6(v).to_vec6();
        for i in 0..6 {
            assert!((got[i] - v[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn euler_recovery_matches_construction() {
        let pose = Pose::from_translation_euler(Point3::ZERO, 0.3, -0.2, 1.4);
        let [roll, pitch, yaw] = euler_from_matrix(&pose.rotation);
        assert!((roll - 0.3).abs() < 1e-9);
        assert!((pitch + 0.2).abs() < 1e-9);
        assert!((yaw - 1.4).abs() < 1e-9);
    }

    #[test]
    fn pitch_recovery_clamps_a_sine_rounded_past_one() {
        // A quarter pitch up with `r[2][0]` one ulp beyond −1, as a
        // product of rotations can round it: asin would return NaN.
        let past = -1.0 - f64::EPSILON;
        assert!(past < -1.0);
        let rotation = Mat3::from_rows([0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [past, 0.0, 0.0]);
        let pose = Pose::from_translation_rotation(Point3::new(1.0, 2.0, 3.0), rotation);
        assert_eq!(pose.euler()[1], std::f64::consts::FRAC_PI_2);
        assert!(pose.to_vec6().is_finite());
        assert_eq!(pose.rotation, rotation);
        assert_eq!(pose.translation, Point3::new(1.0, 2.0, 3.0));
        // In range, the recovery is exactly the unclamped one.
        let tilted = Mat3::from_euler(0.3, -0.2, 1.4);
        let from_parts = Pose::from_translation_rotation(Point3::ZERO, tilted);
        assert_eq!(from_parts.euler()[1], (-tilted[(2, 0)]).asin());
    }
}
