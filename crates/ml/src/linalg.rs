//! Minimal dense linear algebra (f32, matching the engine's native width).
//!
//! Only what the reference trainer, the metrics and the scorers need —
//! deliberately no external BLAS: no timing is ever read off this math (the
//! baselines are priced by the cost model in [`crate::cpu`]), so it only
//! has to be correct, not fast.

/// Dot product.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `y += alpha * x`.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `y *= alpha`.
pub fn scale(alpha: f32, y: &mut [f32]) {
    for yi in y.iter_mut() {
        *yi *= alpha;
    }
}

/// Euclidean norm.
pub fn norm2(a: &[f32]) -> f32 {
    dot(a, a).max(0.0).sqrt()
}

/// Numerically-stable sigmoid.
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-6);
        assert_eq!(norm2(&[]), 0.0);
    }

    #[test]
    fn axpy_scale() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, -1.0], &mut y);
        assert_eq!(y, vec![7.0, -1.0]);
        scale(0.5, &mut y);
        assert_eq!(y, vec![3.5, -0.5]);
    }

    #[test]
    fn sigmoid_stability() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(sigmoid(100.0) > 0.999);
        assert!(sigmoid(-100.0) < 1e-4);
        assert!(sigmoid(-100.0) >= 0.0); // no NaN/underflow blowup
    }
}
