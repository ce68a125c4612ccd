//! Minimal dense linear algebra (f32, matching the engine's native width).
//!
//! Only what the model types, the metrics and the scorers need —
//! deliberately no external BLAS: no timing is ever read off this math (the
//! baselines are priced by the cost model in [`crate::cpu`]), so it only
//! has to be correct, not fast.

/// Dot product.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
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
    fn dot_product() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn sigmoid_stability() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(sigmoid(100.0) > 0.999);
        assert!(sigmoid(-100.0) < 1e-4);
        assert!(sigmoid(-100.0) >= 0.0); // no NaN/underflow blowup
    }
}
