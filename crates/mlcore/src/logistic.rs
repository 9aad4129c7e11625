//! The logistic loss.

/// Binary cross-entropy of a prediction `p` against a 0/1 label `y`, clamped
/// for numerical stability. The training loss of every learner in the
/// workspace (the MLP here and the DGCNN in `autolock_gnn`).
pub fn binary_cross_entropy(p: f64, y: f64) -> f64 {
    let p = p.clamp(1e-12, 1.0 - 1e-12);
    -(y * p.ln() + (1.0 - y) * (1.0 - p).ln())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_entropy_is_low_for_confident_correct_predictions() {
        assert!(binary_cross_entropy(0.99, 1.0) < 0.05);
        assert!(binary_cross_entropy(0.01, 0.0) < 0.05);
        assert!(binary_cross_entropy(0.01, 1.0) > 2.0);
        assert!(binary_cross_entropy(1.0, 0.0).is_finite());
    }
}
