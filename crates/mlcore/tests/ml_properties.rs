//! Property-based tests for the ML substrate.

use autolock_mlcore::metrics::{roc_auc, BinaryMetrics};
use autolock_mlcore::{Dataset, Matrix};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn predictions_and_labels() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    proptest::collection::vec((0.0f64..1.0, proptest::bool::ANY), 1..60).prop_map(|pairs| {
        let (p, l): (Vec<f64>, Vec<bool>) = pairs.into_iter().unzip();
        (p, l.into_iter().map(f64::from).collect())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// All confusion-matrix derived metrics stay in [0, 1] and the counts add
    /// up to the number of examples.
    #[test]
    fn metrics_are_bounded_and_consistent((preds, labels) in predictions_and_labels()) {
        let m = BinaryMetrics::from_predictions(&preds, &labels);
        prop_assert_eq!(m.total(), preds.len());
        for value in [m.accuracy(), m.precision(), m.recall(), m.f1()] {
            prop_assert!((0.0..=1.0).contains(&value), "metric out of range: {value}");
        }
        let auc = roc_auc(&preds, &labels);
        prop_assert!((0.0..=1.0).contains(&auc));
    }

    /// ROC-AUC is invariant under strictly monotone transformations of the
    /// prediction scores.
    #[test]
    fn auc_is_rank_invariant((preds, labels) in predictions_and_labels()) {
        let auc = roc_auc(&preds, &labels);
        let transformed: Vec<f64> = preds.iter().map(|p| (p * 3.0 + 0.1).tanh()).collect();
        let auc_t = roc_auc(&transformed, &labels);
        prop_assert!((auc - auc_t).abs() < 1e-9, "{auc} vs {auc_t}");
    }

    /// Inverting predictions mirrors the AUC around 0.5.
    #[test]
    fn auc_inversion_symmetry((preds, labels) in predictions_and_labels()) {
        let auc = roc_auc(&preds, &labels);
        let inverted: Vec<f64> = preds.iter().map(|p| 1.0 - p).collect();
        let auc_inv = roc_auc(&inverted, &labels);
        prop_assert!((auc + auc_inv - 1.0).abs() < 1e-9);
    }

    /// Dataset splitting partitions the examples: sizes add up and the split
    /// respects the requested fraction within one example.
    #[test]
    fn dataset_split_partitions(
        n in 2usize..80,
        dim in 1usize..6,
        frac in 0.1f64..0.9,
        seed in 0u64..1000,
    ) {
        let rows: Vec<Vec<f64>> = (0..n).map(|i| (0..dim).map(|j| (i * j) as f64).collect()).collect();
        let labels: Vec<f64> = (0..n).map(|i| f64::from(i % 2 == 0)).collect();
        let data = Dataset::from_rows(rows, labels).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (train, val) = data.split(frac, &mut rng);
        prop_assert_eq!(train.len() + val.len(), n);
        prop_assert!(!train.is_empty());
        prop_assert!(!val.is_empty());
        prop_assert_eq!(train.dim(), dim);
        prop_assert_eq!(val.dim(), dim);
    }

    /// Standardizing with the dataset's own statistics yields (near-)zero mean
    /// per feature, and standardize_row agrees with the bulk path.
    #[test]
    fn standardization_consistency(
        n in 2usize..40,
        dim in 1usize..5,
        scale in 1.0f64..100.0,
    ) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..dim).map(|j| scale * ((i + j * 3) as f64).sin()).collect())
            .collect();
        let labels = vec![0.0; n];
        let data = Dataset::from_rows(rows.clone(), labels).unwrap();
        let (mean, std) = data.feature_stats();
        let standardized = data.standardized(&mean, &std);
        let (mean2, _) = standardized.feature_stats();
        for m in mean2 {
            prop_assert!(m.abs() < 1e-6);
        }
        for (i, row) in rows.iter().enumerate() {
            let single = Dataset::standardize_row(row, &mean, &std);
            for (a, b) in single.iter().zip(standardized.features_of(i)) {
                prop_assert!((a - b).abs() < 1e-12);
            }
        }
    }

    /// Matrix matvec distributes over vector addition.
    #[test]
    fn matvec_is_linear(
        rows in 1usize..6,
        cols in 1usize..6,
        seed in 0u64..1000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let m = Matrix::random(rows, cols, 2.0, &mut rng);
        let x = Matrix::random(1, cols, 2.0, &mut rng);
        let y = Matrix::random(1, cols, 2.0, &mut rng);
        let sum: Vec<f64> = x.row(0).iter().zip(y.row(0)).map(|(a, b)| a + b).collect();
        let lhs = m.matvec(&sum);
        let rhs: Vec<f64> = m
            .matvec(x.row(0))
            .iter()
            .zip(m.matvec(y.row(0)))
            .map(|(a, b)| a + b)
            .collect();
        for (a, b) in lhs.iter().zip(&rhs) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }
}
