//! Serialization contract for the model registry: a trained [`Dgcnn`]
//! written through serde and read back must be the *same model* — equal
//! parameters and optimizer state, bit-identical scores, and able to keep
//! training from where it left off.

use autolock_gnn::{Dgcnn, DgcnnConfig, SubgraphTensor};
use autolock_mlcore::Matrix;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A small random connected graph tensor with `n` nodes and `f` features.
fn random_graph(n: usize, f: usize, seed: u64) -> SubgraphTensor {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut x = Matrix::zeros(n, f);
    for r in 0..n {
        for c in 0..f {
            x.set(r, c, rng.gen_range(-1.0..1.0));
        }
    }
    let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    for _ in 0..n / 2 {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b && !edges.contains(&(a, b)) && !edges.contains(&(b, a)) {
            edges.push((a, b));
        }
    }
    let mut degree = vec![0usize; n];
    for &(a, b) in &edges {
        degree[a] += 1;
        degree[b] += 1;
    }
    let mut adj: Vec<Vec<(usize, f64)>> = (0..n).map(|i| vec![(i, 1.0)]).collect();
    for &(a, b) in &edges {
        adj[a].push((b, 1.0));
        adj[b].push((a, 1.0));
    }
    for (i, row) in adj.iter_mut().enumerate() {
        let norm = 1.0 / (degree[i] as f64 + 1.0);
        for e in row.iter_mut() {
            e.1 *= norm;
        }
    }
    SubgraphTensor::from_parts(x, adj)
}

fn dataset(count: usize) -> (Vec<SubgraphTensor>, Vec<f64>) {
    let graphs: Vec<SubgraphTensor> = (0..count)
        .map(|i| random_graph(6 + i % 5, 6, 4_100 + i as u64))
        .collect();
    let labels: Vec<f64> = (0..count).map(|i| f64::from(i % 2 == 0)).collect();
    (graphs, labels)
}

fn trained_model(graphs: &[SubgraphTensor], labels: &[f64]) -> Dgcnn {
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let mut model = Dgcnn::new(
        DgcnnConfig {
            epochs: 4,
            batch_size: 8,
            ..DgcnnConfig::for_features(6)
        },
        &mut rng,
    );
    model.train(graphs, labels, &mut rng);
    model
}

#[test]
fn round_trip_preserves_model_and_scores_exactly() {
    let (graphs, labels) = dataset(12);
    let model = trained_model(&graphs, &labels);
    let json = serde_json::to_string(&model).expect("serialize");
    let restored: Dgcnn = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(restored, model);
    assert_eq!(restored.config(), model.config());
    let original_scores = model.score_batch(&graphs);
    let restored_scores = restored.score_batch(&graphs);
    for (a, b) in original_scores.iter().zip(&restored_scores) {
        assert_eq!(a.to_bits(), b.to_bits(), "score diverged after round trip");
    }
}

/// Optimizer state survives the round trip too: continuing training on the
/// restored model matches continuing on the original bit-for-bit. This is
/// what lets the service registry warm-start instead of retraining.
#[test]
fn round_trip_resumes_training_bit_identically() {
    let (graphs, labels) = dataset(12);
    let mut original = trained_model(&graphs, &labels);
    let json = serde_json::to_string(&original).expect("serialize");
    let mut restored: Dgcnn = serde_json::from_str(&json).expect("deserialize");

    let mut rng_a = ChaCha8Rng::seed_from_u64(9);
    let mut rng_b = ChaCha8Rng::seed_from_u64(9);
    let loss_a = original.train(&graphs, &labels, &mut rng_a);
    let loss_b = restored.train(&graphs, &labels, &mut rng_b);
    assert_eq!(loss_a.to_bits(), loss_b.to_bits());
    assert_eq!(original.score_batch(&graphs), restored.score_batch(&graphs));
}
