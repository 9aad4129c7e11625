//! `muxlink`: MuxLink attacks on D-MUX-locked structured circuits with both
//! backends, each run on a fresh attack instance (cold subgraph cache) and
//! then again on the same instance (warm cache), through the split
//! `find_candidates` / `train_model` / `attack_with_model` calls.

use crate::trace::{median, ratio, Tracer};
use crate::{Counters, Pass, Workload};
use autolock_attacks::{AttackOutcome, MuxLinkAttack, MuxLinkBackend, MuxLinkConfig};
use autolock_circuits::suite_circuit;
use autolock_locking::{DMuxLocking, LockedNetlist, LockingScheme};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

struct Cell {
    locked: LockedNetlist,
    seed: u64,
}

/// Cache hits and misses of the cold and the warm runs.
#[derive(Default)]
struct CacheTally {
    cold: (u64, u64),
    warm: (u64, u64),
}

pub struct MuxLink {
    cells: Vec<Cell>,
    configs: Vec<MuxLinkConfig>,
    accuracy: Vec<f64>,
    traced_cache: CacheTally,
}

/// (circuit, key bits, locks). Each lock is its own cell with its own seed.
/// How long training takes depends on where the key sits: with one lock per
/// circuit, five seeds spread the pass time by 10%, so a pass attacks two.
fn cells(smoke: bool) -> Vec<(&'static str, usize, usize)> {
    if smoke {
        vec![("s160", 4, 1)]
    } else {
        vec![("st1355", 16, 2), ("st3540", 32, 2)]
    }
}

/// The two backends' configurations, each attack on one thread (see `main`).
fn configs(smoke: bool) -> Vec<MuxLinkConfig> {
    let (mlp, gnn) = (
        MuxLinkConfig::fast().with_threads(1),
        MuxLinkConfig::gnn_fast().with_threads(1),
    );
    if smoke {
        let tiny = |c: MuxLinkConfig| MuxLinkConfig {
            epochs: 2,
            max_train_samples_per_class: 20,
            ensemble: 1,
            ..c
        };
        return vec![tiny(mlp), tiny(gnn)];
    }
    vec![mlp, gnn]
}

fn backend(config: &MuxLinkConfig) -> &'static str {
    match config.backend {
        MuxLinkBackend::Mlp => "mlp",
        MuxLinkBackend::Gnn => "gnn",
    }
}

pub fn setup(seed: u64, smoke: bool, tr: &Tracer) -> MuxLink {
    let cells: Vec<Cell> = cells(smoke)
        .into_iter()
        .flat_map(|(name, key_len, locks)| (0..locks).map(move |_| (name, key_len)))
        .enumerate()
        .map(|(i, (name, key_len))| {
            let original = suite_circuit(name).expect("suite member");
            let cell_seed = seed ^ ((i as u64 + 1) << 40);
            let mut rng = ChaCha8Rng::seed_from_u64(cell_seed);
            let (locked, _) = tr.time("locking.lock", || {
                DMuxLocking::default()
                    .lock(&original, key_len, &mut rng)
                    .expect("suite members host the key")
            });
            Cell {
                locked,
                seed: cell_seed,
            }
        })
        .collect();
    let configs = configs(smoke);
    // Warm-up: one MLP attack on the first cell.
    let mut rng = ChaCha8Rng::seed_from_u64(cells[0].seed);
    MuxLinkAttack::new(configs[0].clone()).attack_with_scores(&cells[0].locked, &mut rng);
    MuxLink {
        cells,
        configs,
        accuracy: Vec::new(),
        traced_cache: CacheTally::default(),
    }
}

/// One attack through the split API; returns the outcome and the cache
/// (hits, misses) it caused.
fn attack(attack: &MuxLinkAttack, cell: &Cell, tr: &Tracer) -> (AttackOutcome, (u64, u64)) {
    let (train, score) = match attack.config().backend {
        MuxLinkBackend::Mlp => ("attacks.muxlink.mlp.train", "attacks.muxlink.mlp.score"),
        MuxLinkBackend::Gnn => ("attacks.muxlink.gnn.train", "attacks.muxlink.gnn.score"),
    };
    let before = attack.cache_stats();
    let mut rng = ChaCha8Rng::seed_from_u64(cell.seed);
    let locked = &cell.locked;
    tr.time("attacks.muxlink.candidates", || {
        std::hint::black_box(MuxLinkAttack::find_candidates(locked.netlist()))
    });
    let (model, _) = tr.time(train, || attack.train_model(locked, &mut rng));
    let ((outcome, _), _) = tr.time(score, || attack.attack_with_model(locked, &model, &mut rng));
    let after = attack.cache_stats();
    (
        outcome,
        (after.hits - before.hits, after.misses - before.misses),
    )
}

/// Whether an outcome is well formed for `locked`.
fn well_formed(out: &AttackOutcome, locked: &LockedNetlist) -> bool {
    (0.0..=1.0).contains(&out.key_accuracy)
        && out.key_len == locked.key_len()
        && out.predicted_key().len() == locked.key_len()
}

impl Workload for MuxLink {
    fn pass(&mut self, tr: &Tracer) -> Pass {
        let mut pass = Pass::default();
        let mut runs = Vec::new();
        let mut tally = CacheTally::default();
        let clock = tr.stopwatch();
        for (i, cell) in self.cells.iter().enumerate() {
            for config in &self.configs {
                let instance = MuxLinkAttack::new(config.clone());
                for warm in [false, true] {
                    tr.begin_op();
                    let ((out, (hits, misses)), times) =
                        tr.time("attacks.muxlink.attack", || attack(&instance, cell, tr));
                    let phase = if warm { "warm" } else { "cold" };
                    let op = format!(
                        "{}#{i}.{}.{phase}",
                        cell.locked.original_name(),
                        backend(config)
                    );
                    pass.op_times.entry(op).or_default().push(times);
                    let side = if warm {
                        &mut tally.warm
                    } else {
                        &mut tally.cold
                    };
                    side.0 += hits;
                    side.1 += misses;
                    runs.push((cell, warm, out));
                }
            }
        }
        pass.time = clock.read();
        if tr.recording() {
            let t = &mut self.traced_cache;
            t.cold = (t.cold.0 + tally.cold.0, t.cold.1 + tally.cold.1);
            t.warm = (t.warm.0 + tally.warm.0, t.warm.1 + tally.warm.1);
        }
        // The warm run repeats the cold run with the same seed: the cache
        // must not change the result.
        for pair in runs.chunks(2) {
            let [(cell, _, cold), (_, _, warm)] = pair else {
                unreachable!("runs come in cold/warm pairs")
            };
            for out in [cold, warm] {
                pass.ops += 1;
                self.accuracy.push(out.key_accuracy);
                let same = cold.predicted_key() == warm.predicted_key()
                    && cold.key_accuracy == warm.key_accuracy;
                if !(well_formed(out, &cell.locked) && same) {
                    eprintln!(
                        "muxlink: bad outcome on {}: {out:?}",
                        cell.locked.original_name()
                    );
                    pass.failed += 1;
                }
            }
        }
        pass
    }

    fn layers(
        &mut self,
        tr: &Tracer,
        counters: &Counters,
        traced: usize,
    ) -> Vec<(&'static str, f64)> {
        let rate = |(hits, misses): (u64, u64)| ratio(hits as f64, (hits + misses) as f64);
        let t = &self.traced_cache;
        let gnn_train: f64 = tr.durations("attacks.muxlink.gnn.train").iter().sum();
        let examples = counters.get("gnn.train_examples").copied().unwrap_or(0) as f64;
        let m = |name: &str| median(&tr.durations(name));
        vec![
            (
                "attacks.muxlink.candidates_s",
                m("attacks.muxlink.candidates"),
            ),
            (
                "attacks.muxlink.mlp.train_s",
                m("attacks.muxlink.mlp.train"),
            ),
            (
                "attacks.muxlink.gnn.train_s",
                m("attacks.muxlink.gnn.train"),
            ),
            (
                "attacks.muxlink.mlp.score_s",
                m("attacks.muxlink.mlp.score"),
            ),
            (
                "attacks.muxlink.gnn.score_s",
                m("attacks.muxlink.gnn.score"),
            ),
            ("attacks.subgraph_cache.hit_rate.cold", rate(t.cold)),
            ("attacks.subgraph_cache.hit_rate.warm", rate(t.warm)),
            (
                "attacks.subgraph_cache.misses",
                ratio((t.cold.1 + t.warm.1) as f64, traced as f64),
            ),
            ("gnn.train_examples_per_s", ratio(examples, gnn_train)),
            ("locking.lock_s", m("locking.lock")),
        ]
    }

    fn quality(&self) -> Vec<(&'static str, f64, &'static str)> {
        let mean = ratio(self.accuracy.iter().sum(), self.accuracy.len() as f64);
        vec![("muxlink_key_accuracy", mean, "ratio")]
    }
}
