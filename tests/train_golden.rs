//! Golden digests of short training sessions: per-epoch loss and test
//! accuracy bits and the final parameter bits, pinned across commits.
//!
//! The other training tests are identities within one build (a session
//! equals the sequential trainer, a cache budget never moves the
//! trajectory, …). A change to a kernel or a layer that both sides share
//! would pass all of them while moving every number; this file catches it.
//! Each case folds into one FNV-1a digest (spelled out because `std`'s
//! `DefaultHasher` does not promise a stable algorithm): per epoch the
//! `f32` loss bits and the `f64` accuracy bits, then every parameter
//! matrix's shape and value bits in the model's parameter order.
//!
//! The cases run on `DatasetSpec::tiny()`: GCN at R = 1 under the
//! hotness-aware policy with a cache budget that holds part of the feature
//! table (mixed hits and misses), GCN at R = 1 under `Exact` (no cache),
//! GraphSAGE at R = 2 (each lane caches its owned vertices, so every batch
//! mixes hits and misses) and GAT at R = 1 with the partial budget. When a
//! trajectory is changed deliberately, run the test, copy the table it
//! prints and say why in the commit.

use neutronorch::core::refresh::InlineRefresh;
use neutronorch::core::session::{Session, SessionConfig};
use neutronorch::core::trainer::{ConvergenceTrainer, ReusePolicy, TrainerConfig};
use neutronorch::graph::DatasetSpec;
use neutronorch::nn::LayerKind;

const EXPECTED: [(&str, u64); 4] = [
    ("gcn-hot-r1-partial-cache", 0x9733_963d_e37e_87be),
    ("gcn-exact-r1", 0x381b_b320_6426_ecea),
    ("sage-hot-r2", 0x8b61_600c_9cfe_3c86),
    ("gat-hot-r1-partial-cache", 0x8ee8_0bb1_e461_ef6e),
];

/// Epochs per case: enough for several super-batch boundaries and two
/// evaluations after the first.
const EPOCHS: usize = 3;

struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn hot_policy() -> ReusePolicy {
    ReusePolicy::HotnessAware {
        hot_ratio: 0.3,
        super_batch: 2,
    }
}

/// Trains `EPOCHS` epochs of `kind` under `policy` in a session of
/// `replicas` lanes, each caching up to `cache_rows` feature rows, and
/// digests the trajectory.
fn digest(kind: LayerKind, policy: ReusePolicy, replicas: usize, cache_rows: u64) -> u64 {
    let ds = DatasetSpec::tiny().build_full();
    let row_bytes = ds.spec.feature_row_bytes();
    let mut cfg = TrainerConfig::convergence_default(kind, policy);
    cfg.batch_size = 48;
    cfg.lr = 0.4;
    let mut trainer = ConvergenceTrainer::new(ds, cfg);
    let session = Session::new(SessionConfig {
        replicas,
        gpu_free_bytes: cache_rows * row_bytes,
        ..SessionConfig::default()
    })
    .run_session(&mut trainer, 0, EPOCHS);
    let mut h = Fnv1a::new();
    assert_eq!(session.epochs.len(), EPOCHS);
    for run in &session.epochs {
        h.u64(u64::from(run.observation.train_loss.to_bits()));
        h.u64(run.observation.test_accuracy.to_bits());
        if trainer.hot_set().is_some() {
            assert!(
                run.report.cache_hits > 0 && run.report.cache_misses > 0,
                "epoch {}: the case must mix hits and misses ({} hits, {} misses)",
                run.epoch,
                run.report.cache_hits,
                run.report.cache_misses
            );
        }
    }
    for p in trainer.capture_state(&mut InlineRefresh::default()).params {
        h.u64(p.rows() as u64);
        h.u64(p.cols() as u64);
        for &x in p.as_slice() {
            h.u64(u64::from(x.to_bits()));
        }
    }
    h.0
}

#[test]
fn training_trajectories_match_their_golden_digests() {
    let got = [
        digest(LayerKind::Gcn, hot_policy(), 1, 100),
        digest(LayerKind::Gcn, ReusePolicy::Exact, 1, 100),
        digest(LayerKind::Sage, hot_policy(), 2, 1_000),
        digest(LayerKind::Gat, hot_policy(), 1, 100),
    ];
    let table: Vec<String> = EXPECTED
        .iter()
        .zip(got)
        .map(|((case, _), d)| format!("    (\"{case}\", 0x{d:016x}),"))
        .collect();
    let moved: Vec<&str> = EXPECTED
        .iter()
        .zip(got)
        .filter(|((_, want), d)| want != d)
        .map(|((case, _), _)| *case)
        .collect();
    assert!(
        moved.is_empty(),
        "training trajectories moved: {moved:?}\nnew table:\n{}",
        table.join("\n")
    );
}
