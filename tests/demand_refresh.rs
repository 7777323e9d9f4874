//! The demand-driven super-batch refresh: a boundary recomputes only the
//! hot rows the next super-batch reads, and nothing a reader can observe —
//! loss bits, version gaps, `max_staleness` — moves because of it.

use neutronorch::cache::EmbeddingRows;
use neutronorch::core::pool::BatchBuffers;
use neutronorch::core::refresh::{
    CpuPart, InlineRefresh, RefreshBackend, RefreshOutput, RefreshTask,
};
use neutronorch::core::trainer::{
    batch_sample_seed, ConvergenceTrainer, PreparedBatch, ReusePolicy, TrainerConfig,
};
use neutronorch::graph::DatasetSpec;
use neutronorch::nn::LayerKind;
use proptest::prelude::*;
use std::collections::HashMap;

/// `(loss bits, max_staleness)` of epochs 0–3.
type Trajectory = [(u32, u64); 4];

fn trajectory(kind: LayerKind, policy: ReusePolicy) -> Trajectory {
    let ds = DatasetSpec::tiny().build_full();
    let mut cfg = TrainerConfig::convergence_default(kind, policy);
    cfg.batch_size = 64;
    let mut t = ConvergenceTrainer::new(ds, cfg);
    std::array::from_fn(|e| {
        let obs = t.train_epoch(e);
        (obs.train_loss.to_bits(), obs.max_staleness)
    })
}

fn hotness(hot_ratio: f64, n: usize) -> ReusePolicy {
    ReusePolicy::HotnessAware {
        hot_ratio,
        super_batch: n,
    }
}

/// Four epochs of `DatasetSpec::tiny()` at batch 64 (4 batches an epoch, so
/// `n = 3` and `n = 5` leave a partial last super-batch), against values
/// recorded from the commit *before* refreshes became demand-driven, when
/// every boundary recomputed the whole hot set.
#[test]
fn trajectories_are_bit_identical_to_the_whole_hot_set_refresh() {
    use LayerKind::{Gcn, Sage};
    #[rustfmt::skip]
    let golden: [(LayerKind, ReusePolicy, Trajectory); 10] = [
        (Gcn, hotness(0.3, 1), [(1063829595, 1), (1052234109, 1), (1037706499, 1), (1032492768, 1)]),
        (Gcn, hotness(0.3, 2), [(1064966179, 3), (1052323400, 3), (1037339320, 3), (1032296049, 3)]),
        (Gcn, hotness(0.3, 3), [(1064966179, 3), (1052158808, 3), (1037388333, 3), (1032261295, 3)]),
        (Gcn, hotness(0.3, 5), [(1064966179, 3), (1054212986, 7), (1037265894, 7), (1031670005, 7)]),
        (Sage, hotness(0.3, 1), [(1068704477, 1), (1016533823, 1), (999892381, 1), (1009548457, 1)]),
        (Sage, hotness(0.3, 2), [(1071286588, 3), (1026720892, 3), (985936538, 3), (1007942804, 3)]),
        (Sage, hotness(0.3, 3), [(1071286588, 3), (1025589856, 3), (987885845, 3), (1008569327, 3)]),
        (Sage, hotness(0.3, 5), [(1071286588, 3), (1033906977, 7), (987821299, 7), (999214319, 7)]),
        (Gcn, ReusePolicy::Exact, [(1062364526, 0), (1050753624, 0), (1035200904, 0), (1030941954, 0)]),
        (Gcn, ReusePolicy::GasLike, [(1065918416, 3), (1059623438, 7), (1054114546, 11), (1051090490, 15)]),
    ];
    for (kind, policy, want) in golden {
        let got = trajectory(kind, policy.clone());
        assert_eq!(got, want, "{kind:?} under {policy:?}");
    }
}

/// `InlineRefresh` that keeps a copy of every task's output — every
/// boundary's, the priming one included.
#[derive(Default)]
struct Recording {
    inner: InlineRefresh,
    tasks: Vec<(u64, EmbeddingRows)>,
}

impl RefreshBackend for Recording {
    fn submit(&mut self, task: RefreshTask) -> CpuPart {
        let part = self.inner.submit(task);
        if let CpuPart::Ready(out) = &part {
            self.tasks.push((out.version, out.rows.clone()));
        }
        part
    }

    fn collect(&mut self) -> RefreshOutput {
        self.inner.collect()
    }
}

/// Step `i` of `epoch` for `replicas` replicas: batches `iR..(i+1)R` of
/// the epoch, staged through the trainer's own sampler, all indexed `index`.
fn step(
    t: &ConvergenceTrainer,
    epoch: usize,
    i: usize,
    replicas: usize,
    index: usize,
) -> Vec<PreparedBatch> {
    let (ds, batches) = (t.dataset_handle(), t.epoch_batches(epoch));
    (i * replicas..(i + 1) * replicas)
        .map(|b| {
            let seed = batch_sample_seed(t.config().seed, epoch, b);
            let blocks = t.sampler().sample_batch(&ds.csr, batches.batch(b), seed);
            let features = ds.features().gather_rows_u32(blocks[0].src());
            let scrap = BatchBuffers::new();
            PreparedBatch {
                index,
                blocks,
                features,
                hits: Default::default(),
                scrap,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// What a boundary refreshes is what the next super-batch reads.
    ///
    /// Trainer `a` gets each epoch as one stream, so its loop sees the next
    /// super-batch at every boundary but the epoch's last. Trainer `b` gets
    /// one super-batch per call, so no boundary of it ever sees a next one
    /// and each recomputes the whole hot set — the refresh as it was before
    /// it became demand-driven, on the same snapshots.
    #[test]
    fn what_is_refreshed_is_what_is_read(
        seed in 0u64..10_000,
        vertices in 120usize..260,
        hot_ratio in 0.05f64..0.7,
        ratio_mode in 0usize..4,
        n in 0usize..4,
        layers in 2usize..4,
        replicas in 1usize..3,
        sage in any::<bool>(),
        batch_size in 5usize..12,
        cut in 0usize..64,
    ) {
        let n = [1usize, 2, 3, 5][n];
        let hot_ratio = match ratio_mode {
            0 => 0.0,
            1 => 1.0,
            _ => hot_ratio,
        };
        let mut spec = DatasetSpec::tiny();
        spec.vertices = vertices;
        spec.edges = vertices * 8;
        spec.seed = seed;
        let kind = if sage { LayerKind::Sage } else { LayerKind::Gcn };
        // An epoch whose step count is not a multiple of n (for n > 1).
        let train = spec.build_full().train.len();
        let steps_at = |bs: usize| train.div_ceil(bs) / replicas;
        let batch_size = (batch_size..).find(|&bs| n == 1 || steps_at(bs) % n != 0).unwrap();
        let trainer = || {
            let mut cfg = TrainerConfig::convergence_default(kind, hotness(hot_ratio, n));
            cfg.layers = layers;
            cfg.batch_size = batch_size;
            cfg.seed = seed ^ 0xacc;
            ConvergenceTrainer::new(spec.build_full(), cfg)
        };
        let (mut a, mut b, probe) = (trainer(), trainer(), trainer());
        let hot = probe.hot_set().unwrap();
        prop_assert_eq!(a.lookahead(), if hot.is_empty() { 0 } else { 2 * n - 1 });

        // Two epochs, the second cut short after a random number of steps,
        // so the last super-batch of the run is any super-batch.
        let full = steps_at(batch_size);
        let lens = [full, 1 + cut % full];
        let (mut rec_a, mut rec_b) = (Recording::default(), Recording::default());
        let (mut losses_a, mut losses_b) = (Vec::new(), Vec::new());
        // Per boundary of the run, in order: its version and the worklist
        // it should launch.
        let mut boundaries: Vec<(u64, Vec<u32>)> = Vec::new();
        // Hot rows the last super-batch of the run reads.
        let mut last_reads: Vec<u32> = Vec::new();
        let mut version = 0u64;
        for (epoch, &len) in lens.iter().enumerate() {
            // Sorted, deduped hot ∩ blocks[1].src() over super-batch `from..`.
            let reads_of = |from: usize| {
                let mut reads: Vec<u32> = (from..(from + n).min(len))
                    .flat_map(|i| step(&probe, epoch, i, replicas, i))
                    .flat_map(|item| item.blocks[1].src().to_vec())
                    .filter(|&v| hot.contains(v))
                    .collect();
                reads.sort_unstable();
                reads.dedup();
                reads
            };
            for k in (0..len).step_by(n) {
                let primes = boundaries.is_empty();
                let worklist = if primes || k + n >= len {
                    hot.vertices().to_vec()
                } else {
                    reads_of(k + n)
                };
                boundaries.push((version + k as u64, worklist));
                last_reads = reads_of(k);
            }
            version += len as u64;

            let stream = (0..len).map(|i| step(&probe, epoch, i, replicas, i));
            losses_a.extend(a.train_steps_replicated(stream, &mut rec_a, |_| {}).losses);
            for k in (0..len).step_by(n) {
                let chunk = (k..(k + n).min(len)).map(|i| step(&probe, epoch, i, replicas, i - k));
                losses_b.extend(b.train_steps_replicated(chunk, &mut rec_b, |_| {}).losses);
            }
        }

        let bits = |l: &[f32]| l.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&losses_a), bits(&losses_b));
        prop_assert_eq!(a.max_staleness(), b.max_staleness());
        prop_assert_eq!(a.embedding_reuses(), b.embedding_reuses());
        prop_assert!(a.max_staleness() < 2 * n as u64);
        if hot.is_empty() {
            prop_assert!(rec_a.tasks.is_empty() && rec_b.tasks.is_empty());
            boundaries.clear();
        }
        let rows_launched: usize = boundaries.iter().map(|(_, worklist)| worklist.len()).sum();
        prop_assert_eq!(a.refresh_rows(), rows_launched as u64);

        // Every boundary goes through the backend, priming included.
        prop_assert_eq!(rec_a.tasks.len(), boundaries.len());
        prop_assert_eq!(rec_b.tasks.len(), boundaries.len());
        for (((at, worklist), (va, ra)), (vb, rb)) in
            boundaries.iter().zip(&rec_a.tasks).zip(&rec_b.tasks)
        {
            prop_assert_eq!((*va, *vb), (*at, *at), "stamped with the boundary's version");
            prop_assert_eq!(rb.vertices(), hot.vertices());
            prop_assert_eq!(ra.vertices(), &worklist[..]);
            let whole: HashMap<u32, &[f32]> = rb.iter().collect();
            for (v, row) in ra.iter() {
                prop_assert_eq!(row, whole[&v], "row of v{} at version {}", v, at);
            }
        }

        // Every hot row the last super-batch read sits in the store stamped
        // with the version of the boundary before its own — launched there,
        // published at its own — and holds that boundary's row.
        if let [.., (stamp, worklist), _] = &boundaries[..] {
            let store = a.capture_state(&mut rec_a).store.unwrap();
            let stored: HashMap<u32, (&[f32], u64)> = store
                .rows
                .iter()
                .zip(&store.versions)
                .map(|((v, row), &at)| (v, (row, at)))
                .collect();
            prop_assert_eq!(stored.len(), hot.len());
            prop_assert!(last_reads.iter().all(|v| worklist.contains(v)));
            // `b`'s rows from that boundary.
            let whole: HashMap<u32, &[f32]> = rec_b.tasks[boundaries.len() - 2].1.iter().collect();
            for (v, (row, at)) in stored {
                // Rows outside the worklist keep an older stamp.
                prop_assert_eq!(at == *stamp, worklist.contains(&v), "v{} stamped {}", v, at);
                if at == *stamp {
                    prop_assert_eq!(row, whole[&v]);
                }
            }
        }
    }
}
