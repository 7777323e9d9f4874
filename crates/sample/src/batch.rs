//! Mini-batch iteration over training vertices.

use neutron_graph::VertexId;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Splits a training set into shuffled mini-batches (Algorithm 1, line 1).
///
/// Shuffling is seeded per `(seed, epoch)` so epochs differ but runs
/// reproduce.
#[derive(Clone, Debug)]
pub struct BatchIterator {
    train: Vec<VertexId>,
    batch_size: usize,
    seed: u64,
}

impl BatchIterator {
    /// Creates an iterator factory over `train` vertices.
    pub fn new(train: Vec<VertexId>, batch_size: usize, seed: u64) -> Self {
        assert!(batch_size > 0);
        Self {
            train,
            batch_size,
            seed,
        }
    }

    /// Number of batches per epoch (last one may be short).
    pub fn batches_per_epoch(&self) -> usize {
        self.train.len().div_ceil(self.batch_size)
    }

    /// Batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// The iterator's shuffle seed. Together with an epoch number this is
    /// the *complete* rng-stream state: every shuffle is derived fresh from
    /// `seed ^ f(epoch)`, so checkpointing the seed and the next epoch
    /// index reproduces all remaining batch orders — there is no hidden
    /// generator position to save.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The training vertices, in their construction order (the order every
    /// epoch shuffle starts from).
    pub fn train_vertices(&self) -> &[VertexId] {
        &self.train
    }

    /// Returns the shuffled batches for `epoch`.
    pub fn epoch_batches(&self, epoch: usize) -> EpochBatches {
        let mut out = EpochBatches::default();
        self.fill_epoch_batches(epoch, &mut out);
        out
    }

    /// Shuffles `epoch`'s batches into a recycled [`EpochBatches`]: one
    /// flat id buffer whose capacity survives across epochs, with batches
    /// handed out as borrowed chunks. This replaces the old full-clone +
    /// per-chunk `to_vec` (one allocation per batch per epoch) with zero
    /// steady-state allocations; the shuffle itself is unchanged, so batch
    /// contents are bit-identical.
    pub fn fill_epoch_batches(&self, epoch: usize, out: &mut EpochBatches) {
        out.ids.clear();
        out.ids.extend_from_slice(&self.train);
        out.batch_size = self.batch_size;
        let ids = &mut out.ids;
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ (epoch as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        for i in (1..ids.len()).rev() {
            let j = rng.random_range(0..=i);
            ids.swap(i, j);
        }
    }
}

/// One epoch's shuffled training order: a flat vertex buffer sliced into
/// `batch_size` chunks on demand. Produced by
/// [`BatchIterator::fill_epoch_batches`] and reused epoch over epoch.
#[derive(Clone, Debug, Default)]
pub struct EpochBatches {
    ids: Vec<VertexId>,
    batch_size: usize,
}

impl EpochBatches {
    /// Number of batches (the last one may be short).
    pub fn len(&self) -> usize {
        if self.batch_size == 0 {
            0
        } else {
            self.ids.len().div_ceil(self.batch_size)
        }
    }

    /// True when the epoch holds no batches.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The seed vertices of batch `i`.
    pub fn batch(&self, i: usize) -> &[VertexId] {
        let lo = i * self.batch_size;
        let hi = (lo + self.batch_size).min(self.ids.len());
        &self.ids[lo..hi]
    }

    /// Iterates the batches in train order.
    pub fn iter(&self) -> impl Iterator<Item = &[VertexId]> + '_ {
        // `max(1)` keeps the default (empty) value panic-free; it yields
        // nothing either way.
        self.ids.chunks(self.batch_size.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_cover_all_vertices_exactly_once() {
        let it = BatchIterator::new((0..103).collect(), 10, 1);
        assert_eq!(it.batches_per_epoch(), 11);
        let batches = it.epoch_batches(0);
        assert_eq!(batches.len(), 11);
        let mut all: Vec<u32> = batches.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..103).collect::<Vec<_>>());
        assert_eq!(batches.batch(10).len(), 3);
        assert_eq!(batches.iter().last().unwrap(), batches.batch(10));
    }

    #[test]
    fn epochs_shuffle_differently_but_reproducibly() {
        let it = BatchIterator::new((0..50).collect(), 50, 2);
        let e0 = it.epoch_batches(0);
        let e1 = it.epoch_batches(1);
        assert_ne!(
            e0.batch(0),
            e1.batch(0),
            "different epochs should shuffle differently"
        );
        // Refilling a recycled buffer must reproduce the epoch exactly.
        let mut recycled = e1;
        it.fill_epoch_batches(0, &mut recycled);
        assert_eq!(e0.batch(0), recycled.batch(0), "same epoch must reproduce");
    }

    #[test]
    fn default_epoch_batches_is_empty() {
        let eb = EpochBatches::default();
        assert!(eb.is_empty());
        assert_eq!(eb.len(), 0);
        assert_eq!(eb.iter().count(), 0);
    }

    #[test]
    #[should_panic]
    fn zero_batch_size_rejected() {
        let _ = BatchIterator::new(vec![1], 0, 0);
    }
}
