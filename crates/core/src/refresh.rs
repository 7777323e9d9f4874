//! The super-batch hot-embedding refresh as a detachable unit of work.
//!
//! NeutronOrch's Fig 8 timeline overlaps the CPU's hot-embedding refresh
//! with ongoing GPU training. To make that overlap *deterministic*, the
//! refresh is factored into a [`RefreshTask`]: a pure closure over
//!
//! - an **immutable parameter snapshot** of the bottom layer (cloned
//!   [`neutron_nn::param::Param`] values inside a [`Layer`]), taken on the
//!   train thread at a super-batch boundary,
//! - the list of hot vertices to recompute, and
//! - a sampling seed derived from the boundary's model version.
//!
//! Running the task later — on a background worker, or inline — always
//! produces bit-identical rows, because the snapshot freezes the weights
//! and [`NeighborSampler::sample_one_hop_stable_with_scratch`] seeds
//! neighbor draws per vertex, making the output independent of *where*,
//! *when* and over *which subset* of the hot set the task runs. That
//! subset independence lets a boundary recompute only the hot rows the next
//! super-batch reads (§4.2) without perturbing the training trajectory.
//!
//! Every refresh row is computed by the trainer's [`RefreshBackend`], one
//! task per boundary: the sequential trainer uses [`InlineRefresh`]
//! (compute at submission, on the train thread); a
//! [`crate::session::Session`] ships tasks to its background refresh worker
//! and collects the rows at the next boundary. (§4.1.3's CPU/GPU split of
//! the hot set lives in the simulator, Fig 13.)
//!
//! Rows created at boundary `k` are published at boundary `k+1`, so reads
//! during super-batch `k+1` see a version gap in `[n, 2n−1]`. The one
//! exception is the first boundary of a fresh trainer: the training device
//! never computes a hot vertex (the sampler prunes them from the bottom
//! block), so that boundary's task covers the whole hot set, is resolved
//! through the backend at once, and is published immediately as well as
//! kept pending — reads in super-batch 0 see gap `[0, n−1]`
//! (`ConvergenceTrainer::refresh_boundary`). The task itself always samples
//! through [`NeighborSampler::sample_one_hop_stable_with_scratch`], which
//! never prunes: the refresh is what computes the hot rows.

use neutron_cache::EmbeddingRows;
use neutron_graph::{Dataset, VertexId};
use neutron_nn::layers::Layer;
use neutron_sample::{NeighborSampler, SamplerScratch};
use neutron_tensor::RowView;
use std::sync::Arc;

/// One super-batch's refresh work over a subset of the hot set.
pub struct RefreshTask {
    dataset: Arc<Dataset>,
    /// Immutable snapshot of the bottom layer's parameters.
    bottom: Layer,
    sampler: NeighborSampler,
    vertices: Vec<VertexId>,
    /// Model version the snapshot was taken at; stamps the output rows and
    /// seeds the neighbour draws.
    version: u64,
}

/// The rows a [`RefreshTask`] produced, ready to publish into the
/// historical-embedding store at the next super-batch boundary — also what
/// a checkpoint keeps of a refresh still pending.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RefreshOutput {
    /// One embedding row per task vertex.
    pub rows: EmbeddingRows,
    /// Version stamp for every row (the snapshot's model version).
    pub version: u64,
}

impl RefreshTask {
    /// Captures a refresh task. `bottom` must be a clone of the model's
    /// bottom layer taken at the boundary (the parameter snapshot); the
    /// bottom hop samples at `sampler`'s bottom fanout.
    pub fn new(
        dataset: Arc<Dataset>,
        bottom: Layer,
        sampler: NeighborSampler,
        vertices: Vec<VertexId>,
        version: u64,
    ) -> Self {
        Self {
            dataset,
            bottom,
            sampler,
            vertices,
            version,
        }
    }

    /// Executes the task: partition-stable one-hop sampling, feature
    /// gather, bottom-layer forward under the frozen snapshot, on the
    /// calling thread. Pure — safe to run on any thread, any number of
    /// times, with identical results. It samples into the caller's
    /// `scratch`, so a backend looping over tasks amortises the dedup
    /// buffers instead of re-zeroing `O(|V|)` state per super-batch.
    pub fn run(&self, scratch: &mut SamplerScratch) -> RefreshOutput {
        let rows = if self.vertices.is_empty() {
            EmbeddingRows::default()
        } else {
            let block = self.sampler.sample_one_hop_stable_with_scratch(
                &self.dataset.csr,
                &self.vertices,
                self.sampler.fanout().at(0),
                self.version ^ 0x5b,
                scratch,
            );
            // Host rows read in place by vertex id (the "CPU" side holds the
            // whole table): the same floats the train path's view yields.
            let feats = RowView::gather(self.dataset.features(), block.src());
            // One output row per `block.dst()` vertex, i.e. per task vertex.
            let (out, _ctx) = self.bottom.forward(&block, feats);
            EmbeddingRows::new(self.vertices.clone(), out)
        };
        RefreshOutput {
            rows,
            version: self.version,
        }
    }
}

/// Where a refresh executes — every refresh row the trainer publishes comes
/// from its backend.
///
/// `submit` is called at the super-batch boundary that *creates* the task;
/// the result is needed one super-batch later, at the boundary that
/// *publishes* it. A backend may therefore compute asynchronously between
/// the two calls. The priming boundary of a fresh trainer needs its rows at
/// once and collects a `Submitted` task straight away.
pub trait RefreshBackend {
    /// Begins computing `task`; returns either the finished rows
    /// ([`CpuPart::Ready`]) or [`CpuPart::Submitted`] if the backend will
    /// deliver them through [`RefreshBackend::collect`].
    fn submit(&mut self, task: RefreshTask) -> CpuPart;

    /// Blocks until the rows of the previously `Submitted` task are ready.
    /// Called exactly once per `Submitted` return.
    fn collect(&mut self) -> RefreshOutput;
}

/// A boundary's refresh between the boundary that created it and the one
/// that publishes it (named for the deleted §4.1.3 split's CPU share; kept
/// for callers that name it).
pub enum CpuPart {
    /// Rows already computed (inline backend).
    Ready(RefreshOutput),
    /// Rows owed by the backend's worker; resolve with
    /// [`RefreshBackend::collect`].
    Submitted,
}

impl CpuPart {
    /// The rows, collecting them from `backend` if they are still owed.
    pub(crate) fn resolve(self, backend: &mut dyn RefreshBackend) -> RefreshOutput {
        match self {
            CpuPart::Ready(out) => out,
            CpuPart::Submitted => backend.collect(),
        }
    }
}

/// The synchronous backend: computes on the submitting (train) thread.
/// This is the sequential baseline's execution site — same numbers as any
/// asynchronous backend, no overlap.
#[derive(Default)]
pub struct InlineRefresh {
    scratch: SamplerScratch,
}

impl RefreshBackend for InlineRefresh {
    fn submit(&mut self, task: RefreshTask) -> CpuPart {
        CpuPart::Ready(task.run(&mut self.scratch))
    }

    fn collect(&mut self) -> RefreshOutput {
        unreachable!("inline refresh never leaves a task in flight")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neutron_graph::DatasetSpec;
    use neutron_nn::layers::LayerKind;
    use neutron_sample::Fanout;

    fn fixture() -> (Arc<Dataset>, Layer, NeighborSampler) {
        let ds = Arc::new(DatasetSpec::tiny().build_full());
        let bottom = Layer::new(
            LayerKind::Gcn,
            ds.spec.feature_dim,
            ds.spec.hidden_dim,
            false,
            7,
        );
        let sampler = NeighborSampler::new(Fanout::new(vec![4, 4]));
        (ds, bottom, sampler)
    }

    /// The task body as it was before rows were read in place: gather the
    /// host rows into a dense matrix, then forward.
    fn gathered_rows(task: &RefreshTask, vertices: &[VertexId]) -> EmbeddingRows {
        let block = task.sampler.sample_one_hop_stable_with_scratch(
            &task.dataset.csr,
            vertices,
            task.sampler.fanout().at(0),
            task.version ^ 0x5b,
            &mut SamplerScratch::new(),
        );
        let sources = block.src();
        let feats = task.dataset.features().gather_rows_u32(sources);
        EmbeddingRows::new(vertices.to_vec(), task.bottom.forward(&block, &feats).0)
    }

    #[test]
    fn in_place_rows_equal_the_gathered_rows_for_every_layer_kind() {
        let (ds, _, sampler) = fixture();
        let n = ds.csr.num_vertices() as u32;
        let verts: Vec<u32> = (0..90).map(|v| v * 7 % n).collect();
        for kind in LayerKind::ALL {
            let bottom = Layer::new(kind, ds.spec.feature_dim, ds.spec.hidden_dim, false, 7);
            let task = RefreshTask::new(Arc::clone(&ds), bottom, sampler.clone(), verts.clone(), 5);
            let got = task.run(&mut SamplerScratch::new()).rows;
            let want = gathered_rows(&task, &verts);
            assert_eq!(got.len(), verts.len());
            for ((gv, g), (wv, w)) in got.iter().zip(want.iter()) {
                assert_eq!(gv, wv);
                let bits = |r: &[f32]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(g), bits(w), "{kind:?}, vertex {gv}");
            }
        }
    }

    #[test]
    fn task_output_is_deterministic_and_stamped() {
        let (ds, bottom, sampler) = fixture();
        let verts: Vec<u32> = (0..20).collect();
        let task =
            |b: Layer| RefreshTask::new(Arc::clone(&ds), b, sampler.clone(), verts.clone(), 9);
        let a = task(bottom.clone()).run(&mut SamplerScratch::new());
        let b = task(bottom.clone()).run(&mut SamplerScratch::new());
        assert_eq!(a.version, 9);
        assert_eq!(a.rows.len(), 20);
        assert_eq!(a.rows.vertices(), &verts[..]);
        assert_eq!(a.rows, b.rows);
    }

    #[test]
    fn split_partitions_reproduce_the_full_run_row_for_row() {
        // The partition independence demand worklists rely on: computing
        // [0..k) and [k..n) separately must equal one full run.
        let (ds, bottom, sampler) = fixture();
        let verts: Vec<u32> = (5..45).collect();
        let run = |vs: Vec<u32>| {
            RefreshTask::new(Arc::clone(&ds), bottom.clone(), sampler.clone(), vs, 3)
                .run(&mut SamplerScratch::new())
        };
        let full = run(verts.clone());
        for k in [0usize, 13, 40] {
            let (a, b) = (run(verts[..k].to_vec()), run(verts[k..].to_vec()));
            assert_eq!((a.version, b.version), (3, 3));
            let merged: Vec<_> = a.rows.iter().chain(b.rows.iter()).collect();
            assert_eq!(merged.len(), full.rows.len());
            for ((va, ra), (vb, rb)) in merged.into_iter().zip(full.rows.iter()) {
                assert_eq!(va, vb, "split at {k}");
                assert_eq!(ra, rb, "split at {k}: rows diverged for vertex {va}");
            }
        }
    }

    #[test]
    fn empty_task_yields_empty_output() {
        let (ds, bottom, sampler) = fixture();
        let task = RefreshTask::new(ds, bottom, sampler, Vec::new(), 1);
        assert!(task.run(&mut SamplerScratch::new()).rows.is_empty());
    }

    #[test]
    fn inline_backend_computes_at_submission() {
        let (ds, bottom, sampler) = fixture();
        let task = RefreshTask::new(ds, bottom, sampler, vec![1, 2, 3], 0);
        match InlineRefresh::default().submit(task) {
            CpuPart::Ready(out) => assert_eq!(out.rows.len(), 3),
            CpuPart::Submitted => panic!("inline backend must be synchronous"),
        }
    }
}
