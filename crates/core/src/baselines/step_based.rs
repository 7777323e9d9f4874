//! The step-based task orchestrating methods of §3 (Fig 4 a–d) as data.
//!
//! Every step-based system runs the same sample → gather (collect,
//! transfer) → train graph per batch and differs only in placement, caching
//! and pipelining — which is exactly the paper's claim about why none of
//! them balances the machine. A [`StepPlan`] names those differences and
//! [`simulate_step_based`] is the one builder of that graph; the table of
//! plans is in [`super`]'s module docs.

use crate::orchestrator::{Lens, Orchestrator};
use crate::profile::WorkloadProfile;
use crate::report::EpochReport;
use crate::sim::Machine;
use neutron_hetero::{CostModel, HardwareSpec, MemLedger, OomError, TaskKind};

/// Where the sample step runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum SampleOn {
    /// CPU workers over host topology.
    Cpu,
    /// A GPU kernel over the full topology, which is then device-resident
    /// (a ledger region); contends with training for GPU cores (Fig 5b).
    Gpu,
    /// A GPU kernel reading host topology over UVA. The PCIe reads gate the
    /// kernel (serialized), which matches UVA's latency-bound behaviour.
    GpuUva,
}

/// How a batch's bottom-layer features reach the GPU.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum FeaturePath {
    /// CPU collects the rows into staging buffers (FC), then PCIe (FT).
    HostCollect,
    /// PCIe transfer with no host-side collect modelled.
    Direct,
    /// Fetched zero-copy over UVA during training (no FC stage).
    ZeroCopy,
}

/// How the GPU feature cache ranks vertices (Fig 13).
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum CacheRank {
    /// No cache: every bottom-layer row crosses the link.
    None,
    /// By degree (PaGraph); all device memory left after the batch buffers
    /// — the batch-size / cache-ratio tradeoff of Fig 6.
    Degree,
    /// By pre-sampled access frequency (GNNLab).
    Presample,
}

/// One row of Fig 4: what a step-based system places where.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct StepPlan {
    pub sample: SampleOn,
    pub features: FeaturePath,
    pub cache: CacheRank,
    /// The sampled block structure crosses the link with the features.
    pub ship_blocks: bool,
    /// Device-resident batch buffers: 1 when prefetched batches stage in
    /// host pinned memory, 2 when the next batch is staged on the device.
    pub batch_buffers: u64,
    /// Overlap the stages of consecutive batches; otherwise every batch is
    /// chained behind the previous batch's training.
    pub pipelined: bool,
    /// `Some(r)`: DSP's multi-GPU form — batches round-robin over every GPU
    /// of the machine, the topology is sharded across them, each batch pays
    /// a frontier exchange and a gradient all-reduce (ring ≈ 2·params) on
    /// NVLink where the machine has it, and a per-GPU feature cache below
    /// `r` of an even share of the feature matrix is an OOM.
    pub replicated: Option<f64>,
}

impl StepPlan {
    /// Case 1 — DGL.
    pub(crate) const DGL: Self = Self {
        sample: SampleOn::Cpu,
        features: FeaturePath::HostCollect,
        cache: CacheRank::None,
        ship_blocks: true,
        batch_buffers: 1,
        pipelined: true,
        replicated: None,
    };
    /// Case 2 — DGL-UVA.
    pub(crate) const DGL_UVA: Self = Self {
        sample: SampleOn::GpuUva,
        features: FeaturePath::ZeroCopy,
        ..Self::DGL
    };
    /// Case 3 — PaGraph.
    pub(crate) const PAGRAPH: Self = Self {
        cache: CacheRank::Degree,
        batch_buffers: 2,
        ..Self::DGL
    };
    /// Case 4 — GNNLab.
    pub(crate) const GNNLAB: Self = Self {
        sample: SampleOn::Gpu,
        cache: CacheRank::Presample,
        ship_blocks: false,
        ..Self::PAGRAPH
    };
    /// Fig 12's "Baseline": GPU sampling, CPU gather, GPU training,
    /// pipelined. Recorded quirk: it samples on the GPU yet still ships the
    /// block bytes over PCIe.
    pub(crate) const FIG12_BASELINE: Self = Self {
        cache: CacheRank::None,
        ship_blocks: true,
        ..Self::GNNLAB
    };
    /// DSP (§5.3): Case 4 replicated. Recorded quirk: no host-side collect
    /// is modelled for its cache misses, so its `cpu` resource stays idle.
    pub(crate) const DSP: Self = Self {
        features: FeaturePath::Direct,
        replicated: Some(0.25),
        ..Self::GNNLAB
    };
}

/// Builds and runs one epoch of a step-based system: the GPU memory ledger
/// (paper scale, against the unscaled device budget), then the per-batch
/// sample → gather → transfer → train DAG.
pub(crate) fn simulate_step_based(
    name: String,
    plan: &StepPlan,
    profile: &WorkloadProfile,
    hw: &HardwareSpec,
) -> Result<EpochReport, OomError> {
    let lens = Lens::new(profile);
    let cm = CostModel::new(hw.clone());
    let gpus = plan.replicated.map_or(1, |_| hw.num_gpus.max(1));

    let mut mem = MemLedger::new(hw.gpu.mem_bytes);
    mem.alloc("params", lens.param_bytes())?;
    if plan.sample == SampleOn::Gpu {
        let region = match plan.replicated {
            Some(_) => "topology-shard",
            None => "topology",
        };
        mem.alloc(region, lens.paper_topology_bytes() / gpus as u64)?;
    }
    mem.alloc(
        "batch",
        plan.batch_buffers * lens.paper_batch_bytes(profile.config.batch_size),
    )?;
    // Whatever is left becomes the feature cache.
    let hit = if plan.cache == CacheRank::None {
        0.0
    } else {
        let min_ratio = plan.replicated.unwrap_or(0.0);
        let min_cache = (lens.paper_feature_bytes() as f64 * min_ratio / gpus as f64) as u64;
        mem.alloc("feature-cache", min_cache.max(mem.available()))?;
        let pooled = mem.region("feature-cache") * gpus as u64;
        lens.cache_plan(pooled, plan.cache == CacheRank::Degree).1
    };

    let mut m = Machine::new(hw, gpus);
    let nvlink = m.nvlink.filter(|_| plan.replicated.is_some());
    let mut h2d_bytes = 0u64;
    let mut prev_train = None;
    for i in 0..profile.num_batches {
        let g = i % gpus;
        let chain = prev_train.filter(|_| !plan.pipelined);
        let chain = chain.as_slice();
        let edges = lens.sampled_edges(i);
        let sampled = if plan.sample == SampleOn::Cpu {
            m.cpu_task(TaskKind::Sample, cm.cpu_sample(edges), "cpu:sample", chain)
        } else {
            let reads = (plan.sample == SampleOn::GpuUva).then(|| {
                let cost = cm.uva_transfer(lens.block_bytes(i));
                m.h2d_task(g, TaskKind::Sample, cost, "uva", chain)
            });
            let deps = reads.as_ref().map_or(chain, std::slice::from_ref);
            m.gpu_task(g, TaskKind::Sample, cm.gpu_sample(edges), "sample", deps)
        };
        // Cooperative sampling: frontier exchange across shards.
        let ready = match nvlink {
            Some(nv) => {
                let exch_bytes = lens.block_bytes(i) * (gpus as u64 - 1) / gpus as u64;
                let cost = cm.gpu_sync(exch_bytes);
                m.sched
                    .task(nv, TaskKind::Sync, cost, "nvlink:exchange", &[sampled])
            }
            None => sampled,
        };
        let mut bytes = ((lens.bottom_feature_bytes(i) as f64) * (1.0 - hit)) as u64;
        if plan.ship_blocks {
            bytes += lens.block_bytes(i);
        }
        let (collected, link_cost) = match plan.features {
            FeaturePath::HostCollect => {
                let collect = cm.cpu_collect(bytes);
                let fc = m.cpu_task(TaskKind::GatherCollect, collect, "cpu:gather", &[ready]);
                (fc, cm.pcie_transfer(bytes))
            }
            FeaturePath::Direct => (ready, cm.pcie_transfer(bytes)),
            FeaturePath::ZeroCopy => (ready, cm.uva_transfer(bytes)),
        };
        let moved = m.h2d_task(g, TaskKind::Transfer, link_cost, "h2d", &[collected]);
        h2d_bytes += bytes;
        let train = cm.gpu_train(lens.train_flops(i), profile.seeds(i) as u64);
        let t = m.gpu_task(g, TaskKind::Train, train, "train", &[moved]);
        if let Some(nv) = nvlink {
            let cost = cm.gpu_sync(2 * lens.param_bytes());
            m.sched
                .task(nv, TaskKind::Sync, cost, "nvlink:allreduce", &[t]);
        }
        prev_train = Some(t);
    }
    Ok(EpochReport::from_run(
        name,
        &m.sched.run(),
        h2d_bytes,
        mem.used(),
        profile.num_batches,
    ))
}

/// Case 1 — DGL: CPU sampling, CPU gathering, GPU training.
///
/// Suffers from inefficient CPU processing (§3.1 Case 1, Table 2).
#[derive(Clone, Debug)]
pub struct Case1Dgl {
    /// Overlap the stages of consecutive batches (DGL's default loader).
    pub pipelined: bool,
}

/// Case 2 — DGL-UVA: GPU sampling over unified virtual addressing, features
/// fetched zero-copy from host memory, GPU training.
///
/// Suffers from GPU resource contention between sampling and training
/// kernels (§3.1 Case 2, Table 3).
#[derive(Clone, Debug)]
pub struct Case2DglUva {
    /// Overlap the stages of consecutive batches.
    pub pipelined: bool,
}

/// Case 3 — PaGraph: CPU sampling, GPU-cached gathering (degree policy),
/// GPU training.
///
/// Suffers from GPU memory contention between cache and batch data (§3.1
/// Case 3, Fig 6).
#[derive(Clone, Debug)]
pub struct Case3PaGraph;

/// Case 4 — GNNLab: everything on the GPU — topology-resident sampling,
/// presample-cached gathering, training.
///
/// Suffers from both kinds of GPU contention; the CPU idles (§3.1 Case 4).
#[derive(Clone, Debug)]
pub struct Case4GnnLab;

/// `label`, or `label (no pipeline)` for the chained variant.
fn pipeline_label(label: &str, pipelined: bool) -> String {
    if pipelined {
        label.into()
    } else {
        format!("{label} (no pipeline)")
    }
}

impl Orchestrator for Case1Dgl {
    fn name(&self) -> String {
        pipeline_label("DGL", self.pipelined)
    }

    fn simulate_epoch(
        &self,
        profile: &WorkloadProfile,
        hw: &HardwareSpec,
    ) -> Result<EpochReport, OomError> {
        let plan = StepPlan {
            pipelined: self.pipelined,
            ..StepPlan::DGL
        };
        simulate_step_based(self.name(), &plan, profile, hw)
    }
}

impl Orchestrator for Case2DglUva {
    fn name(&self) -> String {
        pipeline_label("DGL-UVA", self.pipelined)
    }

    fn simulate_epoch(
        &self,
        profile: &WorkloadProfile,
        hw: &HardwareSpec,
    ) -> Result<EpochReport, OomError> {
        let plan = StepPlan {
            pipelined: self.pipelined,
            ..StepPlan::DGL_UVA
        };
        simulate_step_based(self.name(), &plan, profile, hw)
    }
}

impl Orchestrator for Case3PaGraph {
    fn name(&self) -> String {
        "PaGraph".into()
    }

    fn simulate_epoch(
        &self,
        profile: &WorkloadProfile,
        hw: &HardwareSpec,
    ) -> Result<EpochReport, OomError> {
        simulate_step_based(self.name(), &StepPlan::PAGRAPH, profile, hw)
    }
}

impl Orchestrator for Case4GnnLab {
    fn name(&self) -> String {
        "GNNLab".into()
    }

    fn simulate_epoch(
        &self,
        profile: &WorkloadProfile,
        hw: &HardwareSpec,
    ) -> Result<EpochReport, OomError> {
        simulate_step_based(self.name(), &StepPlan::GNNLAB, profile, hw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrator::tiny_fixture;
    use neutron_nn::LayerKind;

    #[test]
    fn the_six_plans_are_distinct_and_dsp_is_case4_replicated() {
        let plans = [
            StepPlan::DGL,
            StepPlan::DGL_UVA,
            StepPlan::PAGRAPH,
            StepPlan::GNNLAB,
            StepPlan::FIG12_BASELINE,
            StepPlan::DSP,
        ];
        for (i, a) in plans.iter().enumerate() {
            for b in &plans[i + 1..] {
                assert_ne!(a, b);
            }
        }
        // "DSP is Case 4 replicated": clear the replication (GPU count,
        // shard, NVLink sync, cache floor) and undo the recorded no-collect
        // quirk, and what is left is GNNLab's row.
        let unreplicated = StepPlan {
            replicated: None,
            features: FeaturePath::HostCollect,
            ..StepPlan::DSP
        };
        assert_eq!(unreplicated, StepPlan::GNNLAB);
    }

    #[test]
    fn all_four_cases_run_and_report() {
        let (profile, hw) = tiny_fixture(LayerKind::Gcn, 2);
        let systems: Vec<Box<dyn Orchestrator>> = vec![
            Box::new(Case1Dgl { pipelined: true }),
            Box::new(Case2DglUva { pipelined: true }),
            Box::new(Case3PaGraph),
            Box::new(Case4GnnLab),
        ];
        for sys in systems {
            let r = sys.simulate_epoch(&profile, &hw).expect("no OOM on tiny");
            assert!(r.epoch_seconds > 0.0, "{}", sys.name());
            assert!(r.cpu_util >= 0.0 && r.cpu_util <= 1.0);
            assert!(r.gpu_util > 0.0 && r.gpu_util <= 1.0);
            assert_eq!(r.num_batches, profile.num_batches);
        }
    }

    #[test]
    fn pipelining_helps_case1() {
        let (profile, hw) = tiny_fixture(LayerKind::Gcn, 2);
        let piped = Case1Dgl { pipelined: true }
            .simulate_epoch(&profile, &hw)
            .unwrap();
        let serial = Case1Dgl { pipelined: false }
            .simulate_epoch(&profile, &hw)
            .unwrap();
        assert!(
            piped.epoch_seconds < serial.epoch_seconds,
            "pipeline must help (Table 3)"
        );
    }

    #[test]
    fn caching_systems_transfer_less_than_dgl() {
        let (profile, hw) = tiny_fixture(LayerKind::Gcn, 2);
        let dgl = Case1Dgl { pipelined: true }
            .simulate_epoch(&profile, &hw)
            .unwrap();
        let pagraph = Case3PaGraph.simulate_epoch(&profile, &hw).unwrap();
        let gnnlab = Case4GnnLab.simulate_epoch(&profile, &hw).unwrap();
        assert!(pagraph.h2d_bytes <= dgl.h2d_bytes);
        assert!(gnnlab.h2d_bytes <= dgl.h2d_bytes);
    }

    #[test]
    fn case1_has_high_cpu_low_gpu_utilization() {
        let (profile, hw) = tiny_fixture(LayerKind::Gcn, 2);
        let r = Case1Dgl { pipelined: true }
            .simulate_epoch(&profile, &hw)
            .unwrap();
        // The Fig 2 signature: CPU-side steps starve the GPU.
        assert!(
            r.cpu_util > r.gpu_util,
            "cpu {} vs gpu {}",
            r.cpu_util,
            r.gpu_util
        );
    }

    #[test]
    fn gnnlab_leaves_cpu_mostly_idle() {
        let (profile, hw) = tiny_fixture(LayerKind::Gcn, 2);
        let r = Case4GnnLab.simulate_epoch(&profile, &hw).unwrap();
        assert!(
            r.cpu_util < 0.5,
            "Case 4 idles the CPU (Fig 2), got {}",
            r.cpu_util
        );
    }
}
