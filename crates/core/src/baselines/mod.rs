//! The comparison systems: the step-based orchestrators of §3 plus the
//! historical-embedding (GAS) comparator, and the [`roster`] the evaluation
//! iterates.
//!
//! # Fig 4 as a table
//!
//! The step-based systems are one sample → gather (collect, transfer) →
//! train graph per batch; they differ only in the `StepPlan`
//! (`step_based.rs`) handed to the one builder, `simulate_step_based`. One
//! row per system, one column per plan field:
//!
//! | system | `sample` | `features` | `cache` | `ship_blocks` | `batch_buffers` | `pipelined` | `replicated` |
//! |---|---|---|---|---|---|---|---|
//! | [`Case1Dgl`] (Fig 4a) | CPU | host collect + PCIe | none | yes | 1 | its flag | – |
//! | [`Case2DglUva`] (4b) | GPU over UVA | UVA zero-copy | none | yes | 1 | its flag | – |
//! | [`Case3PaGraph`] (4c) | CPU | host collect + PCIe | degree | yes | 2 | yes | – |
//! | [`Case4GnnLab`] (4d) | GPU | host collect + PCIe | presample | no | 2 | yes | – |
//! | Fig 12 "Baseline" (`NeutronOrchConfig::baseline`) | GPU | host collect + PCIe | none | **yes** | 2 | yes | – |
//! | [`DspLike`] | GPU | **PCIe, no collect** | presample | no | 2 | yes | × `hw.num_gpus`, cache ≥ `min_cache_ratio` |
//!
//! Sampling on the GPU (not over UVA) is what puts the full topology in the
//! GPU ledger — sharded over the GPUs when `replicated`.
//!
//! Two cells are recorded quirks of the simulated numbers, kept as data
//! rather than fixed: the Fig 12 baseline samples on the GPU yet ships the
//! block bytes over PCIe, and DSP models no host-side collect for its cache
//! misses (its `cpu` resource stays idle). `replicated` is what makes DSP
//! "Case 4 × GPUs": batches round-robin over every GPU, the topology is
//! sharded, and each batch adds an NVLink frontier exchange and gradient
//! all-reduce.
//!
//! [`GasLike`] and NeutronOrch's two layer-based builders share no DAG with
//! the step-based graph and are separate functions over the same resource
//! layout (`crate::sim::Machine`).

pub mod dsp;
pub mod gas;
pub mod step_based;

pub use dsp::DspLike;
pub use gas::GasLike;
pub use step_based::{Case1Dgl, Case2DglUva, Case3PaGraph, Case4GnnLab};

use crate::neutronorch::NeutronOrch;
use crate::orchestrator::Orchestrator;
use neutron_nn::LayerKind;

/// The six single-GPU systems of the evaluation in Fig 10's display order,
/// each `None` where the system does not support `kind` (§5.2: PaGraph and
/// GNNLab lack GAT, GAS lacks GraphSAGE).
pub fn roster(kind: LayerKind) -> Vec<(&'static str, Option<Box<dyn Orchestrator>>)> {
    fn some(sys: impl Orchestrator + 'static) -> Option<Box<dyn Orchestrator>> {
        Some(Box::new(sys))
    }
    let gat = kind == LayerKind::Gat;
    let sage = kind == LayerKind::Sage;
    vec![
        ("DGL", some(Case1Dgl { pipelined: true })),
        ("PaGraph", some(Case3PaGraph).filter(|_| !gat)),
        ("GNNLab", some(Case4GnnLab).filter(|_| !gat)),
        ("DGL-UVA", some(Case2DglUva { pipelined: true })),
        ("GAS", some(GasLike).filter(|_| !sage)),
        ("NeutronOrch", some(NeutronOrch::new())),
    ]
}
