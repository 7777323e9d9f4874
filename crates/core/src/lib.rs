//! NeutronOrch core: task orchestration for sample-based GNN training on
//! CPU-GPU heterogeneous environments.
//!
//! This crate implements the paper's contribution and every baseline it is
//! evaluated against, all on one shared substrate (mirroring the paper's own
//! §5.4 methodology):
//!
//! | Orchestrator | Models | Strategy (Fig 4) |
//! |---|---|---|
//! | [`baselines::Case1Dgl`] | DGL | CPU: sample+gather, GPU: train |
//! | [`baselines::Case2DglUva`] | DGL-UVA | GPU: sample (UVA), CPU-resident gather, GPU: train |
//! | [`baselines::Case3PaGraph`] | PaGraph | CPU: sample, GPU: degree-cache gather + train |
//! | [`baselines::Case4GnnLab`] | GNNLab | GPU: sample + presample-cache gather + train |
//! | [`baselines::GasLike`] | GNNAutoScale | CPU gather, historical embeddings for all vertices |
//! | [`baselines::DspLike`] | DSP | Case 4 × multi-GPU, NVLink sync |
//! | [`neutronorch::NeutronOrch`] | this paper | hotness-aware layer-based orchestration + super-batch pipeline |
//!
//! The step-based rows (Cases 1–4, DSP, and Fig 12's "Baseline" rung) are
//! one epoch-DAG builder over a placement table — Fig 4 column by column in
//! the [`baselines`] module docs; [`baselines::roster`] is the list the
//! evaluation iterates.
//!
//! Two execution modes:
//! - **simulation** ([`orchestrator::Orchestrator::simulate_epoch`]): builds
//!   the epoch's task DAG on the discrete-event hardware simulator and
//!   reports runtime, utilizations, transfer volume, memory and OOM;
//! - **numeric training** ([`trainer`]): really trains on a replica dataset,
//!   reusing historical embeddings under the configured staleness policy —
//!   the accuracy results of Fig 16 come from here. A [`session::Session`]
//!   runs it as the paper's concurrent stage graph: one fused
//!   sample → gather → transfer worker per graph partition
//!   ([`session::SessionConfig::replicas`], one partition by default) and a
//!   background refresh worker.

pub mod baselines;
pub mod checkpoint;
pub mod engine;
pub mod fault;
pub mod gather;
pub mod neutronorch;
pub mod orchestrator;
pub mod pipeline;
pub mod pool;
pub mod profile;
pub mod refresh;
pub mod replica;
pub mod report;
pub mod session;
pub mod sim;
pub mod trainer;

pub use checkpoint::{Checkpoint, CheckpointError};
pub use fault::{FailureAction, FailureEvent, FailurePolicy, FaultKind, FaultPlan, FaultSpec};
pub use gather::{GatheredFeatures, StagedBatch};
pub use neutronorch::{NeutronOrch, NeutronOrchConfig};
pub use orchestrator::Orchestrator;
pub use pipeline::{PipelineConfig, PipelineReport};
pub use pool::BatchBuffers;
pub use profile::{WorkloadConfig, WorkloadProfile};
pub use refresh::{InlineRefresh, RefreshBackend, RefreshOutput, RefreshTask};
pub use report::EpochReport;
pub use session::{
    EpochRun, ReplicaEpochStats, Session, SessionConfig, SessionError, SessionReport,
};
pub use trainer::TrainerState;
