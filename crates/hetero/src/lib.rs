//! Discrete-event CPU/GPU/PCIe hardware simulator.
//!
//! The paper's findings are about *resource contention, pipeline overlap and
//! transfer volume* on a V100 + Xeon testbed this reproduction does not
//! have. This crate substitutes a discrete-event simulator whose resources
//! are **processor-sharing capacity pools**:
//!
//! - tasks declare a `demand` (how much of the resource they can use alone)
//!   and a `work` amount (resource-unit-seconds);
//! - concurrent tasks on one resource share its capacity by water-filling,
//!   which is what makes GPU kernel contention (paper Cases 2 and 4) and
//!   PCIe sharing *emerge* rather than being assumed;
//! - dependencies form a DAG, so orchestrators express pipelines as chains
//!   per stage stream (Fig 5);
//! - per-resource busy time yields the utilization numbers of Figs 2 and 15.
//!
//! GPU memory is a separate static [`memory::MemLedger`]: allocations either
//! fit or surface as OOM, reproducing the "OOM" entries of Fig 10/11 and
//! Tables 5/6. Device constants live in [`device`], workload→time conversion
//! in [`cost`].

pub mod cost;
pub mod device;
pub mod engine;
pub mod gantt;
pub mod interconnect;
pub mod memory;

pub use cost::{Cost, CostModel};
pub use device::{DeviceProfile, GpuSpec, HardwareSpec};
pub use engine::{Engine, ResourceId, RunReport, TaskId, TaskKind, TraceSpan};
pub use interconnect::InterconnectSpec;
pub use memory::{MemLedger, OomError};
