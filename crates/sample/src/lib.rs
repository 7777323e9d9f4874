//! Neighbor sampling for sample-based GNN training (Algorithm 1 of the
//! paper).
//!
//! A mini-batch of training vertices is expanded hop by hop into a stack of
//! [`Block`]s (message-flow graphs). `blocks[0]` is the **bottom** layer —
//! the one whose source vertices read raw features, which the paper shows
//! dominates both computation and transfer volume (§4.1.1, Fig 7) and which
//! NeutronOrch offloads to the CPU.
//!
//! The crate also implements GNNLab-style **pre-sampling** (§4.1.2): before
//! training, sampling is simulated for a few epochs and per-vertex access
//! frequencies are recorded; the resulting hotness ranking drives both
//! NeutronOrch's CPU offloading and the feature-cache baselines.

pub mod batch;
pub mod block;
pub mod fanout;
pub mod full;
pub mod hotness;
pub mod neighbor;
pub mod presample;
pub mod stats;

pub use batch::{BatchIterator, EpochBatches};
pub use block::{Block, BlockParts};
pub use fanout::Fanout;
pub use full::{full_blocks, full_one_hop};
pub use hotness::{HotSet, HotnessRanking};
pub use neighbor::{BlockBuilder, LocalityCounts, NeighborSampler, PositionMarks, SamplerScratch};
pub use presample::PreSampler;
pub use stats::SampleStats;
