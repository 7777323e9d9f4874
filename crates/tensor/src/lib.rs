//! Dense `f32` matrix kernels for the NeutronOrch reproduction.
//!
//! The GNN training engine ([`neutron-nn`]) is built entirely on this crate;
//! no external tensor library is used. The design favours predictable,
//! allocation-conscious kernels over generality: everything is a row-major
//! 2-D `f32` [`Matrix`], which is exactly the shape of vertex feature /
//! embedding batches in sample-based GNN training.
//!
//! Modules:
//! - [`matrix`] — the `Matrix` type and constructors,
//! - [`view`] — [`RowView`], matrix-shaped input read in place from one or
//!   two row tables,
//! - [`ops`] — matmul variants and element-wise arithmetic,
//! - [`kernels`] — chunked, autovectorization-friendly slice kernels and
//!   their retained scalar references (profile-guided; see module docs),
//! - [`timing`] — per-kernel wall-time hooks behind an atomic gate,
//!   surfaced as orchbench's `tensor.*` metrics by `orchbench trace`,
//! - [`alloc`] — per-stage heap-allocation counters and the optional
//!   counting global allocator (`count-allocs` feature), surfaced by
//!   `orchbench trace` and the alloc-budget test,
//! - [`activation`] — ReLU / LeakyReLU / ELU / sigmoid / tanh with gradients,
//! - [`softmax`] — row softmax and softmax-cross-entropy with gradients,
//! - [`init`] — seeded uniform / Xavier / normal initializers.
//!
//! Every kernel runs on the thread that calls it. At mini-batch shapes
//! (≲ 2k × 64 · 64 × 32, under a millisecond) a spawn or a pool wake-up costs
//! what the kernel does, and the cores already belong to the session's stage
//! threads: parallelism is the session's to hand out, never a kernel's.

pub mod activation;
pub mod alloc;
pub mod init;
pub mod kernels;
pub mod matrix;
pub mod ops;
pub mod softmax;
pub mod timing;
pub mod view;

pub use activation::Activation;
pub use matrix::Matrix;
pub use view::RowView;

/// Numeric tolerance used across the workspace when comparing kernel outputs
/// against naive reference implementations.
pub const TEST_EPS: f32 = 1e-4;
