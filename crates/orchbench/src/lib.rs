//! `orchbench`: the repo's benchmark — four workloads over the engine, the
//! replicas and the simulator, an in-run oracle, a separate traced pass for
//! per-layer numbers, and a `compare` that applies the bounds. See
//! `README.md` in this crate for commands and the metric glossary.

pub mod adapter;
pub mod cli;
pub mod compare;
pub mod env;
pub mod json;
pub mod metrics;
pub mod trace;
pub mod traced;
pub mod workloads;
