//! # neutronorch
//!
//! Facade crate for the NeutronOrch reproduction (VLDB 2024). Re-exports the
//! workspace crates so examples and downstream users can depend on a single
//! package:
//!
//! ```
//! use neutronorch::graph::dataset::DatasetSpec;
//! let spec = DatasetSpec::reddit_scaled();
//! assert!(spec.scale >= 1.0);
//! ```
//!
//! `README.md` maps each crate to the paper section it implements and holds
//! the measured record; the `exp` binary of `neutron-bench` regenerates every
//! table and figure.

pub use neutron_cache as cache;
pub use neutron_core as core;
pub use neutron_graph as graph;
pub use neutron_hetero as hetero;
pub use neutron_nn as nn;
pub use neutron_sample as sample;
pub use neutron_tensor as tensor;
