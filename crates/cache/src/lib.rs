//! Feature caching and historical-embedding storage.
//!
//! Three cache rankings compete in the paper's Fig 13:
//! - **Degree** (PaGraph): cache the highest-degree vertices,
//! - **PreSample** (GNNLab): cache the vertices pre-sampling found hottest,
//! - **Hybrid** (NeutronOrch §4.1.3): split the hot set between CPU
//!   embedding computation and GPU feature caching under a memory budget.
//!
//! [`embedding_store::EmbeddingStore`] is the versioned historical-embedding
//! store behind NeutronOrch's bounded staleness: every read reports its
//! version gap, and the store can enforce a hard bound (§4.2.2's `2n`).

pub mod embedding_store;
pub mod feature_cache;
pub mod hybrid;
pub mod policy;

pub use embedding_store::{EmbeddingRows, EmbeddingStore, StaleReadError, StoreSnapshot};
pub use feature_cache::FeatureCache;
pub use hybrid::{HybridPlan, HybridPolicy};
pub use policy::{CachePolicy, CacheRanking};
