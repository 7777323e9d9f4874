//! Feature caching and historical-embedding storage.
//!
//! [`FeatureCache`] holds device-resident copies of a fixed vertex set's
//! feature rows for the cache-keyed gather; a session fills each lane's
//! with its owned vertices in descending presample order — the hot set,
//! then the next-hottest cold vertices — until the lane's byte budget is
//! spent (§5.2's "increase the feature cache ratio", the simulator's rule
//! too). [`HybridPolicy`] is NeutronOrch's §4.1.3
//! split of the hot set between CPU embedding computation and GPU feature
//! caching under a memory budget. The Fig 13 Degree (PaGraph) and
//! PreSample (GNNLab) rankings live in the simulator:
//! `neutron_core::orchestrator::Lens::cache_plan` over the workload
//! profile's presample and degree rankings.
//!
//! [`embedding_store::EmbeddingStore`] is the versioned historical-embedding
//! store behind NeutronOrch's bounded staleness: every read reports its
//! version gap, and the store can enforce a hard bound (§4.2.2's `2n`).

pub mod embedding_store;
pub mod feature_cache;
pub mod hybrid;

pub use embedding_store::{EmbeddingRows, EmbeddingStore, StaleReadError, StoreSnapshot};
pub use feature_cache::FeatureCache;
pub use hybrid::{HybridPlan, HybridPolicy};
