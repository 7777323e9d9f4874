//! Simulated inter-replica interconnect cost model.
//!
//! The PCIe model in [`crate::device`] prices the *host→device* staging
//! path of one replica. Data-parallel replicas add a second, distinct
//! fabric: the link replicas use to pull remote (non-owned) features and
//! to all-reduce gradients at batch boundaries. DistDGL-style systems (see
//! PAPERS.md) show this interconnect — NVLink inside a box, Ethernet/IB
//! across boxes — has its own bandwidth/latency regime and its own traffic
//! pattern (ring all-reduce, peer feature pulls), so it gets its own model
//! here rather than reusing the H2D numbers.
//!
//! Everything is closed-form and deterministic: the engine *measures* byte
//! counts (remote feature rows, gradient bytes per step) and this model
//! converts them to simulated seconds for the bench series.

/// A symmetric replica-to-replica link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InterconnectSpec {
    /// Sustained per-direction bandwidth in bytes/second.
    pub bandwidth: f64,
    /// Per-message latency in seconds.
    pub latency: f64,
}

impl InterconnectSpec {
    /// NVLink-class intra-box fabric (matches the `LinkSpec` NVLink
    /// constants in [`crate::device`]).
    pub fn nvlink_like() -> Self {
        Self {
            bandwidth: 150.0e9,
            latency: 3.0e-6,
        }
    }

    /// 25 GbE-class inter-box fabric — the DistDGL regime where partition
    /// locality starts to dominate.
    pub fn ethernet_like() -> Self {
        Self {
            bandwidth: 3.0e9,
            latency: 50.0e-6,
        }
    }

    /// Seconds to move `bytes` over the link as one message.
    pub fn transfer_seconds(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            0.0
        } else {
            self.latency + bytes as f64 / self.bandwidth
        }
    }

    /// Simulated seconds for one ring all-reduce of `model_bytes` across
    /// `replicas`: `2(R-1)` message steps, each carrying a `1/R` shard.
    pub fn allreduce_seconds(&self, model_bytes: u64, replicas: usize) -> f64 {
        if replicas <= 1 || model_bytes == 0 {
            return 0.0;
        }
        let steps = 2 * (replicas as u64 - 1);
        let shard = model_bytes as f64 / replicas as f64;
        steps as f64 * (self.latency + shard / self.bandwidth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_replica_exchanges_nothing() {
        let link = InterconnectSpec::nvlink_like();
        assert_eq!(link.allreduce_seconds(1 << 20, 1), 0.0);
    }

    #[test]
    fn slower_links_cost_more_and_latency_floors_small_messages() {
        let nv = InterconnectSpec::nvlink_like();
        let eth = InterconnectSpec::ethernet_like();
        assert!(eth.transfer_seconds(1 << 20) > nv.transfer_seconds(1 << 20));
        assert!(eth.allreduce_seconds(1 << 20, 4) > nv.allreduce_seconds(1 << 20, 4));
        assert!(nv.transfer_seconds(1) >= nv.latency);
        assert_eq!(nv.transfer_seconds(0), 0.0);
    }
}
