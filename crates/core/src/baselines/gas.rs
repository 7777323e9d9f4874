//! GNNAutoScale-like orchestrator: historical embeddings for **all**
//! vertices, unbounded staleness within an epoch.
//!
//! GAS trains each layer over the batch's *full 1-hop* neighborhood (no
//! recursive sampling) and substitutes historical embeddings for
//! out-of-batch neighbors, pushing refreshed embeddings back to host memory
//! every batch. That buys small sampled subgraphs at the price of heavy
//! host↔device embedding traffic (§5.2 comparison 5) and a host-side store
//! of every layer's embeddings for every vertex.

use crate::orchestrator::{Lens, Orchestrator};
use crate::profile::WorkloadProfile;
use crate::report::EpochReport;
use crate::sim::Machine;
use neutron_hetero::{CostModel, HardwareSpec, MemLedger, OomError, TaskKind};
use neutron_nn::flops;

/// GNNAutoScale-like baseline (single GPU only, as in the paper).
#[derive(Clone, Debug)]
pub struct GasLike;

impl Orchestrator for GasLike {
    fn name(&self) -> String {
        "GAS".into()
    }

    fn simulate_epoch(
        &self,
        profile: &WorkloadProfile,
        hw: &HardwareSpec,
    ) -> Result<EpochReport, OomError> {
        let lens = Lens::new(profile);
        let cm = CostModel::new(hw.clone());
        let layers = profile.config.layers;
        let hidden_row = profile.spec.hidden_row_bytes();
        // Host holds the feature matrix plus staging buffers (paper scale).
        let mut host = MemLedger::new(hw.cpu.mem_bytes);
        host.alloc("features", lens.paper_feature_bytes())?;
        // GAS pins the historical embeddings of *every* vertex at *every*
        // layer in GPU memory for fast pull/push — its scalability wall
        // (§5.2 comparison 5): this is what OOMs on wide, large graphs.
        let mut mem = MemLedger::new(hw.gpu.mem_bytes);
        mem.alloc("params", lens.param_bytes())?;
        mem.alloc(
            "historical-embeddings",
            profile.spec.paper_vertices * hidden_row * layers as u64,
        )?;
        mem.alloc(
            "batch",
            2 * lens.paper_one_hop_bytes(profile.config.batch_size),
        )?;

        let mut m = Machine::new(hw, 1);
        let d2h = m.sched.resource("d2h0", hw.pcie.bandwidth);
        let mut h2d_bytes = 0u64;
        for i in 0..profile.num_batches {
            let oh = profile.one_hop_stats(i);
            let seeds = profile.seeds(i) as u64;
            // Gather: features of the 1-hop set + stale embeddings of
            // out-of-batch neighbors for every layer.
            let pull_bytes = oh.src as u64 * profile.spec.feature_row_bytes()
                + (oh.src as u64).saturating_sub(seeds) * hidden_row * (layers as u64 - 1).max(1);
            let collect = cm.cpu_collect(pull_bytes);
            let fc = m.cpu_task(TaskKind::GatherCollect, collect, "cpu:gather", &[]);
            let pull = cm.pcie_transfer(pull_bytes);
            let ft = m.h2d_task(0, TaskKind::Transfer, pull, "h2d", &[fc]);
            h2d_bytes += pull_bytes;
            // Train: every layer works on the 1-hop set (no expansion).
            let train_flops: u64 = lens
                .dims
                .iter()
                .map(|&(di, dn)| {
                    flops::layer_train_flops(
                        profile.config.kind,
                        seeds,
                        oh.src as u64,
                        oh.edges as u64,
                        di as u64,
                        dn as u64,
                    )
                })
                .sum();
            let train = cm.gpu_train(train_flops, seeds);
            let t = m.gpu_task(0, TaskKind::Train, train, "train", &[ft]);
            // Push refreshed embeddings back to the host store (D2H).
            let push_bytes = seeds * hidden_row * layers as u64;
            let push = cm.pcie_transfer(push_bytes);
            m.sched
                .task(d2h, TaskKind::Transfer, push, "pcie:d2h", &[t]);
        }
        Ok(EpochReport::from_run(
            self.name(),
            &m.sched.run(),
            h2d_bytes,
            mem.used(),
            profile.num_batches,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::Case1Dgl;
    use crate::orchestrator::tiny_fixture;
    use neutron_nn::LayerKind;

    #[test]
    fn gas_runs_and_moves_embeddings_both_ways() {
        let (profile, hw) = tiny_fixture(LayerKind::Gcn, 2);
        let r = GasLike.simulate_epoch(&profile, &hw).unwrap();
        assert!(r.epoch_seconds > 0.0);
        assert!(r.transfer_seconds > 0.0, "GAS is transfer-heavy");
    }

    #[test]
    fn gas_avoids_multi_hop_sampling_entirely() {
        let (profile, hw) = tiny_fixture(LayerKind::Gcn, 2);
        let r = GasLike.simulate_epoch(&profile, &hw).unwrap();
        assert_eq!(
            r.sample_seconds, 0.0,
            "GAS trains on 1-hop sets, no sampler"
        );
    }

    #[test]
    fn gas_transfers_more_than_dgl_per_epoch_on_dense_replicas() {
        // The paper attributes GAS's losses to frequent CPU-GPU embedding
        // traffic; on the homophilous tiny replica the 1-hop pull + per-layer
        // histories outweigh DGL's sampled-feature transfers.
        let (profile, hw) = tiny_fixture(LayerKind::Gcn, 2);
        let gas = GasLike.simulate_epoch(&profile, &hw).unwrap();
        let dgl = Case1Dgl { pipelined: true }
            .simulate_epoch(&profile, &hw)
            .unwrap();
        assert!(
            gas.h2d_bytes > dgl.h2d_bytes / 2,
            "GAS h2d {} should be at least comparable to DGL {}",
            gas.h2d_bytes,
            dgl.h2d_bytes
        );
    }
}
