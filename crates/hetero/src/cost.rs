//! Workload → (work, demand) conversion for the engine.
//!
//! A cost is expressed as the pair the engine wants: `work` in
//! resource-unit-seconds and `demand`, the most units the task can use
//! concurrently. CPU work is in core-seconds (resource capacity = cores);
//! GPU work is in device-seconds at full throughput (capacity = 1.0); link
//! work is in bytes (capacity = bytes/s).

use crate::device::HardwareSpec;

/// A task cost: total `work` and concurrent `demand`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Cost {
    /// Resource-unit-seconds.
    pub work: f64,
    /// Maximum concurrently usable units.
    pub demand: f64,
}

/// Converts workload statistics (edges sampled, bytes moved, FLOPs) into
/// engine costs for a given [`HardwareSpec`].
#[derive(Clone, Debug)]
pub struct CostModel {
    hw: HardwareSpec,
    /// Worker threads the sampling stage may use (DGL-style loader workers).
    pub sample_threads: f64,
    /// Worker threads the feature-collection stage may use.
    pub gather_threads: f64,
}

impl CostModel {
    /// Cost model with the defaults used across the experiments.
    pub fn new(hw: HardwareSpec) -> Self {
        let sample_threads = (hw.cpu.cores / 3.0).max(1.0);
        let gather_threads = (hw.cpu.cores / 3.0).max(1.0);
        Self {
            hw,
            sample_threads,
            gather_threads,
        }
    }

    /// The wrapped hardware.
    pub fn hardware(&self) -> &HardwareSpec {
        &self.hw
    }

    /// CPU neighbor sampling of `edges` sampled edges.
    pub fn cpu_sample(&self, edges: u64) -> Cost {
        let per_core = self.hw.cpu.sample_edges_per_core_sec;
        Cost {
            work: edges as f64 / per_core,
            demand: self.sample_threads,
        }
    }

    /// GPU neighbor sampling of `edges` sampled edges. Sampling kernels are
    /// memory-latency bound and cap at `sample_max_demand` of the device.
    pub fn gpu_sample(&self, edges: u64) -> Cost {
        let demand = self.hw.gpu.sample_max_demand;
        Cost {
            work: edges as f64 / self.hw.gpu.sample_edges_per_sec,
            demand,
        }
    }

    /// Host-side feature collection of `bytes` (random row gather into a
    /// contiguous staging buffer — the "FC" cost of Table 2).
    pub fn cpu_collect(&self, bytes: u64) -> Cost {
        let per_core = self.hw.cpu.gather_bytes_per_core_sec;
        Cost {
            work: bytes as f64 / per_core,
            demand: self.gather_threads,
        }
    }

    /// Host→device transfer of `bytes` over PCIe (the "FT" cost). The
    /// per-transfer latency is folded into work at full bandwidth.
    pub fn pcie_transfer(&self, bytes: u64) -> Cost {
        let bw = self.hw.pcie.bandwidth;
        Cost {
            work: bytes as f64 + self.hw.pcie.latency * bw,
            demand: bw,
        }
    }

    /// Zero-copy (UVA) access of `bytes` over PCIe: same volume, lower
    /// effective bandwidth because accesses are fine-grained (DGL-UVA).
    pub fn uva_transfer(&self, bytes: u64) -> Cost {
        let bw = self.hw.pcie.bandwidth;
        // Fine-grained access reaches ~60% of streaming bandwidth.
        Cost {
            work: bytes as f64 / 0.6 + self.hw.pcie.latency * bw,
            demand: bw,
        }
    }

    /// GPU training over `flops` with kernels launched over `rows` rows —
    /// demand follows the occupancy curve, so small batches both run longer
    /// and leave the device under-utilised (Fig 6a).
    pub fn gpu_train(&self, flops: u64, rows: u64) -> Cost {
        let demand = self.hw.gpu_efficiency(rows as f64);
        Cost {
            work: flops as f64 / self.hw.gpu.flops,
            demand,
        }
    }

    /// CPU dense compute of `flops` over `cores` cores (bottom-layer
    /// embedding computation in NeutronOrch).
    pub fn cpu_compute(&self, flops: u64, cores: f64) -> Cost {
        let cores = cores.min(self.hw.cpu.cores).max(1.0);
        Cost {
            work: flops as f64 / self.hw.cpu.flops_per_core,
            demand: cores,
        }
    }

    /// GPU↔GPU synchronisation of `bytes` (gradient all-reduce). Uses
    /// NVLink when present, PCIe otherwise.
    pub fn gpu_sync(&self, bytes: u64) -> Cost {
        match self.hw.nvlink {
            Some(link) => Cost {
                work: bytes as f64 + link.latency * link.bandwidth,
                demand: link.bandwidth,
            },
            None => self.pcie_transfer(bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::HardwareSpec;

    fn model() -> CostModel {
        CostModel::new(HardwareSpec::v100_server(1.0))
    }

    /// Seconds a cost takes running alone on a resource with `capacity`.
    fn solo_seconds(cost: Cost, capacity: f64) -> f64 {
        cost.work / cost.demand.min(capacity)
    }

    #[test]
    fn gpu_sampling_is_much_faster_than_cpu() {
        let m = model();
        let edges = 10_000_000u64;
        let cpu = solo_seconds(m.cpu_sample(edges), m.hardware().cpu.cores);
        let gpu = solo_seconds(m.gpu_sample(edges), 1.0);
        assert!(gpu < cpu, "gpu {gpu} vs cpu {cpu}");
    }

    #[test]
    fn transfer_cost_scales_linearly_plus_latency() {
        let m = model();
        let one = m.pcie_transfer(1_000_000);
        let ten = m.pcie_transfer(10_000_000);
        assert!(ten.work > 9.0 * one.work && ten.work < 10.0 * one.work);
    }

    #[test]
    fn uva_is_slower_per_byte_than_bulk_transfer() {
        let m = model();
        let bytes = 50_000_000u64;
        assert!(m.uva_transfer(bytes).work > m.pcie_transfer(bytes).work);
    }

    #[test]
    fn small_batches_train_slower_per_flop() {
        let m = model();
        let flops = 1_000_000_000u64;
        let small = solo_seconds(m.gpu_train(flops, 128), 1.0);
        let large = solo_seconds(m.gpu_train(flops, 10_000), 1.0);
        assert!(small > 2.0 * large, "small {small} vs large {large}");
    }

    #[test]
    fn cpu_compute_clamps_to_available_cores() {
        let m = model();
        let c = m.cpu_compute(1_000_000, 10_000.0);
        assert_eq!(c.demand, m.hardware().cpu.cores);
    }

    #[test]
    fn nvlink_sync_beats_pcie_sync() {
        let single = CostModel::new(HardwareSpec::v100_server(1.0));
        let multi = CostModel::new(HardwareSpec::dgx1_like(8, 1.0));
        let bytes = 100_000_000u64;
        let over_pcie = solo_seconds(single.gpu_sync(bytes), single.hardware().pcie.bandwidth);
        let over_nvlink = solo_seconds(
            multi.gpu_sync(bytes),
            multi.hardware().nvlink.unwrap().bandwidth,
        );
        assert!(over_nvlink < over_pcie);
    }
}
