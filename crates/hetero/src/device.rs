//! Hardware specifications and calibrated profiles.

/// GPU device constants (a scaled V100 by default).
#[derive(Clone, Copy, Debug)]
pub struct GpuSpec {
    /// Effective dense-math throughput in FLOP/s when fully utilised.
    pub flops: f64,
    /// Global memory capacity in bytes (scaled with the dataset replica).
    pub mem_bytes: u64,
    /// Sampled edges per second when sampling uses the whole device.
    pub sample_edges_per_sec: f64,
    /// Fraction of the device a sampling kernel can occupy at most.
    pub sample_max_demand: f64,
    /// Batch rows at which training kernels reach ~50% device occupancy;
    /// drives the Fig 6(a) utilization-vs-batch-size curve.
    pub saturation_rows: f64,
}

/// Host CPU constants (a Xeon Platinum 8163-class socket).
#[derive(Clone, Copy, Debug)]
pub struct CpuSpec {
    /// Worker cores available to the training system.
    pub cores: f64,
    /// Effective dense-math FLOP/s **per core**.
    pub flops_per_core: f64,
    /// Sampled edges per second per core (random-access bound).
    pub sample_edges_per_core_sec: f64,
    /// Feature-collection bytes per second per core (random row gather).
    pub gather_bytes_per_core_sec: f64,
    /// Host memory capacity in bytes (scaled).
    pub mem_bytes: u64,
}

/// Interconnect constants.
#[derive(Clone, Copy, Debug)]
pub struct LinkSpec {
    /// Sustained bandwidth, bytes/second.
    pub bandwidth: f64,
    /// Per-transfer latency in seconds.
    pub latency: f64,
}

/// A full machine: one CPU socket, `gpus` identical GPUs, PCIe per GPU and
/// an optional NVLink mesh.
#[derive(Clone, Debug)]
pub struct HardwareSpec {
    pub cpu: CpuSpec,
    pub gpu: GpuSpec,
    pub num_gpus: usize,
    pub pcie: LinkSpec,
    /// NVLink between GPUs; `None` on the single-GPU server.
    pub nvlink: Option<LinkSpec>,
}

/// Named hardware profiles matching the paper's two testbeds (§5.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceProfile {
    /// Aliyun server: Xeon 8163 (48 cores, 368 GB) + 1× V100 16 GB.
    V100Server,
    /// Aliyun 8-GPU server: 96 cores, 736 GB, 8× V100, NVLink (DGX-1-like).
    Dgx1Like,
}

impl HardwareSpec {
    /// Builds a profile, shrinking memory capacities by `scale` — the same
    /// factor the dataset replica was shrunk by, so capacity effects (cache
    /// ratios, OOM) reproduce at replica scale. Compute/bandwidth constants
    /// are *not* scaled: per-vertex work is unchanged by replica size.
    pub fn new(profile: DeviceProfile, scale: f64) -> Self {
        assert!(scale >= 1.0, "scale is paper/replica >= 1");
        let v100 = GpuSpec {
            flops: 2.8e12, // ~20% of 14 TFLOPS peak on sparse GNN kernels
            mem_bytes: ((16.0 * (1u64 << 30) as f64) / scale) as u64,
            sample_edges_per_sec: 5.0e8,
            sample_max_demand: 0.5,
            saturation_rows: 512.0,
        };
        let cpu_cores = match profile {
            DeviceProfile::V100Server => 48.0,
            DeviceProfile::Dgx1Like => 96.0,
        };
        let host_mem = match profile {
            DeviceProfile::V100Server => 368.0,
            DeviceProfile::Dgx1Like => 736.0,
        };
        let cpu = CpuSpec {
            cores: cpu_cores,
            // Effective f32 FLOPS/core on sparse-aggregation-heavy GNN math
            // (far below dense-BLAS peak); keeps the paper's premise that a
            // full bottom layer on the CPU becomes the bottleneck (Fig 8a).
            flops_per_core: 4.5e9,
            // Random-access bound; calibrated so GPU sampling is ~3x faster
            // than 16 CPU workers, the ratio of the paper's Table 3.
            sample_edges_per_core_sec: 5.0e6,
            // Random row gather into pinned staging buffers; calibrated so
            // DGL's FC:FT:T breakdown matches Table 2's proportions.
            gather_bytes_per_core_sec: 1.2e8,
            mem_bytes: ((host_mem * (1u64 << 30) as f64) / scale) as u64,
        };
        // PCIe 3.0 x16 is 12 GB/s nominal; pageable, fragmented GNN feature
        // copies sustain roughly half of that in practice.
        let pcie = LinkSpec {
            bandwidth: 6.0e9,
            latency: 10.0e-6,
        };
        let (num_gpus, nvlink) = match profile {
            DeviceProfile::V100Server => (1, None),
            DeviceProfile::Dgx1Like => (
                8,
                Some(LinkSpec {
                    bandwidth: 150.0e9,
                    latency: 3.0e-6,
                }),
            ),
        };
        Self {
            cpu,
            gpu: v100,
            num_gpus,
            pcie,
            nvlink,
        }
    }

    /// Single-GPU paper testbed at a replica scale.
    pub fn v100_server(scale: f64) -> Self {
        Self::new(DeviceProfile::V100Server, scale)
    }

    /// Multi-GPU paper testbed, restricted to the first `gpus` devices.
    pub fn dgx1_like(gpus: usize, scale: f64) -> Self {
        assert!((1..=8).contains(&gpus));
        let mut hw = Self::new(DeviceProfile::Dgx1Like, scale);
        hw.num_gpus = gpus;
        hw
    }

    /// Effective GPU demand of a dense kernel over `rows` rows — the
    /// occupancy curve behind Fig 6(a): small batches cannot fill the
    /// device even when running alone.
    pub fn gpu_efficiency(&self, rows: f64) -> f64 {
        (rows / (rows + self.gpu.saturation_rows)).clamp(0.05, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_match_paper_testbeds() {
        let single = HardwareSpec::v100_server(1.0);
        assert_eq!(single.num_gpus, 1);
        assert!(single.nvlink.is_none());
        assert_eq!(single.cpu.cores, 48.0);
        let multi = HardwareSpec::dgx1_like(8, 1.0);
        assert_eq!(multi.num_gpus, 8);
        assert!(multi.nvlink.is_some());
        assert_eq!(multi.cpu.cores, 96.0);
    }

    #[test]
    fn memory_scales_down_with_replica() {
        let full = HardwareSpec::v100_server(1.0);
        let scaled = HardwareSpec::v100_server(16.0);
        assert_eq!(full.gpu.mem_bytes, 16 * (1 << 30));
        assert_eq!(scaled.gpu.mem_bytes, (1 << 30));
        // Compute constants unchanged.
        assert_eq!(full.gpu.flops, scaled.gpu.flops);
    }

    #[test]
    fn gpu_efficiency_grows_with_batch_rows() {
        let hw = HardwareSpec::v100_server(1.0);
        let small = hw.gpu_efficiency(128.0);
        let large = hw.gpu_efficiency(10_000.0);
        assert!(small <= 0.25, "small batches underutilise: {small}");
        assert!(large > 0.9, "large batches saturate: {large}");
        assert!(small < large);
        assert!(hw.gpu_efficiency(0.0) >= 0.05, "clamped at a floor");
    }

    #[test]
    fn gpu_outruns_cpu_on_dense_math() {
        let hw = HardwareSpec::v100_server(1.0);
        assert!(hw.gpu.flops > 5.0 * hw.cpu.flops_per_core * hw.cpu.cores);
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn rejects_fractional_scale() {
        let _ = HardwareSpec::v100_server(0.5);
    }
}
