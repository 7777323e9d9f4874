//! The NeutronOrch orchestrator (simulation side).

use super::config::NeutronOrchConfig;
use crate::baselines::step_based::{simulate_step_based, StepPlan};
use crate::orchestrator::{Lens, Orchestrator};
use crate::profile::WorkloadProfile;
use crate::report::EpochReport;
use crate::sim::Machine;
use neutron_cache::HybridPolicy;
use neutron_hetero::{CostModel, HardwareSpec, MemLedger, OomError, TaskId, TaskKind};
use neutron_nn::flops;

/// NeutronOrch with a given set of enabled techniques (see
/// [`NeutronOrchConfig`]); [`NeutronOrchConfig::full`] is the published
/// system.
#[derive(Clone, Debug, Default)]
pub struct NeutronOrch {
    /// Enabled techniques.
    pub config: NeutronOrchConfig,
}

impl NeutronOrch {
    /// The full system.
    pub fn new() -> Self {
        Self::default()
    }

    /// A specific ablation stage.
    pub fn with_config(config: NeutronOrchConfig) -> Self {
        config.validate().expect("invalid NeutronOrch config");
        Self { config }
    }
}

impl Orchestrator for NeutronOrch {
    fn name(&self) -> String {
        if self.config == NeutronOrchConfig::full() {
            "NeutronOrch".into()
        } else if self.config == NeutronOrchConfig::baseline() {
            "Baseline".into()
        } else if self.config == NeutronOrchConfig::plus_l() {
            "Baseline+L".into()
        } else if self.config == NeutronOrchConfig::plus_l_he() {
            "Baseline+L+HE".into()
        } else {
            "Baseline+L+HE+HH".into()
        }
    }

    fn simulate_epoch(
        &self,
        profile: &WorkloadProfile,
        hw: &HardwareSpec,
    ) -> Result<EpochReport, OomError> {
        self.config.validate().expect("invalid config");
        if !self.config.layer_based {
            return simulate_step_based(self.name(), &StepPlan::FIG12_BASELINE, profile, hw);
        }
        if !self.config.hotness_reuse {
            return simulate_naive_layer_based(profile, hw, &self.name());
        }
        // Hotness-aware flavor. Hybrid processing needs the GPU idle
        // fraction, which NeutronOrch "monitors during execution" (§4.1.3);
        // we reproduce the feedback loop: simulate with all-CPU hot
        // processing, observe idleness, re-plan, re-simulate.
        let name = self.name();
        let pipelined = self.config.super_batch_pipeline;
        let run = |cpu_fraction| simulate_hotness(profile, hw, &name, cpu_fraction, pipelined);
        let first = run(1.0)?;
        if !self.config.hybrid {
            return Ok(first);
        }
        let policy = HybridPolicy {
            feature_row_bytes: profile.spec.feature_row_bytes(),
            embedding_row_bytes: profile.spec.hidden_row_bytes(),
        };
        // Hot features displace the opportunistic cold-feature cache, so the
        // split is idleness-driven; the ledger of the second pass still
        // validates the result (falling back to the all-CPU plan on OOM).
        // The rule (`plan_from_occupancy`, read here as its CPU fraction) and
        // the split are the simulator's alone: the measured `Session`
        // computes every refresh row on its refresh worker and fills its
        // cache to the budget.
        let cpu_fraction =
            policy.cpu_fraction_from_occupancy(profile.hot.len(), first.gpu_util, u64::MAX);
        run(cpu_fraction).or(Ok(first))
    }
}

/// Naive layer-based orchestration (Fig 8a): the CPU computes the complete
/// bottom layer of every batch — demonstrably a new bottleneck.
fn simulate_naive_layer_based(
    profile: &WorkloadProfile,
    hw: &HardwareSpec,
    name: &str,
) -> Result<EpochReport, OomError> {
    let lens = Lens::new(profile);
    let cm = CostModel::new(hw.clone());
    let mut mem = MemLedger::new(hw.gpu.mem_bytes);
    mem.alloc("params", lens.param_bytes())?;
    mem.alloc("batch", 2 * layer_based_batch_bytes(&lens, profile, 1.0))?;
    let mut m = Machine::new(hw, 1);
    let mut h2d_bytes = 0u64;
    let embed_cores = hw.cpu.cores * 0.75;
    for i in 0..profile.num_batches {
        let stats = profile.stats(i);
        let bottom = &stats.layers[0];
        // CPU: sample the bottom hop + forward-compute the whole layer.
        let sample = cm.cpu_sample(bottom.num_edges as u64);
        let s_cpu = m.cpu_task(TaskKind::Sample, sample, "cpu:sample", &[]);
        let (bottom_train, upper) = lens.train_flops_layer_split(i);
        let bottom_fwd = bottom_train / 3;
        let embed = cm.cpu_compute(bottom_fwd, embed_cores);
        let e = m.cpu_task(TaskKind::HotEmbed, embed, "cpu:embed", &[s_cpu]);
        // GPU: sample the upper hops.
        let upper_edges = stats.total_edges() as u64 - bottom.num_edges as u64;
        let s_gpu = m.gpu_task(
            0,
            TaskKind::Sample,
            cm.gpu_sample(upper_edges),
            "sample",
            &[],
        );
        // Transfer: computed embeddings + data for the GPU-side backward
        // (aggregated neighbor representation + new embedding, §4.1.1).
        let bytes = bottom.num_dst as u64
            * (profile.spec.hidden_row_bytes() + profile.spec.feature_row_bytes())
            + lens.block_bytes(i);
        let ft = m.h2d_task(0, TaskKind::Transfer, cm.pcie_transfer(bytes), "h2d", &[e]);
        h2d_bytes += bytes;
        // GPU: upper layers + the bottom layer's backward pass.
        let train = cm.gpu_train(upper + 2 * bottom_fwd, profile.seeds(i) as u64);
        m.gpu_task(0, TaskKind::Train, train, "train", &[s_gpu, ft]);
    }
    Ok(EpochReport::from_run(
        name,
        &m.sched.run(),
        h2d_bytes,
        mem.used(),
        profile.num_batches,
    ))
}

/// GPU batch bytes (paper scale) under layer-based orchestration: only the
/// cold fraction of bottom features lives on the GPU.
fn layer_based_batch_bytes(lens: &Lens, profile: &WorkloadProfile, cold_fraction: f64) -> u64 {
    let sizes = lens.paper_layer_sizes(profile.config.batch_size);
    let feat = profile.spec.feature_row_bytes() as f64;
    let hid = profile.spec.hidden_row_bytes() as f64;
    let bottom_src = sizes.first().map(|&(_, s)| s).unwrap_or(0.0);
    let mut bytes = bottom_src * cold_fraction * feat;
    for &(dst, src) in sizes.iter().skip(1) {
        bytes += (src + dst) * hid * 2.0;
    }
    bytes as u64
}

/// The hotness-aware flavor: CPU computes hot-vertex embeddings per
/// super-batch, GPU trains with embedding reuse; optionally fully pipelined.
fn simulate_hotness(
    profile: &WorkloadProfile,
    hw: &HardwareSpec,
    name: &str,
    cpu_fraction: f64,
    pipelined: bool,
) -> Result<EpochReport, OomError> {
    let lens = Lens::new(profile);
    let cm = CostModel::new(hw.clone());
    let n = profile.config.super_batch.max(1);
    let gpus = hw.num_gpus.max(1);
    let spec = &profile.spec;
    let hot_ratio = profile.config.hot_ratio;
    let hot_n_paper = (spec.paper_vertices as f64 * hot_ratio) as u64;
    // Paper-scale share of bottom accesses served by CPU-computed hot
    // embeddings (and, under hybrid, GPU-cached hot features).
    let hot_cov = profile.paper_coverage(hot_ratio);

    // Memory (paper scale, per GPU). The layer-based split lets the GPU
    // consume cold bottom-layer features and wide activations as *streamed
    // tiles* (double-buffered) instead of materialising the whole sampled
    // batch — this bounded working set is why NeutronOrch survives depths
    // and batch sizes that OOM the step-based systems (Tables 5/6).
    const STREAM_WORKING_SET_CAP: u64 = 6 << 30;
    let cold_fraction = 1.0 - hot_cov;
    let mut mem = MemLedger::new(hw.gpu.mem_bytes);
    mem.alloc("params", lens.param_bytes())?;
    mem.alloc(
        "batch",
        (2 * layer_based_batch_bytes(&lens, profile, cold_fraction)).min(STREAM_WORKING_SET_CAP),
    )?;
    // Two super-batch versions of hot embeddings (current + incoming).
    mem.alloc(
        "hot-embeddings",
        2 * ((hot_n_paper as f64 * cpu_fraction) as u64) * spec.hidden_row_bytes() / gpus as u64,
    )?;
    // Hybrid: the GPU-cached share holds raw features.
    mem.alloc(
        "hot-feature-cache",
        ((hot_n_paper as f64 * (1.0 - cpu_fraction)) as u64) * spec.feature_row_bytes()
            / gpus as u64,
    )?;
    // "When GPU resources are sufficient, reduce CPU embedding computation
    // while increasing the feature cache ratio" (§5.2): leftover device
    // memory becomes a presample-ranked cache for the next-hottest cold
    // vertices — the measured `Session`'s rule too (each lane fills its
    // cache in presample order until its budget is spent).
    let (extra_ratio, _) = lens.cache_plan(mem.available() * gpus as u64, false);
    mem.alloc("cold-feature-cache", mem.available())?;
    let cold_hit = {
        let combined = profile.paper_coverage(hot_ratio + extra_ratio);
        ((combined - hot_cov) / (1.0 - hot_cov).max(1e-9)).clamp(0.0, 1.0)
    };
    // Fraction of a batch's bottom feature volume that still crosses PCIe.
    let miss_fraction = (1.0 - hot_cov) * (1.0 - cold_hit);

    let mut m = Machine::new(hw, gpus);

    // CPU embedding workload per super-batch.
    let hot_len = profile.hot.len().max(1);
    let edges_per_hot = profile.hot_one_hop_edges as f64 / hot_len as f64;
    let hot_vertices_per_sb = profile.hot_per_super_batch * cpu_fraction;
    let hot_edges_per_sb = (hot_vertices_per_sb * edges_per_hot) as u64;
    let (din0, dout0) = lens.dims[0];
    let embed_flops_per_sb = flops::layer_forward_flops(
        profile.config.kind,
        hot_vertices_per_sb as u64,
        (hot_vertices_per_sb * (edges_per_hot + 1.0)) as u64,
        hot_edges_per_sb,
        din0 as u64,
        dout0 as u64,
    );
    let embed_cores = hw.cpu.cores * 0.75;

    let num_sb = profile.num_batches.div_ceil(n);
    let mut h2d_bytes = 0u64;
    let mut prev_sb_last_train: Vec<Option<TaskId>> = vec![None; gpus];
    let mut embed_tasks: Vec<TaskId> = Vec::with_capacity(num_sb);
    let mut refresh_deps: Vec<TaskId> = Vec::with_capacity(gpus);
    let mut sample_tails: Vec<Option<TaskId>> = vec![None; gpus];
    for sb in 0..num_sb {
        // CPU: one-hop sampling + embedding computation for this
        // super-batch's hot queue.
        refresh_deps.clear();
        if !pipelined {
            // Naive scheduling (Fig 9a): the CPU refresh waits for the
            // previous super-batch to finish training.
            refresh_deps.extend(prev_sb_last_train.iter().flatten().copied());
        }
        let sample = cm.cpu_sample(hot_edges_per_sb);
        let s_hot = m.cpu_task(TaskKind::Sample, sample, "cpu:hotsample", &refresh_deps);
        let embed = cm.cpu_compute(embed_flops_per_sb, embed_cores);
        let e = m.cpu_task(TaskKind::HotEmbed, embed, "cpu:hotembed", &[s_hot]);
        embed_tasks.push(e);
        // The embeddings a super-batch consumes come from the *previous*
        // super-batch's CPU pass (bounded staleness < 2n, §4.2.2).
        let embed_ready = if sb == 0 { e } else { embed_tasks[sb - 1] };

        let first_batch = sb * n;
        let last_batch = ((sb + 1) * n).min(profile.num_batches);
        // Stage 1: all sampling of the super-batch precedes its training
        // ("the GPU completes n rounds of sampling before n training
        // rounds", §4.2.2), avoiding kernel contention.
        sample_tails.fill(None);
        for i in first_batch..last_batch {
            let g = i % gpus;
            let stats = profile.stats(i);
            // Sampling skips the subtrees below CPU-handled hot vertices.
            let bottom_edges = stats.layers[0].num_edges as u64;
            let upper_edges = stats.total_edges() as u64 - bottom_edges;
            let sampled =
                upper_edges + ((bottom_edges as f64) * (1.0 - hot_cov * cpu_fraction)) as u64;
            let s = m.gpu_task(g, TaskKind::Sample, cm.gpu_sample(sampled), "sample", &[]);
            sample_tails[g] = Some(s);
        }
        for i in first_batch..last_batch {
            let g = i % gpus;
            let stats = profile.stats(i);
            // Gather: feature misses + amortised hot embeddings + structure.
            let miss_bytes = ((stats.bottom_src() as u64 * spec.feature_row_bytes()) as f64
                * miss_fraction) as u64;
            let embed_bytes =
                (hot_vertices_per_sb / n as f64 * spec.hidden_row_bytes() as f64) as u64;
            let bytes = miss_bytes + embed_bytes + lens.block_bytes(i);
            // Host-side collection of the missed rows into staging buffers.
            let collect = cm.cpu_collect(miss_bytes);
            let fc = m.cpu_task(TaskKind::GatherCollect, collect, "cpu:gather", &[]);
            let transfer = cm.pcie_transfer(bytes);
            let ft = m.h2d_task(g, TaskKind::Transfer, transfer, "h2d", &[embed_ready, fc]);
            h2d_bytes += bytes;
            // Train: the GPU computes the bottom layer for everything except
            // the CPU-computed hot destinations, plus all upper layers.
            let (bottom_full, upper) = lens.train_flops_layer_split(i);
            let bottom_gpu = ((bottom_full as f64) * (1.0 - hot_cov * cpu_fraction)) as u64;
            // GPU `g` sampled batch `i` of this super-batch above.
            let sampled = sample_tails[g].expect("every GPU with a batch sampled it");
            let train = cm.gpu_train(bottom_gpu + upper, profile.seeds(i) as u64);
            let t = m.gpu_task(g, TaskKind::Train, train, "train", &[ft, sampled]);
            prev_sb_last_train[g] = Some(t);
            if let Some(nv) = m.nvlink.filter(|_| gpus > 1) {
                let allreduce = cm.gpu_sync(2 * lens.param_bytes());
                m.sched
                    .task(nv, TaskKind::Sync, allreduce, "nvlink:allreduce", &[t]);
            }
        }
    }
    Ok(EpochReport::from_run(
        name,
        &m.sched.run(),
        h2d_bytes,
        mem.used(),
        profile.num_batches,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{Case1Dgl, Case4GnnLab};
    use crate::orchestrator::tiny_fixture;
    use crate::profile::WorkloadConfig;
    use neutron_graph::DatasetSpec;
    use neutron_nn::LayerKind;

    #[test]
    fn full_system_runs() {
        let (profile, hw) = tiny_fixture(LayerKind::Gcn, 4);
        let r = NeutronOrch::new().simulate_epoch(&profile, &hw).unwrap();
        assert!(r.epoch_seconds > 0.0);
        assert!(
            r.hot_embed_seconds > 0.0,
            "CPU must be computing hot embeddings"
        );
    }

    #[test]
    fn ablation_ladder_is_mostly_monotone() {
        let (profile, hw) = tiny_fixture(LayerKind::Gcn, 4);
        let ladder = NeutronOrchConfig::ablation_ladder();
        let times: Vec<f64> = ladder
            .iter()
            .map(|(_, cfg)| {
                NeutronOrch::with_config(*cfg)
                    .simulate_epoch(&profile, &hw)
                    .unwrap()
                    .epoch_seconds
            })
            .collect();
        // The full system must beat the baseline and the naive layer split.
        assert!(
            times[4] < times[0],
            "full {} vs baseline {}",
            times[4],
            times[0]
        );
        assert!(times[4] < times[1], "full {} vs +L {}", times[4], times[1]);
        // HE must rescue the naive layer split's CPU bottleneck.
        assert!(times[2] < times[1], "+HE {} vs +L {}", times[2], times[1]);
    }

    #[test]
    fn beats_step_based_baselines_on_skewed_replicas() {
        let mut cfg = WorkloadConfig::paper_default(LayerKind::Gcn);
        cfg.profiled_batches = 3;
        let mut spec = DatasetSpec::reddit_scaled();
        spec.vertices = 4000;
        spec.edges = 400_000;
        let profile = WorkloadProfile::build(&spec, &cfg);
        let hw = HardwareSpec::v100_server(1.0);
        let ours = NeutronOrch::new().simulate_epoch(&profile, &hw).unwrap();
        let dgl = Case1Dgl { pipelined: true }
            .simulate_epoch(&profile, &hw)
            .unwrap();
        let gnnlab = Case4GnnLab.simulate_epoch(&profile, &hw).unwrap();
        assert!(
            ours.epoch_seconds < dgl.epoch_seconds,
            "NeutronOrch {} vs DGL {}",
            ours.epoch_seconds,
            dgl.epoch_seconds
        );
        assert!(
            ours.epoch_seconds < gnnlab.epoch_seconds * 1.05,
            "NeutronOrch {} should at least match GNNLab {}",
            ours.epoch_seconds,
            gnnlab.epoch_seconds
        );
    }

    #[test]
    fn transfers_less_than_dgl() {
        let (profile, hw) = tiny_fixture(LayerKind::Gcn, 4);
        let ours = NeutronOrch::new().simulate_epoch(&profile, &hw).unwrap();
        let dgl = Case1Dgl { pipelined: true }
            .simulate_epoch(&profile, &hw)
            .unwrap();
        assert!(
            ours.h2d_bytes < dgl.h2d_bytes,
            "{} vs {}",
            ours.h2d_bytes,
            dgl.h2d_bytes
        );
    }

    #[test]
    fn multi_gpu_scales() {
        let (profile, _) = tiny_fixture(LayerKind::Gcn, 4);
        let r1 = NeutronOrch::new()
            .simulate_epoch(&profile, &HardwareSpec::dgx1_like(1, 1.0))
            .unwrap();
        let r4 = NeutronOrch::new()
            .simulate_epoch(&profile, &HardwareSpec::dgx1_like(4, 1.0))
            .unwrap();
        assert!(r4.epoch_seconds <= r1.epoch_seconds);
    }
}
