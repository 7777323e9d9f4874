//! The traced pass: the separate run that produces the per-layer numbers.
//!
//! End-to-end metrics are measured with tracing off ([`crate::workloads`]).
//! Here, per training workload:
//!
//! 1. one engine session with every hook off — the stage numbers the
//!    program reports about itself (marked † in the README);
//! 2. the same session with the `timing` hooks and the counting allocator
//!    on — allocations per stage, and `trace.overhead_ratio` against (1);
//! 3. benchmark-driven sequential epochs, in which the benchmark itself
//!    calls sample → gather → byte accounting → assemble → train step for
//!    every batch with a span around each call — per-layer times, counts
//!    and per-kernel seconds, and `trace.coverage` (the parts add up);
//! 4. probes of single layers (`nn`, `tree_average`, cache planning,
//!    pre-sampling, checkpoint load) and the timed oracle epochs.
//!
//! Spans are written at exit as Chrome trace-event JSON.

use crate::adapter::{
    self, count, span, Data, GridDatasets, Policy, Session, SimOutcome, SimProfile, TrainSpec,
    Trainer, MODELS, SYSTEMS,
};
use crate::metrics::{self, median, KERNELS};
use crate::trace::Recorder;
use crate::workloads::{
    epoch_violation, grid_pass, summarize, warm_epochs, GridProfiles, Kind, RunConfig, RunOutput,
    Workload, COLD_EPOCHS, MIB, SMOKE_EPOCHS,
};
use std::time::Instant;

/// Train occupancy the benchmark-driven epochs plan their cache at: fixed,
/// so the cache (and every count downstream of it) is the same on every
/// run, where the engine's own plan follows measured timing.
const PLANNED_OCCUPANCY: f64 = 0.5;

pub fn run(workload: &Workload, cfg: &RunConfig) -> RunOutput {
    let mut out = match &workload.kind {
        Kind::Training(spec) => trace_training(workload.info.name, spec, cfg),
        Kind::SimGrid => trace_sim_grid(cfg),
    };
    // Every per-layer metric is reported by every workload: a layer the
    // workload does not exercise did no work, and reads zero.
    for (name, zero) in metrics::per_layer_zeros() {
        out.readings.entry(name).or_insert(zero);
    }
    out
}

fn med(xs: impl Iterator<Item = f64>) -> f64 {
    median(&xs.collect::<Vec<_>>())
}

/// Sessions of the traced pass are half as long as a measured run's: they
/// feed medians of stage numbers, not a regression gate.
fn session_epochs(cfg: &RunConfig) -> usize {
    if cfg.smoke {
        SMOKE_EPOCHS
    } else {
        (cfg.seconds as usize / 2).max(COLD_EPOCHS + 4)
    }
}

fn trace_training(name: &str, spec: &TrainSpec, cfg: &RunConfig) -> RunOutput {
    let mut out = RunOutput::default();
    let rec = Recorder::new();
    let epochs = session_epochs(cfg);
    let measured_epochs = if cfg.smoke { 1 } else { 3 };
    let fresh = |policy| Trainer::new(Data::build(spec, cfg.seed), spec, cfg.seed, policy);

    // --- graph + set-up, split by layer ---------------------------------
    let t0 = Instant::now();
    let data = Data::build(spec, cfg.seed);
    out.put("graph.build_s", t0.elapsed().as_secs_f64());
    out.put("graph.edges", data.edges() as f64);
    out.put(
        "graph.partition_cut_fraction",
        data.partition_cut_fraction(2),
    );
    let mut plain = Trainer::new(data, spec, cfg.seed, Policy::HotnessAware);
    let (presample_s, hot_coverage) = adapter::presample(&plain, spec);
    out.put("sample.presample_s", presample_s);
    out.put("sample.hot_coverage", hot_coverage);
    out.put("nn.model_bytes", plain.model_bytes() as f64);

    // --- 1 + 2: the engine session, hooks off then on --------------------
    let checkpoint = cfg.scratch_file(&format!("{name}-trace-ck"));
    let cadence =
        (spec.checkpoint_every > 0).then_some((checkpoint.as_path(), spec.checkpoint_every));
    let t0 = Instant::now();
    let untraced = plain.run_session(spec, 0, epochs, cadence);
    let session_s = t0.elapsed().as_secs_f64();
    adapter::set_hooks(true);
    let traced = fresh(Policy::HotnessAware).run_session(spec, 0, epochs, None);
    adapter::set_hooks(false);
    let (untraced, traced) = match (untraced, traced) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            out.attempted = 2 * epochs as u64;
            out.failed = out.attempted;
            for e in [a.err(), b.err()].into_iter().flatten() {
                out.fail(format!("session failed: {e}"));
            }
            std::fs::remove_file(&checkpoint).ok();
            return out;
        }
    };
    out.attempted += 2 * epochs as u64;
    for (epoch, (a, b)) in untraced.epochs.iter().zip(&traced.epochs).enumerate() {
        let mut why = epoch_violation(spec, a.loss, a.max_staleness);
        if a.loss.to_bits() != b.loss.to_bits() {
            why = Some(format!(
                "hooks changed the loss: {:e} vs {:e}",
                a.loss, b.loss
            ));
        }
        if let Some(why) = why {
            out.failed += 1;
            out.fail(format!("epoch {epoch}: {why}"));
        }
    }
    session_readings(&mut out, spec, &untraced, session_s);
    let warm_off = med(warm_epochs(&untraced).iter().map(|e| e.epoch_s));
    let warm_on = med(warm_epochs(&traced).iter().map(|e| e.epoch_s));
    out.put("trace.overhead_ratio", warm_on / warm_off);
    let w = warm_epochs(&traced);
    out.put(
        "tensor.allocs_per_epoch.staging",
        med(w.iter().map(|e| e.staging_allocs as f64)),
    );
    out.put(
        "tensor.allocs_per_epoch.train",
        med(w.iter().map(|e| e.train_allocs as f64)),
    );
    out.put(
        "tensor.allocs_per_epoch.refresh",
        med(w.iter().map(|e| e.refresh_allocs as f64)),
    );
    out.put(
        "tensor.alloc_mib_per_epoch.train",
        med(w.iter().map(|e| e.train_alloc_bytes as f64 / MIB)),
    );

    // --- 3: benchmark-driven sequential epochs ---------------------------
    let mut driven = fresh(Policy::HotnessAware);
    let planned = adapter::plan_cache(&driven, spec, PLANNED_OCCUPANCY);
    out.put("cache.plan_s", planned.plan_s);
    out.put("cache.build_s", planned.build_s);
    out.put("cache.bytes", planned.bytes as f64);
    // Epoch 0 warms the buffers up, outside the trace.
    let mut losses = vec![adapter::traced_epoch(
        &mut driven,
        0,
        &planned,
        &Recorder::new(),
    )];
    let reuses_before = driven.embedding_reuses();
    adapter::set_hooks(true);
    for epoch in 1..=measured_epochs {
        losses.push(adapter::traced_epoch(&mut driven, epoch, &planned, &rec));
    }
    let kernels = adapter::kernel_timing();
    adapter::set_hooks(false);
    out.attempted += losses.len() as u64;
    if spec.replicas == 1 {
        // The same bit-identity contract the untraced run's oracle holds:
        // a sequential epoch reproduces the session's loss, whatever the
        // cache it runs against.
        for (epoch, loss) in losses.iter().enumerate().take(untraced.epochs.len()) {
            let want = untraced.epochs[epoch].loss;
            if loss.to_bits() != want.to_bits() {
                out.failed += 1;
                out.fail(format!(
                    "benchmark-driven epoch {epoch}: loss {loss:e} != session loss {want:e}"
                ));
            }
        }
    }
    let n = measured_epochs as f64;
    let c = |name: &str| rec.count_of(name) as f64;
    out.put("sample.batch_s", median(&rec.durations(span::SAMPLE)));
    out.put("sample.edges_per_epoch", c(count::EDGES) / n);
    out.put(
        "sample.edges_per_s",
        c(count::EDGES) / rec.total(span::SAMPLE),
    );
    out.put("sample.src_vertices_per_epoch", c(count::SRC) / n);
    out.put("gather.batch_s", median(&rec.durations(span::GATHER)));
    out.put(
        "gather.rows_per_s",
        c(count::MISS_ROWS) / rec.total(span::GATHER),
    );
    out.put(
        "gather.assemble_batch_s",
        median(&rec.durations(span::ASSEMBLE)),
    );
    out.put(
        "gather.structure_bytes_share",
        c(count::STRUCTURE_BYTES) / c(count::H2D_BYTES),
    );
    out.put("trainer.step_s", median(&rec.durations(span::STEP)));
    out.put("refresh.run_s", median(&rec.durations(span::REFRESH)));
    out.put(
        "refresh.rows_per_s",
        c(count::REFRESH_ROWS) / rec.total(span::REFRESH),
    );
    out.put(
        "cache.store_reuses_per_epoch",
        (driven.embedding_reuses() - reuses_before) as f64 / n,
    );
    for (kernel, seconds, calls) in kernels {
        debug_assert!(KERNELS.contains(&kernel));
        out.put(&format!("tensor.{kernel}_s"), seconds / n);
        out.put(&format!("tensor.{kernel}_calls"), calls as f64 / n);
    }
    out.put("trace.coverage", rec.coverage(span::EPOCH));

    // --- 4: single-layer probes ------------------------------------------
    adapter::nn_probe(&driven, measured_epochs + 1, 4, &rec);
    let forward = rec.total(span::NN_FORWARD);
    let backward = rec.total(span::NN_BACKWARD);
    out.put(
        "nn.forward_batch_s",
        median(&rec.durations(span::NN_FORWARD)),
    );
    out.put(
        "nn.backward_batch_s",
        median(&rec.durations(span::NN_BACKWARD)),
    );
    out.put("nn.sgd_step_s", median(&rec.durations(span::NN_STEP)));
    out.put("nn.flops_per_batch", c(count::FLOPS) / c(count::NN_BATCHES));
    out.put(
        "nn.gflops_per_s",
        c(count::FLOPS) / (forward + backward) / 1e9,
    );
    out.put("nn.tree_average_s", adapter::tree_average_seconds(&driven));

    // The timed oracle epochs: the plain sequential trainer under the same
    // policy, and under `Exact` — the single-worker baseline. `train_epoch`
    // ends in a test-set evaluation, which the session times separately;
    // take it out so the ratios compare training with training.
    let eval_s = med(untraced.epochs.iter().map(|e| e.eval_s));
    let timed_epochs = |trainer: &mut Trainer| {
        med((0..2).map(|epoch| {
            let t0 = Instant::now();
            trainer.sequential_epoch(epoch);
            t0.elapsed().as_secs_f64() - eval_s
        }))
    };
    let seq_epoch_s = timed_epochs(&mut fresh(Policy::HotnessAware));
    let exact_epoch_s = timed_epochs(&mut fresh(Policy::Exact));
    out.put("trainer.seq_epoch_s", seq_epoch_s);
    out.put("trainer.exact_epoch_s", exact_epoch_s);
    out.put("engine.overlap_gain", seq_epoch_s / warm_off);
    out.put("engine.speedup_vs_exact", exact_epoch_s / warm_off);

    if cadence.is_some() {
        let t0 = Instant::now();
        let restored = driven.restore_from(&checkpoint);
        out.put("checkpoint.load_s", t0.elapsed().as_secs_f64());
        if let Err(e) = restored {
            out.failed += 1;
            out.fail(format!("checkpoint load: {e}"));
        }
        std::fs::remove_file(&checkpoint).ok();
    }

    // The simulator on this workload's own graph.
    let t0 = Instant::now();
    let profile = SimProfile::of_training(spec, cfg.seed);
    out.put("sample.profile_s", t0.elapsed().as_secs_f64());
    let mut simulate_s = Vec::new();
    let (mut batches, mut ooms) = (0, 0);
    for (column, system) in SYSTEMS.iter().enumerate() {
        if !profile.supports(column) {
            continue;
        }
        let t0 = Instant::now();
        let outcome = profile.simulate(column);
        simulate_s.push(t0.elapsed().as_secs_f64());
        match outcome {
            SimOutcome::Ok(e) => {
                batches += e.batches;
                out.put(&format!("orch.sim_epoch_s.{system}"), e.epoch_s);
            }
            SimOutcome::Oom => ooms += 1,
        }
    }
    out.put("hetero.simulate_s", median(&simulate_s));
    out.put("hetero.batches", batches as f64);
    out.put("orch.oom_cells", ooms as f64);

    if let Err(e) = rec.write_chrome(&cfg.out_dir.join(format!("trace-{name}.json"))) {
        out.fail(format!("writing the trace: {e}"));
        out.failed += 1;
    }
    out
}

/// The † readings: what the hooks-off session reports about itself
/// (`SessionReport` / `EpochRun` / `PipelineReport` and their replicated
/// counterparts), summarised over its warm epochs.
fn session_readings(out: &mut RunOutput, spec: &TrainSpec, session: &Session, session_s: f64) {
    let all = &session.epochs;
    let w = warm_epochs(session);
    out.put("engine.busy_s.sample", med(w.iter().map(|e| e.sample_s)));
    out.put("engine.busy_s.gather", med(w.iter().map(|e| e.gather_s)));
    out.put(
        "engine.busy_s.transfer",
        med(w.iter().map(|e| e.transfer_s)),
    );
    out.put("engine.busy_s.train", med(w.iter().map(|e| e.train_s)));
    out.put(
        "engine.busy_s.train_wait",
        med(w.iter().map(|e| e.train_wait_s)),
    );
    out.put("engine.train_occupancy", med(w.iter().map(|e| e.occupancy)));
    out.put("engine.first_epoch_s", all[0].epoch_s);
    out.put("engine.startup_s", session.startup_s);
    let inside: f64 = all
        .iter()
        .map(|e| e.epoch_s + e.eval_s + e.checkpoint_s)
        .sum();
    out.put("engine.boundary_s", (session_s - inside).max(0.0));
    out.put("engine.cpu_fraction", all[all.len() - 1].cpu_fraction);
    out.put(
        "engine.reorder_peak",
        all.iter().map(|e| e.reorder_peak).max().unwrap_or(0) as f64,
    );
    out.put("refresh.worker_busy_s", med(w.iter().map(|e| e.refresh_s)));
    out.put("trainer.eval_s", med(all.iter().map(|e| e.eval_s)));
    out.put("trainer.final_test_acc", all[all.len() - 1].test_accuracy);
    out.put(
        "cache.cached_vertices",
        all[all.len() - 1].cached_vertices as f64,
    );
    let hits: u64 = w.iter().map(|e| e.cache_hits).sum();
    let misses: u64 = w.iter().map(|e| e.cache_misses).sum();
    out.put(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.put(
        "cache.max_staleness",
        all.iter().map(|e| e.max_staleness).max().unwrap_or(0) as f64,
    );
    out.put(
        "sample.remote_pulls_per_epoch",
        med(w.iter().map(|e| e.remote_picks as f64)),
    );
    if spec.replicas > 1 {
        out.put(
            "replica.steps_per_epoch",
            med(w.iter().map(|e| e.steps as f64)),
        );
        out.put(
            "replica.allreduce_bytes_per_epoch",
            med(w.iter().map(|e| e.allreduce_bytes as f64)),
        );
        out.put(
            "replica.remote_feature_bytes_per_epoch",
            med(w.iter().map(|e| e.remote_feature_bytes as f64)),
        );
        out.put(
            "replica.interconnect_s_per_epoch",
            med(w.iter().map(|e| e.interconnect_s)),
        );
        let busiest =
            |e: &adapter::EpochStats| e.replica_staging_s.iter().copied().fold(0.0, f64::max);
        out.put("replica.staging_busy_s.max", med(w.iter().map(busiest)));
        out.put(
            "replica.staging_imbalance",
            med(w.iter().map(|e| {
                let mean =
                    e.replica_staging_s.iter().sum::<f64>() / e.replica_staging_s.len() as f64;
                busiest(e) / mean
            })),
        );
    }
    let writes: Vec<f64> = all
        .iter()
        .map(|e| e.checkpoint_s)
        .filter(|&s| s > 0.0)
        .collect();
    if !writes.is_empty() {
        out.put("checkpoint.write_s", median(&writes));
        out.put(
            "checkpoint.bytes",
            all.iter().map(|e| e.checkpoint_bytes).max().unwrap_or(0) as f64,
        );
        out.put(
            "checkpoint.stall_share",
            writes.iter().sum::<f64>() / session_s,
        );
    }
}

fn trace_sim_grid(cfg: &RunConfig) -> RunOutput {
    let mut out = RunOutput::default();
    let rec = Recorder::new();
    let datasets = GridDatasets::new(cfg.smoke, cfg.seed);
    let root = rec.begin(span::GRID, None, 0);

    // `WorkloadProfile::build` starts with a topology build of its own; one
    // more per dataset, under its own span, says how much of the profile
    // span is the graph generator's.
    let mut edges = 0;
    for dataset in 0..datasets.len() {
        edges += rec.span(span::GRAPH_TOPOLOGY, Some(root), dataset as u32 + 1, || {
            datasets.build_topology(dataset)
        });
    }
    let grid = GridProfiles::build(&datasets, Some((&rec, root)));
    let traced = grid_pass(&grid, Some((&rec, root)));
    rec.end(root);
    let untraced = grid_pass(&grid, None);

    let summary = summarize(&traced, grid.datasets);
    out.attempted = traced.cells.len() as u64;
    out.failed = summary.failures.len() as u64;
    for (i, why) in &summary.failures {
        let c = &traced.cells[*i];
        out.fail(format!(
            "cell {} / {} / column {}: {why}",
            datasets.name(c.dataset),
            MODELS[c.model],
            c.column
        ));
    }
    if traced.cells != untraced.cells {
        out.failed = out.attempted;
        out.fail("spans changed the simulated results".into());
    }

    let topology_s = rec.total(span::GRAPH_TOPOLOGY);
    out.put("graph.build_s", topology_s);
    out.put("graph.edges", edges as f64);
    out.put(
        "sample.profile_s",
        rec.total(span::SAMPLE_PROFILE) - MODELS.len() as f64 * topology_s,
    );
    out.put(
        "sample.hot_coverage",
        grid.profiles
            .iter()
            .map(SimProfile::hot_coverage)
            .sum::<f64>()
            / grid.profiles.len() as f64,
    );
    out.put("hetero.simulate_s", median(&rec.durations(span::SIMULATE)));
    out.put("hetero.batches", summary.batches as f64);
    for (system, epoch_s) in SYSTEMS.iter().zip(&summary.system_epoch_s) {
        out.put(&format!("orch.sim_epoch_s.{system}"), *epoch_s);
    }
    out.put("orch.oom_cells", summary.oom_cells as f64);
    out.put(
        "orch.ablation_monotone_cells",
        summary.monotone_ladders as f64,
    );
    out.put("trace.overhead_ratio", traced.seconds / untraced.seconds);
    out.put("trace.coverage", rec.coverage(span::GRID));
    if let Err(e) = rec.write_chrome(&cfg.out_dir.join("trace-sim_grid.json")) {
        out.fail(format!("writing the trace: {e}"));
        out.failed += 1;
    }
    out
}
