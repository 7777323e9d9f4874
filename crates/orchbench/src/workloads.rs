//! The four workloads and their untraced runs: set-up, the measured
//! session, the in-run oracle, and the end-to-end readings.
//!
//! Closed loop, one client: one training session (or one simulation grid)
//! at a time, driven from this thread. An operation is one epoch (training
//! workloads) or one grid cell (`sim_grid`); the oracle is computed by the
//! same build in the same run, so a legitimate arithmetic change moves both
//! sides and only a broken contract fails.

use crate::adapter::{
    ladder_rungs, span, Data, EpochStats, GraphKind, GridDatasets, Model, Policy, Session,
    SimOutcome, SimProfile, TrainSpec, Trainer, CASES, MODELS, NEUTRONORCH, SYSTEMS,
};
use crate::env;
use crate::metrics::{self, geomean, median, percentile, Readings, WorkloadInfo, WORKLOADS};
use crate::trace::{Recorder, SpanId};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

pub(crate) const MIB: f64 = (1u64 << 20) as f64;

/// Epoch indices 0 (cold, no plan yet) and 1 (first plan / cache install)
/// are not "warm".
pub const COLD_EPOCHS: usize = 2;
/// Oracle epochs the plain sequential trainer replays (training
/// workloads), and epochs the second replicated session replays.
const ORACLE_EPOCHS: usize = 3;
/// Epochs of a smoke session: just enough for the oracle and one warm epoch.
pub const SMOKE_EPOCHS: usize = 3;
/// Warm grid passes timed as one sample (a *grid epoch*). A pass is ≈40 ms
/// and a shared box switches between a faster and a slower mode (31 and
/// 39 ms passes inside one run), so a percentile of single passes flips
/// between the two from run to run: the driver saw 17% and 39% between the
/// quartiles of ten runs' 75th percentiles. Twenty in a row take ≈0.8 s, as
/// long as a training epoch, whose percentiles held; bursts shorter than
/// that are blended into the sample.
pub const PASSES_PER_GRID_EPOCH: usize = 20;

/// What a workload runs.
#[derive(Clone, Debug)]
pub enum Kind {
    Training(TrainSpec),
    SimGrid,
}

/// A workload, sized for a real run or for the crate's smoke tests.
#[derive(Clone, Debug)]
pub struct Workload {
    pub info: &'static WorkloadInfo,
    pub kind: Kind,
}

/// Looks a workload up by name. `smoke` shrinks every input so the whole
/// suite runs in seconds in a debug build — same code paths, no meaning
/// in the numbers.
pub fn lookup(name: &str, smoke: bool) -> Option<Workload> {
    let info = WORKLOADS.iter().find(|w| w.name == name)?;
    let community = TrainSpec {
        graph: GraphKind::Community,
        vertices: if smoke { 600 } else { 40_000 },
        edges: if smoke { 9_000 } else { 3_200_000 },
        feature_dim: 64,
        model: Model::Gcn,
        batch_size: if smoke { 64 } else { 256 },
        hot_ratio: 0.2,
        super_batch: 2,
        h2d_gibps: 0.0,
        gpu_free_bytes: 64 << 20,
        replicas: 1,
        checkpoint_every: 0,
    };
    let kind = match info.letter {
        'T' => Kind::Training(community),
        'L' => Kind::Training(TrainSpec {
            graph: GraphKind::Rmat,
            vertices: if smoke { 500 } else { 20_000 },
            edges: if smoke { 8_000 } else { 1_600_000 },
            feature_dim: 128,
            // Fixed, never calibrated from a timing of the same run. Sized
            // so the transfer stall is about twice the train stage's busy
            // time (occupancy near 0.5); smoke batches are tiny, so its
            // link is slower still to stay link-bound.
            h2d_gibps: if smoke { 0.02 } else { 0.10 },
            ..community
        }),
        'R' => Kind::Training(TrainSpec {
            model: Model::Sage,
            replicas: 2,
            checkpoint_every: if smoke { 2 } else { 4 },
            ..community
        }),
        'S' => Kind::SimGrid,
        other => unreachable!("workload letter {other}"),
    };
    Some(Workload { info, kind })
}

/// How much one run does. Work is fixed by `--seconds`, not by a clock:
/// each training workload's epoch is sized to about a second on the
/// reference box, so `--seconds N` trains N epochs (and simulates N grid
/// epochs of [`PASSES_PER_GRID_EPOCH`] warm passes each) — a fixed amount of
/// work keeps `session_s` comparable between commits, which a time-boxed
/// loop would not.
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: u64,
    pub smoke: bool,
    pub out_dir: PathBuf,
}

impl RunConfig {
    pub fn epochs(&self) -> usize {
        if self.smoke {
            SMOKE_EPOCHS
        } else {
            (self.seconds as usize).max(COLD_EPOCHS + 4)
        }
    }

    /// Timed samples of the grid: each is one *grid epoch*, a block of
    /// consecutive warm passes. As many as a training run has epochs, and an
    /// even number, because half run before the second set-up and half after.
    pub fn grid_epochs(&self) -> usize {
        if self.smoke {
            2
        } else {
            self.epochs().next_multiple_of(2)
        }
    }

    pub fn passes_per_grid_epoch(&self) -> usize {
        if self.smoke {
            2
        } else {
            PASSES_PER_GRID_EPOCH
        }
    }

    /// Set-ups per run; the median is reported. A training set-up takes a
    /// fifth of a second, so it is repeated often (and also yields the spare
    /// trainers the oracle needs, up to two). The grid's set-up is 18
    /// profile builds (≈12 s), so it is repeated once.
    fn setups(&self, training: bool) -> usize {
        match (training, self.smoke) {
            (true, true) => 3,
            (true, false) => 9,
            (false, _) => 2,
        }
    }

    pub fn scratch_file(&self, stem: &str) -> PathBuf {
        self.out_dir
            .join(format!("{stem}-{}.tmp", std::process::id()))
    }
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    pub readings: Readings,
    /// Raw samples behind a reading, for pooling across the runs of a set.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// One line per failed operation or broken contract.
    pub failures: Vec<String>,
}

impl RunOutput {
    pub fn put(&mut self, name: &str, value: f64) {
        metrics::put(&mut self.readings, name, value);
    }

    pub(crate) fn fail(&mut self, what: String) {
        self.failures.push(what);
    }
}

pub fn run(workload: &Workload, cfg: &RunConfig) -> RunOutput {
    match &workload.kind {
        Kind::Training(spec) => run_training(workload.info.name, spec, cfg),
        Kind::SimGrid => run_sim_grid(cfg),
    }
}

/// Builds `n` trainers one after another, timing each set-up
/// (`DatasetSpec::build_full` + `ConvergenceTrainer::new`, which includes
/// pre-sampling), and keeps the last `keep` of them.
fn timed_setups(spec: &TrainSpec, seed: u64, n: usize, keep: usize) -> (Vec<f64>, Vec<Trainer>) {
    let mut seconds = Vec::with_capacity(n);
    let mut trainers = Vec::with_capacity(keep + 1);
    for _ in 0..n {
        let t0 = Instant::now();
        let data = Data::build(spec, seed);
        let trainer = Trainer::new(data, spec, seed, Policy::HotnessAware);
        seconds.push(t0.elapsed().as_secs_f64());
        trainers.push(trainer);
        if trainers.len() > keep {
            trainers.remove(0);
        }
    }
    (seconds, trainers)
}

/// Seeds one epoch trains: every training vertex at R=1; at R>1 each step
/// takes one batch per replica and tail batches are dropped.
fn seeds_per_epoch(spec: &TrainSpec, trainer: &Trainer, steps: usize) -> f64 {
    let all = trainer.train_vertices();
    if spec.replicas == 1 {
        all as f64
    } else {
        all.min(steps * spec.batch_size * spec.replicas) as f64
    }
}

/// The warm epochs of a session: all but the first [`COLD_EPOCHS`] (a
/// session too short to have any keeps its last epoch).
pub fn warm_epochs(session: &Session) -> &[EpochStats] {
    &session.epochs[COLD_EPOCHS.min(session.epochs.len() - 1)..]
}

/// The per-epoch contract every session epoch must meet on its own:
/// finite loss and a staleness gap below `2 × super_batch`.
pub fn epoch_violation(spec: &TrainSpec, loss: f32, max_staleness: u64) -> Option<String> {
    if !loss.is_finite() {
        return Some(format!("loss {loss} is not finite"));
    }
    let bound = 2 * spec.super_batch as u64;
    (max_staleness >= bound).then(|| format!("max_staleness {max_staleness} >= {bound}"))
}

/// Replays the first epochs on independent trainers and returns, per
/// session epoch, why it failed the oracle (if it did).
///
/// R=1: the plain sequential `train_epoch` must give bit-identical losses.
/// R>1: a second session must reproduce the first's losses (determinism)
/// and checkpoint after epoch 1; that file, loaded into a fresh trainer and
/// resumed, must reproduce epoch 2 (kill-and-restore).
fn oracle(
    spec: &TrainSpec,
    cfg: &RunConfig,
    session: &Session,
    spares: &mut Vec<Trainer>,
) -> Vec<(usize, String)> {
    let mut bad = Vec::new();
    let replay = ORACLE_EPOCHS.min(session.epochs.len());
    let mut expect = |epoch: usize, got: f32, what: &str| {
        let want = session.epochs[epoch].loss;
        if got.to_bits() != want.to_bits() {
            bad.push((
                epoch,
                format!("{what} loss {got:e} != session loss {want:e}"),
            ));
        }
    };
    if spec.replicas == 1 {
        let mut sequential = spares.pop().expect("one spare trainer for the oracle");
        for epoch in 0..replay {
            let loss = sequential.sequential_epoch(epoch);
            expect(epoch, loss, "sequential train_epoch");
        }
        return bad;
    }
    let path = cfg.scratch_file("oracle-ck");
    let mut second = spares.pop().expect("two spare trainers for the oracle");
    let mut resumed = spares.pop().expect("two spare trainers for the oracle");
    let kill_after = replay - 1;
    let outcome = second
        .run_session(spec, 0, kill_after, Some((&path, kill_after)))
        .and_then(|again| {
            for (epoch, run) in again.epochs.iter().enumerate() {
                expect(epoch, run.loss, "second session");
            }
            let next = resumed.restore_from(&path)?;
            if next != kill_after {
                return Err(format!("checkpoint resumes at {next}, not {kill_after}"));
            }
            let rest = resumed.run_session(spec, kill_after, 1, None)?;
            expect(kill_after, rest.epochs[0].loss, "restored session");
            Ok(())
        });
    std::fs::remove_file(&path).ok();
    if let Err(e) = outcome {
        bad.push((kill_after, format!("oracle session failed: {e}")));
    }
    bad
}

/// The paper's figure of merit on one profile: simulated NeutronOrch epoch
/// seconds and best-of-Case-1–4 ÷ NeutronOrch. `Err` when NeutronOrch
/// itself does not fit.
fn figure_of_merit(profile: &SimProfile) -> Result<(f64, f64), String> {
    let orch = match profile.simulate(NEUTRONORCH) {
        SimOutcome::Ok(e) => e,
        SimOutcome::Oom => return Err("NeutronOrch simulation reports OOM".into()),
    };
    let best_case = (0..CASES)
        .filter(|&c| profile.supports(c))
        .filter_map(|c| match profile.simulate(c) {
            SimOutcome::Ok(e) => Some(e.epoch_s),
            SimOutcome::Oom => None,
        })
        .fold(f64::INFINITY, f64::min);
    Ok((orch.epoch_s, best_case / orch.epoch_s))
}

fn run_training(name: &str, spec: &TrainSpec, cfg: &RunConfig) -> RunOutput {
    let mut out = RunOutput::default();
    let epochs = cfg.epochs();
    out.attempted = epochs as u64;

    let spare = if spec.replicas == 1 { 1 } else { 2 };
    let (setup_s, mut trainers) = timed_setups(spec, cfg.seed, cfg.setups(true), spare + 1);
    let mut main = trainers.pop().expect("at least one set-up");

    let checkpoint = cfg.scratch_file(&format!("{name}-ck"));
    let cadence =
        (spec.checkpoint_every > 0).then_some((checkpoint.as_path(), spec.checkpoint_every));
    let t0 = Instant::now();
    let session = main.run_session(spec, 0, epochs, cadence);
    let session_s = t0.elapsed().as_secs_f64();
    std::fs::remove_file(&checkpoint).ok();
    let session = match session {
        Ok(s) => s,
        Err(e) => {
            out.failed = out.attempted;
            out.fail(format!("session failed: {e}"));
            return out;
        }
    };

    let mut failed_epochs = vec![false; epochs];
    for (epoch, run) in session.epochs.iter().enumerate() {
        if let Some(why) = epoch_violation(spec, run.loss, run.max_staleness) {
            failed_epochs[epoch] = true;
            out.fail(format!("epoch {epoch}: {why}"));
        }
    }
    for (epoch, why) in oracle(spec, cfg, &session, &mut trainers) {
        failed_epochs[epoch] = true;
        out.fail(format!("epoch {epoch}: {why}"));
    }
    out.failed = failed_epochs.iter().filter(|&&f| f).count() as u64;

    let warm = warm_epochs(&session);
    let warm_s: Vec<f64> = warm.iter().map(|e| e.epoch_s).collect();
    let warm_seeds: f64 = warm
        .iter()
        .map(|e| seeds_per_epoch(spec, &main, e.steps))
        .sum();
    let warm_h2d: Vec<f64> = warm.iter().map(|e| e.h2d_bytes as f64 / MIB).collect();
    out.put("setup_s", median(&setup_s));
    out.put("warm_epoch_s", median(&warm_s));
    out.put("warm_epoch_p75_s", percentile(&warm_s, 0.75));
    out.put("seeds_per_s", warm_seeds / warm_s.iter().sum::<f64>());
    out.put("session_s", session_s);
    out.put("h2d_mib_per_epoch", median(&warm_h2d));
    if spec.graph == GraphKind::Community {
        let last = session.epochs.last().expect("a session has epochs");
        out.put("final_test_acc", last.test_accuracy);
    }
    match figure_of_merit(&SimProfile::of_training(spec, cfg.seed)) {
        Ok((orch_s, speedup)) => {
            out.put("sim_orch_epoch_s", orch_s);
            out.put("sim_speedup_vs_best_case", speedup);
        }
        Err(e) => {
            out.failed = out.failed.max(1);
            out.fail(e);
        }
    }
    out.put("peak_rss_mib", env::peak_rss_mib().unwrap_or(f64::NAN));
    out.samples.insert("setup_s", setup_s);
    out.samples
        .insert("warm_seconds", vec![warm_s.iter().sum()]);
    out.samples.insert("warm_epoch_s", warm_s);
    out.samples.insert("warm_seeds", vec![warm_seeds]);
    // Epoch 0 runs before the first plan, so its bytes depend on the seeded
    // sampling alone: an exact count, unlike the warm epochs'.
    out.samples
        .insert("epoch0_h2d_bytes", vec![session.epochs[0].h2d_bytes as f64]);
    // Where the adaptive split settled, per epoch: the first thing to look
    // at when two runs of one seed disagree.
    let series =
        |f: &dyn Fn(&EpochStats) -> f64| -> Vec<f64> { session.epochs.iter().map(f).collect() };
    out.samples.insert("epoch_s", series(&|e| e.epoch_s));
    out.samples.insert("occupancy", series(&|e| e.occupancy));
    out.samples
        .insert("cpu_fraction", series(&|e| e.cpu_fraction));
    out.samples
        .insert("cached_vertices", series(&|e| e.cached_vertices as f64));
    out
}

// ---------------------------------------------------------------------------
// sim_grid
// ---------------------------------------------------------------------------

/// The profiles of the grid, dataset-major, model-minor.
pub struct GridProfiles {
    pub profiles: Vec<SimProfile>,
    pub datasets: usize,
}

impl GridProfiles {
    /// Builds the 18 workload profiles (`neutron_bench::build_profile`).
    /// Traced, each build is a `sample.profile` span (it includes a
    /// topology build of its own; the traced pass times that share apart).
    pub fn build(grid: &GridDatasets, trace: Option<(&Recorder, SpanId)>) -> Self {
        let mut profiles = Vec::with_capacity(grid.len() * MODELS.len());
        for dataset in 0..grid.len() {
            for model in 0..MODELS.len() {
                let id = (dataset * MODELS.len() + model + 1) as u32;
                profiles.push(match trace {
                    Some((rec, parent)) => rec.span(span::SAMPLE_PROFILE, Some(parent), id, || {
                        grid.build_profile(dataset, model)
                    }),
                    None => grid.build_profile(dataset, model),
                });
            }
        }
        Self {
            profiles,
            datasets: grid.len(),
        }
    }
}

/// One operation of the grid: a (dataset, model, system) cell or one rung
/// of a dataset's ablation ladder.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Cell {
    pub dataset: usize,
    pub model: usize,
    /// Index into [`SYSTEMS`], or `SYSTEMS.len() + rung` for the ladder.
    pub column: usize,
    pub outcome: SimOutcome,
}

/// One pass over the grid: every supported cell simulated twice from the
/// same profile, plus the Fig 12 ladder on each dataset's GCN profile.
pub struct GridPass {
    pub cells: Vec<Cell>,
    pub seconds: f64,
    /// Training seeds the simulated epochs of the pass cover.
    pub seeds: u64,
    /// Indices of cells whose two simulations differed in any bit.
    pub mismatched: Vec<usize>,
}

pub fn grid_pass(grid: &GridProfiles, trace: Option<(&Recorder, SpanId)>) -> GridPass {
    let t0 = Instant::now();
    let mut pass = GridPass {
        cells: Vec::new(),
        seconds: 0.0,
        seeds: 0,
        mismatched: Vec::new(),
    };
    for (index, profile) in grid.profiles.iter().enumerate() {
        let (dataset, model) = (index / MODELS.len(), index % MODELS.len());
        // Fig 12 runs its ladder on GCN.
        let ladder = if model == 0 { ladder_rungs() } else { 0 };
        for column in (0..SYSTEMS.len() + ladder).filter(|&c| profile.supports(c)) {
            let id = pass.cells.len() as u32 + 1;
            let outcome = match trace {
                Some((rec, parent)) => rec.span(span::SIMULATE, Some(parent), id, || {
                    profile.simulate(column)
                }),
                None => profile.simulate(column),
            };
            if profile.simulate(column) != outcome {
                pass.mismatched.push(pass.cells.len());
            }
            pass.seeds += 2 * profile.seeds_per_epoch();
            pass.cells.push(Cell {
                dataset,
                model,
                column,
                outcome,
            });
        }
    }
    pass.seconds = t0.elapsed().as_secs_f64();
    pass
}

/// What the cells of a pass say about the modelled systems.
pub struct GridSummary {
    /// Geomean of NeutronOrch's simulated epoch seconds over the grid.
    pub orch_epoch_s: f64,
    /// Geomean of (best of Case 1–4) ÷ NeutronOrch.
    pub speedup_vs_best_case: f64,
    /// Mean simulated H2D MiB of a NeutronOrch epoch.
    pub orch_h2d_mib: f64,
    /// Geomean simulated epoch seconds per system (over its non-OOM cells).
    pub system_epoch_s: Vec<f64>,
    pub oom_cells: usize,
    /// Datasets whose ablation ladder never gets slower rung to rung.
    pub monotone_ladders: usize,
    /// Batches the simulated epochs of one pass cover.
    pub batches: u64,
    /// Why each failed cell failed, by cell index.
    pub failures: Vec<(usize, String)>,
}

pub fn summarize(pass: &GridPass, datasets: usize) -> GridSummary {
    let mut failures: Vec<(usize, String)> = pass
        .mismatched
        .iter()
        .map(|&i| (i, "two simulations of one profile differ".to_string()))
        .collect();
    let mut per_system: Vec<Vec<f64>> = vec![Vec::new(); SYSTEMS.len()];
    let (mut orch, mut speedups, mut h2d) = (Vec::new(), Vec::new(), Vec::new());
    let (mut oom_cells, mut batches) = (0, 0u64);
    let mut ladders: Vec<Vec<f64>> = vec![Vec::new(); datasets];
    let group = |cell: &Cell| cell.dataset * MODELS.len() + cell.model;
    let mut best_case = vec![f64::INFINITY; datasets * MODELS.len()];
    for (i, cell) in pass.cells.iter().enumerate() {
        match cell.outcome {
            SimOutcome::Ok(e) if !e.epoch_s.is_finite() || e.epoch_s <= 0.0 => {
                failures.push((i, format!("simulated epoch of {} s", e.epoch_s)));
            }
            SimOutcome::Ok(e) => {
                batches += e.batches as u64;
                match cell.column {
                    c if c >= SYSTEMS.len() => ladders[cell.dataset].push(e.epoch_s),
                    c => {
                        per_system[c].push(e.epoch_s);
                        if c < CASES {
                            let best = &mut best_case[group(cell)];
                            *best = best.min(e.epoch_s);
                        }
                    }
                }
            }
            SimOutcome::Oom if cell.column == NEUTRONORCH => {
                failures.push((i, "NeutronOrch reports OOM".into()));
            }
            SimOutcome::Oom => {
                oom_cells += 1;
                if cell.column >= SYSTEMS.len() {
                    // An OOM rung is an infinitely slow one.
                    ladders[cell.dataset].push(f64::INFINITY);
                }
            }
        }
    }
    for cell in pass.cells.iter().filter(|c| c.column == NEUTRONORCH) {
        if let SimOutcome::Ok(e) = cell.outcome {
            orch.push(e.epoch_s);
            h2d.push(e.h2d_bytes as f64 / MIB);
            speedups.push(best_case[group(cell)] / e.epoch_s);
        }
    }
    GridSummary {
        orch_epoch_s: geomean(&orch),
        speedup_vs_best_case: geomean(&speedups),
        orch_h2d_mib: h2d.iter().sum::<f64>() / h2d.len().max(1) as f64,
        system_epoch_s: per_system.iter().map(|xs| geomean(xs)).collect(),
        oom_cells,
        monotone_ladders: ladders
            .iter()
            .filter(|l| !l.is_empty() && l.windows(2).all(|w| w[1] <= w[0]))
            .count(),
        batches,
        failures,
    }
}

fn run_sim_grid(cfg: &RunConfig) -> RunOutput {
    let mut out = RunOutput::default();
    let datasets = GridDatasets::new(cfg.smoke, cfg.seed);

    // A session: build every profile, then the first (cold) pass.
    let session = || {
        let t0 = Instant::now();
        let grid = GridProfiles::build(&datasets, None);
        let setup_s = t0.elapsed().as_secs_f64();
        let cold = grid_pass(&grid, None);
        (grid, cold, setup_s, t0.elapsed().as_secs_f64())
    };
    let (grid, cold, first_setup_s, first_session_s) = session();
    let (mut setup_s, mut session_s) = (vec![first_setup_s], vec![first_session_s]);

    let summary = summarize(&cold, grid.datasets);
    out.attempted = cold.cells.len() as u64;
    let mut failed_cells = vec![false; cold.cells.len()];
    for (i, why) in &summary.failures {
        failed_cells[*i] = true;
        let c = &cold.cells[*i];
        out.fail(format!(
            "cell {} / {} / column {}: {why}",
            datasets.name(c.dataset),
            MODELS[c.model],
            c.column
        ));
    }

    // Warm grid epochs, from the already-built profiles: each sample is the
    // mean host seconds of a pass over one block of consecutive passes. The
    // further sessions run between them, so the samples span the whole run
    // and one slow spell of the box cannot cover most of them.
    let sessions = cfg.setups(false);
    let mut pass_s = Vec::with_capacity(cfg.grid_epochs());
    let mut seeds = 0u64;
    let mut drifted = false;
    for part in 0..sessions {
        if part > 0 {
            // A further set-up and cold pass, timed; it must rebuild
            // bit-identical profiles.
            let (_, rebuilt, setup, whole) = session();
            setup_s.push(setup);
            session_s.push(whole);
            for (i, (a, b)) in cold.cells.iter().zip(&rebuilt.cells).enumerate() {
                if a != b {
                    failed_cells[i] = true;
                    out.fail(format!("cell {i}: a rebuilt profile simulates differently"));
                }
            }
        }
        let share = |n: usize| n * (part + 1) / sessions - n * part / sessions;
        for _ in 0..share(cfg.grid_epochs()) {
            let mut block_s = 0.0;
            for _ in 0..cfg.passes_per_grid_epoch() {
                let pass = grid_pass(&grid, None);
                block_s += pass.seconds;
                seeds += pass.seeds;
                drifted |= pass.cells != cold.cells;
            }
            pass_s.push(block_s / cfg.passes_per_grid_epoch() as f64);
        }
    }
    if drifted {
        out.fail("a warm pass simulated different results than the cold pass".into());
        failed_cells.fill(true);
    }
    out.failed = failed_cells.iter().filter(|&&f| f).count() as u64;

    let warm_total_s = pass_s.iter().sum::<f64>() * cfg.passes_per_grid_epoch() as f64;
    out.put("setup_s", median(&setup_s));
    out.put("warm_epoch_s", median(&pass_s));
    out.put("warm_epoch_p75_s", percentile(&pass_s, 0.75));
    out.put("seeds_per_s", seeds as f64 / warm_total_s);
    out.put("session_s", median(&session_s));
    out.put("h2d_mib_per_epoch", summary.orch_h2d_mib);
    out.put("sim_orch_epoch_s", summary.orch_epoch_s);
    out.put("sim_speedup_vs_best_case", summary.speedup_vs_best_case);
    out.put("peak_rss_mib", env::peak_rss_mib().unwrap_or(f64::NAN));
    out.samples.insert("setup_s", setup_s);
    out.samples.insert("session_s", session_s);
    out.samples.insert("warm_epoch_s", pass_s);
    out.samples.insert("warm_seconds", vec![warm_total_s]);
    out.samples.insert("warm_seeds", vec![seeds as f64]);
    out
}
