//! The discrete-event processor-sharing engine.
//!
//! A grid pass submits about a hundred thousand tasks and takes as many
//! events, so the engine keeps its bookkeeping flat: each task's deps are a
//! range of one shared `Vec`, the dependents a CSR built once per run, and
//! every per-event buffer (ready, running, rates, one resource's members) is
//! reused across events. None of this changes a floating-point operation
//! or its order; `tests::matches_the_reference_engine` pins that bit for
//! bit against the per-task `Vec` engine it replaced.

use std::ops::Range;

/// Index of a registered resource.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ResourceId(pub usize);

/// Index of a submitted task.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TaskId(pub usize);

/// Task classification for breakdown reports (Table 2 / Table 3 rows).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Graph sampling (S).
    Sample,
    /// Feature collection on the host (the "FC" half of gather).
    GatherCollect,
    /// Host↔device transfer (the "FT" half of gather).
    Transfer,
    /// Forward+backward training (T).
    Train,
    /// CPU historical-embedding computation (NeutronOrch stage 2).
    HotEmbed,
    /// Gradient/parameter synchronisation between devices.
    Sync,
    /// Anything else.
    Other,
}

/// Number of [`TaskKind`] variants (`Other` is the last): the length of the
/// per-kind busy array.
const KINDS: usize = TaskKind::Other as usize + 1;

struct Resource {
    name: String,
    capacity: f64,
}

struct Task {
    resource: ResourceId,
    kind: TaskKind,
    work: f64,
    demand: f64,
    /// This task's slice of [`Engine::deps`].
    deps: Range<usize>,
    remaining: f64,
    unfinished_deps: usize,
    start_time: Option<f64>,
    finish_time: Option<f64>,
}

/// One executed task's lifetime, for pipeline visualisation (Fig 5 / 9).
#[derive(Clone, Debug)]
pub struct TraceSpan {
    /// The task.
    pub task: TaskId,
    /// Task classification.
    pub kind: TaskKind,
    /// Resource index (see [`RunReport::resource_names`]).
    pub resource: ResourceId,
    /// First instant the task was allocated capacity.
    pub start: f64,
    /// Completion instant.
    pub finish: f64,
}

/// Simulation outcome.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Total simulated wall-clock of the schedule, seconds.
    pub makespan: f64,
    /// Busy fraction per resource, in registration order, in `[0, 1]`.
    pub utilization: Vec<f64>,
    /// Resource names, registration order.
    pub resource_names: Vec<String>,
    /// Total task-seconds per kind (duration each task of the kind was
    /// running, summed), indexed by `TaskKind as usize`; read it through
    /// [`RunReport::busy`].
    busy_by_kind: [f64; KINDS],
}

impl RunReport {
    /// Busy seconds of a task kind (0 when absent).
    pub fn busy(&self, kind: TaskKind) -> f64 {
        self.busy_by_kind[kind as usize]
    }
}

/// Discrete-event engine. Register resources, submit a task DAG, `run`.
#[derive(Default)]
pub struct Engine {
    resources: Vec<Resource>,
    tasks: Vec<Task>,
    /// Every task's deps, concatenated in submission order.
    deps: Vec<TaskId>,
}

/// Dependents of every task as a CSR: task `d`'s dependents are
/// `targets[offsets[d]..offsets[d + 1]]`, in submission order.
struct Dependents {
    offsets: Vec<usize>,
    targets: Vec<usize>,
}

impl Dependents {
    fn of(&self, d: usize) -> &[usize] {
        &self.targets[self.offsets[d]..self.offsets[d + 1]]
    }
}

impl Engine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a capacity pool (e.g. "cpu" with 48 cores, "gpu0" with 1.0).
    pub fn add_resource(&mut self, name: impl Into<String>, capacity: f64) -> ResourceId {
        assert!(capacity > 0.0);
        self.resources.push(Resource {
            name: name.into(),
            capacity,
        });
        ResourceId(self.resources.len() - 1)
    }

    /// Submits a task: `work` resource-unit-seconds on `resource`, using at
    /// most `demand` units concurrently, starting after all `deps` finish.
    /// Zero-work tasks are permitted (barriers).
    pub fn add_task(
        &mut self,
        resource: ResourceId,
        kind: TaskKind,
        work: f64,
        demand: f64,
        deps: &[TaskId],
    ) -> TaskId {
        assert!(resource.0 < self.resources.len(), "unknown resource");
        assert!(work >= 0.0 && work.is_finite(), "bad work {work}");
        let cap = self.resources[resource.0].capacity;
        let demand = demand.clamp(f64::MIN_POSITIVE, cap);
        for d in deps {
            assert!(d.0 < self.tasks.len(), "dependency on unsubmitted task");
        }
        let first = self.deps.len();
        self.deps.extend_from_slice(deps);
        self.tasks.push(Task {
            resource,
            kind,
            work,
            demand,
            deps: first..self.deps.len(),
            remaining: work,
            unfinished_deps: 0,
            start_time: None,
            finish_time: None,
        });
        TaskId(self.tasks.len() - 1)
    }

    /// Runs the simulation to completion and reports makespan, utilization
    /// and per-kind busy time.
    ///
    /// Allocation rule per resource at every event instant: *water-filling*.
    /// Tasks with demand below the fair share keep their demand; the slack
    /// is redistributed among the rest. This models both GPU kernel
    /// contention (two kernels on one device each slow down) and the fact
    /// that a small kernel cannot use a whole device.
    pub fn run(&mut self) -> RunReport {
        let dependents = self.reset();
        let n = self.tasks.len();
        // The per-event working set, reused by every event: `rates` is
        // aligned with `running`, `members` is `allocate`'s scratch.
        let mut ready: Vec<usize> = (0..n)
            .filter(|&i| self.tasks[i].unfinished_deps == 0)
            .collect();
        let mut running: Vec<usize> = Vec::new();
        let mut next_running: Vec<usize> = Vec::new();
        let mut rates: Vec<f64> = Vec::new();
        let mut members: Vec<usize> = Vec::new();
        let mut now = 0.0f64;
        let mut busy_integral = vec![0.0f64; self.resources.len()];
        let mut busy_by_kind = [0.0f64; KINDS];
        let mut finished = 0usize;
        // Move ready→running, completing zero-work tasks immediately.
        loop {
            while let Some(i) = ready.pop() {
                if self.tasks[i].start_time.is_none() {
                    self.tasks[i].start_time = Some(now);
                }
                if self.tasks[i].remaining <= 0.0 {
                    Self::complete(
                        &mut self.tasks,
                        &dependents,
                        i,
                        now,
                        &mut ready,
                        &mut finished,
                    );
                } else {
                    running.push(i);
                }
            }
            if running.is_empty() {
                break;
            }
            // Water-filling allocation per resource.
            self.allocate(&running, &mut rates, &mut members);
            // Time to next completion.
            let mut dt = f64::INFINITY;
            for (&i, &r) in running.iter().zip(&rates) {
                if r > 0.0 {
                    dt = dt.min(self.tasks[i].remaining / r);
                }
            }
            assert!(dt.is_finite(), "deadlock: running tasks with zero rate");
            // Integrate busy time.
            for (&i, &r) in running.iter().zip(&rates) {
                let task = &self.tasks[i];
                busy_integral[task.resource.0] += r * dt;
                busy_by_kind[task.kind as usize] += dt;
            }
            now += dt;
            // Progress and completions.
            next_running.clear();
            for (&i, &r) in running.iter().zip(&rates) {
                self.tasks[i].remaining -= r * dt;
                if self.tasks[i].remaining <= 1e-12 {
                    Self::complete(
                        &mut self.tasks,
                        &dependents,
                        i,
                        now,
                        &mut ready,
                        &mut finished,
                    );
                } else {
                    next_running.push(i);
                }
            }
            std::mem::swap(&mut running, &mut next_running);
        }
        assert_eq!(
            finished, n,
            "cycle in task graph: {} of {n} finished",
            finished
        );
        let utilization = busy_integral
            .iter()
            .zip(&self.resources)
            .map(|(b, r)| {
                if now > 0.0 {
                    (b / (r.capacity * now)).min(1.0)
                } else {
                    0.0
                }
            })
            .collect();
        RunReport {
            makespan: now,
            utilization,
            resource_names: self.resources.iter().map(|r| r.name.clone()).collect(),
            busy_by_kind,
        }
    }

    /// Like [`Engine::run`], additionally returning every task's executed
    /// time span (for Gantt-style pipeline visualisation).
    pub fn run_traced(&mut self) -> (RunReport, Vec<TraceSpan>) {
        let report = self.run();
        let spans = self
            .tasks
            .iter()
            .enumerate()
            .map(|(i, t)| TraceSpan {
                task: TaskId(i),
                kind: t.kind,
                resource: t.resource,
                start: t.start_time.unwrap_or(0.0),
                finish: t.finish_time.unwrap_or(report.makespan),
            })
            .collect();
        (report, spans)
    }

    /// Resets every task's run state and builds the dependents CSR, filled
    /// in (task, dep) order: each task's dependents in submission order.
    fn reset(&mut self) -> Dependents {
        let mut offsets = vec![0usize; self.tasks.len() + 1];
        for d in &self.deps {
            offsets[d.0 + 1] += 1;
        }
        for i in 0..self.tasks.len() {
            offsets[i + 1] += offsets[i];
        }
        // `cursor[d]` is the next free slot of `d`'s dependents.
        let mut cursor = offsets.clone();
        let mut targets = vec![0usize; self.deps.len()];
        for (i, t) in self.tasks.iter_mut().enumerate() {
            t.remaining = t.work;
            t.start_time = None;
            t.finish_time = None;
            t.unfinished_deps = t.deps.len();
            for d in &self.deps[t.deps.clone()] {
                targets[cursor[d.0]] = i;
                cursor[d.0] += 1;
            }
        }
        Dependents { offsets, targets }
    }

    fn complete(
        tasks: &mut [Task],
        dependents: &Dependents,
        i: usize,
        now: f64,
        ready: &mut Vec<usize>,
        finished: &mut usize,
    ) {
        if tasks[i].finish_time.is_some() {
            return;
        }
        tasks[i].finish_time = Some(now);
        *finished += 1;
        for &j in dependents.of(i) {
            tasks[j].unfinished_deps -= 1;
            if tasks[j].unfinished_deps == 0 {
                ready.push(j);
            }
        }
    }

    /// Water-filling rates for the running set into `rates`, aligned with
    /// `running`. `members` is scratch: one resource's unsatisfied positions
    /// in `running`, in `running` order.
    fn allocate(&self, running: &[usize], rates: &mut Vec<f64>, members: &mut Vec<usize>) {
        rates.clear();
        rates.resize(running.len(), 0.0);
        for (res_idx, res) in self.resources.iter().enumerate() {
            members.clear();
            members.extend(
                running
                    .iter()
                    .enumerate()
                    .filter(|(_, &t)| self.tasks[t].resource.0 == res_idx)
                    .map(|(k, _)| k),
            );
            let mut capacity = res.capacity;
            // Iteratively satisfy tasks whose demand ≤ fair share. `retain`
            // visits the members in `running` order, which fixes the order
            // of the `capacity` subtractions and so every rate's bits.
            while !members.is_empty() {
                let share = capacity / members.len() as f64;
                let before = members.len();
                members.retain(|&k| {
                    let demand = self.tasks[running[k]].demand;
                    if demand <= share + 1e-15 {
                        rates[k] = demand;
                        capacity -= demand;
                        false
                    } else {
                        true
                    }
                });
                if members.len() == before {
                    for &k in members.iter() {
                        rates[k] = share;
                    }
                    break;
                }
            }
        }
    }

    /// Lower bound on the makespan: the longest dependency chain when every
    /// task runs alone at full demand. Used by property tests
    /// (`makespan >= critical_path`).
    pub fn critical_path(&self) -> f64 {
        let mut longest = vec![0.0f64; self.tasks.len()];
        for i in 0..self.tasks.len() {
            let t = &self.tasks[i];
            let own = if t.work > 0.0 { t.work / t.demand } else { 0.0 };
            let dep_max = self.deps[t.deps.clone()]
                .iter()
                .map(|d| longest[d.0])
                .fold(0.0f64, f64::max);
            longest[i] = dep_max + own;
        }
        longest.into_iter().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_task_duration_is_work_over_demand() {
        let mut e = Engine::new();
        let cpu = e.add_resource("cpu", 8.0);
        e.add_task(cpu, TaskKind::Sample, 16.0, 4.0, &[]);
        let r = e.run();
        assert!((r.makespan - 4.0).abs() < 1e-9);
        assert!((r.utilization[0] - 0.5).abs() < 1e-9, "4 of 8 cores busy");
    }

    #[test]
    fn independent_tasks_share_capacity() {
        let mut e = Engine::new();
        let gpu = e.add_resource("gpu", 1.0);
        // Two kernels, each could use 80% of the device alone.
        e.add_task(gpu, TaskKind::Train, 0.8, 0.8, &[]);
        e.add_task(gpu, TaskKind::Sample, 0.8, 0.8, &[]);
        let r = e.run();
        // Alone: 1s each, serial: 2s. Sharing at 0.5 each: both finish at 1.6.
        assert!((r.makespan - 1.6).abs() < 1e-9, "makespan {}", r.makespan);
    }

    #[test]
    fn small_demand_task_is_not_throttled_by_sharing() {
        let mut e = Engine::new();
        let gpu = e.add_resource("gpu", 1.0);
        e.add_task(gpu, TaskKind::Train, 0.9, 0.9, &[]);
        e.add_task(gpu, TaskKind::Other, 0.05, 0.1, &[]); // tiny kernel
        let r = e.run();
        // The tiny kernel keeps its 0.1 demand (fair share is 0.5);
        // the big one gets the remaining 0.9 → finishes at t=1.0.
        assert!((r.makespan - 1.0).abs() < 1e-6, "makespan {}", r.makespan);
    }

    #[test]
    fn dependencies_serialise_execution() {
        let mut e = Engine::new();
        let cpu = e.add_resource("cpu", 1.0);
        let a = e.add_task(cpu, TaskKind::Sample, 1.0, 1.0, &[]);
        let b = e.add_task(cpu, TaskKind::Train, 1.0, 1.0, &[a]);
        e.add_task(cpu, TaskKind::Other, 1.0, 1.0, &[b]);
        let r = e.run();
        assert!((r.makespan - 3.0).abs() < 1e-9);
        assert!((r.utilization[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pipeline_overlaps_across_resources() {
        // Three batches through sample(cpu, 1s) → train(gpu, 1s).
        let mut e = Engine::new();
        let cpu = e.add_resource("cpu", 1.0);
        let gpu = e.add_resource("gpu", 1.0);
        let mut prev_sample: Option<TaskId> = None;
        let mut prev_train: Option<TaskId> = None;
        for _ in 0..3 {
            let mut sdeps = Vec::new();
            if let Some(p) = prev_sample {
                sdeps.push(p);
            }
            let s = e.add_task(cpu, TaskKind::Sample, 1.0, 1.0, &sdeps);
            let mut tdeps = vec![s];
            if let Some(p) = prev_train {
                tdeps.push(p);
            }
            let t = e.add_task(gpu, TaskKind::Train, 1.0, 1.0, &tdeps);
            prev_sample = Some(s);
            prev_train = Some(t);
        }
        let r = e.run();
        // Ideal pipeline: 1 + 3 = 4s, not the serial 6s (Fig 5a).
        assert!((r.makespan - 4.0).abs() < 1e-9, "makespan {}", r.makespan);
    }

    #[test]
    fn zero_work_tasks_act_as_barriers() {
        let mut e = Engine::new();
        let cpu = e.add_resource("cpu", 1.0);
        let a = e.add_task(cpu, TaskKind::Other, 1.0, 1.0, &[]);
        let barrier = e.add_task(cpu, TaskKind::Other, 0.0, 1.0, &[a]);
        e.add_task(cpu, TaskKind::Other, 1.0, 1.0, &[barrier]);
        let r = e.run();
        assert!((r.makespan - 2.0).abs() < 1e-9);
    }

    #[test]
    fn busy_by_kind_tracks_wall_time_per_kind() {
        let mut e = Engine::new();
        let cpu = e.add_resource("cpu", 2.0);
        e.add_task(cpu, TaskKind::Sample, 2.0, 1.0, &[]);
        e.add_task(cpu, TaskKind::Train, 4.0, 1.0, &[]);
        let r = e.run();
        assert!((r.busy(TaskKind::Sample) - 2.0).abs() < 1e-9);
        assert!((r.busy(TaskKind::Train) - 4.0).abs() < 1e-9);
        assert_eq!(r.busy(TaskKind::Transfer), 0.0);
    }

    #[test]
    fn critical_path_lower_bounds_makespan() {
        let mut e = Engine::new();
        let cpu = e.add_resource("cpu", 1.0);
        let a = e.add_task(cpu, TaskKind::Other, 2.0, 1.0, &[]);
        e.add_task(cpu, TaskKind::Other, 3.0, 1.0, &[a]);
        e.add_task(cpu, TaskKind::Other, 4.0, 1.0, &[]);
        let cp = e.critical_path();
        let r = e.run();
        assert!((cp - 5.0).abs() < 1e-9);
        assert!(r.makespan + 1e-9 >= cp);
    }

    #[test]
    fn traces_record_start_and_finish() {
        let mut e = Engine::new();
        let cpu = e.add_resource("cpu", 1.0);
        let a = e.add_task(cpu, TaskKind::Sample, 1.0, 1.0, &[]);
        let b = e.add_task(cpu, TaskKind::Train, 2.0, 1.0, &[a]);
        let (report, spans) = e.run_traced();
        assert_eq!(spans.len(), 2);
        let sa = spans.iter().find(|s| s.task == a).unwrap();
        let sb = spans.iter().find(|s| s.task == b).unwrap();
        assert_eq!(sa.start, 0.0);
        assert!((sa.finish - 1.0).abs() < 1e-9);
        assert!((sb.start - 1.0).abs() < 1e-9, "b starts when a finishes");
        assert!((sb.finish - report.makespan).abs() < 1e-9);
        assert_eq!(sb.kind, TaskKind::Train);
    }

    #[test]
    fn zero_work_trace_has_zero_span() {
        let mut e = Engine::new();
        let cpu = e.add_resource("cpu", 1.0);
        let a = e.add_task(cpu, TaskKind::Other, 1.0, 1.0, &[]);
        let barrier = e.add_task(cpu, TaskKind::Other, 0.0, 1.0, &[a]);
        let (_, spans) = e.run_traced();
        let sb = spans.iter().find(|s| s.task == barrier).unwrap();
        assert_eq!(sb.start, sb.finish);
        assert!((sb.start - 1.0).abs() < 1e-9);
    }

    /// The engine as it was before its bookkeeping went flat — a `Vec` of
    /// deps per task, a `Vec<Vec<usize>>` of dependents, fresh `Vec`s every
    /// event, a per-kind map, and a water-fill that marks the satisfied
    /// members and then removes them back to front — kept as the reference
    /// the flat engine must match bit for bit.
    mod reference {
        use super::super::{ResourceId, TaskId, TaskKind, TraceSpan};

        pub struct Task {
            pub resource: usize,
            pub kind: TaskKind,
            pub work: f64,
            /// Already clamped to `[f64::MIN_POSITIVE, capacity]`.
            pub demand: f64,
            pub deps: Vec<usize>,
            pub remaining: f64,
            pub unfinished_deps: usize,
            pub start_time: Option<f64>,
            pub finish_time: Option<f64>,
        }

        pub struct Outcome {
            pub makespan: f64,
            pub utilization: Vec<f64>,
            /// Insertion-ordered map from kind to busy seconds.
            pub busy: Vec<(TaskKind, f64)>,
            pub spans: Vec<TraceSpan>,
        }

        pub fn run(capacities: &[f64], tasks: &mut [Task]) -> Outcome {
            let n = tasks.len();
            let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
            for (i, t) in tasks.iter_mut().enumerate() {
                t.remaining = t.work;
                t.unfinished_deps = t.deps.len();
                for &d in &t.deps {
                    dependents[d].push(i);
                }
            }
            let mut ready: Vec<usize> = Vec::new();
            let mut running: Vec<usize> = Vec::new();
            for (i, t) in tasks.iter().enumerate() {
                if t.unfinished_deps == 0 {
                    ready.push(i);
                }
            }
            let mut now = 0.0f64;
            let mut busy_integral = vec![0.0f64; capacities.len()];
            let mut busy: Vec<(TaskKind, f64)> = Vec::new();
            let mut finished = 0usize;
            loop {
                while let Some(i) = ready.pop() {
                    if tasks[i].start_time.is_none() {
                        tasks[i].start_time = Some(now);
                    }
                    if tasks[i].remaining <= 0.0 {
                        complete(tasks, &dependents, i, now, &mut ready, &mut finished);
                    } else {
                        running.push(i);
                    }
                }
                if running.is_empty() {
                    break;
                }
                let rates = allocate(capacities, tasks, &running);
                let mut dt = f64::INFINITY;
                for (&i, &r) in running.iter().zip(&rates) {
                    if r > 0.0 {
                        dt = dt.min(tasks[i].remaining / r);
                    }
                }
                assert!(dt.is_finite());
                for (&i, &r) in running.iter().zip(&rates) {
                    busy_integral[tasks[i].resource] += r * dt;
                    let kind = tasks[i].kind;
                    match busy.iter_mut().find(|(k, _)| *k == kind) {
                        Some((_, s)) => *s += dt,
                        None => busy.push((kind, 0.0 + dt)),
                    }
                }
                now += dt;
                let mut still_running = Vec::with_capacity(running.len());
                for (&i, &r) in running.iter().zip(&rates) {
                    tasks[i].remaining -= r * dt;
                    if tasks[i].remaining <= 1e-12 {
                        complete(tasks, &dependents, i, now, &mut ready, &mut finished);
                    } else {
                        still_running.push(i);
                    }
                }
                running = still_running;
            }
            assert_eq!(finished, n);
            let utilization = busy_integral
                .iter()
                .zip(capacities)
                .map(|(b, c)| {
                    if now > 0.0 {
                        (b / (c * now)).min(1.0)
                    } else {
                        0.0
                    }
                })
                .collect();
            let spans = tasks
                .iter()
                .enumerate()
                .map(|(i, t)| TraceSpan {
                    task: TaskId(i),
                    kind: t.kind,
                    resource: ResourceId(t.resource),
                    start: t.start_time.unwrap_or(0.0),
                    finish: t.finish_time.unwrap_or(now),
                })
                .collect();
            Outcome {
                makespan: now,
                utilization,
                busy,
                spans,
            }
        }

        fn complete(
            tasks: &mut [Task],
            dependents: &[Vec<usize>],
            i: usize,
            now: f64,
            ready: &mut Vec<usize>,
            finished: &mut usize,
        ) {
            if tasks[i].finish_time.is_some() {
                return;
            }
            tasks[i].finish_time = Some(now);
            *finished += 1;
            for &j in &dependents[i] {
                tasks[j].unfinished_deps -= 1;
                if tasks[j].unfinished_deps == 0 {
                    ready.push(j);
                }
            }
        }

        fn allocate(capacities: &[f64], tasks: &[Task], running: &[usize]) -> Vec<f64> {
            let mut rates = vec![0.0f64; running.len()];
            for (res_idx, &cap) in capacities.iter().enumerate() {
                let mut members: Vec<usize> = running
                    .iter()
                    .enumerate()
                    .filter(|(_, &t)| tasks[t].resource == res_idx)
                    .map(|(k, _)| k)
                    .collect();
                if members.is_empty() {
                    continue;
                }
                let mut capacity = cap;
                loop {
                    let share = capacity / members.len() as f64;
                    let mut satisfied = Vec::new();
                    for (pos, &k) in members.iter().enumerate() {
                        let demand = tasks[running[k]].demand;
                        if demand <= share + 1e-15 {
                            rates[k] = demand;
                            capacity -= demand;
                            satisfied.push(pos);
                        }
                    }
                    if satisfied.is_empty() {
                        for &k in &members {
                            rates[k] = share;
                        }
                        break;
                    }
                    for pos in satisfied.into_iter().rev() {
                        members.remove(pos);
                    }
                    if members.is_empty() {
                        break;
                    }
                }
            }
            rates
        }
    }

    /// splitmix64: a seeded stream for the random DAGs below.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    const ALL_KINDS: [TaskKind; KINDS] = [
        TaskKind::Sample,
        TaskKind::GatherCollect,
        TaskKind::Transfer,
        TaskKind::Train,
        TaskKind::HotEmbed,
        TaskKind::Sync,
        TaskKind::Other,
    ];

    /// A seeded random DAG submitted to a flat engine and described for
    /// the reference: 1–4 resources, demands from a sliver of a resource to
    /// twice its capacity (so water-filling takes several passes), one
    /// task in eight a zero-work barrier, up to four deps a task (repeats
    /// allowed), and a "stream" dep on the resource's previous task half
    /// the time.
    fn random_dag(seed: u64) -> (Engine, Vec<f64>, Vec<reference::Task>) {
        let mut rng = Mix(seed);
        let mut engine = Engine::new();
        let capacities: Vec<f64> = (0..1 + rng.below(4))
            .map(|_| [1.0, 0.5, 2.0, 8.0, 48.0, 0.1 + 10.0 * rng.unit()][rng.below(6)])
            .collect();
        let resources: Vec<ResourceId> = capacities
            .iter()
            .enumerate()
            .map(|(r, &c)| engine.add_resource(format!("r{r}"), c))
            .collect();
        let mut last_on: Vec<Option<usize>> = vec![None; capacities.len()];
        let mut tasks = Vec::new();
        for i in 0..1 + rng.below(150) {
            let res = rng.below(capacities.len());
            let kind = ALL_KINDS[rng.below(KINDS)];
            let work = if rng.below(8) == 0 {
                0.0
            } else {
                0.01 + 5.0 * rng.unit()
            };
            let demand =
                capacities[res] * [0.02 + 0.3 * rng.unit(), 0.3 + 1.7 * rng.unit()][rng.below(2)];
            let mut deps: Vec<usize> = Vec::new();
            if i > 0 {
                for _ in 0..rng.below(5) {
                    deps.push(rng.below(i));
                }
            }
            if let (Some(prev), true) = (last_on[res], rng.below(2) == 0) {
                deps.push(prev);
            }
            let ids: Vec<TaskId> = deps.iter().map(|&d| TaskId(d)).collect();
            engine.add_task(resources[res], kind, work, demand, &ids);
            last_on[res] = Some(i);
            tasks.push(reference::Task {
                resource: res,
                kind,
                work,
                demand: demand.clamp(f64::MIN_POSITIVE, capacities[res]),
                deps,
                remaining: 0.0,
                unfinished_deps: 0,
                start_time: None,
                finish_time: None,
            });
        }
        (engine, capacities, tasks)
    }

    #[test]
    fn matches_the_reference_engine() {
        for seed in 0..300 {
            let (mut engine, capacities, mut tasks) = random_dag(seed);
            let (report, spans) = engine.run_traced();
            let want = reference::run(&capacities, &mut tasks);
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                report.makespan.to_bits(),
                want.makespan.to_bits(),
                "seed {seed}"
            );
            assert_eq!(
                bits(&report.utilization),
                bits(&want.utilization),
                "seed {seed}"
            );
            for kind in ALL_KINDS {
                let expect = want
                    .busy
                    .iter()
                    .find(|(k, _)| *k == kind)
                    .map_or(0.0, |b| b.1);
                assert_eq!(
                    report.busy(kind).to_bits(),
                    expect.to_bits(),
                    "seed {seed} {kind:?}"
                );
            }
            assert_eq!(spans.len(), want.spans.len());
            for (got, want) in spans.iter().zip(&want.spans) {
                assert_eq!(
                    (
                        got.task,
                        got.kind,
                        got.resource,
                        got.start.to_bits(),
                        got.finish.to_bits()
                    ),
                    (
                        want.task,
                        want.kind,
                        want.resource,
                        want.start.to_bits(),
                        want.finish.to_bits()
                    ),
                    "seed {seed}"
                );
            }
            // A second run of the same engine resets every task's state.
            assert_eq!(engine.run().makespan.to_bits(), want.makespan.to_bits());
        }
    }
}
