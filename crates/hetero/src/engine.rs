//! The discrete-event processor-sharing engine.

use std::collections::HashMap;

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

struct Resource {
    name: String,
    capacity: f64,
}

struct Task {
    resource: ResourceId,
    kind: TaskKind,
    work: f64,
    demand: f64,
    deps: Vec<TaskId>,
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
    /// running, summed).
    pub busy_by_kind: HashMap<TaskKind, f64>,
}

impl RunReport {
    /// Utilization of the resource whose name matches exactly.
    pub fn utilization_of(&self, name: &str) -> Option<f64> {
        self.resource_names
            .iter()
            .position(|n| n == name)
            .map(|i| self.utilization[i])
    }

    /// Busy seconds of a task kind (0 when absent).
    pub fn busy(&self, kind: TaskKind) -> f64 {
        self.busy_by_kind.get(&kind).copied().unwrap_or(0.0)
    }
}

/// Discrete-event engine. Register resources, submit a task DAG, `run`.
#[derive(Default)]
pub struct Engine {
    resources: Vec<Resource>,
    tasks: Vec<Task>,
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
        self.tasks.push(Task {
            resource,
            kind,
            work,
            demand,
            deps: deps.to_vec(),
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
        self.run_traced().0
    }

    /// Like [`Engine::run`], additionally returning every task's executed
    /// time span (for Gantt-style pipeline visualisation).
    pub fn run_traced(&mut self) -> (RunReport, Vec<TraceSpan>) {
        let n = self.tasks.len();
        // Dependency bookkeeping.
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, t) in self.tasks.iter_mut().enumerate() {
            t.remaining = t.work;
            t.start_time = None;
            t.finish_time = None;
            t.unfinished_deps = t.deps.len();
            for d in &t.deps {
                dependents[d.0].push(i);
            }
        }
        let mut ready: Vec<usize> = Vec::new();
        let mut running: Vec<usize> = Vec::new();
        for (i, t) in self.tasks.iter().enumerate() {
            if t.unfinished_deps == 0 {
                ready.push(i);
            }
        }
        let mut now = 0.0f64;
        let mut busy_integral = vec![0.0f64; self.resources.len()];
        let mut busy_by_kind: HashMap<TaskKind, f64> = HashMap::new();
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
            let rates = self.allocate(&running);
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
                let res = self.tasks[i].resource.0;
                busy_integral[res] += r * dt;
                *busy_by_kind.entry(self.tasks[i].kind).or_insert(0.0) += dt;
            }
            now += dt;
            // Progress and completions.
            let mut still_running = Vec::with_capacity(running.len());
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
                    still_running.push(i);
                }
            }
            running = still_running;
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
        let report = RunReport {
            makespan: now,
            utilization,
            resource_names: self.resources.iter().map(|r| r.name.clone()).collect(),
            busy_by_kind,
        };
        let spans = self
            .tasks
            .iter()
            .enumerate()
            .map(|(i, t)| TraceSpan {
                task: TaskId(i),
                kind: t.kind,
                resource: t.resource,
                start: t.start_time.unwrap_or(0.0),
                finish: t.finish_time.unwrap_or(now),
            })
            .collect();
        (report, spans)
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

    /// Water-filling rates for the running set, aligned with `running`.
    fn allocate(&self, running: &[usize]) -> Vec<f64> {
        let mut rates = vec![0.0f64; running.len()];
        for (res_idx, res) in self.resources.iter().enumerate() {
            // Indices into `running` on this resource.
            let mut members: Vec<usize> = running
                .iter()
                .enumerate()
                .filter(|(_, &t)| self.tasks[t].resource.0 == res_idx)
                .map(|(k, _)| k)
                .collect();
            if members.is_empty() {
                continue;
            }
            let mut capacity = res.capacity;
            // Iteratively satisfy tasks whose demand ≤ fair share.
            loop {
                let share = capacity / members.len() as f64;
                let mut satisfied = Vec::new();
                for (pos, &k) in members.iter().enumerate() {
                    let demand = self.tasks[running[k]].demand;
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

    /// Lower bound on the makespan: the longest dependency chain when every
    /// task runs alone at full demand. Used by property tests
    /// (`makespan >= critical_path`).
    pub fn critical_path(&self) -> f64 {
        let mut longest = vec![0.0f64; self.tasks.len()];
        for i in 0..self.tasks.len() {
            let t = &self.tasks[i];
            let own = if t.work > 0.0 { t.work / t.demand } else { 0.0 };
            let dep_max = t.deps.iter().map(|d| longest[d.0]).fold(0.0f64, f64::max);
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

    #[test]
    fn utilization_of_finds_named_resource() {
        let mut e = Engine::new();
        let _cpu = e.add_resource("cpu", 1.0);
        let gpu = e.add_resource("gpu0", 1.0);
        e.add_task(gpu, TaskKind::Train, 1.0, 1.0, &[]);
        let r = e.run();
        assert_eq!(r.utilization_of("cpu"), Some(0.0));
        assert_eq!(r.utilization_of("gpu0"), Some(1.0));
        assert_eq!(r.utilization_of("nope"), None);
    }
}
