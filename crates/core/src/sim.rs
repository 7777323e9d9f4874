//! Schedule-building sugar over the discrete-event engine.
//!
//! Orchestrators express an epoch as tasks on named **streams**: tasks on
//! one stream run in submission order (a CUDA stream / a worker thread),
//! while different streams overlap freely subject to explicit dependencies.
//! Pipelining (Fig 5) falls out of stream structure; the non-pipelined
//! variants chain every batch behind the previous one.

use neutron_hetero::{Cost, Engine, HardwareSpec, ResourceId, RunReport, TaskId, TaskKind};

/// Builder for one epoch's task DAG.
pub struct ScheduleBuilder {
    engine: Engine,
    /// Each stream's last task. A stream is named by a literal and lives on
    /// one resource; an epoch has a handful of them, so a linear scan beats
    /// hashing.
    streams: Vec<((ResourceId, &'static str), TaskId)>,
    /// A task's deps plus its stream predecessor, reused by every task.
    deps: Vec<TaskId>,
}

impl ScheduleBuilder {
    /// Empty schedule.
    pub fn new() -> Self {
        Self {
            engine: Engine::new(),
            streams: Vec::new(),
            deps: Vec::new(),
        }
    }

    /// Registers a resource pool.
    pub fn resource(&mut self, name: impl Into<String>, capacity: f64) -> ResourceId {
        self.engine.add_resource(name, capacity)
    }

    /// Adds a task on `resource`'s `stream`: it runs after the stream's
    /// previous task and all `deps`.
    pub fn task(
        &mut self,
        resource: ResourceId,
        kind: TaskKind,
        cost: Cost,
        stream: &'static str,
        deps: &[TaskId],
    ) -> TaskId {
        let key = (resource, stream);
        let slot = self.streams.iter().position(|&(k, _)| k == key);
        self.deps.clear();
        self.deps.extend_from_slice(deps);
        if let Some(s) = slot {
            self.deps.push(self.streams[s].1);
        }
        let id = self
            .engine
            .add_task(resource, kind, cost.work, cost.demand, &self.deps);
        match slot {
            Some(s) => self.streams[s].1 = id,
            None => self.streams.push((key, id)),
        }
        id
    }

    /// Runs the schedule.
    pub fn run(mut self) -> RunReport {
        self.engine.run()
    }

    /// Runs the schedule and returns the per-task execution trace (for
    /// Gantt rendering via [`neutron_hetero::gantt`]).
    pub fn run_traced(mut self) -> (RunReport, Vec<neutron_hetero::TraceSpan>) {
        self.engine.run_traced()
    }
}

impl Default for ScheduleBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// The one resource layout every simulated epoch runs on: the CPU pool, the
/// NVLink mesh where the hardware has one, then a compute and a host→device
/// link resource per GPU in use (`gpu{g}`, `h2d{g}`). Utilisations are read
/// back by these name prefixes ([`crate::report::EpochReport::from_run`]).
///
/// The `*_task` methods also own the stream convention: a stream belongs to
/// one resource, so the CPU pool runs one per name (`"cpu:gather"`, ...) and
/// each GPU and each link one per `what` (`"train"`, `"h2d"`, ...).
pub(crate) struct Machine {
    pub sched: ScheduleBuilder,
    cpu: ResourceId,
    pub nvlink: Option<ResourceId>,
    gpu: Vec<ResourceId>,
    h2d: Vec<ResourceId>,
}

impl Machine {
    /// An empty schedule over the first `gpus` GPUs of `hw`.
    pub(crate) fn new(hw: &HardwareSpec, gpus: usize) -> Self {
        let mut sched = ScheduleBuilder::new();
        let cpu = sched.resource("cpu", hw.cpu.cores);
        let nvlink = hw.nvlink.map(|l| sched.resource("nvlink", l.bandwidth));
        let mut gpu = Vec::with_capacity(gpus);
        let mut h2d = Vec::with_capacity(gpus);
        for g in 0..gpus {
            gpu.push(sched.resource(format!("gpu{g}"), 1.0));
            h2d.push(sched.resource(format!("h2d{g}"), hw.pcie.bandwidth));
        }
        Self {
            sched,
            cpu,
            nvlink,
            gpu,
            h2d,
        }
    }

    /// A task on the CPU pool's `stream`.
    pub(crate) fn cpu_task(
        &mut self,
        kind: TaskKind,
        cost: Cost,
        stream: &'static str,
        deps: &[TaskId],
    ) -> TaskId {
        self.sched.task(self.cpu, kind, cost, stream, deps)
    }

    /// A task on GPU `g`'s `what` stream.
    pub(crate) fn gpu_task(
        &mut self,
        g: usize,
        kind: TaskKind,
        cost: Cost,
        what: &'static str,
        deps: &[TaskId],
    ) -> TaskId {
        self.sched.task(self.gpu[g], kind, cost, what, deps)
    }

    /// A task on GPU `g`'s host→device link, `what` stream.
    pub(crate) fn h2d_task(
        &mut self,
        g: usize,
        kind: TaskKind,
        cost: Cost,
        what: &'static str,
        deps: &[TaskId],
    ) -> TaskId {
        self.sched.task(self.h2d[g], kind, cost, what, deps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(work: f64) -> Cost {
        Cost { work, demand: 1.0 }
    }

    #[test]
    fn streams_serialise_tasks() {
        let mut s = ScheduleBuilder::new();
        let cpu = s.resource("cpu", 4.0);
        s.task(cpu, TaskKind::Other, c(1.0), "a", &[]);
        s.task(cpu, TaskKind::Other, c(1.0), "a", &[]);
        let r = s.run();
        // Same stream: serialized despite 4 cores of capacity.
        assert!((r.makespan - 2.0).abs() < 1e-9);
    }

    #[test]
    fn different_streams_overlap() {
        let mut s = ScheduleBuilder::new();
        let cpu = s.resource("cpu", 4.0);
        s.task(cpu, TaskKind::Other, c(1.0), "a", &[]);
        s.task(cpu, TaskKind::Other, c(1.0), "b", &[]);
        let r = s.run();
        assert!((r.makespan - 1.0).abs() < 1e-9);
    }

    #[test]
    fn a_stream_name_is_per_resource() {
        let mut s = ScheduleBuilder::new();
        let gpu0 = s.resource("gpu0", 1.0);
        let gpu1 = s.resource("gpu1", 1.0);
        s.task(gpu0, TaskKind::Other, c(1.0), "train", &[]);
        s.task(gpu1, TaskKind::Other, c(1.0), "train", &[]);
        s.task(gpu0, TaskKind::Other, c(1.0), "train", &[]);
        let r = s.run();
        // Each GPU's "train" stream serialises only its own tasks.
        assert!((r.makespan - 2.0).abs() < 1e-9);
    }

    #[test]
    fn cross_stream_deps_apply() {
        let mut s = ScheduleBuilder::new();
        let cpu = s.resource("cpu", 4.0);
        let a = s.task(cpu, TaskKind::Other, c(1.0), "a", &[]);
        s.task(cpu, TaskKind::Other, c(1.0), "b", &[a]);
        let r = s.run();
        assert!((r.makespan - 2.0).abs() < 1e-9);
    }
}
