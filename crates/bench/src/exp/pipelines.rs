//! Fig 5 and Fig 9 — the paper's pipeline pictures, as ASCII Gantt charts
//! of simulated schedules (one row per resource, time left to right).
//!
//! * Fig 5: four batches of sample → transfer → train. (a) Sampling on the
//!   CPU: each stage owns its resource and the batches pipeline. (b)
//!   Sampling moved onto the GPU contends with training for the device.
//! * Fig 9: three super-batches of two training steps behind a CPU refresh
//!   of the hot embeddings. (a) Naive: each refresh waits for the previous
//!   super-batch and the GPU waits for the refresh. (b) Super-batch
//!   pipelining: the CPU refreshes one super-batch ahead of the GPU.
//!
//! The schedules are the figures' shapes, not a profiled workload, so both
//! setups draw the same charts.

use crate::Setup;
use neutron_core::sim::ScheduleBuilder;
use neutron_hetero::gantt::render_gantt;
use neutron_hetero::{Cost, TaskKind};

fn cost(work: f64, demand: f64) -> Cost {
    Cost { work, demand }
}

/// Fig 5(a): sample on the CPU, transfer over PCIe, train on the GPU.
pub fn fig5_ideal() -> ScheduleBuilder {
    let mut s = ScheduleBuilder::new();
    let cpu = s.resource("cpu", 2.0);
    let pcie = s.resource("pcie", 1.0);
    let gpu = s.resource("gpu", 1.0);
    for _ in 0..4 {
        let smp = s.task(cpu, TaskKind::Sample, cost(1.0, 1.0), "cpu:sample", &[]);
        let xfer = s.task(pcie, TaskKind::Transfer, cost(1.0, 1.0), "pcie", &[smp]);
        s.task(gpu, TaskKind::Train, cost(1.0, 1.0), "gpu:train", &[xfer]);
    }
    s
}

/// Fig 5(b): sampling on the GPU shares the device with training.
pub fn fig5_contended() -> ScheduleBuilder {
    let mut s = ScheduleBuilder::new();
    let pcie = s.resource("pcie", 1.0);
    let gpu = s.resource("gpu", 1.0);
    for _ in 0..4 {
        let smp = s.task(gpu, TaskKind::Sample, cost(0.8, 0.6), "gpu:sample", &[]);
        let xfer = s.task(pcie, TaskKind::Transfer, cost(1.0, 1.0), "pcie", &[smp]);
        s.task(gpu, TaskKind::Train, cost(1.0, 0.8), "gpu:train", &[xfer]);
    }
    s
}

/// Fig 9(a): each hot-embedding refresh waits for the previous
/// super-batch's training, and its training waits for the refresh.
pub fn fig9_naive() -> ScheduleBuilder {
    let mut s = ScheduleBuilder::new();
    let cpu = s.resource("cpu", 1.0);
    let gpu = s.resource("gpu", 1.0);
    let mut last_train = None;
    for _ in 0..3 {
        let hot = s.task(
            cpu,
            TaskKind::HotEmbed,
            cost(2.0, 1.0),
            "cpu:hot",
            last_train.as_slice(),
        );
        for _ in 0..2 {
            last_train = Some(s.task(gpu, TaskKind::Train, cost(1.0, 1.0), "gpu:train", &[hot]));
        }
    }
    s
}

/// Fig 9(b): super-batch `i` trains on the embeddings refreshed for
/// super-batch `i − 1` (the first on its own), so the CPU works one
/// super-batch ahead.
pub fn fig9_pipelined() -> ScheduleBuilder {
    let mut s = ScheduleBuilder::new();
    let cpu = s.resource("cpu", 1.0);
    let gpu = s.resource("gpu", 1.0);
    let mut refreshes = Vec::new();
    for sb in 0usize..3 {
        refreshes.push(s.task(cpu, TaskKind::HotEmbed, cost(2.0, 1.0), "cpu:hot", &[]));
        let ready = refreshes[sb.saturating_sub(1)];
        for _ in 0..2 {
            s.task(gpu, TaskKind::Train, cost(1.0, 1.0), "gpu:train", &[ready]);
        }
    }
    s
}

/// Runs `schedule` and draws it under `title`, 60 time buckets wide.
fn chart(title: &str, schedule: ScheduleBuilder) -> String {
    let (report, spans) = schedule.run_traced();
    format!("== {title} ==\n{}", render_gantt(&report, &spans, 60))
}

/// Renders Fig 5.
pub fn run_fig5(_setup: Setup) -> String {
    format!(
        "{}\n{}",
        chart(
            "Fig 5(a): fully pipelined (sampling on the CPU)",
            fig5_ideal()
        ),
        chart(
            "Fig 5(b): GPU sampling contends with training",
            fig5_contended()
        ),
    )
}

/// Renders Fig 9.
pub fn run_fig9(_setup: Setup) -> String {
    format!(
        "{}\n{}",
        chart(
            "Fig 9(a): naive scheduling, the GPU stalls on each refresh",
            fig9_naive()
        ),
        chart(
            "Fig 9(b): super-batch pipelining, the CPU works one super-batch ahead",
            fig9_pipelined()
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_sampling_stretches_the_pipeline() {
        let ideal = fig5_ideal().run().makespan;
        let contended = fig5_contended().run().makespan;
        assert!(contended > ideal, "contended {contended} vs ideal {ideal}");
    }

    #[test]
    fn super_batch_pipelining_beats_naive_scheduling() {
        let naive = fig9_naive().run().makespan;
        let pipelined = fig9_pipelined().run().makespan;
        assert!(pipelined < naive, "pipelined {pipelined} vs naive {naive}");
    }

    #[test]
    fn every_chart_has_a_row_per_resource() {
        let fig5 = run_fig5(Setup::Smoke);
        for row in ["cpu", "pcie", "gpu"] {
            assert!(fig5.lines().any(|l| l.starts_with(row)), "{row}:\n{fig5}");
        }
        assert_eq!(fig5.matches("== Fig 5").count(), 2);
        assert_eq!(run_fig9(Setup::Smoke).matches("== Fig 9").count(), 2);
    }
}
