//! Golden digests of the simulator: every number an orchestrator reports,
//! bit for bit, over the Fig 10 smoke grid (six Table-4 replicas × three
//! models, 3 layers, batch 1024).
//!
//! The other simulator tests are inequalities (who wins, what shrinks); this
//! one pins the values themselves, so a refactor of the schedule builders is
//! checked against the exact tasks, order, dependencies and ledger regions of
//! the commit that recorded the constants. Each system folds, per grid cell,
//! either the report (`epoch_seconds`, the two utilisations, the five
//! busy-second fields, `h2d_bytes`, `gpu_mem_peak`) or the OOM
//! (`region`, `requested`, `available`) into one FNV-1a digest.
//!
//! The system list is spelled out here on purpose: the golden must not move
//! when a roster elsewhere is reordered. When a simulated number is changed
//! deliberately, run the test, copy the table it prints and say why in the
//! commit.

use neutron_bench::{build_profile, Setup};
use neutronorch::core::baselines::{
    Case1Dgl, Case2DglUva, Case3PaGraph, Case4GnnLab, DspLike, GasLike,
};
use neutronorch::core::neutronorch::NeutronOrchConfig;
use neutronorch::core::profile::WorkloadProfile;
use neutronorch::core::{NeutronOrch, Orchestrator};
use neutronorch::hetero::HardwareSpec;
use neutronorch::nn::LayerKind;

const EXPECTED: [(&str, u64); 21] = [
    ("DGL", 0x9bc1_c2ff_0d67_17ac),
    ("PaGraph", 0x8941_bd2f_1cb7_56c5),
    ("GNNLab", 0x2862_7cdf_fce1_e122),
    ("DGL-UVA", 0xe00d_07ef_284d_b9aa),
    ("GAS", 0x68a1_47ae_30ec_dd2b),
    ("NeutronOrch", 0x51b3_cc4f_498a_9137),
    ("DGL (no pipeline)", 0xca03_5cd1_d061_cc0c),
    ("DGL-UVA (no pipeline)", 0xe172_96df_ccd4_f8b9),
    ("ladder Baseline", 0x9139_8c20_3528_8d9b),
    ("ladder +L", 0xf21a_8a73_87ff_09ab),
    ("ladder +L+HE", 0xe0fc_fe4d_5ed6_b42c),
    ("ladder +L+HE+HH", 0x51b3_cc4f_498a_9137),
    ("ladder +L+HE+HH+S", 0x51b3_cc4f_498a_9137),
    ("DSP x1", 0x9b25_0686_6dbe_cfd0),
    ("DSP x2", 0xbc33_2e5b_a1ff_9769),
    ("DSP x4", 0x8b71_a495_5d68_3b70),
    ("DSP x8", 0xa997_47d8_727a_897c),
    ("NeutronOrch x1", 0xe559_5fb9_9285_8503),
    ("NeutronOrch x2", 0xf5d8_f249_f73b_ee55),
    ("NeutronOrch x4", 0x9fbb_44de_a3ad_5616),
    ("NeutronOrch x8", 0x37f5_dd09_41dc_818e),
];

struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// One system's digest over every cell of the grid it supports.
fn digest(
    system: &dyn Orchestrator,
    supports: fn(LayerKind) -> bool,
    grid: &[(LayerKind, WorkloadProfile)],
    hw: &HardwareSpec,
) -> u64 {
    let mut h = Fnv1a::new();
    for (kind, profile) in grid {
        if !supports(*kind) {
            continue;
        }
        match system.simulate_epoch(profile, hw) {
            Ok(r) => {
                h.bytes(&[1]);
                for secs in [
                    r.epoch_seconds,
                    r.cpu_util,
                    r.gpu_util,
                    r.sample_seconds,
                    r.gather_collect_seconds,
                    r.transfer_seconds,
                    r.train_seconds,
                    r.hot_embed_seconds,
                ] {
                    h.u64(secs.to_bits());
                }
                h.u64(r.h2d_bytes);
                h.u64(r.gpu_mem_peak);
            }
            Err(oom) => {
                h.bytes(&[0]);
                h.bytes(oom.region.as_bytes());
                h.u64(oom.requested);
                h.u64(oom.available);
            }
        }
    }
    h.0
}

#[test]
fn every_simulated_number_matches_the_recorded_digest() {
    let setup = Setup::Smoke;
    let mut grid = Vec::new();
    for kind in LayerKind::ALL {
        for spec in setup.datasets() {
            grid.push((kind, build_profile(setup, &spec, kind, 3, 1024)));
        }
    }

    // §5.2 support matrix: PaGraph and GNNLab lack GAT, GAS lacks GraphSAGE.
    let any: fn(LayerKind) -> bool = |_| true;
    let no_gat: fn(LayerKind) -> bool = |k| k != LayerKind::Gat;
    let no_sage: fn(LayerKind) -> bool = |k| k != LayerKind::Sage;
    type Row = (String, Box<dyn Orchestrator>, fn(LayerKind) -> bool);
    let mut single_gpu: Vec<Row> = vec![
        ("DGL".into(), Box::new(Case1Dgl { pipelined: true }), any),
        ("PaGraph".into(), Box::new(Case3PaGraph), no_gat),
        ("GNNLab".into(), Box::new(Case4GnnLab), no_gat),
        (
            "DGL-UVA".into(),
            Box::new(Case2DglUva { pipelined: true }),
            any,
        ),
        ("GAS".into(), Box::new(GasLike), no_sage),
        ("NeutronOrch".into(), Box::new(NeutronOrch::new()), any),
        (
            "DGL (no pipeline)".into(),
            Box::new(Case1Dgl { pipelined: false }),
            any,
        ),
        (
            "DGL-UVA (no pipeline)".into(),
            Box::new(Case2DglUva { pipelined: false }),
            any,
        ),
    ];
    for (label, config) in NeutronOrchConfig::ablation_ladder() {
        single_gpu.push((
            format!("ladder {label}"),
            Box::new(NeutronOrch::with_config(config)),
            any,
        ));
    }

    let mut actual: Vec<(String, u64)> = Vec::new();
    let v100 = HardwareSpec::v100_server(1.0);
    for (name, system, supports) in &single_gpu {
        actual.push((
            name.clone(),
            digest(system.as_ref(), *supports, &grid, &v100),
        ));
    }
    for (label, system) in [
        ("DSP", Box::new(DspLike::default()) as Box<dyn Orchestrator>),
        ("NeutronOrch", Box::new(NeutronOrch::new())),
    ] {
        for gpus in [1, 2, 4, 8] {
            let hw = HardwareSpec::dgx1_like(gpus, 1.0);
            actual.push((
                format!("{label} x{gpus}"),
                digest(system.as_ref(), any, &grid, &hw),
            ));
        }
    }

    let matches = actual.len() == EXPECTED.len()
        && actual
            .iter()
            .zip(&EXPECTED)
            .all(|((name, got), (want_name, want))| name == want_name && got == want);
    if !matches {
        let mut table = String::new();
        for (name, got) in &actual {
            table.push_str(&format!("    (\"{name}\", {got:#018x}),\n"));
        }
        panic!("simulated numbers moved; the digests are now:\n{table}");
    }
}
