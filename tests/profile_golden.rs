//! Golden digests of `WorkloadProfile::build`: every field of a profile,
//! bit for bit.
//!
//! A profile is measured, not modelled: the profiled batches and the
//! presample run the real sampler over the replica, so a change to the
//! sampler's draw, to its scratch reuse or to the order the build runs its
//! passes in shows up here before it shows up as a moved simulated number in
//! `tests/sim_golden.rs`. Each field folds into its own FNV-1a digest
//! (spelled out because `std`'s `DefaultHasher` does not promise a stable
//! algorithm): integers as little-endian `u64`, floats by their bits,
//! `spec` and `config` by their `Debug` text. A profile keeps the two cache
//! rankings, not their coverage curves; the `presample_coverage` and
//! `degree_coverage` rows hash each ranking's whole curve as
//! `WorkloadProfile::coverage_curve` yields it, against the digests the
//! stored curves had.
//!
//! The cases are `DatasetSpec::tiny()` with six profiled batches of 64 (two
//! super-batch windows, one of them short) and the smoke-sized Reddit
//! replica with the grid's cell parameters. When a profile is changed
//! deliberately, run the test, copy the table it prints and say why in the
//! commit.

use neutron_bench::{build_profile, Setup};
use neutronorch::core::profile::{WorkloadConfig, WorkloadProfile};
use neutronorch::graph::dataset::DatasetSpec;
use neutronorch::nn::LayerKind;

const EXPECTED: [(&str, u64); 32] = [
    ("tiny/spec", 0x7b0b_26ed_ccc1_2c08),
    ("tiny/config", 0x2439_a2ed_2e30_c19e),
    ("tiny/num_batches", 0x2cdc_dc0d_fc5d_1141),
    ("tiny/per_batch", 0x57fd_55be_c2bd_3b41),
    ("tiny/one_hop", 0xdf33_c4c1_4944_d9b8),
    ("tiny/hotness", 0x0b6e_fca7_ce6f_12ba),
    ("tiny/hot", 0x3d60_3579_907b_61c7),
    ("tiny/hot_coverage", 0xcbf8_cff5_049c_7e14),
    ("tiny/presample_coverage", 0xad69_62d1_ab35_d4ec),
    ("tiny/degree_coverage", 0xd3ef_e0c7_dbb0_23d1),
    ("tiny/hot_per_super_batch", 0xfe58_6c34_9ccc_fff3),
    ("tiny/hot_one_hop_edges", 0xe846_94b4_507d_3264),
    ("tiny/num_vertices", 0x8007_b7aa_a41a_4b4e),
    ("tiny/topology_bytes", 0xbb8c_3342_51a1_1a9e),
    ("tiny/avg_degree", 0xdcdc_eb88_d3cb_c3df),
    ("tiny/paper_coverage_curve", 0x8b75_6578_5c70_1ef5),
    ("smoke Reddit/spec", 0x3305_7a38_4412_5c27),
    ("smoke Reddit/config", 0xf84f_da00_23d2_dac6),
    ("smoke Reddit/num_batches", 0x2cdc_dc0d_fc5d_1141),
    ("smoke Reddit/per_batch", 0xf625_5588_453f_cffe),
    ("smoke Reddit/one_hop", 0x6437_082e_d788_d4ec),
    ("smoke Reddit/hotness", 0x842e_7c10_1c8a_0dac),
    ("smoke Reddit/hot", 0x98bb_58ba_05b0_cc53),
    ("smoke Reddit/hot_coverage", 0xf999_46b6_b627_61cb),
    ("smoke Reddit/presample_coverage", 0xcf5d_f75f_2960_2880),
    ("smoke Reddit/degree_coverage", 0x9f8a_1947_d185_c0d4),
    ("smoke Reddit/hot_per_super_batch", 0xd16d_2c33_60a2_f673),
    ("smoke Reddit/hot_one_hop_edges", 0x67b2_0b52_addc_b711),
    ("smoke Reddit/num_vertices", 0x8fc8_29ab_fc5b_35d6),
    ("smoke Reddit/topology_bytes", 0xa407_dc4c_20fe_87d5),
    ("smoke Reddit/avg_degree", 0x9789_43bd_3069_1281),
    ("smoke Reddit/paper_coverage_curve", 0x0e92_0a1a_2709_fac1),
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

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

fn fold(f: impl FnOnce(&mut Fnv1a)) -> u64 {
    let mut h = Fnv1a::new();
    f(&mut h);
    h.0
}

/// One `(case/field, digest)` row per field of `p`, in declaration order.
fn digests(case: &str, p: &WorkloadProfile) -> Vec<(String, u64)> {
    let floats = |xs: &[f64]| fold(|h| xs.iter().for_each(|&x| h.f64(x)));
    let curve = |order: &[u32]| fold(|h| p.coverage_curve(order).for_each(|x| h.f64(x)));
    let fields = [
        (
            "spec",
            fold(|h| h.bytes(format!("{:?}", p.spec).as_bytes())),
        ),
        (
            "config",
            fold(|h| h.bytes(format!("{:?}", p.config).as_bytes())),
        ),
        ("num_batches", fold(|h| h.u64(p.num_batches as u64))),
        (
            "per_batch",
            fold(|h| {
                for stats in &p.per_batch {
                    h.u64(stats.layers.len() as u64);
                    for l in &stats.layers {
                        h.u64(l.num_dst as u64);
                        h.u64(l.num_src as u64);
                        h.u64(l.num_edges as u64);
                    }
                }
            }),
        ),
        (
            "one_hop",
            fold(|h| {
                for o in &p.one_hop {
                    h.u64(o.src as u64);
                    h.u64(o.edges as u64);
                }
            }),
        ),
        (
            "hotness",
            fold(|h| {
                for v in 0..p.hotness.num_vertices() as u32 {
                    h.u64(u64::from(p.hotness.count(v)));
                }
                for &v in p.hotness.order() {
                    h.u64(u64::from(v));
                }
            }),
        ),
        (
            "hot",
            fold(|h| p.hot.iter().for_each(|&v| h.u64(u64::from(v)))),
        ),
        ("hot_coverage", fold(|h| h.f64(p.hot_coverage))),
        ("presample_coverage", curve(p.hotness.order())),
        ("degree_coverage", curve(&p.degree_order)),
        (
            "hot_per_super_batch",
            fold(|h| h.f64(p.hot_per_super_batch)),
        ),
        ("hot_one_hop_edges", fold(|h| h.u64(p.hot_one_hop_edges))),
        ("num_vertices", fold(|h| h.u64(p.num_vertices as u64))),
        ("topology_bytes", fold(|h| h.u64(p.topology_bytes))),
        ("avg_degree", fold(|h| h.f64(p.avg_degree))),
        ("paper_coverage_curve", floats(&p.paper_coverage_curve)),
    ];
    fields
        .into_iter()
        .map(|(field, d)| (format!("{case}/{field}"), d))
        .collect()
}

/// The two golden cases, `(case, profile)`.
fn cases() -> [(&'static str, WorkloadProfile); 2] {
    let mut tiny = WorkloadConfig::paper_default(LayerKind::Gcn);
    tiny.batch_size = 64;
    tiny.layers = 2;
    tiny.profiled_batches = 6;
    let smoke = Setup::Smoke.dataset("Reddit");
    [
        ("tiny", WorkloadProfile::build(&DatasetSpec::tiny(), &tiny)),
        (
            "smoke Reddit",
            build_profile(Setup::Smoke, &smoke, LayerKind::Sage, 3, 1024),
        ),
    ]
}

/// The coverage curve profiles stored before they kept rankings: a float
/// prefix sum of the ranked access counts over their float total.
fn reference_curve(p: &WorkloadProfile, order: &[u32]) -> Vec<f64> {
    let total_accesses: f64 = (0..p.num_vertices as u32)
        .map(|v| p.hotness.count(v) as f64)
        .sum::<f64>()
        .max(1.0);
    let mut cum = 0.0;
    let mut out = Vec::with_capacity(order.len() + 1);
    out.push(0.0);
    for &v in order {
        cum += p.hotness.count(v) as f64;
        out.push(cum / total_accesses);
    }
    out
}

/// A coverage accessor of a profile: `presample_coverage_topk` or
/// `degree_coverage_topk`.
type Topk = fn(&WorkloadProfile, usize) -> f64;

#[test]
fn coverage_accessors_equal_the_float_prefix_sum() {
    for (case, p) in cases() {
        let presample: Topk = WorkloadProfile::presample_coverage_topk;
        let degree: Topk = WorkloadProfile::degree_coverage_topk;
        let rankings = [
            ("presample", p.hotness.order(), presample),
            ("degree", &p.degree_order, degree),
        ];
        for (ranking, order, topk) in rankings {
            assert_eq!(order.len(), p.num_vertices, "{case}/{ranking}");
            let want = reference_curve(&p, order);
            let streamed: Vec<u64> = p.coverage_curve(order).map(f64::to_bits).collect();
            let want_bits: Vec<u64> = want.iter().map(|x| x.to_bits()).collect();
            assert_eq!(streamed, want_bits, "{case}/{ranking}: coverage_curve");
            // k = V + 1 asks past the ranking: it clamps to V.
            for k in 0..=p.num_vertices + 1 {
                let got = topk(&p, k);
                let want = want[k.min(p.num_vertices)];
                assert_eq!(got.to_bits(), want.to_bits(), "{case}/{ranking} k={k}");
            }
        }
    }
}

#[test]
fn profiles_match_the_recorded_digests() {
    let measured: Vec<(String, u64)> = cases()
        .iter()
        .flat_map(|(case, p)| digests(case, p))
        .collect();

    let table: String = measured
        .iter()
        .map(|(name, d)| format!("    ({name:?}, {d:#018x}),\n"))
        .collect();
    let names: Vec<&str> = EXPECTED.iter().map(|(n, _)| *n).collect();
    let got: Vec<&str> = measured.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, got, "case list changed; measured:\n{table}");
    for ((name, want), (_, got)) in EXPECTED.iter().zip(&measured) {
        assert_eq!(
            got, want,
            "{name}: profile digest moved; measured table:\n{table}"
        );
    }
}
