//! Golden digests of the graph generators: every replica's CSR, bit for bit.
//!
//! Each case folds a generated graph's `offsets` (u64, little-endian) and
//! `targets` (u32, little-endian) into one FNV-1a digest. FNV-1a is spelled
//! out here because `std`'s `DefaultHasher` does not promise a stable
//! algorithm across Rust releases. A generator or `GraphBuilder` rewrite must
//! reproduce these digests exactly: every replica, and so every simulated
//! number in `tests/sim_golden.rs`, is a pure function of its spec.
//!
//! The fast cases cover each generator family at a small size and the two
//! specs the tests and convergence runs build. The ignored case covers the
//! six Table-4 replicas the simulator grid builds; run it with
//! `cargo test --release --test graph_golden -- --ignored`. When a replica is
//! changed deliberately, run the test, copy the table it prints and say why
//! in the commit.

use neutronorch::graph::dataset::DatasetSpec;
use neutronorch::graph::generate::{
    barabasi_albert, erdos_renyi, planted_partition, rmat, RmatParams,
};
use neutronorch::graph::Csr;

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
}

/// FNV-1a over the CSR's offsets, then its targets.
fn digest(g: &Csr) -> u64 {
    let mut h = Fnv1a::new();
    let mut end = 0u64;
    h.bytes(&end.to_le_bytes());
    for v in 0..g.num_vertices() as u32 {
        end += g.degree(v) as u64;
        h.bytes(&end.to_le_bytes());
    }
    for v in 0..g.num_vertices() as u32 {
        for &t in g.neighbors(v) {
            h.bytes(&t.to_le_bytes());
        }
    }
    h.0
}

/// Compares `(name, digest)` pairs against `expected`, printing the whole
/// measured table on a mismatch.
fn check(expected: &[(&str, u64)], measured: &[(&'static str, u64)]) {
    let table: String = measured
        .iter()
        .map(|(name, d)| format!("    ({name:?}, {d:#018x}),\n"))
        .collect();
    let names: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
    let got: Vec<&str> = measured.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, got, "case list changed; measured:\n{table}");
    for ((name, want), (_, got)) in expected.iter().zip(measured) {
        assert_eq!(
            got, want,
            "{name}: CSR digest moved; measured table:\n{table}"
        );
    }
}

#[test]
fn generator_csrs_match_the_recorded_digests() {
    const EXPECTED: [(&str, u64); 7] = [
        ("rmat graph500", 0x0e1c18b2a350b0c3),
        ("rmat mild", 0x276712d61c200599),
        ("planted_partition", 0x77912513cd7541b0),
        ("barabasi_albert", 0x67a706206d6b9206),
        ("erdos_renyi", 0x1921d9234691a399),
        ("DatasetSpec::tiny", 0x07fb6195239d75c5),
        ("DatasetSpec::reddit_convergence", 0x9515bce83ad3b18a),
    ];
    let measured = vec![
        (
            "rmat graph500",
            digest(&rmat(4_096, 60_000, RmatParams::graph500(), 11)),
        ),
        (
            "rmat mild",
            digest(&rmat(3_000, 40_000, RmatParams::mild(), 12)),
        ),
        (
            "planted_partition",
            digest(&planted_partition(2_000, 30_000, 5, 0.6, 13).csr),
        ),
        ("barabasi_albert", digest(&barabasi_albert(2_000, 4, 14))),
        ("erdos_renyi", digest(&erdos_renyi(1_500, 20_000, 15))),
        (
            "DatasetSpec::tiny",
            digest(&DatasetSpec::tiny().build_topology().csr),
        ),
        (
            "DatasetSpec::reddit_convergence",
            digest(&DatasetSpec::reddit_convergence().build_topology().csr),
        ),
    ];
    check(&EXPECTED, &measured);
}

#[test]
#[ignore = "builds the six Table-4 replicas; run in release with --ignored"]
fn table4_replica_csrs_match_the_recorded_digests() {
    const EXPECTED: [(&str, u64); 6] = [
        ("Reddit", 0x472d2434c3badcf9),
        ("Lj-large", 0xf67f401cbd800edb),
        ("Orkut", 0x2be7f1efc3d51d63),
        ("Wikipedia", 0xeb39ddd1238407e0),
        ("Products", 0xd23fed40904c6b94),
        ("Papers100M", 0xece6e65d5c1e6175),
    ];
    let measured: Vec<(&'static str, u64)> = DatasetSpec::all_scaled()
        .iter()
        .map(|spec| (spec.name, digest(&spec.build_topology().csr)))
        .collect();
    check(&EXPECTED, &measured);
}
