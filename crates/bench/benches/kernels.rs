//! Micro-benchmarks of the substrate kernels: matmul, sampling, the DES
//! engine and GNN layer passes.

use criterion::{criterion_group, criterion_main, Criterion};
use neutron_graph::generate::{rmat, RmatParams};
use neutron_hetero::{Engine, TaskKind};
use neutron_nn::layers::{Layer, LayerKind};
use neutron_sample::{Fanout, NeighborSampler};
use neutron_tensor::kernels::reference;
use neutron_tensor::{init, ops, Matrix};
use std::hint::black_box;

fn matmul(c: &mut Criterion) {
    let a = init::uniform(512, 128, -1.0, 1.0, 1);
    let b = init::uniform(128, 64, -1.0, 1.0, 2);
    c.bench_function("tensor/matmul 512x128x64", |bench| {
        bench.iter(|| black_box(ops::matmul(&a, &b)));
    });
}

/// Chunked-vs-scalar pairs at training shapes (512-row batch, 128-dim
/// features, 64-dim hidden). Ids follow `kern/<kernel>/<variant>`.
fn kernel_pairs(c: &mut Criterion) {
    let batch = 512usize;
    let feat = 128usize;
    let hid = 64usize;
    let a = init::uniform(batch, feat, -1.0, 1.0, 1);
    let b = init::uniform(feat, hid, -1.0, 1.0, 2);
    c.bench_function("kern/matmul/chunked", |bench| {
        bench.iter(|| black_box(ops::matmul(&a, &b)));
    });
    c.bench_function("kern/matmul/scalar", |bench| {
        bench.iter(|| {
            black_box(reference::matmul(
                a.as_slice(),
                b.as_slice(),
                batch,
                feat,
                hid,
            ))
        });
    });

    // ∇W shape: A: batch×feat (activations), B: batch×hid (deltas).
    let dz = init::uniform(batch, hid, -1.0, 1.0, 3);
    c.bench_function("kern/matmul_at_b/chunked", |bench| {
        bench.iter(|| black_box(ops::matmul_at_b(&a, &dz)));
    });
    c.bench_function("kern/matmul_at_b/scalar", |bench| {
        bench.iter(|| {
            black_box(reference::matmul_at_b(
                a.as_slice(),
                dz.as_slice(),
                batch,
                feat,
                hid,
            ))
        });
    });

    // ∇H shape: A: batch×hid (deltas), B: feat×hid (weights, transposed use).
    let w = init::uniform(feat, hid, -1.0, 1.0, 4);
    c.bench_function("kern/matmul_a_bt/chunked", |bench| {
        bench.iter(|| black_box(ops::matmul_a_bt(&dz, &w)));
    });
    c.bench_function("kern/matmul_a_bt/scalar", |bench| {
        bench.iter(|| {
            black_box(reference::matmul_a_bt(
                dz.as_slice(),
                w.as_slice(),
                batch,
                hid,
                feat,
            ))
        });
    });

    // Feature row gather: 4096 sampled vertices out of a 20k-vertex host
    // matrix — the Gather (FC) shape of the scaled replica.
    let host = init::uniform(20_000, feat, -1.0, 1.0, 5);
    let idx: Vec<usize> = (0..4096).map(|i| (i * 4_877) % 20_000).collect();
    c.bench_function("kern/gather/chunked", |bench| {
        bench.iter(|| black_box(host.gather_rows(&idx)));
    });
    c.bench_function("kern/gather/scalar", |bench| {
        bench.iter(|| black_box(reference::gather_rows(host.as_slice(), feat, &idx)));
    });

    // Backward aggregation scatter: 4096 gradient rows into 8192 src rows.
    let grads = init::uniform(4096, hid, -1.0, 1.0, 6);
    let dst: Vec<usize> = (0..4096).map(|i| (i * 3_203) % 8192).collect();
    c.bench_function("kern/scatter_add/chunked", |bench| {
        let mut out = Matrix::zeros(8192, hid);
        bench.iter(|| {
            out.scatter_add_rows(&dst, &grads);
            black_box(out.get(0, 0))
        });
    });
    c.bench_function("kern/scatter_add/scalar", |bench| {
        let mut out = Matrix::zeros(8192, hid);
        bench.iter(|| {
            reference::scatter_add_rows(out.as_mut_slice(), hid, &dst, grads.as_slice());
            black_box(out.get(0, 0))
        });
    });
}

fn sampling(c: &mut Criterion) {
    let g = rmat(20_000, 300_000, RmatParams::graph500(), 3);
    let sampler = NeighborSampler::new(Fanout::paper_default(3));
    let seeds: Vec<u32> = (0..256).collect();
    c.bench_function("sample/3-hop 256 seeds", |bench| {
        let mut i = 0u64;
        bench.iter(|| {
            i += 1;
            black_box(sampler.sample_batch(&g, &seeds, i))
        });
    });
}

fn des_engine(c: &mut Criterion) {
    c.bench_function("hetero/DES 400-task pipeline", |bench| {
        bench.iter(|| {
            let mut e = Engine::new();
            let cpu = e.add_resource("cpu", 8.0);
            let gpu = e.add_resource("gpu", 1.0);
            let mut prev = None;
            for _ in 0..100 {
                let s = e.add_task(cpu, TaskKind::Sample, 1.0, 4.0, &[]);
                let f = e.add_task(cpu, TaskKind::GatherCollect, 0.5, 4.0, &[s]);
                let deps: Vec<_> = prev.into_iter().chain([f]).collect();
                let t = e.add_task(gpu, TaskKind::Train, 0.8, 0.8, &deps);
                let _ = e.add_task(gpu, TaskKind::Other, 0.1, 0.2, &[t]);
                prev = Some(t);
            }
            black_box(e.run().makespan)
        });
    });
}

fn gnn_layers(c: &mut Criterion) {
    let g = rmat(5_000, 80_000, RmatParams::graph500(), 5);
    let sampler = NeighborSampler::new(Fanout::new(vec![10]));
    let blocks = sampler.sample_batch(&g, &(0..128).collect::<Vec<_>>(), 7);
    let block = &blocks[0];
    let input = init::uniform(block.num_src(), 64, -1.0, 1.0, 8);
    for kind in [LayerKind::Gcn, LayerKind::Sage, LayerKind::Gat] {
        let layer = Layer::new(kind, 64, 32, false, 9);
        c.bench_function(&format!("nn/{kind:?} forward 128-dst block"), |bench| {
            bench.iter(|| black_box(layer.forward(block, &input)));
        });
    }
}

criterion_group!(
    kernels,
    matmul,
    kernel_pairs,
    sampling,
    des_engine,
    gnn_layers
);
criterion_main!(kernels);
