//! Model-level equivalence of the two ways to reuse historical embeddings:
//!
//! - **compute then overwrite + mask** (what the trainer did before the
//!   sampler pruned hot vertices): run the bottom layer for every
//!   `blocks[1].src()` vertex, overwrite the reused rows with store rows,
//!   zero their gradient on the way back;
//! - **prune then splice**: delete the reused vertices' dst rows (and their
//!   edges) from the bottom block, run the bottom layer on what is left,
//!   scatter its rows into the full matrix and fill the rest from the store.
//!
//! The first is hand-rolled here on the [`Layer`] API, so it is an oracle
//! independent of [`GnnModel::forward_spliced`].

use neutron_graph::generate::erdos_renyi;
use neutron_nn::layers::Layer;
use neutron_nn::model::{GnnModel, ModelConfig};
use neutron_nn::param::Param;
use neutron_nn::LayerKind;
use neutron_sample::{Block, Fanout, NeighborSampler};
use neutron_tensor::{init, Matrix};
use proptest::prelude::*;

/// Bottom-layer gradients sum over fewer rows on the pruned side, so the
/// k-unrolled `matmul_at_b` (and the row sums) group their additions
/// differently: equal up to this many ULPs, or absolutely tiny where
/// cancellation makes ULPs meaningless. Everything else is bit-equal.
const GRAD_ULPS: i64 = 64;

fn grads_close(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice().iter().zip(b.as_slice()).all(|(&x, &y)| {
            x == y
                || (x - y).abs() <= 1e-6
                || (x.signum() == y.signum()
                    && (x.to_bits() as i64 - y.to_bits() as i64).abs() <= GRAD_ULPS)
        })
}

/// `stack` with the `frozen` positions of `stack[1].src()` deleted from the
/// bottom block's dst (and their edges with them); returns the pruned stack
/// and, per source of the new bottom block, its local index in the old one.
fn prune(stack: &[Block], frozen: &[bool]) -> (Vec<Block>, Vec<usize>) {
    let old = &stack[0];
    let live: Vec<usize> = (0..old.num_dst()).filter(|&i| !frozen[i]).collect();
    let dst: Vec<u32> = live.iter().map(|&i| old.dst()[i]).collect();
    // New local index of each old source; the live dst rows come first.
    let mut new_of_old = vec![u32::MAX; old.num_src()];
    let mut old_of_new = live.clone();
    for (new, &i) in live.iter().enumerate() {
        new_of_old[i] = new as u32;
    }
    let mut src = dst.clone();
    let mut offsets = vec![0u32];
    let mut indices = Vec::new();
    for &i in &live {
        for &li in old.neighbors_local(i) {
            let li = li as usize;
            if new_of_old[li] == u32::MAX {
                new_of_old[li] = src.len() as u32;
                src.push(old.src()[li]);
                old_of_new.push(li);
            }
            indices.push(new_of_old[li]);
        }
        offsets.push(indices.len() as u32);
    }
    let mut pruned = vec![Block::new(dst, src, offsets, indices)];
    pruned.extend(stack[1..].iter().cloned());
    (pruned, old_of_new)
}

/// One random sampled stack with some rows of `stack[1].src()` reused.
struct Case {
    layers: usize,
    /// The sampled (unpruned) stack and the features of `stack[0].src()`.
    stack: Vec<Block>,
    features: Matrix,
    /// `stack` with the reused rows pruned from the bottom block.
    pruned: Vec<Block>,
    pruned_features: Matrix,
    /// Per source of `pruned[0]`, its local index in `stack[0]`.
    old_of_new: Vec<usize>,
    /// Reused positions of `stack[1].src()` and the rows they take.
    frozen_rows: Vec<usize>,
    store: Matrix,
    d_logits: Matrix,
    seed: u64,
}

const FEATURE_DIM: usize = 5;
const HIDDEN: usize = 4;
const CLASSES: usize = 3;

impl Case {
    /// `mode`: 0 = nothing frozen, 1 = everything frozen, 2 = `flags`.
    fn new(seed: u64, layers: usize, batch: usize, mode: usize, flags: &[bool]) -> Self {
        let g = erdos_renyi(120, 900, seed);
        let sampler = NeighborSampler::new(Fanout::new(vec![3; layers]));
        let seeds: Vec<u32> = (0..batch as u32)
            .map(|i| (seed as u32 + i * 13) % 120)
            .collect();
        let stack = sampler.sample_batch(&g, &seeds, seed ^ 0x51);
        let rows = stack[1].num_src();
        let frozen: Vec<bool> = (0..rows)
            .map(|p| match mode {
                0 => false,
                1 => true,
                _ => flags[p % flags.len()],
            })
            .collect();
        let frozen_rows: Vec<usize> = (0..rows).filter(|&p| frozen[p]).collect();
        let (pruned, old_of_new) = prune(&stack, &frozen);
        assert_eq!(pruned[0].num_dst(), rows - frozen_rows.len());
        pruned[0].validate().unwrap();
        let features = init::uniform(stack[0].num_src(), FEATURE_DIM, -1.0, 1.0, seed ^ 1);
        Self {
            layers,
            pruned_features: features.gather_rows(&old_of_new),
            features,
            stack,
            pruned,
            old_of_new,
            frozen_rows,
            store: init::uniform(rows, HIDDEN, -1.0, 1.0, seed ^ 2),
            d_logits: init::uniform(batch, CLASSES, -1.0, 1.0, seed ^ 3),
            seed,
        }
    }

    fn config(&self, kind: LayerKind) -> ModelConfig {
        ModelConfig {
            kind,
            feature_dim: FEATURE_DIM,
            hidden_dim: HIDDEN,
            num_classes: CLASSES,
            layers: self.layers,
            seed: self.seed ^ 4,
        }
    }

    /// Overwrites the reused rows of the bottom layer's output.
    fn splice(&self, out: &mut Matrix) {
        for &p in &self.frozen_rows {
            out.copy_row_from(p, self.store.row(p));
        }
    }
}

/// Every parameter gradient of `model`, as bits.
fn grad_bits(model: &GnnModel) -> Vec<Vec<u32>> {
    let bits = |p: &&Param| p.grad.as_slice().iter().map(|x| x.to_bits()).collect();
    model.params().iter().map(bits).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prune_then_splice_equals_compute_then_overwrite(
        seed in 0u64..10_000,
        layers in 2usize..4,
        batch in 1usize..9,
        mode in 0usize..3,
        flags in proptest::collection::vec(any::<bool>(), 400..401),
    ) {
        let case = Case::new(seed, layers, batch, mode, &flags);
        let Case {
            stack,
            features,
            pruned,
            pruned_features,
            old_of_new,
            frozen_rows,
            d_logits,
            ..
        } = &case;
        let rows = stack[1].num_src();

        for kind in LayerKind::ALL {
            let config = case.config(kind);

            // Compute then overwrite + mask, on the unpruned stack.
            let mut old: Vec<Layer> = GnnModel::new(config.clone()).layers().to_vec();
            let mut input = features.clone();
            let mut ctxs = Vec::new();
            for (l, (layer, block)) in old.iter().zip(stack).enumerate() {
                let (mut out, ctx) = layer.forward(block, &input);
                if l == 0 {
                    case.splice(&mut out);
                }
                ctxs.push(ctx);
                input = out;
            }
            let old_logits = input;
            let mut grad = d_logits.clone();
            for l in (0..layers).rev() {
                if l == 0 {
                    for &p in frozen_rows {
                        grad.row_mut(p).fill(0.0);
                    }
                }
                grad = old[l]
                    .backward(&stack[l], ctxs.pop().unwrap(), &grad, true)
                    .unwrap();
            }
            let old_d_features = grad;

            // Prune then splice.
            let mut model = GnnModel::new(config.clone());
            let pass = model.forward_spliced(pruned, pruned_features, |out| case.splice(out));
            prop_assert_eq!(
                pass.logits().as_slice(),
                old_logits.as_slice(),
                "{:?}: logits must be bit-equal",
                kind
            );
            model.zero_grad();
            let d_features = model.backward(pruned, pass, d_logits);
            prop_assert!(
                grads_close(&d_features, &old_d_features.gather_rows(old_of_new)),
                "{kind:?}: feature gradients diverged"
            );
            for (l, (new, old)) in model.layers().iter().zip(&old).enumerate() {
                for (p, q) in new.params().iter().zip(old.params()) {
                    if l == 0 {
                        prop_assert!(
                            grads_close(&p.grad, &q.grad),
                            "{kind:?}: bottom-layer gradient outside {GRAD_ULPS} ULPs"
                        );
                    } else {
                        prop_assert_eq!(
                            p.grad.as_slice(),
                            q.grad.as_slice(),
                            "{:?}: layer {} gradient must be bit-equal",
                            kind,
                            l
                        );
                    }
                }
            }

            // Plain forward/backward accept the pruned stack; rows nobody
            // supplies stay zero.
            let plain = model.forward(pruned, pruned_features);
            prop_assert_eq!(plain.outputs[0].rows(), rows);
            for &p in frozen_rows {
                prop_assert!(plain.outputs[0].row(p).iter().all(|&x| x == 0.0));
            }
            prop_assert!(plain.logits().all_finite());
            let d = model.backward(pruned, plain, d_logits);
            prop_assert_eq!(d.shape(), pruned_features.shape());
        }
    }

    /// Features are constants: the training backward skips the bottom
    /// layer's `∂L/∂input`, and no parameter gradient may notice.
    #[test]
    fn skipping_the_input_gradient_changes_no_parameter_gradient(
        seed in 0u64..10_000,
        layers in 2usize..4,
        batch in 1usize..9,
        mode in 0usize..3,
        flags in proptest::collection::vec(any::<bool>(), 400..401),
    ) {
        let case = Case::new(seed, layers, batch, mode, &flags);
        for kind in LayerKind::ALL {
            let mut model = GnnModel::new(case.config(kind));
            // `backward` masks nothing, so it is the reference where no mask
            // is needed: the unpruned stack with nothing frozen, and the
            // pruned stack, whose frozen rows no layer computed.
            for (blocks, feats, frozen) in [
                (&case.stack, &case.features, &[][..]),
                (&case.pruned, &case.pruned_features, &case.frozen_rows[..]),
            ] {
                let pass = model.forward_spliced(blocks, feats, |out| case.splice(out));
                model.zero_grad();
                model.backward(blocks, pass, &case.d_logits);
                let want = grad_bits(&model);
                let pass = model.forward_spliced(blocks, feats, |out| case.splice(out));
                model.zero_grad();
                model.backward_with_mask(blocks, pass, &case.d_logits, frozen);
                prop_assert_eq!(grad_bits(&model), want, "{:?}", kind);
            }
            // Frozen rows on the unpruned stack: the reference is the same
            // walk on the `Layer` API with every input gradient computed.
            let pass = model.forward_spliced(&case.stack, &case.features, |out| case.splice(out));
            let mut ctxs = pass.ctxs;
            model.zero_grad();
            let mut grad = case.d_logits.clone();
            for l in (0..layers).rev() {
                if l == 0 {
                    for &p in &case.frozen_rows {
                        grad.row_mut(p).fill(0.0);
                    }
                }
                let ctx = ctxs.pop().unwrap();
                grad = model.layer_mut(l).backward(&case.stack[l], ctx, &grad, true).unwrap();
            }
            let want = grad_bits(&model);
            let pass = model.forward_spliced(&case.stack, &case.features, |out| case.splice(out));
            model.zero_grad();
            model.backward_with_mask(&case.stack, pass, &case.d_logits, &case.frozen_rows);
            prop_assert_eq!(grad_bits(&model), want, "{:?}: masked", kind);
        }
    }
}

#[test]
#[should_panic(expected = "order-preserving subsequence")]
fn a_bottom_block_that_is_no_subsequence_is_rejected() {
    let g = erdos_renyi(60, 400, 1);
    let sampler = NeighborSampler::new(Fanout::new(vec![3, 3]));
    let mut stack = sampler.sample_batch(&g, &[0, 1, 2], 7);
    // Reverse the bottom block's dst: same vertices, wrong order, one short.
    let mut dst: Vec<u32> = stack[1].src().to_vec();
    dst.reverse();
    dst.pop();
    let offsets = vec![0u32; dst.len() + 1];
    stack[0] = Block::new(dst.clone(), dst, offsets, Vec::new());
    let model = GnnModel::new(ModelConfig {
        kind: LayerKind::Gcn,
        feature_dim: 2,
        hidden_dim: 2,
        num_classes: 2,
        layers: 2,
        seed: 0,
    });
    let features = Matrix::zeros(stack[0].num_src(), 2);
    let _ = model.forward(&stack, &features);
}
