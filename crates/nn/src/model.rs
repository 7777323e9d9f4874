//! Multi-layer GNN models over block stacks.

use crate::layers::{Layer, LayerCtx, LayerKind};
use crate::param::Param;
use neutron_sample::Block;
use neutron_tensor::{Matrix, RowView};

/// Model architecture description.
#[derive(Clone, Debug)]
pub struct ModelConfig {
    /// GNN architecture (all layers share it, like the paper's models).
    pub kind: LayerKind,
    /// Input feature dimension.
    pub feature_dim: usize,
    /// Hidden embedding dimension (Table 4's "hid. dim").
    pub hidden_dim: usize,
    /// Output classes.
    pub num_classes: usize,
    /// Number of layers (paper default 3, §5.1).
    pub layers: usize,
    /// Weight init seed.
    pub seed: u64,
}

impl ModelConfig {
    /// The paper's default 3-layer configuration for a dataset shape.
    pub fn paper_default(
        kind: LayerKind,
        feature_dim: usize,
        hidden_dim: usize,
        num_classes: usize,
    ) -> Self {
        Self {
            kind,
            feature_dim,
            hidden_dim,
            num_classes,
            layers: 3,
            seed: 0x5eed,
        }
    }

    /// Per-layer `(in_dim, out_dim)` pairs, bottom first.
    pub fn layer_dims(&self) -> Vec<(usize, usize)> {
        assert!(self.layers >= 1);
        (0..self.layers)
            .map(|l| {
                let in_dim = if l == 0 {
                    self.feature_dim
                } else {
                    self.hidden_dim
                };
                let out_dim = if l + 1 == self.layers {
                    self.num_classes
                } else {
                    self.hidden_dim
                };
                (in_dim, out_dim)
            })
            .collect()
    }
}

/// A stack of GNN layers; `layers[0]` consumes raw features.
pub struct GnnModel {
    layers: Vec<Layer>,
    config: ModelConfig,
}

/// Saved state of one forward pass, consumed by [`GnnModel::backward`].
pub struct ForwardPass {
    /// Output of each layer, bottom first; `outputs.last()` are the logits.
    /// Under a model with a layer above the bottom one, `outputs[0]` has one
    /// row per `blocks[1].src()` vertex — the layer above's input — also
    /// when a pruned bottom block computed only some of them.
    pub outputs: Vec<Matrix>,
    /// Per-layer intermediates.
    pub ctxs: Vec<LayerCtx>,
    /// Rows of `outputs[0]` the bottom block computed; `None` = all of them.
    live: Option<Vec<usize>>,
}

/// The positions of `blocks[1].src()` whose embedding `blocks[0]` computes,
/// or `None` when that is every position (an unpruned stack, or a one-layer
/// model). A pruned stack's `blocks[0].dst()` is the order-preserving
/// subsequence of `blocks[1].src()` left after dropping the reused vertices
/// ([`neutron_sample::NeighborSampler::with_bottom_skip`]), so one
/// two-pointer walk recovers the positions; nothing extra is staged.
fn live_bottom_rows(blocks: &[Block]) -> Option<Vec<usize>> {
    let [bottom, upper, ..] = blocks else {
        return None;
    };
    if bottom.num_dst() == upper.num_src() {
        return None;
    }
    let dst = bottom.dst();
    let mut live = Vec::with_capacity(dst.len());
    for (p, v) in upper.src().iter().enumerate() {
        if dst.get(live.len()) == Some(v) {
            live.push(p);
        }
    }
    assert_eq!(
        live.len(),
        dst.len(),
        "blocks[0].dst() must be an order-preserving subsequence of blocks[1].src()"
    );
    Some(live)
}

impl ForwardPass {
    /// Final-layer logits (one row per seed vertex).
    pub fn logits(&self) -> &Matrix {
        self.outputs.last().expect("model has at least one layer")
    }
}

impl GnnModel {
    /// Builds a model from a config.
    pub fn new(config: ModelConfig) -> Self {
        let dims = config.layer_dims();
        let layers = dims
            .iter()
            .enumerate()
            .map(|(l, &(i, o))| {
                Layer::new(
                    config.kind,
                    i,
                    o,
                    l + 1 == dims.len(),
                    config.seed ^ (l as u64) << 8,
                )
            })
            .collect();
        Self { layers, config }
    }

    /// The model's configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The layer stack.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable access to one layer (the NeutronOrch trainer drives the
    /// bottom layer separately on the "CPU").
    pub fn layer_mut(&mut self, l: usize) -> &mut Layer {
        &mut self.layers[l]
    }

    /// Full forward over a bottom-first block stack. `features` has one row
    /// per `blocks[0].src()` vertex: a `&Matrix`, or a [`RowView`] that
    /// reads the rows where they live. On a pruned stack (see
    /// [`Self::forward_spliced`]) the bottom-layer rows nobody supplies are
    /// zero.
    pub fn forward<'a>(&self, blocks: &[Block], features: impl Into<RowView<'a>>) -> ForwardPass {
        self.forward_spliced(blocks, features, |_| {})
    }

    /// [`Self::forward`] with a hook between the bottom layer and the one
    /// above it — NeutronOrch's historical-embedding splice (§4.1.2).
    ///
    /// `blocks[0]` may be *pruned*: its dst an order-preserving subsequence
    /// of `blocks[1].src()`. The bottom layer's compact output is scattered
    /// into the full `blocks[1].num_src() × hidden` matrix (other rows
    /// zero), then `splice` runs once on that matrix to fill or replace
    /// rows with externally supplied embeddings. Row for row the result is
    /// bit-identical to computing every row and overwriting: a bottom-layer
    /// output row depends only on its own aggregated input row. An unpruned
    /// stack is the degenerate case (nothing to scatter), and a one-layer
    /// model has no layer to splice into, so `splice` never runs on it.
    /// [`Self::backward_with_mask`] hands the bottom layer only the rows it
    /// computed.
    pub fn forward_spliced<'a>(
        &self,
        blocks: &[Block],
        features: impl Into<RowView<'a>>,
        mut splice: impl FnMut(&mut Matrix),
    ) -> ForwardPass {
        assert_eq!(blocks.len(), self.layers.len(), "one block per layer");
        let features = features.into();
        let live = live_bottom_rows(blocks);
        let mut outputs: Vec<Matrix> = Vec::with_capacity(self.layers.len());
        let mut ctxs = Vec::with_capacity(self.layers.len());
        for (l, (layer, block)) in self.layers.iter().zip(blocks).enumerate() {
            let input = outputs.last().map_or(features, RowView::dense);
            let (mut out, ctx) = layer.forward(block, input);
            if l == 0 && blocks.len() > 1 {
                if let Some(live) = &live {
                    let mut full = Matrix::zeros(blocks[1].num_src(), out.cols());
                    for (i, &p) in live.iter().enumerate() {
                        full.copy_row_from(p, out.row(i));
                    }
                    out = full;
                }
                splice(&mut out);
            }
            outputs.push(out);
            ctxs.push(ctx);
        }
        ForwardPass {
            outputs,
            ctxs,
            live,
        }
    }

    /// Full backward from `d_logits`; accumulates parameter gradients and
    /// returns `∂L/∂features`.
    pub fn backward(&mut self, blocks: &[Block], pass: ForwardPass, d_logits: &Matrix) -> Matrix {
        self.backward_layers(blocks, pass, d_logits, &[], true)
            .expect("the input gradient was requested")
    }

    /// The training backward: parameter gradients only (the same bits as
    /// [`Self::backward`]'s) — features are constants, so `∂L/∂features` is
    /// not computed. Zeroes the gradient flowing into the rows of the bottom
    /// layer's (full) output listed in `frozen_bottom_rows` (historical
    /// embeddings are constants too; "using historical embeddings avoids …
    /// the associated backward pass", §4.1.2). On a pruned stack
    /// the bottom layer receives only the gradient rows of the vertices it
    /// computed; the rest end here.
    pub fn backward_with_mask(
        &mut self,
        blocks: &[Block],
        pass: ForwardPass,
        d_logits: &Matrix,
        frozen_bottom_rows: &[usize],
    ) {
        self.backward_layers(blocks, pass, d_logits, frozen_bottom_rows, false);
    }

    /// The one backward walk; `feature_grad` is the bottom layer's `input_grad`.
    fn backward_layers(
        &mut self,
        blocks: &[Block],
        pass: ForwardPass,
        d_logits: &Matrix,
        frozen_bottom_rows: &[usize],
        feature_grad: bool,
    ) -> Option<Matrix> {
        let ForwardPass { mut ctxs, live, .. } = pass;
        let mut grad = d_logits.clone();
        for l in (1..self.layers.len()).rev() {
            let ctx = ctxs.pop().expect("ctx per layer");
            grad = self.layers[l]
                .backward(&blocks[l], ctx, &grad, true)
                .expect("the input gradient was requested");
        }
        for &r in frozen_bottom_rows {
            grad.row_mut(r).fill(0.0);
        }
        if let Some(live) = &live {
            grad = grad.gather_rows(live);
        }
        let ctx0 = ctxs.pop().expect("bottom ctx");
        self.layers[0].backward(&blocks[0], ctx0, &grad, feature_grad)
    }

    /// Zeroes all parameter gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            for p in layer.params_mut() {
                p.zero_grad();
            }
        }
    }

    /// All parameters, bottom layer first.
    pub fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// All parameters mutably, bottom layer first (optimizer entry point).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Largest single-update weight change measured in `‖·‖∞` — the paper's
    /// `max‖ΔW‖` staleness monitor (§4.3).
    pub fn max_weight_delta(&self, previous: &[Matrix]) -> f32 {
        let params = self.params();
        assert_eq!(params.len(), previous.len());
        params
            .iter()
            .zip(previous)
            .map(|(p, q)| {
                p.value
                    .as_slice()
                    .iter()
                    .zip(q.as_slice())
                    .fold(0.0f32, |m, (a, b)| m.max((a - b).abs()))
            })
            .fold(0.0, f32::max)
    }

    /// Snapshot of all parameter values (for `max_weight_delta`).
    pub fn snapshot(&self) -> Vec<Matrix> {
        self.params().iter().map(|p| p.value.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neutron_graph::generate::erdos_renyi;
    use neutron_sample::{Fanout, NeighborSampler};
    use neutron_tensor::init;

    fn sampled_setup(kind: LayerKind) -> (Vec<Block>, Matrix, GnnModel) {
        let g = erdos_renyi(120, 1500, 1);
        let sampler = NeighborSampler::new(Fanout::new(vec![4, 3]));
        let blocks = sampler.sample_batch(&g, &[0, 1, 2, 3, 4], 2);
        let features = init::uniform(blocks[0].num_src(), 6, -1.0, 1.0, 3);
        let model = GnnModel::new(ModelConfig {
            kind,
            feature_dim: 6,
            hidden_dim: 5,
            num_classes: 3,
            layers: 2,
            seed: 4,
        });
        (blocks, features, model)
    }

    #[test]
    fn layer_dims_chain_correctly() {
        let cfg = ModelConfig::paper_default(LayerKind::Gcn, 602, 256, 41);
        assert_eq!(cfg.layer_dims(), vec![(602, 256), (256, 256), (256, 41)]);
    }

    #[test]
    fn single_layer_model_maps_features_to_classes() {
        let cfg = ModelConfig {
            kind: LayerKind::Gcn,
            feature_dim: 10,
            hidden_dim: 99,
            num_classes: 4,
            layers: 1,
            seed: 0,
        };
        assert_eq!(cfg.layer_dims(), vec![(10, 4)]);
    }

    #[test]
    fn forward_produces_seed_logits_for_all_kinds() {
        for kind in LayerKind::ALL {
            let (blocks, features, model) = sampled_setup(kind);
            let pass = model.forward(&blocks, &features);
            assert_eq!(pass.logits().shape(), (5, 3), "{kind:?}");
            assert!(pass.logits().all_finite());
        }
    }

    #[test]
    fn backward_fills_all_grads() {
        for kind in LayerKind::ALL {
            let (blocks, features, mut model) = sampled_setup(kind);
            let pass = model.forward(&blocks, &features);
            let d = Matrix::full(5, 3, 0.1);
            model.zero_grad();
            let d_feat = model.backward(&blocks, pass, &d);
            assert_eq!(d_feat.shape(), features.shape());
            for p in model.params() {
                assert!(p.grad.all_finite());
            }
        }
    }

    #[test]
    fn splice_replaces_rows_and_mask_cuts_gradients() {
        let (blocks, features, mut model) = sampled_setup(LayerKind::Gcn);
        let hidden = model.layers()[0].out_dim();
        let stale = vec![0.5f32; hidden];
        let pass = model.forward_spliced(&blocks, &features, |out| out.copy_row_from(0, &stale));
        assert_eq!(pass.outputs[0].row(0), &stale[..]);
        // With every bottom row frozen, no gradient reaches the bottom
        // layer; the layer above still gets one.
        let pass2 = model.forward(&blocks, &features);
        model.zero_grad();
        let all_rows: Vec<usize> = (0..pass2.outputs[0].rows()).collect();
        let d = Matrix::full(5, 3, 0.3);
        model.backward_with_mask(&blocks, pass2, &d, &all_rows);
        for p in model.layers()[0].params() {
            assert_eq!(p.grad.frobenius_norm(), 0.0, "bottom grads must be cut");
        }
        assert!(model.layers()[1].params()[0].grad.frobenius_norm() > 0.0);
        // Unfrozen, the same pass does reach the bottom layer and features.
        let pass3 = model.forward(&blocks, &features);
        model.zero_grad();
        let d_feat = model.backward(&blocks, pass3, &d);
        assert!(d_feat.frobenius_norm() > 0.0);
        assert!(model.layers()[0].params()[0].grad.frobenius_norm() > 0.0);
    }

    #[test]
    fn snapshot_delta_tracks_weight_updates() {
        let (_, _, mut model) = sampled_setup(LayerKind::Gcn);
        let snap = model.snapshot();
        assert_eq!(model.max_weight_delta(&snap), 0.0);
        model.params_mut()[0].value.set(0, 0, 100.0);
        assert!(model.max_weight_delta(&snap) > 1.0);
    }
}
