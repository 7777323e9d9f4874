//! The recycled per-batch buffer bundle that makes the steady-state epoch
//! (near) allocation-free.
//!
//! Every stage of the pipeline used to allocate its working vectors fresh
//! per batch — block component buffers in the sampler, the row index and
//! the miss matrix in the gather stage. [`BatchBuffers`] bundles all of
//! that spent capacity so it can flow *backwards* through the engine: after
//! a batch trains, its buffers are dismantled into a `BatchBuffers` and
//! sent down a bounded return channel to the sampler workers, which refill
//! them for a future batch. A batch whose bundle is missing (cold start,
//! pool exhausted) simply allocates — the pooled code paths are
//! value-identical to the allocating ones, only the capacity source
//! differs.

use neutron_sample::{Block, BlockBuilder, BlockParts};

/// A bundle of spent, reusable buffers covering one in-flight batch.
/// Contents of every buffer are stale garbage; only capacity matters.
#[derive(Debug, Default)]
pub struct BatchBuffers {
    /// Emptied block stacks (one per recycled batch).
    pub stacks: Vec<Vec<Block>>,
    /// Spent block component buffers (one per recycled block).
    pub parts: Vec<BlockParts>,
    /// Spent `f32` row buffers (miss matrices).
    pub f32_bufs: Vec<Vec<f32>>,
    /// Spent `u32` row-index buffers.
    pub pos_bufs: Vec<Vec<u32>>,
}

impl BatchBuffers {
    /// An empty bundle (the allocating fallback).
    pub fn new() -> Self {
        Self::default()
    }

    /// Pops a cleared `f32` buffer, or a fresh one if none is spare.
    pub fn take_f32(&mut self) -> Vec<f32> {
        let mut buf = self.f32_bufs.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Pops a cleared position buffer, or a fresh one if none is spare.
    pub fn take_pos(&mut self) -> Vec<u32> {
        let mut buf = self.pos_bufs.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Returns a spent `f32` buffer to the bundle.
    pub fn put_f32(&mut self, buf: Vec<f32>) {
        self.f32_bufs.push(buf);
    }

    /// Returns a spent position buffer to the bundle.
    pub fn put_pos(&mut self, buf: Vec<u32>) {
        self.pos_bufs.push(buf);
    }

    /// Dismantles a trained batch's block stack into this bundle.
    pub fn recycle_blocks(&mut self, mut blocks: Vec<Block>) {
        for block in blocks.drain(..) {
            self.parts.push(block.into_parts());
        }
        self.stacks.push(blocks);
    }

    /// Hands the sampler-side spares (block parts and stacks) to a worker's
    /// [`BlockBuilder`], keeping the gather-side buffers in the bundle.
    pub fn donate_to(&mut self, builder: &mut BlockBuilder) {
        for parts in self.parts.drain(..) {
            builder.donate_parts(parts);
        }
        for stack in self.stacks.drain(..) {
            builder.donate_stack(stack);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_round_trip_and_come_back_cleared() {
        let mut bufs = BatchBuffers::new();
        assert!(bufs.take_f32().is_empty());
        assert!(bufs.take_pos().is_empty());

        bufs.put_f32(vec![1.0, 2.0, 3.0]);
        bufs.put_pos(vec![7, 8]);
        let f = bufs.take_f32();
        assert!(f.is_empty() && f.capacity() >= 3, "stale data must clear");
        let p = bufs.take_pos();
        assert!(p.is_empty() && p.capacity() >= 2);

        let block = Block::new(vec![1], vec![1, 2], vec![0, 1], vec![1]);
        bufs.recycle_blocks(vec![block]);
        assert_eq!(bufs.parts.len(), 1);
        assert_eq!(bufs.stacks.len(), 1);
        let mut builder = BlockBuilder::new();
        bufs.donate_to(&mut builder);
        assert!(bufs.parts.is_empty() && bufs.stacks.is_empty());
    }
}
