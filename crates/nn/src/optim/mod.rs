//! Optimizers.

pub mod sgd;

pub use sgd::Sgd;

use crate::param::Param;

/// A first-order optimizer stepping a parameter list in place.
///
/// Callers pass parameters in a stable order across steps, so an
/// implementation may key per-parameter state by slot ([`Sgd`] keeps none).
pub trait Optimizer {
    /// Applies one update step from the accumulated gradients.
    fn step(&mut self, params: &mut [&mut Param]);

    /// The current learning rate.
    fn learning_rate(&self) -> f32;
}
