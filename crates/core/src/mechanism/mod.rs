//! The noise backends: the (ε,δ)-Gaussian and ε-Laplace instantiations of
//! the matrix mechanism behind one [`backend::NoiseBackend`] trait.
//!
//! A backend supplies the sensitivity norm, the noise calibration, the error
//! constant and the sampler; the engine's release step
//! ([`Engine`](crate::engine::Engine)) is the only production code that
//! calls the sampler.  The float samplers themselves are private to this
//! module.

pub mod backend;
mod noise;

pub use backend::{default_backend, GaussianBackend, LaplaceBackend, NoiseBackend};
