//! # mm-data
//!
//! Data vectors, synthetic datasets and the relative-error evaluation harness.
//!
//! The paper's relative-error experiments (Figs. 3(b), 3(d), Table 2) use the
//! US-Census (IPUMS) and UCI Adult datasets, which are not redistributable
//! here; [`synthetic`] provides seeded generators that produce histograms of
//! the same shape, scale and skew (see `DESIGN.md` for the substitution
//! argument).  [`relative_error`] answers a workload on a data vector through
//! a caller's engine and measures the average relative error of the answers,
//! exactly as the experiments require.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod data_vector;
pub mod relative_error;
pub mod synthetic;

pub use data_vector::DataVector;
pub use synthetic::{adult_like, census_like, SyntheticDataset};
