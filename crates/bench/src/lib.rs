//! # muve-bench
//!
//! The benchmark harness of the MUVE reproduction: [`experiments`] holds
//! one driver per table/figure of the paper's evaluation (§4 and §9); the
//! `expt` binary runs them and prints/serializes the regenerated rows.
//! Besides the paper's artefacts it keeps one load experiment, `serve`
//! (the network stack's shed/latency curve). Per-layer timings of the
//! substrates come from `muve-benchmark --trace 1` (the `benchmark/`
//! workspace), not from this crate.

#![warn(missing_docs)]

pub mod experiments;
