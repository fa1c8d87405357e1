//! # muve-cache — cross-request caching for the MUVE stack
//!
//! A std-only caching subsystem shared across serve workers via `Arc`:
//!
//! - [`Cache`] — a memory-bounded, **epoch-versioned** map under one
//!   lock. Every entry is stamped with the epoch current at insert time;
//!   when the owning table is reloaded the epoch is bumped
//!   ([`Cache::set_epoch`]) and stale entries are dropped lazily on the
//!   next lookup. Eviction is **least-recently-used** over the whole
//!   byte budget, so the order of lookups and inserts alone decides which
//!   entry goes and the counts repeat from run to run.
//! - [`SingleFlight`] — de-duplication for concurrent identical misses:
//!   the first caller becomes the *leader* and computes; the other N−1
//!   become *waiters* that block (with their own deadline budgets and
//!   optional cancel tokens — see [`Waiter::wait`]) on the leader's
//!   published result. A leader that panics or is dropped without
//!   finishing resolves the flight with `None`, so waiters never hang.
//!
//! Everything is instrumented through `muve-obs`: aggregate
//! `cache.hit/miss/insert/evict/stale/lookups/singleflight_wait` counters,
//! a `cache.bytes` gauge, a `cache.lookup_us` histogram, and per-layer
//! `cache.<layer>.*` counters/gauges. Each [`Cache`] additionally keeps
//! local atomics ([`Cache::stats`]) so callers such as the CLI `\cache`
//! command can report per-instance numbers without diffing the global
//! registry.

#![warn(missing_docs)]

mod cache;
mod singleflight;

pub use cache::{Cache, CacheStats};
pub use singleflight::{Join, Leader, SingleFlight, Waiter};
