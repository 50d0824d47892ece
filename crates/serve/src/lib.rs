//! # hd-serve — sharded micro-batching associative-search service
//!
//! The batched popcount pipeline in `hd_linalg` answers queries at tens
//! of nanoseconds each — **when someone hands it a batch**. Production
//! traffic doesn't arrive as batches: it arrives as millions of
//! independent single-query requests. This crate is the serving layer
//! that closes that gap:
//!
//! * **Micro-batching** ([`Server`]) — concurrent single-query
//!   submissions are coalesced into SIMD-sized [`hd_linalg::QueryBatch`]es
//!   and flushed either when full ([`ServeConfig::max_batch`], executed
//!   inline by the filling submitter — flat combining) or when the oldest
//!   query has waited out the latency budget ([`ServeConfig::max_delay`],
//!   executed by a background deadline flusher). No submission is ever
//!   lost: full flush, deadline flush, or shutdown drain answers it.
//! * **Sharding** ([`ShardedSearcher`]) — a [`hd_linalg::SearchMemory`]'s
//!   class-row space splits into contiguous, block-aligned row shards,
//!   each pinned to a worker thread with its own pre-packed blocked
//!   mirror; per-shard k-best lists merge under the workspace's exact
//!   highest-score / lowest-row tie-break.
//! * **Cascade serving** ([`ShardedSearcher::with_cascade`] and
//!   [`ShardedSearcher::from_am_cascade`], with a plan from
//!   `hd_linalg::CascadePlan`, hand-picked or `tuned`; one shard runs
//!   inline) — batches are answered through the progressive-precision
//!   cascade of `hd_linalg`: dimension prefixes first, provably-losing
//!   centroids pruned, survivors finished. Answers stay bit-identical to
//!   the exact adapters; shards prune independently and the strict merge
//!   is unchanged.
//! * **Hot model swap** ([`ModelRegistry`]) — the served model lives
//!   behind an `Arc` snapshot; [`Server::publish`] swaps generations
//!   atomically while in-flight flushes finish on the snapshot they
//!   hold, so a batch never mixes generations. This is the hook the
//!   `imc_sim` fault-injection path uses to republish a degraded mapping
//!   (see [`imc_sim::FaultyAmMapping::inject`]).
//! * **Wire front-end** ([`net::WireServer`] / [`net::WireClient`]) — a
//!   std-only TCP / Unix-domain-socket protocol whose QUERY payload *is*
//!   the packed batch layout, so frames land in the pending batch as one
//!   word copy ([`Server::submit_packed`]); responses stream back
//!   per-flush with typed error frames for malformed input.
//!
//! Any associative memory in the workspace plugs in through the
//! [`Searchable`] trait, which answers each query with its k-best slate
//! (the winner is the k=1 view): `hdc::BinaryAm`, `memhd::MemhdModel` (its
//! quantized AM), `imc_sim::AmMapping` / `FaultyAmMapping`, the four
//! baselines, raw `hd_linalg::SearchMemory`, or a [`ShardedSearcher`]
//! wrapping any of their row stores.
//!
//! # Example
//!
//! ```
//! use hd_linalg::BitVector;
//! use hd_serve::{ServeConfig, Server, ShardedSearcher};
//! use hdc::BinaryAm;
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let am = BinaryAm::from_centroids(2, vec![
//!     (0, BitVector::from_bools(&[true, true, false, false])),
//!     (1, BitVector::from_bools(&[false, false, true, true])),
//! ])?;
//! // Shard the AM's rows (2 shards) and serve with a 100 µs budget.
//! let sharded = ShardedSearcher::from_am(&am, 2)?;
//! let server = Server::start(Arc::new(sharded), ServeConfig {
//!     max_batch: 64,
//!     max_delay: Duration::from_micros(100),
//!     ..Default::default()
//! })?;
//! let pred = server.classify(BitVector::from_bools(&[true, true, true, false]).as_view())?;
//! assert_eq!(pred.class, 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod net;
mod registry;
mod searchable;
mod server;
mod shard;

pub use error::{Result, ServeError};
pub use registry::{Generation, ModelRegistry};
pub use searchable::{Searchable, Winner};
pub use server::{Pending, PendingTopK, Prediction, ServeConfig, Server, ServerStats};
pub use shard::ShardedSearcher;
