//! # umsc-rt
//!
//! The zero-dependency runtime substrate of the workspace. Every other
//! crate builds on the numerics in `umsc-linalg`; this crate sits one
//! level below even that and supplies the three things the workspace used
//! to pull from crates.io — so the whole build is hermetic (`--offline`
//! clean, no registry access ever):
//!
//! * [`rng`] — a splitmix64-seeded xoshiro256\*\* PRNG with the helpers
//!   the dataset generators and k-means++ actually use (`gen_range`,
//!   standard normals, `shuffle`, `choose_weighted`), plus the standalone
//!   [`SplitMix64`] stream behind Lanczos start vectors and D² anchor
//!   sampling. Replaces `rand`.
//!   The stream is pinned by golden-value tests: dataset seeds documented
//!   in papers/experiments stay reproducible across refactors.
//! * [`par`] — std-only scoped threads capped at `available_parallelism`
//!   (overridable via the `UMSC_THREADS` environment variable), exposing
//!   [`par::parallel_map_with`] / [`par::parallel_chunks_mut_with`], and
//!   the workspace's one thread policy: one flop gate
//!   ([`par::threads_for`]), one level of parallelism (a call made inside
//!   a worker runs inline) and one scoped override
//!   ([`par::with_threads`]). The hot kernels (row products, distance
//!   tiles, per-view graph construction, the anchor build, k-means
//!   assignment sweeps) thread through it and are bitwise-identical to
//!   their sequential paths by construction: work is partitioned into
//!   contiguous, independently-computed blocks and reassembled in order.
//! * [`check`](mod@check) + [`bench`](mod@bench) — a seeded
//!   property-test harness (N random cases, input minimization on
//!   failure) and a micro-bench timer. Replace `proptest` and `criterion`
//!   for the suites in `crates/*/tests` and `crates/bench/benches`.
//! * [`alloc_track`] — a counting global allocator for the
//!   allocation-freedom and peak-memory regression tests (event count +
//!   live-bytes high-water mark; test binaries install it themselves).
//! * [`json`] — the one JSON codec (value type, compact writer, strict
//!   parser) every machine-readable record is built and read with.
//! * [`jsonl`] — the shared line-atomic JSONL append writer behind both
//!   machine-readable hooks (`UMSC_BENCH_JSON` bench trajectories and
//!   `umsc-obs`'s `UMSC_TRACE_JSON` solver traces).

pub mod alloc_track;
pub mod bench;
pub mod check;
pub mod json;
pub mod jsonl;
pub mod par;
pub mod rng;

pub use check::{check, Config, Shrink};
pub use rng::{Rng, SplitMix64};
