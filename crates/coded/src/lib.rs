//! `tiger-coded`: a network-coded secondary-storage backend for the
//! Tiger reproduction.
//!
//! The paper's Tiger mirrors every block (§2.3); *Scheduling Advantages
//! of Network Coded Storage in Point-to-Multipoint Networks* (Ferner et
//! al., see PAPERS.md) predicts that replacing the mirror copy with an
//! MDS code shrinks blocking probability in correlated-demand regimes,
//! because a degraded or overloaded read can be served from *any* `k`
//! surviving pieces instead of the one disk holding the right mirror
//! piece. This crate supplies the coding machinery and placement; the
//! scheduling integration is the coded variant of `tiger-core`'s
//! redundancy `Backend`.
//!
//! - [`gf256`]: GF(2⁸) arithmetic with compile-time exp/log tables.
//! - [`rs::ReedSolomon`]: a systematic any-`k`-of-`n` erasure code.
//! - [`CodedPlacement`]: `2k` ring-declustered shards per block at the
//!   same `2×` storage cost as declustered mirroring, tolerating any
//!   `k` simultaneous disk failures.
//!
//! Everything is pure and deterministic — there is no RNG anywhere in
//! this crate — so coded runs stay bit-identical at any fleet thread
//! count.

pub mod gf256;
pub mod placement;
pub mod rs;

pub use placement::CodedPlacement;
pub use rs::{CodeError, ReedSolomon};
