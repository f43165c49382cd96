//! File data layout for the Tiger reproduction (paper §2.2–§2.3).
//!
//! Every Tiger file is striped across every disk and every cub. Disks are
//! numbered in *cub-minor* order (disk 0 on cub 0, disk 1 on cub 1, …), a
//! file's blocks advance one disk per block, and each block's mirror copy is
//! declustered into `decluster` pieces stored on the disks immediately
//! following the primary. This crate implements that layout as pure,
//! exhaustively-tested functions, plus the per-cub in-memory block index
//! (§4.1.1), the primary/secondary disk-region allocator (§2.3's
//! outer-track optimization), the arithmetic that lays a file into both
//! a run at a time, and the restriper (§2.2).

pub mod catalog;
pub mod ids;
pub mod index;
pub mod lay;
pub mod mirror;
pub mod redundancy;
pub mod restripe;
pub mod space;
pub mod stripe;

pub use catalog::{FileCatalog, FileMeta};
pub use ids::{BlockNum, CubId, DiskId, FileId, ViewerId};
pub use index::{BlockIndex, IndexEntry, IndexError};
pub use lay::{BlockRun, LayError, Piece};
pub use mirror::{MirrorPiece, MirrorPlacement};
pub use redundancy::RedundancyMode;
pub use restripe::{RestripePlan, RestripeStats};
pub use space::{DiskRegion, DiskSpace, SpaceError};
pub use stripe::{BlockLocation, StripeConfig};
