//! Spares as interim mirror capacity (the spare shield of Recovery v2).
//!
//! When a cub is declared failed, the decluster spans shadowing its disks
//! become the system's most exposed data: the failed cub's primaries are
//! now served from single surviving mirror pieces, and one more holder
//! failure loses them outright until a restripe cut-over rebuilds full
//! redundancy. A provisioned spare is powered, idle, and has empty
//! secondary regions — so, while the cut-over is pending, the shield
//! background-copies those mirror pieces onto a spare through the
//! [`crate::copy`] pipeline's shield lane (the campaign is planned in
//! [`crate::reconfig`]). Once every block of a `(failed disk, piece)` span
//! has landed, the span is *ready* and is recorded in the [`ShieldMap`]:
//! the cover path routes records for dead holders to the spare, which
//! serves them from its own copies. The shield evaporates at the next
//! restripe cut-over, when `relay_secondaries` rebuilds permanent
//! redundancy for the new geometry.

use std::collections::{HashMap, HashSet};

use tiger_layout::{CubId, DiskId};

/// Which spare serves which exposed decluster span, consulted by the
/// cover path when a mirror piece's normal holder is dead.
#[derive(Debug, Default)]
pub struct ShieldMap {
    /// `(failed home disk, piece)` → the spare whose copies of that span
    /// have all landed.
    ready: HashMap<(u32, u32), CubId>,
    /// Spares holding at least one ready span (they get a narrow
    /// data-path allowance despite being marked `failed`).
    serving: HashSet<u32>,
}

impl ShieldMap {
    /// The spare serving `(failed_disk, piece)`, if that span's copies
    /// have all landed.
    pub fn serving_spare(&self, failed_disk: DiskId, piece: u32) -> Option<CubId> {
        self.ready.get(&(failed_disk.raw(), piece)).copied()
    }

    /// Whether `cub` is a spare with at least one ready span.
    pub fn is_serving_spare(&self, cub: CubId) -> bool {
        self.serving.contains(&cub.raw())
    }

    /// Marks a span ready on `spare`.
    pub(crate) fn mark_ready(&mut self, home: DiskId, piece: u32, spare: CubId) {
        self.ready.insert((home.raw(), piece), spare);
        self.serving.insert(spare.raw());
    }

    /// Evaporates the shield (restripe cut-over: the permanent mirror
    /// layout has absorbed the exposure).
    pub(crate) fn clear(&mut self) {
        self.ready.clear();
        self.serving.clear();
    }
}
