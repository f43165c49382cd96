//! Per-disk space management: primary and secondary regions (paper §2.3).
//!
//! "Primaries are stored on the faster portion of a disk, and secondaries
//! are stored on the slower part." A disk is split at a configurable
//! fraction (half by default): extents allocated in the primary region grow
//! from offset 0 (the fast outer tracks), and extents in the secondary
//! region grow from the split point (the slow inner tracks).
//!
//! Tiger stores each block contiguously "in order to minimize seeks and to
//! have predictable block read performance", so allocation is a simple bump
//! allocator per region — there is no free-list because content is only
//! removed wholesale (restripe or file delete, which rewrites the disk).

use std::fmt;

use tiger_sim::ByteSize;

/// Alignment granule for extents, matching the 64-byte length unit of the
/// packed index entries.
pub const EXTENT_ALIGN: u64 = 64;

/// `size` rounded up to the extent granule: what an extent of `size`
/// bytes takes of its region.
pub(crate) fn aligned(size: ByteSize) -> ByteSize {
    ByteSize::from_bytes(size.as_bytes().div_ceil(EXTENT_ALIGN) * EXTENT_ALIGN)
}

/// Which region of the disk an extent is placed in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DiskRegion {
    /// The fast (outer-track) half: primary copies.
    Primary,
    /// The slow (inner-track) half: declustered mirror pieces.
    Secondary,
}

/// Errors from space allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpaceError {
    /// The region has no room for the requested extent.
    RegionFull {
        /// The region that overflowed.
        region: DiskRegion,
        /// Bytes requested (after alignment).
        requested: u64,
        /// Bytes remaining in the region.
        available: u64,
    },
}

impl fmt::Display for SpaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpaceError::RegionFull {
                region,
                requested,
                available,
            } => write!(
                f,
                "{region:?} region full: requested {requested} bytes, {available} available"
            ),
        }
    }
}

impl std::error::Error for SpaceError {}

/// Bump allocator over one disk's primary and secondary regions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiskSpace {
    capacity: ByteSize,
    split: u64,
    primary_next: u64,
    secondary_next: u64,
}

impl DiskSpace {
    /// Creates an allocator for a disk of `capacity` bytes, with the
    /// primary region occupying the first `primary_fraction` of the disk.
    ///
    /// # Panics
    ///
    /// Panics if `primary_fraction` is not in `(0, 1)` or capacity is zero.
    pub fn new(capacity: ByteSize, primary_fraction: f64) -> Self {
        assert!(capacity.as_bytes() > 0, "disk capacity must be nonzero");
        assert!(
            primary_fraction > 0.0 && primary_fraction < 1.0,
            "primary fraction must be in (0, 1)"
        );
        let split_unaligned = (capacity.as_bytes() as f64 * primary_fraction) as u64;
        let split = split_unaligned - split_unaligned % EXTENT_ALIGN;
        DiskSpace {
            capacity,
            split,
            primary_next: 0,
            secondary_next: split,
        }
    }

    /// Creates the standard half-and-half split (§2.3).
    pub fn half_split(capacity: ByteSize) -> Self {
        Self::new(capacity, 0.5)
    }

    /// The disk's total capacity.
    pub fn capacity(&self) -> ByteSize {
        self.capacity
    }

    /// Where `region`'s next extent would start: its bump position.
    pub fn next(&self, region: DiskRegion) -> u64 {
        match region {
            DiskRegion::Primary => self.primary_next,
            DiskRegion::Secondary => self.secondary_next,
        }
    }

    /// Allocates an extent of at least `size` bytes (rounded up to the
    /// 64-byte granule) in `region`, returning `(offset, aligned_size)`.
    pub fn allocate(
        &mut self,
        region: DiskRegion,
        size: ByteSize,
    ) -> Result<(u64, ByteSize), SpaceError> {
        let aligned = aligned(size).as_bytes();
        let (next, limit) = match region {
            DiskRegion::Primary => (&mut self.primary_next, self.split),
            DiskRegion::Secondary => (&mut self.secondary_next, self.capacity.as_bytes()),
        };
        let available = limit - *next;
        if aligned > available {
            return Err(SpaceError::RegionFull {
                region,
                requested: aligned,
                available,
            });
        }
        let offset = *next;
        *next += aligned;
        Ok((offset, ByteSize::from_bytes(aligned)))
    }

    /// Releases only the secondary region (live-restripe cut-over: mirror
    /// pieces are re-laid for the new placement while the primary region —
    /// whose extents moved-away blocks leak by design in a bump allocator —
    /// keeps growing until an offline rewrite reclaims it).
    pub fn clear_secondary(&mut self) {
        self.secondary_next = self.split;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_grow_from_their_origins() {
        let mut s = DiskSpace::half_split(ByteSize::from_bytes(1_000_000));
        let (p0, _) = s
            .allocate(DiskRegion::Primary, ByteSize::from_bytes(100))
            .expect("fits");
        let (p1, _) = s
            .allocate(DiskRegion::Primary, ByteSize::from_bytes(100))
            .expect("fits");
        let (s0, _) = s
            .allocate(DiskRegion::Secondary, ByteSize::from_bytes(100))
            .expect("fits");
        assert_eq!(p0, 0);
        assert_eq!(p1, 128); // 100 rounds up to 128.
        assert_eq!(s0, 499_968); // The half-way split, aligned down.
    }

    #[test]
    fn allocation_is_aligned() {
        let mut s = DiskSpace::half_split(ByteSize::from_bytes(1_000_000));
        // 250,000 (a 2 Mbit/s 1 s block) rounds up to a 64-byte multiple.
        let (_, sz) = s
            .allocate(DiskRegion::Primary, ByteSize::from_bytes(250_000))
            .expect("fits");
        assert_eq!(sz.as_bytes() % EXTENT_ALIGN, 0);
        assert!(sz.as_bytes() >= 250_000 && sz.as_bytes() < 250_000 + EXTENT_ALIGN);
    }

    #[test]
    fn regions_overflow_independently() {
        let mut s = DiskSpace::half_split(ByteSize::from_bytes(1_024));
        // Primary region is 512 bytes.
        s.allocate(DiskRegion::Primary, ByteSize::from_bytes(512))
            .expect("fits");
        let err = s
            .allocate(DiskRegion::Primary, ByteSize::from_bytes(64))
            .expect_err("primary is full");
        assert!(matches!(
            err,
            SpaceError::RegionFull {
                region: DiskRegion::Primary,
                ..
            }
        ));
        // Secondary still has room.
        s.allocate(DiskRegion::Secondary, ByteSize::from_bytes(512))
            .expect("fits");
    }

    #[test]
    fn custom_split_fraction() {
        // Decluster 4: at most 1/(4+1) of reads come from the slow region,
        // so a system could bias the split; verify the knob works.
        let mut s = DiskSpace::new(ByteSize::from_bytes(100_000), 0.8);
        let (split, _) = s
            .allocate(DiskRegion::Secondary, ByteSize::from_bytes(1))
            .expect("fits");
        assert!((79_936..=80_000).contains(&split));
        assert_eq!(split % EXTENT_ALIGN, 0);
    }
}
