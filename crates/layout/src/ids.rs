//! Identifier newtypes shared across the Tiger reproduction.
//!
//! These are deliberately plain `u32`/`u64` wrappers: they exist to stop a
//! disk number from being passed where a cub number is expected, which is a
//! real hazard in a codebase where both advance around the same ring.

use std::fmt;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $raw:ty, $prefix:literal) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub $raw);

        impl $name {
            /// The raw numeric value.
            pub const fn raw(self) -> $raw {
                self.0
            }

            /// The value as a `usize` for indexing.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Debug::fmt(self, f)
            }
        }

        impl From<$raw> for $name {
            fn from(v: $raw) -> Self {
                $name(v)
            }
        }
    };
}

id_type!(
    /// A disk, numbered in cub-minor order across the whole system (§2.2).
    DiskId, u32, "disk"
);
id_type!(
    /// A cub (content machine).
    CubId, u32, "cub"
);
id_type!(
    /// A content file.
    FileId, u32, "file"
);
id_type!(
    /// A block number within a file (block 0 is the first block).
    BlockNum, u32, "blk"
);
id_type!(
    /// A viewer (client stream). Each *instance* of a play request gets a
    /// distinct viewer instance number; see
    /// [`crate::ids::ViewerInstance`].
    ViewerId, u64, "viewer"
);

/// A specific play-request instance of a viewer.
///
/// §4.1.2: the semantics of a deschedule are "if this *instance* of viewer
/// is in this schedule slot, remove the viewer" — a viewer that stops and
/// immediately restarts must not have its new schedule entry killed by the
/// old deschedule, so the instance number participates in matching.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ViewerInstance {
    /// The viewer.
    pub viewer: ViewerId,
    /// Monotonic per-viewer play-request number.
    pub incarnation: u32,
}

/// What a cub's slot-indexed tables summarise a slot by: the viewer id's
/// low word, which an instance shares with its other incarnations.
impl tiger_sim::Tagged for ViewerInstance {
    fn tag(&self) -> u32 {
        self.viewer.0 as u32
    }
}

impl ViewerInstance {
    /// The viewer's next play request: what a resume, a seek or a restripe
    /// cut-over re-inserts, so deschedules of this instance cannot kill it.
    pub fn next_incarnation(self) -> Self {
        ViewerInstance {
            viewer: self.viewer,
            incarnation: self.incarnation + 1,
        }
    }
}

impl fmt::Display for ViewerInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.viewer, self.incarnation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_format_with_prefixes() {
        assert_eq!(format!("{}", DiskId(3)), "disk3");
        assert_eq!(format!("{}", CubId(0)), "cub0");
        assert_eq!(format!("{:?}", FileId(12)), "file12");
        assert_eq!(
            format!(
                "{}",
                ViewerInstance {
                    viewer: ViewerId(5),
                    incarnation: 2
                }
            ),
            "viewer5#2"
        );
    }

    #[test]
    fn ids_are_ordered_and_indexable() {
        assert!(DiskId(1) < DiskId(2));
        assert_eq!(DiskId(7).index(), 7usize);
        assert_eq!(BlockNum::from(9u32).raw(), 9);
    }

    #[test]
    fn viewer_instances_distinguish_incarnations() {
        let a = ViewerInstance {
            viewer: ViewerId(1),
            incarnation: 0,
        };
        let b = ViewerInstance {
            viewer: ViewerId(1),
            incarnation: 1,
        };
        assert_ne!(a, b);
    }
}
