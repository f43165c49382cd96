//! Content catalogs for the experiments.
//!
//! §5: "We loaded the system with 64 different files, each 1 hour in
//! length. These files were filled with a test pattern … the test files
//! completely filled the available 2 Mbit/s bandwidth."

use tiger_core::TigerSystem;
use tiger_layout::FileId;
use tiger_sim::{Bandwidth, SimDuration};

/// Description of a synthetic content catalog.
#[derive(Clone, Copy, Debug)]
pub struct CatalogSpec {
    /// Number of files.
    pub files: u32,
    /// Duration of each file.
    pub duration: SimDuration,
    /// Bitrate of each file (full-rate test pattern by default).
    pub bitrate: Bandwidth,
}

impl CatalogSpec {
    /// The §5 catalog: 64 × 1 hour at 2 Mbit/s.
    pub fn sosp97() -> Self {
        CatalogSpec {
            files: 64,
            duration: SimDuration::from_secs(3600),
            bitrate: Bandwidth::from_mbit_per_sec(2),
        }
    }

    /// A smaller catalog for fast experiments: enough play time to cover
    /// `experiment` plus margin so viewers never hit end-of-file.
    pub fn sized_for(experiment: SimDuration, files: u32) -> Self {
        CatalogSpec {
            files,
            duration: experiment + SimDuration::from_secs(120),
            bitrate: Bandwidth::from_mbit_per_sec(2),
        }
    }
}

/// Loads the catalog into a system; returns the file ids.
pub fn populate_catalog(sys: &mut TigerSystem, spec: &CatalogSpec) -> Vec<FileId> {
    (0..spec.files)
        .map(|_| sys.add_file(spec.bitrate, spec.duration))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiger_core::TigerConfig;

    #[test]
    fn populates_files() {
        let mut sys = TigerSystem::new(TigerConfig::small_test());
        let spec = CatalogSpec::sized_for(SimDuration::from_secs(10), 4);
        let files = populate_catalog(&mut sys, &spec);
        assert_eq!(files.len(), 4);
        assert_eq!(sys.world().catalog.len(), 4);
    }
}
