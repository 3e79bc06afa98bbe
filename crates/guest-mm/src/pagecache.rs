//! The guest page cache: file-backed pages shared across processes.
//!
//! In the N:1 model, container root file systems and runtime dependencies
//! are "instantiated once in memory and mapped multiple times" (§3). The
//! page cache holds those pages; Squeezy later redirects them into the
//! shared partition so private partitions stay instantly reclaimable.

use crate::runs::RunList;

/// Identifier of a cached file (rootfs layer, runtime library, model…).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FileId(pub u32);

/// Pages cached for one file, held as ordered frame runs.
///
/// `PageDesc.b` of each page names its run, so migration patches the
/// cache a run at a time.
#[derive(Default)]
pub struct CachedFile {
    /// Resident pages of the file, in fault order.
    pub(crate) pages: RunList,
    /// How many processes currently map the file (informational).
    pub mappers: u32,
}

impl CachedFile {
    /// Returns the number of resident pages.
    pub(crate) fn resident_pages(&self) -> u64 {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem_types::Gfn;

    #[test]
    fn cached_file_counts() {
        let mut f = CachedFile::default();
        assert_eq!(f.resident_pages(), 0);
        f.pages.append(Gfn(1), 1);
        f.pages.append(Gfn(2), 1);
        assert_eq!(f.resident_pages(), 2);
    }
}
