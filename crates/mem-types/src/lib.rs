//! Base memory vocabulary shared by every crate in the Squeezy workspace.
//!
//! This crate defines the page/block geometry of the simulated machine
//! (4 KiB base pages, 128 MiB hot(un)plug memory blocks — the x86-64 Linux
//! defaults the paper uses), strongly-typed frame numbers, byte-size
//! helpers, frame ranges and a packed bitmap.
//!
//! Everything here is `no_std`-shaped plain data: no allocation policy, no
//! simulation state. It exists so that the guest memory manager, the
//! devices and the VMM all speak the same units without casting bugs.

pub mod bitmap;
pub mod range;
pub mod size;

pub use bitmap::Bitmap;
pub use range::FrameRange;
pub use size::ByteSize;

/// Base page size: 4 KiB, the x86-64 base page the paper's kernel uses.
pub const PAGE_SIZE: u64 = 4 * 1024;

/// Shift for [`PAGE_SIZE`] (`1 << PAGE_SHIFT == PAGE_SIZE`).
pub const PAGE_SHIFT: u32 = 12;

/// Memory hot(un)plug block size: 128 MiB, the x86-64 Linux
/// `memory_block_size_bytes()` default (§2.2 of the paper).
pub const MEM_BLOCK_SIZE: u64 = 128 * 1024 * 1024;

/// Pages per 128 MiB memory block.
pub const PAGES_PER_BLOCK: u64 = MEM_BLOCK_SIZE / PAGE_SIZE;

/// One kibibyte in bytes.
pub const KIB: u64 = 1024;
/// One mebibyte in bytes.
pub const MIB: u64 = 1024 * KIB;
/// One gibibyte in bytes.
pub const GIB: u64 = 1024 * MIB;

/// A guest page-frame number (an index into guest physical memory).
///
/// Guest frames are what the guest buddy allocator hands out and what
/// memory blocks are made of. The VMM maps them to host frames lazily.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Gfn(pub u64);

impl Gfn {
    /// Returns the memory block this frame belongs to.
    #[inline]
    pub const fn block(self) -> BlockId {
        BlockId(self.0 / PAGES_PER_BLOCK)
    }
}

/// A host page-frame number (an index into host physical memory).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Hfn(pub u64);

/// Identifier of a 128 MiB hot(un)pluggable memory block.
///
/// Block `b` covers guest frames `[b * PAGES_PER_BLOCK, (b + 1) *
/// PAGES_PER_BLOCK)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct BlockId(pub u64);

impl BlockId {
    /// Returns the first guest frame of this block.
    #[inline]
    pub const fn first_frame(self) -> Gfn {
        Gfn(self.0 * PAGES_PER_BLOCK)
    }

    /// Returns the frame range `[first, first + PAGES_PER_BLOCK)` covered
    /// by this block.
    #[inline]
    pub const fn frames(self) -> FrameRange {
        FrameRange {
            start: Gfn(self.0 * PAGES_PER_BLOCK),
            count: PAGES_PER_BLOCK,
        }
    }
}

/// Converts a byte count to pages, asserting page alignment.
///
/// # Panics
///
/// Panics if `bytes` is not a multiple of [`PAGE_SIZE`].
#[inline]
pub fn bytes_to_pages(bytes: u64) -> u64 {
    assert!(
        bytes.is_multiple_of(PAGE_SIZE),
        "byte count {bytes} not page-aligned"
    );
    bytes / PAGE_SIZE
}

/// Converts a byte count to pages, rounding up to the next whole page.
#[inline]
pub const fn bytes_to_pages_ceil(bytes: u64) -> u64 {
    bytes.div_ceil(PAGE_SIZE)
}

/// Converts a byte count to 128 MiB blocks, asserting block alignment.
///
/// # Panics
///
/// Panics if `bytes` is not a multiple of [`MEM_BLOCK_SIZE`].
#[inline]
pub fn bytes_to_blocks(bytes: u64) -> u64 {
    assert!(
        bytes.is_multiple_of(MEM_BLOCK_SIZE),
        "byte count {bytes} not block-aligned"
    );
    bytes / MEM_BLOCK_SIZE
}

/// Rounds `bytes` up to the next multiple of [`MEM_BLOCK_SIZE`].
#[inline]
pub const fn align_up_to_block(bytes: u64) -> u64 {
    bytes.div_ceil(MEM_BLOCK_SIZE) * MEM_BLOCK_SIZE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_constants_are_consistent() {
        assert_eq!(1u64 << PAGE_SHIFT, PAGE_SIZE);
        assert_eq!(PAGES_PER_BLOCK, 32 * 1024);
        assert_eq!(MEM_BLOCK_SIZE, 128 * MIB);
    }

    #[test]
    fn gfn_block_mapping() {
        assert_eq!(Gfn(0).block(), BlockId(0));
        assert_eq!(Gfn(PAGES_PER_BLOCK - 1).block(), BlockId(0));
        assert_eq!(Gfn(PAGES_PER_BLOCK).block(), BlockId(1));
    }

    #[test]
    fn block_frames_cover_whole_block() {
        let b = BlockId(3);
        let r = b.frames();
        assert_eq!(r.start, Gfn(3 * PAGES_PER_BLOCK));
        assert_eq!(r.count, PAGES_PER_BLOCK);
    }

    #[test]
    fn bytes_to_pages_exact_and_ceil() {
        assert_eq!(bytes_to_pages(8192), 2);
        assert_eq!(bytes_to_pages_ceil(1), 1);
        assert_eq!(bytes_to_pages_ceil(4096), 1);
        assert_eq!(bytes_to_pages_ceil(4097), 2);
        assert_eq!(bytes_to_pages_ceil(0), 0);
    }

    #[test]
    #[should_panic(expected = "not page-aligned")]
    fn bytes_to_pages_rejects_unaligned() {
        bytes_to_pages(100);
    }

    #[test]
    fn block_alignment_helpers() {
        assert_eq!(bytes_to_blocks(256 * MIB), 2);
        assert_eq!(align_up_to_block(1), MEM_BLOCK_SIZE);
        assert_eq!(align_up_to_block(MEM_BLOCK_SIZE), MEM_BLOCK_SIZE);
        assert_eq!(align_up_to_block(MEM_BLOCK_SIZE + 1), 2 * MEM_BLOCK_SIZE);
    }

    #[test]
    #[should_panic(expected = "not block-aligned")]
    fn bytes_to_blocks_rejects_unaligned() {
        bytes_to_blocks(MIB);
    }
}
