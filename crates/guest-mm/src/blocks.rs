//! The 128 MiB memory-block hot(un)plug state machine.
//!
//! Linux adds and removes memory in block granularity (§2.2): hot-add
//! makes a block known, online hands its pages to the buddy, offline
//! retracts them (migrating occupied pages away) and hot-remove forgets
//! the block. The simulator's memmap holds a block's descriptors only
//! while it is online. [`BlockTable`] tracks each block's lifecycle state plus
//! per-block occupancy counters that the unplug paths consult when
//! choosing eviction candidates.

use mem_types::{BlockId, PAGES_PER_BLOCK};

/// Lifecycle state of one 128 MiB memory block.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BlockState {
    /// Not hot-added: no memmap, invisible to the guest kernel.
    Absent,
    /// Hot-added but offline: not usable by the buddy.
    AddedOffline,
    /// Onlined into zone `zone`: pages live in that zone's buddy.
    Online {
        /// The zone the block's pages were released to.
        zone: u8,
    },
}

/// Per-block occupancy counters, maintained incrementally by `GuestMm`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockCounters {
    /// Pages in buddy free lists.
    pub free: u32,
    /// Movable used pages (anonymous + page cache).
    pub used_movable: u32,
    /// Unmovable used pages (kernel allocations) — these pin the block.
    pub used_unmovable: u32,
    /// Pages isolated by an in-progress offline operation.
    pub isolated: u32,
}

impl BlockCounters {
    /// Total accounted pages; equals `PAGES_PER_BLOCK` while online.
    pub(crate) fn total(&self) -> u64 {
        self.free as u64
            + self.used_movable as u64
            + self.used_unmovable as u64
            + self.isolated as u64
    }
}

/// State and counters for every block in the guest address space.
pub struct BlockTable {
    states: Vec<BlockState>,
    counters: Vec<BlockCounters>,
}

impl BlockTable {
    /// Creates a table of `n` absent blocks.
    pub(crate) fn new(n: u64) -> Self {
        BlockTable {
            states: vec![BlockState::Absent; n as usize],
            counters: vec![BlockCounters::default(); n as usize],
        }
    }

    /// Returns the number of blocks tracked.
    pub fn len(&self) -> u64 {
        self.states.len() as u64
    }

    /// Returns `true` if the table tracks zero blocks.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Returns the state of `b`.
    pub fn state(&self, b: BlockId) -> BlockState {
        self.states[b.0 as usize]
    }

    /// Sets the state of `b`.
    pub(crate) fn set_state(&mut self, b: BlockId, s: BlockState) {
        self.states[b.0 as usize] = s;
    }

    /// Returns the counters of `b`.
    pub fn counters(&self, b: BlockId) -> &BlockCounters {
        &self.counters[b.0 as usize]
    }

    /// Returns the mutable counters of `b`.
    pub(crate) fn counters_mut(&mut self, b: BlockId) -> &mut BlockCounters {
        &mut self.counters[b.0 as usize]
    }

    /// Resets the counters of `b` to all-zero.
    pub(crate) fn reset_counters(&mut self, b: BlockId) {
        self.counters[b.0 as usize] = BlockCounters::default();
    }

    /// Marks `b` online in `zone` with all pages free.
    pub(crate) fn mark_online(&mut self, b: BlockId, zone: u8) {
        self.set_state(b, BlockState::Online { zone });
        self.counters[b.0 as usize] = BlockCounters {
            free: PAGES_PER_BLOCK as u32,
            ..BlockCounters::default()
        };
    }

    /// Iterates over blocks online in `zone`.
    pub(crate) fn online_in_zone(&self, zone: u8) -> impl Iterator<Item = BlockId> + '_ {
        self.states
            .iter()
            .enumerate()
            .filter_map(move |(i, s)| match s {
                BlockState::Online { zone: z } if *z == zone => Some(BlockId(i as u64)),
                _ => None,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_table_all_absent() {
        let t = BlockTable::new(8);
        assert_eq!(t.len(), 8);
        for i in 0..8 {
            assert_eq!(t.state(BlockId(i)), BlockState::Absent);
        }
    }

    #[test]
    fn mark_online_sets_counters() {
        let mut t = BlockTable::new(4);
        t.mark_online(BlockId(2), 1);
        assert_eq!(t.state(BlockId(2)), BlockState::Online { zone: 1 });
        assert_eq!(t.counters(BlockId(2)).free as u64, PAGES_PER_BLOCK);
        assert_eq!(t.counters(BlockId(2)).total(), PAGES_PER_BLOCK);
    }

    #[test]
    fn online_in_zone_filters() {
        let mut t = BlockTable::new(5);
        t.mark_online(BlockId(0), 1);
        t.mark_online(BlockId(2), 1);
        t.mark_online(BlockId(3), 2);
        let zone1: Vec<_> = t.online_in_zone(1).collect();
        assert_eq!(zone1, vec![BlockId(0), BlockId(2)]);
        let zone2: Vec<_> = t.online_in_zone(2).collect();
        assert_eq!(zone2, vec![BlockId(3)]);
    }

    #[test]
    fn counter_updates() {
        let mut t = BlockTable::new(1);
        t.mark_online(BlockId(0), 0);
        let c = t.counters_mut(BlockId(0));
        c.free -= 10;
        c.used_movable += 10;
        assert_eq!(t.counters(BlockId(0)).total(), PAGES_PER_BLOCK);
        t.reset_counters(BlockId(0));
        assert_eq!(t.counters(BlockId(0)).total(), 0);
    }
}
