//! Squeezy partitions: fixed-size, per-instance chunks of guest memory.
//!
//! A partition is the unit of Squeezy's elasticity (§3): it is sized to
//! the function's user-defined memory limit, implemented as a dedicated
//! zone, populated by plug events and reclaimed whole — with zero page
//! migrations — when its instance terminates.

use mem_types::BlockId;

/// Identifier of a Squeezy partition within one VM.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PartitionId(pub u32);

/// Lifecycle state of a partition.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PartitionState {
    /// Created at boot but not backed: its blocks are unplugged and its
    /// zone holds no pages ("The N Squeezy partitions are initially
    /// empty", §4.1).
    Unpopulated,
    /// Populated by a plug event and waiting for an instance.
    Free,
    /// Assigned to one or more processes (`users` tracks them).
    Assigned,
    /// Assigned but designated *soft* by an idle keep-alive instance
    /// (§7): the hypervisor may revoke it under memory pressure, and the
    /// instance rebuilds its state on the next invocation.
    Soft,
    /// Revoked while soft: unplugged, but still attached to its
    /// processes, which must re-plug before touching memory again.
    Revoked,
}

/// One Squeezy partition.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Partition id (stable, assigned at boot).
    pub id: PartitionId,
    /// The guest zone implementing this partition.
    pub zone: u8,
    /// The 128 MiB blocks spanning the partition.
    pub blocks: Vec<BlockId>,
    /// Lifecycle state.
    pub state: PartitionState,
    /// `partition_users` refcount: number of processes (original process
    /// plus `fork()` children) attached (§4.1 "Handling fork()").
    pub users: u32,
}

impl Partition {
    /// Returns the partition size in bytes.
    pub fn bytes(&self) -> u64 {
        self.blocks.len() as u64 * mem_types::MEM_BLOCK_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_size_follows_blocks() {
        let p = Partition {
            id: PartitionId(0),
            zone: 3,
            blocks: vec![BlockId(10), BlockId(11), BlockId(12)],
            state: PartitionState::Unpopulated,
            users: 0,
        };
        assert_eq!(p.bytes(), 3 * mem_types::MEM_BLOCK_SIZE);
    }
}
