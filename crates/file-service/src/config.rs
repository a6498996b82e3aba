//! The tunables a file service is formatted with.

use crate::cache::WritePolicy;
use crate::lease::LeaseParams;
use crate::parity::Redundancy;
use crate::stripe::StripePolicy;

/// Tunables for one file service. The fragment pool's capacity is not
/// among them: nothing ever set it, so it is the constant
/// `FIT_POOL_ENTRIES`.
#[derive(Debug, Clone, Copy)]
pub struct FileServiceConfig {
    /// Capacity of the block pool (0 disables server-side data caching —
    /// the Bullet-server baseline of experiment E8).
    pub cache_blocks: usize,
    /// Shards the block pool is striped over (lock-contention isolation,
    /// E20). `1` reproduces the single-segment pool exactly — the E20
    /// ablation arm. Clamped to `cache_blocks` so every shard holds at
    /// least one block.
    pub cache_shards: usize,
    /// Modification policy for cached data.
    pub write_policy: WritePolicy,
    /// Placement of blocks across disks.
    pub stripe: StripePolicy,
    /// Allocate the FIT contiguous with the first data block ("the file
    /// index table and at least the first data block are always
    /// contiguous thus eliminating the seek time to retrieve the first
    /// data block", §5). Disable only for the ablation experiment.
    pub fit_adjacent_first_block: bool,
    /// How striped windows and coalesced flushes reach the spindles (see
    /// [`ParallelIo`]).
    pub parallel_io: ParallelIo,
    /// Lease term for client cache delegations (see
    /// [`LeaseManager`](crate::LeaseManager)).
    pub lease: LeaseParams,
    /// Intra-service redundancy: [`Redundancy::Parity`] turns the
    /// stripe layer into k-data + m-parity erasure-coded rows (RAID-5
    /// for `m = 1`, RAID-6 for `m = 2`) with rotating parity placement.
    /// Overrides `stripe` for data placement. Requires `k + m` disks.
    pub redundancy: Redundancy,
}

/// How striped windows and coalesced flushes are issued to the per-spindle
/// schedulers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParallelIo {
    /// One batch per spindle through the schedulers — elevator ordering
    /// and run merging — issued back-to-back on the caller's thread. The
    /// spindles' parallelism is virtual time: the batches run under
    /// makespan clock accounting.
    #[default]
    Auto,
    /// The pre-scheduler baseline of experiments E13/E15: blocks are
    /// fetched one at a time and written back in sorted order with only
    /// same-file consecutive runs grouped; the simulated clock advances by
    /// the *sum* of per-operation costs.
    Never,
}

impl Default for FileServiceConfig {
    fn default() -> Self {
        Self {
            cache_blocks: 128,
            cache_shards: 8,
            write_policy: WritePolicy::DelayedWrite,
            stripe: StripePolicy::SingleDisk,
            fit_adjacent_first_block: true,
            parallel_io: ParallelIo::Auto,
            lease: LeaseParams::default(),
            redundancy: Redundancy::None,
        }
    }
}
