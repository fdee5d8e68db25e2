//! NPU memory-management unit: TLBs and page-table walkers.
//!
//! NPUs use virtually-addressed scratchpads, so *every* DRAM transaction
//! needs an address translation, and a tile fill touches thousands of pages
//! in a burst. Following NeuMMU (the design the paper adopts), this crate
//! models:
//!
//! * a set-associative, LRU [`Tlb`] per core — or one shared TLB whose
//!   capacity is the sum of the per-core capacities (the paper's `+DWT`);
//! * one pool of page-table walkers ([`WalkerPool`]) under one rule: core
//!   *c* is guaranteed `min[c]` walkers and may hold at most `max[c]`.
//!   Private walkers and static partitions (Figs. 13/14) are `min = max`,
//!   the dynamically shared pool (`+DW`) is `min = 0, max = total`, and
//!   the original's PTW bounds lie in between;
//! * multi-level radix walks whose per-level accesses are real DRAM reads
//!   (issued by the engine), so walk bandwidth and data bandwidth contend —
//!   4 levels for 4 KB pages, 3 for 64 KB, 2 for 1 MB (the ARM64-style page
//!   sizes of the paper's §4.5);
//! * walk coalescing: concurrent misses on one page join the in-flight walk
//!   instead of consuming another walker.
//!
//! The MMU is a *timing* model: the virtual→physical mapping itself lives in
//! the engine's page-table allocator; this crate decides hits, misses, walk
//! structure and walker occupancy.
//!
//! # Example
//!
//! ```
//! use mnpu_mmu::{Mmu, MmuConfig, WalkStart, WalkStep, WalkerPool};
//!
//! // Two cores with private TLBs and 8 private walkers each.
//! let walkers = WalkerPool::new(16, vec![8, 8], vec![8, 8]);
//! let mut mmu = Mmu::new(MmuConfig::neummu(4096), false, walkers, &[0x1000_0000, 0x2000_0000]);
//! let vpn = 42;
//! assert!(!mmu.lookup(0, vpn)); // cold miss
//! let WalkStart::Started { walk, pt_addr } = mmu.start_or_join_walk(0, vpn) else {
//!     panic!("walker available")
//! };
//! let mut addr = pt_addr;
//! loop {
//!     // (engine reads `addr` through DRAM here)
//!     match mmu.advance_walk(walk) {
//!         mnpu_mmu::WalkStep::Access(next) => addr = next,
//!         mnpu_mmu::WalkStep::Done { .. } => break,
//!     }
//! }
//! let _ = addr;
//! assert!(mmu.lookup(0, vpn)); // filled
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod fxhash;
mod mmu;
mod tlb;
mod walker;

pub use config::{walk_levels_for, MmuConfig, PtwBounds};
pub use fxhash::{FxHashMap, FxHashSet, FxHasher};
pub use mmu::{Mmu, MmuStats, WalkId, WalkStart, WalkStep};
pub use tlb::Tlb;
pub use walker::WalkerPool;
