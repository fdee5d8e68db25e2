//! Event-driven, command-level DRAM simulator — the `mnpu-dram` substrate.
//!
//! This crate replaces DRAMsim3 in the original mNPUsim: it models the
//! non-deterministic, contention-dependent latency of off-chip memory that
//! the paper's whole study rests on. The model is *command-level*: every
//! transaction is decomposed into (optional) PRE/ACT plus a CAS whose issue
//! time honors the JEDEC-style constraints of the configured device —
//! CL/CWL, tRCD, tRP, tRAS, tCCD_S/L (bank-group aware), tRRD_S/L, tFAW,
//! tWR, tWTR, read/write bus turnaround, and all-bank refresh
//! (tREFI/tRFC). Scheduling is FR-FCFS (row hits first, oldest otherwise,
//! with a starvation cap) per channel.
//!
//! Simulation is event-driven: [`Dram::advance`] commits every command whose
//! issue time has been reached and returns the transactions whose data burst
//! completed; [`Dram::next_event`] tells the caller when something next
//! changes, so an idle memory system costs nothing to simulate.
//!
//! The engine drives a [`Dram`] directly, through the probed entry points
//! [`Dram::try_enqueue_probed`] and [`Dram::advance_into_probed`]; the
//! latter appends completions straight into the caller's buffer.
//!
//! Channel-granular bandwidth partitioning — the mechanism behind the
//! paper's `Static` configurations and the 1:7 … 7:1 partitioning sweeps of
//! Figs. 9/10 — is expressed by giving each requester (NPU core) a subset of
//! channels via [`Dram::set_core_channels`].
//!
//! # Example
//!
//! ```
//! use mnpu_dram::{Dram, DramConfig};
//!
//! let mut dram = Dram::new(DramConfig::hbm2(8));
//! dram.try_enqueue(0, 0, 0x4000, false, 1).unwrap();
//! // Drive the clock until the read completes.
//! let mut done = Vec::new();
//! let mut now = 0;
//! while done.is_empty() {
//!     now = dram.next_event().expect("request pending");
//!     done = dram.advance(now);
//! }
//! assert_eq!(done[0].meta, 1);
//! assert!(done[0].completed_at > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod address;
mod channel;
mod config;
mod dram;
pub mod energy;
mod stats;

pub use address::{decode, DecodedAddr, TRANSACTION_BYTES};
pub use channel::Channel;
pub use config::{AddressMapping, DramConfig, DramTiming, SchedPolicy};
pub use dram::{Completion, Dram, EnqueueError};
pub use energy::{estimate_energy, DramEnergy, EnergyBreakdown};
pub use stats::{BandwidthTrace, ChannelStats, DramStats};
