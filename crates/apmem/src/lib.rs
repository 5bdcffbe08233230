//! Memory controller (MC) model for the AP1000+ reproduction.
//!
//! The MC sits between the SuperSPARC, the DRAM, and the MSC+ message
//! controller (paper §4, Figure 5). This crate models every MC function the
//! paper describes:
//!
//! * [`memory::Memory`] — the cell's DRAM, sparsely allocated so a
//!   1024-cell machine with 64 MB cells does not need 64 GB of host RAM.
//! * [`mmu::Mmu`] — logical→physical translation with the paper's
//!   direct-mapped TLB: **256 entries for 4 KB pages and 64 entries for
//!   256 KB pages** (§4.1 "MMU and protection"), plus page-fault protection
//!   for illegal user addresses.
//! * [`flags::FlagUnit`] — the MC's fetch-and-increment unit that
//!   updates PUT/GET completion flags when DMA finishes (§4.1 "Flag update
//!   combined with data transfer").
//! * [`commreg::CommRegs`] — the **128 four-byte communication
//!   registers with present bits** used for barrier synchronization and
//!   scalar global reduction (§4.4).
//! * [`dsm::DsmMap`] — the 36-bit physical address-space split: half
//!   local, half distributed shared memory carved into per-cell blocks
//!   (§4.2).

pub mod commreg;
pub mod dsm;
pub mod flags;
pub mod memory;
pub mod mmu;

pub use commreg::CommRegs;
pub use dsm::DsmMap;
pub use flags::FlagUnit;
pub use memory::{MemError, Memory};
pub use mmu::{Layout, Mmu, PageSize, TlbStats, Translation};
