//! Common foundation types for the AP1000+ reproduction.
//!
//! This crate holds the small vocabulary shared by every other crate in the
//! workspace: simulated time ([`SimTime`]), cell identifiers ([`CellId`]),
//! logical and physical addresses ([`VAddr`], [`PAddr`]), byte codecs for
//! moving typed data through simulated memory, and the workspace-wide error
//! type ([`ApError`]).
//!
//! # Examples
//!
//! ```
//! use aputil::{SimTime, CellId};
//!
//! let t = SimTime::from_micros_f64(0.16) + SimTime::from_nanos(40);
//! assert_eq!(t.as_nanos(), 200);
//! let c = CellId::new(5);
//! assert_eq!(c.index(), 5);
//! ```

pub mod addr;
pub mod bytes;
pub mod cli;
pub mod error;
pub mod fault;
pub mod fsio;
pub mod hash;
pub mod id;
pub mod json;
pub mod par;
pub mod proc;
pub mod ron;
pub mod time;

pub use addr::{PAddr, VAddr};
pub use error::{panic_message, ApError, ApResult, BlockReason, BlockedCell, DeadlockReport};
pub use fault::{DeliveryFailure, FaultReport, InjectedFault};
pub use fsio::{write_atomic, write_replacing, TempSibling};
pub use hash::{fnv1a_64, key_hex, parse_key_hex, IntHasher, IntMap};
pub use id::CellId;
pub use json::{write_json_escaped, Json, JsonError, JsonErrorKind, MAX_JSON_DEPTH};
pub use par::{available_threads, par_map_ordered};
pub use proc::{exit_desc, spawn_limited, TailBuf};
pub use time::SimTime;
