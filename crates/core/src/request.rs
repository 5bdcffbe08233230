//! The runtime protocol between cell programs and the simulation kernel.
//!
//! A cell program is a future the kernel steps inline (DESIGN.md §10).
//! Every interaction with the simulated machine is a [`Request`] the
//! program leaves in its [`Port`]'s outbox; the kernel retires them one
//! per wake, and the one request a program suspends on is answered by a
//! [`Response`] put in the inbox at the commit of that request's wake —
//! the moment the program is polled again.

use apmsc::{GetArgs, PutArgs};
use aputil::{CellId, VAddr};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

/// What one cell program and the kernel share.
#[derive(Default)]
pub(crate) struct Port {
    /// Requests issued since the program was last polled, in program
    /// order. Swapped for the cell's (empty) kernel-side queue when the
    /// poll returns.
    pub outbox: VecDeque<Request>,
    /// The response to the request the program is suspended on; filled
    /// immediately before each poll.
    pub inbox: Option<Response>,
}

/// Suspends a cell program until its port's inbox holds a response.
pub(crate) struct Resume<'a>(pub &'a RefCell<Port>);

impl Future for Resume<'_> {
    type Output = Response;

    fn poll(self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<Response> {
        match self.0.borrow_mut().inbox.take() {
            Some(resp) => Poll::Ready(resp),
            None => Poll::Pending,
        }
    }
}

/// Zero-time trace markers a program can record.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mark {
    /// One scalar global reduction completed (Table 3 "Gop").
    GopScalar,
    /// One vector global reduction completed (Table 3 "V Gop").
    GopVector,
}

/// A cell program's request to the kernel.
#[derive(Clone, Debug)]
pub(crate) enum Request {
    /// Map `bytes` of zeroed logical memory at `at`, the address the
    /// cell's copy of the MMU layout chose.
    Alloc { bytes: u64, at: VAddr },
    /// Read simulated memory (data plane, zero simulated time).
    ReadMem { addr: VAddr, len: u64 },
    /// Write simulated memory (data plane, zero simulated time).
    WriteMem { addr: VAddr, data: Vec<u8> },
    /// Burn CPU time for `flops` abstract operations.
    Work { flops: u64 },
    /// Burn CPU time for `units` of run-time-system work.
    Rts { units: u64 },
    /// Issue a PUT (non-blocking).
    Put(PutArgs),
    /// Issue a GET (non-blocking; completion via `recv_flag`).
    Get(GetArgs),
    /// Block until the local flag reaches `target`.
    WaitFlag { flag: VAddr, target: u32 },
    /// Read a flag's current value (non-blocking check).
    ReadFlag { flag: VAddr },
    /// Enter the machine-wide S-net barrier.
    Barrier,
    /// Blocking SEND of `bytes` from `laddr` to `dst`'s ring buffer.
    Send {
        dst: CellId,
        laddr: VAddr,
        bytes: u64,
    },
    /// Blocking RECEIVE of the next ring message from `src` into `laddr`
    /// (at most `max` bytes); responds [`Response::Len`].
    Recv { src: CellId, laddr: VAddr, max: u64 },
    /// Store to a communication register of `dst` (non-blocking).
    RegStore { dst: CellId, reg: u16, value: u32 },
    /// Blocking load of a local communication register (p-bit retry).
    RegLoad { reg: u16 },
    /// Collective B-net broadcast: `root`'s `bytes` at `laddr` land at
    /// every cell's `laddr`.
    Bcast {
        root: CellId,
        laddr: VAddr,
        bytes: u64,
    },
    /// Non-blocking remote store into `dst`'s shared-memory window.
    RemoteStore {
        dst: CellId,
        offset: u64,
        data: Vec<u8>,
    },
    /// Blocking remote load from `dst`'s shared-memory window.
    RemoteLoad { dst: CellId, offset: u64, len: u64 },
    /// Block until every issued remote store has been acknowledged.
    RemoteFence,
    /// Record a zero-time trace marker.
    Mark(Mark),
    /// The cell program panicked; abort the whole run (no response).
    Fail(String),
    /// The cell program finished (no response follows).
    Finish,
}

/// Kernel's answer to a request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Response {
    /// Operation complete.
    Unit,
    /// Raw bytes (memory read, remote load).
    Bytes(Vec<u8>),
    /// A register or flag value.
    Value(u32),
    /// Byte count of a received message.
    Len(u64),
}
