//! Structured fault diagnostics.
//!
//! The fault-injection layer (the `apfault` crate plus the kernel's
//! recovery path) reports everything it did through one [`FaultReport`]:
//! the schedule it injected, the retries/detours/suppressions the recovery
//! protocol performed, and — when the run could not survive — the precise
//! delivery failures and crashed cells. The report renders to a canonical
//! byte-stable text so that reruns of the same seed can be compared with
//! `cmp`.

use crate::{CellId, SimTime};
use core::fmt;

/// One fault the injector actually applied, stamped with the simulated
/// time at which it took effect.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InjectedFault {
    /// Simulated time of the injection.
    pub at: SimTime,
    /// Canonical description, e.g. `"link cell1->cell2 drop"` or
    /// `"corrupt cell0->cell3 PUT"`.
    pub what: String,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.at, self.what)
    }
}

/// A packet the recovery layer gave up on after exhausting its retries.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DeliveryFailure {
    /// Sending cell.
    pub src: CellId,
    /// Destination cell.
    pub dst: CellId,
    /// Packet kind, e.g. `"PutData"`.
    pub op: &'static str,
    /// Attempts made (first send plus retries).
    pub attempts: u32,
    /// Simulated time at which retries were exhausted.
    pub at: SimTime,
}

impl fmt::Display for DeliveryFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}->{} undeliverable after {} attempts at {}",
            self.op, self.src, self.dst, self.attempts, self.at
        )
    }
}

/// Everything the fault layer injected and the recovery layer did about
/// it, in one deterministic record.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FaultReport {
    /// Seed the schedule was generated from (`None` for hand-written
    /// specs).
    pub seed: Option<u64>,
    /// Faults applied, in simulated-time order.
    pub injected: Vec<InjectedFault>,
    /// Retransmissions per packet kind, sorted by kind name.
    pub retries_by_op: Vec<(String, u64)>,
    /// Packets the network dropped (outage or injected drop).
    pub drops: u64,
    /// Packets whose checksum failed at the receiver and were discarded.
    pub corrupt_detected: u64,
    /// Duplicate deliveries suppressed by `(src, seq)` replay dedup.
    pub dup_suppressed: u64,
    /// Packets that travelled the Y-then-X detour around a downed link.
    pub detours: u64,
    /// Acknowledgements delivered back to senders.
    pub acks: u64,
    /// Cells killed fail-stop, `(cell, crash time)` in time order.
    pub crashed: Vec<(CellId, SimTime)>,
    /// Packets whose retries were exhausted.
    pub failures: Vec<DeliveryFailure>,
    /// Why the run ended early, when it did (empty for survived runs).
    pub cause: String,
}

impl FaultReport {
    /// Total retransmissions across all packet kinds.
    pub fn total_retries(&self) -> u64 {
        self.retries_by_op.iter().map(|(_, n)| n).sum()
    }

    /// `true` if the run completed despite the schedule: nothing crashed,
    /// nothing was undeliverable, and no abort cause was recorded.
    pub fn survived(&self) -> bool {
        self.crashed.is_empty() && self.failures.is_empty() && self.cause.is_empty()
    }

    /// Canonical multi-line rendering. Byte-stable for a given schedule:
    /// reruns of the same seed serialize to identical text.
    pub fn render(&self) -> String {
        use core::fmt::Write as _;
        let mut s = String::new();
        s.push_str("fault report\n");
        match self.seed {
            Some(seed) => {
                let _ = writeln!(s, "  seed: {seed}");
            }
            None => s.push_str("  seed: none (explicit spec)\n"),
        }
        let _ = writeln!(
            s,
            "  outcome: {}",
            if self.survived() {
                "survived"
            } else {
                "aborted"
            }
        );
        if !self.cause.is_empty() {
            let _ = writeln!(s, "  cause: {}", self.cause);
        }
        let _ = writeln!(s, "  injected ({}):", self.injected.len());
        for inj in &self.injected {
            let _ = writeln!(s, "    {inj}");
        }
        let _ = writeln!(s, "  retries ({} total):", self.total_retries());
        for (op, n) in &self.retries_by_op {
            let _ = writeln!(s, "    {op}: {n}");
        }
        let _ = writeln!(
            s,
            "  drops: {}  corrupt: {}  dups: {}  detours: {}  acks: {}",
            self.drops, self.corrupt_detected, self.dup_suppressed, self.detours, self.acks
        );
        if !self.crashed.is_empty() {
            let _ = writeln!(s, "  crashed ({}):", self.crashed.len());
            for (cell, at) in &self.crashed {
                let _ = writeln!(s, "    {cell} at {at}");
            }
        }
        if !self.failures.is_empty() {
            let _ = writeln!(s, "  undeliverable ({}):", self.failures.len());
            for fail in &self.failures {
                let _ = writeln!(s, "    {fail}");
            }
        }
        s
    }
}

impl fmt::Display for FaultReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} injected, {} retries, {} drops, {} crashed",
            if self.survived() {
                "survived faults"
            } else {
                "aborted under faults"
            },
            self.injected.len(),
            self.total_retries(),
            self.drops,
            self.crashed.len(),
        )?;
        if !self.cause.is_empty() {
            write!(f, " ({})", self.cause)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FaultReport {
        FaultReport {
            seed: Some(42),
            injected: vec![InjectedFault {
                at: SimTime::from_nanos(100),
                what: "link cell0->cell1 down".into(),
            }],
            retries_by_op: vec![("GetReq".into(), 1), ("PutData".into(), 3)],
            drops: 4,
            corrupt_detected: 1,
            dup_suppressed: 2,
            detours: 5,
            acks: 40,
            crashed: vec![],
            failures: vec![],
            cause: String::new(),
        }
    }

    #[test]
    fn render_is_deterministic_and_informative() {
        let r = sample();
        let a = r.render();
        let b = r.clone().render();
        assert_eq!(a, b);
        assert!(a.contains("seed: 42"));
        assert!(a.contains("outcome: survived"));
        assert!(a.contains("PutData: 3"));
        assert!(a.contains("detours: 5"));
        assert_eq!(r.total_retries(), 4);
        assert!(r.survived());
    }

    #[test]
    fn aborted_report_lists_failures() {
        let mut r = sample();
        r.crashed.push((CellId::new(2), SimTime::from_nanos(500)));
        r.failures.push(DeliveryFailure {
            src: CellId::new(0),
            dst: CellId::new(2),
            op: "PutData",
            attempts: 9,
            at: SimTime::from_nanos(900),
        });
        r.cause = "2 of 4 cells never finished".into();
        assert!(!r.survived());
        let text = r.render();
        assert!(text.contains("outcome: aborted"));
        assert!(text.contains("cause: 2 of 4 cells never finished"));
        assert!(text.contains("cell2 at 500 ns") || text.contains("cell2 at"));
        assert!(text.contains("undeliverable after 9 attempts"));
    }
}
