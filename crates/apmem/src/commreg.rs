//! Communication registers with present bits.
//!
//! Paper §4.4: *"The AP1000+ has special registers exclusively for
//! communication. 128 4-byte communication registers for each MC are
//! allocated in shared memory space. … Each communication register has a
//! present bit (p-bit). The p-bit is set to 1 when data is stored and to 0
//! when data is read. If the p-bit is 0, the processor automatically
//! retries loading the communication register until the p-bit becomes 1."*
//!
//! Reads are therefore *consuming* and *blocking*; the blocking retry is
//! modeled by returning `None`, on which the runtime suspends the reading
//! cell until a store arrives.

/// Number of communication registers per MC.
pub const NUM_COMM_REGS: usize = 128;

/// The bank of 128 four-byte communication registers of one cell.
///
/// # Examples
///
/// ```
/// use apmem::CommRegs;
///
/// let mut regs = CommRegs::new();
/// assert_eq!(regs.load(3), None);          // empty: p-bit clear, would retry
/// regs.store(3, 42);
/// assert_eq!(regs.load(3), Some(42));      // consumes, clears p-bit
/// assert_eq!(regs.load(3), None);
/// ```
#[derive(Clone, Debug)]
pub struct CommRegs {
    value: [u32; NUM_COMM_REGS],
    present: [bool; NUM_COMM_REGS],
}

impl CommRegs {
    /// A bank with all p-bits clear.
    pub fn new() -> Self {
        CommRegs {
            value: [0; NUM_COMM_REGS],
            present: [false; NUM_COMM_REGS],
        }
    }

    /// Stores `v` into register `idx`, setting its p-bit.
    ///
    /// Returns `true` if the register already held un-consumed data (the
    /// store overwrites it — software protocols must avoid this, and tests
    /// assert on it).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= NUM_COMM_REGS`.
    pub fn store(&mut self, idx: usize, v: u32) -> bool {
        assert!(
            idx < NUM_COMM_REGS,
            "communication register {idx} out of range"
        );
        let clobbered = self.present[idx];
        self.value[idx] = v;
        self.present[idx] = true;
        clobbered
    }

    /// Attempts to load register `idx`. `Some(v)` consumes the value and
    /// clears the p-bit; `None` means the p-bit is clear and the hardware
    /// would retry (the caller should block).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= NUM_COMM_REGS`.
    pub fn load(&mut self, idx: usize) -> Option<u32> {
        assert!(
            idx < NUM_COMM_REGS,
            "communication register {idx} out of range"
        );
        if !self.present[idx] {
            return None;
        }
        self.present[idx] = false;
        Some(self.value[idx])
    }
}

impl Default for CommRegs {
    fn default() -> Self {
        CommRegs::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_load_consumes() {
        let mut r = CommRegs::new();
        assert!(!r.store(0, 7));
        assert_eq!(r.load(0), Some(7));
        assert_eq!(r.load(0), None);
    }

    #[test]
    fn overwrite_reports_clobber() {
        let mut r = CommRegs::new();
        assert!(!r.store(5, 1));
        assert!(r.store(5, 2));
        assert_eq!(r.load(5), Some(2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut r = CommRegs::new();
        r.store(NUM_COMM_REGS, 0);
    }
}
