//! The AP1000+ costs both engines charge.

use aputil::SimTime;

/// Figure 6's right column less the network ([`crate::TNetParams`]),
/// plus the library, S-net, B-net and processor costs of §4–§5, written
/// once: the emulator's `HwParams` and MLSim's AP1000+ model take
/// [`CostParams::default`] as is, and the AP1000 and AP1000★ models
/// override what software message handling and a SPARC change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostParams {
    /// CPU time to issue one PUT/GET (`put_prolog_time`; on the AP1000+
    /// the ≈8 stores into the MSC+ queue, §4.1).
    pub put_prolog: SimTime,
    /// DMA setup per transfer on each side (`put_dma_set_time`,
    /// `recv_dma_set_time`): MSC+ time under hardware handling.
    pub dma_set: SimTime,
    /// CPU time of one flag-value check (`flag_check` in Figure 7).
    pub flag_check: SimTime,
    /// CPU time of the SEND library call itself (it blocks until the send
    /// DMA completes, §5.4), excluding transfer costs.
    pub send_call: SimTime,
    /// CPU time to store to a (possibly remote) communication register.
    pub reg_store: SimTime,
    /// CPU time of a communication-register load that finds the p-bit set.
    pub reg_load: SimTime,
    /// Per-byte CPU cost of the RECEIVE ring-buffer copy into the user
    /// area (the intrinsic SEND/RECEIVE buffering overhead, §1.3).
    pub recv_copy_per_byte: SimTime,
    /// S-net hardware barrier latency.
    pub barrier_latency: SimTime,
    /// B-net serialization per byte (50 MB/s ⇒ 20 ns/B).
    pub bnet_per_byte: SimTime,
    /// SuperSPARC time per abstract flop (50 MFLOPS, Table 1 ⇒ 20 ns).
    pub flop_time: SimTime,
    /// SuperSPARC time per abstract run-time-system unit (VPP Fortran
    /// address arithmetic etc.).
    pub rts_unit_time: SimTime,
}

impl Default for CostParams {
    /// The AP1000+ numbers (Table 1, Figure 6 right column, §4.1).
    fn default() -> Self {
        let us = SimTime::from_micros_f64;
        CostParams {
            put_prolog: us(1.0),
            dma_set: us(0.5),
            flag_check: us(0.2),
            send_call: us(1.0),
            reg_store: us(0.5),
            reg_load: us(0.5),
            recv_copy_per_byte: SimTime::from_nanos(20),
            barrier_latency: us(1.0),
            bnet_per_byte: SimTime::from_nanos(20),
            flop_time: SimTime::from_nanos(20),
            rts_unit_time: us(0.5),
        }
    }
}
