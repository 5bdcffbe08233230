//! MLSim parameter files (Figure 6).
//!
//! All times are stored as [`SimTime`]; the constructors take the paper's
//! microsecond values. Units of the per-`msg_size` parameters: the network
//! serialization (`network_msg_time`) is per **byte** — 0.04 µs/byte is
//! exactly the 25 MB/s channel bandwidth of Figure 5, which anchors that
//! unit — while the endpoint costs (`put_msg_time` DMA streaming,
//! `put_msg_post_time` cache posting, `recv_msg_flush_time` cache
//! invalidation) are per 4-byte **word**, so the stored per-byte values
//! are the Figure-6 numbers divided by four (a DMA engine feeding a
//! 25 MB/s link cannot itself run at 20 MB/s).

use apnet::{CostParams, TNetParams};
use aputil::SimTime;

/// Figure 6's `computation_factor` of the SuperSPARC, whose times
/// [`CostParams`] holds: a SPARC time is a `CostParams` time over this.
const SUPERSPARC: f64 = 0.125;

/// One machine model: the parameter file MLSim is driven by.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelParams {
    /// Model name for reports.
    pub name: String,
    /// Processor scaling: execution time multiplier relative to the base
    /// SPARC (1.0 = SPARC, 0.125 = SuperSPARC — Figure 6).
    pub computation_factor: f64,
    /// `true` = message handling by software interrupt handlers (AP1000);
    /// `false` = MSC+ hardware handling (AP1000+).
    pub software_handling: bool,

    /// Figure 6 "---- network ----": `network_prolog_time`,
    /// `network_delay_time` per hop and `network_msg_time` per byte (items
    /// 15–18 of Figure 7). The same T-net in every model, and the one the
    /// emulator runs.
    pub net: TNetParams,
    /// `put_prolog_time`, DMA setup, library, S-net, B-net and processor
    /// costs; the AP1000+ model's are the emulator's.
    pub cost: CostParams,

    // ---- PUT/GET (Figure 6 "---- PUT/GET ----") ----
    /// `put_epilog_time`: CPU cost after issue (syscall return).
    pub put_epilog: SimTime,
    /// `put_msg_time` per byte: DMA streaming rate.
    pub put_msg_per_byte: SimTime,
    /// `put_msg_post_time` per byte: CPU cost to post (mirror) cached data
    /// to memory before DMA — zero on the write-through AP1000+.
    pub put_msg_post_per_byte: SimTime,
    /// `intr_rtc_time`: receive-interrupt entry (software handling only).
    pub intr_rtc: SimTime,
    /// `recv_msg_flush_time` per byte: CPU cache invalidation on receive
    /// (zero on the AP1000+, which invalidates at message reception).
    pub recv_msg_flush_per_byte: SimTime,
}

impl ModelParams {
    /// The three machines of §5, in the order every table and report
    /// lists them: AP1000, AP1000★, AP1000+.
    pub fn paper_models() -> [ModelParams; 3] {
        [Self::ap1000(), Self::ap1000_star(), Self::ap1000_plus()]
    }

    /// Figure 6, left column: the original AP1000 — SPARC processor,
    /// interrupt-driven software message handling.
    pub fn ap1000() -> Self {
        let us = SimTime::from_micros_f64;
        ModelParams {
            name: "AP1000".to_string(),
            computation_factor: 1.0,
            software_handling: true,
            cost: CostParams {
                put_prolog: us(20.0),
                dma_set: us(15.0),
                flag_check: us(1.6),
                send_call: us(8.0),
                reg_store: us(4.0),
                reg_load: us(4.0),
                recv_copy_per_byte: us(0.04),
                ..CostParams::default()
            },
            put_epilog: us(15.0),
            put_msg_post_per_byte: us(0.04 / 4.0),
            intr_rtc: us(20.0),
            recv_msg_flush_per_byte: us(0.04 / 4.0),
            ..Self::ap1000_plus()
        }
    }

    /// §5.3's second model: "an AP1000 model whose processor speed is
    /// eight times faster and message handling is done by software".
    pub fn ap1000_star() -> Self {
        let (ap1000, plus) = (Self::ap1000(), CostParams::default());
        ModelParams {
            name: "AP1000*".to_string(),
            computation_factor: SUPERSPARC,
            // Pure-CPU library entry costs speed up with the processor;
            // the software-handling protocol costs (syscalls, interrupts,
            // DMA setup) do not — the paper's point.
            cost: CostParams {
                flag_check: plus.flag_check,
                send_call: plus.send_call,
                reg_store: plus.reg_store,
                reg_load: plus.reg_load,
                ..ap1000.cost
            },
            ..ap1000
        }
    }

    /// Figure 6, right column: the AP1000+ — SuperSPARC plus MSC+
    /// hardware message handling.
    pub fn ap1000_plus() -> Self {
        ModelParams {
            name: "AP1000+".to_string(),
            computation_factor: SUPERSPARC,
            software_handling: false,
            net: TNetParams::default(),
            cost: CostParams::default(),
            put_epilog: SimTime::ZERO,
            put_msg_per_byte: SimTime::from_micros_f64(0.05 / 4.0),
            put_msg_post_per_byte: SimTime::ZERO,
            intr_rtc: SimTime::ZERO,
            recv_msg_flush_per_byte: SimTime::ZERO,
        }
    }

    /// Effective time per abstract flop on this model's processor.
    pub fn flop_time(&self) -> SimTime {
        self.scaled(self.cost.flop_time)
    }

    /// Effective time per run-time-system unit.
    pub fn rts_time(&self) -> SimTime {
        self.scaled(self.cost.rts_unit_time)
    }

    /// A SuperSPARC time `t` as the SPARC time it came from, scaled by
    /// this model's `computation_factor`.
    fn scaled(&self, t: SimTime) -> SimTime {
        SimTime::from_micros_f64(t.as_micros_f64() / SUPERSPARC * self.computation_factor)
    }

    /// CPU time the *sender* spends issuing a PUT/GET/SEND of `bytes`
    /// (Figure 7's "Send overhead" chain; the hardware model keeps only
    /// the prolog — writing the 8 parameter words).
    pub fn send_cpu_overhead(&self, bytes: u64) -> SimTime {
        if self.software_handling {
            self.cost.put_prolog
                + self.put_msg_post_per_byte.saturating_mul(bytes)
                + self.cost.dma_set
                + self.put_epilog
        } else {
            self.cost.put_prolog
        }
    }

    /// CPU time the *receiver* spends on an arriving message (Figure 7's
    /// "Interrupt reception overhead"; zero under hardware handling).
    pub fn recv_cpu_overhead(&self, bytes: u64) -> SimTime {
        if self.software_handling {
            self.intr_rtc + self.recv_msg_flush_per_byte.saturating_mul(bytes) + self.cost.dma_set
        } else {
            SimTime::ZERO
        }
    }

    /// Hardware-side latency from "command accepted" to "message on the
    /// wire": DMA setup plus streaming.
    pub fn send_hw_latency(&self, bytes: u64) -> SimTime {
        if self.software_handling {
            // DMA set was already charged on the CPU; only streaming
            // remains on the hardware side.
            self.put_msg_per_byte.saturating_mul(bytes)
        } else {
            self.cost.dma_set + self.put_msg_per_byte.saturating_mul(bytes)
        }
    }

    /// Hardware-side latency from "message arrived" to "data landed &
    /// flag updated".
    pub fn recv_hw_latency(&self, bytes: u64) -> SimTime {
        if self.software_handling {
            self.put_msg_per_byte.saturating_mul(bytes)
        } else {
            self.cost.dma_set + self.put_msg_per_byte.saturating_mul(bytes)
        }
    }

    /// Renders the parameter file in the Figure 6 format.
    pub fn to_figure6(&self) -> String {
        format!(
            "#\n# {} model\n#\n# computation {}\ncomputation_factor      {:.3}\n#\n\
             # ---- network ----\nnetwork_prolog_time     {:.2}\nnetwork_delay_time      {:.2}\n\
             network_msg_time        {:.2}\n#\n# ---- PUT/GET ----\n#\nput_prolog_time         {:.2}\n\
             put_epilog_time         {:.2}\nput_msg_time            {:.2}\nput_dma_set_time        {:.2}\n\
             put_msg_post_time       {:.2}\n#\nintr_rtc_time           {:.2}\n\
             recv_msg_flush_time     {:.2}\nrecv_dma_set_time       {:.2}\n",
            self.name,
            if self.computation_factor >= 1.0 { "SPARC" } else { "SuperSPARC" },
            self.computation_factor,
            self.net.prolog.as_micros_f64(),
            self.net.per_hop.as_micros_f64(),
            self.net.per_byte.as_micros_f64(),
            self.cost.put_prolog.as_micros_f64(),
            self.put_epilog.as_micros_f64(),
            self.put_msg_per_byte.as_micros_f64(),
            self.cost.dma_set.as_micros_f64(),
            self.put_msg_post_per_byte.as_micros_f64(),
            self.intr_rtc.as_micros_f64(),
            self.recv_msg_flush_per_byte.as_micros_f64(),
            self.cost.dma_set.as_micros_f64(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure6_values() {
        let a = ModelParams::ap1000();
        assert_eq!(a.cost.put_prolog.as_micros_f64(), 20.0);
        assert_eq!(a.put_epilog.as_micros_f64(), 15.0);
        assert_eq!(a.intr_rtc.as_micros_f64(), 20.0);
        assert!(a.software_handling);
        let p = ModelParams::ap1000_plus();
        assert_eq!(p.cost.put_prolog.as_micros_f64(), 1.0);
        assert_eq!(p.put_epilog.as_micros_f64(), 0.0);
        assert_eq!(p.intr_rtc.as_micros_f64(), 0.0);
        assert_eq!(p.cost.dma_set.as_micros_f64(), 0.5);
        assert!(!p.software_handling);
    }

    #[test]
    fn star_is_fast_cpu_slow_comm() {
        let s = ModelParams::ap1000_star();
        assert_eq!(s.computation_factor, 0.125);
        assert!(s.software_handling);
        assert_eq!(s.cost.put_prolog, ModelParams::ap1000().cost.put_prolog);
    }

    #[test]
    fn flop_times_span_8x() {
        let a = ModelParams::ap1000();
        let p = ModelParams::ap1000_plus();
        assert_eq!(a.flop_time().as_nanos(), 160);
        assert_eq!(p.flop_time().as_nanos(), 20);
    }

    #[test]
    fn overhead_chains_match_figure7() {
        let a = ModelParams::ap1000();
        // Send overhead = prolog + post*size + dma_set + epilog
        // (per-size costs are per 4-byte word: 0.04 µs/word = 0.01 µs/B).
        let bytes = 100;
        assert_eq!(
            a.send_cpu_overhead(bytes).as_micros_f64(),
            20.0 + 0.01 * 100.0 + 15.0 + 15.0
        );
        // Interrupt reception overhead = intr + flush*size + dma_set
        assert_eq!(
            a.recv_cpu_overhead(bytes).as_micros_f64(),
            20.0 + 0.01 * 100.0 + 15.0
        );
        let p = ModelParams::ap1000_plus();
        assert_eq!(p.send_cpu_overhead(bytes).as_micros_f64(), 1.0);
        assert_eq!(p.recv_cpu_overhead(bytes), SimTime::ZERO);
    }

    #[test]
    fn figure6_render_contains_parameters() {
        let text = ModelParams::ap1000_plus().to_figure6();
        assert!(text.contains("computation_factor      0.125"));
        assert!(text.contains("put_prolog_time         1.00"));
        assert!(text.contains("recv_dma_set_time       0.50"));
    }
}
