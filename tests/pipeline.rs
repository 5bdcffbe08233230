//! Cross-crate integration tests: applications → emulator → trace →
//! MLSim, the full reproduction pipeline at test scale.

use apapps::{standard_suite, Scale, Workload};
use aptrace::AppStats;
use mlsim::{replay, speedup, ModelParams};

/// Every workload runs, verifies, and replays under all three models with
/// the paper's qualitative ordering: hardware handling beats software
/// handling beats the slow processor (except EP, where all that matters
/// is the CPU).
#[test]
fn suite_runs_verifies_and_orders_models() {
    for w in standard_suite(Scale::Test) {
        let report = w
            .run()
            .unwrap_or_else(|e| panic!("{} failed: {e}", w.name()));
        let plus = replay(&report.trace, &ModelParams::ap1000_plus()).unwrap();
        let star = replay(&report.trace, &ModelParams::ap1000_star()).unwrap();
        let old = replay(&report.trace, &ModelParams::ap1000()).unwrap();
        assert!(
            plus.total <= star.total,
            "{}: AP1000+ ({}) must not lose to AP1000* ({})",
            w.name(),
            plus.total,
            star.total
        );
        assert!(
            star.total <= old.total,
            "{}: AP1000* ({}) must not lose to AP1000 ({})",
            w.name(),
            star.total,
            old.total
        );
        let sp = speedup(&old, &plus);
        assert!(
            (1.0..=100.0).contains(&sp),
            "{}: implausible AP1000+ speedup {sp}",
            w.name()
        );
    }
}

/// The emulator's own hardware-parameter timing and MLSim's AP1000+
/// replay of the same trace must agree within 5 % — they model the same
/// machine at different levels of detail. Measured at test scale, the
/// emulator/MLSim ratio runs from 0.9625 (CG) to 1.0139 (TC st): EP and
/// TC no st 1.0000, FT 0.9999, SP 0.9998, SCG 0.9942, MatMul 0.9756.
#[test]
fn emulator_and_mlsim_agree_roughly() {
    for w in standard_suite(Scale::Test) {
        let report = w.run().unwrap();
        if report.total_time == aputil::SimTime::ZERO {
            continue;
        }
        let plus = replay(&report.trace, &ModelParams::ap1000_plus()).unwrap();
        let ratio = report.total_time.as_nanos() as f64 / plus.total.as_nanos() as f64;
        assert!(
            (0.95..=1.05).contains(&ratio),
            "{}: emulator {} vs MLSim {} (ratio {ratio:.4})",
            w.name(),
            report.total_time,
            plus.total
        );
    }
}

/// The emulator and MLSim's AP1000+ model read one Figure-6 right column:
/// `apnet::CostParams` and `apnet::TNetParams`. An override of either in
/// one engine and not the other would make the
/// `emulator_and_mlsim_agree_roughly` ratio drift silently.
#[test]
fn both_engines_read_one_figure6_right_column() {
    let hw = apcore::HwParams::default();
    let plus = ModelParams::ap1000_plus();
    assert_eq!((hw.cost, hw.net), (plus.cost, plus.net));
    // The one known disagreement: `put_msg_time` is 0.05 µs per 4-byte
    // word = 12.5 ns/B, which the emulator truncates and MLSim rounds.
    // Unifying it moves pinned bytes (ROADMAP item 2(b)); until then this
    // pin keeps the drift from growing.
    assert_eq!(
        (hw.dma_per_byte.as_nanos(), plus.put_msg_per_byte.as_nanos()),
        (12, 13),
        "dma_per_byte vs put_msg_per_byte moved: settle ROADMAP item 2(b) \
         and make this an equality"
    );
}

/// Trace recording and replay are deterministic end to end.
#[test]
fn pipeline_is_deterministic() {
    let w = apapps::cg::Cg::new(Scale::Test);
    let a = w.run().unwrap();
    let b = w.run().unwrap();
    assert_eq!(a.trace, b.trace, "emulator traces differ between runs");
    assert_eq!(a.total_time, b.total_time);
    let ra = replay(&a.trace, &ModelParams::ap1000()).unwrap();
    let rb = replay(&b.trace, &ModelParams::ap1000()).unwrap();
    assert_eq!(ra, rb, "replays differ between runs");
}

/// The §5.4 stride ablation end to end: TOMCATV without stride hardware
/// is slower on the AP1000+ and *much* slower under software handling.
#[test]
fn tomcatv_stride_ablation() {
    let st = apapps::tomcatv::Tomcatv::new(Scale::Test, true)
        .run()
        .unwrap();
    let no = apapps::tomcatv::Tomcatv::new(Scale::Test, false)
        .run()
        .unwrap();
    let plus_st = replay(&st.trace, &ModelParams::ap1000_plus()).unwrap();
    let plus_no = replay(&no.trace, &ModelParams::ap1000_plus()).unwrap();
    let star_st = replay(&st.trace, &ModelParams::ap1000_star()).unwrap();
    let star_no = replay(&no.trace, &ModelParams::ap1000_star()).unwrap();
    let plus_penalty = plus_no.total.as_nanos() as f64 / plus_st.total.as_nanos() as f64;
    let star_penalty = star_no.total.as_nanos() as f64 / star_st.total.as_nanos() as f64;
    assert!(
        plus_penalty > 1.0,
        "no-stride must cost on AP1000+ ({plus_penalty:.2})"
    );
    assert!(
        star_penalty > plus_penalty,
        "software handling must amplify the no-stride penalty \
         (star {star_penalty:.2} vs plus {plus_penalty:.2})"
    );
}

/// Table-3 invariants that hold at any scale.
#[test]
fn trace_statistics_invariants() {
    for w in standard_suite(Scale::Test) {
        let report = w.run().unwrap();
        let stats = AppStats::from_trace(&report.trace);
        let row = stats.to_row();
        assert_eq!(row.pe, w.pe() as usize, "{}", w.name());
        // Barrier epochs seen by the S-net equal barrier ops per PE.
        assert_eq!(
            report.barriers as f64,
            row.sync,
            "{}: S-net epochs vs trace barriers",
            w.name()
        );
        // VPP applications acknowledge their PUTs; C applications never do.
        if w.is_vpp() {
            assert_eq!(
                stats.ack_gets,
                stats.put + stats.puts,
                "{}: every VPP PUT is acknowledged",
                w.name()
            );
        } else {
            assert_eq!(stats.ack_gets, 0, "{}: C apps use flags", w.name());
        }
        // RTS work appears only in VPP programs.
        assert_eq!(
            stats.rts_units > 0,
            w.is_vpp() && stats.put + stats.puts + stats.get + stats.gets > 0,
            "{}: RTS charging",
            w.name()
        );
    }
}

/// Replaying the same trace with a faster processor never makes any
/// model slower (a regression guard for CPU-contention anomalies like the
/// interrupt-reply bug found during development).
#[test]
fn faster_cpu_never_hurts() {
    for w in standard_suite(Scale::Test) {
        let report = w.run().unwrap();
        let old = replay(&report.trace, &ModelParams::ap1000()).unwrap();
        let star = replay(&report.trace, &ModelParams::ap1000_star()).unwrap();
        assert!(
            star.total.as_nanos() <= old.total.as_nanos() + 1000,
            "{}: AP1000* {} slower than AP1000 {}",
            w.name(),
            star.total,
            old.total
        );
    }
}
