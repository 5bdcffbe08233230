//! The benchmark's vocabulary: workload names, end-to-end metrics with
//! their unit, direction and bound, and per-layer metrics with the
//! end-to-end metric each is predicted to move. Names are normative —
//! later issues cite them — and `BENCHMARK.json` at the repo root must
//! agree with this table (a test checks it).

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

use Better::{Higher, Lower};

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One benchmark workload and the reason it exists.
pub struct Workload {
    pub name: &'static str,
    /// True for the three simulator workloads (pinned child process).
    pub sim: bool,
    pub why: &'static str,
}

pub const EMU: &str = "emu_cg1024";
pub const SUITE: &str = "suite_paper";
pub const RECORD: &str = "record_replay_cg256";
pub const HIT: &str = "serve_hit";
pub const COLD: &str = "serve_cold";

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: EMU,
        sim: true,
        why: "1024-cell CG emulate only: event-bound, tiny messages, 1025 host threads, so kernel dispatch and the cell-kernel channel round trip do all the work",
    },
    Workload {
        name: SUITE,
        sim: true,
        why: "the eight-app paper suite run serially through emulate, verify, stats, replay x3 and report emit: bulk and stride payloads plus MLSim replay sit on the blocking path",
    },
    Workload {
        name: RECORD,
        sim: true,
        why: "CG-256 streamed record, evtrace decode, strict conformance re-run and remodel: the same kernel with recorder taps and the streaming sink on",
    },
    Workload {
        name: HIT,
        sim: false,
        why: "real repro serve child, 32 warmed keys, closed loop of 2 clients: HTTP parse, canonicalise, FNV, memory LRU, response; the simulator does nothing",
    },
    Workload {
        name: COLD,
        sim: false,
        why: "same server, every request a never-seen key, closed loop of 2 clients: queue, worker, in-process simulate, emit, cache put and LRU eviction",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before `compare` calls it a regression. 0 means "must repeat
    /// exactly".
    pub bound: f64,
    /// Listed in `BENCHMARK.json` and printed by `apperf bench`. The
    /// acceptance driver wants every listed metric on every workload,
    /// never 0, never the same reading on every run, and with a
    /// run-to-run spread inside a bound of at most 25 %. So the
    /// deterministic pins and `fail_ratio` (0 on a healthy tree) are
    /// reported by `apperf run` only — in `apperf bench` a pin mismatch
    /// counts in `failed` instead — and so is `lat_p99_ms`, whose spread
    /// over ten runs reached 35 % in this sandbox's noisy minutes.
    pub driver: bool,
    pub definition: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        driver: true,
        definition: "median over the run's set-ups of: up-to-date build check, staleness check, pins load, then (sim) child spawn + pin + fixture dir or (serve) server start + warm, all outside the timed region",
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        driver: true,
        definition: "median host seconds per iteration (emu, record) or pass (suite); on serve workloads the seconds one time-boxed pass took including the drain of its last requests",
    },
    EndToEnd {
        name: "events_per_s",
        unit: "ev/s",
        better: Better::Higher,
        bound: 0.25,
        driver: true,
        definition: "sim: pinned exact timeline-event count of the workload / wall_s; serve: pinned event count of each verified response's simulation / pass seconds, median of passes",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
        driver: true,
        definition: "VmHWM of the workload child (serve: of the server child)",
    },
    EndToEnd {
        name: "req_per_s",
        unit: "req/s",
        better: Better::Higher,
        bound: 0.25,
        driver: true,
        definition: "serve: verified 200s / pass seconds, median of passes; sim: verified iterations / summed iteration seconds (one closed-loop client)",
    },
    EndToEnd {
        name: "lat_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        driver: true,
        definition: "serve: median of per-pass p50, connect to last body byte; sim: median iteration milliseconds",
    },
    EndToEnd {
        name: "lat_p99_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        driver: false,
        definition: "serve: median of per-pass p99 (sample counts beyond it are reported); sim: the median iteration again, since no percentile of a handful of iterations has ten samples beyond it",
    },
    EndToEnd {
        name: "sim_total_ms",
        unit: "sim-ms",
        better: Better::Lower,
        bound: 0.0,
        driver: false,
        definition: "sum of emulator total_time over the workload's distinct simulations: simulated time, must repeat exactly",
    },
    EndToEnd {
        name: "table2_err_pct",
        unit: "%",
        better: Better::Lower,
        bound: 0.0,
        driver: false,
        definition: "suite_paper only: mean |ours - paper| / paper over the eight AP1000+ speedups of Table 2; the model's error, stated beside every speed number",
    },
    EndToEnd {
        name: "trace_bytes_per_event",
        unit: "B/ev",
        better: Better::Lower,
        bound: 0.0,
        driver: false,
        definition: "record_replay_cg256 only: evtrace file bytes / events",
    },
    EndToEnd {
        name: "fail_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
        driver: false,
        definition: "failed / attempted: sim = iterations whose verification, conformance or pinned digest mismatched; serve = non-200, wrong X-Cache tier or wrong body",
    },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// A per-layer metric: measured by timing one crate's public functions
/// (or derived from spans), unbounded, and tied to a prediction.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Trace run that measures it: a workload name, or `"every"` for the
    /// isolated microbenches each traced run repeats. In the traced run
    /// of any other workload the metric reads 0: the layer was not
    /// exercised there.
    pub measured_in: &'static str,
    /// The end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    measured_in: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        measured_in,
        moves,
    }
}

pub const EVERY: &str = "every";

pub const PER_LAYER: &[Layer] = &[
    layer("apsim.queue.push_pop_ns", "ns", Lower, EVERY, "events_per_s @ emu_cg1024"),
    layer("apnet.tnet.transfer_ns", "ns", Lower, EVERY, "events_per_s @ emu_cg1024, suite_paper"),
    layer("apnet.torus.route_ns", "ns", Lower, EVERY, "events_per_s @ emu_cg1024, suite_paper"),
    layer("apmem.mmu.translate_ns", "ns", Lower, EVERY, "wall_s @ suite_paper"),
    layer("apmem.memory.copy_mb_s", "MB/s", Higher, EVERY, "wall_s @ suite_paper"),
    layer("apmsc.stride.gather_mb_s", "MB/s", Higher, EVERY, "wall_s @ suite_paper (FT/SP/TC/MatMul); none @ emu_cg1024"),
    layer("apmsc.stride.scatter_mb_s", "MB/s", Higher, EVERY, "wall_s @ suite_paper (FT/SP/TC/MatMul); none @ emu_cg1024"),
    layer("apmsc.dma.copy_mb_s", "MB/s", Higher, EVERY, "wall_s @ suite_paper (FT/SP/TC/MatMul); none @ emu_cg1024"),
    layer("apmsc.queue.push_pop_ns", "ns", Lower, EVERY, "wall_s @ suite_paper; none @ emu_cg1024"),
    layer("apcore.put_roundtrip_us", "us", Lower, EVERY, "events_per_s @ emu_cg1024 (dominant), SCG/CG share of suite_paper"),
    layer("apcore.ns_per_event", "ns", Lower, EMU, "= 1 / events_per_s @ emu_cg1024"),
    layer("apcore.hostprof.pop_share", "ratio", Lower, EMU, "attributes apcore.ns_per_event"),
    layer("apcore.hostprof.dispatch_share", "ratio", Lower, EMU, "attributes apcore.ns_per_event"),
    layer("apcore.hostprof.drain_share", "ratio", Lower, EMU, "attributes apcore.ns_per_event"),
    layer("apcore.hostprof.wakeup_share", "ratio", Lower, EMU, "attributes apcore.ns_per_event"),
    layer("apcore.threads_peak", "count", Lower, EMU, "peak_rss_mb @ emu_cg1024"),
    layer("apcore.unpinned_wall_ratio", "ratio", Lower, EMU, "informational: what multi-core users pay; run-to-block should take it to about 1"),
    layer("apcore.pdes.speedup_t2", "ratio", Higher, EMU, "informational: evidence for the ROADMAP keep/delete decision on the PDES engine"),
    layer("apapps.EP.emu_ms", "ms", Lower, SUITE, "wall_s @ suite_paper"),
    layer("apapps.CG.emu_ms", "ms", Lower, SUITE, "wall_s @ suite_paper"),
    layer("apapps.FT.emu_ms", "ms", Lower, SUITE, "wall_s @ suite_paper"),
    layer("apapps.SP.emu_ms", "ms", Lower, SUITE, "wall_s @ suite_paper"),
    layer("apapps.TCst.emu_ms", "ms", Lower, SUITE, "wall_s @ suite_paper"),
    layer("apapps.TCnost.emu_ms", "ms", Lower, SUITE, "wall_s @ suite_paper"),
    layer("apapps.MatMul.emu_ms", "ms", Lower, SUITE, "wall_s @ suite_paper"),
    layer("apapps.SCG.emu_ms", "ms", Lower, SUITE, "wall_s @ suite_paper"),
    layer("mlsim.replay.ops_per_s", "ops/s", Higher, SUITE, "wall_s @ suite_paper; none @ emu_cg1024 (no replay there)"),
    layer("mlsim.replay.share", "ratio", Lower, SUITE, "wall_s @ suite_paper; none @ emu_cg1024 (no replay there)"),
    layer("mlsim.remodel.ms", "ms", Lower, RECORD, "wall_s @ record_replay_cg256"),
    layer("aptrace.evtrace.encode_mb_s", "MB/s", Higher, RECORD, "events_per_s @ record_replay_cg256 only"),
    layer("aptrace.evtrace.decode_mb_s", "MB/s", Higher, RECORD, "events_per_s @ record_replay_cg256 only"),
    layer("aptrace.evtrace.seek_ms", "ms", Lower, RECORD, "events_per_s @ record_replay_cg256 only"),
    layer("apobs.recorder.tap_overhead", "ratio", Lower, RECORD, "events_per_s @ record_replay_cg256; none @ emu_cg1024"),
    layer("apmon.sampler.overhead", "ratio", Lower, RECORD, "events_per_s @ record_replay_cg256; none @ emu_cg1024"),
    layer("apobs.critpath.ms", "ms", Lower, RECORD, "analysis path (no end-to-end workload yet; recorded for the trajectory)"),
    layer("apbench.conformance.events_per_s", "ev/s", Higher, RECORD, "wall_s @ record_replay_cg256"),
    layer("apbench.report.emit_ms", "ms", Lower, SUITE, "wall_s @ suite_paper; lat_p50_ms @ serve_cold"),
    layer("apfault.cg16_overhead", "ratio", Lower, EVERY, "fault envelope/ack path (no end-to-end workload; trajectory only)"),
    layer("aputil.json.parse_mb_s", "MB/s", Higher, EVERY, "lat_p50_ms @ serve_hit (request parse)"),
    layer("aputil.json.emit_mb_s", "MB/s", Higher, EVERY, "lat_p50_ms @ serve_cold (emit)"),
    layer("apserve.request.parse_us", "us", Lower, EVERY, "lat_p50_ms @ serve_hit"),
    layer("apserve.cache.get_hit_us", "us", Lower, EVERY, "lat_p50_ms @ serve_hit"),
    layer("apserve.cache.put_evict_us", "us", Lower, EVERY, "lat_p50_ms @ serve_cold"),
    layer("apserve.http.floor_p50_ms", "ms", Lower, HIT, "lat_p50_ms @ serve_hit (is the floor the whole hit cost?)"),
    layer("apserve.connect_us", "us", Lower, "serve_hit, serve_cold", "lat_p50_ms @ serve_hit"),
    layer("apserve.ttfb_us", "us", Lower, "serve_hit, serve_cold", "lat_p50_ms @ serve_hit, serve_cold"),
    layer("apserve.hit_service_share", "ratio", Lower, HIT, "(hit p50 - floor) / hit p50: what a serve change can move @ serve_hit"),
    layer("apserve.exec_share_cold", "ratio", Lower, COLD, "(cold p50 - hit p50) / cold p50: whether a serve or a simulator change can move serve_cold"),
    layer("apserve.stats.hit_ratio", "ratio", Higher, "serve_hit, serve_cold", "proves the workload did what it claims (hit: 1, cold: 0)"),
    layer("apserve.stats.runs", "count", Lower, "serve_hit, serve_cold", "proves the workload did what it claims (hit: 0, cold: = requests)"),
    layer("apserve.stats.evictions", "count", Lower, "serve_hit, serve_cold", "proves the workload did what it claims (hit: 0, cold: requests - 64)"),
    layer("apserve.worker.sandbox_cold_p50_ms", "ms", Lower, COLD, "child-spawn cost (trajectory; promote to a workload when optimised)"),
    layer("apserve.worker.spawn_overhead_ms", "ms", Lower, COLD, "sandboxed cold p50 - in-process cold p50"),
    layer("apserve.disk.hit_p50_ms", "ms", Lower, HIT, "disk-tier cost (trajectory; promote to a workload when optimised)"),
    layer("trace_overhead_pct", "%", Lower, "the traced workload", "validity of the per-layer numbers"),
];

pub fn per_layer(name: &str) -> Option<&'static Layer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// Names and units are restricted so every artifact consumer (and the
/// acceptance driver) can treat them as identifiers.
pub fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.as_bytes()[0].is_ascii_alphanumeric()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

pub fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aputil::Json;
    use std::collections::BTreeSet;

    #[test]
    fn names_units_bounds_and_targets_are_well_formed() {
        let mut seen = BTreeSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(!w.why.is_empty() && w.why.len() <= 200 && !w.why.contains('\n'));
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
        }
        for m in END_TO_END {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!((0.0..=0.25).contains(&m.bound), "{} bound", m.name);
            assert!(!m.definition.is_empty());
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(!m.moves.is_empty(), "{} names no target", m.name);
            assert!(!m.measured_in.is_empty());
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(end_to_end("setup_s").is_some_and(|m| m.driver));
    }

    /// `BENCHMARK.json` is the acceptance driver's view of this table.
    #[test]
    fn benchmark_json_agrees_with_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<&Json> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("{key} is an array"))
                .iter()
                .collect()
        };
        let got: Vec<&str> = names("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let want: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(got, want);
        for (w, reg) in names("workloads").iter().zip(WORKLOADS) {
            assert_eq!(w.get("why").and_then(Json::as_str), Some(reg.why));
        }

        let e2e = names("end_to_end");
        let driver: Vec<&EndToEnd> = END_TO_END.iter().filter(|m| m.driver).collect();
        assert_eq!(e2e.len(), driver.len());
        for (j, reg) in e2e.iter().zip(driver) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(reg.name));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(reg.unit));
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(reg.better.as_str())
            );
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(reg.bound));
            assert!(reg.bound > 0.0, "driver metrics carry a real bound");
        }

        let layers = names("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, reg) in layers.iter().zip(PER_LAYER) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(reg.name));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(reg.unit));
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(reg.better.as_str())
            );
        }
        let paths = names("paths");
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].as_str(), Some("perf"));
    }
}
