//! Executes a fuzz program on the emulator and checks every invariant.
//!
//! One [`run_program`] call is the whole differential pipeline: build the
//! [`Plan`], run it as a real SPMD program on `apcore`, compare the final
//! memory/flag/DSM state against the independent [`crate::oracle`], check
//! the recorded trace's op counts against the plan, check the Figure-6
//! latency-segment sums, then replay the trace through `mlsim` and check
//! the divergence report's structure.
//!
//! Failures come back as `"category: detail"` strings; the category (the
//! text before the first `:`) is what the shrinker preserves while
//! minimizing, so a reduction cannot wander from one bug to a different
//! one.

use crate::oracle::{self, Expectation};
use crate::plan::{HostileKind, Op, Plan, DSM_SPAN, FLAG_SLOTS};
use crate::program::FuzzProgram;
use apcore::{run, MachineConfig, StrideSpec, VAddr};
use mlsim::{divergence, replay_observed, ModelParams};

/// What one cell hands back for checking.
pub struct CellOut {
    region: Vec<u8>,
    flags: Vec<u32>,
    dsm: Vec<u8>,
    loads: Vec<Vec<u8>>,
}

fn fail(category: &str, detail: String) -> String {
    format!("{category}: {detail}")
}

/// The category prefix of a violation string.
pub fn category(violation: &str) -> &str {
    violation.split(':').next().unwrap_or(violation)
}

/// Re-runs `prog` with probe tracing and the event timeline on and
/// packages the recording as a binary `.evtrace` document — the corpus
/// twin of the RON reproducer, replayable with `repro replay` and
/// `repro remodel`. Returns `None` when the run aborts (expected-error
/// reproducers leave nothing replayable behind).
pub fn program_evtrace(prog: &FuzzProgram) -> Option<Vec<u8>> {
    let plan = Plan::build(prog);
    let seed = prog.seed;
    let cfg = MachineConfig::new(plan.ncells)
        .with_mem_size(plan.mem_size)
        .with_timeline(true);
    let read_dsm = plan.expected.remote_stores > 0;
    let report = run(cfg, None, async |cell| {
        execute(&plan, seed, read_dsm, cell).await
    })
    .ok()?;
    let events = report.timeline.events.len() as u64;
    let doc = aptrace::EvTrace {
        header: aptrace::EvHeader::new(plan.ncells, "apfuzz", &format!("seed{seed}")),
        streams: vec![aptrace::EvStream {
            label: "emulator".to_string(),
            events: report.timeline.events.into(),
        }],
        ops: Some(report.trace),
        counters: None,
        fault_ron: None,
        summary: aptrace::EvSummary {
            total_ns: report.total_time.as_nanos(),
            events,
        },
    };
    Some(aptrace::evtrace::encode(&doc))
}

/// Runs `prog` end to end and checks every invariant.
///
/// # Errors
///
/// A `"category: detail"` violation description.
pub fn run_program(prog: &FuzzProgram) -> Result<(), String> {
    let plan = Plan::build(prog);
    let seed = prog.seed;
    let cfg = MachineConfig::new(plan.ncells)
        .with_mem_size(plan.mem_size)
        .with_timeline(true);
    let read_dsm = plan.expected.remote_stores > 0;
    let result = run(cfg, None, async |cell| {
        execute(&plan, seed, read_dsm, cell).await
    });
    match (&plan.expect_error, result) {
        (Some(want), Err(e)) => {
            let got = e.to_string();
            if got.contains(want.as_str()) {
                Ok(())
            } else {
                Err(fail(
                    "wrong-error",
                    format!("expected error containing `{want}`, got `{got}`"),
                ))
            }
        }
        (Some(want), Ok(_)) => Err(fail(
            "missing-error",
            format!("hostile program completed; expected error containing `{want}`"),
        )),
        (None, Err(e)) => Err(fail("run-error", e.to_string())),
        (None, Ok(report)) => check(&plan, seed, read_dsm, &report),
    }
}

/// The SPMD program: every cell executes the same plan, phase by phase.
/// The phase order per round — pre-writes, non-blocking issues, bcasts,
/// sends, recvs, remote loads, work, fence, flag waits, barrier — is what
/// makes generated programs deadlock-free: no blocking operation ever
/// precedes the non-blocking issues it depends on, and the blocking
/// operations appear in the same relative order on every cell.
pub(crate) async fn execute(
    plan: &Plan,
    seed: u64,
    read_dsm: bool,
    cell: &mut apcore::Cell,
) -> CellOut {
    let me = cell.id() as u32;
    let region_b = cell.alloc_bytes(plan.region);
    let flags_b = cell.alloc_bytes(4 * FLAG_SLOTS as u64);
    let flag_at = |slot: usize| flags_b + 4 * slot as u64;
    cell.write_slice(region_b, &oracle::pattern_words(seed, me, plan.src_half));
    cell.barrier();
    let mut loads = Vec::new();
    for round in &plan.rounds {
        // Broadcast roots stage their payloads (zero-cost data plane).
        for op in &round.ops {
            if let Op::Bcast {
                root,
                off,
                bytes,
                pattern,
            } = op
            {
                if *root == me {
                    let words: Vec<u64> = oracle::stream_bytes(*pattern, *bytes)
                        .chunks(8)
                        .map(|c| u64::from_le_bytes(c.try_into().expect("multiple of 8")))
                        .collect();
                    cell.write_slice(region_b + *off, &words);
                }
            }
        }
        // Non-blocking issues.
        for op in &round.ops {
            match op {
                Op::Put {
                    src,
                    dst,
                    src_off,
                    dst_off,
                    contig,
                    send,
                    recv,
                    flag_send,
                    flag_recv,
                    ack,
                } if *src == me => {
                    let sf = flag_send.map_or(VAddr::NULL, flag_at);
                    let rf = flag_recv.map_or(VAddr::NULL, flag_at);
                    let (raddr, laddr) = (region_b + *dst_off, region_b + *src_off);
                    match contig {
                        Some(bytes) => {
                            cell.put(*dst as usize, raddr, laddr, *bytes, sf, rf, *ack);
                        }
                        None => {
                            cell.put_stride(
                                *dst as usize,
                                raddr,
                                laddr,
                                *send,
                                *recv,
                                sf,
                                rf,
                                *ack,
                            );
                        }
                    }
                }
                Op::Get {
                    owner,
                    reader,
                    src_off,
                    dst_off,
                    contig,
                    send,
                    recv,
                    flag_send,
                    flag_recv,
                } if *reader == me => {
                    let sf = flag_send.map_or(VAddr::NULL, flag_at);
                    let rf = flag_recv.map_or(VAddr::NULL, flag_at);
                    let (raddr, laddr) = (region_b + *src_off, region_b + *dst_off);
                    match contig {
                        Some(bytes) => cell.get(*owner as usize, raddr, laddr, *bytes, sf, rf),
                        None => {
                            cell.get_stride(*owner as usize, raddr, laddr, *send, *recv, sf, rf);
                        }
                    }
                }
                Op::RStore {
                    src,
                    owner,
                    off,
                    bytes,
                    pattern,
                } if *src == me => {
                    cell.remote_store(
                        *owner as usize,
                        *off,
                        &oracle::stream_bytes(*pattern, *bytes),
                    );
                }
                Op::Hostile { src, dst, kind } if *src == me => match kind {
                    HostileKind::Empty => {
                        cell.put(
                            *dst as usize,
                            region_b,
                            region_b,
                            0,
                            VAddr::NULL,
                            VAddr::NULL,
                            false,
                        );
                    }
                    HostileKind::Overlap => {
                        let bad = StrideSpec {
                            item_size: 8,
                            count: 2,
                            skip: 4,
                        };
                        cell.put_stride(
                            *dst as usize,
                            region_b,
                            region_b,
                            bad,
                            bad,
                            VAddr::NULL,
                            VAddr::NULL,
                            false,
                        );
                    }
                    HostileKind::Mismatch => {
                        cell.get_stride(
                            *dst as usize,
                            region_b,
                            region_b,
                            StrideSpec::contiguous(8),
                            StrideSpec::contiguous(16),
                            VAddr::NULL,
                            VAddr::NULL,
                        );
                    }
                },
                _ => {}
            }
        }
        // Collectives: every cell participates, in plan order.
        for op in &round.ops {
            if let Op::Bcast {
                root, off, bytes, ..
            } = op
            {
                cell.bcast(*root as usize, region_b + *off, *bytes);
            }
        }
        // Ring sends, then the matching receives.
        for op in &round.ops {
            if let Op::Send {
                src,
                src_off,
                dst,
                bytes,
                ..
            } = op
            {
                if *src == me {
                    cell.send(*dst as usize, region_b + *src_off, *bytes);
                }
            }
        }
        for op in &round.ops {
            if let Op::Send {
                src,
                dst,
                dst_off,
                bytes,
                ..
            } = op
            {
                if *dst == me {
                    cell.recv(*src as usize, region_b + *dst_off, *bytes).await;
                }
            }
        }
        // Blocking DSM loads.
        for op in &round.ops {
            if let Op::RLoad {
                reader,
                owner,
                off,
                bytes,
            } = op
            {
                if *reader == me {
                    loads.push(cell.remote_load(*owner as usize, *off, *bytes).await);
                }
            }
        }
        for op in &round.ops {
            if let Op::Work { cell: c, flops } = op {
                if *c == me {
                    cell.work(*flops);
                }
            }
        }
        if round.fence[me as usize] {
            cell.remote_fence();
        }
        for &(slot, target) in &round.waits[me as usize] {
            cell.wait_flag(flag_at(slot), target);
        }
        if round.wait_acks[me as usize] {
            cell.wait_acks();
        }
        cell.barrier();
    }
    let words = cell
        .read_slice::<u64>(region_b, (plan.region / 8) as usize)
        .await;
    let region = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    let flags = cell.read_slice::<u32>(flags_b, FLAG_SLOTS).await;
    let dsm = if read_dsm {
        cell.remote_load(me as usize, 0, DSM_SPAN).await
    } else {
        Vec::new()
    };
    CellOut {
        region,
        flags,
        dsm,
        loads,
    }
}

fn first_diff(a: &[u8], b: &[u8]) -> Option<usize> {
    if a.len() != b.len() {
        return Some(a.len().min(b.len()));
    }
    a.iter().zip(b).position(|(x, y)| x != y)
}

/// Checks the final machine state — destination bytes, flag counts, DSM
/// window, remote-load results — of every cell against the independent
/// oracle. This is the fault-invariant half of [`check`]: the chaos
/// referee reuses it verbatim, because retries, detours, and duplicate
/// suppression must be invisible to the program's memory.
pub(crate) fn check_state(
    plan: &Plan,
    seed: u64,
    read_dsm: bool,
    outputs: &[CellOut],
) -> Result<(), String> {
    let want: Expectation = oracle::expectation(plan, seed);
    // 1. Every destination byte matches the oracle.
    for (c, out) in outputs.iter().enumerate() {
        if let Some(at) = first_diff(&out.region, &want.region[c]) {
            let (got, exp) = (out.region.get(at).copied(), want.region[c].get(at).copied());
            return Err(fail(
                "region-mismatch",
                format!("cell {c} byte {at}: machine {got:?}, oracle {exp:?}"),
            ));
        }
        // 2. Every flag's final count equals the number of transfers
        //    that targeted it.
        if out.flags.as_slice() != want.flags[c].as_slice() {
            return Err(fail(
                "flag-mismatch",
                format!(
                    "cell {c}: machine {:?}, oracle {:?}",
                    out.flags, want.flags[c]
                ),
            ));
        }
        if read_dsm {
            if let Some(at) = first_diff(&out.dsm, &want.dsm[c]) {
                return Err(fail(
                    "dsm-mismatch",
                    format!("cell {c} shared-window byte {at} differs"),
                ));
            }
        }
        if out.loads != want.loads[c] {
            return Err(fail(
                "load-mismatch",
                format!("cell {c}: remote-load results differ from oracle"),
            ));
        }
    }
    Ok(())
}

#[allow(clippy::too_many_lines)]
fn check(
    plan: &Plan,
    seed: u64,
    read_dsm: bool,
    report: &apcore::RunReport<CellOut>,
) -> Result<(), String> {
    let n = plan.ncells as usize;
    check_state(plan, seed, read_dsm, &report.outputs)?;
    // 3. Barrier epochs agree with the round structure.
    let rounds = plan.rounds.len() as u64;
    if report.barriers != rounds + 1 {
        return Err(fail(
            "barrier-epochs",
            format!(
                "S-net saw {} epochs, plan has {}",
                report.barriers,
                rounds + 1
            ),
        ));
    }
    // 4. The recorded trace contains exactly the planned operations.
    let got = report.trace.op_counts();
    let e = &plan.expected;
    let extra_loads = if read_dsm { n as u64 } else { 0 };
    let expect = [
        ("puts", got.puts, e.puts),
        ("gets", got.gets, e.gets),
        ("ack_probes", got.ack_probes, e.ack_probes),
        ("sends", got.sends, e.sends),
        ("recvs", got.recvs, e.recvs),
        ("bcasts", got.bcasts, e.bcast_calls),
        ("works", got.works, e.works),
        ("flag_waits", got.flag_waits, e.flag_waits),
        ("barriers", got.barriers, e.barrier_calls),
        ("remote_stores", got.remote_stores, e.remote_stores),
        (
            "remote_loads",
            got.remote_loads,
            e.remote_loads + extra_loads,
        ),
        ("fences", got.fences, e.fences),
        ("rts", got.rts, 0),
        ("reg_stores", got.reg_stores, 0),
        ("reg_loads", got.reg_loads, 0),
        ("marks", got.marks, 0),
    ];
    for (name, got, want) in expect {
        if got != want {
            return Err(fail(
                "op-count",
                format!("trace has {got} {name}, plan expects {want}"),
            ));
        }
    }
    // 5. Per-transfer latency attribution: one record per transfer, and
    //    the segments sum exactly to end-to-end.
    for (kind, hists, count) in [
        ("put", &report.counters.put_lat, e.puts),
        ("get", &report.counters.get_lat, e.gets + e.ack_probes),
    ] {
        if hists.total.count() != count {
            return Err(fail(
                "latency-count",
                format!(
                    "{kind}_lat records {} transfers, plan expects {count}",
                    hists.total.count()
                ),
            ));
        }
        let segs = hists.issue.sum()
            + hists.queue.sum()
            + hists.dma.sum()
            + hists.net.sum()
            + hists.delivery.sum()
            + hists.flag.sum();
        if segs != hists.total.sum() {
            return Err(fail(
                "latency-sum",
                format!(
                    "{kind}_lat segments sum to {segs} ns but totals sum to {} ns",
                    hists.total.sum()
                ),
            ));
        }
    }
    // 6. The trace replays cleanly through MLSim and the divergence
    //    report is structurally sane.
    let replayed = replay_observed(&report.trace, &ModelParams::ap1000_plus(), true)
        .map_err(|err| fail("replay", format!("{err:?}")))?;
    let div = divergence(
        &report.timeline,
        &replayed.timeline,
        &report.counters,
        &replayed.counters,
    );
    div.check().map_err(|err| fail("divergence", err))?;
    Ok(())
}
