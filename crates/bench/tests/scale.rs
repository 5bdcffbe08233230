//! Cell count is bounded by memory, not by what the scheduler can place:
//! one machine is one host thread (DESIGN.md §10). Each machine below
//! runs as a `repro sweep` child under a 1 GiB address-space ceiling and
//! must finish within 120 s.
//!
//! Measured on a 2-core Xeon, release (wall / VmHWM / VmPeak): CG-4096
//! 2.0 s / 168 MB / 211 MB, EP-16384 0.1 s / 126 MB / 224 MB, EP-65536
//! 0.4 s / 490 MB / 512 MB. The tests are `#[ignore]`d; CI runs them in
//! release with `--ignored`.

#![cfg(target_os = "linux")]

use std::io::Read;
use std::time::{Duration, Instant};

const ADDRESS_SPACE: u64 = 1 << 30;
const WALL: Duration = Duration::from_secs(120);

/// The soft and hard `Max address space` of process `pid`.
fn address_space_limit(pid: u32) -> String {
    let limits =
        std::fs::read_to_string(format!("/proc/{pid}/limits")).expect("/proc/<pid>/limits");
    let line = limits.lines().find(|l| l.starts_with("Max address space"));
    line.expect("an address-space row").to_string()
}

/// The command name of process `pid`: `sh` until it execs the program.
fn comm(pid: u32) -> String {
    let name = std::fs::read_to_string(format!("/proc/{pid}/comm")).expect("/proc/<pid>/comm");
    name.trim_end().to_string()
}

/// Runs `repro sweep --apps APP --sizes CELLS` at test scale on one
/// thread, under the ceiling, and checks that the ceiling held the
/// process that ran and that the run finished in time.
fn sweep_within_bounds(app: &str, cells: u32) {
    let out = std::env::temp_dir().join(format!("scale-{app}{cells}-{}.json", std::process::id()));
    let args: Vec<String> = [
        "sweep",
        "--apps",
        app,
        "--sizes",
        &cells.to_string(),
        "--scale",
        "test",
        "--threads",
        "1",
        "--bench-out",
        out.to_str().unwrap(),
    ]
    .map(String::from)
    .to_vec();
    let start = Instant::now();
    let mut child = aputil::spawn_limited(env!("CARGO_BIN_EXE_repro"), &args, Some(ADDRESS_SPACE))
        .expect("spawn repro");
    let pid = child.id();
    let drain = |mut pipe: Box<dyn Read + Send>| {
        std::thread::spawn(move || {
            let mut text = String::new();
            let _ = pipe.read_to_string(&mut text);
            text
        })
    };
    let stdout = drain(Box::new(child.stdout.take().unwrap()));
    let stderr = drain(Box::new(child.stderr.take().unwrap()));

    // `spawn_limited` lowers the limit in a shell that then execs repro,
    // and only best-effort: read it once the process is repro. The
    // child is not reaped before the read, so /proc/<pid> still exists.
    while comm(pid) != "repro" {
        assert!(start.elapsed() < WALL, "the shell never started repro");
        std::thread::sleep(Duration::from_millis(1));
    }
    let limit = address_space_limit(pid);
    let soft_and_hard: Vec<&str> = limit.split_whitespace().skip(3).take(2).collect();
    let want = ADDRESS_SPACE.to_string();
    assert_eq!(
        soft_and_hard,
        [&want, &want],
        "the ceiling did not take hold: {limit}"
    );

    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if start.elapsed() > WALL {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{app}-{cells} ran past {WALL:?}");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let (stdout, stderr) = (stdout.join().unwrap(), stderr.join().unwrap());
    assert!(
        status.success(),
        "{app}-{cells}: {status}\n{stdout}{stderr}"
    );
    let report = std::fs::read_to_string(&out).expect("the bench report");
    let _ = std::fs::remove_file(&out);
    assert!(
        report.contains("\"schema\":\"ap1000plus.bench\""),
        "{report}"
    );
}

#[test]
#[ignore = "a 4096-cell machine; CI runs it in release"]
fn cg_on_4096_cells_fits_1_gib_and_120_s() {
    sweep_within_bounds("CG", 4096);
}

#[test]
#[ignore = "a 16384-cell machine; CI runs it in release"]
fn ep_on_16384_cells_fits_1_gib_and_120_s() {
    sweep_within_bounds("EP", 16384);
}

#[test]
#[ignore = "a 65536-cell machine; CI runs it in release"]
fn ep_on_65536_cells_fits_1_gib_and_120_s() {
    sweep_within_bounds("EP", 65536);
}
