//! Distributed shared memory and write-through pages (§4.2).
//!
//! Run with `cargo run --release --example dsm`.
//!
//! Cell 0 owns a lookup table in its shared-memory window; the other cells
//! read it repeatedly. Plain remote loads pay a blocking network round
//! trip every time; the write-through page cache (§4.2) pays one miss per
//! page and then serves locally — the run prints both simulated times and
//! the hit/miss counters.

use apcore::{run, MachineConfig};

const TABLE: u64 = 8 * 1024; // bytes in the shared lookup table
const LOOKUPS: usize = 400;

fn measure(cached: bool) -> (aputil::SimTime, u64, u64) {
    let report = run(
        MachineConfig::new(4).with_trace(false),
        None,
        async move |cell| {
            let me = cell.id();
            if me == 0 {
                // Publish the table in my shared window.
                let data: Vec<u8> = (0..TABLE).map(|i| (i * 7 % 251) as u8).collect();
                cell.remote_store(0, 0, &data);
                cell.remote_fence();
            }
            cell.barrier();
            let mut checksum = 0u64;
            if me != 0 {
                // Pseudo-random lookups with locality.
                let mut pos = (me as u64 * 997) % TABLE;
                for i in 0..LOOKUPS {
                    pos = (pos + if i % 7 == 0 { 1531 } else { 8 }) % (TABLE - 8);
                    let bytes = if cached {
                        cell.wt_read(0, pos, 8).await
                    } else {
                        cell.remote_load(0, pos, 8).await
                    };
                    checksum = checksum.wrapping_add(u64::from(bytes[0]));
                    cell.work(20); // consume the value
                }
            }
            cell.barrier();
            let (h, m) = cell.wt_stats();
            (checksum, h, m)
        },
    )
    .expect("simulation failed");
    // Checksums must agree between modes (verified by the caller).
    let hits: u64 = report.outputs.iter().map(|&(_, h, _)| h).sum();
    let misses: u64 = report.outputs.iter().map(|&(_, _, m)| m).sum();
    (report.total_time, hits, misses)
}

fn main() {
    let (t_plain, _, _) = measure(false);
    let (t_cached, hits, misses) = measure(true);
    println!("{LOOKUPS} lookups per cell into a remote {TABLE}-byte table:");
    println!("  blocking remote loads : {t_plain}");
    println!("  write-through pages   : {t_cached}  ({hits} hits, {misses} page misses)");
    println!(
        "  speedup               : {:.1}x",
        t_plain.as_nanos() as f64 / t_cached.as_nanos() as f64
    );
}
