//! Dev probe: per-model breakdown for one workload (not part of the
//! reproduction tables; useful when calibrating).
//!
//! ```text
//! probe [WORKLOAD] [--paper] [--json] [--trace-out FILE]
//! ```
//!
//! The declaration is `apbench::cli::PROBE`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(apbench::cli::PROBE.main(&args));
}
