//! `tracecat` — inspect binary `.evtrace` recordings.
//!
//! ```text
//! tracecat header TRACE.evtrace                 # header + section inventory
//! tracecat stats  TRACE.evtrace [--min-ratio R] # size vs JSON equivalent
//! ```
//!
//! The command table is `apbench::cli::TRACECAT`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(apbench::cli::TRACECAT.main(&args));
}
