//! `repro` — regenerate every table and figure of the AP1000+ paper.
//!
//! ```text
//! repro table1                 # machine specifications (static)
//! repro fig6                   # MLSim parameter files
//! repro fig7                   # PUT communication model chains
//! repro table2 | table3 | fig8 # speedups, per-PE statistics, time breakdown
//! repro all                    # everything above, one suite run (the default)
//! repro ablations              # DESIGN.md §4 design-choice ablations
//! repro bench  --bench-out F   # versioned machine-readable bench report
//! repro compare BASE CUR       # diff two bench reports, exit 1 on regression
//! repro sweep  --bench-out F   # parallel app × size × factor grid sweep
//! repro fault  --faults F.ron  # run apps under a fault-injection schedule
//! repro record --apps CG ...   # record a run as a binary .evtrace file
//! repro replay  T.evtrace      # re-execute and gate against the recording
//! repro remodel T.evtrace      # replay recorded traffic under new models
//! repro serve  --addr A:P      # simulation-as-a-service job server
//! repro submit --addr A:P ...  # client for a running repro serve
//! ```
//!
//! The commands, their flags and the per-flag help live in one table,
//! `apbench::cli::REPRO`; a flag the command does not list is a usage
//! error (exit 2) that prints the command's flags.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(apbench::cli::REPRO.main(&args));
}
