//! The one process-global run setting left, kept honest for `perf/`.
//!
//! The frozen benchmark measures `apmon.sampler.overhead` and the
//! `apcore.hostprof.*_share` layers by calling
//! `apcore::set_metrics_default(Some(..))` and then
//! `build_workload(..).run()` (`perf/src/sim.rs:263-289`), so that pair of
//! calls must keep producing a sampled run. This is the only in-repo
//! caller of `set_metrics_default`, alone in its own test binary because
//! it flips a process-wide value.

use apapps::Scale;
use apbench::sweep::build_workload;
use aputil::SimTime;

#[test]
fn set_metrics_default_still_reaches_workload_run() {
    let cg = || build_workload("CG", Scale::Test, None).expect("CG builds");
    assert!(cg().run().expect("plain CG").metrics.is_none());

    apcore::set_metrics_default(Some(SimTime::from_micros(10)));
    let sampled = cg().run().expect("sampled CG");
    let metrics = sampled.metrics.as_ref().expect("sampling was on");
    assert_eq!(metrics.series.interval, SimTime::from_micros(10));
    assert!(metrics.host.is_some(), "the host profile rides along");

    apcore::set_metrics_default(None);
    assert!(cg().run().expect("plain CG again").metrics.is_none());
}
