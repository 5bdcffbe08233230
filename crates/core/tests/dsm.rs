//! Distributed-shared-memory and write-through-page tests (§4.2).

use apcore::{run, MachineConfig};

fn cfg(n: u32) -> MachineConfig {
    MachineConfig::new(n)
}

#[test]
fn remote_store_load_fence_round_trip() {
    let r = run(cfg(4), None, async |cell| {
        let me = cell.id();
        let n = cell.ncells();
        // Write my id pattern into every other cell's shared window at an
        // offset only I use.
        for k in 1..n {
            let dst = (me + k) % n;
            cell.remote_store(dst, (me * 64) as u64, &[me as u8; 16]);
        }
        cell.remote_fence();
        cell.barrier();
        // Read back what everyone wrote into MY window via a neighbour.
        let mut sum = 0u32;
        for writer in 0..n {
            if writer == me {
                continue;
            }
            let data = cell.remote_load(me, (writer * 64) as u64, 16).await;
            assert!(data.iter().all(|&b| b == writer as u8), "corrupted store");
            sum += u32::from(data[0]);
        }
        sum
    })
    .unwrap();
    assert_eq!(
        r.outputs,
        [6, 5, 4, 3].iter().map(|v| *v as u32).collect::<Vec<_>>()
    );
}

#[test]
fn wt_cache_hits_after_first_touch() {
    let r = run(cfg(2), None, async |cell| {
        if cell.id() == 0 {
            // Owner publishes data in its own shared window.
            cell.remote_store(0, 0, &(0u8..=255).collect::<Vec<u8>>());
            cell.remote_fence();
        }
        cell.barrier();
        if cell.id() == 1 {
            // First read misses (remote load), later reads of the same
            // page hit locally.
            let a = cell.wt_read(0, 10, 4).await;
            let b = cell.wt_read(0, 100, 4).await;
            let c = cell.wt_read(0, 10, 4).await;
            assert_eq!(a, vec![10, 11, 12, 13]);
            assert_eq!(b, vec![100, 101, 102, 103]);
            assert_eq!(c, a);
            cell.wt_stats()
        } else {
            (0, 0)
        }
    })
    .unwrap();
    let (hits, misses) = r.outputs[1];
    assert_eq!(misses, 1, "one page fetch");
    assert_eq!(hits, 2, "subsequent reads are local");
}

#[test]
fn wt_write_goes_through_and_updates_local_copy() {
    let r = run(cfg(2), None, async |cell| {
        cell.barrier();
        if cell.id() == 1 {
            // Populate cache, then write through.
            let before = cell.wt_read(0, 0, 8).await;
            assert_eq!(before, vec![0u8; 8]);
            cell.wt_write(0, 2, &[7, 8, 9]);
            // Local copy sees the write immediately (hit).
            let local = cell.wt_read(0, 0, 8).await;
            assert_eq!(local, vec![0, 0, 7, 8, 9, 0, 0, 0]);
            cell.remote_fence();
        }
        cell.barrier();
        if cell.id() == 0 {
            // The owner's memory really received the store.
            let data = cell.remote_load(0, 0, 8).await;
            assert_eq!(data, vec![0, 0, 7, 8, 9, 0, 0, 0]);
        }
        cell.barrier();
    })
    .unwrap();
    drop(r);
}

#[test]
fn wt_cache_is_incoherent_until_invalidated() {
    // The paper adds coherence in software; the hardware cache serves
    // stale data until the reader invalidates.
    run(cfg(2), None, async |cell| {
        cell.barrier();
        if cell.id() == 1 {
            let stale = cell.wt_read(0, 0, 4).await;
            assert_eq!(stale, vec![0, 0, 0, 0]);
        }
        cell.barrier();
        if cell.id() == 0 {
            cell.remote_store(0, 0, &[42, 42, 42, 42]);
            cell.remote_fence();
        }
        cell.barrier();
        if cell.id() == 1 {
            // Still the cached page.
            assert_eq!(cell.wt_read(0, 0, 4).await, vec![0, 0, 0, 0]);
            // Software coherence point.
            cell.wt_invalidate_all();
            assert_eq!(cell.wt_read(0, 0, 4).await, vec![42, 42, 42, 42]);
        }
        cell.barrier();
    })
    .unwrap();
}

#[test]
fn wt_read_crosses_page_boundaries() {
    run(cfg(2), None, async |cell| {
        if cell.id() == 0 {
            let data: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
            cell.remote_store(0, 0, &data[..1500]);
            cell.remote_store(0, 1500, &data[1500..]);
            cell.remote_fence();
        }
        cell.barrier();
        if cell.id() == 1 {
            // 1 KB pages: this read spans three.
            let got = cell.wt_read(0, 900, 1500).await;
            let expect: Vec<u8> = (900..2400u32).map(|i| (i % 251) as u8).collect();
            assert_eq!(got, expect);
            let (_, misses) = cell.wt_stats();
            assert_eq!(misses, 3);
        }
        cell.barrier();
    })
    .unwrap();
}

#[test]
fn dsm_ops_are_traced_and_replayable() {
    let r = run(cfg(2), None, async |cell| {
        if cell.id() == 0 {
            cell.remote_store(1, 0, &[1u8; 256]);
            cell.remote_fence();
            let _ = cell.remote_load(1, 0, 256).await;
        }
        cell.barrier();
    })
    .unwrap();
    // The trace carries the DSM ops and replays under every model.
    let ops = &r.trace.pe(aputil::CellId::new(0)).ops;
    assert!(ops
        .iter()
        .any(|o| matches!(o, aptrace::Op::RemoteStore { .. })));
    assert!(ops.iter().any(|o| matches!(o, aptrace::Op::RemoteFence)));
    assert!(ops
        .iter()
        .any(|o| matches!(o, aptrace::Op::RemoteLoad { .. })));
    for m in [
        mlsim::ModelParams::ap1000(),
        mlsim::ModelParams::ap1000_star(),
        mlsim::ModelParams::ap1000_plus(),
    ] {
        let rep = mlsim::replay(&r.trace, &m).unwrap();
        assert!(rep.total > aputil::SimTime::ZERO, "{}", m.name);
    }
}
