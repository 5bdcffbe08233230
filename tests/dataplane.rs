//! The byte-moving data plane (`apmem::Memory`, `apmsc::{dma, stride}`)
//! against the independent byte-array oracle of `apfuzz::oracle`, and the
//! iteration-order guarantees of the integer-hashed transfer tables.
//!
//! The data plane translates once per region run and copies items
//! straight between frames and one payload buffer; the oracle knows
//! nothing of pages, regions or frames. Bytes, fault addresses and
//! resident-frame counts must agree with the per-item definition.

use apfuzz::oracle;
use apmem::memory::FRAME_SIZE;
use apmem::{MemError, Memory, Mmu};
use apmsc::dma::{read_virtual, read_virtual_into, write_virtual};
use apmsc::stride::{gather, gather_into, scatter};
use apmsc::StrideSpec;
use apnet::{Contention, TNet, TNetParams, Torus};
use apobs::{Seg, XferKind, XferTracker};
use aptrace::{Op, Trace};
use aputil::{CellId, SimTime, VAddr};
use mlsim::{replay, ModelParams, ReplayError};
use proptest::prelude::*;

const SMALL_LEN: u64 = 5 * 4096;
const LARGE_LEN: u64 = 3 * 256 * 1024;
const DRAM: u64 = 16 << 20;

/// One cell's memory system beside a flat mirror of its two regions: a
/// large-page region, then a small-page region mapped last so the
/// addresses past its end are unmapped.
struct Rig {
    mmu: Mmu,
    mem: Memory,
    bases: [VAddr; 2],
    flat: [Vec<u8>; 2],
    /// Which 4 KB frames of each region have been written (the regions
    /// are page-aligned, so region offsets and frames line up).
    written: [Vec<bool>; 2],
}

impl Rig {
    fn new() -> Self {
        let mut mmu = Mmu::new(DRAM);
        let large = mmu.map_anywhere(LARGE_LEN).unwrap();
        let small = mmu.map_anywhere(SMALL_LEN).unwrap();
        Rig {
            mmu,
            mem: Memory::new(DRAM),
            bases: [large, small],
            flat: [vec![0; LARGE_LEN as usize], vec![0; SMALL_LEN as usize]],
            written: [
                vec![false; (LARGE_LEN / FRAME_SIZE) as usize],
                vec![false; (SMALL_LEN / FRAME_SIZE) as usize],
            ],
        }
    }

    fn mark_written(&mut self, region: usize, off: u64, len: u64) {
        if len > 0 {
            let frames = (off / FRAME_SIZE) as usize..=((off + len - 1) / FRAME_SIZE) as usize;
            self.written[region][frames].fill(true);
        }
    }

    /// Contiguous write in both worlds.
    fn write(&mut self, region: usize, off: u64, data: &[u8]) {
        write_virtual(&self.mmu, &mut self.mem, self.bases[region] + off, data).unwrap();
        self.flat[region][off as usize..][..data.len()].copy_from_slice(data);
        self.mark_written(region, off, data.len() as u64);
    }

    /// Scatters `payload` in both worlds.
    fn scatter(&mut self, region: usize, off: u64, spec: StrideSpec, payload: &[u8]) {
        let at = self.bases[region] + off;
        scatter(&self.mmu, &mut self.mem, at, spec, payload).unwrap();
        oracle::scatter(&mut self.flat[region], off, spec, payload);
        for k in 0..spec.count as u64 {
            self.mark_written(region, off + k * spec.skip as u64, spec.item_size as u64);
        }
    }

    /// Gathers in both worlds and checks the bytes.
    fn gather(&self, region: usize, off: u64, spec: StrideSpec) -> Vec<u8> {
        let at = self.bases[region] + off;
        let bytes = gather(&self.mmu, &self.mem, at, spec).unwrap();
        assert_eq!(
            bytes,
            oracle::gather(&self.flat[region], off, spec),
            "gather bytes, {spec:?} at +{off}"
        );
        bytes
    }

    /// Whole-region readback through the contiguous DMA path; exactly the
    /// frames ever written are resident.
    fn check_regions(&self) {
        for region in 0..2 {
            let len = self.flat[region].len() as u64;
            let back = read_virtual(&self.mmu, &self.mem, self.bases[region], len).unwrap();
            assert!(back == self.flat[region], "region {region} diverged");
        }
        let written = self.written.iter().flatten().filter(|&&w| w).count();
        assert_eq!(self.mem.resident_frames(), written, "resident frames");
    }
}

fn pattern(len: u64, salt: u64) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 7 + salt * 13) % 251) as u8)
        .collect()
}

#[test]
fn items_straddling_page_boundaries_match_the_oracle() {
    let mut rig = Rig::new();
    // Small pages: 24-byte items every 4088 bytes starting 10 bytes short
    // of the first boundary, so items straddle, abut and clear boundaries.
    let spec = StrideSpec::new(24, 4, 4088);
    rig.scatter(1, 4096 - 10, spec, &pattern(spec.total_bytes(), 1));
    rig.gather(1, 4096 - 10, spec);
    // One item longer than a page.
    let spec = StrideSpec::new(9000, 2, 9100);
    rig.scatter(1, 100, spec, &pattern(spec.total_bytes(), 2));
    rig.gather(1, 100, spec);
    // Large pages: items straddling both 256 KB boundaries, and every
    // 4 KB frame boundary inside the run.
    let spec = StrideSpec::new(16, 2, 256 * 1024);
    rig.scatter(0, 256 * 1024 - 8, spec, &pattern(32, 3));
    rig.gather(0, 256 * 1024 - 8, spec);
    let spec = StrideSpec::new(40, 100, 4090);
    rig.scatter(0, 4000, spec, &pattern(spec.total_bytes(), 4));
    rig.gather(0, 4000, spec);
    rig.check_regions();
}

#[test]
fn figure3_reblocking_and_empty_streams() {
    let mut rig = Rig::new();
    rig.write(1, 0, &pattern(40, 5));
    // Figure 3: the sender gathers 3 items of 4, the receiver scatters the
    // same 12 bytes as 2 items of 6.
    let payload = rig.gather(1, 0, StrideSpec::new(4, 3, 10));
    rig.scatter(1, 1000, StrideSpec::new(6, 2, 20), &payload);
    assert_eq!(rig.flat[1][1000..1006], payload[..6]);
    assert_eq!(rig.flat[1][1020..1026], payload[6..]);
    // count == 0 moves nothing and translates nothing, even at an
    // unmapped base.
    let empty = StrideSpec::new(8, 0, 8);
    assert!(rig.gather(1, 0, empty).is_empty());
    rig.scatter(1, 0, empty, &[]);
    let nowhere = VAddr::new(0xdead_0000);
    assert_eq!(gather(&rig.mmu, &rig.mem, nowhere, empty), Ok(vec![]));
    assert_eq!(scatter(&rig.mmu, &mut rig.mem, nowhere, empty, &[]), Ok(()));
    rig.check_regions();
}

#[test]
fn a_transfer_running_off_its_mapping_faults_at_the_first_unmapped_run() {
    fn fault<T>(addr: VAddr) -> Result<T, MemError> {
        Err(MemError::PageFault { addr })
    }
    let mut rig = Rig::new();
    let end = rig.bases[1] + SMALL_LEN;
    // Items 0..=2 are mapped; item 3 starts 4 bytes before the end of the
    // mapping, so the fault is raised at the end of the region, inside it.
    let spec = StrideSpec::new(16, 6, 4096);
    let off = SMALL_LEN - 3 * 4096 - 4;
    let base = rig.bases[1] + off;
    assert_eq!(gather(&rig.mmu, &rig.mem, base, spec), fault(end));
    let mut buf = vec![0u8; spec.total_bytes() as usize];
    assert_eq!(
        gather_into(&rig.mmu, &rig.mem, base, spec, &mut buf),
        fault(end)
    );
    let payload = pattern(spec.total_bytes(), 6);
    assert_eq!(
        scatter(&rig.mmu, &mut rig.mem, base, spec, &payload),
        fault(end)
    );
    // The items before the fault landed, as did the mapped head of the
    // faulting one.
    let landed = StrideSpec::new(16, 3, 4096);
    oracle::scatter(&mut rig.flat[1], off, landed, &payload[..48]);
    rig.flat[1][SMALL_LEN as usize - 4..].copy_from_slice(&payload[48..52]);
    rig.mark_written(1, off, SMALL_LEN - off);
    rig.check_regions();
    // An item that starts past the mapping faults at its own address.
    let past = StrideSpec::new(8, 2, 4096);
    assert_eq!(gather(&rig.mmu, &rig.mem, end - 4096, past), fault(end));
    // The contiguous entry points report the same first unmapped run.
    assert_eq!(read_virtual(&rig.mmu, &rig.mem, end - 100, 200), fault(end));
    assert_eq!(
        read_virtual_into(&rig.mmu, &rig.mem, end - 100, &mut [0u8; 200]),
        fault(end)
    );
    assert_eq!(
        write_virtual(&rig.mmu, &mut rig.mem, end - 100, &[7u8; 200]),
        fault(end)
    );
    rig.flat[1][SMALL_LEN as usize - 100..].fill(7);
    rig.check_regions();
}

#[test]
fn reads_never_materialize_frames() {
    let mut rig = Rig::new();
    let spec = StrideSpec::new(64, 50, 5000);
    assert!(rig.gather(0, 0, spec).iter().all(|&b| b == 0));
    rig.check_regions();
    assert_eq!(rig.mem.resident_frames(), 0, "reads allocate nothing");
    // Three 8-byte items a page apart, each straddling a frame boundary:
    // four frames become resident and no others, and reading them back
    // changes nothing.
    rig.scatter(1, 4092, StrideSpec::new(8, 3, 4096), &pattern(24, 7));
    assert_eq!(rig.mem.resident_frames(), 4);
    rig.check_regions();
    assert_eq!(rig.mem.resident_frames(), 4);
}

proptest! {
    /// Any interleaving of strided and contiguous transfers over small
    /// and large pages leaves the bytes and resident frames the per-item
    /// definition predicts.
    #[test]
    fn data_plane_matches_the_byte_array_oracle(
        ops in proptest::collection::vec(
            (any::<bool>(), 0u8..4, 0u64..1 << 20, 1u32..300, 0u32..40, 0u32..9000),
            1..40,
        )
    ) {
        let mut rig = Rig::new();
        for (salt, (large, kind, off, item, count, gap)) in ops.into_iter().enumerate() {
            let region = usize::from(!large);
            let len = rig.flat[region].len() as u64;
            let spec = StrideSpec::new(item, count, item + gap);
            if spec.span_bytes() > len {
                continue;
            }
            let off = off % (len - spec.span_bytes() + 1);
            match kind {
                0 => {
                    rig.gather(region, off, spec);
                }
                1 => rig.scatter(region, off, spec, &pattern(spec.total_bytes(), salt as u64)),
                2 => rig.write(region, off, &pattern(spec.span_bytes(), salt as u64)),
                _ => {
                    let at = rig.bases[region] + off;
                    let back = read_virtual(&rig.mmu, &rig.mem, at, spec.span_bytes()).unwrap();
                    let span = &rig.flat[region][off as usize..][..spec.span_bytes() as usize];
                    prop_assert!(back == span, "contiguous read at +{off}");
                }
            }
        }
        rig.check_regions();
    }
}

/// A scrambled visiting order of `0..n` (multiplication by a unit mod n).
fn scrambled(n: u64) -> impl Iterator<Item = u64> {
    (0..n).map(move |i| (i * 7919 + 13) % n)
}

#[test]
fn nothing_read_out_of_the_hashed_tables_depends_on_bucket_order() {
    // XferTracker: ids started in scrambled order come back ascending.
    let mut xfers = XferTracker::new();
    for tid in scrambled(1000) {
        let kind = if tid % 3 == 0 {
            XferKind::Get
        } else {
            XferKind::Put
        };
        xfers.start(tid + 1, kind, 64, SimTime::from_nanos(tid));
    }
    for tid in scrambled(1000).filter(|t| t % 2 == 0) {
        xfers.charge(tid + 1, Seg::Net, SimTime::from_micros(5));
        xfers.finish(tid + 1, SimTime::from_micros(5));
    }
    let expect: Vec<u64> = (1..=1000).filter(|t| t % 2 == 0).collect();
    assert_eq!(xfers.unfinished(), expect);
    let gets = expect.iter().filter(|t| (*t - 1) % 3 == 0).count() as u32;
    assert_eq!(xfers.inflight(), (500 - gets, gets));

    // TNet link stats: sorted by (from, to), and — busy time being a sum —
    // the same whichever order the messages were injected in.
    let pairs: Vec<(CellId, CellId)> = scrambled(64 * 64)
        .map(|i| (CellId::new((i / 64) as u32), CellId::new((i % 64) as u32)))
        .collect();
    let busy = |order: &mut dyn Iterator<Item = &(CellId, CellId)>| {
        let mut net = TNet::new(Torus::new(8, 8), TNetParams::default(), Contention::None);
        net.enable_link_stats();
        for &(src, dst) in order {
            net.transfer(SimTime::ZERO, src, dst, 100);
        }
        (net.link_busy_per_link(), net.link_busy_total())
    };
    let (forward, total) = busy(&mut pairs.iter());
    let (backward, _) = busy(&mut pairs.iter().rev());
    assert_eq!(forward, backward);
    assert!(forward
        .windows(2)
        .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
    assert_eq!(
        forward.len(),
        64 * 4,
        "every directed link of the 8x8 torus"
    );
    let sum = forward.iter().fold(SimTime::ZERO, |acc, l| acc + l.2);
    assert_eq!(sum, total);

    // MLSim replay: the stuck-PE report names PEs in ascending order
    // whatever they were blocked on.
    let mut trace = Trace::new(40);
    for pe in scrambled(40).filter(|pe| pe % 4 != 0) {
        let cell = CellId::new(pe as u32);
        trace.pe_mut(cell).push(match pe % 4 {
            1 => Op::WaitFlag {
                flag: 0x1000 * pe,
                target: 1,
            },
            2 => Op::Recv {
                src: CellId::new(0),
                bytes: 8,
            },
            _ => Op::RegLoad { reg: pe as u16 },
        });
    }
    let Err(ReplayError::Stuck(report)) = replay(&trace, &ModelParams::ap1000_plus()) else {
        panic!("a trace of unmatched waits must be reported stuck");
    };
    let expect: Vec<String> = (0..40)
        .filter(|pe| pe % 4 != 0)
        .map(|pe| format!("pe{pe}@op0"))
        .collect();
    assert_eq!(report, expect.join(", "));
}
