//! NPB CG — conjugate gradient eigenvalue estimation.
//!
//! §5.2: *"CG is the conjugate gradient method for solving a linear
//! system of equations. The order of the input matrix is 1400 with 78184
//! nonzero elements."* The matrix is column-partitioned; every matrix ×
//! vector product produces a **full-length partial vector** that must be
//! summed across cells — the *vector global summation* whose 11 200-byte
//! messages dominate CG's time and make it the paper's worst case (§5.4).
//!
//! The vector reduction follows §4.5's ring-buffer scheme: the running
//! partial travels the SEND/RECEIVE ring once (P−1 blocking SENDs — Table
//! 3's 365.6 SENDs = 390 VGops × 15/16), and the last cell PUTs each
//! cell's 700-byte block of the total back to its owner (Table 3's 390
//! PUTs of 700 bytes). Scalar α/β reductions use the communication
//! registers (Table 3's 810 Gops = 15 outer × (2·25 inner + 4)).

use crate::util::sparse::Csr;
use crate::{Scale, Workload};
use apcore::{run, ApResult, Cell, FaultSpec, MachineConfig, RunReport, VAddr};

/// CG instance.
#[derive(Clone, Copy, Debug)]
pub struct Cg {
    /// Number of cells (16 in the paper).
    pub pe: u32,
    /// Matrix order (1400 in the paper).
    pub n: usize,
    /// Nonzeros per row (~56 in the paper: 78184/1400).
    pub per_row: usize,
    /// Outer (power-method) iterations — 15 in NPB.
    pub outer: usize,
    /// Inner CG iterations per outer — 25 in NPB.
    pub inner: usize,
    /// Stream the ring reduction in cell-block chunks instead of
    /// store-and-forwarding the whole vector per hop. §4.5 describes the
    /// ring-buffer reduction as processing data "directly" from the ring
    /// buffer, i.e. streaming; the default here is the conservative
    /// store-and-forward, and this flag is the ablation that shows what
    /// streaming buys (it multiplies the per-gop SEND count by the chunk
    /// count, so Table 3 is reported with it off).
    pub streamed_ring: bool,
}

impl Cg {
    /// Standard instance at `scale`.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Test => Cg {
                pe: 4,
                n: 64,
                per_row: 8,
                outer: 3,
                inner: 5,
                streamed_ring: false,
            },
            Scale::Paper => Cg {
                pe: 16,
                n: 1400,
                per_row: 56,
                outer: 15,
                inner: 25,
                streamed_ring: false,
            },
        }
    }

    /// The sequential reference: the identical algorithm with sequential
    /// reductions; returns the zeta estimate per outer iteration.
    pub fn reference(&self) -> Vec<f64> {
        let a = Csr::random_spd(self.n, self.per_row, 0xC6);
        let n = self.n;
        let mut x = vec![1.0f64; n];
        let mut zetas = Vec::new();
        for _ in 0..self.outer {
            // Inner CG: solve A z = x approximately.
            let mut z = vec![0.0f64; n];
            let mut r = x.clone();
            let mut p = r.clone();
            let mut q = vec![0.0f64; n];
            let mut rho: f64 = r.iter().map(|v| v * v).sum();
            for _ in 0..self.inner {
                a.matvec(&p, &mut q);
                let d: f64 = p.iter().zip(&q).map(|(a, b)| a * b).sum();
                let alpha = rho / d;
                for i in 0..n {
                    z[i] += alpha * p[i];
                    r[i] -= alpha * q[i];
                }
                let rho_new: f64 = r.iter().map(|v| v * v).sum();
                let beta = rho_new / rho;
                rho = rho_new;
                for i in 0..n {
                    p[i] = r[i] + beta * p[i];
                }
            }
            // Residual ||x - A z|| and the eigenvalue estimate.
            a.matvec(&z, &mut q);
            let resid: f64 = x
                .iter()
                .zip(&q)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>();
            let xz: f64 = x.iter().zip(&z).map(|(a, b)| a * b).sum();
            let znorm: f64 = z.iter().map(|v| v * v).sum::<f64>().sqrt();
            zetas.push(1.0 / xz + resid.sqrt());
            for i in 0..n {
                x[i] = z[i] / znorm;
            }
        }
        zetas
    }
}

/// Block bounds of `pe` in a `1..n` split over `p` cells.
fn block(n: usize, p: usize, pe: usize) -> (usize, usize) {
    let chunk = n.div_ceil(p);
    ((pe * chunk).min(n), ((pe + 1) * chunk).min(n))
}

/// Ring reduce-scatter of §4.5: input a full-length partial vector;
/// output is the summed vector's own block, with the full sum optionally
/// visible to the caller via the returned vector. `scratch`/`flag` are
/// reusable simulated buffers.
#[allow(clippy::too_many_arguments)]
async fn ring_reduce_scatter(
    cell: &mut Cell,
    xs: &mut [f64],
    scratch: VAddr,
    blocks: VAddr,
    flag: VAddr,
    vgops_done: &mut u32,
    streamed: bool,
) {
    cell.mark_gop_vector();
    let me = cell.id();
    let p = cell.ncells();
    let n = xs.len();
    let bytes = (n * 8) as u64;
    if p > 1 {
        // Chunking: 1 chunk = store-and-forward (one SEND per hop, the
        // Table-3 shape); more chunks pipeline the ring like the paper's
        // "executes the data of the ring buffer directly" streaming.
        let nchunks = if streamed { p.min(n) } else { 1 };
        let chunk = n.div_ceil(nchunks);
        for c in 0..nchunks {
            let lo = (c * chunk).min(n);
            let hi = ((c + 1) * chunk).min(n);
            if hi == lo {
                continue;
            }
            let addr = scratch + (lo * 8) as u64;
            let cbytes = ((hi - lo) * 8) as u64;
            if me == 0 {
                cell.write_slice(addr, &xs[lo..hi]);
                cell.send(1, addr, cbytes);
            } else {
                let (_, mut partial) = cell.recv_slice::<f64>(me - 1, addr, cbytes, hi - lo).await;
                for (acc, x) in partial.iter_mut().zip(xs[lo..hi].iter()) {
                    *acc += *x;
                }
                cell.work((hi - lo) as u64);
                cell.write_slice(addr, &partial);
                if me < p - 1 {
                    cell.send(me + 1, addr, cbytes);
                }
            }
        }
        let _ = bytes;
        // Last cell owns the total: PUT each owner its block (the 700-byte
        // messages of Table 3). Acknowledged per the VPP run-time system.
        if me == p - 1 {
            for owner in 0..p {
                let (lo, hi) = block(n, p, owner);
                if hi > lo {
                    cell.rts(4);
                    cell.put(
                        owner,
                        blocks,
                        scratch + (lo * 8) as u64,
                        ((hi - lo) * 8) as u64,
                        VAddr::NULL,
                        flag,
                        true,
                    );
                }
            }
            cell.wait_acks();
        }
        *vgops_done += 1;
        let (lo, hi) = block(n, p, me);
        // On machines bigger than the matrix (pe > n) the tail cells own
        // an empty block: no PUT ever targets them, so they must not wait
        // for the flag — that was a guaranteed deadlock at 4096 cells.
        if hi > lo {
            cell.wait_flag(flag, *vgops_done);
            let mine = cell.read_slice::<f64>(blocks, hi - lo).await;
            xs[lo..hi].copy_from_slice(&mine);
        }
    }
}

impl Workload for Cg {
    fn name(&self) -> &'static str {
        "CG"
    }

    fn pe(&self) -> u32 {
        self.pe
    }

    fn is_vpp(&self) -> bool {
        true
    }

    /// The same SPMD program with or without an injected fault schedule.
    /// Either way, `Ok` means every cell's zeta sequence matched the
    /// sequential reference — recovery must be numerically invisible.
    fn run_on(
        &self,
        machine: MachineConfig,
        faults: Option<&FaultSpec>,
    ) -> ApResult<RunReport<()>> {
        crate::admit(self, &machine, None)?;
        let cfg = *self;
        let a = Csr::random_spd(cfg.n, cfg.per_row, 0xC6);
        let reference = cfg.reference();
        run(machine, faults, async |cell| {
            let me = cell.id();
            let p = cell.ncells();
            let n = cfg.n;
            let (lo, hi) = block(n, p, me);
            let nb = hi - lo;
            // Simulated buffers for the ring protocol.
            let scratch = cell.alloc::<f64>(n);
            let blocks = cell.alloc::<f64>(n.div_ceil(p));
            let flag = cell.alloc_flag();
            let mut vgops = 0u32;

            // Column block of A with column indices rebased to the block:
            // entry (i, j) kept iff lo <= j < hi.
            let mut rows = vec![Vec::new(); n];
            for (i, row) in rows.iter_mut().enumerate() {
                for k in a.row_ptr[i]..a.row_ptr[i + 1] {
                    let j = a.cols[k];
                    if j >= lo && j < hi {
                        row.push((j - lo, a.vals[k]));
                    }
                }
            }
            let nnz_block: usize = rows.iter().map(|r| r.len()).sum();

            // Distributed state: this cell's block of each vector.
            let mut x = vec![1.0f64; nb];
            let mut zetas = Vec::new();
            let mut q_full = vec![0.0f64; n];

            let matvec = async |cell: &mut Cell,
                                v_block: &[f64],
                                q_full: &mut Vec<f64>,
                                vgops: &mut u32|
                   -> Vec<f64> {
                for (i, row) in rows.iter().enumerate() {
                    let mut s = 0.0;
                    for &(j, val) in row {
                        s += val * v_block[j];
                    }
                    q_full[i] = s;
                }
                cell.work(2 * nnz_block as u64);
                cell.rts(2);
                ring_reduce_scatter(
                    cell,
                    q_full,
                    scratch,
                    blocks,
                    flag,
                    vgops,
                    cfg.streamed_ring,
                )
                .await;
                q_full[lo..hi].to_vec()
            };

            for _ in 0..cfg.outer {
                let mut z = vec![0.0f64; nb];
                let mut r = x.clone();
                let mut pvec = r.clone();
                let local_rho: f64 = r.iter().map(|v| v * v).sum();
                cell.work(2 * nb as u64);
                let mut rho = cell.reduce_sum_f64(local_rho).await;
                for _ in 0..cfg.inner {
                    let q = matvec(cell, &pvec, &mut q_full, &mut vgops).await;
                    let local_d: f64 = pvec.iter().zip(&q).map(|(a, b)| a * b).sum();
                    cell.work(2 * nb as u64);
                    let d = cell.reduce_sum_f64(local_d).await;
                    let alpha = rho / d;
                    for i in 0..nb {
                        z[i] += alpha * pvec[i];
                        r[i] -= alpha * q[i];
                    }
                    cell.work(4 * nb as u64);
                    let local_rho_new: f64 = r.iter().map(|v| v * v).sum();
                    cell.work(2 * nb as u64);
                    let rho_new = cell.reduce_sum_f64(local_rho_new).await;
                    let beta = rho_new / rho;
                    rho = rho_new;
                    for i in 0..nb {
                        pvec[i] = r[i] + beta * pvec[i];
                    }
                    cell.work(2 * nb as u64);
                }
                let az = matvec(cell, &z, &mut q_full, &mut vgops).await;
                let local_resid: f64 = x.iter().zip(&az).map(|(a, b)| (a - b) * (a - b)).sum();
                let local_xz: f64 = x.iter().zip(&z).map(|(a, b)| a * b).sum();
                let local_zz: f64 = z.iter().map(|v| v * v).sum();
                cell.work(6 * nb as u64);
                let resid = cell.reduce_sum_f64(local_resid).await;
                let xz = cell.reduce_sum_f64(local_xz).await;
                let znorm = cell.reduce_sum_f64(local_zz).await.sqrt();
                zetas.push(1.0 / xz + resid.sqrt());
                for i in 0..nb {
                    x[i] = z[i] / znorm;
                }
                cell.work(nb as u64);
                cell.barrier();
            }

            // Verification against the sequential reference (reduction
            // trees reorder sums; allow relative tolerance).
            for (k, (got, want)) in zetas.iter().zip(reference.iter()).enumerate() {
                let rel = (got - want).abs() / want.abs().max(1e-30);
                assert!(
                    rel < 1e-6,
                    "cell {me}: zeta[{k}] = {got} vs reference {want} (rel {rel:e})"
                );
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aptrace::AppStats;

    #[test]
    fn cg_verifies_and_matches_table3_shape() {
        let cfg = Cg::new(Scale::Test);
        let report = cfg.run().unwrap();
        let s = AppStats::from_trace(&report.trace);
        let row = s.to_row();
        // VGops per PE = outer * (inner + 1).
        let expect_vgop = (cfg.outer * (cfg.inner + 1)) as f64;
        assert_eq!(row.vgop, expect_vgop);
        // Gops per PE = outer * (2*inner + 4).
        assert_eq!(row.gop, (cfg.outer * (2 * cfg.inner + 4)) as f64);
        // SENDs per PE = vgop * (P-1)/P — the ring structure.
        let p = cfg.pe as f64;
        assert!((row.send - expect_vgop * (p - 1.0) / p).abs() < 1e-9);
        // One PUT per vgop per PE on average (the scatter blocks).
        assert!((row.put - expect_vgop).abs() < 1e-9);
        assert_eq!(row.get, 0.0, "acknowledge GETs are excluded");
        // Message size ~ block bytes.
        let block_bytes = (cfg.n / cfg.pe as usize * 8) as f64;
        assert!(
            (row.msg_size - block_bytes).abs() < 1.0,
            "msg {} vs block {}",
            row.msg_size,
            block_bytes
        );
    }

    #[test]
    fn cg_survives_transient_outage_and_corruption() {
        use apcore::{CellId, FaultEvent, FaultKind, RecoveryParams, SimTime};
        // Link 1 -> 0 carries both the ring SEND 1 -> 2 (X-first route)
        // and the acks for ring SENDs 0 -> 1; downing it forces drops,
        // retries, and duplicate suppression. The corruption hits the
        // first ring SEND 0 -> 1.
        let spec = FaultSpec {
            seed: Some(0xC6),
            recovery: RecoveryParams::default(),
            events: vec![
                FaultEvent {
                    from: SimTime::ZERO,
                    until: SimTime::from_nanos(5_000_000),
                    kind: FaultKind::LinkDown {
                        from: CellId::new(1),
                        to: CellId::new(0),
                    },
                },
                FaultEvent {
                    from: SimTime::ZERO,
                    until: SimTime::from_nanos(1_000_000_000),
                    kind: FaultKind::Corrupt {
                        src: CellId::new(0),
                        dst: CellId::new(1),
                        count: 1,
                    },
                },
            ],
        };
        // `Ok` means every cell's zetas matched the sequential reference:
        // the recovery protocol was numerically invisible.
        let report = Cg::new(Scale::Test).run_faulted(&spec).unwrap();
        let r = report.fault.expect("faulted run carries a report");
        assert!(r.survived());
        assert!(r.corrupt_detected >= 1, "checksum caught the flip");
        assert!(r.total_retries() >= 1, "outage forced retransmissions");
        assert_eq!(report.counters.retries, r.total_retries());
    }

    #[test]
    fn reference_zetas_are_finite_and_converging() {
        let zetas = Cg::new(Scale::Test).reference();
        assert_eq!(zetas.len(), 3);
        assert!(zetas.iter().all(|z| z.is_finite()));
        // Residual shrinks across outer iterations: zeta stabilizes.
        let d1 = (zetas[1] - zetas[0]).abs();
        let d2 = (zetas[2] - zetas[1]).abs();
        assert!(d2 <= d1 * 2.0, "power iteration diverging: {zetas:?}");
    }
}
