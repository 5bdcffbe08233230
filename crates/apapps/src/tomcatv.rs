//! SPEC TOMCATV — vectorized mesh generation.
//!
//! §5.2 runs TOMCATV (257×257 mesh) in two flavours: *"one with stride
//! data transfers, the other without stride data transfers, meaning each
//! item was sent one by one."* The mesh is partitioned along the second
//! array dimension (columns), so each cell's boundary **columns** are
//! replicated in its neighbours as a two-column *overlap area* (Figure 2)
//! — and a column is strided in row-major storage, which is precisely the
//! case §2.2 says needs hardware stride transfer.
//!
//! Per iteration each cell refreshes the overlap of mesh array X by
//! PUTting its two edge columns to each neighbour and refreshes Y by
//! GETting the neighbour's columns (Table 3: PUTS = GETS = 37.5/PE over
//! 10 iterations), computes a wide-stencil relaxation, and reduces the
//! mesh error (2 Gops and 8 barriers per iteration). In **no-stride**
//! mode every column op becomes 257 single-element transfers — Table 3's
//! "number of communications becomes 257 times and the message size one
//! 257th" — and the run-time system burns proportionally more address
//! arithmetic (the paper's 24% RTS bar).

use crate::{Scale, Workload};
use apcore::{run, ApResult, FaultSpec, MachineConfig, RunReport, StrideSpec, VAddr};

/// TOMCATV instance on an `n × n` mesh over `pe` cells.
#[derive(Clone, Copy, Debug)]
pub struct Tomcatv {
    /// Number of cells (16 in the paper).
    pub pe: u32,
    /// Mesh points per side (257 in SPEC/the paper).
    pub n: usize,
    /// Relaxation iterations (the paper simulated 10).
    pub iters: usize,
    /// Use hardware stride transfers (`TC st`) or element-by-element
    /// transfers (`TC no st`).
    pub stride: bool,
}

const OMEGA: f64 = 0.3;
const KAPPA: f64 = 0.05;

impl Tomcatv {
    /// Standard instance at `scale`.
    pub fn new(scale: Scale, stride: bool) -> Self {
        match scale {
            Scale::Test => Tomcatv {
                pe: 4,
                n: 33,
                iters: 2,
                stride,
            },
            Scale::Paper => Tomcatv {
                pe: 16,
                n: 257,
                iters: 10,
                stride,
            },
        }
    }

    fn xinit(i: usize, j: usize) -> f64 {
        j as f64 + 0.3 * ((i * j) as f64 * 0.01).sin()
    }

    fn yinit(i: usize, j: usize) -> f64 {
        i as f64 + 0.3 * ((i + 2 * j) as f64 * 0.01).cos()
    }

    /// One relaxation step of a field; returns the max change. `get`
    /// reads the *old* field at `(i, j)`.
    fn relax(
        n: usize,
        get: impl Fn(usize, usize) -> f64,
        put: &mut impl FnMut(usize, usize, f64),
    ) -> f64 {
        let mut err = 0.0f64;
        for i in 2..n - 2 {
            for j in 2..n - 2 {
                let near = (get(i, j - 1) + get(i, j + 1) + get(i - 1, j) + get(i + 1, j)) / 4.0;
                let far = (get(i, j - 2) + get(i, j + 2)) / 2.0;
                let v = get(i, j);
                let nv = v + OMEGA * (near - v) + KAPPA * (far - v);
                put(i, j, nv);
                err = err.max((nv - v).abs());
            }
        }
        err
    }

    /// Sequential reference: `(X, Y, per-iteration errors)`.
    pub fn reference(&self) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let n = self.n;
        let mut x: Vec<f64> = (0..n * n).map(|k| Self::xinit(k / n, k % n)).collect();
        let mut y: Vec<f64> = (0..n * n).map(|k| Self::yinit(k / n, k % n)).collect();
        let mut errs = Vec::new();
        for _ in 0..self.iters {
            let old = x.clone();
            let ex = Self::relax(n, |i, j| old[i * n + j], &mut |i, j, v| x[i * n + j] = v);
            let old = y.clone();
            let ey = Self::relax(n, |i, j| old[i * n + j], &mut |i, j, v| y[i * n + j] = v);
            errs.push(ex.max(ey));
        }
        (x, y, errs)
    }
}

impl Workload for Tomcatv {
    fn name(&self) -> &'static str {
        if self.stride {
            "TC st"
        } else {
            "TC no st"
        }
    }

    fn pe(&self) -> u32 {
        self.pe
    }

    fn is_vpp(&self) -> bool {
        true
    }

    fn run_on(
        &self,
        machine: MachineConfig,
        faults: Option<&FaultSpec>,
    ) -> ApResult<RunReport<()>> {
        crate::admit(self, &machine, faults)?;
        let cfg = *self;
        let reference = cfg.reference();
        run(machine, None, async |cell| {
            let me = cell.id();
            let p = cell.ncells();
            let n = cfg.n;
            let chunk = n.div_ceil(p);
            let clo = (me * chunk).min(n);
            let chi = ((me + 1) * chunk).min(n);
            let nb = chi - clo;
            assert!(nb == 0 || nb >= 2, "each cell needs at least two columns");
            let w = chunk + 4; // uniform local width: 2 overlap columns per side
                               // Local fields in simulated memory: rows 0..n, local cols
                               // 0..w; local col 2+k holds global col clo+k.
            let xa = cell.alloc::<f64>(n * w);
            let ya = cell.alloc::<f64>(n * w);
            let xflag = cell.alloc_flag();
            let yflag = cell.alloc_flag();
            let (mut xput_seen, mut yget_seen) = (0u32, 0u32);

            // Host mirrors (the data plane keeps them in sync with the
            // simulated arrays at the points that matter).
            let mut xh = vec![0.0f64; n * w];
            let mut yh = vec![0.0f64; n * w];
            for i in 0..n {
                for c in 0..w {
                    let j = (clo + c).wrapping_sub(2);
                    if j < n {
                        xh[i * w + c] = Tomcatv::xinit(i, j);
                        yh[i * w + c] = Tomcatv::yinit(i, j);
                    }
                }
            }
            cell.write_slice(xa, &xh);
            cell.write_slice(ya, &yh);

            // Transfers one local column to/from a neighbour.
            let col_addr = |base: VAddr, c: usize| base + (c * 8) as u64;
            let colspec = StrideSpec::new(8, n as u32, (w * 8) as u32);

            let left = me.checked_sub(1);
            let right = if me + 1 < p && chi < n {
                Some(me + 1)
            } else {
                None
            };
            let left = if clo > 0 { left } else { None };

            for iter in 0..cfg.iters {
                // ---- phase 1: X overlaps via PUT --------------------
                cell.barrier();
                let mut xput_incoming = 0u32;
                // Incoming: left neighbour fills my cols 0,1; right fills
                // my cols 2+nb, 3+nb.
                if left.is_some() {
                    xput_incoming += 2;
                }
                if right.is_some() {
                    xput_incoming += 2;
                }
                let push_col = |cell: &mut apcore::Cell, dst: usize, src_c: usize, dst_c: usize| {
                    if cfg.stride {
                        // §2.1: the RTS discovers the stride pattern by
                        // walking the index space — cost scales with the
                        // column length (the paper's 7% RTS bar).
                        cell.rts(n as u64);
                        cell.put_stride(
                            dst,
                            col_addr(xa, dst_c),
                            col_addr(xa, src_c),
                            colspec,
                            colspec,
                            VAddr::NULL,
                            xflag,
                            true,
                        );
                    } else {
                        // Element by element: n single-f64 PUTs; the flag
                        // counts elements, and the RTS recalculates the
                        // address for every one.
                        for i in 0..n {
                            // Full global→local index conversion per
                            // element (the paper's 24% RTS bar).
                            cell.rts(6);
                            cell.put(
                                dst,
                                col_addr(xa, dst_c) + (i * w * 8) as u64,
                                col_addr(xa, src_c) + (i * w * 8) as u64,
                                8,
                                VAddr::NULL,
                                xflag,
                                true,
                            );
                        }
                    }
                };
                if let Some(l) = left {
                    // My global cols clo, clo+1 -> left's right overlap.
                    // Left neighbour always holds a full chunk.
                    push_col(cell, l, 2, 2 + chunk);
                    push_col(cell, l, 3, 3 + chunk);
                }
                if let Some(r) = right {
                    // My global cols chi-2, chi-1 -> right's cols 0, 1.
                    push_col(cell, r, 2 + nb - 2, 0);
                    push_col(cell, r, 2 + nb - 1, 1);
                }
                cell.wait_acks();
                cell.barrier();
                let per_op = if cfg.stride { 1 } else { n as u32 };
                xput_seen += xput_incoming * per_op;
                if xput_incoming > 0 {
                    cell.wait_flag(xflag, xput_seen);
                }

                // ---- phase 2: Y overlaps via GET ---------------------
                cell.barrier();
                let pull_col = |cell: &mut apcore::Cell, src: usize, src_c: usize, dst_c: usize| {
                    if cfg.stride {
                        cell.rts(n as u64);
                        cell.get_stride(
                            src,
                            col_addr(ya, src_c),
                            col_addr(ya, dst_c),
                            colspec,
                            colspec,
                            VAddr::NULL,
                            yflag,
                        );
                    } else {
                        for i in 0..n {
                            cell.rts(6);
                            cell.get(
                                src,
                                col_addr(ya, src_c) + (i * w * 8) as u64,
                                col_addr(ya, dst_c) + (i * w * 8) as u64,
                                8,
                                VAddr::NULL,
                                yflag,
                            );
                        }
                    }
                };
                let mut ygets = 0u32;
                if let Some(l) = left {
                    // Left's rightmost owned cols (global clo-2, clo-1).
                    pull_col(cell, l, 2 + chunk - 2, 0);
                    pull_col(cell, l, 2 + chunk - 1, 1);
                    ygets += 2;
                }
                if let Some(r) = right {
                    // Right's leftmost owned cols (global chi, chi+1).
                    pull_col(cell, r, 2, 2 + nb);
                    pull_col(cell, r, 3, 3 + nb);
                    ygets += 2;
                }
                yget_seen += ygets * per_op;
                if ygets > 0 {
                    cell.wait_flag(yflag, yget_seen);
                }
                cell.barrier();

                // ---- phase 3: relaxation ------------------------------
                cell.barrier();
                let xh_old = cell.read_slice::<f64>(xa, n * w).await;
                let yh_old = cell.read_slice::<f64>(ya, n * w).await;
                xh.copy_from_slice(&xh_old);
                yh.copy_from_slice(&yh_old);
                let mut errx = 0.0f64;
                let mut erry = 0.0f64;
                // Owned interior columns only.
                let jlo = clo.max(2);
                let jhi = chi.min(n - 2);
                for i in 2..n - 2 {
                    for j in jlo..jhi {
                        let c = j - clo + 2;
                        let g = |arr: &Vec<f64>, di: isize, dc: isize| {
                            arr[(i as isize + di) as usize * w + (c as isize + dc) as usize]
                        };
                        let v = g(&xh_old, 0, 0);
                        let near = (g(&xh_old, 0, -1)
                            + g(&xh_old, 0, 1)
                            + g(&xh_old, -1, 0)
                            + g(&xh_old, 1, 0))
                            / 4.0;
                        let far = (g(&xh_old, 0, -2) + g(&xh_old, 0, 2)) / 2.0;
                        let nv = v + OMEGA * (near - v) + KAPPA * (far - v);
                        xh[i * w + c] = nv;
                        errx = errx.max((nv - v).abs());
                        let v = g(&yh_old, 0, 0);
                        let near = (g(&yh_old, 0, -1)
                            + g(&yh_old, 0, 1)
                            + g(&yh_old, -1, 0)
                            + g(&yh_old, 1, 0))
                            / 4.0;
                        let far = (g(&yh_old, 0, -2) + g(&yh_old, 0, 2)) / 2.0;
                        let nv = v + OMEGA * (near - v) + KAPPA * (far - v);
                        yh[i * w + c] = nv;
                        erry = erry.max((nv - v).abs());
                    }
                }
                cell.write_slice(xa, &xh);
                cell.write_slice(ya, &yh);
                // The real TOMCATV computes RX/RY residuals with Jacobian
                // terms, a tridiagonal solve per column, and the additions
                // — ≈80 flops per point per field; our simplified stencil
                // charges the original's cost to keep the paper's balance.
                cell.work(((n - 4) as u64) * ((jhi.saturating_sub(jlo)) as u64) * 160);
                cell.barrier();

                // ---- phase 4: error reduction -------------------------
                cell.barrier();
                let gx = cell.reduce_max_f64(errx).await;
                let gy = cell.reduce_max_f64(erry).await;
                let global_err = gx.max(gy);
                let want = reference.2[iter];
                assert!(
                    (global_err - want).abs() <= 1e-12 * want.abs().max(1.0),
                    "cell {me}: iter {iter} err {global_err} vs reference {want}"
                );
                cell.barrier();
            }

            // ---- verification of the owned mesh region ----------------
            let (rx, ry, _) = &reference;
            for i in 0..n {
                for j in clo..chi {
                    let c = j - clo + 2;
                    let (gx, gy) = (xh[i * w + c], yh[i * w + c]);
                    let (wx, wy) = (rx[i * n + j], ry[i * n + j]);
                    assert!(
                        (gx - wx).abs() < 1e-11 && (gy - wy).abs() < 1e-11,
                        "cell {me}: mesh({i},{j}) = ({gx},{gy}) vs ({wx},{wy})"
                    );
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aptrace::AppStats;

    #[test]
    fn stride_version_verifies_with_table3_shape() {
        let cfg = Tomcatv::new(Scale::Test, true);
        let report = cfg.run().unwrap();
        let row = AppStats::from_trace(&report.trace).to_row();
        // 2 columns × 2 sides for interior cells, halved at the edges:
        // mean (4·(P−2) + 2·2)/P per iteration, for PUTs (X) and GETs (Y).
        let p = cfg.pe as f64;
        let per_iter = (4.0 * (p - 2.0) + 4.0) / p;
        assert!(
            (row.puts - per_iter * cfg.iters as f64).abs() < 1e-9,
            "puts {}",
            row.puts
        );
        assert!(
            (row.gets - per_iter * cfg.iters as f64).abs() < 1e-9,
            "gets {}",
            row.gets
        );
        assert_eq!(row.put, 0.0);
        assert_eq!(row.get, 0.0);
        assert_eq!(row.sync, (8 * cfg.iters) as f64);
        assert_eq!(row.gop, (2 * cfg.iters) as f64);
        // One column = n × 8 bytes.
        assert!((row.msg_size - (cfg.n * 8) as f64).abs() < 1e-9);
    }

    #[test]
    fn no_stride_version_verifies_with_n_times_more_messages() {
        let st = Tomcatv::new(Scale::Test, true);
        let no = Tomcatv::new(Scale::Test, false);
        let r_st = st.run().unwrap();
        let r_no = no.run().unwrap();
        let row_st = AppStats::from_trace(&r_st.trace).to_row();
        let row_no = AppStats::from_trace(&r_no.trace).to_row();
        // The paper's 257× rule: ops multiply by n, message size divides by n.
        assert!((row_no.put - row_st.puts * st.n as f64).abs() < 1e-6);
        assert!((row_no.get - row_st.gets * st.n as f64).abs() < 1e-6);
        assert_eq!(row_no.msg_size, 8.0);
        // And the emulated machine runs measurably slower without stride.
        assert!(
            r_no.total_time > r_st.total_time,
            "no-stride {} must exceed stride {}",
            r_no.total_time,
            r_st.total_time
        );
    }

    #[test]
    fn reference_errors_shrink() {
        let (_, _, errs) = Tomcatv::new(Scale::Test, true).reference();
        assert!(errs.windows(2).all(|w| w[1] <= w[0] * 1.5), "errs {errs:?}");
    }
}
