//! NPB SP — scalar pentadiagonal ADI solver.
//!
//! §5.2: *"SP computes the solution for scalar pentadiagonal equations …
//! on the 64×64×64 input array."* Each ADI iteration sweeps pentadiagonal
//! line solves along x, y, and z. The cube is Z-slab partitioned, so x and
//! y sweeps are local while the **z sweep pipelines across the cells**:
//! forward elimination hands the next cell the last two eliminated rows of
//! each line, back substitution hands the previous cell the first two
//! solution values — one medium-sized PUT per y-batch in each direction,
//! which is where SP's "many ~1.3 KB messages" (Table 3) come from.

use crate::util::penta::{back_step, eliminate_step, WRow};

/// Work charged per grid point per sweep. The real NPB SP solves five
/// coupled pentadiagonal systems with full coefficient assembly — about
/// 970 flops per point per iteration (102 Gflop for 400 iterations on the
/// 64³ class-A grid), i.e. ~320 per sweep; our simplified kernel computes
/// one system but charges the benchmark's cost so the compute/communicate
/// balance matches the paper's.
const SP_FLOPS_PER_POINT: u64 = 320;
use crate::{Scale, Workload};
use apcore::{run, ApResult, FaultSpec, MachineConfig, RunReport, VAddr};

/// SP instance: an `n × n × n` cube over `pe` cells (`pe` divides `n`).
#[derive(Clone, Copy, Debug)]
pub struct Sp {
    /// Number of cells (64 in the paper).
    pub pe: u32,
    /// Cube edge (64 in the paper).
    pub n: usize,
    /// ADI iterations (the paper simulated the first 10 of 400).
    pub iters: usize,
}

impl Sp {
    /// Standard instance at `scale`.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Test => Sp {
                pe: 2,
                n: 8,
                iters: 2,
            },
            Scale::Paper => Sp {
                pe: 64,
                n: 64,
                iters: 4,
            },
        }
    }

    /// Pentadiagonal band coefficients at position `w` of a line in
    /// direction `dir` with line id `(u, v)` — deterministic, diagonally
    /// dominant.
    fn coeffs(dir: usize, u: usize, v: usize, w: usize, n: usize) -> [f64; 5] {
        let h = |a: usize, b: usize, c: usize, d: usize| -> f64 {
            let x = (a
                .wrapping_mul(2654435761)
                .wrapping_add(b.wrapping_mul(40503))
                .wrapping_add(c.wrapping_mul(97))
                .wrapping_add(d)) as u32;
            let x = x ^ (x >> 15);
            (x % 1000) as f64 / 1000.0 - 0.5
        };
        let a2 = if w >= 2 { h(dir, u, v, w * 4) } else { 0.0 };
        let a1 = if w >= 1 { h(dir, u, v, w * 4 + 1) } else { 0.0 };
        let c1 = if w + 1 < n {
            h(dir, u, v, w * 4 + 2)
        } else {
            0.0
        };
        let c2 = if w + 2 < n {
            h(dir, u, v, w * 4 + 3)
        } else {
            0.0
        };
        let d = 4.0 + a2.abs() + a1.abs() + c1.abs() + c2.abs();
        [a2, a1, d, c1, c2]
    }

    /// Initial field value at `(x, y, z)`.
    fn init_at(x: usize, y: usize, z: usize) -> f64 {
        ((x * 31 + y * 17 + z * 7) % 101) as f64 / 101.0 + 0.5
    }

    /// Sequential reference: the identical sweeps on the full cube;
    /// returns the final field in `(z, y, x)` order.
    pub fn reference(&self) -> Vec<f64> {
        let n = self.n;
        let idx = |x: usize, y: usize, z: usize| (z * n + y) * n + x;
        let mut f: Vec<f64> = vec![0.0; n * n * n];
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    f[idx(x, y, z)] = Self::init_at(x, y, z);
                }
            }
        }
        let solve_line = |f: &mut Vec<f64>, dir: usize, u: usize, v: usize| {
            // Gather the line, solve, scatter back.
            let get = |w: usize| match dir {
                0 => idx(w, u, v),
                1 => idx(u, w, v),
                _ => idx(u, v, w),
            };
            let mut ws: Vec<WRow> = Vec::with_capacity(n);
            for w in 0..n {
                let row = Self::coeffs(dir, u, v, w, n);
                let rhs = f[get(w)];
                let prev1 = if w >= 1 { Some(&ws[w - 1]) } else { None };
                let prev2 = if w >= 2 { Some(&ws[w - 2]) } else { None };
                let e = eliminate_step(prev2, prev1, row, rhs);
                ws.push(e);
            }
            let mut xs = vec![0.0; n];
            for w in (0..n).rev() {
                let x1 = if w + 1 < n { Some(xs[w + 1]) } else { None };
                let x2 = if w + 2 < n { Some(xs[w + 2]) } else { None };
                xs[w] = back_step(&ws[w], x1, x2);
            }
            for w in 0..n {
                f[get(w)] = xs[w];
            }
        };
        for _ in 0..self.iters {
            for dir in 0..3 {
                for u in 0..n {
                    for v in 0..n {
                        solve_line(&mut f, dir, u, v);
                    }
                }
            }
        }
        f
    }
}

impl Workload for Sp {
    fn name(&self) -> &'static str {
        "SP"
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
        crate::must_divide(self, "n", self.n)?;
        let cfg = *self;
        let reference = cfg.reference();
        run(machine, None, async |cell| {
            let me = cell.id();
            let p = cell.ncells();
            let n = cfg.n;
            let zb = n / p;
            let zlo = me * zb;
            // Local field slab, (z_local, y, x) order.
            let li = |x: usize, y: usize, zz: usize| (zz * n + y) * n + x;
            let mut f: Vec<f64> = vec![0.0; zb * n * n];
            for zz in 0..zb {
                for y in 0..n {
                    for x in 0..n {
                        f[li(x, y, zz)] = Sp::init_at(x, y, zlo + zz);
                    }
                }
            }
            // Simulated message buffers: one slot per y-batch so the
            // pipeline can run ahead without overwriting unread carries
            // (the §3.1 hazard send/recv flags exist to prevent). Forward
            // carries are 8 f64 per line, backward 2 f64 per line.
            let fwd_in = cell.alloc::<f64>(8 * n * n);
            let fwd_out = cell.alloc::<f64>(8 * n * n);
            let bwd_in = cell.alloc::<f64>(2 * n * n);
            let bwd_out = cell.alloc::<f64>(2 * n * n);
            let fwd_flag = cell.alloc_flag();
            let bwd_flag = cell.alloc_flag();
            let (mut fwd_seen, mut bwd_seen) = (0u32, 0u32);
            cell.barrier();

            for _ in 0..cfg.iters {
                // ---- x sweep (local lines) ---------------------------
                for zz in 0..zb {
                    for y in 0..n {
                        let mut ws: Vec<WRow> = Vec::with_capacity(n);
                        for x in 0..n {
                            let row = Sp::coeffs(0, y, zlo + zz, x, n);
                            let prev1 = if x >= 1 { Some(&ws[x - 1]) } else { None };
                            let prev2 = if x >= 2 { Some(&ws[x - 2]) } else { None };
                            ws.push(eliminate_step(prev2, prev1, row, f[li(x, y, zz)]));
                        }
                        let mut xs = vec![0.0; n];
                        for x in (0..n).rev() {
                            let x1 = if x + 1 < n { Some(xs[x + 1]) } else { None };
                            let x2 = if x + 2 < n { Some(xs[x + 2]) } else { None };
                            xs[x] = back_step(&ws[x], x1, x2);
                        }
                        for x in 0..n {
                            f[li(x, y, zz)] = xs[x];
                        }
                    }
                }
                cell.work(zb as u64 * n as u64 * n as u64 * SP_FLOPS_PER_POINT);
                cell.barrier();

                // ---- y sweep (local lines) ---------------------------
                for zz in 0..zb {
                    for x in 0..n {
                        let mut ws: Vec<WRow> = Vec::with_capacity(n);
                        for y in 0..n {
                            let row = Sp::coeffs(1, x, zlo + zz, y, n);
                            let prev1 = if y >= 1 { Some(&ws[y - 1]) } else { None };
                            let prev2 = if y >= 2 { Some(&ws[y - 2]) } else { None };
                            ws.push(eliminate_step(prev2, prev1, row, f[li(x, y, zz)]));
                        }
                        let mut xs = vec![0.0; n];
                        for y in (0..n).rev() {
                            let x1 = if y + 1 < n { Some(xs[y + 1]) } else { None };
                            let x2 = if y + 2 < n { Some(xs[y + 2]) } else { None };
                            xs[y] = back_step(&ws[y], x1, x2);
                        }
                        for y in 0..n {
                            f[li(x, y, zz)] = xs[y];
                        }
                    }
                }
                cell.work(zb as u64 * n as u64 * n as u64 * SP_FLOPS_PER_POINT);
                cell.barrier();

                // ---- z sweep (pipelined across cells, batched by y) ---
                // Per-line eliminated rows, kept for back substitution:
                // ws_all[y][x][zz].
                let mut ws_all: Vec<Vec<Vec<WRow>>> = vec![vec![Vec::with_capacity(zb); n]; n];
                for y in 0..n {
                    // Receive the carry rows (prev1, prev2 per line).
                    let mut carry: Vec<(Option<WRow>, Option<WRow>)> = vec![(None, None); n];
                    if me > 0 {
                        fwd_seen += 1;
                        cell.wait_flag(fwd_flag, fwd_seen);
                        let slot = fwd_in + (y * 8 * n * 8) as u64;
                        let data = cell.read_slice::<f64>(slot, 8 * n).await;
                        for (x, c) in carry.iter_mut().enumerate() {
                            let b = &data[8 * x..8 * x + 8];
                            // A zero diagonal marks "no such row yet"
                            // (global row 1 has only one predecessor);
                            // eliminated rows of a dominant system always
                            // have diag ≥ 4, so 0 is unambiguous.
                            c.0 = (b[0] != 0.0).then(|| [b[0], b[1], b[2], b[3]]); // prev2
                            c.1 = Some([b[4], b[5], b[6], b[7]]); // prev1
                        }
                    }
                    for x in 0..n {
                        let (mut prev2, mut prev1) = carry[x];
                        for zz in 0..zb {
                            let z = zlo + zz;
                            let row = Sp::coeffs(2, x, y, z, n);
                            let e = eliminate_step(
                                prev2.as_ref(),
                                prev1.as_ref(),
                                row,
                                f[li(x, y, zz)],
                            );
                            ws_all[y][x].push(e);
                            prev2 = prev1;
                            prev1 = Some(e);
                        }
                        carry[x] = (prev2, prev1);
                    }
                    cell.work(n as u64 * zb as u64 * (SP_FLOPS_PER_POINT - 60));
                    if me + 1 < p {
                        // Forward the carry batch to the next cell.
                        let mut out = vec![0.0f64; 8 * n];
                        for (x, c) in carry.iter().enumerate() {
                            let p2 = c.0.unwrap_or_default();
                            let p1 = c.1.expect("at least one local row");
                            out[8 * x..8 * x + 4].copy_from_slice(&p2);
                            out[8 * x + 4..8 * x + 8].copy_from_slice(&p1);
                        }
                        let slot_out = fwd_out + (y * 8 * n * 8) as u64;
                        let slot_in = fwd_in + (y * 8 * n * 8) as u64;
                        cell.write_slice(slot_out, &out);
                        cell.rts(4);
                        cell.put(
                            me + 1,
                            slot_in,
                            slot_out,
                            (8 * n * 8) as u64,
                            VAddr::NULL,
                            fwd_flag,
                            true,
                        );
                    }
                }
                if me + 1 < p {
                    cell.wait_acks();
                }

                // Back substitution, pipelined in reverse, batched by y.
                for y in 0..n {
                    let mut next: Vec<(Option<f64>, Option<f64>)> = vec![(None, None); n];
                    if me + 1 < p {
                        bwd_seen += 1;
                        cell.wait_flag(bwd_flag, bwd_seen);
                        let slot = bwd_in + (y * 2 * n * 8) as u64;
                        let data = cell.read_slice::<f64>(slot, 2 * n).await;
                        for (x, c) in next.iter_mut().enumerate() {
                            c.0 = Some(data[2 * x]); // x_{i+1}
                            c.1 = Some(data[2 * x + 1]); // x_{i+2}
                        }
                    }
                    for x in 0..n {
                        let (mut x1, mut x2) = next[x];
                        for zz in (0..zb).rev() {
                            let v = back_step(&ws_all[y][x][zz], x1, x2);
                            f[li(x, y, zz)] = v;
                            x2 = x1;
                            x1 = Some(v);
                        }
                        next[x] = (x1, x2);
                    }
                    cell.work(n as u64 * zb as u64 * 60);
                    if me > 0 {
                        let mut out = vec![0.0f64; 2 * n];
                        for (x, c) in next.iter().enumerate() {
                            out[2 * x] = c.0.expect("solved locally");
                            out[2 * x + 1] = c.1.unwrap_or_default();
                        }
                        let slot_out = bwd_out + (y * 2 * n * 8) as u64;
                        let slot_in = bwd_in + (y * 2 * n * 8) as u64;
                        cell.write_slice(slot_out, &out);
                        cell.rts(4);
                        cell.put(
                            me - 1,
                            slot_in,
                            slot_out,
                            (2 * n * 8) as u64,
                            VAddr::NULL,
                            bwd_flag,
                            true,
                        );
                    }
                }
                if me > 0 {
                    cell.wait_acks();
                }
                cell.barrier();
            }

            // ---- verification against the sequential reference --------
            for zz in 0..zb {
                let z = zlo + zz;
                for y in 0..n {
                    for x in 0..n {
                        let got = f[li(x, y, zz)];
                        let want = reference[(z * n + y) * n + x];
                        assert!(
                            (got - want).abs() < 1e-9,
                            "cell {me}: field({x},{y},{z}) = {got} vs {want}"
                        );
                    }
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
    fn sp_pipelined_sweeps_match_reference() {
        let cfg = Sp::new(Scale::Test);
        let report = cfg.run().unwrap();
        let row = AppStats::from_trace(&report.trace).to_row();
        // Interior/edge cells send one forward + one backward carry per
        // y-batch per iteration: (P-1)/P * 2 * n * iters puts per PE.
        let p = cfg.pe as f64;
        let expect = (p - 1.0) / p * 2.0 * cfg.n as f64 * cfg.iters as f64;
        assert!(
            (row.put - expect).abs() < 1e-9,
            "put {} vs {}",
            row.put,
            expect
        );
        assert_eq!(row.gets, 0.0);
        // Forward carries are 8n doubles, backward 2n: mean 5n*8 bytes.
        let mean = (8.0 + 2.0) / 2.0 * cfg.n as f64 * 8.0;
        assert!((row.msg_size - mean).abs() < 1.0, "msg {}", row.msg_size);
    }

    #[test]
    fn reference_is_deterministic_and_finite() {
        let cfg = Sp::new(Scale::Test);
        let a = cfg.reference();
        let b = cfg.reference();
        assert_eq!(a, b);
        assert!(a.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn one_plane_per_cell_pipelines_correctly() {
        // zb = 1 exercises the carry's "no second predecessor" encoding
        // (regression: 0/0 = NaN at the second cell).
        Sp {
            pe: 4,
            n: 4,
            iters: 1,
        }
        .run()
        .unwrap();
    }

    #[test]
    fn single_pe_equals_reference_trivially() {
        let cfg = Sp {
            pe: 1,
            n: 8,
            iters: 1,
        };
        cfg.run().unwrap();
    }
}
