//! NPB FT — 3-D fast Fourier transform.
//!
//! §5.2: *"FT is a 3-D Fourier transform. The input array size is
//! 256×256×128."* The cube is Z-slab partitioned; FFTs along x and y are
//! local, the z dimension is reached through an **all-to-all transpose**
//! implemented with `put_stride` — the workload the paper's stride
//! hardware (§3.1, §4.1) exists for. Following NPB: the forward transform
//! runs once, then each iteration evolves the spectrum, inverse-transforms
//! (one transpose each), and checksums.
//!
//! Local PUTs are skipped (§5.4: "no PUT operations except … for local
//! cell need acknowledgment"; the VPP runtime short-circuits them), so
//! each transpose is P−1 acknowledged stride PUTs per cell.

use crate::util::fft::{fft_flops, FftPlan};
use crate::util::lcg::{NpbRandom, SEED};
use crate::{Scale, Workload};
use apcore::{run, ApError, ApResult, FaultSpec, MachineConfig, RunReport, StrideSpec, VAddr};

/// FT instance. `nx`, `ny`, `nz` must be powers of two; `pe` must divide
/// both `nx` and `nz`.
#[derive(Clone, Copy, Debug)]
pub struct Ft {
    /// Number of cells (128 in the paper).
    pub pe: u32,
    /// Grid dimensions.
    pub nx: usize,
    /// Grid dimensions.
    pub ny: usize,
    /// Grid dimensions.
    pub nz: usize,
    /// Evolution/checksum iterations (6 in the paper).
    pub iters: usize,
}

impl Ft {
    /// Standard instance at `scale`.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Test => Ft {
                pe: 4,
                nx: 8,
                ny: 8,
                nz: 8,
                iters: 2,
            },
            Scale::Paper => Ft {
                pe: 128,
                nx: 128,
                ny: 64,
                nz: 128,
                iters: 3,
            },
        }
    }

    /// The decomposition preflight: power-of-two extents (the FFT), with
    /// equal shares of both partitioned axes.
    fn check(&self) -> ApResult<()> {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        if !(nx.is_power_of_two() && ny.is_power_of_two() && nz.is_power_of_two()) {
            return Err(ApError::InvalidArg(format!(
                "FT: extents must be powers of two, got {nx}x{ny}x{nz}"
            )));
        }
        crate::must_divide(self, "nx", nx)?;
        crate::must_divide(self, "nz", nz)
    }

    /// The initial field of the cell `me` of `p`: its Z-slab, interleaved
    /// `(re, im)` in `(z, y, x)` order. The slab is one contiguous run of
    /// the field's flat indices, so one LCG skip seeds all of it.
    fn seed_slab(&self, me: usize, p: usize) -> Vec<f64> {
        let points = self.nx * self.ny * self.nz / p;
        field_from(me * points)
            .take(points)
            .flat_map(|(re, im)| [re, im])
            .collect()
    }

    /// The squared wavenumber magnitude `k²` of grid point `(x, y, z)`.
    fn k2(&self, x: usize, y: usize, z: usize) -> usize {
        let k = |i: usize, n: usize| i.min(n - i).pow(2);
        k(x, self.nx) + k(y, self.ny) + k(z, self.nz)
    }

    /// The time-evolution factors of step `t`, indexed by [`Self::k2`] (a
    /// stand-in for NPB's Gaussian evolution kernel — deterministic,
    /// magnitude-decaying, and 1 at the DC term `k² = 0`).
    fn evolve_factors(&self, t: usize) -> Vec<f64> {
        let k2_max = self.k2(self.nx / 2, self.ny / 2, self.nz / 2);
        (0..=k2_max)
            .map(|k2| (-1e-4 * k2 as f64 * t as f64).exp())
            .collect()
    }

    /// The `(re, im)` checksum each iteration must produce: the sum of the
    /// initial field, in closed form.
    ///
    /// An iteration's checksum sums the inverse transform of the evolved
    /// spectrum, which is that spectrum's DC coefficient. Evolution scales
    /// the DC term by 1, and the forward transform's DC term is the sum of
    /// the field, so every iteration must return the sum of the seeds. The
    /// check therefore witnesses that the data's sum survives the FFTs and
    /// both transposes, and that the DC coefficient stays in place. It says
    /// nothing else about the transpose's permutation or the evolution: a
    /// transpose that swaps two other points passes it.
    pub fn reference(&self) -> Vec<(f64, f64)> {
        let sum = field_from(0)
            .take(self.nx * self.ny * self.nz)
            .fold((0.0, 0.0), |(sr, si), (re, im)| (sr + re, si + im));
        vec![sum; self.iters]
    }
}

/// The field's `(re, im)` values from flat index `g` on: NPB-LCG deviates
/// `2g, 2g + 1, …` of the stream, each shifted by −0.5.
fn field_from(g: usize) -> impl Iterator<Item = (f64, f64)> {
    let mut r = NpbRandom::skip_to(SEED, 2 * g as u64);
    std::iter::repeat_with(move || (r.next_f64() - 0.5, r.next_f64() - 0.5))
}

impl Workload for Ft {
    fn name(&self) -> &'static str {
        "FT"
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
        self.check()?;
        let cfg = *self;
        let reference = cfg.reference();
        // One plan per axis, `[forward, inverse]`, and one factor table per
        // step, shared by every cell.
        let [plan_x, plan_y, plan_z] =
            [cfg.nx, cfg.ny, cfg.nz].map(|n| [FftPlan::new(n, false), FftPlan::new(n, true)]);
        let factors: Vec<Vec<f64>> = (1..=cfg.iters).map(|t| cfg.evolve_factors(t)).collect();
        run(machine, None, async |cell| {
            let me = cell.id();
            let p = cell.ncells();
            let (nx, ny, nz) = (cfg.nx, cfg.ny, cfg.nz);
            let (nxb, nzb) = (nx / p, nz / p);
            let slab = 2 * nx * ny * nzb; // f64 count, Z-partition
            let pencil = 2 * nxb * ny * nz; // f64 count, X-partition
            let a_buf = cell.alloc::<f64>(slab);
            let b_buf = cell.alloc::<f64>(pencil);
            let staging = cell.alloc::<f64>(pencil.max(slab));
            let flag = cell.alloc_flag();
            let mut arrivals = 0u32;

            // ---- init my slab (z in [me*nzb, (me+1)*nzb)) -------------
            let mut a = cfg.seed_slab(me, p);
            cell.work((nx * ny * nzb) as u64 * 4);
            cell.barrier();

            // Local x/y FFTs on the slab.
            let fft_xy = |cell: &mut apcore::Cell, a: &mut Vec<f64>, inverse: bool| {
                let (px, py) = (&plan_x[usize::from(inverse)], &plan_y[usize::from(inverse)]);
                let mut line = vec![0.0f64; 2 * ny];
                for plane in a.chunks_exact_mut(2 * nx * ny) {
                    for row in plane.chunks_exact_mut(2 * nx) {
                        px.apply(row);
                    }
                    for x in 0..nx {
                        for y in 0..ny {
                            let idx = 2 * (y * nx + x);
                            line[2 * y] = plane[idx];
                            line[2 * y + 1] = plane[idx + 1];
                        }
                        py.apply(&mut line);
                        for y in 0..ny {
                            let idx = 2 * (y * nx + x);
                            plane[idx] = line[2 * y];
                            plane[idx + 1] = line[2 * y + 1];
                        }
                    }
                }
                cell.work(nzb as u64 * (ny as u64 * fft_flops(nx) + nx as u64 * fft_flops(ny)));
            };

            // All-to-all forward transpose: slab A -> pencil B.
            let transpose_fwd =
                async |cell: &mut apcore::Cell, a: &[f64], arrivals: &mut u32| -> Vec<f64> {
                    cell.write_slice(a_buf, a);
                    cell.barrier();
                    for q in 0..p {
                        if q == me {
                            continue;
                        }
                        cell.rts((nzb * ny) as u64 / 4);
                        // My rows of q's x-block: runs of nxb complex at every
                        // (z, y) of my slab.
                        let send =
                            StrideSpec::new((nxb * 16) as u32, (nzb * ny) as u32, (nx * 16) as u32);
                        let block_bytes = (nxb * ny * nzb * 16) as u64;
                        let recv = StrideSpec::contiguous(block_bytes);
                        cell.put_stride(
                            q,
                            staging + (me * nxb * ny * nzb * 16) as u64,
                            a_buf + (q * nxb * 16) as u64,
                            send,
                            recv,
                            VAddr::NULL,
                            flag,
                            true,
                        );
                    }
                    cell.wait_acks();
                    *arrivals += (p - 1) as u32;
                    cell.wait_flag(flag, *arrivals);
                    // Assemble B from the staging blocks (+ own block direct).
                    let st = cell.read_slice::<f64>(staging, pencil).await;
                    let mut b = vec![0.0f64; pencil];
                    for src in 0..p {
                        for zz in 0..nzb {
                            let z = src * nzb + zz;
                            for y in 0..ny {
                                for xx in 0..nxb {
                                    let (re, im) = if src == me {
                                        let idx = 2 * ((zz * ny + y) * nx + me * nxb + xx);
                                        (a[idx], a[idx + 1])
                                    } else {
                                        let s =
                                            2 * ((src * nxb * ny * nzb) + (zz * ny + y) * nxb + xx);
                                        (st[s], st[s + 1])
                                    };
                                    let d = 2 * ((xx * ny + y) * nz + z);
                                    b[d] = re;
                                    b[d + 1] = im;
                                }
                            }
                        }
                    }
                    cell.work((nxb * ny * nz) as u64);
                    cell.barrier();
                    b
                };

            // All-to-all backward transpose: pencil B -> slab A.
            let transpose_bwd =
                async |cell: &mut apcore::Cell, b: &[f64], arrivals: &mut u32| -> Vec<f64> {
                    cell.write_slice(b_buf, b);
                    cell.barrier();
                    for q in 0..p {
                        if q == me {
                            continue;
                        }
                        cell.rts((nxb * ny) as u64 / 4);
                        // q's z-rows of my x-block: runs of nzb complex at
                        // every (x_local, y).
                        let send =
                            StrideSpec::new((nzb * 16) as u32, (nxb * ny) as u32, (nz * 16) as u32);
                        let block_bytes = (nxb * ny * nzb * 16) as u64;
                        let recv = StrideSpec::contiguous(block_bytes);
                        cell.put_stride(
                            q,
                            staging + (me * nxb * ny * nzb * 16) as u64,
                            b_buf + (q * nzb * 16) as u64,
                            send,
                            recv,
                            VAddr::NULL,
                            flag,
                            true,
                        );
                    }
                    cell.wait_acks();
                    *arrivals += (p - 1) as u32;
                    cell.wait_flag(flag, *arrivals);
                    let st = cell.read_slice::<f64>(staging, pencil).await;
                    let mut a = vec![0.0f64; slab];
                    for src in 0..p {
                        for xx in 0..nxb {
                            let x = src * nxb + xx;
                            for y in 0..ny {
                                for zz in 0..nzb {
                                    let (re, im) = if src == me {
                                        let idx = 2 * ((xx * ny + y) * nz + me * nzb + zz);
                                        (b[idx], b[idx + 1])
                                    } else {
                                        let s =
                                            2 * ((src * nxb * ny * nzb) + (xx * ny + y) * nzb + zz);
                                        (st[s], st[s + 1])
                                    };
                                    let d = 2 * ((zz * ny + y) * nx + x);
                                    a[d] = re;
                                    a[d + 1] = im;
                                }
                            }
                        }
                    }
                    cell.work((nxb * ny * nzb * p) as u64);
                    cell.barrier();
                    a
                };

            // FFT along z on the pencil (contiguous lines).
            let fft_z = |cell: &mut apcore::Cell, b: &mut Vec<f64>, inverse: bool| {
                for line in b.chunks_exact_mut(2 * nz) {
                    plan_z[usize::from(inverse)].apply(line);
                }
                cell.work((nxb * ny) as u64 * fft_flops(nz));
            };

            // ---- forward transform ------------------------------------
            fft_xy(cell, &mut a, false);
            let mut u1 = transpose_fwd(cell, &a, &mut arrivals).await;
            fft_z(cell, &mut u1, false);

            // ---- iterations -------------------------------------------
            for t in 1..=cfg.iters {
                let mut v = u1.clone();
                for xx in 0..nxb {
                    let x = me * nxb + xx;
                    for y in 0..ny {
                        for z in 0..nz {
                            let f = factors[t - 1][cfg.k2(x, y, z)];
                            let idx = 2 * ((xx * ny + y) * nz + z);
                            v[idx] *= f;
                            v[idx + 1] *= f;
                        }
                    }
                }
                cell.work((nxb * ny * nz * 2) as u64);
                fft_z(cell, &mut v, true);
                let mut w = transpose_bwd(cell, &v, &mut arrivals).await;
                fft_xy(cell, &mut w, true);
                // Checksum: two scalar global sums (re, im).
                let (mut sr, mut si) = (0.0f64, 0.0f64);
                for g in 0..slab / 2 {
                    sr += w[2 * g];
                    si += w[2 * g + 1];
                }
                cell.work(slab as u64);
                let gr = cell.reduce_sum_f64(sr).await;
                let gi = cell.reduce_sum_f64(si).await;
                let (er, ei) = reference[t - 1];
                let scale = er.abs().max(ei.abs()).max(1e-12);
                assert!(
                    (gr - er).abs() / scale < 1e-6 && (gi - ei).abs() / scale < 1e-6,
                    "cell {me}: checksum iter {t}: got ({gr},{gi}), want ({er},{ei})"
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
    fn ft_verifies_checksums_and_uses_stride_puts() {
        let cfg = Ft::new(Scale::Test);
        let report = cfg.run().unwrap();
        let row = AppStats::from_trace(&report.trace).to_row();
        // (iters + 1) transposes × (P-1) stride PUTs per PE.
        let expect = ((cfg.iters + 1) * (cfg.pe as usize - 1)) as f64;
        assert_eq!(row.puts, expect);
        assert_eq!(row.put, 0.0, "all FT transfers are strided");
        assert_eq!(row.gop, (2 * cfg.iters) as f64);
        assert!(row.sync > 0.0);
    }

    /// Sequential in-place 3-D FFT on a `(z, y, x)`-ordered interleaved cube.
    fn fft3(u: &mut [f64], nx: usize, ny: usize, nz: usize, inverse: bool) {
        let [px, py, pz] = [nx, ny, nz].map(|n| FftPlan::new(n, inverse));
        // Along x: contiguous lines.
        let mut line = vec![0.0f64; 2 * nx.max(ny).max(nz)];
        for row in u.chunks_exact_mut(2 * nx) {
            px.apply(row);
        }
        // Along y: gather stride nx.
        for z in 0..nz {
            for x in 0..nx {
                for y in 0..ny {
                    let idx = 2 * ((z * ny + y) * nx + x);
                    line[2 * y] = u[idx];
                    line[2 * y + 1] = u[idx + 1];
                }
                py.apply(&mut line[..2 * ny]);
                for y in 0..ny {
                    let idx = 2 * ((z * ny + y) * nx + x);
                    u[idx] = line[2 * y];
                    u[idx + 1] = line[2 * y + 1];
                }
            }
        }
        // Along z: gather stride nx*ny.
        for y in 0..ny {
            for x in 0..nx {
                for z in 0..nz {
                    let idx = 2 * ((z * ny + y) * nx + x);
                    line[2 * z] = u[idx];
                    line[2 * z + 1] = u[idx + 1];
                }
                pz.apply(&mut line[..2 * nz]);
                for z in 0..nz {
                    let idx = 2 * ((z * ny + y) * nx + x);
                    u[idx] = line[2 * z];
                    u[idx + 1] = line[2 * z + 1];
                }
            }
        }
    }

    /// The serial pipeline the cells run: forward 3-D FFT, then per
    /// iteration evolve, inverse-transform and sum.
    fn fft3_checksums(cfg: &Ft) -> Vec<(f64, f64)> {
        let (nx, ny, nz) = (cfg.nx, cfg.ny, cfg.nz);
        let mut u1 = cfg.seed_slab(0, 1);
        fft3(&mut u1, nx, ny, nz, false);
        (1..=cfg.iters)
            .map(|t| {
                let factors = cfg.evolve_factors(t);
                let mut v = u1.clone();
                for z in 0..nz {
                    for y in 0..ny {
                        for x in 0..nx {
                            let f = factors[cfg.k2(x, y, z)];
                            let idx = 2 * ((z * ny + y) * nx + x);
                            v[idx] *= f;
                            v[idx + 1] *= f;
                        }
                    }
                }
                fft3(&mut v, nx, ny, nz, true);
                v.chunks_exact(2)
                    .fold((0.0, 0.0), |(sr, si), c| (sr + c[0], si + c[1]))
            })
            .collect()
    }

    #[test]
    fn reference_checksums_are_the_same_every_iteration() {
        let cfg = Ft::new(Scale::Test);
        let sums = cfg.reference();
        assert_eq!(sums.len(), cfg.iters);
        assert!(sums[0].0.is_finite() && sums[0].1.is_finite());
        assert!(sums.iter().all(|s| *s == sums[0]), "{sums:?}");
    }

    #[test]
    fn the_closed_form_equals_the_serial_fft_pipeline() {
        let non_cubic = Ft {
            pe: 4,
            nx: 8,
            ny: 4,
            nz: 16,
            iters: 2,
        };
        for cfg in [Ft::new(Scale::Test), non_cubic] {
            let (want, got) = (fft3_checksums(&cfg), cfg.reference());
            assert_eq!(want.len(), got.len());
            for ((wr, wi), (gr, gi)) in want.into_iter().zip(got) {
                let scale = wr.abs().max(wi.abs());
                assert!(
                    (gr - wr).abs() / scale < 1e-12 && (gi - wi).abs() / scale < 1e-12,
                    "{cfg:?}: closed form ({gr}, {gi}) vs pipeline ({wr}, {wi})"
                );
            }
        }
    }

    #[test]
    fn one_skip_per_slab_equals_one_skip_per_point() {
        let wide = Ft {
            pe: 4,
            nx: 16,
            ny: 8,
            nz: 16,
            iters: 1,
        };
        for cfg in [Ft::new(Scale::Test), wide] {
            let (nx, ny, p) = (cfg.nx, cfg.ny, cfg.pe as usize);
            let nzb = cfg.nz / p;
            for me in 0..p {
                let mut want = Vec::new();
                for z in me * nzb..(me + 1) * nzb {
                    for g in (z * ny * nx) as u64..((z + 1) * ny * nx) as u64 {
                        let mut r = NpbRandom::skip_to(SEED, 2 * g);
                        want.push((r.next_f64() - 0.5).to_bits());
                        want.push((r.next_f64() - 0.5).to_bits());
                    }
                }
                let got: Vec<u64> = cfg.seed_slab(me, p).iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "{cfg:?}: cell {me}");
            }
        }
    }

    #[test]
    fn an_axis_of_extent_one_runs() {
        let flat = Ft {
            pe: 4,
            nx: 8,
            ny: 1,
            nz: 8,
            iters: 1,
        };
        flat.run().unwrap();
    }

    #[test]
    fn fft3_round_trip() {
        let (nx, ny, nz) = (8, 4, 16);
        let n = nx * ny * nz;
        let orig: Vec<f64> = (0..2 * n).map(|i| ((i * 31) % 97) as f64 / 97.0).collect();
        let mut u = orig.clone();
        fft3(&mut u, nx, ny, nz, false);
        fft3(&mut u, nx, ny, nz, true);
        for (a, b) in u.iter().zip(&orig) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}
