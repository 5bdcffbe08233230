//! The two-dimensional torus topology of the T-net.
//!
//! Cells are arranged in a `width × height` grid with wraparound in both
//! dimensions. Routing is **static dimension-order (X then Y)** with
//! minimal wraparound in each dimension — the paper's acknowledge trick
//! (§4.1) depends on the T-net "using static routing and passing
//! messages in order", and static dimension-order routing gives exactly
//! that: every (src, dst) pair always uses the same path.

use aputil::CellId;

/// A `width × height` torus over densely numbered cells
/// (`id = y * width + x`).
///
/// # Examples
///
/// ```
/// use apnet::Torus;
/// use aputil::CellId;
///
/// let t = Torus::for_cells(16); // 4×4
/// assert_eq!(t.dims(), (4, 4));
/// assert_eq!(t.route_iter(CellId::new(0), CellId::new(15)).hops(), 2); // wrap both dims
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Torus {
    width: u32,
    height: u32,
}

impl Torus {
    /// Creates a torus with explicit dimensions.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "torus dimensions must be nonzero");
        Torus { width, height }
    }

    /// Chooses the most nearly square torus for `ncells` cells, the way the
    /// machine was configured (e.g. 64 cells → 8×8, 128 → 16×8).
    ///
    /// # Panics
    ///
    /// Panics if `ncells` is zero.
    pub fn for_cells(ncells: u32) -> Self {
        assert!(ncells > 0, "machine must have at least one cell");
        // Largest divisor of ncells not exceeding sqrt(ncells).
        let mut best = 1;
        let mut d = 1;
        while d * d <= ncells {
            if ncells.is_multiple_of(d) {
                best = d;
            }
            d += 1;
        }
        Torus::new(ncells / best, best)
    }

    /// `(width, height)`.
    pub fn dims(self) -> (u32, u32) {
        (self.width, self.height)
    }

    /// Number of cells.
    pub fn ncells(self) -> u32 {
        self.width * self.height
    }

    /// The `(x, y)` coordinate of a cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell is outside this torus.
    pub fn coords(self, cell: CellId) -> (u32, u32) {
        let i = cell.as_u32();
        assert!(
            i < self.ncells(),
            "{cell} outside {}x{} torus",
            self.width,
            self.height
        );
        (i % self.width, i / self.width)
    }

    /// The cell at `(x, y)` (coordinates taken modulo the dimensions).
    pub fn cell_at(self, x: u32, y: u32) -> CellId {
        CellId::new((y % self.height) * self.width + (x % self.width))
    }

    /// Signed minimal displacement along one dimension with wraparound;
    /// ties (exactly half way) route in the positive direction, which keeps
    /// routing static.
    fn delta(from: u32, to: u32, dim: u32) -> i64 {
        // Widen to u64: `to + dim` overflows u32 for dims near u32::MAX
        // (an N×1 torus of a huge prime cell count reaches this).
        let (from, to, dim) = (from as u64, to as u64, dim as u64);
        let fwd = (to + dim - from) % dim; // steps in + direction
        let bwd = dim - fwd; // steps in - direction (if fwd != 0)
        if fwd == 0 {
            0
        } else if fwd <= bwd {
            fwd as i64
        } else {
            -(bwd as i64)
        }
    }

    /// The static route as an iterator over the cells visited, `src` first
    /// and `dst` last (X dimension resolved first, then Y) — the
    /// per-message form: nothing is allocated.
    pub fn route_iter(self, src: CellId, dst: CellId) -> Route {
        let (sx, sy) = self.coords(src);
        let (dx, dy) = self.coords(dst);
        Route {
            torus: self,
            x: sx,
            y: sy,
            dx: Self::delta(sx, dx, self.width),
            dy: Self::delta(sy, dy, self.height),
            started: false,
        }
    }

    /// The full static route as the sequence of cells visited, starting at
    /// `src` and ending at `dst` (X dimension resolved first, then Y).
    pub fn route(self, src: CellId, dst: CellId) -> Vec<CellId> {
        self.route_iter(src, dst).collect()
    }

    /// The deterministic **detour** route: Y dimension resolved first, then
    /// X. Same hop count as [`Torus::route`], and for any pair that moves
    /// in both dimensions it is link-disjoint with the primary route — the
    /// fault layer uses it to steer packets around a downed link. Pairs
    /// that move in only one dimension (same row or column, including
    /// every pair on an N×1 torus) have no distinct detour: `route_yx`
    /// equals `route` and recovery falls back to retry-until-heal.
    pub fn route_yx(self, src: CellId, dst: CellId) -> Vec<CellId> {
        let (sx, sy) = self.coords(src);
        let (dx, dy) = self.coords(dst);
        let mut path = vec![src];
        let mut y = sy as i64;
        let step_y = Self::delta(sy, dy, self.height).signum();
        while (y.rem_euclid(self.height as i64)) as u32 != dy {
            y += step_y;
            path.push(self.cell_at(sx, y.rem_euclid(self.height as i64) as u32));
        }
        let mut x = sx as i64;
        let step_x = Self::delta(sx, dx, self.width).signum();
        while (x.rem_euclid(self.width as i64)) as u32 != dx {
            x += step_x;
            path.push(self.cell_at(x.rem_euclid(self.width as i64) as u32, dy));
        }
        path
    }
}

/// One step of `d` (±1) from `at` along a dimension of size `dim`, with
/// wraparound.
#[inline]
fn step(at: u32, d: i64, dim: u32) -> u32 {
    if d > 0 {
        if at + 1 == dim {
            0
        } else {
            at + 1
        }
    } else if at == 0 {
        dim - 1
    } else {
        at - 1
    }
}

/// The static X-then-Y route between two cells ([`Torus::route_iter`]).
#[derive(Clone, Debug)]
pub struct Route {
    torus: Torus,
    x: u32,
    y: u32,
    /// Signed steps still to take in each dimension.
    dx: i64,
    dy: i64,
    started: bool,
}

impl Route {
    /// Links the route has yet to cross; on a fresh route, its hop count.
    pub fn hops(&self) -> u32 {
        (self.dx.unsigned_abs() + self.dy.unsigned_abs()) as u32
    }
}

impl Iterator for Route {
    type Item = CellId;

    #[inline]
    fn next(&mut self) -> Option<CellId> {
        if !self.started {
            self.started = true;
        } else if self.dx != 0 {
            let d = self.dx.signum();
            self.x = step(self.x, d, self.torus.width);
            self.dx -= d;
        } else if self.dy != 0 {
            let d = self.dy.signum();
            self.y = step(self.y, d, self.torus.height);
            self.dy -= d;
        } else {
            return None;
        }
        Some(CellId::new(self.y * self.torus.width + self.x))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.hops() as usize + usize::from(!self.started);
        (left, Some(left))
    }
}

impl ExactSizeIterator for Route {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn near_square_factorization() {
        assert_eq!(Torus::for_cells(64).dims(), (8, 8));
        assert_eq!(Torus::for_cells(128).dims(), (16, 8));
        assert_eq!(Torus::for_cells(16).dims(), (4, 4));
        assert_eq!(Torus::for_cells(1).dims(), (1, 1));
        assert_eq!(Torus::for_cells(7).dims(), (7, 1));
        assert_eq!(Torus::for_cells(1024).dims(), (32, 32));
    }

    #[test]
    fn hop_counts_wrap() {
        let t = Torus::new(8, 8);
        assert_eq!(t.route_iter(CellId::new(0), CellId::new(0)).hops(), 0);
        assert_eq!(t.route_iter(CellId::new(0), CellId::new(7)).hops(), 1); // wrap in x
        assert_eq!(t.route_iter(CellId::new(0), CellId::new(3)).hops(), 3);
        assert_eq!(t.route_iter(CellId::new(0), CellId::new(4)).hops(), 4); // half way
        let far = t.cell_at(4, 4);
        assert_eq!(t.route_iter(CellId::new(0), far).hops(), 8); // worst case on 8x8
    }

    #[test]
    fn hops_symmetric() {
        let t = Torus::new(6, 4);
        for a in 0..t.ncells() {
            for b in 0..t.ncells() {
                assert_eq!(
                    t.route_iter(CellId::new(a), CellId::new(b)).hops(),
                    t.route_iter(CellId::new(b), CellId::new(a)).hops(),
                    "asymmetric hops {a}->{b}"
                );
            }
        }
    }

    #[test]
    fn route_is_x_then_y_and_length_matches_hops() {
        let t = Torus::new(4, 4);
        let src = t.cell_at(0, 0);
        let dst = t.cell_at(2, 3);
        let route = t.route(src, dst);
        assert_eq!(route.first(), Some(&src));
        assert_eq!(route.last(), Some(&dst));
        assert_eq!(route.len() as u32 - 1, t.route_iter(src, dst).hops());
        // X resolved first: second node must differ in x, same y.
        let (x1, y1) = t.coords(route[1]);
        assert_eq!(y1, 0);
        assert_ne!(x1, 0);
    }

    #[test]
    fn route_iter_knows_its_length_and_hops_shrink_as_it_walks() {
        let t = Torus::new(6, 4);
        for a in 0..t.ncells() {
            for b in 0..t.ncells() {
                let (src, dst) = (CellId::new(a), CellId::new(b));
                let mut route = t.route_iter(src, dst);
                assert_eq!(route.hops(), t.route_iter(src, dst).hops());
                assert_eq!(route.len(), t.route_iter(src, dst).hops() as usize + 1);
                assert_eq!(route.next(), Some(src));
                assert_eq!(route.len(), route.hops() as usize);
                assert_eq!(route.last().unwrap_or(src), dst);
            }
        }
    }

    #[test]
    fn route_to_self_is_trivial() {
        let t = Torus::new(3, 3);
        assert_eq!(
            t.route(CellId::new(4), CellId::new(4)),
            vec![CellId::new(4)]
        );
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn coords_out_of_range_panics() {
        Torus::new(2, 2).coords(CellId::new(4));
    }

    #[test]
    fn detour_route_is_link_disjoint_when_both_dims_move() {
        let t = Torus::new(4, 4);
        let src = t.cell_at(0, 0);
        let dst = t.cell_at(2, 3);
        let xy = t.route(src, dst);
        let yx = t.route_yx(src, dst);
        assert_eq!(yx.first(), Some(&src));
        assert_eq!(yx.last(), Some(&dst));
        assert_eq!(yx.len(), xy.len(), "same hop count");
        // Y first: second node differs in y, same x.
        let (x1, y1) = t.coords(yx[1]);
        assert_eq!(x1, 0);
        assert_ne!(y1, 0);
        let links = |r: &[CellId]| -> std::collections::HashSet<(CellId, CellId)> {
            r.windows(2).map(|w| (w[0], w[1])).collect()
        };
        assert!(
            links(&xy).is_disjoint(&links(&yx)),
            "primary and detour share a link"
        );
    }

    #[test]
    fn detour_degenerates_on_single_dimension_moves() {
        let t = Torus::new(4, 4);
        // Same row: no distinct detour exists.
        assert_eq!(
            t.route_yx(t.cell_at(0, 1), t.cell_at(2, 1)),
            t.route(t.cell_at(0, 1), t.cell_at(2, 1))
        );
        let ring = Torus::new(5, 1);
        assert_eq!(
            ring.route_yx(CellId::new(0), CellId::new(3)),
            ring.route(CellId::new(0), CellId::new(3))
        );
    }

    #[test]
    fn delta_survives_u32_max_sized_dims() {
        // `to + dim` exceeds u32::MAX here; the math must widen.
        let t = Torus::new(u32::MAX, 1);
        assert_eq!(
            t.route_iter(CellId::new(0), CellId::new(u32::MAX - 1))
                .hops(),
            1
        );
        assert_eq!(
            t.route_iter(CellId::new(u32::MAX - 1), CellId::new(0))
                .hops(),
            1
        );
        assert_eq!(
            t.route_iter(CellId::new(1), CellId::new(u32::MAX - 2))
                .hops(),
            3
        );
        assert_eq!(
            t.route_iter(CellId::new(0), CellId::new(u32::MAX / 2))
                .hops(),
            u32::MAX / 2
        );
    }

    #[test]
    fn prime_cell_counts_route_on_nx1_tori() {
        for n in [2u32, 3, 5, 7, 11, 13] {
            let t = Torus::for_cells(n);
            assert_eq!(t.dims(), (n, 1), "{n} cells should give an Nx1 torus");
            for a in 0..n {
                for b in 0..n {
                    let (src, dst) = (CellId::new(a), CellId::new(b));
                    let route = t.route(src, dst);
                    assert_eq!(route.first(), Some(&src));
                    assert_eq!(route.last(), Some(&dst));
                    assert_eq!(
                        route.len() as u32 - 1,
                        t.route_iter(src, dst).hops(),
                        "route/hops disagree for {a}->{b} on {n}x1"
                    );
                    assert_eq!(t.route_iter(src, dst).hops(), t.route_iter(dst, src).hops());
                }
            }
        }
    }

    #[test]
    fn half_way_ties_route_positive_in_both_dims() {
        // On an even-sided torus the exact-half-way displacement is a tie;
        // both directions must break it the same (positive) way or routing
        // stops being static.
        let t = Torus::new(6, 4);
        let src = t.cell_at(1, 1);
        let dst = t.cell_at(4, 3); // dx = 3 = 6/2, dy = 2 = 4/2: ties in both
        assert_eq!(t.route_iter(src, dst).hops(), 5);
        assert_eq!(t.route_iter(dst, src).hops(), 5);
        let fwd = t.route(src, dst);
        assert_eq!(fwd.len(), 6);
        // X first, stepping in the positive direction.
        assert_eq!(fwd[1], t.cell_at(2, 1));
        assert_eq!(fwd[3], t.cell_at(4, 1));
        // Y also positive.
        assert_eq!(fwd[4], t.cell_at(4, 2));
        // The reverse route ties the same way: positive steps from dst.
        let back = t.route(dst, src);
        assert_eq!(back.len(), 6);
        assert_eq!(back[1], t.cell_at(5, 3));
        assert_eq!(back[4], t.cell_at(1, 0));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Routes are static, acyclic, start/end correctly, and their length
        /// equals the hop count.
        #[test]
        fn routes_are_consistent(w in 1u32..10, h in 1u32..10, a in 0u32..100, b in 0u32..100) {
            let t = Torus::new(w, h);
            let src = CellId::new(a % t.ncells());
            let dst = CellId::new(b % t.ncells());
            let r1 = t.route(src, dst);
            let r2 = t.route(src, dst);
            prop_assert_eq!(&r1, &r2, "routing must be static");
            prop_assert_eq!(r1.len() as u32 - 1, t.route_iter(src, dst).hops());
            let unique: std::collections::HashSet<_> = r1.iter().collect();
            prop_assert_eq!(unique.len(), r1.len(), "route revisits a cell");
            // The detour obeys the same invariants with the same length.
            let d = t.route_yx(src, dst);
            prop_assert_eq!(d.len(), r1.len(), "detour changes hop count");
            prop_assert_eq!(d.first(), r1.first());
            prop_assert_eq!(d.last(), r1.last());
            let unique: std::collections::HashSet<_> = d.iter().collect();
            prop_assert_eq!(unique.len(), d.len(), "detour revisits a cell");
        }

        /// Hop count obeys the torus diameter bound.
        #[test]
        fn hops_bounded_by_diameter(w in 1u32..12, h in 1u32..12, a in 0u32..200, b in 0u32..200) {
            let t = Torus::new(w, h);
            let src = CellId::new(a % t.ncells());
            let dst = CellId::new(b % t.ncells());
            prop_assert!(t.route_iter(src, dst).hops() <= w / 2 + h / 2 + 1);
        }
    }
}
