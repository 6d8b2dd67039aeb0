//! Batched (multi-RHS) relaxation sweeps and V-cycle edge kernels.
//!
//! These carry [`BatchGrid::width`] systems — one per SIMD lane, 4 or
//! 8 depending on the host's vector tier (see
//! [`petamg_grid::batch_width`]) — through the same sweep schedule as
//! the solo path. Because the batched row kernels evaluate the solo
//! scalar expression per lane (see `petamg_grid::batch`), and because
//! the solo fused / blocked variants are bitwise identical to their
//! staged references, each lane of every batched composition is
//! bitwise identical to **every** solo execution mode of the same
//! operator, at **every** batch width. The batched cycle edges are
//! therefore built as staged compositions — relax then
//! residual+restrict, interpolate then relax — with no separate fused
//! variant to conform.

use petamg_grid::{
    batch_interpolate_correct, batch_restrict_full_weighting, BatchGrid, BatchPtr, Exec, Workspace,
};
use petamg_problems::{batch_residual_op, StencilOp};

/// One batched half-sweep of operator `op` updating only cells of
/// `color` (`(i+j) % 2 == color`) — all [`BatchGrid::width`] lanes of
/// each color cell at once. The red/black schedule, row order, and
/// per-lane arithmetic match [`crate::relax::sor_half_sweep_op`]
/// exactly.
///
/// # Panics
/// Panics if grid sizes differ, `color >= 2`, or the operator is bound
/// to another size.
pub fn batch_sor_half_sweep_op(
    op: &StencilOp,
    x: &mut BatchGrid,
    b: &BatchGrid,
    omega: f64,
    color: usize,
    exec: &Exec,
) {
    assert!(color < 2);
    assert_eq!(x.n(), b.n(), "size mismatch in batch_sor_half_sweep_op");
    assert_eq!(
        x.width(),
        b.width(),
        "width mismatch in batch_sor_half_sweep_op"
    );
    op.assert_n(x.n());
    let n = x.n();
    let width = x.width();
    let h2 = {
        let h = x.h();
        h * h
    };
    let xp = BatchPtr::new(x);
    let bp = BatchPtr::new_read(b);
    let mode = exec.simd();
    exec.for_rows(1, n - 1, |i| {
        // SAFETY: same aliasing discipline as the solo half-sweep —
        // this task writes only the `color` cells of batch row `i` and
        // reads opposite-color neighbours no task writes this
        // half-sweep. Lanes never cross, so the argument is per lane
        // the solo one.
        unsafe {
            op.batch_sor_row_update(
                i,
                width,
                xp.row(i - 1),
                xp.row_mut(i),
                xp.row(i + 1),
                bp.row(i),
                n,
                h2,
                omega,
                color,
                mode,
            );
        }
    });
}

/// One batched Red-Black SOR sweep (red half then black half) of
/// operator `op`.
pub fn batch_sor_sweep_op(
    op: &StencilOp,
    x: &mut BatchGrid,
    b: &BatchGrid,
    omega: f64,
    exec: &Exec,
) {
    batch_sor_half_sweep_op(op, x, b, omega, 0, exec);
    batch_sor_half_sweep_op(op, x, b, omega, 1, exec);
}

/// `sweeps` batched Red-Black SOR sweeps of operator `op`, staged
/// reference order.
pub fn batch_sor_sweeps_op(
    op: &StencilOp,
    x: &mut BatchGrid,
    b: &BatchGrid,
    omega: f64,
    sweeps: usize,
    exec: &Exec,
) {
    for _ in 0..sweeps {
        batch_sor_sweep_op(op, x, b, omega, exec);
    }
}

/// Batched residual + full-weighting restriction: `coarse = R(b − A x)`
/// per lane. Staged through a leased scratch batch (the solo fused
/// kernel is bitwise identical to this staging, so the batched path
/// inherits solo parity without its own fused variant).
///
/// # Panics
/// Panics if sizes are not a coarse/fine pair or the operator is bound
/// to another size.
pub fn batch_residual_restrict_op(
    op: &StencilOp,
    x: &BatchGrid,
    b: &BatchGrid,
    coarse: &mut BatchGrid,
    ws: &Workspace,
    exec: &Exec,
) {
    let mut r = ws.acquire_batch_unzeroed(x.n(), x.width());
    batch_residual_op(op, x, b, &mut r, exec);
    batch_restrict_full_weighting(&r, coarse, exec);
}

/// Batched relax → residual → restrict cycle edge: `sweeps` SOR sweeps
/// at weight `omega`, then `coarse = R(b − A x)`, all per lane. With
/// `sweeps == 0` this is exactly [`batch_residual_restrict_op`].
#[allow(clippy::too_many_arguments)]
pub fn batch_relax_residual_restrict_op(
    op: &StencilOp,
    x: &mut BatchGrid,
    b: &BatchGrid,
    coarse: &mut BatchGrid,
    omega: f64,
    sweeps: usize,
    ws: &Workspace,
    exec: &Exec,
) {
    batch_sor_sweeps_op(op, x, b, omega, sweeps, exec);
    batch_residual_restrict_op(op, x, b, coarse, ws, exec);
}

/// Batched interpolate-correct → relax cycle edge: `x += P e`, then
/// `sweeps` SOR sweeps at weight `omega`, all per lane. With
/// `sweeps == 0` this is exactly
/// [`petamg_grid::batch_interpolate_correct`].
pub fn batch_interpolate_correct_relax_op(
    op: &StencilOp,
    coarse: &BatchGrid,
    x: &mut BatchGrid,
    b: &BatchGrid,
    omega: f64,
    sweeps: usize,
    exec: &Exec,
) {
    batch_interpolate_correct(coarse, x, exec);
    batch_sor_sweeps_op(op, x, b, omega, sweeps, exec);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fused::{interpolate_correct_relax_op, relax_residual_restrict_op};
    use crate::relax::sor_sweeps_op;
    use petamg_grid::{coarse_size, Grid2d, SimdPolicy};
    use petamg_problems::Problem;

    const WIDTHS: [usize; 2] = [4, 8];

    fn lanes(n: usize, width: usize, seed: usize) -> Vec<Grid2d> {
        (0..width)
            .map(|k| {
                Grid2d::from_fn(n, |i, j| {
                    ((i * 29 + j * 23 + k * 11 + seed) % 107) as f64 / 8.0 - 6.0
                })
            })
            .collect()
    }

    fn load(xs: &[Grid2d], width: usize) -> BatchGrid {
        let mut b = BatchGrid::zeros(xs[0].n(), width);
        for (k, g) in xs.iter().enumerate() {
            b.load_lane(k, g);
        }
        b
    }

    fn execs() -> Vec<Exec> {
        vec![
            Exec::seq().with_simd(SimdPolicy::Scalar),
            Exec::seq().with_simd(SimdPolicy::Vector),
            Exec::pbrt(2).with_band(2).with_simd(SimdPolicy::Vector),
            Exec::pbrt(3).with_band(4).with_simd(SimdPolicy::Scalar),
        ]
    }

    fn families(n: usize) -> Vec<StencilOp> {
        vec![
            StencilOp::Poisson,
            StencilOp::anisotropic(0.25),
            Problem::jump_inclusion(n).op_for(n),
        ]
    }

    #[test]
    fn batched_sor_sweeps_match_solo_bitwise() {
        let n = 17;
        for width in WIDTHS {
            let xs = lanes(n, width, 1);
            let bs = lanes(n, width, 2);
            for op in families(n) {
                for exec in execs() {
                    let mut xb = load(&xs, width);
                    let bb = load(&bs, width);
                    batch_sor_sweeps_op(&op, &mut xb, &bb, 1.15, 3, &exec);
                    for k in 0..width {
                        let mut want = xs[k].clone();
                        sor_sweeps_op(&op, &mut want, &bs[k], 1.15, 3, &exec);
                        let mut got = Grid2d::zeros(n);
                        xb.store_lane(k, &mut got);
                        assert_eq!(
                            got.as_slice(),
                            want.as_slice(),
                            "{} width={width} lane={k} {exec:?}",
                            op.describe()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batched_cycle_edges_match_solo_fused_bitwise() {
        let n = 17;
        let nc = coarse_size(n);
        let ws = Workspace::new();
        for width in WIDTHS {
            let xs = lanes(n, width, 3);
            let bs = lanes(n, width, 4);
            let es = lanes(nc, width, 5);
            for op in families(n) {
                for exec in execs() {
                    // Down edge: relax + residual + restrict.
                    let mut xb = load(&xs, width);
                    let bb = load(&bs, width);
                    let mut cb = BatchGrid::zeros(nc, width);
                    batch_relax_residual_restrict_op(
                        &op, &mut xb, &bb, &mut cb, 1.15, 2, &ws, &exec,
                    );
                    for k in 0..width {
                        let mut x = xs[k].clone();
                        let mut want = Grid2d::zeros(nc);
                        relax_residual_restrict_op(
                            &op, &mut x, &bs[k], &mut want, 1.15, 2, &ws, &exec,
                        );
                        let mut gx = Grid2d::zeros(n);
                        xb.store_lane(k, &mut gx);
                        let mut gc = Grid2d::zeros(nc);
                        cb.store_lane(k, &mut gc);
                        assert_eq!(
                            gx.as_slice(),
                            x.as_slice(),
                            "{} x width={width} lane={k}",
                            op.describe()
                        );
                        assert_eq!(
                            gc.as_slice(),
                            want.as_slice(),
                            "{} c width={width} lane={k}",
                            op.describe()
                        );
                    }
                    // Up edge: interpolate-correct + relax.
                    let mut xb = load(&xs, width);
                    let eb = load(&es, width);
                    batch_interpolate_correct_relax_op(&op, &eb, &mut xb, &bb, 1.15, 2, &exec);
                    for k in 0..width {
                        let mut want = xs[k].clone();
                        interpolate_correct_relax_op(
                            &op, &es[k], &mut want, &bs[k], 1.15, 2, &ws, &exec,
                        );
                        let mut got = Grid2d::zeros(n);
                        xb.store_lane(k, &mut got);
                        assert_eq!(
                            got.as_slice(),
                            want.as_slice(),
                            "{} up width={width} lane={k} {exec:?}",
                            op.describe()
                        );
                    }
                }
            }
        }
    }
}
