//! ASCII renderings of tuned cycles, the paper's Fig 5 cycle diagrams:
//! "The path of the algorithm progresses from left to right
//! through time. As the path moves down, it represents a restriction to
//! a coarser resolution, while paths up represent interpolations. Dots
//! represent red-black SOR relaxations, solid horizontal arrows
//! represent calls to the direct solver, and dashed horizontal arrows
//! represent calls to the iterative solver."

use crate::trace::CycleEvent;
use petamg_grid::level_size;

/// Render a recorded event trace as an ASCII cycle diagram.
///
/// Legend: `●` relaxation, `\` restriction, `/` interpolation,
/// `D` direct solve, `S` iterative (SOR) solve. One column per drawn
/// event; rows are levels, finest on top.
pub fn render_cycle(events: &[CycleEvent]) -> String {
    let mut max_level = 0usize;
    let mut min_level = usize::MAX;
    let mut drawn: Vec<(usize, char)> = Vec::new(); // (level row, symbol)
    for e in events {
        match e {
            CycleEvent::Relax { level } => drawn.push((*level, '●')),
            CycleEvent::Direct { level } => drawn.push((*level, 'D')),
            CycleEvent::SorSolve { level, .. } => drawn.push((*level, 'S')),
            CycleEvent::Restrict { from } => drawn.push((from - 1, '\\')),
            CycleEvent::Interpolate { to } => drawn.push((*to, '/')),
            CycleEvent::Residual { .. }
            | CycleEvent::EnterV { .. }
            | CycleEvent::EnterFmg { .. } => continue,
        }
        let lvl = drawn.last().expect("just pushed").0;
        max_level = max_level.max(lvl);
        min_level = min_level.min(lvl);
    }
    if drawn.is_empty() {
        return String::from("(empty trace)\n");
    }
    let rows = max_level - min_level + 1;
    let cols = drawn.len();
    let mut canvas = vec![vec![' '; cols]; rows];
    for (col, (lvl, sym)) in drawn.iter().enumerate() {
        let row = max_level - lvl;
        canvas[row][col] = *sym;
    }
    let mut out = String::new();
    for (row, line) in canvas.iter().enumerate() {
        let level = max_level - row;
        let n = level_size(level);
        out.push_str(&format!("level {level:>2} (N={n:>5}) |"));
        out.push_str(&line.iter().collect::<String>());
        out.push('\n');
    }
    out.push_str("legend: ● relax   \\ restrict   / interpolate   D direct   S SOR solve\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{simple_v_family, ExecCtx};
    use crate::training::{Distribution, ProblemInstance};
    use petamg_grid::SimdMode;

    fn trace_of(level: usize) -> Vec<CycleEvent> {
        let fam = simple_v_family(level, &[1e5]);
        let inst = ProblemInstance::random(level, Distribution::UnbiasedUniform, 7);
        let mut ctx = ExecCtx::new(SimdMode::host()).tracing();
        let mut x = inst.working_grid();
        fam.run(level, 0, &mut x, &inst.b, &mut ctx);
        ctx.events.expect("traced")
    }

    #[test]
    fn render_v_cycle_shape() {
        let art = render_cycle(&trace_of(3));
        // 3 level rows + legend.
        assert_eq!(art.lines().count(), 4);
        assert!(art.contains("level  3 (N=    9)"));
        assert!(art.contains('●'));
        assert!(art.contains('D'));
        assert!(art.contains('\\'));
        assert!(art.contains('/'));
        // Finest level listed first.
        let first = art.lines().next().unwrap();
        assert!(first.starts_with("level  3"));
    }

    #[test]
    fn render_empty_trace() {
        assert_eq!(render_cycle(&[]), "(empty trace)\n");
    }

    #[test]
    fn v_cycle_columns_are_chronological() {
        // The first drawn symbol of a V cycle is the pre-relaxation at
        // the top level; the last is the post-relaxation at the top.
        let art = render_cycle(&trace_of(4));
        let top_row = art.lines().next().unwrap();
        let body = top_row.split('|').nth(1).unwrap();
        assert!(body.trim_start().starts_with('●'));
        assert!(body.trim_end().ends_with('●'));
    }
}
