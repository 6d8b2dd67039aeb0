//! Property-based tests over the core data structures and invariants.

use crate::accuracy::{ratio_of_errors, ACC_CAP};
use crate::cost::{LevelOps, MachineProfile, OpCounts};
use crate::guard::select_member;
use crate::plan::{simple_v_family, Choice, ExecCtx, TunedFamily, PAPER_ACCURACIES};
use crate::training::{Distribution, ProblemInstance};
use crate::tuner::{DefaultKnobs, TunerOptions, VTuner, Walk};
use petamg_grid::{level_size, SimdMode};
use petamg_problems::Problem;
use proptest::prelude::*;

fn arb_level_ops() -> impl Strategy<Value = LevelOps> {
    (0u64..50, 0u64..20, 0u64..20, 0u64..20, 0u64..5).prop_map(
        |(relax_sweeps, residuals, restricts, interps, direct_solves)| LevelOps {
            relax_sweeps,
            residuals,
            restricts,
            interps,
            direct_solves,
        },
    )
}

fn arb_ops(max_level: usize) -> impl Strategy<Value = OpCounts> {
    prop::collection::vec(arb_level_ops(), 2..=max_level + 1)
        .prop_map(|per_level| OpCounts { per_level })
}

/// A structurally valid random tuned family.
fn arb_family(max_level: usize) -> impl Strategy<Value = TunedFamily> {
    let m = PAPER_ACCURACIES.len();
    let choice = |level: usize| {
        prop_oneof![
            Just(Choice::Direct),
            (1u32..40).prop_map(|iterations| Choice::Sor { iterations }),
            (0u8..m as u8, 1u32..10).prop_map(move |(sub_accuracy, iterations)| {
                if level == 1 {
                    Choice::Direct
                } else {
                    Choice::Recurse {
                        sub_accuracy,
                        iterations,
                    }
                }
            }),
        ]
    };
    let mut rows: Vec<BoxedStrategy<Vec<Choice>>> = vec![Just(Vec::new()).boxed()];
    for level in 1..=max_level {
        if level == 1 {
            rows.push(Just(vec![Choice::Direct; m]).boxed());
        } else {
            rows.push(prop::collection::vec(choice(level), m).boxed());
        }
    }
    rows.prop_map(move |plans| TunedFamily {
        accuracies: PAPER_ACCURACIES.to_vec(),
        max_level,
        plans,
        knobs: DefaultKnobs,
        problem: petamg_problems::ProblemFingerprint::poisson(),
        provenance: "proptest".into(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// OpCounts::add is commutative and associative in effect.
    #[test]
    fn opcounts_add_commutes(a in arb_ops(6), b in arb_ops(6)) {
        let mut ab = a.clone();
        ab.add(&b);
        let mut ba = b.clone();
        ba.add(&a);
        // Compare through padding-insensitive totals and per-level values.
        let max = ab.per_level.len().max(ba.per_level.len());
        for k in 0..max {
            let d = LevelOps::default();
            let x = ab.per_level.get(k).unwrap_or(&d);
            let y = ba.per_level.get(k).unwrap_or(&d);
            prop_assert_eq!(x, y);
        }
    }

    /// Modeled time is additive: time(a+b) == time(a) + time(b) (the
    /// model has no cross-op interaction terms).
    #[test]
    fn modeled_time_additive(a in arb_ops(8), b in arb_ops(8)) {
        let p = MachineProfile::amd_barcelona();
        let mut sum = a.clone();
        sum.add(&b);
        let lhs = p.time(&sum);
        let rhs = p.time(&a) + p.time(&b);
        prop_assert!((lhs - rhs).abs() <= 1e-12 * rhs.abs().max(1e-12),
            "{} vs {}", lhs, rhs);
    }

    /// Modeled time is monotone: adding work never reduces cost.
    #[test]
    fn modeled_time_monotone(a in arb_ops(8), extra in arb_ops(8)) {
        for p in MachineProfile::all_testbeds() {
            let base = p.time(&a);
            let mut more = a.clone();
            more.add(&extra);
            prop_assert!(p.time(&more) >= base - 1e-15);
        }
    }

    /// ratio_of_errors is antitone in the output error and monotone in
    /// the input error, capped at ACC_CAP.
    #[test]
    fn error_ratio_monotonicity(
        e_in in 1e-6f64..1e12,
        e_out1 in 1e-6f64..1e12,
        factor in 1.001f64..100.0,
    ) {
        let r1 = ratio_of_errors(e_in, e_out1);
        let r2 = ratio_of_errors(e_in, e_out1 * factor);
        prop_assert!(r2 <= r1);
        let r3 = ratio_of_errors(e_in * factor, e_out1);
        prop_assert!(r3 >= r1);
        prop_assert!(r1 <= ACC_CAP && r2 <= ACC_CAP && r3 <= ACC_CAP);
    }

    /// Random valid families validate, serialize, and round-trip.
    #[test]
    fn family_json_roundtrip(fam in arb_family(5)) {
        prop_assume!(fam.validate().is_ok());
        let json = fam.to_json();
        let back = TunedFamily::from_json(&json).unwrap();
        prop_assert_eq!(back.plans, fam.plans);
        prop_assert_eq!(back.accuracies, fam.accuracies);
        prop_assert_eq!(back.problem, fam.problem);
    }

    /// Executing any valid family never touches the boundary ring and
    /// records at least one op.
    #[test]
    fn executor_preserves_boundary(fam in arb_family(4), acc in 0usize..5) {
        prop_assume!(fam.validate().is_ok());
        // Clamp iteration counts so SOR-heavy random plans stay fast.
        let inst = ProblemInstance::random(4, Distribution::UnbiasedUniform, 77);
        let mut ctx = ExecCtx::new(SimdMode::host());
        let mut x = inst.working_grid();
        fam.run(4, acc, &mut x, &inst.b, &mut ctx);
        let n = x.n();
        for i in 0..n {
            for j in [0, n - 1] {
                prop_assert_eq!(x.at(i, j), inst.x0.at(i, j));
                prop_assert_eq!(x.at(j, i), inst.x0.at(j, i));
            }
        }
        let total: u64 = ctx.ops.per_level.iter().map(|l| {
            l.relax_sweeps + l.residuals + l.restricts + l.interps + l.direct_solves
        }).sum();
        prop_assert!(total >= 1);
    }

    /// Executor determinism: running the same family twice produces the
    /// same grid bitwise and identical op counts.
    #[test]
    fn executor_deterministic(fam in arb_family(4), acc in 0usize..5, seed in 0u64..1000) {
        prop_assume!(fam.validate().is_ok());
        let inst = ProblemInstance::random(4, Distribution::BiasedUniform, seed);
        let run = || {
            let mut ctx = ExecCtx::new(SimdMode::host());
            let mut x = inst.working_grid();
            fam.run(4, acc, &mut x, &inst.b, &mut ctx);
            (x, ctx.ops)
        };
        let (x1, o1) = run();
        let (x2, o2) = run();
        prop_assert_eq!(x1.as_slice(), x2.as_slice());
        prop_assert_eq!(o1, o2);
    }

    /// The simple hand-built family is always valid for any level/m.
    #[test]
    fn simple_family_always_valid(level in 1usize..10) {
        let fam = simple_v_family(level, &PAPER_ACCURACIES);
        prop_assert!(fam.validate().is_ok());
    }

    /// Accuracy-index selection returns the tightest tier.
    #[test]
    fn acc_index_tightest(target in 1.0f64..1e12) {
        let fam = simple_v_family(3, &PAPER_ACCURACIES);
        let idx = fam.acc_index_for(target);
        if PAPER_ACCURACIES[idx] < target {
            // Only allowed when target exceeds every tier.
            prop_assert!(target > *PAPER_ACCURACIES.last().unwrap());
            prop_assert_eq!(idx, PAPER_ACCURACIES.len() - 1);
        } else if idx > 0 {
            prop_assert!(PAPER_ACCURACIES[idx - 1] < target);
        }
    }

    /// Member selection picks the smallest index at or above `floor`
    /// whose accuracy covers `need` (the top member when none does),
    /// and never moves down as `need` or `floor` grows.
    #[test]
    fn select_member_is_the_tightest_above_the_floor(
        steps in prop::collection::vec(1.5f64..1e3, 1..8),
        need in 1e-3f64..1e15,
        more in 1.0f64..1e6,
        floor in 0usize..10,
    ) {
        let accuracies: Vec<f64> = steps
            .iter()
            .scan(1.0, |p, step| {
                *p *= step;
                Some(*p)
            })
            .collect();
        let fam = simple_v_family(1, &accuracies);
        let top = accuracies.len() - 1;
        let picked = select_member(&fam, need, floor);
        let want = (floor..=top).find(|&i| accuracies[i] >= need).unwrap_or(top);
        prop_assert_eq!(picked, want);
        prop_assert!(select_member(&fam, need * more, floor) >= picked);
        prop_assert!(select_member(&fam, need, floor + 1) >= picked);
    }

    /// One walk serves every target exactly as a walk of its own would:
    /// per-target budgets, abandons, iteration counts and costs read
    /// off the shared trajectory equal, field for field, what walking
    /// each target alone from the start gives — from `x0` (the V
    /// tuner's form) and from given states that may already meet a
    /// target (the FMG follow-up's form).
    #[test]
    fn shared_walk_equals_one_walk_per_target(
        family in 0usize..4,
        level in 2usize..=4,
        mask in 1usize..32,
        budgets in prop::collection::vec(0usize..7, 5),
        sub_acc in 0usize..5,
        sor in 0usize..2,
        from_states in 0usize..2,
    ) {
        let n = level_size(level);
        let problem = match family {
            0 => Problem::poisson(),
            1 => Problem::anisotropic_canonical(),
            2 => Problem::smooth_sinusoidal(n),
            _ => Problem::jump_inclusion(n),
        };
        let opts = |max_level| {
            TunerOptions::quick(max_level, Distribution::UnbiasedUniform)
                .with_problem(problem.clone())
        };
        let below = VTuner::new(opts(level - 1)).tune();
        let tuner = VTuner::new(opts(level));
        let instances = tuner.training_instances(level);
        let targets: Vec<f64> = (0..5)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| PAPER_ACCURACIES[i])
            .collect();
        // No budget, one no step survives, and a range around the
        // price of the walk's natural yardstick, a direct solve.
        let direct = tuner.measure_direct(level).cost;
        let scales = [None, Some(0.0), Some(0.02), Some(0.1), Some(0.5), Some(3.0), Some(50.0)];
        let budgets: Vec<Option<f64>> = budgets[..targets.len()]
            .iter()
            .map(|&b| scales[b].map(|scale| scale * direct))
            .collect();
        let states: Vec<_> = instances
            .iter()
            .map(|inst| {
                let mut x = inst.working_grid();
                tuner.fresh_ctx().recurse(level, 1, &mut x, &inst.b, |ctx, ec, bc| {
                    below.run(level - 1, 0, ec, bc, ctx)
                });
                x
            })
            .collect();
        let starts = (from_states == 1).then_some(&states[..]);

        let measure = |targets: &[f64], budgets: &[Option<f64>]| {
            let walk = Walk { instances: &instances, starts, targets, budgets };
            if sor == 1 {
                tuner.measure_sor(level, &walk)
            } else {
                tuner.measure_recurse(&below, level, sub_acc, &walk)
            }
        };
        let together = measure(&targets, &budgets);
        prop_assert_eq!(together.len(), targets.len());
        for i in 0..targets.len() {
            let alone = measure(&targets[i..=i], &budgets[i..=i]);
            prop_assert!(
                alone[0] == together[i],
                "target {} of {:?}: alone {:?}, together {:?}",
                i, targets, alone[0], together[i]
            );
        }
    }
}
