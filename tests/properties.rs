//! Property-based tests over the core invariants (proptest).

use hpf90d::compiler::{partition, ArrayDist, DimDist};
use hpf90d::lang::{analyze, parse_program, pretty_program};
use proptest::prelude::*;
use std::collections::BTreeMap;

proptest! {
    /// BLOCK ownership is a partition: every index owned by exactly one
    /// coordinate, and the per-coordinate counts sum to the extent.
    #[test]
    fn block_ownership_partitions(n in 1i64..2000, p in 1i64..17) {
        let src = format!(
            "PROGRAM T\nREAL A({n})\n!HPF$ PROCESSORS P({p})\n!HPF$ DISTRIBUTE A(BLOCK) ONTO P\nA = 0.0\nEND\n"
        );
        let prog = parse_program(&src).unwrap();
        let a = analyze(&prog, &BTreeMap::new()).unwrap();
        let table = partition(&a, None).unwrap();
        let ad = table.get("A").unwrap();
        let mut counts = vec![0i64; p as usize];
        for i in 1..=n {
            let c = ad.owner_coord(0, i);
            prop_assert!((0..p).contains(&c), "owner {c} out of range");
            counts[c as usize] += 1;
        }
        prop_assert_eq!(counts.iter().sum::<i64>(), n);
        for c in 0..p {
            prop_assert_eq!(ad.local_extent(0, c), counts[c as usize]);
        }
        // BLOCK is contiguous: owners are non-decreasing over the index range.
        let owners: Vec<i64> = (1..=n).map(|i| ad.owner_coord(0, i)).collect();
        prop_assert!(owners.windows(2).all(|w| w[0] <= w[1]));
    }

    /// CYCLIC ownership is a partition with near-equal counts (max-min ≤ 1).
    #[test]
    fn cyclic_ownership_balances(n in 1i64..2000, p in 1i64..17) {
        let src = format!(
            "PROGRAM T\nREAL A({n})\n!HPF$ PROCESSORS P({p})\n!HPF$ DISTRIBUTE A(CYCLIC) ONTO P\nA = 0.0\nEND\n"
        );
        let prog = parse_program(&src).unwrap();
        let a = analyze(&prog, &BTreeMap::new()).unwrap();
        let table = partition(&a, None).unwrap();
        let ad = table.get("A").unwrap();
        {
            let is_cyclic = matches!(ad.dims[0], DimDist::Cyclic { .. });
            prop_assert!(is_cyclic);
        }
        let mut counts = vec![0i64; p as usize];
        for i in 1..=n {
            counts[ad.owner_coord(0, i) as usize] += 1;
        }
        prop_assert_eq!(counts.iter().sum::<i64>(), n);
        let max = counts.iter().max().unwrap();
        let min = counts.iter().min().unwrap();
        prop_assert!(max - min <= 1, "cyclic imbalance: {counts:?}");
    }

    /// The closed-form ownership counts equal a brute-force `owner_coord`
    /// loop: `owned_count_in_range` over arbitrary triplets (empty ones and
    /// negative strides included) and `local_extent`, for BLOCK, CYCLIC and
    /// CYCLIC(k) with k up to past the extent, align strides of ±1 to ±3
    /// with offsets, every coordinate and the two just outside the grid.
    #[test]
    fn owned_count_matches_bruteforce(
        lb in -20i64..20,
        extent in 0i64..300,
        textent in 1i64..400,
        p in 1i64..70,
        format in 0u8..3,
        k in 2i64..300,
        align_stride in 1i64..4,
        align_negative in 0u8..2,
        offset in -40i64..40,
        lo in -30i64..330,
        len in -20i64..330,
        st in 1i64..6,
        st_negative in 0u8..2,
    ) {
        let ub = lb + extent - 1;
        let stride = if align_negative == 1 { -align_stride } else { align_stride };
        let st = if st_negative == 1 { -st } else { st };
        let hi = lo + len * st.signum();
        let dim = match format {
            0 => DimDist::Block { pdim: 0, pcount: p, block: (textent + p - 1) / p },
            1 => DimDist::Cyclic { pdim: 0, pcount: p, k: 1 },
            _ => DimDist::Cyclic { pdim: 0, pcount: p, k },
        };
        let ad = ArrayDist {
            array: "A".into(),
            bounds: vec![(lb, ub)],
            align: vec![(stride, offset)],
            dims: vec![dim],
            replicated: false,
            elem_bytes: 4,
        };
        let brute = |c: i64, lo: i64, hi: i64, st: i64| {
            let mut n = 0u64;
            let mut i = lo;
            while (st > 0 && i <= hi) || (st < 0 && i >= hi) {
                if ad.owner_coord(0, i) == c {
                    n += 1;
                }
                i += st;
            }
            n
        };
        for c in -1..=p {
            prop_assert_eq!(ad.owned_count_in_range(0, c, lo, hi, st), brute(c, lo, hi, st), "c={}", c);
            prop_assert_eq!(ad.local_extent(0, c), brute(c, lb, ub, 1) as i64, "c={}", c);
        }
    }

    /// Pretty-printing is a fixpoint: parse(pretty(parse(s))) == pretty(parse(s)).
    #[test]
    fn pretty_print_fixpoint(
        n in 1u32..100,
        coef in 1u32..50,
        lo in 1u32..10,
    ) {
        let src = format!(
            "PROGRAM T\nINTEGER, PARAMETER :: N = {n}\nREAL A(N+{lo}), B(N+{lo})\nFORALL (I = {lo}:N) A(I) = B(I) * {coef}.0 + 1.0\nEND\n"
        );
        let p1 = parse_program(&src).unwrap();
        let text1 = pretty_program(&p1);
        let p2 = parse_program(&text1).unwrap();
        prop_assert_eq!(text1, pretty_program(&p2));
    }

    /// Forall two-pass semantics: `X(K+1) = X(K) + X(K-1)` over any range
    /// equals the two-phase oracle (evaluate all RHS, then assign).
    #[test]
    fn forall_matches_two_pass_oracle(n in 6usize..80, lo in 2usize..4) {
        let hi = n - 1;
        let src = format!(
            "PROGRAM T\nINTEGER, PARAMETER :: N = {n}\nREAL X(N), S\nFORALL (I = 1:N) X(I) = I * 1.0\nFORALL (K = {lo}:{hi}) X(K+1) = X(K) + X(K-1)\nS = SUM(X)\nEND\n"
        );
        let p = parse_program(&src).unwrap();
        let a = analyze(&p, &BTreeMap::new()).unwrap();
        let out = hpf90d::eval::run(&a).unwrap();
        let got = out.scalars.get("S").and_then(|v| v.as_f64()).unwrap();

        // Oracle in plain Rust.
        let mut x: Vec<f64> = (0..=n).map(|i| i as f64).collect(); // 1-based
        let rhs: Vec<f64> = (lo..=hi).map(|k| x[k] + x[k - 1]).collect();
        for (j, k) in (lo..=hi).enumerate() {
            x[k + 1] = rhs[j];
        }
        let oracle: f64 = x[1..=n].iter().sum();
        prop_assert!((got - oracle).abs() < 1e-6, "{got} vs {oracle}");
    }

    /// Masked forall assigns exactly the masked subset.
    #[test]
    fn masked_forall_counts(n in 4usize..200, m in 2usize..7) {
        let src = format!(
            "PROGRAM T\nINTEGER, PARAMETER :: N = {n}\nREAL A(N), S\nFORALL (I = 1:N, MOD(I, {m}) == 0) A(I) = 1.0\nS = SUM(A)\nEND\n"
        );
        let p = parse_program(&src).unwrap();
        let a = analyze(&p, &BTreeMap::new()).unwrap();
        let out = hpf90d::eval::run(&a).unwrap();
        let got = out.scalars.get("S").and_then(|v| v.as_f64()).unwrap();
        prop_assert_eq!(got as usize, n / m);
    }

    /// Predicted time is non-negative, finite, and monotone in loop trips.
    #[test]
    fn prediction_monotone_in_trips(trips in 1u32..40) {
        let mk = |t: u32| {
            format!(
                "PROGRAM T\nINTEGER, PARAMETER :: N = 64\nREAL A(N)\nINTEGER K\n!HPF$ PROCESSORS P(4)\n!HPF$ DISTRIBUTE A(BLOCK) ONTO P\nDO K = 1, {t}\nA = A + 1.0\nEND DO\nEND\n"
            )
        };
        let t1 = hpf90d::predict_source(&mk(trips), &hpf90d::PredictOptions::with_nodes(4))
            .unwrap()
            .total_seconds();
        let t2 = hpf90d::predict_source(&mk(trips + 1), &hpf90d::PredictOptions::with_nodes(4))
            .unwrap()
            .total_seconds();
        prop_assert!(t1.is_finite() && t1 > 0.0);
        prop_assert!(t2 > t1);
    }

    /// The e-cube hypercube route the DES walks is minimal for every pair
    /// and ends at the target (redundant with the registry's BFS-oracle
    /// test, but kept at the top level for API stability).
    #[test]
    fn hypercube_routes_minimal(dim in 0u32..7, a in 0usize..128, b in 0usize..128) {
        use hpf_machines::Topology;
        let h = hpf90d::machine::Hypercube { dim };
        let a = a % h.nodes();
        let b = b % h.nodes();
        let mut route = Vec::new();
        hpf_machines::topology::HypercubeTopo { cube: h }.route(a, b, &mut route);
        prop_assert_eq!(route.len() as u32, h.hops(a, b));
        prop_assert_eq!(route.last().map_or(a, |&(_, to)| to), b);
    }

    /// Totality of the prediction pipeline on arbitrary text: whatever the
    /// input, parse → compile → interpret returns `Ok` or `Err` — it never
    /// panics. (The proptest harness turns a panic into a test failure.)
    #[test]
    fn pipeline_total_on_arbitrary_input(src in "\\PC{0,160}") {
        let _ = hpf90d::predict_source(&src, &hpf90d::PredictOptions::with_nodes(4));
    }

    /// Same, but with newlines injected so multi-line statements and
    /// directives are actually reached past the first lexer error.
    #[test]
    fn pipeline_total_on_arbitrary_lines(
        lines in proptest::collection::vec("[ A-Za-z0-9+\\-*/(),.:=!$<>']{0,24}", 0..12),
    ) {
        let src = lines.join("\n");
        let _ = hpf90d::predict_source(&src, &hpf90d::PredictOptions::with_nodes(4));
        // The functional interpreter must be total too (bounded steps).
        if let Ok(prog) = parse_program(&src) {
            if let Ok(a) = analyze(&prog, &BTreeMap::new()) {
                let _ = hpf90d::eval::run_with_limit(&a, 10_000);
            }
        }
    }

    /// Structured fuzz: programs assembled from a pool of statement
    /// fragments — valid, subtly invalid, and garbage — wrapped in a real
    /// header with HPF directives, so the deeper stages (normalization,
    /// partitioning, communication detection, interpretation) are exercised,
    /// not just the parser's error path.
    #[test]
    fn pipeline_total_on_structured_fuzz(
        picks in proptest::collection::vec(0usize..16, 0..8),
        n in 4u32..65,
        p in 1u32..9,
    ) {
        const FRAGMENTS: [&str; 16] = [
            "A = A + 1.0",
            "FORALL (I = 1:N) A(I) = B(I)",
            "FORALL (I = 2:N) A(I) = A(I-1) * 0.5",
            "DO K = 1, M\nA = A * 2.0\nEND DO",
            "A(0) = 3.0",
            "B = CSHIFT(A, 1)",
            "S = SUM(A)",
            "WHERE (A > 0.0)\nB = A\nEND WHERE",
            "A = B(",
            "X = UNDEFINEDVAR + 1",
            "!HPF$ DISTRIBUTE A(CYCLIC) ONTO P",
            "IF (A(1) > 0.5) THEN\nB = A\nEND IF",
            "@#$%^&",
            "A = TRANSPOSE(B)",
            "END",
            "S = A(K) + B(M)",
        ];
        let body: String = picks
            .iter()
            .map(|&i| FRAGMENTS[i])
            .collect::<Vec<_>>()
            .join("\n");
        let src = format!(
            "PROGRAM FUZZ\nINTEGER, PARAMETER :: N = {n}\nREAL A(N), B(N), S, X\nINTEGER K, M\n!HPF$ PROCESSORS P({p})\n!HPF$ DISTRIBUTE A(BLOCK) ONTO P\n!HPF$ DISTRIBUTE B(BLOCK) ONTO P\n{body}\nEND\n"
        );
        if let Ok(pred) = hpf90d::predict_source(&src, &hpf90d::PredictOptions::with_nodes(p as usize)) {
            let t = pred.total_seconds();
            prop_assert!(t.is_finite() && t >= 0.0, "non-finite prediction {t}");
        }
    }

    /// Resilience determinism: an identical `SimConfig` (seed + fault plan)
    /// yields a byte-identical simulation — every statistic bit-equal and
    /// the fault-event counts identical — across two independently
    /// constructed simulators.
    #[test]
    fn faulty_simulation_is_deterministic(
        seed in 0u64..1_000_000,
        plan_idx in 0usize..5,
        runs in 1usize..16,
    ) {
        use hpf90d::machine::FaultPlan;
        let plan = match plan_idx {
            0 => FaultPlan::none(),
            1 => FaultPlan::degraded_link(0, 1, 4.0),
            2 => FaultPlan::link_down(0, 2),
            3 => FaultPlan::slow_node(1, 2.0),
            _ => FaultPlan::lossy(0.05),
        };
        let src = "PROGRAM T\nINTEGER, PARAMETER :: N = 64\nREAL A(N), B(N)\n!HPF$ PROCESSORS P(8)\n!HPF$ DISTRIBUTE A(BLOCK) ONTO P\n!HPF$ DISTRIBUTE B(BLOCK) ONTO P\nFORALL (I = 2:63) B(I) = (A(I-1) + A(I+1)) * 0.5\nA = B\nEND\n";
        let prog = parse_program(src).unwrap();
        let analyzed = analyze(&prog, &BTreeMap::new()).unwrap();
        let opts = hpf90d::compiler::CompileOptions { nodes: 8, ..Default::default() };
        let spmd = hpf90d::compiler::compile(&analyzed, &opts).unwrap();
        let machine = hpf90d::machine::ipsc860(8);
        let run = || {
            let cfg = hpf90d::sim::SimConfig {
                runs,
                seed,
                faults: plan.clone(),
                ..Default::default()
            };
            hpf90d::sim::Simulator::with_config(&machine, cfg).simulate(&spmd, None)
        };
        let (r1, r2) = (run(), run());
        prop_assert_eq!(r1.mean.to_bits(), r2.mean.to_bits());
        prop_assert_eq!(r1.std.to_bits(), r2.std.to_bits());
        prop_assert_eq!(r1.min.to_bits(), r2.min.to_bits());
        prop_assert_eq!(r1.max.to_bits(), r2.max.to_bits());
        prop_assert_eq!(r1.comp.to_bits(), r2.comp.to_bits());
        prop_assert_eq!(r1.comm.to_bits(), r2.comm.to_bits());
        prop_assert_eq!(r1.overhead.to_bits(), r2.overhead.to_bits());
        prop_assert_eq!(r1.fault_stats, r2.fault_stats);
        // Byte-identical replay: the rendered record (floats print their
        // shortest round-trip form, so equal text ⇔ equal bits).
        prop_assert_eq!(format!("{r1:?}"), format!("{r2:?}"));
    }
}
