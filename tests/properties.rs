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
        let stride = if align_negative == 1 { -align_stride } else { align_stride };
        let st = if st_negative == 1 { -st } else { st };
        let ad = one_dim(lb, extent, dim_dist(format, p, textent, k), stride, offset);
        owned_counts_match(&ad, p, lo, lo + len * st.signum(), st)?;
    }

    /// The same counts far from zero, where the closed forms' products and
    /// floor sums pass 64 bits: the array's lower bound, the triplet's
    /// start and the alignment offset sit near ±2^31, ±2^40 or ±2^60; the template extent and CYCLIC(k) block size are small or
    /// near 2^40, 2^61 or 2^62; the triplet's stride is small or near 2^20
    /// or 2^50. Lengths stay below 330, so the brute force stays cheap. A
    /// case whose cells would reach 2^62 is skipped: the oracle,
    /// `owner_coord`, computes them in an `i64`.
    #[test]
    fn owned_count_matches_bruteforce_far_from_zero(
        scale in 0usize..3,
        lb_negative in 0u8..2,
        lb_jitter in -400i64..400,
        offset_negative in 0u8..2,
        offset_jitter in -400i64..400,
        lo_jitter in -400i64..400,
        extent in 0i64..330,
        size_scale in 0usize..4,
        size in 1i64..400,
        p in 1i64..70,
        format in 0u8..3,
        align_stride in 1i64..4,
        align_negative in 0u8..2,
        len in -20i64..330,
        st_scale in 0usize..3,
        st in 1i64..6,
        st_negative in 0u8..2,
    ) {
        let far = [1i64 << 31, 1 << 40, 1 << 60][scale];
        let sign = |negative: u8| if negative == 1 { -1 } else { 1 };
        let lb = sign(lb_negative) * far + lb_jitter;
        let offset = sign(offset_negative) * far + offset_jitter;
        let size = [0, 1i64 << 40, 1 << 61, 1 << 62][size_scale] + size;
        let stride = sign(align_negative) * align_stride;
        let st = sign(st_negative) * ([0, 1i64 << 20, 1 << 50][st_scale] + st);
        let lo = lb + lo_jitter;
        let hi = lo + len * st.signum();
        let cell = |i: i64| (stride as i128 * i as i128 + offset as i128).abs();
        if [lb, lb + extent - 1, lo, hi].into_iter().any(|i| cell(i) >= 1 << 62) {
            return Ok(());
        }
        let ad = one_dim(lb, extent, dim_dist(format, p, size, size), stride, offset);
        owned_counts_match(&ad, p, lo, hi, st)?;
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

    /// FORALL in place: random FORALLs over small 1-D and 2-D REAL arrays
    /// (affine and non-affine subscripts; self-reads at the stored element,
    /// shifted, at another constant row and through SUM; targets missing an
    /// index; masks; nested FORALLs) print every element bit for bit as a
    /// reference that evaluates all right-hand sides before any store.
    #[test]
    fn forall_stores_match_two_phase_reference(seed in 0u64..u64::MAX) {
        let program = forall_gen::Program::random(seed);
        let src = program.source();
        let p = parse_program(&src).unwrap();
        let a = analyze(&p, &BTreeMap::new()).unwrap();
        let out = hpf90d::eval::run(&a).map_err(|e| format!("{e}\n{src}"))?;
        prop_assert_eq!(&out.output, &vec![program.reference()], "{}", src);
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

/// Random FORALL programs and their brute-force reference.
mod forall_gen {
    use std::fmt::Write as _;

    /// SplitMix64.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }

        fn chance(&mut self, percent: u64) -> bool {
            self.below(100) < percent
        }
    }

    /// Rows of `P`; `N` (columns, and the length of `X` and `Y`) is random.
    const M: i64 = 4;
    const ARRAYS: [&str; 3] = ["X", "Y", "P"];
    const LITERALS: [&str; 6] = ["0.5", "0.75", "1.5", "2.0", "0.25", "3.0"];

    /// A FORALL index: `I` runs over columns (extent `N`), `J` over rows
    /// (extent `M`).
    #[derive(Clone, Copy, PartialEq)]
    enum Var {
        I,
        J,
    }

    #[derive(Clone, Copy, PartialEq)]
    enum Sub {
        /// `v + shift`, written `shift+v` when `flip`.
        At(Var, i64, bool),
        Const(i64),
        /// The extent's PARAMETER, `N` or `M`.
        Last,
        /// `E+1-v`: not affine.
        Rev(Var),
        /// `MOD(v*2,E)+1`: not affine.
        Mod(Var),
    }

    enum E {
        Lit(&'static str),
        Index(Var),
        Elem(usize, Vec<Sub>),
        Sum(usize),
        Bin(char, Box<E>, Box<E>),
    }

    struct Assign {
        arr: usize,
        subs: Vec<Sub>,
        rhs: E,
    }

    enum Item {
        Assign(Assign),
        Nested(Forall),
    }

    struct Forall {
        /// Index, first value, distance of the last value from the extent.
        triplets: Vec<(Var, i64, i64)>,
        /// `mask .GT. literal`.
        mask: Option<(E, &'static str)>,
        body: Vec<Item>,
    }

    pub struct Program {
        n: i64,
        foralls: Vec<Forall>,
    }

    #[derive(Clone, Copy)]
    enum V {
        Int(i64),
        Real(f64),
    }

    impl V {
        fn real(self) -> f64 {
            match self {
                V::Int(i) => i as f64,
                V::Real(x) => x,
            }
        }
    }

    impl Program {
        /// Three FORALLs give the arrays distinct values, then up to four
        /// random ones follow.
        pub fn random(seed: u64) -> Program {
            let mut rng = Rng(seed);
            let n = 4 + rng.below(4) as i64;
            let linear = |arr, subs, a: &'static str, b: &'static str, v| Assign {
                arr,
                subs,
                rhs: E::Bin(
                    '+',
                    Box::new(E::Bin('*', Box::new(E::Index(v)), Box::new(E::Lit(a)))),
                    Box::new(E::Lit(b)),
                ),
            };
            let init = |triplets, a: Assign| Forall {
                triplets,
                mask: None,
                body: vec![Item::Assign(a)],
            };
            let at = |v| Sub::At(v, 0, false);
            let mut foralls = vec![
                init(
                    vec![(Var::I, 1, 0)],
                    linear(0, vec![at(Var::I)], "0.75", "0.5", Var::I),
                ),
                init(
                    vec![(Var::I, 1, 0)],
                    linear(1, vec![at(Var::I)], "1.5", "0.25", Var::I),
                ),
                init(
                    vec![(Var::I, 1, 0), (Var::J, 1, 0)],
                    linear(2, vec![at(Var::J), at(Var::I)], "0.5", "2.0", Var::J),
                ),
            ];
            let mut g = Gen { rng, n };
            for _ in 0..1 + g.rng.below(4) {
                foralls.push(g.forall());
            }
            Program { n, foralls }
        }

        pub fn source(&self) -> String {
            let mut s = format!(
                "PROGRAM T\nINTEGER, PARAMETER :: N = {}\nINTEGER, PARAMETER :: M = {M}\n\
                 REAL X(N), Y(N), P(M, N)\n",
                self.n
            );
            for f in &self.foralls {
                f.render(&mut s);
            }
            s.push_str("PRINT *, X, Y, P\nEND\n");
            s
        }

        /// The line the program prints, computed with every right-hand
        /// side of a FORALL statement evaluated before any store.
        pub fn reference(&self) -> String {
            let n = self.n as usize;
            let mut st = State {
                n: self.n,
                arrays: vec![vec![0.0; n], vec![0.0; n], vec![0.0; n * M as usize]],
            };
            for f in &self.foralls {
                st.forall(f, [0, 0]);
            }
            let all: Vec<String> = st.arrays.concat().iter().map(|x| format!("{x}")).collect();
            all.join(" ")
        }
    }

    struct Gen {
        rng: Rng,
        n: i64,
    }

    impl Gen {
        fn forall(&mut self) -> Forall {
            let (i, j) = ((Var::I, 2, 1), (Var::J, 2, 1));
            match self.rng.below(3) {
                0 => self.construct(vec![i], &[Var::I]),
                1 => self.construct(vec![i, j], &[Var::I, Var::J]),
                _ => {
                    let mut outer = self.construct(vec![i], &[Var::I]);
                    let inner = self.construct(vec![j], &[Var::I, Var::J]);
                    let at = self.rng.below(outer.body.len() as u64 + 1) as usize;
                    outer.body.insert(at, Item::Nested(inner));
                    outer
                }
            }
        }

        /// A FORALL over `triplets` whose body sees the indices `scope`.
        fn construct(&mut self, triplets: Vec<(Var, i64, i64)>, scope: &[Var]) -> Forall {
            let mask = self.rng.chance(30).then(|| {
                let arr = self.rng.below(3) as usize;
                let subs = self.subs(arr, scope);
                (E::Elem(arr, subs), LITERALS[self.rng.below(6) as usize])
            });
            let body = (0..1 + self.rng.below(2))
                .map(|_| {
                    let arr = self.rng.below(3) as usize;
                    let subs = self.subs(arr, scope);
                    let rhs = self.expr(3, &(arr, &subs), scope);
                    Item::Assign(Assign { arr, subs, rhs })
                })
                .collect();
            Forall {
                triplets,
                mask,
                body,
            }
        }

        fn subs(&mut self, arr: usize, scope: &[Var]) -> Vec<Sub> {
            let dims: &[Var] = if arr == 2 {
                &[Var::J, Var::I]
            } else {
                &[Var::I]
            };
            dims.iter().map(|&v| self.sub(v, scope)).collect()
        }

        /// A subscript for a dimension that index `dim` runs over.
        fn sub(&mut self, dim: Var, scope: &[Var]) -> Sub {
            let extent = if dim == Var::I { self.n } else { M };
            let constant = match self.rng.below(4) {
                0 => Sub::Last,
                _ => Sub::Const(1 + self.rng.below(extent as u64) as i64),
            };
            if !scope.contains(&dim) {
                return constant;
            }
            match self.rng.below(10) {
                0..=4 => Sub::At(dim, self.rng.below(3) as i64 - 1, self.rng.chance(50)),
                5 | 6 => constant,
                7 => Sub::Rev(dim),
                _ => Sub::Mod(dim),
            }
        }

        /// A right-hand side that often reads the target `arr(subs)`: at the
        /// stored element, shifted, at another constant, or at random.
        fn expr(&mut self, depth: u32, target: &(usize, &[Sub]), scope: &[Var]) -> E {
            if depth > 0 && self.rng.chance(60) {
                let op = ['+', '-', '*'][self.rng.below(3) as usize];
                let l = self.expr(depth - 1, target, scope);
                let r = self.expr(depth - 1, target, scope);
                return E::Bin(op, Box::new(l), Box::new(r));
            }
            let (arr, subs) = *target;
            match self.rng.below(10) {
                0 => E::Lit(LITERALS[self.rng.below(6) as usize]),
                1 => E::Index(scope[self.rng.below(scope.len() as u64) as usize]),
                2 => E::Sum(if self.rng.chance(50) {
                    arr
                } else {
                    self.rng.below(3) as usize
                }),
                3 | 4 => E::Elem(arr, subs.to_vec()),
                5 | 6 => {
                    let mut subs = subs.to_vec();
                    let k = self.rng.below(subs.len() as u64) as usize;
                    let dim = if arr == 2 && k == 0 { Var::J } else { Var::I };
                    subs[k] = match subs[k] {
                        Sub::At(v, 0, flip) => Sub::At(v, 2 * self.rng.below(2) as i64 - 1, flip),
                        Sub::At(v, _, flip) => Sub::At(v, 0, flip),
                        _ => self.sub(dim, scope),
                    };
                    E::Elem(arr, subs)
                }
                _ => {
                    let other = self.rng.below(3) as usize;
                    E::Elem(other, self.subs(other, scope))
                }
            }
        }
    }

    fn var(v: Var) -> &'static str {
        if v == Var::I {
            "I"
        } else {
            "J"
        }
    }

    fn extent_name(v: Var) -> &'static str {
        if v == Var::I {
            "N"
        } else {
            "M"
        }
    }

    fn render_subs(arr: usize, subs: &[Sub], s: &mut String) {
        let dims: &[Var] = if arr == 2 {
            &[Var::J, Var::I]
        } else {
            &[Var::I]
        };
        let parts: Vec<String> = subs
            .iter()
            .zip(dims)
            .map(|(sub, &dim)| match *sub {
                Sub::At(v, 0, _) => var(v).to_string(),
                Sub::At(v, c, true) if c > 0 => format!("{c}+{}", var(v)),
                Sub::At(v, c, _) if c > 0 => format!("{}+{c}", var(v)),
                Sub::At(v, c, _) => format!("{}-{}", var(v), -c),
                Sub::Const(c) => c.to_string(),
                Sub::Last => extent_name(dim).into(),
                Sub::Rev(v) => format!("{}+1-{}", extent_name(dim), var(v)),
                Sub::Mod(v) => format!("MOD({}*2,{})+1", var(v), extent_name(dim)),
            })
            .collect();
        let _ = write!(s, "{}({})", ARRAYS[arr], parts.join(","));
    }

    impl E {
        fn render(&self, s: &mut String) {
            match self {
                E::Lit(x) => s.push_str(x),
                E::Index(v) => s.push_str(var(*v)),
                E::Elem(arr, subs) => render_subs(*arr, subs, s),
                E::Sum(arr) => {
                    let _ = write!(s, "SUM({})", ARRAYS[*arr]);
                }
                E::Bin(op, l, r) => {
                    s.push('(');
                    l.render(s);
                    let _ = write!(s, " {op} ");
                    r.render(s);
                    s.push(')');
                }
            }
        }
    }

    impl Forall {
        fn render(&self, s: &mut String) {
            s.push_str("FORALL (");
            let triplets: Vec<String> = self
                .triplets
                .iter()
                .map(|&(v, lo, back)| match back {
                    0 => format!("{} = {lo}:{}", var(v), extent_name(v)),
                    _ => format!("{} = {lo}:{}-{back}", var(v), extent_name(v)),
                })
                .collect();
            s.push_str(&triplets.join(", "));
            if let Some((e, lit)) = &self.mask {
                s.push_str(", ");
                e.render(s);
                let _ = write!(s, " .GT. {lit}");
            }
            s.push_str(")\n");
            for item in &self.body {
                match item {
                    Item::Assign(a) => {
                        render_subs(a.arr, &a.subs, s);
                        s.push_str(" = ");
                        a.rhs.render(s);
                        s.push('\n');
                    }
                    Item::Nested(f) => f.render(s),
                }
            }
            s.push_str("END FORALL\n");
        }
    }

    struct State {
        n: i64,
        arrays: Vec<Vec<f64>>,
    }

    impl State {
        fn extent(&self, v: Var) -> i64 {
            if v == Var::I {
                self.n
            } else {
                M
            }
        }

        /// The value of `sub` along a dimension that `dim` runs over, with
        /// the indices bound to `env` (`I`, `J`).
        fn sub(&self, sub: Sub, dim: Var, env: [i64; 2]) -> i64 {
            let val = |v: Var| env[v as usize];
            match sub {
                Sub::At(v, c, _) => val(v) + c,
                Sub::Const(c) => c,
                Sub::Last => self.extent(dim),
                Sub::Rev(v) => self.extent(dim) + 1 - val(v),
                Sub::Mod(v) => (val(v) * 2) % self.extent(dim) + 1,
            }
        }

        fn offset(&self, arr: usize, subs: &[Sub], env: [i64; 2]) -> usize {
            if arr == 2 {
                let row = self.sub(subs[0], Var::J, env);
                let col = self.sub(subs[1], Var::I, env);
                ((row - 1) + M * (col - 1)) as usize
            } else {
                (self.sub(subs[0], Var::I, env) - 1) as usize
            }
        }

        /// `hpf_lang::value_ops` on INTEGER and REAL operands.
        fn eval(&self, e: &E, env: [i64; 2]) -> V {
            match e {
                E::Lit(x) => V::Real(x.parse().unwrap()),
                E::Index(v) => V::Int(env[*v as usize]),
                E::Elem(arr, subs) => V::Real(self.arrays[*arr][self.offset(*arr, subs, env)]),
                E::Sum(arr) => {
                    let a = &self.arrays[*arr];
                    V::Real(a[1..].iter().fold(a[0], |acc, x| acc + x))
                }
                E::Bin(op, l, r) => match (self.eval(l, env), self.eval(r, env)) {
                    (V::Int(a), V::Int(b)) => V::Int(match op {
                        '+' => a.wrapping_add(b),
                        '-' => a.wrapping_sub(b),
                        _ => a.wrapping_mul(b),
                    }),
                    (a, b) => {
                        let (a, b) = (a.real(), b.real());
                        V::Real(match op {
                            '+' => a + b,
                            '-' => a - b,
                            _ => a * b,
                        })
                    }
                },
            }
        }

        /// One FORALL with the enclosing indices bound to `env`: the mask
        /// over every tuple (first index fastest), then each body item in
        /// order. A nested FORALL runs once per active tuple, as the
        /// evaluator runs it.
        fn forall(&mut self, f: &Forall, env: [i64; 2]) {
            let mut tuples = vec![env];
            for &(v, lo, back) in &f.triplets {
                let hi = self.extent(v) - back;
                tuples = (lo..=hi)
                    .flat_map(|x| {
                        tuples.iter().map(move |&t| {
                            let mut t = t;
                            t[v as usize] = x;
                            t
                        })
                    })
                    .collect();
            }
            if let Some((e, lit)) = &f.mask {
                let lit: f64 = lit.parse().unwrap();
                tuples.retain(|&t| self.eval(e, t).real() > lit);
            }
            for item in &f.body {
                match item {
                    Item::Assign(a) => {
                        let stores: Vec<(usize, f64)> = tuples
                            .iter()
                            .map(|&t| (self.offset(a.arr, &a.subs, t), self.eval(&a.rhs, t).real()))
                            .collect();
                        for (off, x) in stores {
                            self.arrays[a.arr][off] = x;
                        }
                    }
                    Item::Nested(inner) => {
                        for &t in &tuples {
                            self.forall(inner, t);
                        }
                    }
                }
            }
        }
    }
}

/// BLOCK over a template of `textent` cells, CYCLIC or CYCLIC(`k`) on `p`
/// processors, by `format` 0, 1 or 2.
fn dim_dist(format: u8, p: i64, textent: i64, k: i64) -> DimDist {
    match format {
        0 => DimDist::Block {
            pdim: 0,
            pcount: p,
            block: (textent + p - 1) / p,
        },
        1 => DimDist::Cyclic {
            pdim: 0,
            pcount: p,
            k: 1,
        },
        _ => DimDist::Cyclic {
            pdim: 0,
            pcount: p,
            k,
        },
    }
}

/// A one-dimensional array `A(lb : lb + extent - 1)` aligned to template
/// cell `stride·i + offset`, mapped by `dim`.
fn one_dim(lb: i64, extent: i64, dim: DimDist, stride: i64, offset: i64) -> ArrayDist {
    ArrayDist {
        array: "A".into(),
        bounds: vec![(lb, lb + extent - 1)],
        align: vec![(stride, offset)],
        dims: vec![dim],
        replicated: false,
        elem_bytes: 4,
    }
}

/// `owned_count_in_range` over `lo:hi:st` and `local_extent` equal a walk
/// of `owner_coord` at every coordinate of `p` and the two just outside.
fn owned_counts_match(ad: &ArrayDist, p: i64, lo: i64, hi: i64, st: i64) -> Result<(), String> {
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
    let (lb, ub) = ad.bounds[0];
    for c in -1..=p {
        prop_assert_eq!(
            ad.owned_count_in_range(0, c, lo, hi, st),
            brute(c, lo, hi, st),
            "c={}",
            c
        );
        prop_assert_eq!(ad.local_extent(0, c), brute(c, lb, ub, 1) as i64, "c={}", c);
    }
    Ok(())
}
