//! The benchmark kernels as HPF/Fortran 90D source generators.

/// Laplace-solver distribution variants (§5.2.1, Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaplaceDist {
    /// `(BLOCK, BLOCK)` on a 2-D processor grid.
    BlockBlock,
    /// `(BLOCK, *)` — rows in blocks.
    BlockStar,
    /// `(*, BLOCK)` — columns in blocks.
    StarBlock,
}

impl LaplaceDist {
    pub fn label(self) -> &'static str {
        match self {
            LaplaceDist::BlockBlock => "(Blk,Blk)",
            LaplaceDist::BlockStar => "(Blk,*)",
            LaplaceDist::StarBlock => "(*,Blk)",
        }
    }
}

/// Which benchmark this is (drives per-kernel defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    Lfk1,
    Lfk2,
    Lfk3,
    Lfk9,
    Lfk14,
    Lfk22,
    Pbs1,
    Pbs2,
    Pbs3,
    Pbs4,
    Pi,
    NBody,
    Financial,
    Laplace(LaplaceDist),
    /// Out-of-core Jacobi Laplace: the grid lives on the striped file
    /// system, is READ in before the sweep, CHECKPOINTed every iteration
    /// and WRITTEN back at the end (ViPIOS-style two-phase access).
    OocLaplace,
    /// Out-of-core N-body: body positions/masses are READ from the I/O
    /// servers, forces CHECKPOINTed per systolic step and WRITTEN back.
    OocNBody,
}

/// One benchmark kernel.
#[derive(Debug, Clone)]
pub struct Kernel {
    pub kind: KernelKind,
    pub name: &'static str,
    pub description: &'static str,
    /// Whether the paper classifies it as a benchmark kernel (vs a
    /// "real-life" application) — kernels are "specifically coded to task
    /// the compiler" and show the larger errors in Table 2.
    pub is_kernel: bool,
    /// Problem-size sweep used in Table 2 (min, max; swept by doubling).
    pub size_range: (usize, usize),
}

impl Kernel {
    /// Generate HPF source for problem size `n` on `procs` processors.
    pub fn source(&self, n: usize, procs: usize) -> String {
        source_for(self.kind, n, procs)
    }

    /// The exact processor-grid extents [`source`](Self::source) bakes into
    /// its PROCESSORS directive for `procs` processors. A compile-once
    /// artifact re-binding the machine-size critical variable must pin this
    /// shape (via `CompileOptions::grid_extents`) so its partitioning
    /// matches regenerated source exactly.
    pub fn grid_extents(&self, procs: usize) -> Vec<i64> {
        match self.kind {
            KernelKind::Laplace(LaplaceDist::BlockBlock) => {
                let p1 = near_square_factor(procs);
                vec![p1 as i64, (procs / p1) as i64]
            }
            _ => vec![procs as i64],
        }
    }

    /// The paper's sweep sizes (doubling within the range).
    pub fn sweep_sizes(&self) -> Vec<usize> {
        let (lo, hi) = self.size_range;
        let mut v = Vec::new();
        let mut s = lo;
        while s <= hi {
            v.push(s);
            s *= 2;
        }
        v
    }
}

/// All kernels in Table 1 order (Laplace expands to its three variants).
pub fn all_kernels() -> Vec<Kernel> {
    use KernelKind::*;
    vec![
        Kernel {
            kind: Lfk1,
            name: "LFK 1",
            description: "Hydro Fragment",
            is_kernel: true,
            size_range: (128, 4096),
        },
        Kernel {
            kind: Lfk2,
            name: "LFK 2",
            description: "ICCG Excerpt (Incomplete Cholesky; Conj. Grad.)",
            is_kernel: true,
            size_range: (128, 4096),
        },
        Kernel {
            kind: Lfk3,
            name: "LFK 3",
            description: "Inner Product",
            is_kernel: true,
            size_range: (128, 4096),
        },
        Kernel {
            kind: Lfk9,
            name: "LFK 9",
            description: "Integrate Predictors",
            is_kernel: true,
            size_range: (128, 4096),
        },
        Kernel {
            kind: Lfk14,
            name: "LFK 14",
            description: "1-D PIC (Particle In Cell)",
            is_kernel: true,
            size_range: (128, 4096),
        },
        Kernel {
            kind: Lfk22,
            name: "LFK 22",
            description: "Planckian Distribution",
            is_kernel: true,
            size_range: (128, 4096),
        },
        Kernel {
            kind: Pbs1,
            name: "PBS 1",
            description: "Trapezoidal rule estimate of an integral of f(x)",
            is_kernel: true,
            size_range: (128, 4096),
        },
        Kernel {
            kind: Pbs2,
            name: "PBS 2",
            description: "Compute e = sum of products (1 + 0.5^|i-j| + 0.001)",
            is_kernel: true,
            size_range: (256, 65536),
        },
        Kernel {
            kind: Pbs3,
            name: "PBS 3",
            description: "Compute S = sum_i prod_j a_ij",
            is_kernel: true,
            size_range: (256, 65536),
        },
        Kernel {
            kind: Pbs4,
            name: "PBS 4",
            description: "Compute R = sum_i 1/x_i",
            is_kernel: true,
            size_range: (128, 4096),
        },
        Kernel {
            kind: Pi,
            name: "PI",
            description: "Approximation of pi by n-point quadrature",
            is_kernel: false,
            size_range: (128, 4096),
        },
        Kernel {
            kind: NBody,
            name: "N-Body",
            description: "Newtonian gravitational n-body simulation",
            is_kernel: false,
            size_range: (16, 4096),
        },
        Kernel {
            kind: Financial,
            name: "Financial",
            description: "Parallel stock option pricing model",
            is_kernel: false,
            size_range: (32, 512),
        },
        Kernel {
            kind: Laplace(LaplaceDist::BlockBlock),
            name: "Laplace (Blk-Blk)",
            description: "Laplace solver based on Jacobi iterations",
            is_kernel: false,
            size_range: (16, 256),
        },
        Kernel {
            kind: Laplace(LaplaceDist::BlockStar),
            name: "Laplace (Blk-X)",
            description: "Laplace solver based on Jacobi iterations",
            is_kernel: false,
            size_range: (16, 256),
        },
        Kernel {
            kind: Laplace(LaplaceDist::StarBlock),
            name: "Laplace (X-Blk)",
            description: "Laplace solver based on Jacobi iterations",
            is_kernel: false,
            size_range: (16, 256),
        },
    ]
}

/// The out-of-core kernel variants (ISSUE 10): disk-resident working sets
/// with explicit `READ`/`WRITE`/`CHECKPOINT` phases. Kept separate from
/// [`all_kernels`] so Table 1/2 stay at the paper's sixteen rows.
pub fn ooc_kernels() -> Vec<Kernel> {
    use KernelKind::*;
    vec![
        Kernel {
            kind: OocLaplace,
            name: "Laplace OOC",
            description: "Out-of-core Jacobi Laplace (striped read/checkpoint/write)",
            is_kernel: false,
            size_range: (16, 256),
        },
        Kernel {
            kind: OocNBody,
            name: "N-Body OOC",
            description: "Out-of-core N-body (striped read, per-step checkpoint)",
            is_kernel: false,
            size_range: (128, 2048),
        },
    ]
}

/// Look a kernel up by its Table-1 name (or an out-of-core variant's
/// name), in any letter case, against a table of both lists built once
/// per process.
pub fn kernel_by_name(name: &str) -> Option<Kernel> {
    static SUITE: std::sync::OnceLock<Vec<Kernel>> = std::sync::OnceLock::new();
    SUITE
        .get_or_init(|| all_kernels().into_iter().chain(ooc_kernels()).collect())
        .iter()
        .find(|k| k.name.eq_ignore_ascii_case(name))
        .cloned()
}

/// 1-D PROCESSORS / TEMPLATE / ALIGN / DISTRIBUTE boilerplate.
fn map1d(arrays: &[&str], procs: usize) -> String {
    let mut s = format!("!HPF$ PROCESSORS P({procs})\n!HPF$ TEMPLATE TPL(N)\n");
    for a in arrays {
        s.push_str(&format!("!HPF$ ALIGN {a}(I) WITH TPL(I)\n"));
    }
    s.push_str("!HPF$ DISTRIBUTE TPL(BLOCK) ONTO P\n");
    s
}

fn source_for(kind: KernelKind, n: usize, procs: usize) -> String {
    match kind {
        KernelKind::Lfk1 => format!(
            "PROGRAM LFK1
INTEGER, PARAMETER :: N = {n}
REAL X(N), Y(N), Z(N)
REAL Q, R, T
{map}
Y = 0.5
Z = 1.5
Q = 0.05
R = 0.02
T = 0.01
FORALL (K = 1:N-11) X(K) = Q + Y(K) * (R * Z(K+10) + T * Z(K+11))
END
",
            map = map1d(&["X", "Y", "Z"], procs)
        ),
        KernelKind::Lfk2 => format!(
            // ICCG excerpt: log-depth recursive halving with strided,
            // offset element accesses — deliberately compiler-hostile.
            "PROGRAM LFK2
INTEGER, PARAMETER :: N = {n}
INTEGER, PARAMETER :: N2 = N + N
REAL X(N2), V(N2)
INTEGER II, IP, IPO
!HPF$ PROCESSORS P({procs})
!HPF$ TEMPLATE TPL(N2)
!HPF$ ALIGN X(I) WITH TPL(I)
!HPF$ ALIGN V(I) WITH TPL(I)
!HPF$ DISTRIBUTE TPL(BLOCK) ONTO P
X = 1.0
V = 0.25
II = N
IP = 0
DO WHILE (II > 1)
  IPO = IP
  IP = IP + II
  II = II / 2
  FORALL (K = 1:II) X(IP+K) = X(IPO+2*K) - V(IPO+2*K-1)*X(IPO+2*K-1) - V(IPO+2*K)*X(IPO+2*K)
END DO
END
"
        ),
        KernelKind::Lfk3 => format!(
            "PROGRAM LFK3
INTEGER, PARAMETER :: N = {n}
REAL X(N), Z(N), Q
{map}
X = 0.25
Z = 2.0
Q = DOT_PRODUCT(Z, X)
END
",
            map = map1d(&["X", "Z"], procs)
        ),
        KernelKind::Lfk9 => format!(
            // Integrate predictors: wide multi-operand recurrence over the
            // columns of a 2-D array distributed in its second dimension.
            "PROGRAM LFK9
INTEGER, PARAMETER :: N = {n}
REAL PX(13, N)
REAL DM22, DM23, DM24, DM25, DM26, DM27, DM28, C0
!HPF$ PROCESSORS P({procs})
!HPF$ TEMPLATE TPL(N)
!HPF$ ALIGN PX(*,I) WITH TPL(I)
!HPF$ DISTRIBUTE TPL(BLOCK) ONTO P
PX = 1.0
DM22 = 2.0E-2
DM23 = 3.0E-2
DM24 = 4.0E-2
DM25 = 5.0E-2
DM26 = 6.0E-2
DM27 = 7.0E-2
DM28 = 8.0E-2
C0 = 0.5
FORALL (I = 1:N) PX(1,I) = DM28*PX(13,I) + DM27*PX(12,I) + DM26*PX(11,I) + &
  DM25*PX(10,I) + DM24*PX(9,I) + DM23*PX(8,I) + DM22*PX(7,I) + &
  C0*(PX(5,I) + PX(6,I)) + PX(3,I)
END
"
        ),
        KernelKind::Lfk14 => format!(
            // 1-D particle-in-cell: indirect gather through the cell index.
            "PROGRAM LFK14
INTEGER, PARAMETER :: N = {n}
REAL VX(N), XX(N), EX(N), GRD(N)
INTEGER IX(N)
{map}
XX = 0.5
EX = 0.01
GRD = 1.0
FORALL (K = 1:N) GRD(K) = 1.0 + MOD(K * 7, N) / 2
FORALL (K = 1:N) IX(K) = INT(GRD(K))
FORALL (K = 1:N) VX(K) = VX(K) + EX(IX(K)) * 0.5
FORALL (K = 1:N) XX(K) = XX(K) + VX(K) * 0.01
END
",
            map = map1d(&["VX", "XX", "EX", "GRD", "IX"], procs)
        ),
        KernelKind::Lfk22 => format!(
            // Planckian distribution with the overflow-guard mask.
            "PROGRAM LFK22
INTEGER, PARAMETER :: N = {n}
REAL U(N), V(N), W(N), X(N), Y(N)
{map}
FORALL (K = 1:N) U(K) = 0.5 + MOD(K, 10) / 10.0
V = 2.0
X = 1.5
FORALL (K = 1:N, U(K)/V(K) .LE. 20.0) Y(K) = U(K) / V(K)
FORALL (K = 1:N) W(K) = X(K) / (EXP(Y(K)) - 1.0)
END
",
            map = map1d(&["U", "V", "W", "X", "Y"], procs)
        ),
        KernelKind::Pbs1 => format!(
            // Trapezoidal rule for ∫ f, f(x) = exp(-x²)-flavoured kernel.
            "PROGRAM PBS1
INTEGER, PARAMETER :: N = {n}
REAL F(N), H, S
{map_f}
H = 1.0 / N
FORALL (I = 1:N) F(I) = EXP(-((I - 0.5) * (1.0 / N)) ** 2)
S = SUM(F)
S = S * H
END
",
            map_f = map1d(&["F"], procs)
        ),
        KernelKind::Pbs2 => format!(
            // e = Σ_i Π_j (1 + 0.5^(|i-j|) + 0.001), j = 1..M fixed small.
            "PROGRAM PBS2
INTEGER, PARAMETER :: N = {n}
INTEGER, PARAMETER :: M = 8
REAL ROW(N), ACC(N), E
INTEGER J
{map}
ACC = 1.0
DO J = 1, M
  FORALL (I = 1:N) ROW(I) = 1.0 + 0.5 ** ABS(I - J) + 0.001
  FORALL (I = 1:N) ACC(I) = ACC(I) * ROW(I)
END DO
E = SUM(ACC)
END
",
            map = map1d(&["ROW", "ACC"], procs)
        ),
        KernelKind::Pbs3 => format!(
            "PROGRAM PBS3
INTEGER, PARAMETER :: N = {n}
INTEGER, PARAMETER :: M = 8
REAL A(M, N), R(N), S
!HPF$ PROCESSORS P({procs})
!HPF$ TEMPLATE TPL(N)
!HPF$ ALIGN A(*,I) WITH TPL(I)
!HPF$ ALIGN R(I) WITH TPL(I)
!HPF$ DISTRIBUTE TPL(BLOCK) ONTO P
INTEGER J
A = 1.001
R = 1.0
DO J = 1, M
  FORALL (I = 1:N) R(I) = R(I) * A(J, I)
END DO
S = SUM(R)
END
"
        ),
        KernelKind::Pbs4 => format!(
            "PROGRAM PBS4
INTEGER, PARAMETER :: N = {n}
REAL X(N), T(N), R
{map}
FORALL (I = 1:N) X(I) = 1.0 + MOD(I, 97) / 97.0
FORALL (I = 1:N) T(I) = 1.0 / X(I)
R = SUM(T)
END
",
            map = map1d(&["X", "T"], procs)
        ),
        KernelKind::Pi => format!(
            "PROGRAM PI
INTEGER, PARAMETER :: N = {n}
REAL F(N), H, PIE
{map}
H = 1.0 / N
FORALL (I = 1:N) F(I) = 4.0 / (1.0 + ((I - 0.5) * (1.0 / N)) ** 2)
PIE = SUM(F) * H
END
",
            map = map1d(&["F"], procs)
        ),
        KernelKind::NBody => format!(
            // Systolic (rotating-copy) O(N²) gravitational accumulation:
            // each step circularly shifts the travelling copies, every node
            // accumulates partial forces on its local bodies.
            "PROGRAM NBODY
INTEGER, PARAMETER :: N = {n}
REAL X(N), M(N), XT(N), MT(N), F(N)
REAL G, EPS
INTEGER K
{map}
G = 6.67E-2
EPS = 1.0E-3
FORALL (I = 1:N) X(I) = I * 1.0
M = 1.0
XT = X
MT = M
F = 0.0
DO K = 1, N - 1
  XT = CSHIFT(XT, 1)
  MT = CSHIFT(MT, 1)
  FORALL (I = 1:N) F(I) = F(I) + G * M(I) * MT(I) / ((X(I) - XT(I)) ** 2 + EPS)
END DO
END
",
            map = map1d(&["X", "M", "XT", "MT", "F"], procs)
        ),
        KernelKind::Financial => format!(
            // Binomial-lattice option pricing. Phase 1 builds the price
            // lattice by backward induction (shift per step); Phase 2
            // computes the call prices with no communication (Figure 6).
            "PROGRAM FINANCE
INTEGER, PARAMETER :: N = {n}
INTEGER, PARAMETER :: STEPS = 64
REAL S(N), V(N), C(N)
REAL UP, DISC, PU, STRIKE
INTEGER K
{map}
UP = 1.02
DISC = 0.999
PU = 0.5
STRIKE = 1.1
FORALL (I = 1:N) S(I) = UP ** MOD(I, 16)
V = S
DO K = 1, STEPS
  FORALL (I = 1:N-1) V(I) = MAX(DISC * (PU * V(I+1) + (1.0 - PU) * V(I)), S(I) * EXP(-0.002 * K) - STRIKE)
END DO
FORALL (I = 1:N) C(I) = MAX(V(I) - STRIKE, 0.0) * DISC
END
",
            map = map1d(&["S", "V", "C"], procs)
        ),
        KernelKind::Laplace(dist) => {
            let (grid, fmt) = match dist {
                LaplaceDist::BlockBlock => {
                    // 2-D grid: factor procs into two near-equal powers.
                    let p1 = near_square_factor(procs);
                    let p2 = procs / p1;
                    (format!("P({p1},{p2})"), "(BLOCK,BLOCK)")
                }
                LaplaceDist::BlockStar => (format!("P({procs})"), "(BLOCK,*)"),
                LaplaceDist::StarBlock => (format!("P({procs})"), "(*,BLOCK)"),
            };
            format!(
                "PROGRAM LAPLACE
INTEGER, PARAMETER :: N = {n}
REAL U(N,N), UNEW(N,N)
INTEGER IT
!HPF$ PROCESSORS {grid}
!HPF$ TEMPLATE TPL(N,N)
!HPF$ ALIGN U(I,J) WITH TPL(I,J)
!HPF$ ALIGN UNEW(I,J) WITH TPL(I,J)
!HPF$ DISTRIBUTE TPL{fmt} ONTO P
U = 0.0
U(1:N, 1) = 100.0
DO IT = 1, 10
  FORALL (I = 2:N-1, J = 2:N-1) UNEW(I,J) = 0.25 * (U(I-1,J) + U(I+1,J) + U(I,J-1) + U(I,J+1))
  U(2:N-1, 2:N-1) = UNEW(2:N-1, 2:N-1)
END DO
END
"
            )
        }
        KernelKind::OocLaplace => format!(
            // Out-of-core Jacobi: the grid is disk-resident. READ stages it
            // in through the I/O servers, each sweep iteration commits a
            // CHECKPOINT (restart point for the FaultPlan composition), and
            // the converged grid is WRITTEN back. The explicit `U = 0.0`
            // keeps functional evaluation deterministic — READ is a
            // data-movement phase, not a value source, in the evaluator.
            "PROGRAM LAPLACEOOC
INTEGER, PARAMETER :: N = {n}
REAL U(N,N), UNEW(N,N)
INTEGER IT
!HPF$ PROCESSORS P({procs})
!HPF$ TEMPLATE TPL(N,N)
!HPF$ ALIGN U(I,J) WITH TPL(I,J)
!HPF$ ALIGN UNEW(I,J) WITH TPL(I,J)
!HPF$ DISTRIBUTE TPL(BLOCK,*) ONTO P
U = 0.0
READ(U)
U(1:N, 1) = 100.0
DO IT = 1, 10
  FORALL (I = 2:N-1, J = 2:N-1) UNEW(I,J) = 0.25 * (U(I-1,J) + U(I+1,J) + U(I,J-1) + U(I,J+1))
  U(2:N-1, 2:N-1) = UNEW(2:N-1, 2:N-1)
  CHECKPOINT(U, UNEW)
END DO
WRITE(UNEW)
END
"
        ),
        KernelKind::OocNBody => format!(
            // Out-of-core systolic N-body: positions and masses stream in
            // from the striped servers, the accumulated forces are
            // checkpointed after every rotation step and written back.
            "PROGRAM NBODYOOC
INTEGER, PARAMETER :: N = {n}
REAL X(N), M(N), XT(N), MT(N), F(N)
REAL G, EPS
INTEGER K
{map}
G = 6.67E-2
EPS = 1.0E-3
FORALL (I = 1:N) X(I) = I * 1.0
M = 1.0
READ(X, M)
XT = X
MT = M
F = 0.0
DO K = 1, N - 1
  XT = CSHIFT(XT, 1)
  MT = CSHIFT(MT, 1)
  FORALL (I = 1:N) F(I) = F(I) + G * M(I) * MT(I) / ((X(I) - XT(I)) ** 2 + EPS)
  CHECKPOINT(F)
END DO
WRITE(F)
END
",
            map = map1d(&["X", "M", "XT", "MT", "F"], procs)
        ),
    }
}

/// Largest power-of-two factor ≤ √p (grid shape for (BLOCK,BLOCK)).
fn near_square_factor(p: usize) -> usize {
    let mut f = 1;
    while f * 2 * f * 2 <= p * 2 && p.is_multiple_of(f * 2) && f * 2 <= p / (f * 2) * 2 {
        // keep f the smaller dimension: f*2 must still divide p and not
        // exceed the complementary factor
        if p.is_multiple_of(f * 2) && f * 2 <= p / (f * 2) {
            f *= 2;
        } else {
            break;
        }
    }
    f.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_compiler::{compile, CompileOptions};
    use hpf_lang::{analyze, parse_program};
    use std::collections::BTreeMap;

    #[test]
    fn table1_has_sixteen_rows() {
        // 13 distinct applications, Laplace in 3 variants = 16 rows as in
        // Table 2 of the paper.
        assert_eq!(all_kernels().len(), 16);
    }

    #[test]
    fn every_kernel_parses_analyzes_compiles() {
        for k in all_kernels() {
            for &procs in &[1usize, 2, 4, 8] {
                let n = k.size_range.0.max(32);
                let src = k.source(n, procs);
                let p =
                    parse_program(&src).unwrap_or_else(|e| panic!("{} parse: {e}\n{src}", k.name));
                let a = analyze(&p, &BTreeMap::new())
                    .unwrap_or_else(|e| panic!("{} sema: {e}", k.name));
                compile(
                    &a,
                    &CompileOptions {
                        nodes: procs,
                        ..Default::default()
                    },
                )
                .unwrap_or_else(|e| panic!("{} compile: {e}", k.name));
            }
        }
    }

    #[test]
    fn every_kernel_evaluates_functionally() {
        for k in all_kernels() {
            let n = 32.max(k.size_range.0.min(64));
            let src = k.source(n, 4);
            let p = parse_program(&src).unwrap();
            let a = analyze(&p, &BTreeMap::new()).unwrap();
            hpf_eval::run(&a).unwrap_or_else(|e| panic!("{} eval: {e}", k.name));
        }
    }

    #[test]
    fn pi_kernel_computes_pi() {
        let k = kernel_by_name("PI").unwrap();
        let src = k.source(1024, 1);
        let p = parse_program(&src).unwrap();
        let a = analyze(&p, &BTreeMap::new()).unwrap();
        let out = hpf_eval::run(&a).unwrap();
        let pie = out.scalars.get("PIE").unwrap().as_f64().unwrap();
        assert!((pie - std::f64::consts::PI).abs() < 1e-3, "pi = {pie}");
    }

    #[test]
    fn lfk3_inner_product_value() {
        let k = kernel_by_name("LFK 3").unwrap();
        let src = k.source(128, 1);
        let p = parse_program(&src).unwrap();
        let a = analyze(&p, &BTreeMap::new()).unwrap();
        let out = hpf_eval::run(&a).unwrap();
        let q = out.scalars.get("Q").unwrap().as_f64().unwrap();
        assert!((q - 128.0 * 0.5).abs() < 1e-6, "q = {q}");
    }

    #[test]
    fn pbs4_harmonic_sum() {
        let k = kernel_by_name("PBS 4").unwrap();
        let src = k.source(128, 1);
        let p = parse_program(&src).unwrap();
        let a = analyze(&p, &BTreeMap::new()).unwrap();
        let out = hpf_eval::run(&a).unwrap();
        let r = out.scalars.get("R").unwrap().as_f64().unwrap();
        // all x in (1, 2): R between N/2 and N
        assert!(r > 64.0 && r < 128.0, "R = {r}");
    }

    #[test]
    fn laplace_variants_differ_only_in_mapping() {
        let b = kernel_by_name("Laplace (Blk-X)").unwrap().source(64, 4);
        let s = kernel_by_name("Laplace (X-Blk)").unwrap().source(64, 4);
        assert!(b.contains("(BLOCK,*)"));
        assert!(s.contains("(*,BLOCK)"));
        let strip = |t: &str| {
            t.lines()
                .filter(|l| !l.starts_with("!HPF$"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&b), strip(&s));
    }

    #[test]
    fn grid_extents_match_generated_source() {
        // The compile-once contract: the pinned grid shape must be exactly
        // what the source generator would have baked into its PROCESSORS
        // directive, for every kernel and machine size.
        for k in all_kernels() {
            for &procs in &[1usize, 2, 4, 8, 16] {
                let src = k.source(k.size_range.0.max(32), procs);
                let p = parse_program(&src).unwrap();
                let a = analyze(&p, &BTreeMap::new()).unwrap();
                let spmd = compile(
                    &a,
                    &CompileOptions {
                        nodes: procs,
                        ..Default::default()
                    },
                )
                .unwrap();
                assert_eq!(
                    spmd.grid.extents,
                    k.grid_extents(procs),
                    "{} p={procs}",
                    k.name
                );
            }
        }
    }

    #[test]
    fn ooc_kernels_compile_with_io_phases() {
        for k in ooc_kernels() {
            for &procs in &[1usize, 2, 4, 8] {
                let n = k.size_range.0.max(32);
                let src = k.source(n, procs);
                let p =
                    parse_program(&src).unwrap_or_else(|e| panic!("{} parse: {e}\n{src}", k.name));
                let a = analyze(&p, &BTreeMap::new())
                    .unwrap_or_else(|e| panic!("{} sema: {e}", k.name));
                let spmd = compile(
                    &a,
                    &CompileOptions {
                        nodes: procs,
                        ..Default::default()
                    },
                )
                .unwrap_or_else(|e| panic!("{} compile: {e}", k.name));
                assert!(
                    spmd.outline().contains("Io "),
                    "{} p={procs}: no Io phase in outline",
                    k.name
                );
            }
        }
    }

    #[test]
    fn ooc_kernels_evaluate_functionally() {
        // READ/WRITE/CHECKPOINT are data-movement phases; the functional
        // results must match the in-core program semantics.
        for k in ooc_kernels() {
            let n = 32.max(k.size_range.0.min(64));
            let src = k.source(n, 4);
            let p = parse_program(&src).unwrap();
            let a = analyze(&p, &BTreeMap::new()).unwrap();
            hpf_eval::run(&a).unwrap_or_else(|e| panic!("{} eval: {e}", k.name));
        }
    }

    #[test]
    fn kernel_by_name_finds_ooc_variants() {
        assert!(kernel_by_name("Laplace OOC").is_some());
        assert!(kernel_by_name("n-body ooc").is_some());
        // Table 1 stays at sixteen rows; OOC variants live alongside.
        assert_eq!(ooc_kernels().len(), 2);
    }

    #[test]
    fn near_square_factor_shapes() {
        assert_eq!(near_square_factor(4), 2);
        assert_eq!(near_square_factor(8), 2);
        assert_eq!(near_square_factor(16), 4);
        assert_eq!(near_square_factor(1), 1);
        assert_eq!(near_square_factor(2), 1);
    }

    #[test]
    fn sweep_sizes_double() {
        let k = kernel_by_name("LFK 1").unwrap();
        assert_eq!(k.sweep_sizes(), vec![128, 256, 512, 1024, 2048, 4096]);
    }

    #[test]
    fn nbody_kernel_is_comm_heavy_at_small_n() {
        let k = kernel_by_name("N-Body").unwrap();
        let src = k.source(64, 8);
        let p = parse_program(&src).unwrap();
        let a = analyze(&p, &BTreeMap::new()).unwrap();
        let spmd = compile(
            &a,
            &CompileOptions {
                nodes: 8,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(spmd.comm_phase_count() > 0);
    }
}
