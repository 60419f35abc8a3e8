//! Data-distribution resolution: the *partitioning step* of Phase 1 (§4.1).
//!
//! Implements HPF's two-level mapping (§2): arrays are ALIGNed (affinely)
//! to a TEMPLATE, templates are DISTRIBUTEd (BLOCK / CYCLIC / `*`) onto a
//! rectilinear PROCESSORS arrangement. The composition yields, per array
//! dimension, either a processor-grid dimension with a distribution format
//! or a collapsed (fully local) dimension. Arrays with no mapping directives
//! get the implementation-default distribution — replication, as the paper
//! notes ("e.g. replication").

use hpf_lang::ast::{AlignSub, Directive, DistFormat};
use hpf_lang::sema::{AnalyzedProgram, SymbolKind};
use hpf_lang::Span;
use std::collections::BTreeMap;

/// The abstract processor arrangement in use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcGrid {
    pub name: String,
    /// Extent of each grid dimension (product = number of processors).
    pub extents: Vec<i64>,
}

impl ProcGrid {
    pub fn total(&self) -> usize {
        self.extents.iter().product::<i64>().max(1) as usize
    }

    /// Coordinate of linear node id `node` along grid dimension `dim`
    /// (first dim fastest).
    pub fn coord(&self, node: usize, dim: usize) -> i64 {
        let below: usize = self.extents[..dim].iter().map(|&e| e as usize).product();
        (node / below % self.extents[dim] as usize) as i64
    }

    /// Decompose a linear node id into grid coordinates (first dim fastest).
    pub fn coords(&self, node: usize) -> Vec<i64> {
        (0..self.extents.len())
            .map(|d| self.coord(node, d))
            .collect()
    }

    /// Inverse of [`coords`](Self::coords).
    pub fn node_of(&self, coords: &[i64]) -> usize {
        let mut node = 0usize;
        let mut stride = 1usize;
        for (d, &c) in coords.iter().enumerate() {
            node += c as usize * stride;
            stride *= self.extents[d] as usize;
        }
        node
    }
}

/// How one array dimension is mapped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DimDist {
    /// Not distributed: every owner holds the full extent.
    Collapsed,
    /// BLOCK over processor-grid dimension `pdim` (`pcount` processors,
    /// blocks of `block` template cells).
    Block {
        pdim: usize,
        pcount: i64,
        block: i64,
    },
    /// (Block-)CYCLIC over processor-grid dimension `pdim`: round-robin
    /// blocks of `k` template cells (`k = 1` is pure CYCLIC).
    Cyclic { pdim: usize, pcount: i64, k: i64 },
}

impl DimDist {
    pub fn is_distributed(&self) -> bool {
        !matches!(self, DimDist::Collapsed)
    }

    pub fn pcount(&self) -> i64 {
        match self {
            DimDist::Collapsed => 1,
            DimDist::Block { pcount, .. } | DimDist::Cyclic { pcount, .. } => *pcount,
        }
    }

    pub fn pdim(&self) -> Option<usize> {
        match self {
            DimDist::Collapsed => None,
            DimDist::Block { pdim, .. } | DimDist::Cyclic { pdim, .. } => Some(*pdim),
        }
    }
}

/// Resolved mapping of one array.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayDist {
    pub array: String,
    /// Declared bounds per dimension.
    pub bounds: Vec<(i64, i64)>,
    /// Affine map into the template per dimension: tmpl = stride*i + offset.
    pub align: Vec<(i64, i64)>,
    /// Distribution of the *aligned template dimension* for each array dim.
    pub dims: Vec<DimDist>,
    /// Fully replicated (no directives, or scalar): every node owns a copy.
    pub replicated: bool,
    pub elem_bytes: u64,
}

impl ArrayDist {
    /// A replicated mapping for an array with the given bounds.
    pub fn replicated(array: &str, bounds: Vec<(i64, i64)>, elem_bytes: u64) -> ArrayDist {
        let n = bounds.len();
        ArrayDist {
            array: array.to_string(),
            bounds,
            align: vec![(1, 0); n],
            dims: vec![DimDist::Collapsed; n],
            replicated: true,
            elem_bytes,
        }
    }

    pub fn rank(&self) -> usize {
        self.bounds.len()
    }

    /// Extent of dimension `d`.
    pub fn extent(&self, d: usize) -> i64 {
        let (lb, ub) = self.bounds[d];
        (ub - lb + 1).max(0)
    }

    /// Total element count.
    pub fn elems(&self) -> u64 {
        (0..self.rank()).map(|d| self.extent(d) as u64).product()
    }

    /// Grid coordinate owning index `i` of dimension `d` (template-composed).
    pub fn owner_coord(&self, d: usize, i: i64) -> i64 {
        let (stride, offset) = self.align[d];
        let t = stride * i + offset; // template cell
        match self.dims[d] {
            DimDist::Collapsed => 0,
            DimDist::Block { pcount, block, .. } => {
                // Template lower bound folded into `offset` at construction;
                // template cells are 0-based here.
                (t / block).clamp(0, pcount - 1)
            }
            // `k >= 1` is enforced when the DISTRIBUTE is partitioned, so
            // the block size is used as-is here.
            DimDist::Cyclic { pcount, k, .. } => (t.div_euclid(k)).rem_euclid(pcount),
        }
    }

    /// Number of elements of dimension `d` owned by grid coordinate `c`.
    pub fn local_extent(&self, d: usize, c: i64) -> i64 {
        let (lb, ub) = self.bounds[d];
        self.owned_count_in_range(d, c, lb, ub, 1) as i64
    }

    /// Per-node element count for the node whose coordinate along grid
    /// dimension `p` is `coord(p)`.
    pub fn local_elems(&self, coord: impl Fn(usize) -> i64) -> u64 {
        if self.replicated {
            return self.elems();
        }
        (0..self.rank())
            .map(|d| self.local_extent(d, self.dims[d].pdim().map(&coord).unwrap_or(0)) as u64)
            .product()
    }

    /// Whether indices `i` (per dim) are owned by the node at `coords`.
    pub fn owns(&self, coords: &[i64], idx: &[i64]) -> bool {
        if self.replicated {
            return true;
        }
        for (d, &i) in idx.iter().enumerate().take(self.rank()) {
            if let Some(p) = self.dims[d].pdim() {
                if self.owner_coord(d, i) != coords[p] {
                    return false;
                }
            }
        }
        true
    }

    /// Count of index values in `lo..=hi` (stride `st`) of dimension `d`
    /// owned by grid coordinate `c`, in closed form.
    pub fn owned_count_in_range(&self, d: usize, c: i64, lo: i64, hi: i64, st: i64) -> u64 {
        count_owned_steps(
            triplet_count(lo, hi, st),
            std::iter::once(self.owned_steps(d, c, lo, st)),
        )
    }

    /// The steps `j` of the index progression `first + j·step` along
    /// dimension `d` whose element grid coordinate `c` owns: what
    /// [`owner_coord`](Self::owner_coord) says of every index, without
    /// visiting one. Exact while the template cells fit in an `i64`, as
    /// `owner_coord` needs too.
    pub(crate) fn owned_steps(&self, d: usize, c: i64, first: i64, step: i64) -> OwnedSteps {
        let (stride, offset) = self.align[d];
        // Template cell at step j: cell0 + j·cell_step.
        let cell0 = stride as i128 * first as i128 + offset as i128;
        let cell_step = stride as i128 * step as i128;
        let c128 = c as i128;
        match self.dims[d] {
            DimDist::Collapsed => OwnedSteps::ALL,
            dist if !(0..dist.pcount()).contains(&c) => OwnedSteps::NONE,
            DimDist::Block { pcount, block, .. } => {
                // Cells [c·block, (c+1)·block), except that `owner_coord`'s
                // clamp gives the first coordinate every cell below and the
                // last every cell above.
                let lo = (c > 0).then(|| c128 * block as i128);
                let hi = (c < pcount - 1).then(|| (c128 + 1) * block as i128 - 1);
                OwnedSteps::cells_between(cell0, cell_step, lo, hi)
            }
            // Cells whose offset from c·k, modulo k·pcount, is below k.
            DimDist::Cyclic { pcount, k, .. } => OwnedSteps::Cyclic {
                base: cell0 - c128 * k as i128,
                step: cell_step,
                k: k as i128,
                period: k as i128 * pcount as i128,
            },
        }
    }
}

/// The steps `j` of an index progression whose element one grid coordinate
/// owns along one array dimension ([`ArrayDist::owned_steps`]); counted by
/// [`count_owned_steps`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum OwnedSteps {
    /// Every step in `lo..=hi`: a BLOCK coordinate, or a dimension that is
    /// not distributed.
    Range { lo: i128, hi: i128 },
    /// Every step whose cell offset `base + j·step`, modulo `period`, is
    /// below `k`: a CYCLIC(k) coordinate.
    Cyclic {
        base: i128,
        step: i128,
        k: i128,
        period: i128,
    },
}

impl OwnedSteps {
    const ALL: OwnedSteps = OwnedSteps::Range {
        lo: i128::MIN,
        hi: i128::MAX,
    };
    const NONE: OwnedSteps = OwnedSteps::Range { lo: 0, hi: -1 };

    /// The steps whose cell `cell0 + j·cell_step` lies in `lo..=hi`; a
    /// `None` bound leaves that side open.
    fn cells_between(cell0: i128, cell_step: i128, lo: Option<i128>, hi: Option<i128>) -> Self {
        let (mut first, mut last) = (i128::MIN, i128::MAX);
        for (bound, at_least) in [(lo, true), (hi, false)] {
            let Some(bound) = bound else { continue };
            // Rewrite `cell ≥ bound` (or `≤`) as `j·s ≥ gap` (or `≤`), s ≥ 0.
            let (s, gap, at_least) = if cell_step < 0 {
                (-cell_step, cell0 - bound, !at_least)
            } else {
                (cell_step, bound - cell0, at_least)
            };
            if s == 0 {
                if (at_least && gap > 0) || (!at_least && gap < 0) {
                    return OwnedSteps::NONE;
                }
            } else if at_least {
                first = first.max(-(-gap).div_euclid(s));
            } else {
                last = last.min(gap.div_euclid(s));
            }
        }
        OwnedSteps::Range {
            lo: first,
            hi: last,
        }
    }

    fn admits(&self, j: i128) -> bool {
        match *self {
            OwnedSteps::Range { lo, hi } => (lo..=hi).contains(&j),
            OwnedSteps::Cyclic {
                base,
                step,
                k,
                period,
            } => (base + j * step).rem_euclid(period) < k,
        }
    }
}

/// Number of steps `j` in `[0, count)` that every constraint admits. The
/// ranges intersect into one interval; a single CYCLIC constraint is counted
/// over it with two floor sums. Only two or more CYCLIC constraints (one
/// FORALL index driving several cyclic dimensions) are checked step by
/// step, over one joint period of their residues.
pub(crate) fn count_owned_steps(
    count: u64,
    owned: impl Iterator<Item = OwnedSteps> + Clone,
) -> u64 {
    let (mut lo, mut hi) = (0i128, count as i128 - 1);
    for o in owned.clone() {
        if let OwnedSteps::Range { lo: l, hi: h } = o {
            lo = lo.max(l);
            hi = hi.min(h);
        }
    }
    if lo > hi {
        return 0;
    }
    let n = hi - lo + 1;
    let mut cyclic = owned
        .clone()
        .filter(|o| matches!(o, OwnedSteps::Cyclic { .. }));
    match (cyclic.next(), cyclic.next()) {
        (None, _) => n as u64,
        (
            Some(OwnedSteps::Cyclic {
                base,
                step,
                k,
                period,
            }),
            None,
        ) => cyclic_count(base + lo * step, step, k, period, n),
        _ => {
            // Each constraint repeats every period / gcd(step, period)
            // steps, so all of them repeat every lcm of those.
            let joint = owned.clone().try_fold(1i128, |acc, o| match o {
                OwnedSteps::Cyclic { step, period, .. } => {
                    lcm(acc, period / gcd(step.rem_euclid(period), period))
                }
                OwnedSteps::Range { .. } => Some(acc),
            });
            let span = joint.filter(|&p| p < n).unwrap_or(n);
            let hits = |from: i128, len: i128| {
                (from..from + len)
                    .filter(|&j| owned.clone().all(|o| o.admits(j)))
                    .count() as i128
            };
            let periods = n / span;
            (hits(lo, span) * periods + hits(lo + periods * span, n - periods * span)) as u64
        }
    }
}

/// Steps `j` in `[0, n)` with `(base + j·step) mod period < k`, for
/// `1 ≤ k ≤ period`: `⌊x/period⌋ − ⌊(x − k)/period⌋` is 1 exactly when
/// `x mod period < k`, so the count is a difference of two floor sums.
fn cyclic_count(base: i128, step: i128, k: i128, period: i128, n: i128) -> u64 {
    // The count ignores the order of the steps: walk them upward.
    let (base, step) = if step < 0 {
        (base + (n - 1) * step, -step)
    } else {
        (base, step)
    };
    let (n, m, a) = (n as u128, period as u128, step as u128);
    floor_sum(n, m, a, base).wrapping_sub(floor_sum(n, m, a, base - k)) as u64
}

/// `Σ_{j<n} ⌊(a·j + b)/m⌋` modulo 2^128 for `m ≥ 1`, by the Euclid-like
/// floor-sum recursion in O(log m) rounds. The wraparound cancels in the
/// difference [`cyclic_count`] takes.
fn floor_sum(n: u128, m: u128, a: u128, b: i128) -> u128 {
    let (q, r) = (b.div_euclid(m as i128), b.rem_euclid(m as i128));
    let mut sum = n.wrapping_mul(q as u128);
    let (mut n, mut m, mut a, mut b) = (n, m, a, r as u128);
    loop {
        if a >= m {
            let pairs = if n % 2 == 0 {
                (n / 2).wrapping_mul(n.saturating_sub(1))
            } else {
                n.wrapping_mul((n - 1) / 2)
            };
            sum = sum.wrapping_add(pairs.wrapping_mul(a / m));
            a %= m;
        }
        if b >= m {
            sum = sum.wrapping_add(n.wrapping_mul(b / m));
            b %= m;
        }
        let top = a * n + b;
        if top < m {
            return sum;
        }
        n = top / m;
        b = top % m;
        std::mem::swap(&mut m, &mut a);
    }
}

fn gcd(a: i128, b: i128) -> i128 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: i128, b: i128) -> Option<i128> {
    (a / gcd(a, b)).checked_mul(b)
}

/// Values of the triplet `lo:hi:st` as Fortran counts them: none when
/// `hi` lies before `lo` in the stride's direction or the stride is zero.
pub(crate) fn triplet_count(lo: i64, hi: i64, st: i64) -> u64 {
    let (span, st) = (hi as i128 - lo as i128, st as i128);
    if st == 0 || (st > 0 && span < 0) || (st < 0 && span > 0) {
        return 0;
    }
    u64::try_from(span / st + 1).unwrap_or(u64::MAX)
}

/// All resolved array mappings plus the processor grid.
#[derive(Debug, Clone)]
pub struct DistributionTable {
    pub grid: ProcGrid,
    pub arrays: BTreeMap<String, ArrayDist>,
}

impl DistributionTable {
    pub fn get(&self, name: &str) -> Option<&ArrayDist> {
        self.arrays.get(name)
    }
}

/// Error during partitioning.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionError {
    pub message: String,
    pub span: Span,
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "partitioning error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for PartitionError {}

/// Resolve the two-level mapping for every array in the program.
///
/// `nodes_override`: when the program has no PROCESSORS directive, or when
/// the interface varies machine size, this supplies the processor count
/// (mapped to a 1-D grid).
pub fn partition(
    analyzed: &AnalyzedProgram,
    nodes_override: Option<usize>,
) -> Result<DistributionTable, PartitionError> {
    partition_onto(analyzed, &analyzed.program.directives, nodes_override, None)
}

/// [`partition`] over the mapping `directives` (the program's own, or a
/// directive candidate's rewrite of them) with an exact processor-grid
/// shape. When `grid_extents` is given it replaces the PROCESSORS
/// arrangement verbatim — no [`reshape_grid`] refactoring — which is what a
/// compile-once artifact needs to re-bind the machine-size critical
/// variable: the caller pins the exact grid the equivalent regenerated
/// source would have declared, so the partitioning (and everything
/// downstream) is identical. Without it the grid is the arrangement's
/// extents as `analyzed` records them, which a front half
/// (`hpf_lang::analyze_front`) does not. `directives` is walked once per
/// directive kind, so any cloneable iterator of borrowed directives works.
pub fn partition_onto<'d, D>(
    analyzed: &AnalyzedProgram,
    directives: D,
    nodes_override: Option<usize>,
    grid_extents: Option<&[i64]>,
) -> Result<DistributionTable, PartitionError>
where
    D: IntoIterator<Item = &'d Directive> + Clone,
{
    let symbols = &analyzed.symbols;
    // 1. The processor arrangement: last PROCESSORS directive wins; the
    //    override rescales the total while keeping the shape ratio when it
    //    can (exact grid reshaping is the caller's business via directives).
    let (mut name, mut shape): (&str, &[i64]) = ("P", &[1]);
    for d in directives.clone() {
        if let Directive::Processors { name: n, .. } = d {
            if let Some(SymbolKind::Processors { shape: s }) = symbols.get(n).map(|s| &s.kind) {
                (name, shape) = (n, s);
            }
        }
    }
    let grid = if let Some(extents) = grid_extents {
        if extents.is_empty() || extents.iter().any(|&e| e < 1) {
            return Err(PartitionError {
                message: format!("grid_extents must be non-empty and positive, got {extents:?}"),
                span: Span::SYNTHETIC,
            });
        }
        let total: i64 = extents.iter().product();
        if let Some(n) = nodes_override {
            if total != n as i64 {
                return Err(PartitionError {
                    message: format!(
                        "grid_extents {extents:?} hold {total} processors but {n} were requested"
                    ),
                    span: Span::SYNTHETIC,
                });
            }
        }
        ProcGrid {
            name: name.to_string(),
            extents: extents.to_vec(),
        }
    } else if shape.is_empty() {
        return Err(PartitionError {
            message: format!("PROCESSORS `{name}` has no resolved extents; pin the grid"),
            span: Span::SYNTHETIC,
        });
    } else {
        let grid = ProcGrid {
            name: name.to_string(),
            extents: shape.to_vec(),
        };
        match nodes_override {
            Some(n) if grid.total() != n => reshape_grid(&grid, n),
            _ => grid,
        }
    };

    // 2. Template distributions, in the order first declared; a later
    //    TEMPLATE of the same name starts it over undistributed.
    let mut templates: Vec<Template> = Vec::new();
    for d in directives.clone() {
        if let Directive::Template { name, .. } = d {
            if let Some(SymbolKind::Template { shape }) = symbols.get(name).map(|s| &s.kind) {
                let t = Template {
                    name,
                    shape,
                    formats: None,
                };
                match templates.iter_mut().find(|t| t.name == name) {
                    Some(old) => *old = t,
                    None => templates.push(t),
                }
            }
        }
    }
    for d in directives.clone() {
        if let Directive::Distribute {
            target,
            formats,
            span,
            ..
        } = d
        {
            // A non-positive block size has no HPF meaning; reject it here
            // (the one place every DISTRIBUTE flows through, including
            // programmatically built ASTs that never saw the parser) rather
            // than clamping silently inside the ownership arithmetic.
            for f in formats {
                if let DistFormat::CyclicK(k) = f {
                    if *k < 1 {
                        return Err(PartitionError {
                            message: format!(
                                "CYCLIC block size must be a positive integer, got CYCLIC({k})"
                            ),
                            span: *span,
                        });
                    }
                }
            }
            match templates.iter_mut().find(|t| t.name == target) {
                Some(t) => t.formats = Some(formats),
                None => {
                    // DISTRIBUTE directly on an array: synthesize an identity
                    // template (HPF allows distributing arrays directly).
                    let sym = symbols.get(target).ok_or_else(|| PartitionError {
                        message: format!("DISTRIBUTE of unknown `{target}`"),
                        span: *span,
                    })?;
                    let shape = sym.shape().ok_or_else(|| PartitionError {
                        message: format!("DISTRIBUTE of non-array `{target}`"),
                        span: *span,
                    })?;
                    templates.push(Template {
                        name: target,
                        shape,
                        formats: Some(formats),
                    });
                }
            }
        }
    }

    // 3. Compose alignments.
    let mut arrays: BTreeMap<String, ArrayDist> = BTreeMap::new();
    for d in directives {
        if let Directive::Align {
            alignee,
            dummies,
            target,
            target_subs,
            span,
        } = d
        {
            let sym = symbols.get(alignee).ok_or_else(|| PartitionError {
                message: format!("ALIGN of unknown `{alignee}`"),
                span: *span,
            })?;
            let bounds = sym.shape().ok_or_else(|| PartitionError {
                message: format!("ALIGN of scalar `{alignee}`"),
                span: *span,
            })?;
            // Target may be a template or another (distributed) array.
            let Some(t) = templates.iter().find(|t| t.name == target) else {
                return Err(PartitionError {
                    message: format!("ALIGN WITH unknown template `{target}`"),
                    span: *span,
                });
            };

            // For each array dim: find which template dim its dummy lands
            // in. No target subscripts is the identity alignment.
            let mut align = vec![(1i64, 0i64); bounds.len()];
            let mut dims = vec![DimDist::Collapsed; bounds.len()];
            let identity = target_subs.is_empty();
            let subs = if identity {
                dummies.len()
            } else {
                target_subs.len()
            };
            for tdim in 0..subs {
                let (dummy, stride, offset) = match target_subs.get(tdim) {
                    None => (&dummies[tdim], 1, 0),
                    Some(AlignSub::Affine {
                        dummy,
                        stride,
                        offset,
                    }) => (dummy, *stride, *offset),
                    Some(AlignSub::Replicated) => continue,
                };
                let adim =
                    dummies
                        .iter()
                        .position(|x| x == dummy)
                        .ok_or_else(|| PartitionError {
                            message: format!("align dummy `{dummy}` not declared"),
                            span: *span,
                        })?;
                // Template cells are normalized to 0-based.
                align[adim] = (stride, offset - t.shape[tdim].0);
                dims[adim] = t.dim_dist(tdim, &grid.extents);
            }
            arrays.insert(
                alignee.clone(),
                ArrayDist {
                    array: alignee.clone(),
                    bounds: bounds.to_vec(),
                    align,
                    dims,
                    replicated: false,
                    elem_bytes: sym.ty.byte_size(),
                },
            );
        }
    }

    // 3b. Arrays distributed directly (no ALIGN, DISTRIBUTE names the array).
    for t in &templates {
        if arrays.contains_key(t.name) {
            continue;
        }
        if let Some(sym) = symbols.get(t.name) {
            if sym.is_array() {
                let bounds = sym.shape().expect("array").to_vec();
                let mut align = vec![(1i64, 0i64); bounds.len()];
                let mut dims = vec![DimDist::Collapsed; bounds.len()];
                for tdim in 0..t.rank() {
                    align[tdim] = (1, -t.shape[tdim].0);
                    dims[tdim] = t.dim_dist(tdim, &grid.extents);
                }
                arrays.insert(
                    t.name.to_string(),
                    ArrayDist {
                        array: t.name.to_string(),
                        bounds,
                        align,
                        dims,
                        replicated: false,
                        elem_bytes: sym.ty.byte_size(),
                    },
                );
            }
        }
    }

    // 4. Default: replication for unmapped arrays.
    for (name, sym) in symbols {
        if sym.is_array() && !arrays.contains_key(name) {
            arrays.insert(
                name.clone(),
                ArrayDist::replicated(
                    name,
                    sym.shape().expect("array").to_vec(),
                    sym.ty.byte_size(),
                ),
            );
        }
    }

    Ok(DistributionTable { grid, arrays })
}

/// One template as the directives declare and distribute it, borrowed from
/// the symbol table and the directive list.
struct Template<'a> {
    name: &'a str,
    shape: &'a [(i64, i64)],
    /// The DISTRIBUTE formats; `None` until one names the template, which
    /// leaves every dimension `*`.
    formats: Option<&'a [DistFormat]>,
}

impl Template<'_> {
    fn rank(&self) -> usize {
        self.formats.map_or(self.shape.len(), <[_]>::len)
    }

    /// The mapping of template dimension `tdim` onto a grid of `extents`:
    /// distributed dimensions take the grid dimensions in order.
    fn dim_dist(&self, tdim: usize, extents: &[i64]) -> DimDist {
        let Some(formats) = self.formats else {
            return DimDist::Collapsed;
        };
        let distributed = |f: &&DistFormat| **f != DistFormat::Degenerate;
        let pdim = formats[..tdim]
            .iter()
            .filter(distributed)
            .count()
            .min(extents.len().saturating_sub(1));
        let (lb, ub) = self.shape[tdim];
        let textent = (ub - lb + 1).max(1);
        match formats[tdim] {
            DistFormat::Degenerate => DimDist::Collapsed,
            DistFormat::Block => {
                let pcount = extents[pdim];
                DimDist::Block {
                    pdim,
                    pcount,
                    block: (textent + pcount - 1) / pcount,
                }
            }
            DistFormat::Cyclic => DimDist::Cyclic {
                pdim,
                pcount: extents[pdim],
                k: 1,
            },
            DistFormat::CyclicK(k) => DimDist::Cyclic {
                pdim,
                pcount: extents[pdim],
                k,
            },
        }
    }
}

/// Reshape a grid to a new total processor count, preserving rank: factor
/// `n` into `rank` near-equal powers (2-heavy, matching hypercube subcubes).
pub fn reshape_grid(grid: &ProcGrid, n: usize) -> ProcGrid {
    let rank = grid.extents.len();
    let mut extents = vec![1i64; rank];
    let mut remaining = n as i64;
    // Greedy: repeatedly give the smallest dimension a factor of 2 (or the
    // whole remainder when odd / rank exhausted).
    while remaining > 1 {
        let d = (0..rank).min_by_key(|&d| extents[d]).expect("rank >= 1");
        if remaining % 2 == 0 {
            extents[d] *= 2;
            remaining /= 2;
        } else {
            extents[d] *= remaining;
            remaining = 1;
        }
    }
    ProcGrid {
        name: grid.name.clone(),
        extents,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_lang::{analyze, parse_program};
    use std::collections::BTreeMap as Map;

    fn table(src: &str, nodes: Option<usize>) -> DistributionTable {
        let p = parse_program(src).unwrap();
        let a = analyze(&p, &Map::new()).unwrap();
        partition(&a, nodes).unwrap()
    }

    const LAP: &str = "
PROGRAM T
INTEGER, PARAMETER :: N = 16
REAL U(N,N)
!HPF$ PROCESSORS P(4)
!HPF$ TEMPLATE TT(N,N)
!HPF$ ALIGN U(I,J) WITH TT(I,J)
!HPF$ DISTRIBUTE TT(BLOCK,*) ONTO P
U = 0.0
END
";

    #[test]
    fn block_star_layout() {
        let t = table(LAP, None);
        assert_eq!(t.grid.total(), 4);
        let u = t.get("U").unwrap();
        assert!(!u.replicated);
        assert!(matches!(
            u.dims[0],
            DimDist::Block {
                pcount: 4,
                block: 4,
                ..
            }
        ));
        assert_eq!(u.dims[1], DimDist::Collapsed);
        // Rows 1..4 on coord 0, 5..8 on coord 1, etc.
        assert_eq!(u.owner_coord(0, 1), 0);
        assert_eq!(u.owner_coord(0, 4), 0);
        assert_eq!(u.owner_coord(0, 5), 1);
        assert_eq!(u.owner_coord(0, 16), 3);
        assert_eq!(u.local_extent(0, 2), 4);
        assert_eq!(u.local_elems(|_| 0), 64);
    }

    #[test]
    fn ownership_is_a_partition() {
        let t = table(LAP, None);
        let u = t.get("U").unwrap();
        // every index owned by exactly one coord
        for i in 1..=16 {
            let owners: Vec<i64> = (0..4).filter(|&c| u.owner_coord(0, i) == c).collect();
            assert_eq!(owners.len(), 1, "index {i}");
        }
        let total: i64 = (0..4).map(|c| u.local_extent(0, c)).sum();
        assert_eq!(total, 16);
    }

    #[test]
    fn cyclic_distribution() {
        let src = "
PROGRAM T
INTEGER, PARAMETER :: N = 10
REAL A(N)
!HPF$ PROCESSORS P(3)
!HPF$ TEMPLATE TT(N)
!HPF$ ALIGN A(I) WITH TT(I)
!HPF$ DISTRIBUTE TT(CYCLIC) ONTO P
A = 0.0
END
";
        let t = table(src, None);
        let a = t.get("A").unwrap();
        assert!(matches!(a.dims[0], DimDist::Cyclic { pcount: 3, .. }));
        // 1-based index i lands on (i-1) mod 3.
        assert_eq!(a.owner_coord(0, 1), 0);
        assert_eq!(a.owner_coord(0, 2), 1);
        assert_eq!(a.owner_coord(0, 4), 0);
        // 10 elements over 3 procs: 4/3/3.
        assert_eq!(a.local_extent(0, 0), 4);
        assert_eq!(a.local_extent(0, 1), 3);
        assert_eq!(a.local_extent(0, 2), 3);
    }

    /// A `CYCLIC(k)` with `k <= 0` is rejected during partitioning with a
    /// located error — programmatically built ASTs bypass the parser's own
    /// check, so the clamp-free ownership arithmetic relies on this.
    #[test]
    fn non_positive_cyclic_block_size_is_rejected() {
        use hpf_lang::ast::{Directive, DistFormat};
        let src = "
PROGRAM T
INTEGER, PARAMETER :: N = 10
REAL A(N)
!HPF$ PROCESSORS P(2)
!HPF$ DISTRIBUTE A(CYCLIC(3)) ONTO P
A = 0.0
END
";
        for bad in [0i64, -4] {
            let mut p = parse_program(src).unwrap();
            for d in &mut p.directives {
                if let Directive::Distribute { formats, .. } = d {
                    formats[0] = DistFormat::CyclicK(bad);
                }
            }
            let a = analyze(&p, &Map::new()).unwrap();
            let err = partition(&a, None).unwrap_err();
            assert!(
                err.message.contains("CYCLIC block size"),
                "unexpected message: {}",
                err.message
            );
            assert!(err.span.line > 0, "error should carry the directive span");
        }
    }

    /// `grid_extents` overrides are validated: extents must be positive
    /// and hold exactly the requested number of processors.
    #[test]
    fn grid_extents_are_validated() {
        let p = parse_program(LAP).unwrap();
        let a = analyze(&p, &Map::new()).unwrap();
        assert!(partition_onto(&a, &a.program.directives, Some(8), Some(&[2, 4])).is_ok());
        let err = partition_onto(&a, &a.program.directives, Some(8), Some(&[2, 2])).unwrap_err();
        assert!(err.message.contains("8 were requested"), "{}", err.message);
        let err = partition_onto(&a, &a.program.directives, Some(8), Some(&[8, 0])).unwrap_err();
        assert!(err.message.contains("positive"), "{}", err.message);
        let err = partition_onto(&a, &a.program.directives, Some(1), Some(&[])).unwrap_err();
        assert!(err.message.contains("non-empty"), "{}", err.message);
    }

    /// A front half records no PROCESSORS extents, so partitioning it
    /// without a pinned grid is an error rather than an empty grid.
    #[test]
    fn front_half_needs_a_pinned_grid() {
        let p = parse_program(LAP).unwrap();
        let front = hpf_lang::analyze_front(&p, &Map::new()).unwrap();
        let err = partition_onto(&front, &p.directives, Some(4), None).unwrap_err();
        assert!(
            err.message.contains("no resolved extents"),
            "{}",
            err.message
        );
        let t = partition_onto(&front, &p.directives, Some(4), Some(&[4])).unwrap();
        assert_eq!(t.grid.extents, vec![4]);
    }

    #[test]
    fn two_dim_grid() {
        let src = "
PROGRAM T
INTEGER, PARAMETER :: N = 8
REAL U(N,N)
!HPF$ PROCESSORS P(2,2)
!HPF$ TEMPLATE TT(N,N)
!HPF$ ALIGN U(I,J) WITH TT(I,J)
!HPF$ DISTRIBUTE TT(BLOCK,BLOCK) ONTO P
U = 0.0
END
";
        let t = table(src, None);
        assert_eq!(t.grid.extents, vec![2, 2]);
        let u = t.get("U").unwrap();
        assert_eq!(u.dims[0].pdim(), Some(0));
        assert_eq!(u.dims[1].pdim(), Some(1));
        assert_eq!(u.local_elems(|_| 0), 16);
        assert!(u.owns(&[0, 0], &[1, 1]));
        assert!(u.owns(&[1, 1], &[8, 8]));
        assert!(!u.owns(&[0, 0], &[8, 8]));
    }

    #[test]
    fn unmapped_arrays_replicated() {
        let t = table("PROGRAM T\nREAL W(8)\nW = 0.0\nEND\n", Some(4));
        let w = t.get("W").unwrap();
        assert!(w.replicated);
        assert_eq!(w.local_elems(|_| 0), 8);
    }

    #[test]
    fn align_offset_shifts_ownership() {
        let src = "
PROGRAM T
INTEGER, PARAMETER :: N = 8
REAL A(N)
!HPF$ PROCESSORS P(2)
!HPF$ TEMPLATE TT(9)
!HPF$ ALIGN A(I) WITH TT(I+1)
!HPF$ DISTRIBUTE TT(BLOCK) ONTO P
A = 0.0
END
";
        let t = table(src, None);
        let a = t.get("A").unwrap();
        // template blocks: cells 0..4 -> p0, 5..8 -> p1 (block=5, 9 cells);
        // A(I) sits at template cell I+1-1 = I. A(4)->cell 4->p0, A(5)->p1.
        assert_eq!(a.owner_coord(0, 4), 0);
        assert_eq!(a.owner_coord(0, 5), 1);
    }

    #[test]
    fn distribute_array_directly() {
        let src = "
PROGRAM T
INTEGER, PARAMETER :: N = 8
REAL A(N)
!HPF$ PROCESSORS P(2)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
A = 0.0
END
";
        let t = table(src, None);
        let a = t.get("A").unwrap();
        assert!(matches!(
            a.dims[0],
            DimDist::Block {
                pcount: 2,
                block: 4,
                ..
            }
        ));
    }

    #[test]
    fn nodes_override_reshapes() {
        let t = table(LAP, Some(8));
        assert_eq!(t.grid.total(), 8);
        let u = t.get("U").unwrap();
        assert_eq!(u.dims[0].pcount(), 8);
        // 16 rows over 8 procs: 2 each.
        assert_eq!(u.local_extent(0, 0), 2);
    }

    #[test]
    fn exact_extents_override_beats_reshape() {
        // reshape_grid would turn the 2-D directive grid into [4, 2] for 8
        // nodes; the exact override pins the transposed shape instead —
        // the mechanism compile-once artifacts use to match generated
        // source bit-for-bit.
        let src = "
PROGRAM T
INTEGER, PARAMETER :: N = 16
REAL U(N,N)
!HPF$ PROCESSORS P(2,2)
!HPF$ TEMPLATE TT(N,N)
!HPF$ ALIGN U(I,J) WITH TT(I,J)
!HPF$ DISTRIBUTE TT(BLOCK,BLOCK) ONTO P
U = 0.0
END
";
        let p = parse_program(src).unwrap();
        let a = analyze(&p, &Map::new()).unwrap();
        let reshaped = partition(&a, Some(8)).unwrap();
        assert_eq!(reshaped.grid.extents, vec![4, 2]);
        let exact = partition_onto(&a, &a.program.directives, Some(8), Some(&[2, 4])).unwrap();
        assert_eq!(exact.grid.extents, vec![2, 4]);
        assert_eq!(exact.grid.total(), 8);
        assert_eq!(exact.grid.name, "P");
        let u = exact.get("U").unwrap();
        assert_eq!(u.dims[0].pcount(), 2);
        assert_eq!(u.dims[1].pcount(), 4);
    }

    #[test]
    fn reshape_grid_factors() {
        let g = ProcGrid {
            name: "P".into(),
            extents: vec![2, 2],
        };
        let r = reshape_grid(&g, 8);
        assert_eq!(r.total(), 8);
        assert_eq!(r.extents.len(), 2);
        let r = reshape_grid(&g, 6);
        assert_eq!(r.total(), 6);
    }

    #[test]
    fn grid_coords_roundtrip() {
        let g = ProcGrid {
            name: "P".into(),
            extents: vec![2, 4],
        };
        for n in 0..8 {
            assert_eq!(g.node_of(&g.coords(n)), n);
        }
    }

    #[test]
    fn owned_count_in_range_block() {
        let t = table(LAP, None);
        let u = t.get("U").unwrap();
        // coordinates 0 owns rows 1..4; range 2..15 intersected = 3.
        assert_eq!(u.owned_count_in_range(0, 0, 2, 15, 1), 3);
        assert_eq!(u.owned_count_in_range(0, 1, 2, 15, 1), 4);
        assert_eq!(u.owned_count_in_range(0, 3, 2, 15, 1), 3);
        // collapsed dim counts the whole range
        assert_eq!(u.owned_count_in_range(1, 0, 2, 15, 1), 14);
    }

    /// Joint counts, one index driving two distributed dimensions, equal a
    /// check of every index against `owner_coord` in both: BLOCK ranges
    /// intersect, one CYCLIC goes through the floor sums, two through the
    /// joint period.
    #[test]
    fn joint_owned_steps_match_bruteforce() {
        let formats: [fn(usize, i64) -> DimDist; 4] = [
            |pdim, pcount| DimDist::Block {
                pdim,
                pcount,
                block: (24 + pcount - 1) / pcount,
            },
            |pdim, pcount| DimDist::Cyclic { pdim, pcount, k: 1 },
            |pdim, pcount| DimDist::Cyclic { pdim, pcount, k: 4 },
            |pdim, pcount| DimDist::Cyclic {
                pdim,
                pcount,
                k: 25,
            },
        ];
        // Subscripts a*I + b per dimension: the diagonal and an
        // anti-diagonal with a stride.
        for (axes, align) in [
            ([(1, 0), (1, 0)], [(1, -1), (1, -1)]),
            ([(1, 0), (-2, 41)], [(1, -1), (2, 3)]),
        ] {
            for f0 in formats {
                for f1 in formats {
                    let ad = ArrayDist {
                        array: "A".into(),
                        bounds: vec![(1, 20), (1, 40)],
                        align: align.to_vec(),
                        dims: vec![f0(0, 3), f1(1, 2)],
                        replicated: false,
                        elem_bytes: 4,
                    };
                    for (lo, hi, st) in [(1, 20, 1), (20, 1, -3), (2, 19, 4), (5, 4, 1)] {
                        for c in [[0, 0], [1, 1], [2, 0], [2, 1]] {
                            let owned: Vec<OwnedSteps> = (0..2)
                                .map(|d| {
                                    let (a, b) = axes[d];
                                    ad.owned_steps(d, c[d], a * lo + b, a * st)
                                })
                                .collect();
                            let got =
                                count_owned_steps(triplet_count(lo, hi, st), owned.iter().copied());
                            let want = (0..triplet_count(lo, hi, st) as i64)
                                .map(|j| lo + j * st)
                                .filter(|&i| {
                                    (0..2).all(|d| {
                                        ad.owner_coord(d, axes[d].0 * i + axes[d].1) == c[d]
                                    })
                                })
                                .count() as u64;
                            assert_eq!(got, want, "{:?} {lo}:{hi}:{st} at {c:?}", ad.dims);
                        }
                    }
                }
            }
        }
    }

    /// Near the `i64` limits — a BLOCK bound more than `i64::MAX` from the
    /// first cell, a CYCLIC period or cell offset past `i64`, floor sums
    /// whose `a·n + b` passes `u64` — the closed forms still count what
    /// the ownership rule says of each cell, evaluated here in `i128`.
    #[test]
    fn closed_forms_near_the_i64_limits_match_the_rule() {
        let block = |pcount, block| DimDist::Block {
            pdim: 0,
            pcount,
            block,
        };
        let cyclic = |pcount, k| DimDist::Cyclic { pdim: 0, pcount, k };
        // (mapping, first index, index step, steps); the alignment is the
        // identity.
        let cases = [
            (block(3, 1 << 61), i64::MIN + 5, 1 << 62, 4),
            (block(3, 1 << 61), (1 << 62) + 5, -(1 << 62), 4),
            (cyclic(3, 1 << 62), -(1 << 62) - 7, (1 << 61) + 3, 9),
            (cyclic(1, 1 << 62), i64::MIN + 9, 1 << 61, 8),
            (cyclic(2, 1 << 40), i64::MIN + 5, 1 << 50, 6),
            (cyclic(5, 1 << 62), (1 << 62) + 3, 1 << 62, 2),
            (cyclic(2, i64::MAX / 2), i64::MAX - 2, i64::MAX - 1, 2),
            (cyclic(1, i64::MAX), i64::MAX - 2, i64::MAX - 1, 2),
        ];
        for (dim, first, step, n) in cases {
            let ad = ArrayDist {
                array: "A".into(),
                bounds: vec![(i64::MIN, i64::MAX)],
                align: vec![(1, 0)],
                dims: vec![dim],
                replicated: false,
                elem_bytes: 4,
            };
            let owner = |cell: i128| match dim {
                DimDist::Block { pcount, block, .. } => {
                    cell.div_euclid(block.into()).clamp(0, (pcount - 1).into())
                }
                DimDist::Cyclic { pcount, k, .. } => {
                    cell.div_euclid(k.into()).rem_euclid(pcount.into())
                }
                DimDist::Collapsed => 0,
            };
            for c in 0..dim.pcount() {
                let got = count_owned_steps(n, std::iter::once(ad.owned_steps(0, c, first, step)));
                let want = (0..n as i128)
                    .filter(|&j| owner(first as i128 + j * step as i128) == c.into())
                    .count() as u64;
                assert_eq!(got, want, "{dim:?} from {first} by {step} at {c}");
            }
        }
    }

    #[test]
    fn triplet_past_its_bound_owns_nothing() {
        let t = table(LAP, None);
        let u = t.get("U").unwrap();
        // Distributed rows (coordinate 1 owns 5..8) and the collapsed dim.
        for (d, c) in [(0, 1), (1, 0)] {
            assert_eq!(u.owned_count_in_range(d, c, 5, 4, 2), 0, "dim {d}");
            assert_eq!(u.owned_count_in_range(d, c, 4, 5, -2), 0, "dim {d}");
        }
        assert_eq!(u.owned_count_in_range(1, 0, 6, 1, -2), 3);
    }
}
