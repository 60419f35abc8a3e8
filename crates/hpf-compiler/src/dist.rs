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

    /// Decompose a linear node id into grid coordinates (first dim fastest).
    pub fn coords(&self, mut node: usize) -> Vec<i64> {
        let mut c = Vec::with_capacity(self.extents.len());
        for &e in &self.extents {
            c.push((node % e as usize) as i64);
            node /= e as usize;
        }
        c
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
        match self.dims[d] {
            DimDist::Collapsed => self.extent(d),
            _ => (lb..=ub).filter(|&i| self.owner_coord(d, i) == c).count() as i64,
        }
    }

    /// Per-node element count for a node with grid coordinates `coords`
    /// (coordinates indexed by grid dimension).
    pub fn local_elems(&self, coords: &[i64]) -> u64 {
        if self.replicated {
            return self.elems();
        }
        let mut n = 1u64;
        for d in 0..self.rank() {
            let c = self.dims[d].pdim().map(|p| coords[p]).unwrap_or(0);
            n *= self.local_extent(d, c).max(0) as u64;
        }
        n
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
    /// owned by grid coordinate `c`.
    pub fn owned_count_in_range(&self, d: usize, c: i64, lo: i64, hi: i64, st: i64) -> u64 {
        if !self.dims[d].is_distributed() {
            return triplet_count(lo, hi, st);
        }
        let mut n = 0u64;
        let mut i = lo;
        while (st > 0 && i <= hi) || (st < 0 && i >= hi) {
            if self.owner_coord(d, i) == c {
                n += 1;
            }
            i += st;
        }
        n
    }
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
    partition_onto(analyzed, nodes_override, None)
}

/// [`partition`] with an exact processor-grid shape. When `grid_extents` is
/// given it replaces the PROCESSORS arrangement verbatim — no
/// [`reshape_grid`] refactoring — which is what a compile-once artifact
/// needs to re-bind the machine-size critical variable: the caller pins the
/// exact grid the equivalent regenerated source would have declared, so the
/// partitioning (and everything downstream) is identical.
pub fn partition_onto(
    analyzed: &AnalyzedProgram,
    nodes_override: Option<usize>,
    grid_extents: Option<&[i64]>,
) -> Result<DistributionTable, PartitionError> {
    // 1. The processor arrangement: last PROCESSORS directive wins; the
    //    override rescales the total while keeping the shape ratio when it
    //    can (exact grid reshaping is the caller's business via directives).
    let mut grid = ProcGrid {
        name: "P".into(),
        extents: vec![1],
    };
    for d in &analyzed.program.directives {
        if let Directive::Processors { name, .. } = d {
            if let Some(SymbolKind::Processors { shape }) =
                analyzed.symbols.get(name).map(|s| &s.kind)
            {
                grid = ProcGrid {
                    name: name.clone(),
                    extents: shape.clone(),
                };
            }
        }
    }
    if let Some(extents) = grid_extents {
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
        grid = ProcGrid {
            name: grid.name.clone(),
            extents: extents.to_vec(),
        };
    } else if let Some(n) = nodes_override {
        if grid.total() != n {
            grid = reshape_grid(&grid, n);
        }
    }

    // 2. Template distributions.
    #[derive(Clone)]
    struct TemplateDist {
        shape: Vec<(i64, i64)>,
        formats: Vec<DistFormat>,
    }
    let mut templates: BTreeMap<String, TemplateDist> = BTreeMap::new();
    for d in &analyzed.program.directives {
        if let Directive::Template { name, .. } = d {
            if let Some(SymbolKind::Template { shape }) =
                analyzed.symbols.get(name).map(|s| &s.kind)
            {
                templates.insert(
                    name.clone(),
                    TemplateDist {
                        shape: shape.clone(),
                        formats: vec![DistFormat::Degenerate; shape.len()],
                    },
                );
            }
        }
    }
    for d in &analyzed.program.directives {
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
            match templates.get_mut(target) {
                Some(t) => t.formats = formats.clone(),
                None => {
                    // DISTRIBUTE directly on an array: synthesize an identity
                    // template (HPF allows distributing arrays directly).
                    let sym = analyzed.symbols.get(target).ok_or_else(|| PartitionError {
                        message: format!("DISTRIBUTE of unknown `{target}`"),
                        span: *span,
                    })?;
                    let shape = sym
                        .shape()
                        .ok_or_else(|| PartitionError {
                            message: format!("DISTRIBUTE of non-array `{target}`"),
                            span: *span,
                        })?
                        .to_vec();
                    templates.insert(
                        target.clone(),
                        TemplateDist {
                            shape,
                            formats: formats.clone(),
                        },
                    );
                }
            }
        }
    }

    // Assign grid dimensions to distributed template dims, in order.
    let assign_pdims = |formats: &[DistFormat]| -> Vec<Option<usize>> {
        let mut next = 0usize;
        formats
            .iter()
            .map(|f| {
                if *f == DistFormat::Degenerate {
                    None
                } else {
                    let p = next.min(grid.extents.len().saturating_sub(1));
                    next += 1;
                    Some(p)
                }
            })
            .collect()
    };

    // 3. Compose alignments.
    let mut arrays: BTreeMap<String, ArrayDist> = BTreeMap::new();
    for d in &analyzed.program.directives {
        if let Directive::Align {
            alignee,
            dummies,
            target,
            target_subs,
            span,
        } = d
        {
            let sym = analyzed
                .symbols
                .get(alignee)
                .ok_or_else(|| PartitionError {
                    message: format!("ALIGN of unknown `{alignee}`"),
                    span: *span,
                })?;
            let bounds = sym
                .shape()
                .ok_or_else(|| PartitionError {
                    message: format!("ALIGN of scalar `{alignee}`"),
                    span: *span,
                })?
                .to_vec();
            // Target may be a template or another (distributed) array.
            let tdist = match templates.get(target) {
                Some(t) => t.clone(),
                None => {
                    return Err(PartitionError {
                        message: format!("ALIGN WITH unknown template `{target}`"),
                        span: *span,
                    })
                }
            };
            let pdims = assign_pdims(&tdist.formats);

            // For each array dim: find which template dim its dummy lands in.
            let subs: Vec<AlignSub> = if target_subs.is_empty() {
                dummies
                    .iter()
                    .map(|d| AlignSub::Affine {
                        dummy: d.clone(),
                        stride: 1,
                        offset: 0,
                    })
                    .collect()
            } else {
                target_subs.clone()
            };
            let mut align = vec![(1i64, 0i64); bounds.len()];
            let mut dims = vec![DimDist::Collapsed; bounds.len()];
            for (tdim, sub) in subs.iter().enumerate() {
                if let AlignSub::Affine {
                    dummy,
                    stride,
                    offset,
                } = sub
                {
                    let adim =
                        dummies
                            .iter()
                            .position(|x| x == dummy)
                            .ok_or_else(|| PartitionError {
                                message: format!("align dummy `{dummy}` not declared"),
                                span: *span,
                            })?;
                    // Template cells are normalized to 0-based.
                    let tlb = tdist.shape[tdim].0;
                    align[adim] = (*stride, *offset - tlb);
                    let textent = (tdist.shape[tdim].1 - tdist.shape[tdim].0 + 1).max(1);
                    dims[adim] = match tdist.formats[tdim] {
                        DistFormat::Degenerate => DimDist::Collapsed,
                        DistFormat::Block => {
                            let pdim = pdims[tdim].expect("distributed dim has pdim");
                            let pcount = grid.extents[pdim];
                            DimDist::Block {
                                pdim,
                                pcount,
                                block: (textent + pcount - 1) / pcount,
                            }
                        }
                        DistFormat::Cyclic => {
                            let pdim = pdims[tdim].expect("distributed dim has pdim");
                            DimDist::Cyclic {
                                pdim,
                                pcount: grid.extents[pdim],
                                k: 1,
                            }
                        }
                        DistFormat::CyclicK(k) => {
                            let pdim = pdims[tdim].expect("distributed dim has pdim");
                            DimDist::Cyclic {
                                pdim,
                                pcount: grid.extents[pdim],
                                k,
                            }
                        }
                    };
                }
            }
            arrays.insert(
                alignee.clone(),
                ArrayDist {
                    array: alignee.clone(),
                    bounds,
                    align,
                    dims,
                    replicated: false,
                    elem_bytes: sym.ty.byte_size(),
                },
            );
        }
    }

    // 3b. Arrays distributed directly (no ALIGN, DISTRIBUTE names the array).
    for (tname, t) in &templates {
        if arrays.contains_key(tname) {
            continue;
        }
        if let Some(sym) = analyzed.symbols.get(tname) {
            if sym.is_array() {
                let pdims = assign_pdims(&t.formats);
                let bounds = sym.shape().expect("array").to_vec();
                let mut align = vec![(1i64, 0i64); bounds.len()];
                let mut dims = vec![DimDist::Collapsed; bounds.len()];
                for tdim in 0..t.formats.len() {
                    let tlb = t.shape[tdim].0;
                    align[tdim] = (1, -tlb);
                    let textent = (t.shape[tdim].1 - t.shape[tdim].0 + 1).max(1);
                    dims[tdim] = match t.formats[tdim] {
                        DistFormat::Degenerate => DimDist::Collapsed,
                        DistFormat::Block => {
                            let pdim = pdims[tdim].expect("pdim");
                            let pcount = grid.extents[pdim];
                            DimDist::Block {
                                pdim,
                                pcount,
                                block: (textent + pcount - 1) / pcount,
                            }
                        }
                        DistFormat::Cyclic => {
                            let pdim = pdims[tdim].expect("pdim");
                            DimDist::Cyclic {
                                pdim,
                                pcount: grid.extents[pdim],
                                k: 1,
                            }
                        }
                        DistFormat::CyclicK(k) => {
                            let pdim = pdims[tdim].expect("pdim");
                            DimDist::Cyclic {
                                pdim,
                                pcount: grid.extents[pdim],
                                k,
                            }
                        }
                    };
                }
                arrays.insert(
                    tname.clone(),
                    ArrayDist {
                        array: tname.clone(),
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
    for (name, sym) in &analyzed.symbols {
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
        assert_eq!(u.local_elems(&[0]), 64);
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
        assert!(partition_onto(&a, Some(8), Some(&[2, 4])).is_ok());
        let err = partition_onto(&a, Some(8), Some(&[2, 2])).unwrap_err();
        assert!(err.message.contains("8 were requested"), "{}", err.message);
        let err = partition_onto(&a, Some(8), Some(&[8, 0])).unwrap_err();
        assert!(err.message.contains("positive"), "{}", err.message);
        let err = partition_onto(&a, Some(1), Some(&[])).unwrap_err();
        assert!(err.message.contains("non-empty"), "{}", err.message);
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
        assert_eq!(u.local_elems(&[0, 0]), 16);
        assert!(u.owns(&[0, 0], &[1, 1]));
        assert!(u.owns(&[1, 1], &[8, 8]));
        assert!(!u.owns(&[0, 0], &[8, 8]));
    }

    #[test]
    fn unmapped_arrays_replicated() {
        let t = table("PROGRAM T\nREAL W(8)\nW = 0.0\nEND\n", Some(4));
        let w = t.get("W").unwrap();
        assert!(w.replicated);
        assert_eq!(w.local_elems(&[0]), 8);
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
        let exact = partition_onto(&a, Some(8), Some(&[2, 4])).unwrap();
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
