//! Sweep specifications: cross-products of (platform, cost-model) points and
//! theorems, expanded into indexed cells.
//!
//! A [`SweepSpec`] is the declarative side of a parameter study: named
//! (platform, cost-model) points crossed with the theorems to optimize at
//! each point. Expansion is *streaming*: [`SweepSpec::cell_at`] is O(1)
//! random access into the deterministic row-major order (points outer,
//! theorems inner), [`SweepSpec::iter`]/[`SweepSpec::iter_range`] walk any
//! index range without materializing the rest, and [`SweepSpec::cells`]
//! remains as the collect-everything convenience. Point names are lazy
//! [`CellName`]s — explicit points intern one `Arc<str>` when the point is
//! added and every cell shares it, while grid points carry their axis
//! values and format only on display — so expanding N cells performs zero
//! per-cell heap formatting, which is what lets a million-cell grid stream
//! through an executor at memory cost O(1) in the cell count.
//!
//! The `sim` crate's executor consumes these cells; [`grid_spec`] is the
//! canonical node-count × MTBF × recall grid shared by the CLI's `grid`
//! command and the determinism tests. The canonical grid is *procedural*
//! (a [`SweepSpec`] backed by axis indices, not a point vector): `grid`
//! at axis length 100 describes 10⁶ cells with a few words of state.

use crate::optimal::{theorem1, theorem2, theorem3, theorem4, PatternOptimum};
use crate::platform::{CostModel, Platform};
use crate::scenario::Scenario;
use stats::rates::YEAR;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// The paper's four pattern theorems, as dispatchable data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Theorem {
    /// Theorem 1: single verified segment.
    One,
    /// Theorem 2: equal segments under guaranteed verifications.
    Two,
    /// Theorem 3: Eq.-18 chunks under partial verifications.
    Three,
    /// Theorem 4: combined guaranteed sub-segments with partial chunks.
    Four,
}

impl Theorem {
    /// All four theorems, in paper order.
    pub const ALL: [Theorem; 4] = [Theorem::One, Theorem::Two, Theorem::Three, Theorem::Four];

    /// Stable label used in tables and cache diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            Theorem::One => "theorem1",
            Theorem::Two => "theorem2",
            Theorem::Three => "theorem3",
            Theorem::Four => "theorem4",
        }
    }

    /// Runs the closed-form optimizer for this theorem.
    pub fn optimize(self, platform: &Platform, costs: &CostModel) -> PatternOptimum {
        match self {
            Theorem::One => theorem1(platform, costs),
            Theorem::Two => theorem2(platform, costs),
            Theorem::Three => theorem3(platform, costs),
            Theorem::Four => theorem4(platform, costs),
        }
    }
}

/// A sweep point's name, formatted lazily so cell expansion never touches
/// the heap: explicit points share one interned `Arc<str>` (cloning a cell
/// bumps a refcount), grid points carry their axis values and render
/// `"{nodes}n-{years:.0}y-r{recall}"` only when displayed.
#[derive(Debug, Clone)]
pub enum CellName {
    /// Interned name of an explicitly-added point.
    Shared(Arc<str>),
    /// A canonical-grid point, named by its axis values.
    GridPoint {
        /// Node count.
        nodes: u64,
        /// Per-node fail-stop MTBF, years.
        mtbf_years: f64,
        /// Partial-verification recall.
        recall: f64,
    },
}

impl fmt::Display for CellName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellName::Shared(s) => f.write_str(s),
            CellName::GridPoint {
                nodes,
                mtbf_years,
                recall,
            } => {
                // The grid's MTBF axis is integral, and core formats an
                // exactly integral float with `{:.0}` through its slow
                // exact-mode fallback. Below 2^53 the integer has the same
                // digits; -0.0 (which `{:.0}` prints as "-0") and every
                // non-integral value fail the bit comparison and stay on
                // the float path.
                let whole = *mtbf_years as u64;
                if whole < 1 << 53 && (whole as f64).to_bits() == mtbf_years.to_bits() {
                    write!(f, "{nodes}n-{whole}y-r{recall}")
                } else {
                    write!(f, "{nodes}n-{mtbf_years:.0}y-r{recall}")
                }
            }
        }
    }
}

impl PartialEq for CellName {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (CellName::Shared(a), CellName::Shared(b)) => a == b,
            (
                CellName::GridPoint {
                    nodes: an,
                    mtbf_years: ay,
                    recall: ar,
                },
                CellName::GridPoint {
                    nodes: bn,
                    mtbf_years: by,
                    recall: br,
                },
            ) => an == bn && ay == by && ar == br,
            // Mixed variants compare by rendered name (diagnostic paths
            // only; the hot path never mixes them).
            _ => self.to_string() == other.to_string(),
        }
    }
}

impl PartialEq<str> for CellName {
    fn eq(&self, other: &str) -> bool {
        match self {
            CellName::Shared(s) => &**s == other,
            grid => grid.to_string().as_str() == other,
        }
    }
}

impl PartialEq<&str> for CellName {
    fn eq(&self, other: &&str) -> bool {
        self == *other
    }
}

/// One expanded cell of a sweep: a named (platform, costs) point, the
/// theorem to optimize there, and the cell's position in the deterministic
/// row-major expansion order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Position in the spec's expansion order; executors report results in
    /// increasing `index` regardless of sharding.
    pub index: usize,
    /// Point name, e.g. `"hera"` or `"1000n-25y-r0.05"`, formatted lazily.
    pub name: CellName,
    /// Error rates at this point.
    pub platform: Platform,
    /// Resilience costs at this point.
    pub costs: CostModel,
    /// Theorem to optimize.
    pub theorem: Theorem,
}

/// Where a spec's points come from: an explicit interned list, or the
/// procedural canonical grid (axis indices → values, nothing materialized).
#[derive(Debug, Clone)]
enum PointSource {
    Explicit(Vec<(Arc<str>, Platform, CostModel)>),
    Grid(GridAxes),
}

impl Default for PointSource {
    fn default() -> Self {
        PointSource::Explicit(Vec::new())
    }
}

/// Builder for sweep cross-products of points × theorems.
#[derive(Debug, Clone, Default)]
pub struct SweepSpec {
    source: PointSource,
    theorems: Vec<Theorem>,
}

impl SweepSpec {
    /// Empty spec.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one named (platform, costs) point. The name is interned once;
    /// every cell expanded from this point shares it.
    ///
    /// # Panics
    /// Panics on a grid-backed spec ([`grid_spec`]), whose points are
    /// procedural.
    pub fn point(
        mut self,
        name: impl Into<Arc<str>>,
        platform: Platform,
        costs: CostModel,
    ) -> Self {
        match &mut self.source {
            PointSource::Explicit(points) => points.push((name.into(), platform, costs)),
            PointSource::Grid(_) => panic!("cannot add explicit points to a grid-backed spec"),
        }
        self
    }

    /// Adds a named scenario as a point.
    pub fn scenario(self, s: &Scenario) -> Self {
        self.point(s.name, s.platform, s.costs)
    }

    /// Adds every scenario in the iterator as a point.
    pub fn scenarios<'a>(mut self, it: impl IntoIterator<Item = &'a Scenario>) -> Self {
        for s in it {
            self = self.scenario(s);
        }
        self
    }

    /// Adds one theorem to the cross-product.
    pub fn theorem(mut self, t: Theorem) -> Self {
        self.theorems.push(t);
        self
    }

    /// Adds all four theorems.
    pub fn all_theorems(mut self) -> Self {
        self.theorems.extend(Theorem::ALL);
        self
    }

    /// Number of (platform, costs) points the spec holds.
    pub fn point_count(&self) -> usize {
        match &self.source {
            PointSource::Explicit(points) => points.len(),
            PointSource::Grid(axes) => axes.point_count(),
        }
    }

    /// Number of cells the spec expands to.
    pub fn len(&self) -> usize {
        self.point_count() * self.theorems.len()
    }

    /// Whether the spec expands to no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Random access into the row-major expansion order (points in
    /// insertion order, theorems inner): O(1), no per-cell heap formatting.
    ///
    /// # Panics
    /// Panics when `index ≥ self.len()`.
    pub fn cell_at(&self, index: usize) -> SweepCell {
        assert!(index < self.len(), "cell index {index} out of range");
        let point = index / self.theorems.len();
        let theorem = self.theorems[index % self.theorems.len()];
        let (name, platform, costs) = match &self.source {
            PointSource::Explicit(points) => {
                let (name, platform, costs) = &points[point];
                (CellName::Shared(Arc::clone(name)), *platform, *costs)
            }
            PointSource::Grid(axes) => axes.point_at(point),
        };
        SweepCell {
            index,
            name,
            platform,
            costs,
            theorem,
        }
    }

    /// Streaming iterator over every cell, in expansion order.
    pub fn iter(&self) -> Cells<'_> {
        self.iter_range(0..self.len())
    }

    /// Streaming iterator over the cells of an index sub-range — the unit
    /// of cross-process sharding: shard `i` of `n` walks its slice of
    /// `0..len` and the concatenation of all shards is exactly
    /// [`iter`](Self::iter).
    ///
    /// # Panics
    /// Panics when the range exceeds `0..self.len()`.
    pub fn iter_range(&self, range: Range<usize>) -> Cells<'_> {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "cell range {range:?} out of 0..{}",
            self.len()
        );
        Cells {
            spec: self,
            next: range.start,
            end: range.end,
        }
    }

    /// Expands the cross-product into indexed cells, row-major: points in
    /// insertion order, theorems inner. The `index` fields are the cell's
    /// position in this order, which every executor preserves on output.
    /// Materializes the whole expansion — prefer [`iter`](Self::iter) /
    /// [`cell_at`](Self::cell_at) for large sweeps.
    pub fn cells(&self) -> Vec<SweepCell> {
        self.iter().collect()
    }
}

/// Streaming cell iterator over a [`SweepSpec`] index range; each `next` is
/// one O(1) [`SweepSpec::cell_at`] call.
#[derive(Debug, Clone)]
pub struct Cells<'a> {
    spec: &'a SweepSpec,
    next: usize,
    end: usize,
}

impl Iterator for Cells<'_> {
    type Item = SweepCell;

    fn next(&mut self) -> Option<SweepCell> {
        if self.next >= self.end {
            return None;
        }
        let cell = self.spec.cell_at(self.next);
        self.next += 1;
        Some(cell)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.end - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Cells<'_> {}

/// Maximum axis length of the canonical grid (10⁶ points at the full 100).
pub const GRID_AXIS_LEN: usize = 100;

/// Geometric axis values of the canonical grid: node counts, per-node
/// fail-stop MTBFs (years; silent MTBF is 0.4× as in the paper's petascale
/// setup), and partial-verification recalls. These are the first 10 values
/// of each axis; [`grid_nodes_at`]/[`grid_mtbf_years_at`]/[`grid_recall_at`]
/// continue them up to index [`GRID_AXIS_LEN`]` - 1`.
pub const GRID_NODES: [u64; 10] = [
    1_000, 2_000, 4_000, 8_000, 16_000, 32_000, 64_000, 128_000, 256_000, 512_000,
];
/// Per-node fail-stop MTBF axis, years.
pub const GRID_MTBF_YEARS: [f64; 10] = [
    25.0, 50.0, 100.0, 200.0, 400.0, 800.0, 1_600.0, 3_200.0, 6_400.0, 12_800.0,
];
/// Partial-verification recall axis.
pub const GRID_RECALLS: [f64; 10] = [0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95];

/// Node-count axis value at `i`: the canonical geometric decade for
/// `i < 10`, then an exact linear continuation (one canonical top-decade
/// step of 51,200 nodes per index) — integer arithmetic only, so extended
/// grids are deterministic across platforms.
///
/// # Panics
/// Panics when `i ≥ `[`GRID_AXIS_LEN`].
pub fn grid_nodes_at(i: usize) -> u64 {
    assert!(i < GRID_AXIS_LEN, "grid axis index {i} out of range");
    match GRID_NODES.get(i) {
        Some(&n) => n,
        None => 512_000 + 51_200 * (i as u64 - 9),
    }
}

/// Per-node MTBF axis value at `i`, years: the canonical geometric decade
/// for `i < 10`, then an exact linear continuation (1,280 years per index;
/// the values are integers, exactly representable).
///
/// # Panics
/// Panics when `i ≥ `[`GRID_AXIS_LEN`].
pub fn grid_mtbf_years_at(i: usize) -> f64 {
    assert!(i < GRID_AXIS_LEN, "grid axis index {i} out of range");
    match GRID_MTBF_YEARS.get(i) {
        Some(&y) => y,
        None => 12_800.0 + 1_280.0 * (i as f64 - 9.0),
    }
}

/// Recall axis value at `i`: the canonical `0.05..0.95` decade for
/// `i < 10`, then `(2i+1)/200` (odd numerators, so extended values never
/// collide with the canonical even-numerator ones and stay inside `(0, 1]`
/// up to `i = 99`).
///
/// # Panics
/// Panics when `i ≥ `[`GRID_AXIS_LEN`].
pub fn grid_recall_at(i: usize) -> f64 {
    assert!(i < GRID_AXIS_LEN, "grid axis index {i} out of range");
    match GRID_RECALLS.get(i) {
        Some(&r) => r,
        None => (2 * i + 1) as f64 / 200.0,
    }
}

/// The canonical grid's axes, procedurally: `per_axis` values per axis,
/// crossed row-major (nodes outer, MTBF, recall inner). Holds only the axis
/// length — points are derived on demand by [`GridAxes::point_at`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GridAxes {
    per_axis: usize,
}

impl GridAxes {
    fn point_count(self) -> usize {
        self.per_axis * self.per_axis * self.per_axis
    }

    /// Derives point `p` of the row-major cross-product: name parts,
    /// platform, and cost model, all computed on the fly (bit-identical to
    /// the materialized expansion, with zero heap traffic).
    fn point_at(self, p: usize) -> (CellName, Platform, CostModel) {
        let per = self.per_axis;
        debug_assert!(p < self.point_count());
        let recall = grid_recall_at(p % per);
        let years = grid_mtbf_years_at((p / per) % per);
        let nodes = grid_nodes_at(p / (per * per));
        (
            CellName::GridPoint {
                nodes,
                mtbf_years: years,
                recall,
            },
            Platform::from_nodes(years * YEAR, 0.4 * years * YEAR, nodes),
            CostModel::new(60.0, 60.0, 30.0, 3.0, recall),
        )
    }
}

/// The canonical node-count × MTBF × recall grid over the Theorem-4
/// optimizer: the first `per_axis` values of each axis, crossed
/// (`per_axis³` cells). `per_axis = 10` yields the canonical 1,000-cell
/// grid; up to [`GRID_AXIS_LEN`]` = 100` (10⁶ cells) the axes continue per
/// [`grid_nodes_at`] and friends. The spec is procedural: no point vector
/// is materialized at any size.
///
/// Within the canonical decade both node and MTBF axes are geometric with
/// ratio 2, so many (nodes, MTBF) pairs share the exact platform rate
/// `λ = nodes / mtbf` (power-of-two scaling of an f64 quotient is
/// bit-exact): the grid intentionally contains repeated optimizer inputs,
/// which the query daemon's optimum cache collapses.
///
/// # Panics
/// Panics when `per_axis` is 0 or exceeds [`GRID_AXIS_LEN`].
pub fn grid_spec(per_axis: usize) -> SweepSpec {
    assert!(
        (1..=GRID_AXIS_LEN).contains(&per_axis),
        "per_axis must lie in 1..={GRID_AXIS_LEN}"
    );
    SweepSpec {
        source: PointSource::Grid(GridAxes { per_axis }),
        theorems: vec![Theorem::Four],
    }
}

#[cfg(test)]
mod tests {
    // Tests pin exact values on purpose (bit-stability is the contract
    // under test); tolerance comparisons would weaken them.
    #![allow(clippy::float_cmp)]

    use super::*;
    use crate::scenario::reference_scenarios;

    #[test]
    fn grid_names_print_years_exactly_as_fixed_point() {
        let two53 = (1u64 << 53) as f64;
        let mut years: Vec<f64> = (0..GRID_AXIS_LEN).map(grid_mtbf_years_at).collect();
        years.extend([
            0.0,
            -0.0,
            0.5,
            2.5,
            -25.0,
            1e-300,
            f64::from_bits(1),
            two53 - 1.0,
            two53,
            two53 + 2.0,
            1e300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ]);
        for y in years {
            let name = CellName::GridPoint {
                nodes: 1_000,
                mtbf_years: y,
                recall: 0.35,
            };
            assert_eq!(
                name.to_string(),
                format!("1000n-{y:.0}y-r0.35"),
                "years {y:e}"
            );
        }
    }

    #[test]
    fn cells_expand_row_major_with_contiguous_indices() {
        let scenarios = reference_scenarios();
        let spec = SweepSpec::new().scenarios(&scenarios).all_theorems();
        let cells = spec.cells();
        assert_eq!(cells.len(), 12);
        assert_eq!(spec.len(), 12);
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.index, i);
            assert_eq!(cell.name, scenarios[i / 4].name);
            assert_eq!(cell.theorem, Theorem::ALL[i % 4]);
        }
    }

    #[test]
    fn cell_at_matches_materialized_cells_index_for_index() {
        // Streaming and materialized expansion are the same function: the
        // executor's chunked dispatch relies on cell_at(i) == cells()[i].
        for spec in [
            SweepSpec::new()
                .scenarios(&reference_scenarios())
                .all_theorems(),
            grid_spec(3),
            grid_spec(10),
        ] {
            let cells = spec.cells();
            assert_eq!(cells.len(), spec.len());
            for (i, cell) in cells.iter().enumerate() {
                assert_eq!(*cell, spec.cell_at(i), "cell {i}");
            }
        }
    }

    #[test]
    fn iter_range_slices_the_expansion() {
        let spec = grid_spec(4);
        let all = spec.cells();
        let lo = spec.iter_range(0..20).collect::<Vec<_>>();
        let hi = spec.iter_range(20..spec.len()).collect::<Vec<_>>();
        assert_eq!(lo.len(), 20);
        assert_eq!([lo, hi].concat(), all, "shard concatenation must be exact");
        assert_eq!(spec.iter().len(), spec.len());
        assert!(spec.iter_range(7..7).next().is_none());
    }

    #[test]
    #[should_panic(expected = "out of 0..")]
    fn oversized_iter_range_rejected() {
        grid_spec(2).iter_range(0..9);
    }

    #[test]
    fn explicit_names_are_interned_not_reformatted() {
        let spec = SweepSpec::new()
            .scenarios(&reference_scenarios())
            .all_theorems();
        let (a, b) = (spec.cell_at(0), spec.cell_at(1));
        match (&a.name, &b.name) {
            (CellName::Shared(x), CellName::Shared(y)) => {
                assert!(Arc::ptr_eq(x, y), "cells of one point share one name");
            }
            other => panic!("explicit points must intern names, got {other:?}"),
        }
    }

    #[test]
    fn grid_names_render_like_the_original_formatting() {
        let spec = grid_spec(2);
        let c = spec.cell_at(0);
        assert_eq!(c.name.to_string(), "1000n-25y-r0.05");
        assert_eq!(c.name, "1000n-25y-r0.05");
        let last = spec.cell_at(7);
        assert_eq!(last.name.to_string(), "2000n-50y-r0.15");
    }

    #[test]
    fn empty_spec_has_no_cells() {
        assert!(SweepSpec::new().is_empty());
        assert!(SweepSpec::new().all_theorems().cells().is_empty());
    }

    #[test]
    fn theorem_optimize_matches_direct_calls() {
        let s = &reference_scenarios()[0];
        assert_eq!(
            Theorem::Four.optimize(&s.platform, &s.costs),
            theorem4(&s.platform, &s.costs)
        );
        assert_eq!(Theorem::One.label(), "theorem1");
    }

    #[test]
    fn grid_spec_sizes_cube_with_axis() {
        assert_eq!(grid_spec(1).len(), 1);
        assert_eq!(grid_spec(3).len(), 27);
        assert_eq!(grid_spec(10).len(), 1_000);
        assert_eq!(grid_spec(100).len(), 1_000_000);
    }

    #[test]
    fn extended_axes_continue_canonical_prefixes() {
        for i in 0..10 {
            assert_eq!(grid_nodes_at(i), GRID_NODES[i]);
            assert_eq!(grid_mtbf_years_at(i), GRID_MTBF_YEARS[i]);
            assert_eq!(grid_recall_at(i), GRID_RECALLS[i]);
        }
        let mut prev_nodes = 0;
        let mut prev_years = 0.0;
        let mut seen_recalls = std::collections::BTreeSet::new();
        for i in 0..GRID_AXIS_LEN {
            let n = grid_nodes_at(i);
            let y = grid_mtbf_years_at(i);
            let r = grid_recall_at(i);
            assert!(n > prev_nodes, "nodes axis must increase at {i}");
            assert!(y > prev_years, "MTBF axis must increase at {i}");
            assert!(r > 0.0 && r <= 1.0, "recall {r} out of (0,1] at {i}");
            assert!(seen_recalls.insert(r.to_bits()), "recall repeats at {i}");
            prev_nodes = n;
            prev_years = y;
        }
    }

    #[test]
    fn grid_platforms_repeat_bit_exactly_across_the_diagonal() {
        // 2000 nodes at 50y must equal 1000 nodes at 25y: the cache's
        // bit-exact key relies on power-of-two scaling being lossless.
        let a = Platform::from_nodes(25.0 * YEAR, 0.4 * 25.0 * YEAR, 1_000);
        let b = Platform::from_nodes(50.0 * YEAR, 0.4 * 50.0 * YEAR, 2_000);
        assert_eq!(a.lambda_fail.to_bits(), b.lambda_fail.to_bits());
        assert_eq!(a.lambda_silent.to_bits(), b.lambda_silent.to_bits());
    }

    #[test]
    #[should_panic(expected = "per_axis")]
    fn oversized_grid_axis_rejected() {
        grid_spec(GRID_AXIS_LEN + 1);
    }

    #[test]
    #[should_panic(expected = "grid-backed")]
    fn grid_spec_rejects_explicit_points() {
        let s = &reference_scenarios()[0];
        let _ = grid_spec(2).point("x", s.platform, s.costs);
    }
}
