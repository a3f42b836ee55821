//! Sub-tensor partitioning schemes.
//!
//! Drift's Section 2.1 defines a *sub-tensor* as any subset of a tensor's
//! elements: a patch of a ViT activation, a token of a BERT activation, a
//! spatial region of a CNN feature map (the granularity DRQ uses), or a
//! weight channel. The dynamic precision algorithm makes one decision per
//! sub-tensor, so the partitioning scheme controls the precision
//! granularity and the bookkeeping cost.
//!
//! A [`SubTensorView`] is a list of flat, half-open element ranges into the
//! parent tensor. Token rows are a single contiguous range; image patches
//! and 2-D regions are a run of strided row segments.

use crate::shape::Shape;
use crate::{Result, TensorError};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// A view over a subset of a tensor's elements, as flat row-major ranges.
///
/// Views are produced by [`SubTensorScheme::partition`]; all ranges are
/// disjoint and, taken across all views of a partition, cover the tensor
/// exactly once.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubTensorView {
    id: usize,
    ranges: Vec<Range<usize>>,
    len: usize,
}

impl SubTensorView {
    /// Creates a view from flat element ranges.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::PartitionMismatch`] when `ranges` is empty
    /// or contains an empty range.
    pub fn new(id: usize, ranges: Vec<Range<usize>>) -> Result<Self> {
        if ranges.is_empty() || ranges.iter().any(|r| r.is_empty()) {
            return Err(TensorError::PartitionMismatch {
                detail: format!("view {id} has empty ranges"),
            });
        }
        let len = ranges.iter().map(Range::len).sum();
        Ok(SubTensorView { id, ranges, len })
    }

    /// Stable identifier of this view within its partition (0-based).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The flat element ranges making up this view.
    pub fn ranges(&self) -> &[Range<usize>] {
        &self.ranges
    }

    /// Number of elements selected by the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view selects no elements (never true for constructed
    /// views).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterator over every flat element index in the view, in gather
    /// order.
    pub fn indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.ranges.iter().flat_map(|r| r.clone())
    }
}

/// How a tensor is carved into sub-tensors.
///
/// # Example
///
/// ```rust
/// use drift_tensor::subtensor::SubTensorScheme;
/// use drift_tensor::Shape;
///
/// # fn main() -> Result<(), drift_tensor::TensorError> {
/// // A BERT-style activation: 128 tokens x 768 hidden.
/// let shape = Shape::matrix(128, 768)?;
/// let views = SubTensorScheme::token(768).partition(&shape)?;
/// assert_eq!(views.len(), 128);
/// assert!(views.iter().all(|v| v.len() == 768));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum SubTensorScheme {
    /// The whole tensor is one sub-tensor (per-tensor quantization).
    PerTensor,
    /// Fixed-size runs of `len` consecutive elements (token granularity
    /// when `len` equals the hidden size of a `[tokens, hidden]` tensor).
    Token {
        /// Elements per token.
        len: usize,
    },
    /// 2-D tiles of a `[rows, cols]` (or flattened-leading-dims) tensor.
    /// This is the granularity DRQ uses for feature-map regions and ViT
    /// uses for patches.
    Region {
        /// Tile height in rows.
        tile_rows: usize,
        /// Tile width in columns.
        tile_cols: usize,
    },
    /// One sub-tensor per leading-axis slice (e.g. per output channel of
    /// a weight tensor).
    Channel,
    /// Every element is its own sub-tensor (Precision Gating's per-value
    /// granularity). Exists for ablations; the bookkeeping cost is why
    /// the paper rejects it.
    PerValue,
}

impl SubTensorScheme {
    /// Token granularity: runs of `len` consecutive elements.
    pub fn token(len: usize) -> Self {
        SubTensorScheme::Token { len }
    }

    /// Region granularity: `tile_rows` × `tile_cols` tiles of a 2-D view.
    pub fn region(tile_rows: usize, tile_cols: usize) -> Self {
        SubTensorScheme::Region {
            tile_rows,
            tile_cols,
        }
    }

    /// Splits `shape` into sub-tensor views.
    ///
    /// For [`SubTensorScheme::Region`], tensors of rank > 2 are viewed as
    /// `[volume / last_dim, last_dim]`; partial edge tiles are emitted
    /// when the tile size does not divide the extent, so the partition is
    /// always exhaustive. Each view's ranges are the ones
    /// [`SubTensorScheme::for_each_range`] streams for its id, in the
    /// same (ascending) order.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::PartitionMismatch`] when a token length does
    /// not divide the tensor volume or a tile extent is zero.
    pub fn partition(&self, shape: &Shape) -> Result<Vec<SubTensorView>> {
        let mut ranges = vec![Vec::new(); self.count(shape)?];
        self.for_each_range(shape, |id, range| ranges[id].push(range))?;
        ranges
            .into_iter()
            .enumerate()
            .map(|(id, r)| SubTensorView::new(id, r))
            .collect()
    }

    /// Streams the partition without materialising it: calls
    /// `visit(view_id, range)` for every flat element range of every
    /// view, in ascending flat order. The ranges tile `0..volume`
    /// exactly once, and one view's ranges arrive in the order
    /// [`SubTensorScheme::partition`] lists them, so a consumer that
    /// accumulates per view sees each view's elements in gather order
    /// while reading the tensor front to back — the access pattern of
    /// the accelerator's pooling unit.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SubTensorScheme::partition`].
    pub fn for_each_range(
        &self,
        shape: &Shape,
        mut visit: impl FnMut(usize, Range<usize>),
    ) -> Result<()> {
        let volume = shape.volume();
        let views = self.count(shape)?;
        match *self {
            SubTensorScheme::PerTensor => visit(0, 0..volume),
            SubTensorScheme::Token { .. } | SubTensorScheme::Channel => {
                let per = volume / views;
                for i in 0..views {
                    visit(i, i * per..(i + 1) * per);
                }
            }
            SubTensorScheme::Region {
                tile_rows,
                tile_cols,
            } => {
                let cols = *shape.dims().last().expect("shapes are non-empty");
                let tiles_per_row = cols.div_ceil(tile_cols);
                for r in 0..volume / cols {
                    let first = (r / tile_rows) * tiles_per_row;
                    for (t, c0) in (0..cols).step_by(tile_cols).enumerate() {
                        let c1 = (c0 + tile_cols).min(cols);
                        visit(first + t, r * cols + c0..r * cols + c1);
                    }
                }
            }
            SubTensorScheme::PerValue => {
                for i in 0..volume {
                    visit(i, i..i + 1);
                }
            }
        }
        Ok(())
    }

    /// The number of sub-tensors this scheme yields for `shape`, without
    /// materialising the views.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SubTensorScheme::partition`].
    pub fn count(&self, shape: &Shape) -> Result<usize> {
        let volume = shape.volume();
        match *self {
            SubTensorScheme::PerTensor => Ok(1),
            SubTensorScheme::Token { len } => {
                if len == 0 || !volume.is_multiple_of(len) {
                    return Err(TensorError::PartitionMismatch {
                        detail: format!(
                            "token length {len} does not divide tensor volume {volume}"
                        ),
                    });
                }
                Ok(volume / len)
            }
            SubTensorScheme::Region {
                tile_rows,
                tile_cols,
            } => {
                if tile_rows == 0 || tile_cols == 0 {
                    return Err(TensorError::PartitionMismatch {
                        detail: "region tiles must be non-empty".to_string(),
                    });
                }
                let cols = *shape.dims().last().expect("shapes are non-empty");
                let rows = volume / cols;
                Ok(rows.div_ceil(tile_rows) * cols.div_ceil(tile_cols))
            }
            SubTensorScheme::Channel => shape.dim(0),
            SubTensorScheme::PerValue => Ok(volume),
        }
    }
}

#[cfg(test)]
#[allow(clippy::single_range_in_vec_init)] // range lists, not fill exprs
mod tests {
    use super::*;

    fn covers_exactly(views: &[SubTensorView], volume: usize) {
        let mut seen = vec![false; volume];
        for v in views {
            for i in v.indices() {
                assert!(!seen[i], "element {i} covered twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "partition does not cover tensor");
    }

    #[test]
    fn per_tensor_is_single_view() {
        let s = Shape::new(vec![4, 4]).unwrap();
        let views = SubTensorScheme::PerTensor.partition(&s).unwrap();
        assert_eq!(views.len(), 1);
        assert_eq!(views[0].len(), 16);
        covers_exactly(&views, 16);
    }

    #[test]
    fn token_partition_covers() {
        let s = Shape::new(vec![6, 8]).unwrap();
        let views = SubTensorScheme::token(8).partition(&s).unwrap();
        assert_eq!(views.len(), 6);
        covers_exactly(&views, 48);
        assert_eq!(SubTensorScheme::token(8).count(&s).unwrap(), 6);
    }

    #[test]
    fn token_rejects_nondivisor() {
        let s = Shape::new(vec![6, 8]).unwrap();
        assert!(SubTensorScheme::token(7).partition(&s).is_err());
        assert!(SubTensorScheme::token(0).partition(&s).is_err());
    }

    #[test]
    fn region_partition_covers_even() {
        let s = Shape::new(vec![8, 8]).unwrap();
        let views = SubTensorScheme::region(4, 4).partition(&s).unwrap();
        assert_eq!(views.len(), 4);
        assert!(views.iter().all(|v| v.len() == 16));
        covers_exactly(&views, 64);
    }

    #[test]
    fn region_partition_covers_ragged() {
        let s = Shape::new(vec![5, 7]).unwrap();
        let views = SubTensorScheme::region(2, 3).partition(&s).unwrap();
        covers_exactly(&views, 35);
        assert_eq!(
            views.len(),
            SubTensorScheme::region(2, 3).count(&s).unwrap()
        );
    }

    #[test]
    fn region_edge_tiles_are_pinned() {
        // [5, 7] in 2x3 tiles: 3 tile rows x 3 tile columns, ragged on
        // both edges; ids run along a tile row first.
        let s = Shape::new(vec![5, 7]).unwrap();
        let views = SubTensorScheme::region(2, 3).partition(&s).unwrap();
        let ranges: Vec<&[Range<usize>]> = views.iter().map(SubTensorView::ranges).collect();
        assert_eq!(ranges[0], &[0..3, 7..10]);
        assert_eq!(ranges[2], &[6..7, 13..14]);
        assert_eq!(ranges[3], &[14..17, 21..24]);
        assert_eq!(ranges[8], &[34..35]);
    }

    #[test]
    fn streamed_ranges_tile_the_tensor_in_flat_order() {
        let s = Shape::new(vec![5, 7]).unwrap();
        for scheme in [
            SubTensorScheme::PerTensor,
            SubTensorScheme::token(7),
            SubTensorScheme::region(2, 3),
            SubTensorScheme::Channel,
            SubTensorScheme::PerValue,
        ] {
            let mut next = 0;
            let mut per_view = vec![0usize; scheme.count(&s).unwrap()];
            scheme
                .for_each_range(&s, |id, range| {
                    assert_eq!(range.start, next, "{scheme:?}");
                    next = range.end;
                    per_view[id] += range.len();
                })
                .unwrap();
            assert_eq!(next, 35, "{scheme:?}");
            let views = scheme.partition(&s).unwrap();
            let lens: Vec<usize> = views.iter().map(SubTensorView::len).collect();
            assert_eq!(per_view, lens, "{scheme:?}");
        }
        assert!(SubTensorScheme::token(6)
            .for_each_range(&s, |_, _| {})
            .is_err());
    }

    #[test]
    fn region_flattens_higher_ranks() {
        // [2, 4, 6] is treated as [8, 6].
        let s = Shape::new(vec![2, 4, 6]).unwrap();
        let views = SubTensorScheme::region(4, 3).partition(&s).unwrap();
        covers_exactly(&views, 48);
        assert_eq!(views.len(), 4);
    }

    #[test]
    fn channel_partition() {
        let s = Shape::new(vec![3, 5]).unwrap();
        let views = SubTensorScheme::Channel.partition(&s).unwrap();
        assert_eq!(views.len(), 3);
        assert!(views.iter().all(|v| v.len() == 5));
        covers_exactly(&views, 15);
    }

    #[test]
    fn per_value_partition() {
        let s = Shape::new(vec![2, 2]).unwrap();
        let views = SubTensorScheme::PerValue.partition(&s).unwrap();
        assert_eq!(views.len(), 4);
        covers_exactly(&views, 4);
    }

    #[test]
    fn view_ids_are_sequential() {
        let s = Shape::new(vec![4, 4]).unwrap();
        let views = SubTensorScheme::region(2, 2).partition(&s).unwrap();
        for (i, v) in views.iter().enumerate() {
            assert_eq!(v.id(), i);
        }
    }

    #[test]
    fn view_rejects_empty_ranges() {
        assert!(SubTensorView::new(0, vec![]).is_err());
        assert!(SubTensorView::new(0, vec![3..3]).is_err());
    }
}
