//! Read-only row views: matrix-shaped input read where its rows already
//! live, so no per-batch copy assembles them first.

use crate::Matrix;

/// A `rows x cols` read-only view whose rows stay in the tables that hold
/// them: row `p` of one matrix ([`RowView::dense`]), row `ids[p]` of a
/// table ([`RowView::gather`]: host features by vertex id), or row
/// `index[p]` of a primary matrix or, tagged [`RowView::SECONDARY`], of a
/// secondary table ([`RowView::split`]: cache misses and hits). Each yields
/// the floats a row gather into a dense matrix would hold, so a kernel
/// reading the view computes what it computes on that matrix, bit for bit.
#[derive(Clone, Copy, Debug)]
pub struct RowView<'a> {
    primary: &'a [f32],
    secondary: &'a [f32],
    /// `None`: row `p` is primary row `p`.
    index: Option<&'a [u32]>,
    rows: usize,
    cols: usize,
}

impl<'a> RowView<'a> {
    /// Tag of an index entry that names a row of the secondary table.
    pub const SECONDARY: u32 = 1 << 31;

    /// Every row of `m`, in order.
    pub fn dense(m: &'a Matrix) -> Self {
        Self {
            primary: m.as_slice(),
            secondary: &[],
            index: None,
            rows: m.rows(),
            cols: m.cols(),
        }
    }

    /// Row `p` is row `ids[p]` of `table`. No id may carry
    /// [`Self::SECONDARY`].
    pub fn gather(table: &'a Matrix, ids: &'a [u32]) -> Self {
        debug_assert!(ids.iter().all(|&v| v & Self::SECONDARY == 0));
        Self {
            primary: table.as_slice(),
            secondary: &[],
            index: Some(ids),
            rows: ids.len(),
            cols: table.cols(),
        }
    }

    /// Row `p` is row `index[p]` of `primary`, or of `secondary` (row-major,
    /// `primary.cols()` wide) when the entry carries [`Self::SECONDARY`].
    pub fn split(primary: &'a Matrix, secondary: &'a [f32], index: &'a [u32]) -> Self {
        Self {
            primary: primary.as_slice(),
            secondary,
            index: Some(index),
            rows: index.len(),
            cols: primary.cols(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `p`, read in place.
    #[inline]
    pub fn row(&self, p: usize) -> &'a [f32] {
        let (table, r) = match self.index {
            None => (self.primary, p),
            Some(index) => {
                let entry = index[p];
                if entry & Self::SECONDARY == 0 {
                    (self.primary, entry as usize)
                } else {
                    (self.secondary, (entry & !Self::SECONDARY) as usize)
                }
            }
        };
        &table[r * self.cols..(r + 1) * self.cols]
    }

    /// Asks the CPU to start loading row `p` into cache, one hint per
    /// 64-byte line it spans, so a read a few rows later finds it there. A
    /// hint, never a read: the floats the row yields are unchanged, and off
    /// x86_64 this does nothing.
    #[inline]
    pub fn prefetch(&self, p: usize) {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let row = self.row(p);
            let start = row.as_ptr().cast::<i8>();
            let lead = start as usize % 64;
            let end = lead + std::mem::size_of_val(row);
            // SAFETY: a prefetch is a cache hint: it never faults and
            // yields nothing to the program, so any address is sound. Each
            // one here is the start of a 64-byte line `row` overlaps, formed
            // with `wrapping_*` arithmetic, so no pointer is offset out of
            // bounds. `_mm_prefetch` needs SSE, part of the x86_64 baseline.
            unsafe {
                for off in (0..end).step_by(64) {
                    _mm_prefetch::<_MM_HINT_T0>(start.wrapping_sub(lead).wrapping_add(off));
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = p;
    }

    /// Rows `0..n` copied into a dense matrix.
    pub fn head(&self, n: usize) -> Matrix {
        assert!(
            n <= self.rows,
            "head of {n} rows from a {}-row view",
            self.rows
        );
        let mut data = Vec::with_capacity(n * self.cols);
        for p in 0..n {
            data.extend_from_slice(self.row(p));
        }
        Matrix::from_vec(n, self.cols, data)
    }

    /// The whole view copied into a dense matrix.
    pub fn to_matrix(&self) -> Matrix {
        self.head(self.rows)
    }
}

impl<'a> From<&'a Matrix> for RowView<'a> {
    fn from(m: &'a Matrix) -> Self {
        Self::dense(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(rows: usize, cols: usize) -> Matrix {
        let data = (0..rows * cols).map(|i| i as f32 * 0.5 - 3.0).collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn every_form_reads_the_rows_a_gather_would_copy() {
        let m = table(5, 3);
        let dense = RowView::dense(&m);
        assert_eq!((dense.rows(), dense.cols()), (5, 3));
        assert_eq!(dense.to_matrix(), m);

        let ids = [4u32, 0, 4, 2];
        let by_id = RowView::gather(&m, &ids);
        assert_eq!(by_id.to_matrix(), m.gather_rows_u32(&ids));

        // Misses in `m`, hits in a second table of the same width.
        let hits = table(2, 3);
        let index = [1u32, RowView::SECONDARY | 1, 0, RowView::SECONDARY];
        let split = RowView::split(&m, hits.as_slice(), &index);
        assert_eq!(split.row(0), m.row(1));
        assert_eq!(split.row(1), hits.row(1));
        assert_eq!(split.row(2), m.row(0));
        assert_eq!(split.row(3), hits.row(0));
        assert_eq!(split.head(2).as_slice(), [m.row(1), hits.row(1)].concat());

        // A prefetch of any row of any form is a hint: the rows read the same.
        for view in [dense, by_id, split] {
            let before = view.to_matrix();
            (0..view.rows()).for_each(|p| view.prefetch(p));
            assert_eq!(view.to_matrix(), before);
        }
    }

    #[test]
    fn empty_and_zero_width_views_have_their_shape() {
        let empty = Matrix::zeros(0, 4);
        assert_eq!(RowView::dense(&empty).to_matrix().shape(), (0, 4));
        let narrow = Matrix::zeros(3, 0);
        let view = RowView::gather(&narrow, &[2, 1]);
        assert_eq!(view.to_matrix().shape(), (2, 0));
        assert!(view.row(1).is_empty());
        view.prefetch(1);
    }

    #[test]
    #[should_panic]
    fn a_row_past_the_end_panics() {
        let m = table(2, 2);
        let _ = RowView::dense(&m).row(2);
    }
}
