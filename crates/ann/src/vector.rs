//! Vector primitives: the sparse sketch vectors the crawl runs on.
//!
//! A projected tag path has ~10 non-zeros out of `D = 4096`, so
//! [`crate::Sketcher`] and `ActionSpace` only ever hold [`SparseVec`]s. The
//! sparse kernels are **bit-identical** to the dense ones by construction:
//! a skipped coordinate would only have added an exact-zero product to an
//! f64 accumulator, and every surviving term is added in the same
//! ascending-index order as the dense loop. That dense loop is the
//! reference `sb_bench::dense::cosine` the differential tests pin them to.

use std::cmp::Ordering;

/// A sparse f32 vector: `(index, value)` items in strictly ascending index
/// order, plus the squared norm cached beside them (the same ordered f64
/// sum the dense cosine loop accumulates). The two constructors —
/// [`SparseVec::new`] and the in-place `refill` — check the
/// order and compute the norm through one function, and nothing else
/// writes the items, so the cache can never go stale.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseVec {
    items: Vec<(u32, f32)>,
    norm_sq: f64,
}

/// The cached norm of `items`: panics unless indices are strictly
/// ascending, then sums the squares in that order.
fn checked_norm_sq(items: &[(u32, f32)]) -> f64 {
    assert!(items.windows(2).all(|w| w[0].0 < w[1].0), "indices must be strictly ascending");
    items.iter().fold(0.0f64, |acc, &(_, v)| acc + f64::from(v) * f64::from(v))
}

impl SparseVec {
    /// Panics unless indices are strictly ascending.
    pub fn new(items: Vec<(u32, f32)>) -> Self {
        let norm_sq = checked_norm_sq(&items);
        SparseVec { items, norm_sq }
    }

    /// [`SparseVec::new`] into this vector's allocation — for a caller that
    /// rebuilds one probe vector many times over. Same check, same norm.
    pub(crate) fn refill(&mut self, items: impl IntoIterator<Item = (u32, f32)>) {
        self.items.clear();
        self.items.extend(items);
        self.norm_sq = checked_norm_sq(&self.items);
    }

    /// The non-zero coordinates of a dense vector.
    pub fn from_dense(v: &[f32]) -> Self {
        SparseVec::new(
            v.iter().enumerate().filter(|&(_, &x)| x != 0.0).map(|(i, &x)| (i as u32, x)).collect(),
        )
    }

    /// Materialises the dense `dim`-dimensional vector.
    pub fn to_dense(&self, dim: usize) -> Vec<f32> {
        let mut v = vec![0.0; dim];
        for &(i, x) in &self.items {
            v[i as usize] = x;
        }
        v
    }

    /// `(index, value)` in ascending index order.
    pub fn items(&self) -> &[(u32, f32)] {
        &self.items
    }

    /// The running-mean step of Algorithm 1: this centroid of `members`
    /// tag paths absorbs `x`, coordinate-wise `c + (x − c) / (members + 1)`
    /// over the sorted union of both supports (a coordinate absent from
    /// both stays absent: the dense map sends 0 to 0), written into `out`'s
    /// allocation through `refill` — a caller moves into one
    /// scratch vector and swaps it in, so a warmed move allocates nothing.
    pub fn moved_toward_into(&self, x: &SparseVec, members: f32, out: &mut SparseVec) {
        let step = |c: f32, x: f32| c + (x - c) / (members + 1.0);
        let (a, b) = (&self.items, &x.items);
        let (mut i, mut j) = (0, 0);
        out.refill(std::iter::from_fn(|| loop {
            let order = match (a.get(i), b.get(j)) {
                (Some(l), Some(r)) => l.0.cmp(&r.0),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (None, None) => return None,
            };
            let (idx, v) = match order {
                Ordering::Less => (a[i].0, step(a[i].1, 0.0)),
                Ordering::Greater => (b[j].0, step(0.0, b[j].1)),
                Ordering::Equal => (a[i].0, step(a[i].1, b[j].1)),
            };
            i += usize::from(order != Ordering::Greater);
            j += usize::from(order != Ordering::Less);
            if v != 0.0 {
                return Some((idx, v));
            }
        }));
    }
}

/// Adds `val` at `key` in a small `(key, value)` list kept sorted by key —
/// how the ≤ ~15 n-gram counts and bucket sums of one sketch are
/// accumulated without a per-call map.
pub(crate) fn add_sorted<K: Ord + Copy>(items: &mut Vec<(K, f32)>, key: K, val: f32) {
    match items.binary_search_by_key(&key, |&(k, _)| k) {
        Ok(at) => items[at].1 += val,
        Err(at) => items.insert(at, (key, val)),
    }
}

/// Cosine similarity of two sparse vectors by merge-join; 0 if either is
/// zero. Equal, bit for bit, to the dense three-accumulator cosine over the
/// densified inputs.
pub fn cosine_sparse(a: &SparseVec, b: &SparseVec) -> f32 {
    if a.norm_sq == 0.0 || b.norm_sq == 0.0 {
        return 0.0;
    }
    let (x, y) = (&a.items, &b.items);
    let mut dot = 0.0f64;
    let (mut i, mut j) = (0, 0);
    while i < x.len() && j < y.len() {
        match x[i].0.cmp(&y[j].0) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                dot += f64::from(x[i].1) * f64::from(y[j].1);
                i += 1;
                j += 1;
            }
        }
    }
    normalised(dot, a.norm_sq, b.norm_sq)
}

/// A dot product over the two norms it was taken between, as an f32; 0 if
/// either norm is zero. The one cosine formula every kernel here ends in.
#[inline]
fn normalised(dot: f64, a_norm_sq: f64, b_norm_sq: f64) -> f32 {
    if a_norm_sq == 0.0 || b_norm_sq == 0.0 {
        return 0.0;
    }
    (dot / (a_norm_sq.sqrt() * b_norm_sq.sqrt())) as f32
}

/// Up to [`SketchRing::SLOTS`] sketches of dimension `D`, stored
/// **bucket-major**: row `j` holds coordinate `j` of every slot, one f32
/// lane per slot, and each slot's squared norm is the one its
/// [`SparseVec`] cached. A probe is compared against a slot by *gathering*
/// the rows under its own items — no merge-join, no branch per item — and
/// against all slots at once by one pass over its items.
///
/// **Both reads equal [`cosine_sparse`]`(probe, slot's vector)` bit for
/// bit.** Each lane adds the same f64 products in the same ascending-index
/// order as the merge-join; the only extra terms are `v × 0.0 = ±0.0` for a
/// probe coordinate the slot does not hold. The accumulator starts at
/// `+0.0` and can never become `−0.0` (`+0.0 + −0.0 = +0.0`, and a sum of
/// finite non-zeros that cancels is `+0.0`), and adding `±0.0` to a value
/// that is not `−0.0` leaves it unchanged — so the extra terms change
/// nothing. The norms are the cached ones and the final expression is the
/// same one, zero-norm answer of 0 included. The vectors must be finite
/// (`∞ × 0.0` is NaN).
///
/// A write clears the slot's old support — the rows its previous vector
/// held, which each slot keeps as a short index list — and scatters the new
/// items, so it costs the two vectors' non-zeros, not `D`. Every lane is
/// zero outside its slot's support, so after a write the lane holds
/// exactly the new vector's coordinates.
#[derive(Debug)]
pub struct SketchRing {
    rows: Vec<[f32; SketchRing::SLOTS]>,
    norm_sq: [f64; SketchRing::SLOTS],
    /// Per slot: the indices of the vector it holds.
    support: [Vec<u32>; SketchRing::SLOTS],
}

impl SketchRing {
    /// Slots per ring: a reader's per-slot verdicts fit the bits of a `u32`.
    pub const SLOTS: usize = 32;

    /// An empty ring over dimension `dim`: every slot reads as a zero-norm
    /// vector (cosine 0) until written.
    pub fn new(dim: usize) -> Self {
        SketchRing {
            rows: vec![[0.0; Self::SLOTS]; dim],
            norm_sq: [0.0; Self::SLOTS],
            support: std::array::from_fn(|_| Vec::new()),
        }
    }

    /// Replaces `slot`'s vector with `v`. Panics if `slot` or one of `v`'s
    /// indices is out of range.
    pub fn write(&mut self, slot: usize, v: &SparseVec) {
        let support = &mut self.support[slot];
        for &j in support.iter() {
            self.rows[j as usize][slot] = 0.0;
        }
        support.clear();
        for &(j, x) in &v.items {
            self.rows[j as usize][slot] = x;
            support.push(j);
        }
        self.norm_sq[slot] = v.norm_sq;
    }

    /// [`cosine_sparse`]`(probe, slot's vector)`, by gather.
    pub fn cosine(&self, probe: &SparseVec, slot: usize) -> f32 {
        let dot = probe.items.iter().fold(0.0f64, |acc, &(j, x)| {
            acc + f64::from(x) * f64::from(self.rows[j as usize][slot])
        });
        normalised(dot, probe.norm_sq, self.norm_sq[slot])
    }

    /// [`SketchRing::cosine`] of `probe` against every slot, into `out`:
    /// one pass over the probe's items, one f64 accumulator per lane.
    pub fn cosines(&self, probe: &SparseVec, out: &mut [f32; SketchRing::SLOTS]) {
        let mut dot = [0.0f64; Self::SLOTS];
        for &(j, x) in &probe.items {
            let x = f64::from(x);
            for (acc, &r) in dot.iter_mut().zip(&self.rows[j as usize]) {
                *acc += x * f64::from(r);
            }
        }
        for ((c, &d), &n) in out.iter_mut().zip(&dot).zip(&self.norm_sq) {
            *c = normalised(d, probe.norm_sq, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_round_trips_dense_and_drops_zeros() {
        let dense = [0.0, 1.5, 0.0, -2.0];
        let v = SparseVec::from_dense(&dense);
        assert_eq!(v.items(), &[(1, 1.5), (3, -2.0)]);
        assert_eq!(v.to_dense(4), dense);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn sparse_rejects_unsorted_items() {
        SparseVec::new(vec![(3, 1.0), (1, 1.0)]);
    }

    #[test]
    fn moved_toward_is_the_running_mean_over_the_union() {
        // One member at [2, 0, 4] absorbs [0, 6, 4]: the mean of the two.
        let c = SparseVec::from_dense(&[2.0, 0.0, 4.0]);
        let x = SparseVec::from_dense(&[0.0, 6.0, 4.0]);
        let mut out = SparseVec::from_dense(&[9.0, 9.0, 9.0, 9.0]);
        c.moved_toward_into(&x, 1.0, &mut out);
        assert_eq!(out, SparseVec::from_dense(&[1.0, 3.0, 4.0]));
    }
}
