//! The client's dimension sampler: `m` of `d` dimensions, uniformly without
//! replacement (paper §III-B), with no heap allocation on the per-user path.
//!
//! [`DimensionSampler::sample_into`] is bit-identical to
//! `rand::seq::index::sample`, which stays untouched as its test oracle: it
//! makes the same `gen_range(i..d)` draws for `i = 0..m`, in the same order,
//! and returns the same indices in the same order, so the generator is left
//! in the same state. Both run the partial Fisher–Yates shuffle of the pool
//! `0..d`; only the bookkeeping differs. Where the reference keeps the
//! positions the shuffle has displaced in a SipHash `HashMap` and builds an
//! output `Vec` per call, this sampler picks one of three layouts by shape:
//!
//! * **pool** (`2m ≥ d`): the pool is materialised inside the caller's
//!   output buffer, shuffled in place and truncated to `m`.
//! * **inline** (`2m < d`, `m ≤` [`INLINE_SAMPLE_MAX`]): the pool stays
//!   virtual and the displaced positions live in a fixed stack table that is
//!   scanned linearly.
//! * **hashed** (`2m < d`, `m >` [`INLINE_SAMPLE_MAX`]): the pool stays
//!   virtual and the displaced positions live in an open-addressing table
//!   laid out in the output buffer's room beyond the `m` drawn entries, so a
//!   large sparse sample still costs `O(m)`, not `O(d)`.
//!
//! Every layout grows only the caller's buffer, so a buffer reused across
//! users stops allocating once it has reached capacity.

use crate::ProtocolError;
use rand::{Rng, RngCore};

/// The largest sample drawn through the inline layout's stack table.
///
/// The table is scanned linearly on every draw, so the inline layout costs
/// `O(m²)` comparisons; above this bound the hashed layout's `O(m)` probes
/// are cheaper.
pub const INLINE_SAMPLE_MAX: usize = 16;

/// The key of an unused slot in the hashed layout's table. No position
/// reaches it, since every position is below `d ≤ usize::MAX`.
const VACANT: usize = usize::MAX;

/// Samples `m` of `d` dimensions per user, bit-identically to
/// `rand::seq::index::sample(rng, d, m)`.
///
/// The shape is checked once, at construction, so sampling itself cannot
/// fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DimensionSampler {
    length: usize,
    amount: usize,
}

impl DimensionSampler {
    /// A sampler of `amount` distinct indices of `0..length`.
    ///
    /// # Errors
    /// Returns [`ProtocolError::InvalidConfig`] when `amount` exceeds
    /// `length` (the reference oracle panics there).
    pub fn new(length: usize, amount: usize) -> crate::Result<Self> {
        if amount > length {
            return Err(ProtocolError::InvalidConfig {
                name: "reported_dims",
                reason: format!("cannot report {amount} dimensions out of {length}"),
            });
        }
        Ok(Self { length, amount })
    }

    /// The number of dimensions `d` sampled from.
    pub fn length(&self) -> usize {
        self.length
    }

    /// The number of dimensions `m` drawn per call.
    pub fn amount(&self) -> usize {
        self.amount
    }

    /// Sample `m` distinct indices of `0..d` uniformly without replacement,
    /// appending them to `out` as `(index, 0.0)` entries in draw order, and
    /// return the appended entries so the caller can fill in the values.
    ///
    /// Consumes exactly the randomness of `rand::seq::index::sample(rng, d,
    /// m)` and appends its indices in its order. All sampling finishes before
    /// this returns, so a caller that perturbs the returned entries
    /// afterwards draws its noise after every index draw, as the reference
    /// ordering requires.
    ///
    /// Allocates only when `out` lacks capacity for its working set: `d`
    /// more entries in the pool layout, `m` in the inline layout, and `m`
    /// plus twice the table size (at most `9m`) in the hashed layout. Every
    /// layout truncates back to the `m` drawn entries before returning.
    // hot-path: grows only `out`, and only while its capacity is short
    pub fn sample_into<'a, R: RngCore + ?Sized>(
        &self,
        rng: &mut R,
        out: &'a mut Vec<(usize, f64)>,
    ) -> &'a mut [(usize, f64)] {
        let (length, amount) = (self.length, self.amount);
        let start = out.len();
        if amount >= length - amount {
            out.extend((0..length).map(|index| (index, 0.0)));
            let pool = out.get_mut(start..).unwrap_or_default();
            for i in 0..amount {
                pool.swap(i, rng.gen_range(i..length));
            }
        } else if amount <= INLINE_SAMPLE_MAX {
            out.resize(start + amount, (0, 0.0));
            let drawn = out.get_mut(start..).unwrap_or_default();
            sample_inline(rng, length, drawn);
        } else {
            // Load factor at most 1/2, so every probe sequence meets a
            // vacant slot.
            let slots = (2 * amount).next_power_of_two();
            out.resize(start + amount + 2 * slots, (VACANT, 0.0));
            let room = out.get_mut(start..).unwrap_or_default();
            let (drawn, table) = room.split_at_mut(amount);
            sample_hashed(rng, length, drawn, table);
        }
        out.truncate(start + amount);
        out.get_mut(start..).unwrap_or_default()
    }
}

/// The sparse partial Fisher–Yates shuffle with a stack table: slot `i`
/// receives the pool value at the drawn position `j ∈ i..length`, and
/// position `j` then holds what position `i` held. A position is absent from
/// the table while it still holds its own index. Requires
/// `drawn.len() ≤ INLINE_SAMPLE_MAX`.
// hot-path: fixed stack table, no allocation
fn sample_inline<R: RngCore + ?Sized>(rng: &mut R, length: usize, drawn: &mut [(usize, f64)]) {
    debug_assert!(drawn.len() <= INLINE_SAMPLE_MAX);
    let mut displaced = [(0usize, 0usize); INLINE_SAMPLE_MAX];
    let mut used = 0;
    for (i, slot) in drawn.iter_mut().enumerate() {
        let j = rng.gen_range(i..length);
        let (mut value_j, mut value_i, mut entry_j) = (j, i, None);
        for (k, &(position, value)) in displaced.iter().take(used).enumerate() {
            if position == j {
                value_j = value;
                entry_j = Some(k);
            }
            if position == i {
                value_i = value;
            }
        }
        slot.0 = value_j;
        // Later draws only read positions above `i`, so a self-swap
        // (`j == i`) needs no entry.
        if j == i {
            continue;
        }
        if let Some(entry) = displaced.get_mut(entry_j.unwrap_or(used)) {
            *entry = (j, value_i);
        }
        if entry_j.is_none() {
            used += 1;
        }
    }
}

/// The same shuffle with an open-addressing table laid out in `table`, whose
/// keys must all be [`VACANT`]: the first half holds the displaced
/// positions and the second half, slot for slot, the values they hold, both
/// in the index field. The half's length must be a power of two of at
/// least `2 · drawn.len()`. Probing is linear from `position mod slots`;
/// the drawn positions are uniform, so their low bits spread them evenly
/// without a mixing hash.
// hot-path: probes and writes inside the caller's buffer
fn sample_hashed<R: RngCore + ?Sized>(
    rng: &mut R,
    length: usize,
    drawn: &mut [(usize, f64)],
    table: &mut [(usize, f64)],
) {
    let (keys, values) = table.split_at_mut(table.len() / 2);
    for (i, slot) in drawn.iter_mut().enumerate() {
        let j = rng.gen_range(i..length);
        let (slot_i, held_i) = probe(keys, i);
        let value_i = match values.get(slot_i) {
            Some(&(value, _)) if held_i => value,
            _ => i,
        };
        let (slot_j, held_j) = probe(keys, j);
        slot.0 = match values.get(slot_j) {
            Some(&(value, _)) if held_j => value,
            _ => j,
        };
        // As in `sample_inline`, a self-swap needs no entry.
        if j == i {
            continue;
        }
        if let (Some(key), Some(value)) = (keys.get_mut(slot_j), values.get_mut(slot_j)) {
            key.0 = j;
            value.0 = value_i;
        }
    }
}

/// The slot of `position` in `keys`, and whether it is there: either the
/// slot holding it or the vacant slot that ends its probe sequence.
// hot-path: read-only linear probe
fn probe(keys: &[(usize, f64)], position: usize) -> (usize, bool) {
    let mask = keys.len().wrapping_sub(1);
    let mut slot = position & mask;
    loop {
        match keys.get(slot) {
            Some(&(key, _)) if key == position => return (slot, true),
            Some(&(key, _)) if key != VACANT => slot = (slot + 1) & mask,
            _ => return (slot, false),
        }
    }
}
