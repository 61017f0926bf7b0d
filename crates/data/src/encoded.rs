//! Dictionary-encoded flat-buffer relations: the engine's hot-path
//! representation.
//!
//! The `Value`-based [`CountedRelation`] allocates one `Vec<Value>` per row
//! and clones enum-tagged values per column; join-heavy workloads spend
//! most of their time in those constant factors. Since the paper's
//! workloads are almost entirely integer-keyed, the engine instead runs
//! over:
//!
//! * [`Dict`] — an order-preserving interner mapping `Value ⇄ u32` code.
//!   The dictionary is built **sorted over the whole database**, so code
//!   order is isomorphic to [`Value`] order. Lexicographic comparisons of
//!   encoded rows therefore agree with comparisons of the original rows,
//!   which preserves the deterministic "smallest row" tie-breaks that
//!   [`CountedRelation::group`] / [`CountedRelation::max_entry`] rely on.
//! * [`EncodedRelation`] — rows stored as one contiguous `Vec<u32>` with
//!   stride = arity, plus a parallel `Vec<Count>`. Appending a row copies
//!   codes into the flat buffer: no per-row heap allocation anywhere.
//!
//! Encoded relations are produced once per query run (after selection
//! predicates are applied) and decoded back to `Value` rows only at
//! report/API boundaries.

use crate::counted::CountedRelation;
use crate::fast::{fast_map_with_capacity, FastMap};
use crate::relation::Row;
use crate::schema::Schema;
use crate::value::Value;
use crate::{sat_add, Count};
use std::fmt;
use std::sync::Arc;

/// An order-preserving `Value ⇄ u32` dictionary.
///
/// Codes are assigned by sorting the distinct values of the database, so
/// `a < b ⇔ code(a) < code(b)` for any two values in the dictionary.
///
/// # Growth under updates
///
/// A mutable database adds values the sorted base has never seen.
/// Re-sorting the base on every such value would shift every existing
/// code and force a full re-encode of every relation, so new values
/// instead land in an **overflow region**: [`Dict::encode_or_insert`]
/// appends them after the base in arrival order. Overflow codes are
/// still *unique and stable* (encode/decode work, raw `u32` comparisons
/// are internally consistent), but they are **not order-isomorphic**
/// with [`Value`] order. A **re-sort epoch** ([`Dict::resorted`]) merges
/// the overflow into the base and returns an old→new code remap —
/// strictly monotone on base codes, so relations free of overflow codes
/// stay sorted after remapping. `EncodedDatabase` triggers epochs
/// periodically (overflow threshold) and before queries are served, so
/// everything order-sensitive always runs on an isomorphic dictionary.
#[derive(Clone, Default)]
pub struct Dict {
    /// Sorted distinct integer values; `ints[i]` has code `i`.
    ints: Vec<i64>,
    /// Sorted distinct string values; `strs[j]` has code `ints.len() + j`
    /// (all integers order before all strings, matching [`Value`]'s
    /// total order).
    strs: Vec<Value>,
    /// Values appended after the sorted base: `overflow[k]` has code
    /// `base_len() + k`, in arrival order (not value order).
    overflow: Vec<Value>,
    /// Reverse index for integer values — hashing a raw `i64` skips the
    /// enum discriminant and beats binary search on encode-heavy lifts.
    int_codes: FastMap<i64, u32>,
    /// Reverse index for string values.
    str_codes: FastMap<Value, u32>,
}

impl Dict {
    /// Build a dictionary from an arbitrary iterator of values
    /// (duplicates allowed; they are deduplicated here).
    pub fn from_values(values: impl IntoIterator<Item = Value>) -> Self {
        let mut ints: Vec<i64> = Vec::new();
        let mut strs: Vec<Value> = Vec::new();
        for v in values {
            match v {
                Value::Int(x) => ints.push(x),
                Value::Str(_) => strs.push(v),
            }
        }
        Dict::from_parts(ints, strs)
    }

    /// Build from raw integer and string pools (duplicates allowed).
    ///
    /// The reverse index doubles as the deduplicator: one hash pass over
    /// the pool, then only the (usually much smaller) distinct set is
    /// sorted to assign order-isomorphic codes.
    pub fn from_parts(ints: Vec<i64>, strs: Vec<Value>) -> Self {
        let mut int_codes: FastMap<i64, u32> = fast_map_with_capacity(ints.len());
        for x in ints {
            int_codes.insert(x, 0);
        }
        let mut ints: Vec<i64> = int_codes.keys().copied().collect();
        ints.sort_unstable();

        let mut str_codes: FastMap<Value, u32> = FastMap::default();
        for v in strs {
            str_codes.insert(v, 0);
        }
        let mut strs: Vec<Value> = str_codes.keys().cloned().collect();
        strs.sort_unstable();

        assert!(
            u32::try_from(ints.len() + strs.len()).is_ok(),
            "dictionary overflow: more than u32::MAX distinct values"
        );
        for (i, &x) in ints.iter().enumerate() {
            *int_codes.get_mut(&x).expect("just inserted") = i as u32;
        }
        for (j, v) in strs.iter().enumerate() {
            *str_codes.get_mut(v).expect("just inserted") = (ints.len() + j) as u32;
        }
        Dict {
            ints,
            strs,
            overflow: Vec::new(),
            int_codes,
            str_codes,
        }
    }

    /// Build the dictionary of every value appearing in the given
    /// relations (duplicates fine — the reverse index deduplicates).
    pub fn from_relations<'a>(relations: impl IntoIterator<Item = &'a crate::Relation>) -> Self {
        let relations: Vec<&crate::Relation> = relations.into_iter().collect();
        let rows: usize = relations.iter().map(|r| r.len()).sum();
        let mut ints: Vec<i64> = Vec::with_capacity(rows);
        let mut strs: Vec<Value> = Vec::new();
        for rel in relations {
            for row in rel.rows() {
                for v in row {
                    match v {
                        Value::Int(x) => ints.push(*x),
                        Value::Str(_) => strs.push(v.clone()),
                    }
                }
            }
        }
        Dict::from_parts(ints, strs)
    }

    /// Build the dictionary of every value appearing in `db`.
    pub fn from_database(db: &crate::Database) -> Self {
        Dict::from_relations(db.iter().map(|(_, _, rel)| rel))
    }

    /// Number of distinct values (base plus overflow).
    #[inline]
    pub fn len(&self) -> usize {
        self.ints.len() + self.strs.len() + self.overflow.len()
    }

    /// True if the dictionary is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of values in the sorted, order-isomorphic base region.
    #[inline]
    pub fn base_len(&self) -> usize {
        self.ints.len() + self.strs.len()
    }

    /// Number of values waiting in the overflow region.
    #[inline]
    pub fn overflow_len(&self) -> usize {
        self.overflow.len()
    }

    /// True if every code is order-isomorphic with [`Value`] order
    /// (i.e. the overflow region is empty).
    #[inline]
    pub fn is_order_isomorphic(&self) -> bool {
        self.overflow.is_empty()
    }

    /// The code of `v`, if it is in the dictionary.
    #[inline]
    pub fn encode(&self, v: &Value) -> Option<u32> {
        match v {
            Value::Int(x) => self.int_codes.get(x).copied(),
            Value::Str(_) => self.str_codes.get(v).copied(),
        }
    }

    /// The code of `v`.
    ///
    /// # Panics
    /// Panics if `v` is not in the dictionary.
    #[inline]
    pub fn code(&self, v: &Value) -> u32 {
        self.encode(v)
            .unwrap_or_else(|| panic!("value {v:?} not in dictionary"))
    }

    /// The value behind `code`.
    ///
    /// # Panics
    /// Panics if `code` is out of range.
    #[inline]
    pub fn decode(&self, code: u32) -> Value {
        let i = code as usize;
        if i < self.ints.len() {
            Value::Int(self.ints[i])
        } else if i < self.base_len() {
            self.strs[i - self.ints.len()].clone()
        } else {
            self.overflow[i - self.base_len()].clone()
        }
    }

    /// The code of `v`, assigning a fresh **overflow** code if `v` has
    /// never been seen. Overflow codes are stable but not
    /// order-isomorphic; merge them into the base with
    /// [`Dict::resorted`] before anything order-sensitive runs.
    ///
    /// # Panics
    /// Panics if the dictionary would exceed `u32::MAX` values.
    pub fn encode_or_insert(&mut self, v: &Value) -> u32 {
        if let Some(code) = self.encode(v) {
            return code;
        }
        let code = u32::try_from(self.len()).expect("dictionary overflow: more than u32::MAX");
        self.overflow.push(v.clone());
        match v {
            Value::Int(x) => {
                self.int_codes.insert(*x, code);
            }
            Value::Str(_) => {
                self.str_codes.insert(v.clone(), code);
            }
        }
        code
    }

    /// Run a re-sort epoch: merge the overflow region into the sorted
    /// base, returning the fully order-isomorphic dictionary and the
    /// old→new code remap (`remap[old_code] = new_code`).
    ///
    /// The remap is strictly increasing on old **base** codes (merging
    /// only shifts them), so rows encoded purely from base codes keep
    /// their relative order under remapping; rows containing overflow
    /// codes must be re-sorted by the caller.
    pub fn resorted(&self) -> (Dict, Vec<u32>) {
        self.resorted_retaining(|_| true)
    }

    /// [`Dict::resorted`] with **tombstone compaction**: values whose
    /// code fails the `live` predicate are dropped from the new
    /// dictionary instead of being carried forever. Delete-heavy
    /// workloads otherwise accumulate values no relation references
    /// anymore — the epoch is the natural point to collect them, since
    /// every code is being relabeled anyway.
    ///
    /// Dead codes get the sentinel `u32::MAX` in the remap; by contract
    /// the caller only feeds codes that still occur in some relation
    /// through [`EncodedRelation::remap_codes`], so the sentinel is never
    /// dereferenced. The remap stays strictly increasing on *surviving*
    /// base codes, preserving the sort order of overflow-free rows.
    pub fn resorted_retaining(&self, live: impl Fn(u32) -> bool) -> (Dict, Vec<u32>) {
        let mut ints = Vec::with_capacity(self.ints.len());
        let mut strs = Vec::with_capacity(self.strs.len());
        for c in 0..self.len() as u32 {
            if !live(c) {
                continue;
            }
            match self.decode(c) {
                Value::Int(x) => ints.push(x),
                v @ Value::Str(_) => strs.push(v),
            }
        }
        let new = Dict::from_parts(ints, strs);
        let remap = (0..self.len() as u32)
            .map(|c| {
                if live(c) {
                    new.code(&self.decode(c))
                } else {
                    u32::MAX
                }
            })
            .collect();
        (new, remap)
    }

    /// The dictionary's raw regions, in code order: `(sorted ints,
    /// sorted strings, arrival-order overflow)` — the exact state the
    /// snapshot format persists, so a load rebuilds identical codes.
    pub(crate) fn regions(&self) -> (&[i64], &[Value], &[Value]) {
        (&self.ints, &self.strs, &self.overflow)
    }

    /// Rebuild a dictionary from regions previously obtained via
    /// [`Dict::regions`] — the snapshot-load constructor. Unlike
    /// [`Dict::from_parts`] this trusts (but verifies) that the base
    /// regions are already sorted and distinct, so no re-sort runs and
    /// every value keeps the exact code it had when saved (overflow
    /// included).
    ///
    /// # Errors
    /// [`DataError::Malformed`] when a base region is unsorted or
    /// contains duplicates, a base string region holds a non-string, an
    /// overflow value duplicates an existing code, or the total exceeds
    /// `u32` code space.
    pub(crate) fn from_regions(
        ints: Vec<i64>,
        strs: Vec<Value>,
        overflow: Vec<Value>,
    ) -> Result<Self, crate::DataError> {
        let bad = |m: &str| crate::DataError::Malformed(format!("dictionary regions: {m}"));
        if u32::try_from(ints.len() + strs.len() + overflow.len()).is_err() {
            return Err(bad("more than u32::MAX values"));
        }
        if !ints.windows(2).all(|w| w[0] < w[1]) {
            return Err(bad("integer base is not sorted-distinct"));
        }
        if strs.iter().any(|v| !matches!(v, Value::Str(_))) {
            return Err(bad("string base holds a non-string"));
        }
        if !strs.windows(2).all(|w| w[0] < w[1]) {
            return Err(bad("string base is not sorted-distinct"));
        }
        let mut int_codes: FastMap<i64, u32> = fast_map_with_capacity(ints.len());
        for (i, &x) in ints.iter().enumerate() {
            int_codes.insert(x, i as u32);
        }
        let mut str_codes: FastMap<Value, u32> = FastMap::default();
        for (j, v) in strs.iter().enumerate() {
            str_codes.insert(v.clone(), (ints.len() + j) as u32);
        }
        let base = ints.len() + strs.len();
        for (k, v) in overflow.iter().enumerate() {
            let code = (base + k) as u32;
            let clash = match v {
                Value::Int(x) => int_codes.insert(*x, code),
                Value::Str(_) => str_codes.insert(v.clone(), code),
            };
            if clash.is_some() {
                return Err(bad("overflow value duplicates an existing code"));
            }
        }
        Ok(Dict {
            ints,
            strs,
            overflow,
            int_codes,
            str_codes,
        })
    }

    /// Encode a `(row, count)` relation. Rows must already be encodable
    /// (every value present in the dictionary).
    ///
    /// # Panics
    /// Panics if a value is missing from the dictionary.
    pub fn encode_counted(&self, rel: &CountedRelation) -> EncodedRelation {
        let mut out = EncodedRelation::with_capacity(rel.schema().clone(), rel.len());
        let mut scratch: Vec<u32> = Vec::with_capacity(rel.schema().arity());
        for (row, c) in rel.iter() {
            scratch.clear();
            scratch.extend(row.iter().map(|v| self.code(v)));
            out.push(&scratch, *c);
        }
        out
    }
}

impl fmt::Debug for Dict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Dict[{} values]", self.len())
    }
}

/// A counted relation over dictionary codes, stored flat.
///
/// `codes` holds the rows back to back (stride = `schema.arity()`), and
/// `counts[i]` is the multiplicity of row `i`. Like [`CountedRelation`],
/// rows are not required to be distinct; [`EncodedRelation::group`]
/// canonicalises (distinct, sorted by code order = value order).
#[derive(Clone, PartialEq, Eq)]
pub struct EncodedRelation {
    schema: Schema,
    codes: Vec<u32>,
    counts: Vec<Count>,
}

impl EncodedRelation {
    /// An empty encoded relation over `schema`.
    pub fn new(schema: Schema) -> Self {
        EncodedRelation {
            schema,
            codes: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// An empty encoded relation with room for `rows` rows.
    pub fn with_capacity(schema: Schema, rows: usize) -> Self {
        let arity = schema.arity();
        EncodedRelation {
            schema,
            codes: Vec::with_capacity(rows * arity),
            counts: Vec::with_capacity(rows),
        }
    }

    /// The "unit" relation: empty schema, one row, count 1 — the identity
    /// for the multiplicity-join, used for `⊤(root)`.
    pub fn unit() -> Self {
        EncodedRelation {
            schema: Schema::empty(),
            codes: Vec::new(),
            counts: vec![1],
        }
    }

    /// The relation's schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// Number of entries (distinct rows if grouped).
    #[inline]
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True if there are no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Row `i` as a code slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[u32] {
        let a = self.schema.arity();
        &self.codes[i * a..(i + 1) * a]
    }

    /// Count of row `i`.
    #[inline]
    pub fn count(&self, i: usize) -> Count {
        self.counts[i]
    }

    /// The flat code buffer (stride = arity) — the snapshot format's
    /// raw section payload.
    #[inline]
    pub(crate) fn raw_codes(&self) -> &[u32] {
        &self.codes
    }

    /// The parallel per-row multiplicities.
    #[inline]
    pub(crate) fn raw_counts(&self) -> &[Count] {
        &self.counts
    }

    /// Rebuild a relation from raw buffers previously obtained via
    /// [`EncodedRelation::raw_codes`]/[`raw_counts`](EncodedRelation::raw_counts)
    /// — the snapshot-load constructor.
    ///
    /// # Errors
    /// [`DataError::Malformed`] when the buffer lengths disagree with
    /// the schema arity.
    pub(crate) fn from_raw(
        schema: Schema,
        codes: Vec<u32>,
        counts: Vec<Count>,
    ) -> Result<Self, crate::DataError> {
        let arity = schema.arity();
        if codes.len() != counts.len() * arity {
            return Err(crate::DataError::Malformed(format!(
                "encoded relation buffers disagree: {} codes for {} rows of arity {arity}",
                codes.len(),
                counts.len()
            )));
        }
        Ok(EncodedRelation {
            schema,
            codes,
            counts,
        })
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if `row.len()` differs from the schema arity.
    #[inline]
    pub fn push(&mut self, row: &[u32], count: Count) {
        debug_assert_eq!(row.len(), self.schema.arity());
        self.codes.extend_from_slice(row);
        self.counts.push(count);
    }

    /// Append one row produced by an iterator (e.g. encoding a `Value`
    /// row), writing codes straight into the flat buffer.
    ///
    /// # Panics
    /// Panics (debug) if the iterator length differs from the arity.
    #[inline]
    pub fn push_mapped(&mut self, row: impl IntoIterator<Item = u32>, count: Count) {
        self.codes.extend(row);
        debug_assert_eq!(
            self.codes.len(),
            (self.counts.len() + 1) * self.schema.arity()
        );
        self.counts.push(count);
    }

    /// Append the concatenation `left ++ right` as one row — the join
    /// output fast path (left row plus right-side extra columns) with no
    /// intermediate buffer.
    #[inline]
    pub fn push_concat(&mut self, left: &[u32], right: &[u32], count: Count) {
        debug_assert_eq!(left.len() + right.len(), self.schema.arity());
        self.codes.extend_from_slice(left);
        self.codes.extend_from_slice(right);
        self.counts.push(count);
    }

    /// Append every entry of `other` (same schema) after this
    /// relation's entries — the partitioned-join concatenation step.
    /// The flat buffers are copied wholesale: no per-row allocation, no
    /// per-row bookkeeping.
    ///
    /// # Panics
    /// Panics (debug) if the schemas differ.
    pub fn append(&mut self, other: &EncodedRelation) {
        debug_assert_eq!(self.schema, other.schema, "append: schemas must match");
        self.codes.extend_from_slice(&other.codes);
        self.counts.extend_from_slice(&other.counts);
    }

    /// Reserve room for `additional` more rows.
    pub fn reserve(&mut self, additional: usize) {
        self.codes.reserve(additional * self.schema.arity());
        self.counts.reserve(additional);
    }

    /// Iterate `(row, count)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (&[u32], Count)> + '_ {
        let a = self.schema.arity();
        self.counts
            .iter()
            .enumerate()
            .map(move |(i, &c)| (&self.codes[i * a..(i + 1) * a], c))
    }

    /// Sum of all counts (`|Q(D)|` for a counted join result).
    pub fn total_count(&self) -> Count {
        self.counts.iter().fold(0, |acc, &c| sat_add(acc, c))
    }

    /// Multiply every count by `factor` (saturating) — the degenerate
    /// empty-key lookup join.
    pub fn scale_counts(&mut self, factor: Count) {
        for c in &mut self.counts {
            *c = c.saturating_mul(factor);
        }
    }

    /// The paper's `γ_A` over codes: project onto `target` and sum counts
    /// per group. Output rows are distinct and sorted by code order —
    /// which equals value order, so this matches
    /// [`CountedRelation::group`] exactly.
    pub fn group(&self, target: &Schema) -> EncodedRelation {
        let idx = self.schema.projection_indices(target);
        match idx.as_slice() {
            [] => {
                // γ onto the empty schema: a single total-count row
                // (unless the input is empty).
                let mut out = EncodedRelation::new(target.clone());
                if !self.is_empty() {
                    out.counts.push(self.total_count());
                }
                out
            }
            // Single-column fast path: raw u32 keys, no per-row buffers.
            [i0] => {
                let i0 = *i0;
                let mut groups: FastMap<u32, Count> = fast_map_with_capacity(self.len());
                for (row, c) in self.iter() {
                    let slot = groups.entry(row[i0]).or_insert(0);
                    *slot = sat_add(*slot, c);
                }
                let mut pairs: Vec<(u32, Count)> = groups.into_iter().collect();
                pairs.sort_unstable_by_key(|&(k, _)| k);
                let mut out = EncodedRelation::with_capacity(target.clone(), pairs.len());
                for (k, c) in pairs {
                    out.codes.push(k);
                    out.counts.push(c);
                }
                out
            }
            // Two-column fast path: pack the pair into one u64 whose
            // numeric order equals the pair's lexicographic order, so the
            // sort runs on primitives with no pointer chasing.
            [i0, i1] => {
                let (i0, i1) = (*i0, *i1);
                let mut groups: FastMap<u64, Count> = fast_map_with_capacity(self.len());
                for (row, c) in self.iter() {
                    let key = (u64::from(row[i0]) << 32) | u64::from(row[i1]);
                    let slot = groups.entry(key).or_insert(0);
                    *slot = sat_add(*slot, c);
                }
                let mut pairs: Vec<(u64, Count)> = groups.into_iter().collect();
                pairs.sort_unstable_by_key(|&(k, _)| k);
                let mut out = EncodedRelation::with_capacity(target.clone(), pairs.len());
                for (k, c) in pairs {
                    out.codes.push((k >> 32) as u32);
                    out.codes.push(k as u32);
                    out.counts.push(c);
                }
                out
            }
            _ => {
                // General path: probe with a reused scratch key (slice
                // lookups hash fixed-width `&[u32]`); allocate an owned
                // key only once per distinct group.
                let mut groups: FastMap<Box<[u32]>, Count> = fast_map_with_capacity(self.len());
                let mut key: Vec<u32> = Vec::with_capacity(idx.len());
                for (row, c) in self.iter() {
                    key.clear();
                    key.extend(idx.iter().map(|&i| row[i]));
                    if let Some(slot) = groups.get_mut(key.as_slice()) {
                        *slot = sat_add(*slot, c);
                    } else {
                        groups.insert(key.as_slice().into(), c);
                    }
                }
                let mut pairs: Vec<(Box<[u32]>, Count)> = groups.into_iter().collect();
                pairs.sort_unstable();
                let mut out = EncodedRelation::with_capacity(target.clone(), pairs.len());
                for (k, c) in pairs {
                    out.codes.extend_from_slice(&k);
                    out.counts.push(c);
                }
                out
            }
        }
    }

    /// The entry with the largest count, ties broken by smallest row.
    /// Because codes are order-isomorphic with values, this agrees with
    /// [`CountedRelation::max_entry`] on the decoded relation.
    pub fn max_entry(&self) -> Option<(&[u32], Count)> {
        (0..self.len())
            .map(|i| (self.row(i), self.counts[i]))
            .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(a.0)))
    }

    /// Sort entries by (row, count) — the canonical order of
    /// [`CountedRelation::sort`] carried over to codes.
    pub fn sort(&mut self) {
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_unstable_by(|&a, &b| {
            self.row(a)
                .cmp(self.row(b))
                .then_with(|| self.counts[a].cmp(&self.counts[b]))
        });
        let arity = self.schema.arity();
        let mut codes = Vec::with_capacity(self.codes.len());
        let mut counts = Vec::with_capacity(self.counts.len());
        for &i in &order {
            codes.extend_from_slice(&self.codes[i * arity..(i + 1) * arity]);
            counts.push(self.counts[i]);
        }
        self.codes = codes;
        self.counts = counts;
    }

    /// Binary-search a **grouped** (rows distinct, sorted by code order)
    /// relation for `row`: `Ok(i)` when row `i` equals it, `Err(i)` with
    /// the insertion index otherwise.
    pub fn find_row(&self, row: &[u32]) -> Result<usize, usize> {
        debug_assert_eq!(row.len(), self.schema.arity());
        let (mut lo, mut hi) = (0usize, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.row(mid) < row {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo < self.len() && self.row(lo) == row {
            Ok(lo)
        } else {
            Err(lo)
        }
    }

    /// Splice a row in at index `i` (from [`EncodedRelation::find_row`]'s
    /// `Err`), keeping a grouped relation grouped.
    pub fn insert_row_at(&mut self, i: usize, row: &[u32], count: Count) {
        debug_assert_eq!(row.len(), self.schema.arity());
        let a = self.schema.arity();
        self.codes.splice(i * a..i * a, row.iter().copied());
        self.counts.insert(i, count);
    }

    /// Remove the row at index `i`.
    pub fn remove_row_at(&mut self, i: usize) {
        let a = self.schema.arity();
        self.codes.drain(i * a..(i + 1) * a);
        self.counts.remove(i);
    }

    /// [`EncodedRelation::insert_row_at`] through a shared handle. In
    /// place when `this` is the only holder; otherwise the edited
    /// relation is built in one exactly-sized copy (prefix, new row,
    /// suffix) and the other holders keep the old one.
    pub fn insert_row_shared(this: &mut Arc<EncodedRelation>, i: usize, row: &[u32], count: Count) {
        if let Some(r) = Arc::get_mut(this) {
            r.insert_row_at(i, row, count);
            return;
        }
        debug_assert_eq!(row.len(), this.arity());
        let a = this.arity();
        let mut codes = Vec::with_capacity(this.codes.len() + a);
        codes.extend_from_slice(&this.codes[..i * a]);
        codes.extend_from_slice(row);
        codes.extend_from_slice(&this.codes[i * a..]);
        let mut counts = Vec::with_capacity(this.counts.len() + 1);
        counts.extend_from_slice(&this.counts[..i]);
        counts.push(count);
        counts.extend_from_slice(&this.counts[i..]);
        *this = Arc::new(EncodedRelation {
            schema: this.schema.clone(),
            codes,
            counts,
        });
    }

    /// [`EncodedRelation::remove_row_at`] through a shared handle, with
    /// the same one-copy rule as [`EncodedRelation::insert_row_shared`].
    pub fn remove_row_shared(this: &mut Arc<EncodedRelation>, i: usize) {
        if let Some(r) = Arc::get_mut(this) {
            r.remove_row_at(i);
            return;
        }
        let a = this.arity();
        let mut codes = Vec::with_capacity(this.codes.len() - a);
        codes.extend_from_slice(&this.codes[..i * a]);
        codes.extend_from_slice(&this.codes[(i + 1) * a..]);
        let mut counts = Vec::with_capacity(this.counts.len() - 1);
        counts.extend_from_slice(&this.counts[..i]);
        counts.extend_from_slice(&this.counts[i + 1..]);
        *this = Arc::new(EncodedRelation {
            schema: this.schema.clone(),
            codes,
            counts,
        });
    }

    /// Raise the count of row `i` by `by` (saturating).
    pub fn increment_count(&mut self, i: usize, by: Count) {
        self.counts[i] = sat_add(self.counts[i], by);
    }

    /// Overwrite the count of row `i` exactly — the incremental-repair
    /// primitive, where the caller has already computed the new count
    /// with checked (non-saturating) arithmetic.
    pub fn set_count(&mut self, i: usize, count: Count) {
        self.counts[i] = count;
    }

    /// Lower the count of row `i` by `by` (saturating at 0), returning
    /// the remaining count — the caller removes the row when it hits 0.
    pub fn decrement_count(&mut self, i: usize, by: Count) -> Count {
        self.counts[i] = self.counts[i].saturating_sub(by);
        self.counts[i]
    }

    /// Rewrite every code through `remap` (a re-sort epoch's old→new
    /// table). Returns whether any **pre-remap** code sat in the old
    /// overflow region (`>= old_base_len`) — those rows may now be out
    /// of order and the caller must re-sort; base-only relations stay
    /// sorted because the remap is monotone on base codes.
    pub fn remap_codes(&mut self, remap: &[u32], old_base_len: u32) -> bool {
        let mut had_overflow = false;
        for c in &mut self.codes {
            had_overflow |= *c >= old_base_len;
            *c = remap[*c as usize];
        }
        had_overflow
    }

    /// Decode back to a `Value`-based [`CountedRelation`] — the
    /// report/API boundary.
    ///
    /// # Panics
    /// Panics if a code is out of the dictionary's range.
    pub fn decode(&self, dict: &Dict) -> CountedRelation {
        let pairs: Vec<(Row, Count)> = self
            .iter()
            .map(|(row, c)| (row.iter().map(|&code| dict.decode(code)).collect(), c))
            .collect();
        CountedRelation::from_pairs(self.schema.clone(), pairs)
    }
}

impl fmt::Debug for EncodedRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Encoded{:?} [{} entries]", self.schema, self.len())?;
        for (row, c) in self.iter().take(20) {
            writeln!(f, "  {row:?} ×{c}")?;
        }
        if self.len() > 20 {
            writeln!(f, "  … ({} more)", self.len() - 20)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrId;
    use crate::{Database, Relation};

    fn schema(ids: &[u32]) -> Schema {
        Schema::new(ids.iter().map(|&i| AttrId(i)).collect())
    }

    fn row(vals: &[i64]) -> Row {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn dict_codes_are_order_isomorphic() {
        let d = Dict::from_values(vec![
            Value::str("b"),
            Value::Int(10),
            Value::str("a"),
            Value::Int(-3),
            Value::Int(10),
        ]);
        assert_eq!(d.len(), 4);
        // Ints before strings, each group sorted.
        assert_eq!(d.code(&Value::Int(-3)), 0);
        assert_eq!(d.code(&Value::Int(10)), 1);
        assert_eq!(d.code(&Value::str("a")), 2);
        assert_eq!(d.code(&Value::str("b")), 3);
        assert_eq!(d.decode(2), Value::str("a"));
        assert_eq!(d.encode(&Value::Int(99)), None);
    }

    #[test]
    fn dict_from_database_covers_all_values() {
        let mut db = Database::new();
        let [a, b] = db.attrs(["A", "B"]);
        db.add_relation(
            "R",
            Relation::from_rows(Schema::new(vec![a, b]), vec![row(&[1, 2]), row(&[3, 1])]),
        )
        .unwrap();
        let d = Dict::from_database(&db);
        assert_eq!(d.len(), 3);
        for v in [1, 2, 3] {
            assert!(d.encode(&Value::Int(v)).is_some());
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let c = CountedRelation::from_pairs(
            schema(&[0, 1]),
            vec![(row(&[5, 7]), 2), (row(&[1, 5]), 3)],
        );
        let d = Dict::from_values(vec![Value::Int(1), Value::Int(5), Value::Int(7)]);
        let e = d.encode_counted(&c);
        assert_eq!(e.len(), 2);
        assert_eq!(e.total_count(), 5);
        assert_eq!(e.decode(&d), c);
    }

    #[test]
    fn group_matches_counted_group() {
        let pairs = vec![
            (row(&[1, 10]), 2),
            (row(&[1, 20]), 3),
            (row(&[2, 10]), 5),
            (row(&[1, 10]), 1),
        ];
        let c = CountedRelation::from_pairs(schema(&[0, 1]), pairs);
        let d = Dict::from_values(
            c.iter()
                .flat_map(|(r, _)| r.iter().cloned())
                .collect::<Vec<_>>(),
        );
        let e = d.encode_counted(&c);
        for target in [schema(&[0]), schema(&[1]), schema(&[1, 0]), Schema::empty()] {
            let enc = e.group(&target).decode(&d);
            let leg = c.group(&target);
            assert_eq!(enc, leg, "target {target:?}");
        }
    }

    #[test]
    fn group_of_empty_is_empty() {
        let e = EncodedRelation::new(schema(&[0, 1]));
        assert!(e.group(&Schema::empty()).is_empty());
        assert!(e.group(&schema(&[0])).is_empty());
    }

    #[test]
    fn max_entry_ties_break_on_smallest_row() {
        let mut e = EncodedRelation::new(schema(&[0]));
        e.push(&[2], 4);
        e.push(&[1], 4);
        e.push(&[3], 1);
        let (r, c) = e.max_entry().unwrap();
        assert_eq!((r, c), (&[1u32][..], 4));
        assert!(EncodedRelation::new(schema(&[0])).max_entry().is_none());
    }

    #[test]
    fn unit_shape() {
        let u = EncodedRelation::unit();
        assert_eq!(u.len(), 1);
        assert!(u.schema().is_empty());
        assert_eq!(u.total_count(), 1);
        assert_eq!(u.row(0), &[] as &[u32]);
    }

    #[test]
    fn push_concat_concatenates() {
        let mut e = EncodedRelation::new(schema(&[0, 1, 2]));
        e.push_concat(&[7, 8], &[9], 2);
        assert_eq!(e.row(0), &[7, 8, 9]);
        assert_eq!(e.count(0), 2);
    }

    #[test]
    fn overflow_codes_are_stable_until_resort() {
        let mut d = Dict::from_values(vec![Value::Int(10), Value::Int(30)]);
        assert!(d.is_order_isomorphic());
        // Existing values resolve without growing the dictionary.
        assert_eq!(d.encode_or_insert(&Value::Int(10)), 0);
        assert_eq!(d.overflow_len(), 0);
        // A new value lands in the overflow region: code after the base,
        // out of value order.
        let c20 = d.encode_or_insert(&Value::Int(20));
        assert_eq!(c20, 2);
        assert!(!d.is_order_isomorphic());
        assert_eq!(d.decode(c20), Value::Int(20));
        assert_eq!(d.encode(&Value::Int(20)), Some(c20));
        // Idempotent.
        assert_eq!(d.encode_or_insert(&Value::Int(20)), c20);
        let cs = d.encode_or_insert(&Value::str("a"));
        assert_eq!(cs, 3);
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn resorted_restores_order_isomorphism_with_monotone_base_remap() {
        let mut d = Dict::from_values(vec![Value::Int(10), Value::Int(30), Value::str("b")]);
        d.encode_or_insert(&Value::Int(20));
        d.encode_or_insert(&Value::str("a"));
        let (sorted, remap) = d.resorted();
        assert!(sorted.is_order_isomorphic());
        assert_eq!(sorted.len(), d.len());
        // Every old code decodes to the same value through the remap.
        for old in 0..d.len() as u32 {
            assert_eq!(sorted.decode(remap[old as usize]), d.decode(old));
        }
        // The remap is strictly increasing on old base codes.
        let base: Vec<u32> = (0..d.base_len()).map(|c| remap[c]).collect();
        assert!(base.windows(2).all(|w| w[0] < w[1]));
        // And the new codes are in value order.
        assert_eq!(sorted.code(&Value::Int(10)), 0);
        assert_eq!(sorted.code(&Value::Int(20)), 1);
        assert_eq!(sorted.code(&Value::Int(30)), 2);
        assert_eq!(sorted.code(&Value::str("a")), 3);
        assert_eq!(sorted.code(&Value::str("b")), 4);
    }

    #[test]
    fn resorted_retaining_drops_dead_values() {
        let mut d = Dict::from_values(vec![Value::Int(10), Value::Int(30), Value::str("b")]);
        d.encode_or_insert(&Value::Int(20));
        // Live set: everything except Int(30) and the overflow Int(20).
        let dead = [d.code(&Value::Int(30)), d.code(&Value::Int(20))];
        let (compacted, remap) = d.resorted_retaining(|c| !dead.contains(&c));
        assert!(compacted.is_order_isomorphic());
        assert_eq!(compacted.len(), 2);
        assert_eq!(compacted.encode(&Value::Int(30)), None);
        assert_eq!(compacted.encode(&Value::Int(20)), None);
        assert_eq!(compacted.code(&Value::Int(10)), 0);
        assert_eq!(compacted.code(&Value::str("b")), 1);
        // Surviving codes remap to the compacted labels; dead codes get
        // the sentinel.
        assert_eq!(remap[d.code(&Value::Int(10)) as usize], 0);
        assert_eq!(remap[d.code(&Value::str("b")) as usize], 1);
        for c in dead {
            assert_eq!(remap[c as usize], u32::MAX);
        }
        // Survivor base codes stay strictly increasing (monotone remap).
        let survivors: Vec<u32> = (0..d.base_len() as u32)
            .filter(|c| !dead.contains(c))
            .map(|c| remap[c as usize])
            .collect();
        assert!(survivors.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn find_insert_remove_keep_grouped_invariant() {
        let mut e = EncodedRelation::new(schema(&[0, 1]));
        e.push(&[1, 5], 2);
        e.push(&[3, 0], 1);
        assert_eq!(e.find_row(&[1, 5]), Ok(0));
        assert_eq!(e.find_row(&[3, 0]), Ok(1));
        assert_eq!(e.find_row(&[2, 9]), Err(1));
        let at = e.find_row(&[2, 9]).unwrap_err();
        e.insert_row_at(at, &[2, 9], 4);
        assert_eq!(e.row(1), &[2, 9]);
        assert_eq!(e.count(1), 4);
        e.increment_count(1, 2);
        assert_eq!(e.count(1), 6);
        assert_eq!(e.decrement_count(1, 6), 0);
        e.remove_row_at(1);
        assert_eq!(e.len(), 2);
        assert_eq!(e.find_row(&[2, 9]), Err(1));
        assert_eq!(e.row(1), &[3, 0]);
    }

    #[test]
    fn remap_codes_reports_overflow_rows() {
        // Old layout: base = {0, 1}, overflow = {2}. Remap inserts the
        // overflow value between the base values.
        let remap = vec![0u32, 2, 1];
        let mut clean = EncodedRelation::new(schema(&[0]));
        clean.push(&[0], 1);
        clean.push(&[1], 1);
        assert!(!clean.remap_codes(&remap, 2));
        let rows: Vec<u32> = clean.iter().map(|(r, _)| r[0]).collect();
        assert_eq!(rows, vec![0, 2], "base-only rows stay sorted");
        let mut dirty = EncodedRelation::new(schema(&[0]));
        dirty.push(&[1], 1);
        dirty.push(&[2], 1);
        assert!(dirty.remap_codes(&remap, 2));
        dirty.sort();
        let rows: Vec<u32> = dirty.iter().map(|(r, _)| r[0]).collect();
        assert_eq!(rows, vec![1, 2]);
    }

    #[test]
    fn sort_is_canonical() {
        let mut e = EncodedRelation::new(schema(&[0]));
        e.push(&[3], 1);
        e.push(&[1], 2);
        e.push(&[2], 1);
        e.sort();
        let rows: Vec<u32> = e.iter().map(|(r, _)| r[0]).collect();
        assert_eq!(rows, vec![1, 2, 3]);
    }
}
