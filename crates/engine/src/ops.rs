//! Multiplicity-propagating relational operators — the paper's `r⋈`
//! (§4.2) over dictionary-encoded [`tsens_data::EncodedRelation`] flat
//! `u32` rows; `γ` is [`EncodedRelation::group`].
//!
//! The operators perform **no per-output-row heap allocation**: keys are
//! hashed as raw `u32`s (single-column fast path) or fixed-width `&[u32]`
//! slices gathered into one reused scratch buffer, and output rows are
//! appended straight into the flat buffer. Ground truth for all of them
//! is [`crate::naive_eval`], which materialises the full join over
//! `Value` rows with its own private join.

use crate::pool::Pool;
use std::sync::atomic::{AtomicU64, Ordering};
use tsens_data::fast::fast_map_with_capacity;
use tsens_data::{sat_mul, Count, EncodedRelation, FastMap};

/// Hash index over an encoded relation's projected key: key → row indices.
///
/// Single-column keys are hashed as raw `u32`; wider keys as fixed-width
/// `&[u32]` slices (owned boxes are allocated once per **distinct** key,
/// never per row).
enum CodeIndex {
    One(FastMap<u32, Vec<u32>>),
    Many(FastMap<Box<[u32]>, Vec<u32>>),
}

impl CodeIndex {
    fn build(rel: &EncodedRelation, key_idx: &[usize]) -> CodeIndex {
        if let [i0] = key_idx {
            let mut map: FastMap<u32, Vec<u32>> = fast_map_with_capacity(rel.len());
            for i in 0..rel.len() {
                map.entry(rel.row(i)[*i0]).or_default().push(i as u32);
            }
            CodeIndex::One(map)
        } else {
            let mut map: FastMap<Box<[u32]>, Vec<u32>> = fast_map_with_capacity(rel.len());
            let mut key: Vec<u32> = Vec::with_capacity(key_idx.len());
            for i in 0..rel.len() {
                let row = rel.row(i);
                key.clear();
                key.extend(key_idx.iter().map(|&k| row[k]));
                if let Some(bucket) = map.get_mut(key.as_slice()) {
                    bucket.push(i as u32);
                } else {
                    map.insert(key.as_slice().into(), vec![i as u32]);
                }
            }
            CodeIndex::Many(map)
        }
    }

    #[inline]
    fn get(&self, key: &[u32]) -> &[u32] {
        let bucket = match self {
            CodeIndex::One(map) => map.get(&key[0]),
            CodeIndex::Many(map) => map.get(key),
        };
        bucket.map_or(&[], Vec::as_slice)
    }
}

/// Gather `row`'s positions `idx` into `buf` (cleared first).
#[inline]
fn gather(buf: &mut Vec<u32>, row: &[u32], idx: &[usize]) {
    buf.clear();
    buf.extend(idx.iter().map(|&i| row[i]));
}

/// Natural join `r⋈`: join on all shared attributes, multiply counts.
///
/// Result schema is `left ∪ right` (left's columns first). With no shared
/// attributes this degenerates to the counted cross product, which is what
/// the paper's GHD bags need (e.g. `N ⋈ L` inside q3's root bag). The
/// **smaller** input is hashed on the shared key (build-side selection);
/// output rows are appended straight into the flat buffer.
pub fn hash_join_enc(left: &EncodedRelation, right: &EncodedRelation) -> EncodedRelation {
    let shared = left.schema().intersect(right.schema());
    let out_schema = left.schema().union(right.schema());
    let right_extra = right.schema().difference(left.schema());
    let l_key = left.schema().projection_indices(&shared);
    let r_key = right.schema().projection_indices(&shared);
    let r_extra = right.schema().projection_indices(&right_extra);

    let mut out = EncodedRelation::with_capacity(out_schema, left.len().max(right.len()));
    let mut key: Vec<u32> = Vec::with_capacity(l_key.len());
    let mut extra: Vec<u32> = Vec::with_capacity(r_extra.len());
    if right.len() <= left.len() {
        let index = CodeIndex::build(right, &r_key);
        for (lrow, lc) in left.iter() {
            gather(&mut key, lrow, &l_key);
            for &ri in index.get(&key) {
                let ri = ri as usize;
                gather(&mut extra, right.row(ri), &r_extra);
                out.push_concat(lrow, &extra, sat_mul(lc, right.count(ri)));
            }
        }
    } else {
        let index = CodeIndex::build(left, &l_key);
        for (rrow, rc) in right.iter() {
            gather(&mut key, rrow, &r_key);
            let matches = index.get(&key);
            if !matches.is_empty() {
                gather(&mut extra, rrow, &r_extra);
                for &li in matches {
                    let li = li as usize;
                    out.push_concat(left.row(li), &extra, sat_mul(left.count(li), rc));
                }
            }
        }
    }
    out
}

/// Keyed lookup join: `keyed`'s schema must be a subset of `base`'s, and
/// `keyed` must be key-distinct (the output of a `γ` group-by). Each base
/// row matches at most one keyed entry; matched rows keep `base`'s schema
/// with counts multiplied, unmatched rows are dropped.
///
/// This is the workhorse of the ⊤/⊥ passes: in Eqns (7)–(8) every botjoin
/// and topjoin consumed by a node is grouped on a subset of that node's
/// attributes, so the whole pass is `O(n · d)` hash lookups (Theorem 5.1).
///
/// Single-column keys probe a raw-`u32` map; wider keys borrow `keyed`'s
/// contiguous rows as map keys and probe with a reused scratch slice, so
/// the inner loop allocates nothing at all.
///
/// # Panics
/// Panics if `keyed.schema() ⊄ base.schema()`.
pub fn lookup_join_enc(base: &EncodedRelation, keyed: &EncodedRelation) -> EncodedRelation {
    assert!(
        keyed.schema().is_subset_of(base.schema()),
        "lookup_join_enc: keyed schema {:?} must be a subset of base schema {:?}",
        keyed.schema(),
        base.schema()
    );
    let key_idx = base.schema().projection_indices(keyed.schema());
    if keyed.schema().is_empty() {
        // Empty key (e.g. ⊤(root) = unit): every base row matches the
        // single aggregate count — scale counts over a flat-buffer copy
        // instead of re-pushing row by row.
        if keyed.is_empty() {
            return EncodedRelation::new(base.schema().clone());
        }
        let kc = keyed.total_count();
        let mut out = base.clone();
        if kc != 1 {
            out.scale_counts(kc);
        }
        return out;
    }
    let mut out = EncodedRelation::with_capacity(base.schema().clone(), base.len());
    if let [i0] = key_idx.as_slice() {
        let i0 = *i0;
        let mut index: FastMap<u32, Count> = fast_map_with_capacity(keyed.len());
        for (row, c) in keyed.iter() {
            // Defensive: sum if the caller passed a non-grouped relation.
            let slot = index.entry(row[0]).or_insert(0);
            *slot = slot.saturating_add(c);
        }
        for (row, c) in base.iter() {
            if let Some(&kc) = index.get(&row[i0]) {
                out.push(row, sat_mul(c, kc));
            }
        }
    } else {
        let mut index: FastMap<&[u32], Count> = fast_map_with_capacity(keyed.len());
        for (row, c) in keyed.iter() {
            let slot = index.entry(row).or_insert(0);
            *slot = slot.saturating_add(c);
        }
        let mut key: Vec<u32> = Vec::with_capacity(key_idx.len());
        for (row, c) in base.iter() {
            gather(&mut key, row, &key_idx);
            if let Some(&kc) = index.get(key.as_slice()) {
                out.push(row, sat_mul(c, kc));
            }
        }
    }
    out
}

/// Number of distinct projections of `rel`'s rows onto `idx` — pairs are
/// packed into `u64`s, wider keys gathered into a scratch slice.
fn distinct_keys_enc(rel: &EncodedRelation, idx: &[usize]) -> usize {
    match idx {
        [] => usize::from(!rel.is_empty()),
        [i0] => {
            let mut keys: tsens_data::FastSet<u32> = tsens_data::FastSet::default();
            for (row, _) in rel.iter() {
                keys.insert(row[*i0]);
            }
            keys.len()
        }
        [i0, i1] => {
            let mut keys: tsens_data::FastSet<u64> = tsens_data::FastSet::default();
            for (row, _) in rel.iter() {
                keys.insert((u64::from(row[*i0]) << 32) | u64::from(row[*i1]));
            }
            keys.len()
        }
        _ => {
            let mut keys: tsens_data::FastSet<Box<[u32]>> = tsens_data::FastSet::default();
            let mut key: Vec<u32> = Vec::with_capacity(idx.len());
            for (row, _) in rel.iter() {
                gather(&mut key, row, idx);
                if !keys.contains(key.as_slice()) {
                    keys.insert(key.as_slice().into());
                }
            }
            keys.len()
        }
    }
}

/// Textbook equijoin size estimate under uniformity:
/// `|A ⋈ B| ≈ |A|·|B| / max(d_A, d_B)` where `d` counts distinct join
/// keys; a plain product for cross products. Used to order multiway
/// joins — a shared low-cardinality key (q3's `nationkey`, 25 values) can
/// blow an overlap-greedy order up by orders of magnitude.
fn estimate_join_enc(acc: &EncodedRelation, rel: &EncodedRelation) -> u128 {
    let shared = acc.schema().intersect(rel.schema());
    let product = acc.len() as u128 * rel.len() as u128;
    if shared.is_empty() {
        return product;
    }
    let da = distinct_keys_enc(acc, &acc.schema().projection_indices(&shared));
    let dr = distinct_keys_enc(rel, &rel.schema().projection_indices(&shared));
    product / (da.max(dr).max(1) as u128)
}

/// Larger-side row count below which [`partitioned_hash_join_enc`] falls
/// back to the plain [`hash_join_enc`]: partitioning is two extra linear
/// copies of the inputs, which only pays for itself once the build/probe
/// work dwarfs them.
pub const PAR_JOIN_THRESHOLD: usize = 16_384;

/// Partition `rel`'s entries into `partitions` (a power of two) buckets
/// by a multiplicative hash of the projected key codes. Rows land whole
/// (flat-buffer pushes, no per-row allocation); every row with a given
/// key lands in the same bucket on both join sides.
fn hash_partition_enc(
    rel: &EncodedRelation,
    key_idx: &[usize],
    partitions: usize,
) -> Vec<EncodedRelation> {
    debug_assert!(partitions.is_power_of_two());
    let mut parts: Vec<EncodedRelation> = (0..partitions)
        .map(|_| EncodedRelation::with_capacity(rel.schema().clone(), rel.len() / partitions + 1))
        .collect();
    for (row, c) in rel.iter() {
        let mut h: u64 = 0;
        for &k in key_idx {
            h = (h ^ u64::from(row[k])).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        let p = (h >> 32) as usize & (partitions - 1);
        parts[p].push(row, c);
    }
    parts
}

/// Parallel partitioned [`hash_join_enc`]: hash-partition **both** sides
/// on the shared key into `4 × pool.size()` buckets, join each bucket
/// pair independently across the pool, and concatenate the encoded
/// outputs with one whole-buffer copy per bucket
/// ([`EncodedRelation::append`]) — the zero-per-output-row-allocation
/// contract survives end to end.
///
/// **Skew escape hatch:** key-hash partitioning keeps equal keys
/// together, so a heavy-hitter key can drop >50% of a side's rows into
/// one bucket (q3's Lineitem dominates its level) — the other workers
/// idle while one joins most of the data. When any single bucket crosses
/// that mark the partitioning is abandoned and the join runs as one
/// shared build index probed by pool-sized *row-range* chunks of the
/// larger side ([`chunked_probe_join_enc`]): row ranges balance by
/// construction, independent of the key distribution.
///
/// Output rows are a permutation of the sequential join's (bucket-major
/// instead of probe-major); every caller in the pass pipeline re-groups
/// (`γ`) before counts are read, so results are unaffected. Falls back
/// to the plain [`hash_join_enc`] for sequential pools, cross products
/// (no shared key to partition on) and inputs under
/// [`PAR_JOIN_THRESHOLD`]. Each bucket pair or probe chunk joined in
/// parallel adds one to `tasks` (the session's `parallel_join_tasks`
/// counter).
pub fn partitioned_hash_join_enc(
    left: &EncodedRelation,
    right: &EncodedRelation,
    pool: &Pool,
    tasks: &AtomicU64,
) -> EncodedRelation {
    let shared = left.schema().intersect(right.schema());
    if pool.is_sequential() || shared.is_empty() || left.len().max(right.len()) < PAR_JOIN_THRESHOLD
    {
        return hash_join_enc(left, right);
    }
    let l_key = left.schema().projection_indices(&shared);
    let r_key = right.schema().projection_indices(&shared);
    let partitions = (pool.size() * 4).next_power_of_two();
    let l_parts = hash_partition_enc(left, &l_key, partitions);
    let r_parts = hash_partition_enc(right, &r_key, partitions);
    let skewed = |parts: &[EncodedRelation], len: usize| parts.iter().any(|p| p.len() * 2 > len);
    if skewed(&l_parts, left.len()) || skewed(&r_parts, right.len()) {
        return chunked_probe_join_enc(left, right, pool, tasks);
    }
    tasks.fetch_add(partitions as u64, Ordering::Relaxed);
    let joined = pool.run(partitions, |p| hash_join_enc(&l_parts[p], &r_parts[p]));
    let total: usize = joined.iter().map(EncodedRelation::len).sum();
    let mut out = EncodedRelation::with_capacity(left.schema().union(right.schema()), total);
    for part in &joined {
        out.append(part);
    }
    out
}

/// Within-partition parallel probe for skewed joins: build one shared
/// [`CodeIndex`] over the smaller side, split the larger side into
/// `pool.size()` contiguous row ranges, probe each range on its own
/// worker, and concatenate the chunk outputs. Unlike key partitioning,
/// row ranges stay balanced no matter how concentrated the key
/// distribution is; the price is that every worker probes the full build
/// index (read-only, so it shares fine).
fn chunked_probe_join_enc(
    left: &EncodedRelation,
    right: &EncodedRelation,
    pool: &Pool,
    tasks: &AtomicU64,
) -> EncodedRelation {
    let shared = left.schema().intersect(right.schema());
    let out_schema = left.schema().union(right.schema());
    let right_extra = right.schema().difference(left.schema());
    let l_key = left.schema().projection_indices(&shared);
    let r_key = right.schema().projection_indices(&shared);
    let r_extra = right.schema().projection_indices(&right_extra);

    let probe_left = right.len() <= left.len();
    let index = if probe_left {
        CodeIndex::build(right, &r_key)
    } else {
        CodeIndex::build(left, &l_key)
    };
    let probe_len = if probe_left { left.len() } else { right.len() };
    let chunks = pool.size();
    let per = probe_len.div_ceil(chunks);
    tasks.fetch_add(chunks as u64, Ordering::Relaxed);
    let parts = pool.run(chunks, |c| {
        let start = (c * per).min(probe_len);
        let end = ((c + 1) * per).min(probe_len);
        let mut out = EncodedRelation::with_capacity(out_schema.clone(), end - start);
        let mut key: Vec<u32> = Vec::with_capacity(l_key.len());
        let mut extra: Vec<u32> = Vec::with_capacity(r_extra.len());
        if probe_left {
            for i in start..end {
                let (lrow, lc) = (left.row(i), left.count(i));
                gather(&mut key, lrow, &l_key);
                for &ri in index.get(&key) {
                    let ri = ri as usize;
                    gather(&mut extra, right.row(ri), &r_extra);
                    out.push_concat(lrow, &extra, sat_mul(lc, right.count(ri)));
                }
            }
        } else {
            for i in start..end {
                let (rrow, rc) = (right.row(i), right.count(i));
                gather(&mut key, rrow, &r_key);
                let matches = index.get(&key);
                if !matches.is_empty() {
                    gather(&mut extra, rrow, &r_extra);
                    for &li in matches {
                        let li = li as usize;
                        out.push_concat(left.row(li), &extra, sat_mul(left.count(li), rc));
                    }
                }
            }
        }
        out
    });
    let total: usize = parts.iter().map(EncodedRelation::len).sum();
    let mut out = EncodedRelation::with_capacity(out_schema, total);
    for part in &parts {
        out.append(part);
    }
    out
}

/// Join several counted relations, choosing at each step the unused input
/// with the smallest `estimate_join_enc` against the accumulated result
/// (ties → lowest index). Cross products are costed as plain products,
/// so they are taken only when genuinely cheapest — unavoidable for GHD
/// bags whose members are disconnected, like q3's `{R, N, L}`. Each
/// pairwise step runs through [`partitioned_hash_join_enc`], so large
/// steps fan out across `pool`; a sequential pool joins every step with
/// the plain [`hash_join_enc`].
///
/// # Panics
/// Panics if `inputs` is empty.
pub fn multiway_join_enc(
    inputs: &[&EncodedRelation],
    pool: &Pool,
    tasks: &AtomicU64,
) -> EncodedRelation {
    assert!(
        !inputs.is_empty(),
        "multiway_join_enc needs at least one input"
    );
    let mut used = vec![false; inputs.len()];
    let mut acc = inputs[0].clone();
    used[0] = true;
    for _ in 1..inputs.len() {
        let mut best: Option<(usize, u128)> = None;
        for (i, rel) in inputs.iter().enumerate() {
            if used[i] {
                continue;
            }
            let est = estimate_join_enc(&acc, rel);
            if best.is_none_or(|(_, e)| est < e) {
                best = Some((i, est));
            }
        }
        let (i, _) = best.expect("an unused input must remain");
        used[i] = true;
        acc = partitioned_hash_join_enc(&acc, inputs[i], pool, tasks);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsens_data::{AttrId, Schema};

    fn schema(ids: &[u32]) -> Schema {
        Schema::new(ids.iter().map(|&i| AttrId(i)).collect())
    }

    fn enc(sch: &[u32], entries: &[(&[u32], Count)]) -> EncodedRelation {
        let mut rel = EncodedRelation::with_capacity(schema(sch), entries.len());
        for (row, c) in entries {
            rel.push(row, *c);
        }
        rel
    }

    /// The relation as a grouped, sorted bag of `(row, count)` pairs.
    fn bag(rel: &EncodedRelation) -> Vec<(Vec<u32>, Count)> {
        rel.group(rel.schema())
            .iter()
            .map(|(row, c)| (row.to_vec(), c))
            .collect()
    }

    fn pairs(entries: &[(&[u32], Count)]) -> Vec<(Vec<u32>, Count)> {
        entries.iter().map(|(r, c)| (r.to_vec(), *c)).collect()
    }

    #[test]
    fn hash_join_multiplies_counts() {
        // R(A,B) ⋈ S(B,C); (3, 99) dangles.
        let r = enc(&[0, 1], &[(&[1, 10], 2), (&[2, 10], 3), (&[3, 99], 1)]);
        let s = enc(&[1, 2], &[(&[10, 7], 5), (&[10, 8], 1)]);
        let j = hash_join_enc(&r, &s);
        assert_eq!(j.schema(), &schema(&[0, 1, 2]));
        assert_eq!(
            bag(&j),
            pairs(&[
                (&[1, 10, 7], 10),
                (&[1, 10, 8], 2),
                (&[2, 10, 7], 15),
                (&[2, 10, 8], 3),
            ])
        );
    }

    #[test]
    fn hash_join_without_shared_attrs_is_cross_product() {
        let r = enc(&[0], &[(&[1], 2), (&[2], 1)]);
        let s = enc(&[1], &[(&[10], 3)]);
        let j = hash_join_enc(&r, &s);
        assert_eq!(bag(&j), pairs(&[(&[1, 10], 6), (&[2, 10], 3)]));
    }

    #[test]
    fn hash_join_column_order_is_left_then_right_extra() {
        let r = enc(&[2, 0], &[(&[5, 1], 1)]);
        let s = enc(&[0, 3], &[(&[1, 9], 1)]);
        let j = hash_join_enc(&r, &s);
        assert_eq!(j.schema(), &schema(&[2, 0, 3]));
        assert_eq!(j.row(0), &[5, 1, 9]);
    }

    #[test]
    fn hash_join_build_side_selection_keeps_the_bag() {
        // Asymmetric sizes in both directions: whichever side is hashed
        // (the smaller one), the bag and the left-then-right column order
        // are the same.
        let big = enc(
            &[0, 1],
            &[
                (&[1, 10], 2),
                (&[2, 10], 3),
                (&[3, 99], 1),
                (&[4, 10], 1),
                (&[5, 11], 7),
                (&[6, 11], 2),
            ],
        );
        let small = enc(&[1, 2], &[(&[10, 7], 5), (&[11, 8], 1)]);
        let big_small = hash_join_enc(&big, &small);
        assert_eq!(big_small.schema(), &schema(&[0, 1, 2]));
        assert_eq!(
            bag(&big_small),
            pairs(&[
                (&[1, 10, 7], 10),
                (&[2, 10, 7], 15),
                (&[4, 10, 7], 5),
                (&[5, 11, 8], 7),
                (&[6, 11, 8], 2),
            ])
        );
        let small_big = hash_join_enc(&small, &big);
        assert_eq!(small_big.schema(), &schema(&[1, 2, 0]));
        assert_eq!(
            bag(&small_big),
            pairs(&[
                (&[10, 7, 1], 10),
                (&[10, 7, 2], 15),
                (&[10, 7, 4], 5),
                (&[11, 8, 5], 7),
                (&[11, 8, 6], 2),
            ])
        );
    }

    #[test]
    fn hash_join_build_side_ties_keep_the_bag() {
        // Equal sizes hash the right side; the bag is unchanged.
        let r = enc(&[0, 1], &[(&[1, 10], 2), (&[2, 11], 3)]);
        let s = enc(&[1, 2], &[(&[10, 7], 5), (&[11, 8], 1)]);
        assert_eq!(
            bag(&hash_join_enc(&r, &s)),
            pairs(&[(&[1, 10, 7], 10), (&[2, 11, 8], 3)])
        );
    }

    #[test]
    fn join_counts_saturate_instead_of_overflowing() {
        let r = enc(&[0], &[(&[1], Count::MAX)]);
        let s = enc(&[0], &[(&[1], 3)]);
        assert_eq!(bag(&hash_join_enc(&r, &s)), pairs(&[(&[1], Count::MAX)]));
    }

    #[test]
    fn lookup_join_keeps_base_schema() {
        let base = enc(&[0, 1], &[(&[1, 10], 2), (&[2, 20], 3)]);
        let keyed = enc(&[1], &[(&[10], 4)]);
        let j = lookup_join_enc(&base, &keyed);
        assert_eq!(j.schema(), &schema(&[0, 1]));
        assert_eq!(bag(&j), pairs(&[(&[1, 10], 8)]));
    }

    #[test]
    fn lookup_join_with_unit_is_identity() {
        let base = enc(&[0], &[(&[1], 2), (&[2], 3)]);
        assert_eq!(lookup_join_enc(&base, &EncodedRelation::unit()), base);
    }

    #[test]
    #[should_panic(expected = "subset")]
    fn lookup_join_rejects_non_subset() {
        let base = enc(&[0], &[(&[1], 1)]);
        let keyed = enc(&[1], &[(&[1], 1)]);
        let _ = lookup_join_enc(&base, &keyed);
    }

    #[test]
    fn multiway_join_orders_by_connectivity() {
        // R(A,B), T(C,D), S(B,C): naive left-to-right would cross-product
        // R×T; the planner must pick S second.
        let r = enc(&[0, 1], &[(&[1, 2], 1), (&[5, 6], 1)]);
        let t = enc(&[2, 3], &[(&[3, 4], 1), (&[7, 8], 1)]);
        let s = enc(&[1, 2], &[(&[2, 3], 1)]);
        for pool in [Pool::sequential(), Pool::new(4).unwrap()] {
            let j = multiway_join_enc(&[&r, &t, &s], &pool, &AtomicU64::new(0));
            assert_eq!(j.schema(), &schema(&[0, 1, 2, 3]));
            assert_eq!(bag(&j), pairs(&[(&[1, 2, 3, 4], 1)]));
        }
    }

    #[test]
    fn multiway_join_single_input() {
        let r = enc(&[0], &[(&[1], 5)]);
        let j = multiway_join_enc(&[&r], &Pool::sequential(), &AtomicU64::new(0));
        assert_eq!(j, r);
    }

    #[test]
    fn skewed_partitioned_join_matches_sequential() {
        // 60% of the probe side sits on one heavy key: key-hash
        // partitioning would funnel those rows into a single bucket, so
        // the skew escape hatch (one shared build index, row-range
        // probe chunks) must take over — and agree with the sequential
        // join after grouping.
        let pool = Pool::new(4).unwrap();
        let tasks = AtomicU64::new(0);
        let n = PAR_JOIN_THRESHOLD + 4_096;
        let mut left = EncodedRelation::with_capacity(schema(&[0, 1]), n);
        for i in 0..n as u32 {
            let b = if (i as usize) * 10 < n * 6 {
                0
            } else {
                i % 1024
            };
            left.push(&[i, b], 1);
        }
        let mut right = EncodedRelation::with_capacity(schema(&[1, 2]), 16);
        for c in 0..3 {
            right.push(&[0, c], 2);
        }
        for b in 1..8 {
            right.push(&[b, 100 + b], 1);
        }
        let par = partitioned_hash_join_enc(&left, &right, &pool, &tasks);
        let seq = hash_join_enc(&left, &right);
        let target = schema(&[0, 1, 2]);
        assert_eq!(par.group(&target), seq.group(&target));
        assert!(
            tasks.load(Ordering::Relaxed) > 0,
            "the chunked probe ran across the pool"
        );
    }
}
