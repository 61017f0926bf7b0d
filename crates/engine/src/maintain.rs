//! O(delta) repair of cached ⊥/⊤ pass states under single-tuple
//! updates — the FO+MOD-under-updates idea (Berkholz, Keppeler &
//! Schweikardt) specialized to the Yannakakis count passes.
//!
//! Every pass state is **multilinear** in the per-row counts of its
//! inputs: each of Eqn 7's `⊥(v) = γ_up(v)(bag(v) ⋈ Π ⊥(c))` and
//! Eqn 8's `⊤(v) = γ_up(v)((bag(p) ⋈ ⊤(p)) ⋈ Π ⊥(s))` is a sum of
//! count products with each input contributing one factor. So when
//! exactly **one** input changes by a delta, the state's exact change is
//! the same aggregation with that input replaced by its delta and every
//! other input read at its (unchanged) current value. A single-tuple
//! update to the relation of a singleton bag `v₀` changes exactly one
//! input everywhere:
//!
//! * `⊥` along the root path `v₀ → root`: at `v₀` the changed input is
//!   the bag itself (the delta row, directly); at each ancestor it is
//!   the just-repaired child's `Δ⊥`, joined through the parent bag with
//!   sibling `⊥` states read untouched.
//! * `⊤` is **unchanged on the root path** (by induction from
//!   `⊤(root) = unit`: every path node's `⊤` inputs — parent bag,
//!   parent `⊤`, and the `⊥` of its path-external siblings — are all
//!   unchanged). It changes only at the children of `v₀` (changed input:
//!   the bag delta row), at the siblings of path nodes (changed input:
//!   the path child's `Δ⊥`), and in the cascade below those (changed
//!   input: the parent's `Δ⊤`).
//!
//! The correctness contract is maintain ≡ recompute, **always**: any
//! situation the repair cannot handle exactly — saturated counts,
//! arithmetic past `i128`, a key group the state should have had but
//! does not — returns [`Repair::Fallback`] and the caller drops the
//! entry, landing on the recompute path. Repair never runs at all when
//! the delta's codes are stale (dict re-sort epoch) or not itemized
//! (bulk load); `EngineSession::apply` enforces that.

use crate::session::{QueryKey, QueryPasses};
use std::sync::Arc;
use tsens_data::{AttrId, Count, Dict, EncodedRelation, FastMap, Schema};

/// Outcome of one entry repair.
pub(crate) enum Repair {
    /// The entry now equals a fresh recompute against the updated
    /// encoding. `unchanged` is true when the repair proved no ⊥ or ⊤
    /// key group actually moved (the delta row joins nothing) — cached
    /// results derived purely from pass state are then still valid.
    Done { unchanged: bool },
    /// The repair hit a divergence point (saturation, overflow, missing
    /// key); the caller must drop the entry and recompute.
    Fallback,
}

/// Lazily built row indexes over bag relations, keyed by
/// `(bag, key attrs)` and guarded by the per-bag repair generation so a
/// re-pointed bag self-expires its indexes. Only the repair path reads
/// or builds these; query evaluation never touches them.
///
/// Each index sits behind its own `Arc`, so a shallow copy of the pass
/// entry (a fork repairing state a snapshot shares) keeps every index
/// over a bag the delta did not change instead of rebuilding it.
#[derive(Clone, Default)]
pub(crate) struct MaintIndexes {
    by_key: FastMap<(usize, Vec<AttrId>), Arc<BagIndex>>,
}

struct BagIndex {
    gen: u64,
    rows: FastMap<Vec<u32>, Vec<u32>>,
}

impl MaintIndexes {
    /// Rows of `bag_rel` grouped by their projection onto `key_schema`,
    /// rebuilt when the bag's repair generation moved. `None` when
    /// `key_schema` is not a sub-schema of the bag (malformed state —
    /// the caller falls back).
    fn rows_matching(
        &mut self,
        bag: usize,
        key_schema: &Schema,
        bag_rel: &EncodedRelation,
        gen: u64,
    ) -> Option<&FastMap<Vec<u32>, Vec<u32>>> {
        let key = (bag, key_schema.attrs().to_vec());
        let stale = self.by_key.get(&key).is_none_or(|e| e.gen != gen);
        if stale {
            let proj = proj_indices(bag_rel.schema(), key_schema)?;
            let mut rows: FastMap<Vec<u32>, Vec<u32>> = FastMap::default();
            for (i, (r, _)) in bag_rel.iter().enumerate() {
                rows.entry(project(r, &proj)).or_default().push(i as u32);
            }
            self.by_key
                .insert(key.clone(), Arc::new(BagIndex { gen, rows }));
        }
        self.by_key.get(&key).map(|e| &e.rows)
    }
}

/// Signed count adjustments per key group of one γ-aggregated state.
type KeyDeltas = FastMap<Vec<u32>, i128>;

/// Positions of `to`'s attributes inside `from` (`None` when `to` is
/// not a sub-schema of `from`).
fn proj_indices(from: &Schema, to: &Schema) -> Option<Vec<usize>> {
    to.attrs().iter().map(|&a| from.position(a)).collect()
}

fn project(row: &[u32], idx: &[usize]) -> Vec<u32> {
    idx.iter().map(|&i| row[i]).collect()
}

/// A stored count as checked signed arithmetic input. `None` poisons
/// the repair: counts past `i128::MAX` only arise via saturation, and a
/// saturated state cannot be patched exactly.
fn checked(c: Count) -> Option<i128> {
    (c <= i128::MAX as u128).then_some(c as i128)
}

/// Current count of `state` at the projection of `row` (read through
/// `from` schema positions); absent key groups count 0.
fn lookup_proj(state: &EncodedRelation, from: &Schema, row: &[u32]) -> Option<i128> {
    let proj = proj_indices(from, state.schema())?;
    let key = project(row, &proj);
    match state.find_row(&key) {
        Ok(i) => checked(state.count(i)),
        Err(_) => Some(0),
    }
}

/// Apply signed per-key adjustments to a grouped state. A state another
/// snapshot still shares is copied once before the first write (one
/// exactly-sized copy for a row insert or removal) and never edited
/// under it. Returns whether anything moved; `None` on any divergence
/// (negative result, saturated current value, arithmetic overflow,
/// delete of an absent key) — the caller falls back to recompute.
fn apply_key_deltas(state: &mut Arc<EncodedRelation>, deltas: &KeyDeltas) -> Option<bool> {
    let mut changed = false;
    for (key, &d) in deltas {
        if d == 0 {
            continue;
        }
        changed = true;
        match state.find_row(key) {
            Ok(i) => {
                let next = checked(state.count(i))?.checked_add(d)?;
                match next {
                    n if n < 0 => return None,
                    0 => EncodedRelation::remove_row_shared(state, i),
                    n => Arc::make_mut(state).set_count(i, n as Count),
                }
            }
            Err(i) => {
                if d < 0 {
                    return None;
                }
                EncodedRelation::insert_row_shared(state, i, key, d as Count);
            }
        }
    }
    Some(changed)
}

/// Repair one cached [`QueryPasses`] entry for a `±dcount` change of the
/// encoded `row` in the relation of query atom `atom`, which is the sole
/// atom of singleton bag `bag0` (the planner verified both). `new_lift`
/// is the post-update resident relation (the entry's old Arcs were
/// stripped before the encoded mutation); `dict` is the session
/// dictionary after the update, which may have grown an overflow region.
///
/// On [`Repair::Fallback`] the entry may be partially patched and MUST
/// be dropped by the caller.
#[allow(clippy::too_many_arguments)]
pub(crate) fn repair_entry(
    entry: &mut QueryPasses,
    key: &QueryKey,
    atom: usize,
    bag0: usize,
    row: &[u32],
    dcount: i64,
    new_lift: &Arc<EncodedRelation>,
    dict: &Arc<Dict>,
) -> Repair {
    match repair_inner(entry, key, atom, bag0, row, dcount, new_lift, dict) {
        Some(unchanged) => Repair::Done { unchanged },
        None => Repair::Fallback,
    }
}

#[allow(clippy::too_many_arguments)]
fn repair_inner(
    entry: &mut QueryPasses,
    key: &QueryKey,
    atom: usize,
    bag0: usize,
    row: &[u32],
    dcount: i64,
    new_lift: &Arc<EncodedRelation>,
    dict: &Arc<Dict>,
) -> Option<bool> {
    let QueryPasses {
        dict: entry_dict,
        lifted,
        bags,
        bots,
        tops,
        bag_gen,
        maint,
        ..
    } = entry;

    // Re-point the touched bag at the updated resident relation and pin
    // the (possibly overflow-grown) dictionary; the bag's indexes
    // self-expire through the generation bump. Everything below reads
    // the delta row directly, never the new bag contents.
    lifted[atom] = Arc::clone(new_lift);
    bags[bag0] = Arc::clone(new_lift);
    *entry_dict = Arc::clone(dict);
    bag_gen[bag0] += 1;

    let parents = &key.parents;
    let n = parents.len();
    if bots.len() != n || bag0 >= n {
        return None;
    }
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (v, parent) in parents.iter().enumerate() {
        if let Some(p) = *parent {
            if p >= n {
                return None;
            }
            children[p].push(v);
        }
    }
    let bag_schema = new_lift.schema();
    let k = dcount as i128;

    // ---- ⊥ repair up the root path (Eqn 7) --------------------------
    // Leaf term: Δ⊥(v₀) = γ(Δbag ⋈ Π_c ⊥(c)) — one key group, the
    // delta row itself, weighted by the children's current counts.
    let mut factor = k;
    for &c in &children[bag0] {
        factor = factor.checked_mul(lookup_proj(&bots[c], bag_schema, row)?)?;
        if factor == 0 {
            break;
        }
    }
    let mut cur_delta = KeyDeltas::default();
    if factor != 0 {
        let proj = proj_indices(bag_schema, bots[bag0].schema())?;
        cur_delta.insert(project(row, &proj), factor);
    }

    // Ascend: Δ⊥(p) = γ(bag(p) ⋈ Δ⊥(cur) ⋈ Π_{c≠cur} ⊥(c)) — the
    // parent bag is indexed by up(cur) once and reused across updates;
    // sibling ⊥ states are read untouched.
    let mut bot_deltas: FastMap<usize, KeyDeltas> = FastMap::default();
    let mut cur = bag0;
    loop {
        let next = match parents[cur] {
            None => None,
            Some(p) if cur_delta.is_empty() => Some((p, KeyDeltas::default())),
            Some(p) => {
                let bag_p = Arc::clone(&bags[p]);
                let out_proj = proj_indices(bag_p.schema(), bots[p].schema())?;
                let idx = maint.rows_matching(p, bots[cur].schema(), &bag_p, bag_gen[p])?;
                let mut out = KeyDeltas::default();
                for (kappa, &d) in &cur_delta {
                    let Some(rows) = idx.get(kappa) else { continue };
                    for &ri in rows {
                        let r = bag_p.row(ri as usize);
                        let mut prod = d.checked_mul(checked(bag_p.count(ri as usize))?)?;
                        for &sib in &children[p] {
                            if sib == cur || prod == 0 {
                                continue;
                            }
                            prod = prod.checked_mul(lookup_proj(&bots[sib], bag_p.schema(), r)?)?;
                        }
                        if prod != 0 {
                            let slot = out.entry(project(r, &out_proj)).or_insert(0);
                            *slot = slot.checked_add(prod)?;
                        }
                    }
                }
                out.retain(|_, d| *d != 0);
                Some((p, out))
            }
        };
        apply_key_deltas(&mut bots[cur], &cur_delta)?;
        bot_deltas.insert(cur, cur_delta);
        match next {
            None => break,
            Some((p, d)) => {
                cur = p;
                cur_delta = d;
            }
        }
    }
    let bots_changed = bot_deltas.values().any(|d| !d.is_empty());

    // ---- ⊤ repair off the root path (Eqn 8) -------------------------
    let mut tops_changed = false;
    if let Some(mut top_states) = tops.take() {
        if top_states.len() != n {
            return None;
        }
        // Seeds: each carries a node plus its exact Δ⊤; the cascade
        // below extends the queue. Every node is enqueued at most once
        // (seed subtrees are disjoint and path nodes never enqueue).
        let mut queue: Vec<(usize, KeyDeltas)> = Vec::new();

        // Children of v₀ — changed input is the bag delta row itself:
        // Δ⊤(c) = γ(Δbag ⋈ ⊤(v₀) ⋈ Π_{n∈nbrs(c)} ⊥(n)).
        for &c in &children[bag0] {
            let mut prod = k.checked_mul(lookup_proj(&top_states[bag0], bag_schema, row)?)?;
            for &nb in &children[bag0] {
                if nb == c || prod == 0 {
                    continue;
                }
                prod = prod.checked_mul(lookup_proj(&bots[nb], bag_schema, row)?)?;
            }
            let mut d = KeyDeltas::default();
            if prod != 0 {
                let proj = proj_indices(bag_schema, top_states[c].schema())?;
                d.insert(project(row, &proj), prod);
            }
            queue.push((c, d));
        }

        // Siblings of each path node v (parent p) — changed input is
        // Δ⊥(v): Δ⊤(s) = γ(bag(p) ⋈ ⊤(p) ⋈ Δ⊥(v) ⋈ Π_{n≠v} ⊥(n)).
        // ⊤(p) is on the path, hence unchanged and safe to read.
        for (&v, dv) in &bot_deltas {
            if dv.is_empty() {
                continue;
            }
            let Some(p) = parents[v] else { continue };
            for &s in &children[p] {
                if s == v {
                    continue;
                }
                let bag_p = Arc::clone(&bags[p]);
                let out_proj = proj_indices(bag_p.schema(), top_states[s].schema())?;
                let idx = maint.rows_matching(p, bots[v].schema(), &bag_p, bag_gen[p])?;
                let mut d = KeyDeltas::default();
                for (kappa, &dd) in dv {
                    let Some(rows) = idx.get(kappa) else { continue };
                    for &ri in rows {
                        let r = bag_p.row(ri as usize);
                        let mut prod = dd.checked_mul(checked(bag_p.count(ri as usize))?)?;
                        if prod != 0 {
                            prod =
                                prod.checked_mul(lookup_proj(&top_states[p], bag_p.schema(), r)?)?;
                        }
                        for &nb in &children[p] {
                            if nb == s || nb == v || prod == 0 {
                                continue;
                            }
                            prod = prod.checked_mul(lookup_proj(&bots[nb], bag_p.schema(), r)?)?;
                        }
                        if prod != 0 {
                            let slot = d.entry(project(r, &out_proj)).or_insert(0);
                            *slot = slot.checked_add(prod)?;
                        }
                    }
                }
                d.retain(|_, x| *x != 0);
                queue.push((s, d));
            }
        }

        // Cascade: a node q with Δ⊤(q) ≠ ∅ propagates to each child d —
        // changed input ⊤(q): Δ⊤(d) = γ(bag(q) ⋈ Δ⊤(q) ⋈ Π_{n∈nbrs(d)}
        // ⊥(n)), everything below q untouched by the ⊥ phase.
        let mut qi = 0;
        while qi < queue.len() {
            let (node, delta) = {
                let slot = &mut queue[qi];
                (slot.0, std::mem::take(&mut slot.1))
            };
            qi += 1;
            if delta.is_empty() {
                continue;
            }
            tops_changed = true;
            for &c in &children[node] {
                let bag_n = Arc::clone(&bags[node]);
                let out_proj = proj_indices(bag_n.schema(), top_states[c].schema())?;
                let idx =
                    maint.rows_matching(node, top_states[node].schema(), &bag_n, bag_gen[node])?;
                let mut d = KeyDeltas::default();
                for (kappa, &dd) in &delta {
                    let Some(rows) = idx.get(kappa) else { continue };
                    for &ri in rows {
                        let r = bag_n.row(ri as usize);
                        let mut prod = dd.checked_mul(checked(bag_n.count(ri as usize))?)?;
                        for &nb in &children[node] {
                            if nb == c || prod == 0 {
                                continue;
                            }
                            prod = prod.checked_mul(lookup_proj(&bots[nb], bag_n.schema(), r)?)?;
                        }
                        if prod != 0 {
                            let slot = d.entry(project(r, &out_proj)).or_insert(0);
                            *slot = slot.checked_add(prod)?;
                        }
                    }
                }
                d.retain(|_, x| *x != 0);
                queue.push((c, d));
            }
            apply_key_deltas(&mut top_states[node], &delta)?;
        }
        if tops.set(top_states).is_err() {
            return None;
        }
    } else if !bots_changed {
        // ⊤ not materialized: a later `tops()` recomputes exactly from
        // the repaired ⊥/bags, so there is nothing to patch — but the
        // `unchanged` verdict must still account for the B-terms at
        // v₀'s children, which can move even when every Δ⊥ is empty
        // (⊤(v₀) is unknown here, so treat its factor as nonzero).
        for &c in &children[bag0] {
            let mut prod = k;
            for &nb in &children[bag0] {
                if nb == c || prod == 0 {
                    continue;
                }
                prod = prod.checked_mul(lookup_proj(&bots[nb], bag_schema, row)?)?;
            }
            if prod != 0 {
                tops_changed = true;
                break;
            }
        }
    }

    Some(!bots_changed && !tops_changed)
}
