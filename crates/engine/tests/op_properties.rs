//! Algebraic properties of the multiplicity-propagating operators,
//! checked with proptest over encoded relations.

use proptest::prelude::*;
use std::sync::atomic::AtomicU64;
use tsens_data::{AttrId, Count, EncodedRelation, Schema};
use tsens_engine::ops::{hash_join_enc, lookup_join_enc, multiway_join_enc};
use tsens_engine::Pool;

fn schema(ids: &[u32]) -> Schema {
    Schema::new(ids.iter().map(|&i| AttrId(i)).collect())
}

fn encoded(sch: &[u32], entries: Vec<(Vec<u32>, Count)>) -> EncodedRelation {
    let mut rel = EncodedRelation::new(schema(sch));
    for (row, c) in entries {
        rel.push(&row, c);
    }
    rel
}

fn entries2(max: usize, domain: u32) -> impl Strategy<Value = Vec<(Vec<u32>, Count)>> {
    prop::collection::vec((prop::collection::vec(0..domain, 2..=2), 1..5u128), 0..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Join total counts are symmetric: |R ⋈ S| == |S ⋈ R| (bag sizes).
    #[test]
    fn hash_join_total_is_symmetric(
        r in entries2(10, 3),
        s in entries2(10, 3),
    ) {
        let r = encoded(&[0, 1], r);
        let s = encoded(&[1, 2], s);
        let rs = hash_join_enc(&r, &s);
        let sr = hash_join_enc(&s, &r);
        prop_assert_eq!(rs.total_count(), sr.total_count());
        // Same number of distinct output rows after grouping.
        let target = schema(&[0, 1, 2]);
        prop_assert_eq!(rs.group(&target).len(), sr.group(&target).len());
    }

    /// Joining with a grouped projection equals grouping the join:
    /// γ_AB(R ⋈ γ_B(S)) == γ_AB(R ⋈ S).
    #[test]
    fn lookup_join_agrees_with_hash_join(
        r in entries2(10, 3),
        s in entries2(10, 3),
    ) {
        let r = encoded(&[0, 1], r);
        let s = encoded(&[1, 2], s);
        let keyed = s.group(&schema(&[1]));
        let ab = schema(&[0, 1]);
        let via_lookup = lookup_join_enc(&r, &keyed).group(&ab);
        let via_hash = hash_join_enc(&r, &s).group(&ab);
        prop_assert_eq!(via_lookup, via_hash);
    }

    /// Multiway join is order-insensitive in total count, on sequential
    /// and parallel pools alike.
    #[test]
    fn multiway_join_total_order_invariant(
        r in entries2(8, 3),
        s in entries2(8, 3),
        t in entries2(8, 3),
    ) {
        let r = encoded(&[0, 1], r);
        let s = encoded(&[1, 2], s);
        let t = encoded(&[2, 3], t);
        let tasks = AtomicU64::new(0);
        for pool in [Pool::sequential(), Pool::new(4).unwrap()] {
            let a = multiway_join_enc(&[&r, &s, &t], &pool, &tasks).total_count();
            let b = multiway_join_enc(&[&t, &r, &s], &pool, &tasks).total_count();
            let c = multiway_join_enc(&[&s, &t, &r], &pool, &tasks).total_count();
            prop_assert_eq!(a, b);
            prop_assert_eq!(b, c);
        }
    }

    /// Group-by is idempotent and preserves totals.
    #[test]
    fn group_is_idempotent(r in entries2(12, 4)) {
        let r = encoded(&[0, 1], r);
        let g1 = r.group(&schema(&[0]));
        let g2 = g1.group(&schema(&[0]));
        prop_assert_eq!(&g1, &g2);
        prop_assert_eq!(g1.total_count(), r.total_count());
    }
}
