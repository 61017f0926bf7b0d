//! An ego-network-style graph workload standing in for the SNAP Facebook
//! dataset (ego-net of user 348: 225 nodes, 6384 directed edges, 567
//! circles).
//!
//! We cannot ship the SNAP data, so a seeded generator produces a graph
//! with the same shape (DESIGN.md §3): nodes grouped into overlapping
//! communities, dense within and sparse across — giving the heavy
//! triangle/path skew the paper's Table 1/2 numbers come from. The
//! paper's construction is then applied verbatim:
//!
//! 1. every *circle* `i` induces an edge table `E_i` (edges with both
//!    endpoints in the circle);
//! 2. circles are sorted by `|E_i|` descending and `E_j` is inserted into
//!    `R_{j mod 4}` — so `R1..R4` are **bags** whose multiplicities count
//!    circle co-membership;
//! 3. all edges are bi-directed;
//! 4. a triangle table `R△(x,y,z) :- R4(x,y), R4(y,z), R4(z,x)` is
//!    materialised from `R4`.
//!
//! The four queries of Fig. 5b are provided with their decompositions:
//! `q4 = q△` (triangle, GHD `{R1,R2} – {R3}`), `qw` (4-path), `q∘`
//! (4-cycle, GHD `{R1,R2} – {R3,R4}`) and `q*` (star around `R△`; acyclic
//! but **not** doubly acyclic — its multiplicity-table join is a
//! triangle, the §5.2 hard shape).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use tsens_data::{Count, Database, FastMap, Relation, Schema, Value};
use tsens_query::{ConjunctiveQuery, DecompositionTree, QueryError};

/// Generator parameters; the default matches ego-net 348's shape.
#[derive(Clone, Copy, Debug)]
pub struct FacebookParams {
    /// Number of nodes (ego-net 348 has 225).
    pub nodes: usize,
    /// Number of overlapping communities used to cluster the graph.
    pub communities: usize,
    /// Number of circles to sample (ego-net 348 has 567).
    pub circles: usize,
    /// Within-community edge probability.
    pub p_in: f64,
    /// Across-community edge probability.
    pub p_out: f64,
    /// Edge probability between a community's *leader* and its members.
    /// Real ego-net circles form around a few popular friends; leader
    /// degree (amplified by circle-duplication multiplicity) is what
    /// makes the max-frequency-based baselines (Elastic, PrivSQL) blow up
    /// in Tables 1–2 while TSens stays tight.
    pub p_leader: f64,
}

impl Default for FacebookParams {
    fn default() -> Self {
        FacebookParams {
            nodes: 225,
            communities: 12,
            circles: 567,
            p_in: 0.14,
            p_out: 0.003,
            p_leader: 0.95,
        }
    }
}

/// Generate the Facebook-style database: relations `R1..R4` over
/// attribute pairs per query, plus the triangle table `Tri`.
///
/// Because a conjunctive query atom takes its variables from the
/// relation's catalog schema, each query gets its own view copies with
/// the right attribute bindings, named `"{query}_{R}"` (e.g. `q4_R1` over
/// `(A,B)`).
pub fn facebook_database(params: FacebookParams, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = params.nodes;

    // 1. Clustered undirected graph with one high-degree leader per
    //    community (nodes 0..communities are the leaders of their own
    //    community).
    let mut membership: Vec<usize> = (0..n)
        .map(|_| rng.random_range(0..params.communities))
        .collect();
    for (c, slot) in membership
        .iter_mut()
        .enumerate()
        .take(params.communities.min(n))
    {
        *slot = c; // node c leads community c
    }
    let leader_of = |v: usize| membership[v]; // leaders are nodes 0..communities
    let is_leader = |v: usize| v < params.communities;
    let mut undirected: Vec<(usize, usize)> = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            let same = membership[u] == membership[v];
            let p = if same && (is_leader(u) || is_leader(v)) {
                params.p_leader
            } else if same {
                params.p_in
            } else {
                params.p_out
            };
            if rng.random::<f64>() < p {
                undirected.push((u, v));
            }
        }
    }
    let _ = leader_of;

    // 2. Circles: biased samples around a community, plus extras.
    let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(u, v) in &undirected {
        adjacency[u].push(v);
        adjacency[v].push(u);
    }
    let mut circle_edges: Vec<Vec<(usize, usize)>> = Vec::with_capacity(params.circles);
    for _ in 0..params.circles {
        let home = rng.random_range(0..params.communities);
        // Real ego-net circles are mostly tiny (2–6 members) with a long
        // tail of large ones; cube a uniform draw to skew small.
        let u: f64 = rng.random();
        let size = 2 + (u * u * u * 22.0) as usize;
        let members: Vec<usize> = {
            let mut m: Vec<usize> = (0..n)
                .filter(|&v| membership[v] == home || rng.random::<f64>() < 0.04)
                .collect();
            // Shuffle by index sampling.
            let mut out = Vec::with_capacity(size);
            for _ in 0..size.min(m.len()) {
                let i = rng.random_range(0..m.len());
                out.push(m.swap_remove(i));
            }
            out
        };
        let member_set: std::collections::HashSet<usize> = members.iter().copied().collect();
        let edges: Vec<(usize, usize)> = undirected
            .iter()
            .copied()
            .filter(|&(u, v)| member_set.contains(&u) && member_set.contains(&v))
            .collect();
        circle_edges.push(edges);
    }

    // 3. Sort circles by size descending, partition by rank mod 4,
    //    bi-direct the edges.
    circle_edges.sort_by_key(|e| std::cmp::Reverse(e.len()));
    let mut partitions: [Vec<(i64, i64)>; 4] = Default::default();
    for (rank, edges) in circle_edges.into_iter().enumerate() {
        let slot = rank % 4;
        for (u, v) in edges {
            partitions[slot].push((u as i64, v as i64));
            partitions[slot].push((v as i64, u as i64));
        }
    }

    // 4. Triangle table from R4's edges (bag semantics).
    let tri_rows = triangle_rows(&partitions[3]);

    // 5. Materialise the per-query views.
    let mut db = Database::new();
    let [a, b, c, d, e] = db.attrs(["A", "B", "C", "D", "E"]);
    let edge_rel = |slot: usize, s1, s2| -> Relation {
        Relation::from_rows(
            Schema::new(vec![s1, s2]),
            partitions[slot]
                .iter()
                .map(|&(x, y)| vec![Value::Int(x), Value::Int(y)])
                .collect(),
        )
    };

    // q4 (triangle): R1(A,B), R2(B,C), R3(C,A).
    db.add_relation("q4_R1", edge_rel(0, a, b)).unwrap();
    db.add_relation("q4_R2", edge_rel(1, b, c)).unwrap();
    db.add_relation("q4_R3", edge_rel(2, c, a)).unwrap();
    // qw (path): R1(A,B), R2(B,C), R3(C,D), R4(D,E).
    db.add_relation("qw_R1", edge_rel(0, a, b)).unwrap();
    db.add_relation("qw_R2", edge_rel(1, b, c)).unwrap();
    db.add_relation("qw_R3", edge_rel(2, c, d)).unwrap();
    db.add_relation("qw_R4", edge_rel(3, d, e)).unwrap();
    // q∘ (4-cycle): R1(A,B), R2(B,C), R3(C,D), R4(D,A).
    db.add_relation("qo_R1", edge_rel(0, a, b)).unwrap();
    db.add_relation("qo_R2", edge_rel(1, b, c)).unwrap();
    db.add_relation("qo_R3", edge_rel(2, c, d)).unwrap();
    db.add_relation("qo_R4", edge_rel(3, d, a)).unwrap();
    // q* (star): Tri(A,B,C), R1(A,B), R2(B,C), R3(C,A).
    db.add_relation(
        "qs_Tri",
        Relation::from_rows(
            Schema::new(vec![a, b, c]),
            tri_rows
                .iter()
                .map(|&(x, y, z)| vec![Value::Int(x), Value::Int(y), Value::Int(z)])
                .collect(),
        ),
    )
    .unwrap();
    db.add_relation("qs_R1", edge_rel(0, a, b)).unwrap();
    db.add_relation("qs_R2", edge_rel(1, b, c)).unwrap();
    db.add_relation("qs_R3", edge_rel(2, c, a)).unwrap();
    db
}

/// Enumerate directed triangles `(x,y,z)` with `E(x,y), E(y,z), E(z,x)`
/// under bag semantics: each distinct triangle repeats once per
/// combination of its three edges' duplicates (duplicates come from edges
/// shared by several circles). Triangles come out ordered by `(x, y)`,
/// then `z`.
fn triangle_rows(edges: &[(i64, i64)]) -> Vec<(i64, i64, i64)> {
    let mut counts: BTreeMap<(i64, i64), Count> = BTreeMap::new();
    for &edge in edges {
        *counts.entry(edge).or_insert(0) += 1;
    }
    let mut out = Vec::new();
    for (&(x, y), &cxy) in &counts {
        for (&(_, z), &cyz) in counts.range((y, i64::MIN)..=(y, i64::MAX)) {
            if let Some(&czx) = counts.get(&(z, x)) {
                out.extend(std::iter::repeat_n((x, y, z), (cxy * cyz * czx) as usize));
            }
        }
    }
    out
}

/// q4 = q△ (triangle): cyclic; GHD `{R1,R2}(A,B,C)` with child `{R3}`.
pub fn q4(db: &Database) -> Result<(ConjunctiveQuery, DecompositionTree), QueryError> {
    let q = ConjunctiveQuery::over(db, "q4", &["q4_R1", "q4_R2", "q4_R3"])?;
    let tree = DecompositionTree::new(&q, vec![vec![0, 1], vec![2]], vec![None, Some(0)])?;
    Ok((q, tree))
}

/// qw (4-path): `R1(A,B) ⋈ R2(B,C) ⋈ R3(C,D) ⋈ R4(D,E)`.
pub fn qw(db: &Database) -> Result<(ConjunctiveQuery, DecompositionTree), QueryError> {
    let q = ConjunctiveQuery::over(db, "qw", &["qw_R1", "qw_R2", "qw_R3", "qw_R4"])?;
    let tree = match tsens_query::gyo_decompose(&q)? {
        tsens_query::GyoOutcome::Acyclic(t) => t,
        tsens_query::GyoOutcome::Cyclic => unreachable!("qw is a path"),
    };
    Ok((q, tree))
}

/// q∘ (4-cycle): cyclic; GHD `{R1,R2}(A,B,C)` with child `{R3,R4}(C,D,A)`.
pub fn qo(db: &Database) -> Result<(ConjunctiveQuery, DecompositionTree), QueryError> {
    let q = ConjunctiveQuery::over(db, "qo", &["qo_R1", "qo_R2", "qo_R3", "qo_R4"])?;
    let tree = DecompositionTree::new(&q, vec![vec![0, 1], vec![2, 3]], vec![None, Some(0)])?;
    Ok((q, tree))
}

/// q* (star): `Tri(A,B,C) ⋈ R1(A,B) ⋈ R2(B,C) ⋈ R3(C,A)` — acyclic
/// (every `R_i` is an ear of `Tri`) but not doubly acyclic: the
/// multiplicity table of `Tri` joins three botjoins forming a triangle.
pub fn qs(db: &Database) -> Result<(ConjunctiveQuery, DecompositionTree), QueryError> {
    let q = ConjunctiveQuery::over(db, "q*", &["qs_Tri", "qs_R1", "qs_R2", "qs_R3"])?;
    let tree = DecompositionTree::singleton(&q, vec![None, Some(0), Some(0), Some(0)])?;
    Ok((q, tree))
}

/// The total number of directed edges across `R1..R4` of the `qw` views
/// (a convenience for reporting workload shape).
pub fn edge_count(db: &Database) -> Count {
    ["qw_R1", "qw_R2", "qw_R3", "qw_R4"]
        .iter()
        .map(|n| db.relation_by_name(n).expect("qw views exist").len() as Count)
        .sum()
}

/// A smaller parameter set for unit tests and CI (same shape, ~1/4 size).
pub fn small_params() -> FacebookParams {
    FacebookParams {
        nodes: 60,
        communities: 6,
        circles: 80,
        p_in: 0.22,
        p_out: 0.01,
        p_leader: 0.9,
    }
}

/// Histogram of how many times each distinct directed edge repeats across
/// the circles feeding one partition (useful diagnostics for tests).
pub fn multiplicity_histogram(db: &Database, rel: &str) -> FastMap<(i64, i64), Count> {
    let mut out: FastMap<(i64, i64), Count> = FastMap::default();
    for row in db.relation_by_name(rel).expect("relation exists").rows() {
        let k = (row[0].as_int().expect("int"), row[1].as_int().expect("int"));
        *out.entry(k).or_insert(0) += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsens_query::{classify, QueryClass};

    fn db() -> Database {
        facebook_database(small_params(), 348)
    }

    #[test]
    fn generator_is_deterministic() {
        let a = facebook_database(small_params(), 5);
        let b = facebook_database(small_params(), 5);
        assert_eq!(
            a.relation_by_name("qw_R1").unwrap().rows(),
            b.relation_by_name("qw_R1").unwrap().rows()
        );
    }

    #[test]
    fn edges_are_bidirected() {
        let db = db();
        let hist = multiplicity_histogram(&db, "qw_R2");
        for (&(u, v), &c) in hist.iter() {
            assert_eq!(hist.get(&(v, u)), Some(&c), "({u},{v}) not mirrored");
        }
    }

    #[test]
    fn default_params_hit_ego_net_shape() {
        let db = facebook_database(FacebookParams::default(), 348);
        let edges = edge_count(&db);
        // Target 6384 directed edges ± 60% (random graph; the experiments
        // only need the same order of magnitude and skew).
        assert!(
            (2500..=12_000).contains(&edges),
            "edge count {edges} far from ego-net 348's 6384"
        );
    }

    #[test]
    fn query_classes_match_figure_5b() {
        let db = db();
        let (q4q, _) = q4(&db).unwrap();
        assert_eq!(classify(&q4q).unwrap().0, QueryClass::Cyclic);
        let (qwq, _) = qw(&db).unwrap();
        assert_eq!(classify(&qwq).unwrap().0, QueryClass::Path);
        let (qoq, _) = qo(&db).unwrap();
        assert_eq!(classify(&qoq).unwrap().0, QueryClass::Cyclic);
        let (qsq, _) = qs(&db).unwrap();
        // Acyclic but NOT doubly acyclic (§5.2 hard shape).
        assert_eq!(classify(&qsq).unwrap().0, QueryClass::Acyclic);
    }

    #[test]
    fn triangle_table_matches_triangle_query_on_r4() {
        // |Tri| must equal the triangle count of R4's edge bag.
        let db = db();
        let tri = db.relation_by_name("qs_Tri").unwrap().len();
        // Recount independently through the engine on the qo_R4 partition
        // (same partition 3, bound as (D,A) — use raw rows instead).
        let r4 = db.relation_by_name("qw_R4").unwrap();
        let edges: Vec<(i64, i64)> = r4
            .rows()
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect();
        let expected = triangle_rows(&edges).len();
        assert_eq!(tri, expected);
    }

    #[test]
    fn partitions_are_nonempty_bags() {
        let db = db();
        for rel in ["qw_R1", "qw_R2", "qw_R3", "qw_R4"] {
            assert!(!db.relation_by_name(rel).unwrap().is_empty(), "{rel} empty");
        }
        // Bag semantics: at least one edge should repeat across circles.
        let hist = multiplicity_histogram(&db, "qw_R1");
        assert!(hist.values().any(|&c| c > 1), "no multiplicities in R1");
    }
}
