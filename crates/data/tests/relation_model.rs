//! Model-based property test of the chunked copy-on-write [`Relation`]
//! against a plain `Vec<Row>`: random `push` / `remove_one` / `retain`
//! streams, with clones taken mid-stream, over relations large enough to
//! span several 1024-row chunks. The row sequence must match the model
//! exactly (including `swap_remove` order), and no later mutation of the
//! original may disturb a clone.

use proptest::prelude::*;
use tsens_data::{AttrId, Relation, Row, Schema, Value};

fn row(x: i64) -> Row {
    vec![Value::Int(x), Value::Int(x % 3)]
}

/// The model's `remove_one`: last occurrence, `swap_remove`d.
fn model_remove_one(model: &mut Vec<Row>, r: &Row) -> bool {
    match model.iter().rposition(|m| m == r) {
        Some(pos) => {
            model.swap_remove(pos);
            true
        }
        None => false,
    }
}

fn assert_same(rel: &Relation, model: &[Row], label: &str) {
    assert_eq!(rel.len(), model.len(), "len ({label})");
    assert_eq!(rel.rows().to_vec(), model, "row sequence ({label})");
    assert!(
        rel.iter().rev().eq(model.iter().rev()),
        "reverse iteration ({label})"
    );
    assert_eq!(rel.iter().len(), model.len(), "exact size ({label})");
    for i in [0, model.len() / 2, model.len().saturating_sub(1)] {
        if i < model.len() {
            assert_eq!(rel.rows()[i], model[i], "index {i} ({label})");
        }
    }
    assert_eq!(rel.rows().first(), model.first(), "first ({label})");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn chunked_relation_matches_vec_model(
        initial in 0..2600usize,
        domain in 1..40i64,
        // kinds: 0-2 push, 3-5 remove_one, 6 clone, 7 retain.
        ops in prop::collection::vec((0..8usize, 0..40i64), 1..80),
    ) {
        let schema = Schema::new(vec![AttrId(0), AttrId(1)]);
        let mut model: Vec<Row> = (0..initial as i64).map(|i| row(i * 7 % domain)).collect();
        let mut rel = Relation::from_rows(schema, model.clone());
        let mut clones: Vec<(Relation, Vec<Row>)> = Vec::new();
        assert_same(&rel, &model, "initial");

        for (step, &(kind, x)) in ops.iter().enumerate() {
            let r = row(x % domain);
            let label = format!("step {step}, kind {kind}");
            match kind {
                0..=2 => {
                    // Bursts push across chunk boundaries.
                    for k in 0..1 + x * 7 {
                        let r = row((x + k) % domain);
                        rel.push(r.clone());
                        model.push(r);
                    }
                }
                3..=5 => {
                    prop_assert_eq!(rel.remove_one(&r), model_remove_one(&mut model, &r), "{}", label);
                }
                6 => clones.push((rel.clone(), model.clone())),
                _ => {
                    rel.retain(|t| t != r.as_slice());
                    model.retain(|t| t != &r);
                }
            }
            assert_same(&rel, &model, &label);
        }
        // Mutations never restore a clobbered row, so checking the
        // clones once at the end catches any write that leaked into them.
        for (i, (clone, snapshot)) in clones.iter().enumerate() {
            assert_same(clone, snapshot, &format!("clone {i}"));
        }
    }
}

/// Removing from the middle of a cloned relation of exactly two full
/// chunks (empty tail) moves the last row into the hole in the original
/// only.
#[test]
fn clone_then_swap_remove_across_chunks() {
    let schema = Schema::new(vec![AttrId(0), AttrId(1)]);
    let rows: Vec<Row> = (0..2048).map(row).collect();
    let mut rel = Relation::from_rows(schema, rows.clone());
    let snapshot = rel.clone();
    assert!(rel.remove_one(&row(10)));
    assert_eq!(rel.rows()[10], row(2047));
    assert_eq!(rel.len(), 2047);
    assert_eq!(snapshot.rows().to_vec(), rows);
    rel.push(row(5000));
    assert_eq!(rel.rows()[2047], row(5000));
    assert_eq!(snapshot.len(), 2048);
    assert_eq!(snapshot.rows()[2047], row(2047));
}
