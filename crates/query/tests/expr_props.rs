//! Property tests of the expression evaluator: Kleene-logic laws,
//! conjunct-split/rebuild equivalence, and substitution identity.

use bullfrog_common::{Row, Value};
use bullfrog_query::{conjoin, conjuncts, ColRef, Expr, Scope};
use proptest::prelude::*;

fn scope() -> Scope {
    Scope::table("t", &["a".into(), "b".into(), "c".into()])
}

/// Binds `e` through the scope's names, then evaluates `r` by position.
fn eval(e: &Expr, r: &Row) -> Value {
    let s = scope();
    e.bind(&mut |c| s.resolve(c)).unwrap().eval(r).unwrap()
}

/// [`eval`] as a WHERE predicate.
fn matches(e: &Expr, r: &Row) -> bool {
    let s = scope();
    e.bind(&mut |c| s.resolve(c)).unwrap().matches(r).unwrap()
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-5i64..5).prop_map(Value::Int),
        any::<bool>().prop_map(Value::Bool),
    ]
}

fn arb_row() -> impl Strategy<Value = Row> {
    proptest::collection::vec((-5i64..5).prop_map(Value::Int), 3..=3).prop_map(Row)
}

/// Random boolean expression over columns a, b, c and small literals.
fn arb_bool_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (
            prop_oneof![Just("a"), Just("b"), Just("c")],
            -5i64..5,
            0u8..3
        )
            .prop_map(|(c, v, op)| {
                let lhs = Expr::column(c);
                let rhs = Expr::lit(v);
                match op {
                    0 => lhs.eq(rhs),
                    1 => lhs.lt(rhs),
                    _ => lhs.ge(rhs),
                }
            }),
        arb_value().prop_map(|v| match v {
            Value::Bool(b) => Expr::lit(b),
            Value::Null => Expr::null(),
            other => Expr::Lit(other).eq(Expr::lit(0)),
        }),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(|a| a.not()),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn double_negation_preserves_matching(e in arb_bool_expr(), r in arb_row()) {
        let direct = eval(&e, &r);
        let doubled = eval(&e.not().not(), &r);
        prop_assert_eq!(direct, doubled);
    }

    #[test]
    fn and_or_commute(a in arb_bool_expr(), b in arb_bool_expr(), r in arb_row()) {
        prop_assert_eq!(
            eval(&a.clone().and(b.clone()), &r),
            eval(&b.clone().and(a.clone()), &r)
        );
        prop_assert_eq!(eval(&a.clone().or(b.clone()), &r), eval(&b.or(a), &r));
    }

    #[test]
    fn de_morgan_holds(a in arb_bool_expr(), b in arb_bool_expr(), r in arb_row()) {
        let lhs = eval(&a.clone().and(b.clone()).not(), &r);
        let rhs = eval(&a.not().or(b.not()), &r);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn conjunct_roundtrip_preserves_matches(
        parts in proptest::collection::vec(arb_bool_expr(), 1..5),
        r in arb_row(),
    ) {
        let pred = parts.clone().into_iter().reduce(Expr::and).expect("non-empty");
        let rebuilt = conjoin(conjuncts(&pred)).expect("non-empty");
        prop_assert_eq!(matches(&pred, &r), matches(&rebuilt, &r));
    }

    #[test]
    fn identity_substitution_is_noop(e in arb_bool_expr(), r in arb_row()) {
        let mapped = e.map_columns(&|c: &ColRef| Some(Expr::Col(c.clone())));
        prop_assert_eq!(eval(&e, &r), eval(&mapped, &r));
    }

    #[test]
    fn matches_is_true_only_on_bool_true(e in arb_bool_expr(), r in arb_row()) {
        prop_assert_eq!(matches(&e, &r), eval(&e, &r) == Value::Bool(true));
    }
}
