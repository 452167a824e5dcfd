//! Property-based tests: the BDD library must be a correct boolean algebra
//! and its canonical handles must coincide with semantic equality.

use exspan_bdd::{Bdd, BddManager, VarId};
use proptest::prelude::*;

/// A small boolean-expression AST we build random instances of, then check
/// that the BDD evaluation matches direct evaluation under every assignment
/// of the (small) variable set.
#[derive(Debug, Clone)]
enum Expr {
    Var(VarId),
    Const(bool),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
}

fn arb_expr(num_vars: u32) -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0..num_vars).prop_map(Expr::Var),
        any::<bool>().prop_map(Expr::Const),
    ];
    leaf.prop_recursive(4, 32, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
        ]
    })
}

fn eval_direct(e: &Expr, assignment: u32) -> bool {
    match e {
        Expr::Var(v) => assignment & (1 << v) != 0,
        Expr::Const(c) => *c,
        Expr::Not(a) => !eval_direct(a, assignment),
        Expr::And(a, b) => eval_direct(a, assignment) && eval_direct(b, assignment),
        Expr::Or(a, b) => eval_direct(a, assignment) || eval_direct(b, assignment),
    }
}

fn build_bdd(m: &mut BddManager, e: &Expr) -> Bdd {
    match e {
        Expr::Var(v) => m.var(*v),
        Expr::Const(c) => m.constant(*c),
        Expr::Not(a) => {
            let x = build_bdd(m, a);
            m.not(x)
        }
        Expr::And(a, b) => {
            let x = build_bdd(m, a);
            let y = build_bdd(m, b);
            m.and(x, y)
        }
        Expr::Or(a, b) => {
            let x = build_bdd(m, a);
            let y = build_bdd(m, b);
            m.or(x, y)
        }
    }
}

const NUM_VARS: u32 = 5;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The BDD of an expression evaluates identically to the expression under
    /// every assignment of the variables.
    #[test]
    fn bdd_matches_truth_table(e in arb_expr(NUM_VARS)) {
        let mut m = BddManager::new();
        let b = build_bdd(&mut m, &e);
        for assignment in 0u32..(1 << NUM_VARS) {
            let expected = eval_direct(&e, assignment);
            let got = m.evaluate(b, |v| assignment & (1 << v) != 0);
            prop_assert_eq!(expected, got, "assignment {:b}", assignment);
        }
    }

    /// Semantically equivalent constructions produce identical handles
    /// (canonicity), exercised via De Morgan's laws.
    #[test]
    fn de_morgan_canonicity(e1 in arb_expr(NUM_VARS), e2 in arb_expr(NUM_VARS)) {
        let mut m = BddManager::new();
        let a = build_bdd(&mut m, &e1);
        let b = build_bdd(&mut m, &e2);
        let lhs = { let ab = m.and(a, b); m.not(ab) };
        let rhs = { let na = m.not(a); let nb = m.not(b); m.or(na, nb) };
        prop_assert_eq!(lhs, rhs);
    }

    /// Absorption law holds for arbitrary operands: a + a·b == a and
    /// a · (a + b) == a.
    #[test]
    fn absorption_law(e1 in arb_expr(NUM_VARS), e2 in arb_expr(NUM_VARS)) {
        let mut m = BddManager::new();
        let a = build_bdd(&mut m, &e1);
        let b = build_bdd(&mut m, &e2);
        let ab = m.and(a, b);
        prop_assert_eq!(m.or(a, ab), a);
        let a_or_b = m.or(a, b);
        prop_assert_eq!(m.and(a, a_or_b), a);
    }

    /// sat_count agrees with a brute-force truth-table count.
    #[test]
    fn sat_count_matches_bruteforce(e in arb_expr(NUM_VARS)) {
        let mut m = BddManager::new();
        let b = build_bdd(&mut m, &e);
        let brute = (0u32..(1 << NUM_VARS))
            .filter(|&a| eval_direct(&e, a))
            .count() as u64;
        prop_assert_eq!(m.sat_count(b, NUM_VARS), Some(brute));
    }

    /// Restricting a variable and evaluating equals evaluating with that
    /// variable fixed.
    #[test]
    fn restrict_consistent_with_evaluate(e in arb_expr(NUM_VARS), var in 0..NUM_VARS, val: bool) {
        let mut m = BddManager::new();
        let b = build_bdd(&mut m, &e);
        let restricted = m.restrict(b, var, val);
        for assignment in 0u32..(1 << NUM_VARS) {
            let forced = if val { assignment | (1 << var) } else { assignment & !(1 << var) };
            let lhs = m.evaluate(restricted, |v| assignment & (1 << v) != 0 && v != var || (v == var && val));
            let rhs = m.evaluate(b, |v| forced & (1 << v) != 0);
            prop_assert_eq!(lhs, rhs);
        }
    }

    /// The support of a BDD never contains variables the expression does not
    /// mention, and evaluation only depends on support variables.
    #[test]
    fn support_is_sound(e in arb_expr(NUM_VARS)) {
        let mut m = BddManager::new();
        let b = build_bdd(&mut m, &e);
        let support = m.support(b);
        for &v in &support {
            prop_assert!(v < NUM_VARS);
        }
        // Flipping a non-support variable never changes the value.
        for assignment in 0u32..(1 << NUM_VARS) {
            for v in 0..NUM_VARS {
                if support.contains(&v) { continue; }
                let flipped = assignment ^ (1 << v);
                let a1 = m.evaluate(b, |x| assignment & (1 << x) != 0);
                let a2 = m.evaluate(b, |x| flipped & (1 << x) != 0);
                prop_assert_eq!(a1, a2);
            }
        }
    }
}
