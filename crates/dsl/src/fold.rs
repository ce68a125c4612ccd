//! The order each group operation folds its operands in.
//!
//! A reduction's value depends on that order in floating point, and the
//! order belongs to the schedule: the compiler folds a chain per AU and
//! joins the chains in a pairwise tree (§6.2). It records the order here
//! as it emits it, so an interpreter of the DSL can fold the same way.

use crate::ast::{AlgoSpec, OpKind};

/// How one output element's operands fold: a binary tree over their
/// positions along the reduced axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fold {
    /// The k-th operand.
    Operand(usize),
    /// `left ∘ right`.
    Join(Box<Fold>, Box<Fold>),
}

impl Fold {
    /// `self ∘ right`.
    pub fn join(self, right: Fold) -> Fold {
        Fold::Join(Box::new(self), Box::new(right))
    }

    /// Folds `operand(k)` with `op` in this order.
    pub fn eval(&self, operand: &impl Fn(usize) -> f32, op: &impl Fn(f32, f32) -> f32) -> f32 {
        match self {
            Fold::Operand(k) => operand(*k),
            Fold::Join(left, right) => op(left.eval(operand, op), right.eval(operand, op)),
        }
    }
}

/// The fold order of every group statement of a program, in statement
/// order: one [`Fold`] per output element. A group over compile-time
/// constants is folded by the compiler in f64 and records none.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FoldOrder {
    pub groups: Vec<Vec<Fold>>,
}

impl FoldOrder {
    /// The order on one AU: every reduction is one chain in axis order.
    pub fn one_au(spec: &AlgoSpec) -> FoldOrder {
        let chain = |n| (1..n).fold(Fold::Operand(0), |f, k| f.join(Fold::Operand(k)));
        let groups = spec.stmts.iter().filter_map(|s| match s.op {
            OpKind::Group(_, x, axis) => {
                let dims = &spec.var(x).dims;
                let extent = dims.rank().checked_sub(axis).map_or(1, |d| dims.0[d]);
                Some(vec![chain(extent); spec.var(s.target).dims.elements()])
            }
            _ => None,
        });
        FoldOrder {
            groups: groups.collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folds_evaluate_in_their_recorded_order() {
        let vals = [1.0f32, 1e8, -1e8, 3.0];
        let sum = |f: &Fold| f.eval(&|k| vals[k], &|a, b| a + b);
        let op = Fold::Operand;
        // ((1 + 1e8) − 1e8) + 3 loses the 1 in f32 …
        let chain = op(0).join(op(1)).join(op(2)).join(op(3));
        assert_eq!(sum(&chain), 3.0);
        // … (1 + 3) + (1e8 − 1e8) keeps it.
        assert_eq!(sum(&op(0).join(op(3)).join(op(1).join(op(2)))), 4.0);
        assert_eq!(sum(&op(2)), -1e8);
    }

    #[test]
    fn one_au_chains_every_group_in_axis_order() {
        let spec = crate::zoo::lrmf(crate::zoo::LrmfParams::default()).unwrap();
        let order = FoldOrder::one_au(&spec);
        let chain = (1..10).fold(Fold::Operand(0), |f, k| f.join(Fold::Operand(k)));
        assert_eq!(order.groups, vec![vec![chain]]);
    }
}
