//! The embedded builder API — the Rust equivalent of the paper's
//! Python-embedded DSL (§4.2–4.3).
//!
//! The linear-regression example from §4.3 translates line-for-line:
//!
//! ```
//! use dana_dsl::{AlgoBuilder, MergeOp};
//!
//! let mut a = AlgoBuilder::new("linearR");
//! let mo = a.model("mo", &[10]);
//! let x = a.input("in", &[10]);
//! let y = a.output("out");
//! let lr = a.meta("lr", 0.3);
//!
//! let prod = a.mul(mo, x).unwrap();
//! let s = a.sigma(prod, 1).unwrap();            // s = sigma(mo * in, 1)
//! let er = a.sub(s, y).unwrap();                        // er = s - out
//! let grad = a.mul(er, x).unwrap();                     // grad = er * in
//! let grad = a.merge(grad, 8, MergeOp::Sum).unwrap();   // merge(grad, 8, "+")
//! let up = a.mul(lr, grad).unwrap();                    // up = lr * grad
//! let mo_up = a.sub(mo, up).unwrap();                   // mo_up = mo - up
//! a.set_model(mo, mo_up).unwrap();                      // setModel(mo_up)
//! a.set_epochs(10_000);
//! let spec = a.finish().unwrap();
//! assert_eq!(spec.input_width(), 10);
//! ```

use crate::ast::{
    AlgoSpec, BinOp, Convergence, DataKind, Dims, GroupOp, MergeOp, MergeSpec, ModelUpdate, OpKind,
    Stmt, UnaryFn, VarDecl, VarId,
};
use crate::error::{DslError, DslResult};
use crate::validate;

/// A lightweight handle to a declared variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VarRef(pub(crate) VarId);

impl VarRef {
    pub fn id(&self) -> VarId {
        self.0
    }
}

/// Incrementally constructs an [`AlgoSpec`]. Dimension inference runs
/// *eagerly*: every operation checks its operands as it is recorded, so
/// shape bugs surface at the line that writes them — the same experience as
/// the paper's translator erroring on the Python source.
pub struct AlgoBuilder {
    name: String,
    vars: Vec<VarDecl>,
    stmts: Vec<Stmt>,
    merge: Option<MergeSpec>,
    convergence: Option<Convergence>,
    model_updates: Vec<ModelUpdate>,
    next_temp: u32,
}

impl AlgoBuilder {
    /// Renames the UDF (used by the parser when it encounters
    /// `name = dana.algo(...)` after construction).
    pub fn set_name(&mut self, name: &str) {
        self.name = name.to_string();
    }

    pub fn new(name: &str) -> AlgoBuilder {
        AlgoBuilder {
            name: name.to_string(),
            vars: Vec::new(),
            stmts: Vec::new(),
            merge: None,
            convergence: None,
            model_updates: Vec::new(),
            next_temp: 0,
        }
    }

    // ----- data declarations (Table 1) ---------------------------------

    fn declare(
        &mut self,
        name: &str,
        kind: DataKind,
        dims: Dims,
        meta: Option<Vec<f64>>,
    ) -> VarRef {
        assert!(
            !self.vars.iter().any(|v| v.name == name),
            "variable '{name}' declared twice"
        );
        let id = VarId(self.vars.len() as u32);
        self.vars.push(VarDecl {
            id,
            name: name.to_string(),
            kind,
            dims,
            meta_value: meta,
        });
        VarRef(id)
    }

    /// `dana.model([dims…])`
    pub fn model(&mut self, name: &str, dims: &[usize]) -> VarRef {
        self.declare(name, DataKind::Model, Dims(dims.to_vec()), None)
    }

    /// `dana.input([dims…])`
    pub fn input(&mut self, name: &str, dims: &[usize]) -> VarRef {
        self.declare(name, DataKind::Input, Dims(dims.to_vec()), None)
    }

    /// `dana.output()` — scalar output.
    pub fn output(&mut self, name: &str) -> VarRef {
        self.declare(name, DataKind::Output, Dims::scalar(), None)
    }

    /// `dana.output([dims…])` — multi-dimensional output.
    pub fn output_dims(&mut self, name: &str, dims: &[usize]) -> VarRef {
        self.declare(name, DataKind::Output, Dims(dims.to_vec()), None)
    }

    /// `dana.meta(v)` — scalar compile-time constant.
    pub fn meta(&mut self, name: &str, value: f64) -> VarRef {
        self.declare(name, DataKind::Meta, Dims::scalar(), Some(vec![value]))
    }

    // ----- internals ----------------------------------------------------

    fn dims_of(&self, v: VarRef) -> &Dims {
        &self.vars[v.0 .0 as usize].dims
    }

    fn fresh_inter(&mut self, dims: Dims) -> VarRef {
        let name = format!("%t{}", self.next_temp);
        self.next_temp += 1;
        self.declare(&name, DataKind::Inter, dims, None)
    }

    fn push(&mut self, dims: Dims, op: OpKind) -> VarRef {
        let target = self.fresh_inter(dims);
        self.stmts.push(Stmt {
            target: target.0,
            op,
        });
        target
    }

    // ----- mathematical operations (Table 1) ----------------------------

    fn binary(&mut self, op: BinOp, a: VarRef, b: VarRef) -> DslResult<VarRef> {
        let dims = self.dims_of(a).broadcast(self.dims_of(b), op.symbol())?;
        Ok(self.push(dims, OpKind::Binary(op, a.0, b.0)))
    }

    pub fn add(&mut self, a: VarRef, b: VarRef) -> DslResult<VarRef> {
        self.binary(BinOp::Add, a, b)
    }

    pub fn sub(&mut self, a: VarRef, b: VarRef) -> DslResult<VarRef> {
        self.binary(BinOp::Sub, a, b)
    }

    pub fn mul(&mut self, a: VarRef, b: VarRef) -> DslResult<VarRef> {
        self.binary(BinOp::Mul, a, b)
    }

    pub fn div(&mut self, a: VarRef, b: VarRef) -> DslResult<VarRef> {
        self.binary(BinOp::Div, a, b)
    }

    pub fn gt(&mut self, a: VarRef, b: VarRef) -> DslResult<VarRef> {
        self.binary(BinOp::Gt, a, b)
    }

    pub fn lt(&mut self, a: VarRef, b: VarRef) -> DslResult<VarRef> {
        self.binary(BinOp::Lt, a, b)
    }

    fn unary(&mut self, f: UnaryFn, a: VarRef) -> VarRef {
        let dims = self.dims_of(a).clone();
        self.push(dims, OpKind::Unary(f, a.0))
    }

    pub fn sigmoid(&mut self, a: VarRef) -> VarRef {
        self.unary(UnaryFn::Sigmoid, a)
    }

    pub fn gaussian(&mut self, a: VarRef) -> VarRef {
        self.unary(UnaryFn::Gaussian, a)
    }

    pub fn sqrt(&mut self, a: VarRef) -> VarRef {
        self.unary(UnaryFn::Sqrt, a)
    }

    fn group(&mut self, g: GroupOp, a: VarRef, axis: usize) -> DslResult<VarRef> {
        let dims = self.dims_of(a).reduce(axis)?;
        Ok(self.push(dims, OpKind::Group(g, a.0, axis)))
    }

    /// `sigma(x, axis)` — summation.
    pub fn sigma(&mut self, a: VarRef, axis: usize) -> DslResult<VarRef> {
        self.group(GroupOp::Sigma, a, axis)
    }

    /// `pi(x, axis)` — product.
    pub fn pi(&mut self, a: VarRef, axis: usize) -> DslResult<VarRef> {
        self.group(GroupOp::Pi, a, axis)
    }

    /// `norm(x, axis)` — Euclidean magnitude.
    pub fn norm(&mut self, a: VarRef, axis: usize) -> DslResult<VarRef> {
        self.group(GroupOp::Norm, a, axis)
    }

    /// `lookup(matrix, index)` — gathers one row of a rank-2 model (LRMF).
    pub fn lookup(&mut self, matrix: VarRef, index: VarRef) -> DslResult<VarRef> {
        let mdims = self.dims_of(matrix);
        if mdims.rank() != 2 {
            return Err(DslError::Invalid(format!(
                "lookup target must be rank-2, got {mdims}"
            )));
        }
        if !self.dims_of(index).is_scalar() {
            return Err(DslError::Invalid("lookup index must be scalar".into()));
        }
        let row = Dims::vector(mdims.0[1]);
        Ok(self.push(
            row,
            OpKind::Gather {
                matrix: matrix.0,
                index: index.0,
            },
        ))
    }

    /// A scalar literal appearing inline in an expression.
    pub fn constant(&mut self, v: f64) -> VarRef {
        self.push(Dims::scalar(), OpKind::Const(v))
    }

    // ----- built-in special functions (Table 1) --------------------------

    /// `merge(x, coef, op)`. Subsequent statements observe the merged value
    /// of `x`. Only one merge point per UDF (as in the paper's examples).
    pub fn merge(&mut self, x: VarRef, coef: u32, op: MergeOp) -> DslResult<VarRef> {
        if self.merge.is_some() {
            return Err(DslError::BadMerge("merge() called twice".into()));
        }
        if coef == 0 {
            return Err(DslError::BadMergeCoef(coef));
        }
        self.merge = Some(MergeSpec {
            var: x.0,
            coef,
            op,
            boundary: self.stmts.len(),
        });
        Ok(x)
    }

    /// `setEpochs(n)`.
    pub fn set_epochs(&mut self, epochs: u32) {
        self.convergence = Some(Convergence::Epochs(epochs));
    }

    /// `setConvergence(cond)` with a safety cap on epochs.
    pub fn set_convergence(&mut self, cond: VarRef, max_epochs: u32) {
        self.convergence = Some(Convergence::Condition {
            var: cond.0,
            max_epochs,
        });
    }

    /// `setModel(source)` updating `model`.
    pub fn set_model(&mut self, model: VarRef, source: VarRef) -> DslResult<()> {
        self.model_updates.push(ModelUpdate::Whole {
            model: model.0,
            source: source.0,
        });
        Ok(())
    }

    /// Row-scatter model update: `model[index] := source` (LRMF).
    pub fn set_model_row(&mut self, model: VarRef, index: VarRef, source: VarRef) -> DslResult<()> {
        self.model_updates.push(ModelUpdate::Row {
            model: model.0,
            index: index.0,
            source: source.0,
        });
        Ok(())
    }

    /// Finalizes and validates the spec.
    pub fn finish(self) -> DslResult<AlgoSpec> {
        let spec = AlgoSpec {
            name: self.name,
            vars: self.vars,
            stmts: self.stmts,
            merge: self.merge,
            convergence: self.convergence.unwrap_or(Convergence::Epochs(1)),
            model_updates: self.model_updates,
        };
        validate::validate(&spec)?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_regression() -> AlgoSpec {
        let mut a = AlgoBuilder::new("linearR");
        let mo = a.model("mo", &[10]);
        let x = a.input("in", &[10]);
        let y = a.output("out");
        let lr = a.meta("lr", 0.3);
        let prod = a.mul(mo, x).unwrap();
        let s = a.sigma(prod, 1).unwrap();
        let er = a.sub(s, y).unwrap();
        let grad = a.mul(er, x).unwrap();
        let grad = a.merge(grad, 8, MergeOp::Sum).unwrap();
        let up = a.mul(lr, grad).unwrap();
        let mo_up = a.sub(mo, up).unwrap();
        a.set_model(mo, mo_up).unwrap();
        a.set_epochs(100);
        a.finish().unwrap()
    }

    #[test]
    fn linear_regression_builds() {
        let spec = linear_regression();
        assert_eq!(spec.name, "linearR");
        assert_eq!(spec.input_width(), 10);
        assert_eq!(spec.output_width(), 1);
        assert_eq!(spec.model_elements(), 10);
        assert_eq!(spec.merge_coef(), 8);
        assert_eq!(spec.stmts.len(), 6);
        // Merge boundary sits after grad (mul, sigma, sub, mul precede it).
        assert_eq!(spec.merge.as_ref().unwrap().boundary, 4);
    }

    #[test]
    fn dims_propagate_through_ops() {
        let mut a = AlgoBuilder::new("t");
        let m = a.model("m", &[5, 10]);
        let x = a.input("x", &[10]);
        let prod = a.mul(m, x).unwrap(); // [5][10] broadcast
        let s = a.sigma(prod, 1).unwrap(); // [5]
        let sq = a.sqrt(s); // [5]
        let spec_dims = |b: &AlgoBuilder, v: VarRef| b.dims_of(v).clone();
        assert_eq!(spec_dims(&a, prod), Dims::matrix(5, 10));
        assert_eq!(spec_dims(&a, s), Dims::vector(5));
        assert_eq!(spec_dims(&a, sq), Dims::vector(5));
    }

    #[test]
    fn shape_errors_surface_at_call_site() {
        let mut a = AlgoBuilder::new("t");
        let m = a.model("m", &[10]);
        let x = a.input("x", &[7]);
        assert!(matches!(a.mul(m, x), Err(DslError::DimMismatch { .. })));
    }

    #[test]
    fn missing_set_model_is_rejected() {
        let mut a = AlgoBuilder::new("t");
        let m = a.model("m", &[4]);
        let x = a.input("x", &[4]);
        let _ = a.mul(m, x).unwrap();
        a.set_epochs(1);
        assert!(matches!(a.finish(), Err(DslError::NoModelUpdate)));
    }

    #[test]
    fn model_shape_mismatch_rejected() {
        let mut a = AlgoBuilder::new("t");
        let m = a.model("m", &[4]);
        let x = a.input("x", &[4]);
        let p = a.mul(m, x).unwrap();
        let s = a.sigma(p, 1).unwrap(); // scalar
        a.set_model(m, s).unwrap();
        a.set_epochs(1);
        assert!(matches!(
            a.finish(),
            Err(DslError::ModelShapeMismatch { .. })
        ));
    }

    #[test]
    fn double_merge_rejected() {
        let mut a = AlgoBuilder::new("t");
        let m = a.model("m", &[4]);
        let x = a.input("x", &[4]);
        let p = a.mul(m, x).unwrap();
        a.merge(p, 4, MergeOp::Sum).unwrap();
        assert!(a.merge(p, 4, MergeOp::Sum).is_err());
    }

    #[test]
    fn zero_merge_coef_rejected() {
        let mut a = AlgoBuilder::new("t");
        let m = a.model("m", &[4]);
        let x = a.input("x", &[4]);
        let p = a.mul(m, x).unwrap();
        assert!(matches!(
            a.merge(p, 0, MergeOp::Sum),
            Err(DslError::BadMergeCoef(0))
        ));
    }

    #[test]
    fn convergence_condition_accepted() {
        let mut a = AlgoBuilder::new("t");
        let m = a.model("m", &[4]);
        let x = a.input("x", &[4]);
        let y = a.output("y");
        let p = a.mul(m, x).unwrap();
        let s = a.sigma(p, 1).unwrap();
        let e = a.sub(s, y).unwrap();
        let g = a.mul(e, x).unwrap();
        let mo_up = a.sub(m, g).unwrap();
        a.set_model(m, mo_up).unwrap();
        let n = a.norm(g, 1).unwrap();
        let thresh = a.meta("cf", 0.01);
        let conv = a.lt(n, thresh).unwrap();
        a.set_convergence(conv, 500);
        let spec = a.finish().unwrap();
        assert!(matches!(
            spec.convergence,
            Convergence::Condition {
                max_epochs: 500,
                ..
            }
        ));
    }

    #[test]
    fn lookup_requires_rank2_matrix_and_scalar_index() {
        let mut a = AlgoBuilder::new("t");
        let l = a.model("L", &[100, 10]);
        let i = a.input("i", &[]);
        let row = a.lookup(l, i).unwrap();
        assert_eq!(a.dims_of(row), &Dims::vector(10));
        let v = a.model("v", &[10]);
        assert!(a.lookup(v, i).is_err());
        let bad_idx = a.input("jj", &[3]);
        assert!(a.lookup(l, bad_idx).is_err());
    }

    #[test]
    #[should_panic(expected = "declared twice")]
    fn duplicate_declaration_panics() {
        let mut a = AlgoBuilder::new("t");
        a.model("m", &[4]);
        a.model("m", &[4]);
    }
}
