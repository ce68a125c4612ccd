//! The DSL's abstract syntax: declarations, three-address statements, and
//! the algorithm specification that the translator consumes.
//!
//! Expressions are kept in **three-address form** (one operation per
//! statement) rather than as trees: the paper's translator turns the UDF
//! into a hierarchical dataflow graph whose nodes are single
//! multi-dimensional operations (§4.4), and three-address statements *are*
//! those nodes, so nothing is lost and translation stays direct. The parser
//! flattens nested source expressions into temporaries.

use crate::error::{DslError, DslResult};

/// Identifies a declared variable within one [`AlgoSpec`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct VarId(pub u32);

/// The declaration class of a variable (Table 1, "Data Types").
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum DataKind {
    /// One training tuple's feature portion (`dana.input`).
    Input,
    /// One training tuple's label portion (`dana.output`).
    Output,
    /// The learned model (`dana.model`).
    Model,
    /// Compile-time constant (`dana.meta`); shipped to the FPGA once.
    Meta,
    /// Intermediate value; auto-declared for temporaries (`dana.inter`).
    Inter,
}

/// A (possibly empty = scalar) list of dimension extents.
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Dims(pub Vec<usize>);

impl Dims {
    pub fn scalar() -> Dims {
        Dims(Vec::new())
    }

    pub fn vector(n: usize) -> Dims {
        Dims(vec![n])
    }

    pub fn matrix(rows: usize, cols: usize) -> Dims {
        Dims(vec![rows, cols])
    }

    pub fn rank(&self) -> usize {
        self.0.len()
    }

    pub fn is_scalar(&self) -> bool {
        self.0.is_empty()
    }

    /// Total element count (1 for scalars).
    pub fn elements(&self) -> usize {
        self.0.iter().product()
    }

    /// Broadcasts two operand shapes for an elementwise binary operation,
    /// per §4.4: "if both the inputs have same dimensions, it translates
    /// into an element by element operation ... In case the inputs do not
    /// have same dimensions, the input with lower dimension is logically
    /// replicated, and the generated output possess the dimensions of the
    /// larger input."
    ///
    /// Accepted pairings: identical shapes; a scalar with anything; a shape
    /// that is a trailing suffix of the other (replicated across the leading
    /// axes); and the paper's outer pairing of `[a][k]` with `[b][k]`
    /// (producing `[a][b][k]`, later reduced by a group op — the
    /// `sigma(mo * in, …)` matrix example of §4.4).
    pub fn broadcast(&self, other: &Dims, op: &str) -> DslResult<Dims> {
        if self == other {
            return Ok(self.clone());
        }
        if self.is_scalar() {
            return Ok(other.clone());
        }
        if other.is_scalar() {
            return Ok(self.clone());
        }
        // Trailing-suffix replication: [10] against [5][10] → [5][10].
        if self.rank() < other.rank() && other.0.ends_with(&self.0) {
            return Ok(other.clone());
        }
        if other.rank() < self.rank() && self.0.ends_with(&other.0) {
            return Ok(self.clone());
        }
        // Outer pairing on a shared trailing axis: [a][k] ⊗ [b][k] → [a][b][k].
        if self.rank() == 2
            && other.rank() == 2
            && self.0[1] == other.0[1]
            && self.0[0] != other.0[0]
        {
            return Ok(Dims(vec![self.0[0], other.0[0], self.0[1]]));
        }
        Err(DslError::DimMismatch {
            op: op.to_string(),
            left: self.0.clone(),
            right: other.0.clone(),
        })
    }

    /// Shape after reducing `axis` (1-based **from the right**: axis 1 is
    /// the innermost/feature axis). The paper's linear-regression example
    /// `sigma(mo * in, 1)` reduces a `[10]` vector to a scalar.
    pub fn reduce(&self, axis: usize) -> DslResult<Dims> {
        if axis == 0 || axis > self.rank().max(1) {
            return Err(DslError::BadAxis {
                axis,
                rank: self.rank(),
            });
        }
        if self.is_scalar() {
            // sigma over a scalar is the identity (rank().max(1) admits axis 1).
            return Ok(Dims::scalar());
        }
        let mut d = self.0.clone();
        d.remove(self.rank() - axis);
        Ok(Dims(d))
    }
}

impl std::fmt::Display for Dims {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_scalar() {
            write!(f, "scalar")
        } else {
            for d in &self.0 {
                write!(f, "[{d}]")?;
            }
            Ok(())
        }
    }
}

/// A declared variable.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct VarDecl {
    pub id: VarId,
    pub name: String,
    pub kind: DataKind,
    pub dims: Dims,
    /// Constant contents for `meta` variables (row-major).
    pub meta_value: Option<Vec<f64>>,
}

/// Elementwise binary operators (Table 1, "Primary operations").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Gt,
    Lt,
}

impl BinOp {
    pub fn symbol(&self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Gt => ">",
            BinOp::Lt => "<",
        }
    }

    /// Reference semantics in f32, the engine's native width; a comparison
    /// yields 1.0 or 0.0.
    pub fn apply(&self, a: f32, b: f32) -> f32 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
            BinOp::Gt => f32::from(a > b),
            BinOp::Lt => f32::from(a < b),
        }
    }
}

/// Non-linear unary functions (Table 1, "Non linear operations").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum UnaryFn {
    Sigmoid,
    Gaussian,
    Sqrt,
}

impl UnaryFn {
    pub fn name(&self) -> &'static str {
        match self {
            UnaryFn::Sigmoid => "sigmoid",
            UnaryFn::Gaussian => "gaussian",
            UnaryFn::Sqrt => "sqrt",
        }
    }

    /// Reference semantics (the engine's ALU evaluates these functions
    /// through it).
    pub fn apply(&self, x: f64) -> f64 {
        match self {
            UnaryFn::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            UnaryFn::Gaussian => (-(x * x)).exp(),
            UnaryFn::Sqrt => x.max(0.0).sqrt(),
        }
    }
}

/// Group (reduction) operators (Table 1, "Group operations").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum GroupOp {
    /// Summation.
    Sigma,
    /// Product.
    Pi,
    /// Euclidean norm (magnitude).
    Norm,
}

impl GroupOp {
    pub fn name(&self) -> &'static str {
        match self {
            GroupOp::Sigma => "sigma",
            GroupOp::Pi => "pi",
            GroupOp::Norm => "norm",
        }
    }
}

/// The right-hand side of a statement: exactly one operation.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum OpKind {
    /// Elementwise binary op with broadcasting.
    Binary(BinOp, VarId, VarId),
    /// Elementwise unary non-linear function.
    Unary(UnaryFn, VarId),
    /// Reduction along `axis` (1-based from the right).
    Group(GroupOp, VarId, usize),
    /// Row gather: `lookup(matrix, index)` — selects row `index` of a
    /// rank-2 model. Needed by LRMF, whose update rule reads and writes
    /// the factor rows a rating's `(i, j)` names.
    Gather { matrix: VarId, index: VarId },
    /// Copy / rename.
    Identity(VarId),
    /// Scalar literal.
    Const(f64),
}

impl OpKind {
    /// Variables read by this operation.
    pub fn operands(&self) -> Vec<VarId> {
        match self {
            OpKind::Binary(_, a, b) => vec![*a, *b],
            OpKind::Unary(_, a) | OpKind::Group(_, a, _) | OpKind::Identity(a) => vec![*a],
            OpKind::Gather { matrix, index } => vec![*matrix, *index],
            OpKind::Const(_) => vec![],
        }
    }
}

/// One three-address statement: `target := op`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Stmt {
    pub target: VarId,
    pub op: OpKind,
}

/// How parallel threads' results combine (Table 1: `merge(x, int, "op")`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum MergeOp {
    /// `"+"` — sum the per-thread values (gradient batching).
    Sum,
    /// `"avg"` — average them (parallel model averaging; the paper's second
    /// linear-regression merge example divides the sum by the coefficient).
    Avg,
    /// `"max"` — keep the maximum (useful for convergence flags).
    Max,
}

impl MergeOp {
    pub fn parse(s: &str) -> DslResult<MergeOp> {
        match s {
            "+" | "sum" => Ok(MergeOp::Sum),
            "avg" | "mean" => Ok(MergeOp::Avg),
            "max" => Ok(MergeOp::Max),
            other => Err(DslError::BadMerge(format!("unknown merge op '{other}'"))),
        }
    }
}

/// The merge point: which variable is combined across threads, how, and the
/// batch size (merge coefficient = maximum thread count, §4.3).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MergeSpec {
    /// Variable computed per-thread, merged across threads. Statements at
    /// index ≥ `boundary` read the *merged* value ("DAnA's compiler
    /// implicitly understands that the merge function is performed before
    /// the gradient descent optimizer", §4.3).
    pub var: VarId,
    pub coef: u32,
    pub op: MergeOp,
    /// Index into [`AlgoSpec::stmts`] where the post-merge region begins.
    pub boundary: usize,
}

/// Convergence criterion (Table 1: `setEpochs` / `setConvergence`).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Convergence {
    /// Fixed epoch count.
    Epochs(u32),
    /// Terminate when the given boolean (comparison-result) variable is
    /// true at the end of an epoch, with a safety cap on epochs.
    Condition { var: VarId, max_epochs: u32 },
}

/// A `setModel` binding (how the computed update writes back the model).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ModelUpdate {
    /// `setModel(src)` — the whole model becomes `src` after the merge.
    Whole { model: VarId, source: VarId },
    /// Row scatter: row `index` of `model` becomes `source` (LRMF).
    Row {
        model: VarId,
        index: VarId,
        source: VarId,
    },
}

impl ModelUpdate {
    pub fn model(&self) -> VarId {
        match self {
            ModelUpdate::Whole { model, .. } | ModelUpdate::Row { model, .. } => *model,
        }
    }

    pub fn source(&self) -> VarId {
        match self {
            ModelUpdate::Whole { source, .. } | ModelUpdate::Row { source, .. } => *source,
        }
    }
}

/// A complete UDF: the artifact the translator (and everything downstream)
/// consumes. Built by [`crate::builder::AlgoBuilder`] or
/// [`crate::parser::parse_udf`]; check with [`crate::validate::validate`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AlgoSpec {
    /// UDF name (`dana.algo` instance), used as the SQL-visible name.
    pub name: String,
    pub vars: Vec<VarDecl>,
    /// The update rule + convergence computation, in order.
    pub stmts: Vec<Stmt>,
    pub merge: Option<MergeSpec>,
    pub convergence: Convergence,
    pub model_updates: Vec<ModelUpdate>,
}

impl AlgoSpec {
    pub fn var(&self, id: VarId) -> &VarDecl {
        &self.vars[id.0 as usize]
    }

    /// All variables of a given kind, in declaration order.
    pub fn vars_of_kind(&self, kind: DataKind) -> impl Iterator<Item = &VarDecl> {
        self.vars.iter().filter(move |v| v.kind == kind)
    }

    /// Total feature width (sum of input-var elements) — the `x` portion of
    /// a training tuple.
    pub fn input_width(&self) -> usize {
        self.vars_of_kind(DataKind::Input)
            .map(|v| v.dims.elements())
            .sum()
    }

    /// Total label width.
    pub fn output_width(&self) -> usize {
        self.vars_of_kind(DataKind::Output)
            .map(|v| v.dims.elements())
            .sum()
    }

    /// Total model element count.
    pub fn model_elements(&self) -> usize {
        self.vars_of_kind(DataKind::Model)
            .map(|v| v.dims.elements())
            .sum()
    }

    /// The merge coefficient, defaulting to 1 (single-threaded) when the
    /// UDF declares no merge function.
    pub fn merge_coef(&self) -> u32 {
        self.merge.as_ref().map(|m| m.coef).unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_equal_and_scalar() {
        let v = Dims::vector(10);
        assert_eq!(v.broadcast(&v, "*").unwrap(), v);
        assert_eq!(Dims::scalar().broadcast(&v, "*").unwrap(), v);
        assert_eq!(v.broadcast(&Dims::scalar(), "*").unwrap(), v);
    }

    #[test]
    fn broadcast_suffix_replication() {
        let v = Dims::vector(10);
        let m = Dims::matrix(5, 10);
        assert_eq!(v.broadcast(&m, "*").unwrap(), m);
        assert_eq!(m.broadcast(&v, "*").unwrap(), m);
    }

    #[test]
    fn broadcast_outer_pairing_matches_paper_example() {
        // §4.4: mo [5][10] * in [2][10], then sigma → [5][2].
        let mo = Dims::matrix(5, 10);
        let inp = Dims::matrix(2, 10);
        let prod = mo.broadcast(&inp, "*").unwrap();
        assert_eq!(prod, Dims(vec![5, 2, 10]));
        let reduced = prod.reduce(1).unwrap();
        assert_eq!(reduced, Dims(vec![5, 2]));
    }

    #[test]
    fn broadcast_rejects_mismatches() {
        let a = Dims::vector(10);
        let b = Dims::vector(7);
        assert!(matches!(
            a.broadcast(&b, "+"),
            Err(DslError::DimMismatch { .. })
        ));
    }

    #[test]
    fn reduce_axes_count_from_right() {
        let m = Dims::matrix(5, 10);
        assert_eq!(m.reduce(1).unwrap(), Dims::vector(5)); // sum features
        assert_eq!(m.reduce(2).unwrap(), Dims::vector(10)); // sum rows
        assert!(m.reduce(3).is_err());
        assert!(m.reduce(0).is_err());
    }

    #[test]
    fn reduce_scalar_is_identity() {
        assert_eq!(Dims::scalar().reduce(1).unwrap(), Dims::scalar());
    }

    #[test]
    fn unary_fn_reference_semantics() {
        assert!((UnaryFn::Sigmoid.apply(0.0) - 0.5).abs() < 1e-12);
        assert!((UnaryFn::Gaussian.apply(0.0) - 1.0).abs() < 1e-12);
        assert!((UnaryFn::Sqrt.apply(4.0) - 2.0).abs() < 1e-12);
        // sqrt clamps negatives (hardware ALU behaviour).
        assert_eq!(UnaryFn::Sqrt.apply(-1.0), 0.0);
    }

    #[test]
    fn merge_op_parsing() {
        assert_eq!(MergeOp::parse("+").unwrap(), MergeOp::Sum);
        assert_eq!(MergeOp::parse("avg").unwrap(), MergeOp::Avg);
        assert_eq!(MergeOp::parse("max").unwrap(), MergeOp::Max);
        assert!(MergeOp::parse("^").is_err());
    }

    #[test]
    fn dims_display() {
        assert_eq!(Dims::scalar().to_string(), "scalar");
        assert_eq!(Dims::matrix(5, 2).to_string(), "[5][2]");
    }

    #[test]
    fn opkind_operands() {
        let a = VarId(0);
        let b = VarId(1);
        assert_eq!(OpKind::Binary(BinOp::Add, a, b).operands(), vec![a, b]);
        assert_eq!(OpKind::Const(1.0).operands(), vec![]);
        assert_eq!(
            OpKind::Gather {
                matrix: a,
                index: b
            }
            .operands(),
            vec![a, b]
        );
    }
}
