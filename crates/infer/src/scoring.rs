//! Deploy-time scoring lowering: deriving a forward-pass-only program
//! from a trained analytic.
//!
//! Training UDFs compute `update(model, tuple)`; inference only needs the
//! *hypothesis* part of that computation — the paper's MADlib-style
//! workflow trains in-database and then scores/evaluates in-database
//! (Bismarck frames both as first-class in-RDBMS operations). The
//! [`derive_recipe`] pass runs at DEPLOY, beside the training lowering:
//! it inspects the DSL program's structure and extracts the forward pass
//!
//! * **dense families** — `link(w·x)`: identity for linear regression,
//!   `σ` for logistic regression, the raw signed margin for SVM (the
//!   comparison operator that gates the hinge sub-gradient marks the
//!   family);
//! * **LRMF** — the factor product `L[i]·R[j]` (row gathers marked by the
//!   DSL's `lookup`).
//!
//! The recipe is model-value-free: it is cached on the catalog entry at
//! DEPLOY, then bound to the *latest trained model values* at
//! PREDICT/EVALUATE time by [`ScoringProgram::bind`].

use dana_dsl::ast::{BinOp, DataKind, GroupOp, OpKind, UnaryFn, VarId};
use dana_dsl::zoo::Algorithm;
use dana_dsl::AlgoSpec;
use dana_ml::{Link, LrmfModel};

use crate::error::{InferError, InferResult};
use crate::executor::ScoringCost;

/// Concurrent ports on the row-indexed factor memory, mirroring the
/// execution engine's BRAM banking (`dana_engine::MODEL_PORTS`): LRMF row
/// gathers from different lockstep lanes contend for these.
pub const MODEL_PORTS: u64 = 4;

/// An in-database quality metric EVALUATE can compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum MetricKind {
    /// Mean squared error (linear regression / SVM raw scores).
    Mse,
    /// Cross-entropy over predicted probabilities (logistic regression).
    LogLoss,
    /// Classification accuracy (logistic {0,1} or SVM ±1 labels).
    Accuracy,
    /// Root-mean-square rating error (LRMF).
    LrmfRmse,
}

impl MetricKind {
    pub fn name(&self) -> &'static str {
        match self {
            MetricKind::Mse => "mse",
            MetricKind::LogLoss => "log_loss",
            MetricKind::Accuracy => "classification_accuracy",
            MetricKind::LrmfRmse => "lrmf_rmse",
        }
    }

    /// Parses a metric name as written in an EVALUATE statement.
    pub fn parse(s: &str) -> Option<MetricKind> {
        match s.to_ascii_lowercase().as_str() {
            "mse" => Some(MetricKind::Mse),
            "log_loss" | "logloss" => Some(MetricKind::LogLoss),
            "accuracy" | "classification_accuracy" => Some(MetricKind::Accuracy),
            "lrmf_rmse" | "rmse" => Some(MetricKind::LrmfRmse),
            _ => None,
        }
    }
}

/// The deploy-time scoring artifact: which forward pass to run, shaped by
/// the analytic but independent of any trained values.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ScoringRecipe {
    /// `link(w·x)` over the first `features` columns.
    Dense {
        /// Model variable name (the trained-values lookup key).
        model: String,
        features: usize,
        link: Link,
        algorithm: Algorithm,
    },
    /// `L[i]·R[j]` over `(i, j, …)` index columns.
    Lrmf {
        l_model: String,
        r_model: String,
        rows: usize,
        cols: usize,
        rank: usize,
    },
}

impl ScoringRecipe {
    /// What scoring one lockstep group costs the engine — the charge the
    /// executor bills, known before any model is trained.
    pub fn cost(&self) -> ScoringCost {
        match self {
            ScoringRecipe::Dense { features, .. } => ScoringCost::new(*features, false),
            ScoringRecipe::Lrmf { rank, .. } => ScoringCost::new(2 * rank, true),
        }
    }

    /// The metric EVALUATE defaults to for this analytic family.
    pub fn default_metric(&self) -> MetricKind {
        match self {
            ScoringRecipe::Dense { algorithm, .. } => match algorithm {
                Algorithm::Logistic => MetricKind::LogLoss,
                Algorithm::Svm => MetricKind::Accuracy,
                _ => MetricKind::Mse,
            },
            ScoringRecipe::Lrmf { .. } => MetricKind::LrmfRmse,
        }
    }

    /// Whether `metric` is meaningful for this family — `lrmf_rmse` on a
    /// linear model (or `log_loss` on raw margins) is refused, not
    /// silently computed.
    pub fn check_metric(&self, metric: MetricKind) -> InferResult<()> {
        let ok = match (self, metric) {
            (ScoringRecipe::Lrmf { .. }, MetricKind::LrmfRmse) => true,
            (ScoringRecipe::Lrmf { .. }, _) => false,
            (ScoringRecipe::Dense { .. }, MetricKind::LrmfRmse) => false,
            (ScoringRecipe::Dense { link, .. }, MetricKind::LogLoss) => *link == Link::Sigmoid,
            (ScoringRecipe::Dense { link, .. }, MetricKind::Mse) => *link == Link::Identity,
            (ScoringRecipe::Dense { .. }, MetricKind::Accuracy) => true,
        };
        if ok {
            Ok(())
        } else {
            Err(InferError::MetricMismatch {
                metric,
                recipe: self.describe(),
            })
        }
    }

    fn describe(&self) -> String {
        match self {
            ScoringRecipe::Dense {
                link,
                features,
                algorithm,
                ..
            } => format!(
                "dense {} scorer ({} features, {} link)",
                match algorithm {
                    Algorithm::Linear => "linear",
                    Algorithm::Logistic => "logistic",
                    Algorithm::Svm => "svm",
                    Algorithm::Lrmf => "lrmf",
                },
                features,
                link.name()
            ),
            ScoringRecipe::Lrmf {
                rows, cols, rank, ..
            } => {
                format!("lrmf scorer ({rows}×{cols}, rank {rank})")
            }
        }
    }
}

/// Derives the forward-pass recipe from a training UDF's structure —
/// the scoring half of the deploy-time lowering.
pub fn derive_recipe(spec: &AlgoSpec) -> InferResult<ScoringRecipe> {
    let unsupported = |reason: &str| InferError::UnsupportedAnalytic {
        udf: spec.name.clone(),
        reason: reason.to_string(),
    };
    let models: Vec<_> = spec.vars_of_kind(DataKind::Model).collect();
    let flow = Dataflow::new(spec);

    if spec
        .stmts
        .iter()
        .any(|s| matches!(s.op, OpKind::Gather { .. }))
    {
        return derive_lrmf(spec, &flow, &models, unsupported);
    }

    // Dense families: one rank-1 model, features-wide input, scalar label.
    if models.len() != 1 {
        return Err(unsupported(&format!(
            "{} dense models (expected exactly one)",
            models.len()
        )));
    }
    let model = models[0];
    if model.dims.rank() != 1 {
        return Err(unsupported("dense model must be a rank-1 vector"));
    }
    let features = model.dims.0[0];
    if spec.input_width() != features {
        return Err(unsupported(&format!(
            "input width {} disagrees with model width {features}",
            spec.input_width()
        )));
    }
    if spec.output_width() != 1 {
        return Err(unsupported("dense scoring expects a single label column"));
    }

    // The raw score must actually be the dot product: a statement
    // `sigma(model * input, 1)` (operands in either order, through
    // identity/rename chains). Analytics whose hypothesis is anything
    // else are refused, not silently mis-scored.
    let score = flow
        .find(|op| match op {
            OpKind::Group(GroupOp::Sigma, prod, 1) => flow.def(*prod).is_some_and(|p| match p {
                OpKind::Binary(BinOp::Mul, a, b) => {
                    let (a, b) = (flow.resolve(*a), flow.resolve(*b));
                    (a == model.id && spec.var(b).kind == DataKind::Input)
                        || (b == model.id && spec.var(a).kind == DataKind::Input)
                }
                _ => false,
            }),
            _ => false,
        })
        .ok_or_else(|| unsupported("no `sigma(model * input, 1)` dot-product score"))?;
    let is_output = |v: VarId| spec.var(flow.resolve(v)).kind == DataKind::Output;

    // The link is read off the *error path*, not off incidental operator
    // usage elsewhere in the program:
    //   logistic — `sigmoid(score)` feeding a residual against the label;
    //   linear   — the raw score feeding that residual;
    //   svm      — a margin `label * score` gated by a comparison.
    let hypothesis = flow.find(|op| match op {
        OpKind::Unary(UnaryFn::Sigmoid, v) => flow.resolve(*v) == score,
        _ => false,
    });
    let residual_of = |h: VarId| {
        flow.find(|op| match op {
            OpKind::Binary(BinOp::Sub, a, b) => {
                (flow.resolve(*a) == h && is_output(*b)) || (flow.resolve(*b) == h && is_output(*a))
            }
            _ => false,
        })
    };
    let (link, algorithm) = if let Some(h) = hypothesis {
        if residual_of(h).is_none() {
            return Err(unsupported(
                "sigmoid(score) does not feed a residual against the label",
            ));
        }
        (Link::Sigmoid, Algorithm::Logistic)
    } else if let Some(margin) = flow.find(|op| match op {
        OpKind::Binary(BinOp::Mul, a, b) => {
            (flow.resolve(*a) == score && is_output(*b))
                || (flow.resolve(*b) == score && is_output(*a))
        }
        _ => false,
    }) {
        let gated = flow
            .find(|op| match op {
                OpKind::Binary(BinOp::Lt | BinOp::Gt, a, b) => {
                    flow.resolve(*a) == margin || flow.resolve(*b) == margin
                }
                _ => false,
            })
            .is_some();
        if !gated {
            return Err(unsupported(
                "label·score margin exists but no comparison gates it",
            ));
        }
        (Link::Identity, Algorithm::Svm)
    } else if residual_of(score).is_some() {
        (Link::Identity, Algorithm::Linear)
    } else {
        return Err(unsupported(
            "score feeds neither a residual, a sigmoid hypothesis, nor a gated margin",
        ));
    };
    Ok(ScoringRecipe::Dense {
        model: model.name.clone(),
        features,
        link,
        algorithm,
    })
}

/// LRMF derivation: the factor binding comes from the *gathers*, not
/// from model declaration order — the factor indexed by the tuple's
/// first column is the row factor, whatever order `L`/`R` were declared.
fn derive_lrmf(
    spec: &AlgoSpec,
    flow: &Dataflow<'_>,
    models: &[&dana_dsl::ast::VarDecl],
    unsupported: impl Fn(&str) -> InferError,
) -> InferResult<ScoringRecipe> {
    if models.len() != 2 {
        return Err(unsupported(&format!(
            "row-gather analytic with {} models (LRMF needs two factors)",
            models.len()
        )));
    }
    let inputs: Vec<_> = spec.vars_of_kind(DataKind::Input).collect();
    if inputs.len() != 2 || inputs.iter().any(|i| !i.dims.is_scalar()) {
        return Err(unsupported(
            "LRMF scoring expects two scalar index columns (i, j)",
        ));
    }
    // Map each index input (= tuple column, in declaration order) to the
    // factor it gathers.
    let mut gathers: Vec<(VarId, VarId, VarId)> = Vec::new(); // (matrix, index, target)
    for s in &spec.stmts {
        if let OpKind::Gather { matrix, index } = s.op {
            gathers.push((flow.resolve(matrix), flow.resolve(index), s.target));
        }
    }
    if gathers.len() != 2 {
        return Err(unsupported(&format!(
            "{} row gathers (LRMF scoring expects exactly two)",
            gathers.len()
        )));
    }
    let factor_for = |input: VarId| -> InferResult<(VarId, VarId)> {
        gathers
            .iter()
            .find(|(_, idx, _)| *idx == input)
            .map(|(m, _, t)| (*m, *t))
            .ok_or_else(|| {
                unsupported(&format!(
                    "input '{}' gathers no factor",
                    spec.var(input).name
                ))
            })
    };
    let (l_id, l_row) = factor_for(inputs[0].id)?; // tuple column 0
    let (r_id, r_row) = factor_for(inputs[1].id)?; // tuple column 1
    if l_id == r_id {
        return Err(unsupported("both index columns gather the same factor"));
    }
    // The prediction must be the factor product `sigma(L[i] * R[j], 1)`.
    flow.find(|op| match op {
        OpKind::Group(GroupOp::Sigma, prod, 1) => flow.def(*prod).is_some_and(|p| match p {
            OpKind::Binary(BinOp::Mul, a, b) => {
                let (a, b) = (flow.resolve(*a), flow.resolve(*b));
                (a == l_row && b == r_row) || (a == r_row && b == l_row)
            }
            _ => false,
        }),
        _ => false,
    })
    .ok_or_else(|| unsupported("no `sigma(L[i] * R[j], 1)` factor-product score"))?;

    let (l, r) = (spec.var(l_id), spec.var(r_id));
    if l.dims.rank() != 2 || r.dims.rank() != 2 {
        return Err(unsupported("LRMF factors must be rank-2"));
    }
    let (rows, l_rank) = (l.dims.0[0], l.dims.0[1]);
    let (cols, r_rank) = (r.dims.0[0], r.dims.0[1]);
    if l_rank != r_rank {
        return Err(unsupported(&format!(
            "factor ranks disagree: {l_rank} vs {r_rank}"
        )));
    }
    Ok(ScoringRecipe::Lrmf {
        l_model: l.name.clone(),
        r_model: r.name.clone(),
        rows,
        cols,
        rank: l_rank,
    })
}

/// Definition lookup + identity-chain resolution over a spec's
/// three-address statements (last definition wins, like execution order).
struct Dataflow<'s> {
    spec: &'s AlgoSpec,
    defs: std::collections::HashMap<VarId, &'s OpKind>,
}

impl<'s> Dataflow<'s> {
    fn new(spec: &'s AlgoSpec) -> Dataflow<'s> {
        let mut defs = std::collections::HashMap::new();
        for s in &spec.stmts {
            defs.insert(s.target, &s.op);
        }
        Dataflow { spec, defs }
    }

    /// The operation defining `v`, if any statement assigns it.
    fn def(&self, v: VarId) -> Option<&'s OpKind> {
        self.defs.get(&self.resolve(v)).copied()
    }

    /// Follows `Identity` (rename/copy) chains to the underlying variable.
    fn resolve(&self, mut v: VarId) -> VarId {
        for _ in 0..self.spec.vars.len() {
            match self.defs.get(&v) {
                Some(OpKind::Identity(src)) => v = *src,
                _ => return v,
            }
        }
        v
    }

    /// First statement target whose defining op matches `pred`, resolved
    /// through identity chains.
    fn find(&self, pred: impl Fn(&OpKind) -> bool) -> Option<VarId> {
        self.spec
            .stmts
            .iter()
            .find(|s| pred(&s.op))
            .map(|s| self.resolve(s.target))
    }
}

/// A recipe bound to trained model values — the executable artifact the
/// SoA scorer runs.
#[derive(Debug, Clone, PartialEq)]
pub enum ScoringProgram {
    Dense {
        weights: Vec<f32>,
        link: Link,
        /// Labels are ±1 (SVM) rather than {0, 1} — accuracy's convention.
        signed_labels: bool,
    },
    Lrmf {
        model: LrmfModel,
    },
}

impl ScoringProgram {
    /// Binds a deploy-time recipe to the trained model values stored by
    /// the last EXECUTE (`models`/`names` in the UDF's declaration
    /// order), validating every shape.
    pub fn bind(
        recipe: &ScoringRecipe,
        names: &[String],
        models: &[Vec<f32>],
    ) -> InferResult<ScoringProgram> {
        let lookup = |name: &str| -> InferResult<&Vec<f32>> {
            names
                .iter()
                .position(|n| n == name)
                .map(|i| &models[i])
                .ok_or_else(|| {
                    InferError::ModelShape(format!("no trained values for model '{name}'"))
                })
        };
        match recipe {
            ScoringRecipe::Dense {
                model,
                features,
                link,
                algorithm,
            } => {
                let w = lookup(model)?;
                if w.len() != *features {
                    return Err(InferError::ModelShape(format!(
                        "model '{model}' has {} values, recipe expects {features}",
                        w.len()
                    )));
                }
                Ok(ScoringProgram::Dense {
                    weights: w.clone(),
                    link: *link,
                    signed_labels: *algorithm == Algorithm::Svm,
                })
            }
            ScoringRecipe::Lrmf {
                l_model,
                r_model,
                rows,
                cols,
                rank,
            } => {
                let l = lookup(l_model)?;
                let r = lookup(r_model)?;
                if l.len() != rows * rank || r.len() != cols * rank {
                    return Err(InferError::ModelShape(format!(
                        "factors are {}/{} values, recipe expects {}/{}",
                        l.len(),
                        r.len(),
                        rows * rank,
                        cols * rank
                    )));
                }
                Ok(ScoringProgram::Lrmf {
                    model: LrmfModel {
                        l: l.clone(),
                        r: r.clone(),
                        rows: *rows,
                        cols: *cols,
                        rank: *rank,
                    },
                })
            }
        }
    }

    /// Columns a source must carry: the features (an LRMF tuple's two
    /// indices). The label, when present, is the next column.
    pub fn min_width(&self) -> usize {
        match self {
            ScoringProgram::Dense { weights, .. } => weights.len(),
            ScoringProgram::Lrmf { .. } => 2,
        }
    }

    /// The recipe's [`ScoringRecipe::cost`], read off the bound values.
    pub fn cost(&self) -> ScoringCost {
        match self {
            ScoringProgram::Dense { weights, .. } => ScoringCost::new(weights.len(), false),
            ScoringProgram::Lrmf { model } => ScoringCost::new(2 * model.rank, true),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dana_dsl::zoo::{
        linear_regression, logistic_regression, lrmf, svm, DenseParams, LrmfParams,
    };

    fn dense_params(d: usize) -> DenseParams {
        DenseParams {
            n_features: d,
            ..Default::default()
        }
    }

    #[test]
    fn derives_dense_recipes_for_the_zoo() {
        let lin = derive_recipe(&linear_regression(dense_params(8)).unwrap()).unwrap();
        assert_eq!(
            lin,
            ScoringRecipe::Dense {
                model: "mo".into(),
                features: 8,
                link: Link::Identity,
                algorithm: Algorithm::Linear,
            }
        );
        assert_eq!(lin.default_metric(), MetricKind::Mse);
        assert_eq!(lin.cost().program_cycles, 9);

        let log = derive_recipe(&logistic_regression(dense_params(5)).unwrap()).unwrap();
        assert!(matches!(
            log,
            ScoringRecipe::Dense {
                link: Link::Sigmoid,
                algorithm: Algorithm::Logistic,
                ..
            }
        ));
        assert_eq!(log.default_metric(), MetricKind::LogLoss);

        let s = derive_recipe(&svm(dense_params(5)).unwrap()).unwrap();
        assert!(matches!(
            s,
            ScoringRecipe::Dense {
                link: Link::Identity,
                algorithm: Algorithm::Svm,
                ..
            }
        ));
        assert_eq!(s.default_metric(), MetricKind::Accuracy);
    }

    #[test]
    fn derives_lrmf_recipe() {
        let spec = lrmf(LrmfParams {
            rows: 20,
            cols: 15,
            rank: 6,
            ..Default::default()
        })
        .unwrap();
        let r = derive_recipe(&spec).unwrap();
        assert_eq!(
            r,
            ScoringRecipe::Lrmf {
                l_model: "L".into(),
                r_model: "R".into(),
                rows: 20,
                cols: 15,
                rank: 6,
            }
        );
        let cost = ScoringCost {
            program_cycles: 13,
            gathered: 12,
        };
        assert_eq!(r.cost(), cost);
        assert_eq!(r.default_metric(), MetricKind::LrmfRmse);
    }

    #[test]
    fn metric_applicability_is_checked() {
        let lin = derive_recipe(&linear_regression(dense_params(4)).unwrap()).unwrap();
        assert!(lin.check_metric(MetricKind::Mse).is_ok());
        assert!(lin.check_metric(MetricKind::Accuracy).is_ok());
        assert!(matches!(
            lin.check_metric(MetricKind::LrmfRmse),
            Err(InferError::MetricMismatch { .. })
        ));
        assert!(lin.check_metric(MetricKind::LogLoss).is_err());

        let log = derive_recipe(&logistic_regression(dense_params(4)).unwrap()).unwrap();
        assert!(log.check_metric(MetricKind::LogLoss).is_ok());
        assert!(log.check_metric(MetricKind::Mse).is_err());

        let fac = derive_recipe(
            &lrmf(LrmfParams {
                ..Default::default()
            })
            .unwrap(),
        )
        .unwrap();
        assert!(fac.check_metric(MetricKind::LrmfRmse).is_ok());
        assert!(fac.check_metric(MetricKind::Accuracy).is_err());
    }

    #[test]
    fn non_link_hypothesis_is_refused_not_mis_scored() {
        // Shape-identical to linear regression — one rank-1 model, matching
        // input width, scalar label — but the hypothesis is (w·x)², not
        // link(w·x). The derivation must refuse, never emit a dot-product
        // scorer for it.
        use dana_dsl::AlgoBuilder;
        let mut a = AlgoBuilder::new("squared");
        let mo = a.model("mo", &[4]);
        let x = a.input("in", &[4]);
        let y = a.output("out");
        let lr = a.meta("lr", 0.01);
        let prod = a.mul(mo, x).unwrap();
        let s = a.sigma(prod, 1).unwrap();
        let sq = a.mul(s, s).unwrap(); // the non-link hypothesis
        let er = a.sub(sq, y).unwrap();
        let grad = a.mul(er, x).unwrap();
        let up = a.mul(lr, grad).unwrap();
        let mo_up = a.sub(mo, up).unwrap();
        a.set_model(mo, mo_up).unwrap();
        let spec = a.finish().unwrap();
        assert!(matches!(
            derive_recipe(&spec),
            Err(InferError::UnsupportedAnalytic { .. })
        ));
    }

    #[test]
    fn sigmoid_off_the_error_path_does_not_make_it_logistic() {
        // A linear residual with a sigmoid used elsewhere (a squashed
        // convergence signal) must still derive an identity link.
        use dana_dsl::AlgoBuilder;
        let mut a = AlgoBuilder::new("lin_with_sig");
        let mo = a.model("mo", &[3]);
        let x = a.input("in", &[3]);
        let y = a.output("out");
        let lr = a.meta("lr", 0.01);
        let prod = a.mul(mo, x).unwrap();
        let s = a.sigma(prod, 1).unwrap();
        let er = a.sub(s, y).unwrap();
        let squashed = a.sigmoid(er); // not on the hypothesis path
        let grad = a.mul(squashed, x).unwrap();
        let up = a.mul(lr, grad).unwrap();
        let mo_up = a.sub(mo, up).unwrap();
        a.set_model(mo, mo_up).unwrap();
        let spec = a.finish().unwrap();
        let r = derive_recipe(&spec).unwrap();
        assert!(
            matches!(
                r,
                ScoringRecipe::Dense {
                    link: Link::Identity,
                    algorithm: Algorithm::Linear,
                    ..
                }
            ),
            "sigmoid off the error path must not flip the link: {r:?}"
        );
    }

    #[test]
    fn lrmf_factors_bind_by_gather_not_declaration_order() {
        // Declare R before L: the factor indexed by tuple column 0 must
        // still come out as the row factor.
        use dana_dsl::AlgoBuilder;
        let (rows, cols, rank) = (12usize, 9usize, 3usize);
        let mut a = AlgoBuilder::new("lrmf_flipped");
        let r = a.model("R", &[cols, rank]); // declared first
        let l = a.model("L", &[rows, rank]);
        let i = a.input("i", &[]);
        let j = a.input("j", &[]);
        let y = a.output("rating");
        let lr = a.meta("lr", 0.05);
        let li = a.lookup(l, i).unwrap();
        let rj = a.lookup(r, j).unwrap();
        let prod = a.mul(li, rj).unwrap();
        let pred = a.sigma(prod, 1).unwrap();
        let e = a.sub(pred, y).unwrap();
        let lg = a.mul(e, rj).unwrap();
        let rg = a.mul(e, li).unwrap();
        let lup = a.mul(lr, lg).unwrap();
        let rup = a.mul(lr, rg).unwrap();
        let l_new = a.sub(li, lup).unwrap();
        let r_new = a.sub(rj, rup).unwrap();
        let _ = a.merge(l_new, 4, dana_dsl::MergeOp::Sum).unwrap();
        a.set_model_row(l, i, l_new).unwrap();
        a.set_model_row(r, j, r_new).unwrap();
        let spec = a.finish().unwrap();
        assert_eq!(
            derive_recipe(&spec).unwrap(),
            ScoringRecipe::Lrmf {
                l_model: "L".into(),
                r_model: "R".into(),
                rows,
                cols,
                rank,
            }
        );
    }

    #[test]
    fn parsed_dsl_sources_derive_recipes_too() {
        // The textual-DSL path (parser → AlgoSpec) must derive the same
        // families as the builder path.
        use dana_dsl::zoo::{self, DenseParams};
        let p = DenseParams {
            n_features: 6,
            epochs: 2,
            ..DenseParams::default()
        };
        let lin = dana_dsl::parse_udf(&zoo::linear_regression_source(p), "f").unwrap();
        assert!(matches!(
            derive_recipe(&lin).unwrap(),
            ScoringRecipe::Dense {
                link: Link::Identity,
                algorithm: Algorithm::Linear,
                ..
            }
        ));
        let log = dana_dsl::parse_udf(&zoo::logistic_regression_source(p), "f").unwrap();
        assert!(matches!(
            derive_recipe(&log).unwrap(),
            ScoringRecipe::Dense {
                link: Link::Sigmoid,
                algorithm: Algorithm::Logistic,
                ..
            }
        ));
        let s = dana_dsl::parse_udf(&zoo::svm_source(p), "f").unwrap();
        assert!(matches!(
            derive_recipe(&s).unwrap(),
            ScoringRecipe::Dense {
                algorithm: Algorithm::Svm,
                ..
            }
        ));
    }

    #[test]
    fn metric_names_parse_and_round_trip() {
        for m in [
            MetricKind::Mse,
            MetricKind::LogLoss,
            MetricKind::Accuracy,
            MetricKind::LrmfRmse,
        ] {
            assert_eq!(MetricKind::parse(m.name()), Some(m));
        }
        assert_eq!(MetricKind::parse("MSE"), Some(MetricKind::Mse));
        assert_eq!(MetricKind::parse("rmse"), Some(MetricKind::LrmfRmse));
        assert_eq!(MetricKind::parse("nope"), None);
    }

    #[test]
    fn bind_validates_shapes() {
        let recipe = derive_recipe(&linear_regression(dense_params(3)).unwrap()).unwrap();
        let names = vec!["mo".to_string()];
        let ok = ScoringProgram::bind(&recipe, &names, &[vec![1.0, 2.0, 3.0]]).unwrap();
        assert_eq!(ok.min_width(), 3);
        assert_eq!(ok.cost(), recipe.cost());
        assert_eq!(ok.cost().program_cycles, 4);
        // Wrong width and missing name are typed errors.
        assert!(matches!(
            ScoringProgram::bind(&recipe, &names, &[vec![1.0]]),
            Err(InferError::ModelShape(_))
        ));
        assert!(matches!(
            ScoringProgram::bind(&recipe, &["other".to_string()], &[vec![1.0, 2.0, 3.0]]),
            Err(InferError::ModelShape(_))
        ));
    }

    #[test]
    fn recipe_serde_round_trips() {
        let recipe = derive_recipe(&logistic_regression(dense_params(7)).unwrap()).unwrap();
        let v = serde::Serialize::to_value(&recipe);
        let back = <ScoringRecipe as serde::Deserialize>::from_value(&v).unwrap();
        assert_eq!(back, recipe);
    }
}
