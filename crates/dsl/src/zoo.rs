//! The algorithm zoo: ready-made specs for the paper's four evaluated
//! algorithms (Table 3) — Linear Regression, Logistic Regression, SVM, and
//! Low-Rank Matrix Factorization — each parameterized by topology, learning
//! rate, merge coefficient, and epochs.
//!
//! Every algorithm is DSL text: a `*_source` function writes the program
//! (these are the "≈30–60 lines of Python" the paper's abstract counts),
//! and the generator of the same name parses it into an [`AlgoSpec`].

use crate::ast::AlgoSpec;
use crate::error::DslResult;
use crate::parser::parse_udf;

/// The four algorithm families of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Algorithm {
    /// Least-squares linear regression via gradient descent.
    Linear,
    /// Logistic regression (sigmoid + cross-entropy gradient).
    Logistic,
    /// Linear SVM with hinge loss (sub-gradient descent).
    Svm,
    /// Low-rank matrix factorization (Netflix-style SGD).
    Lrmf,
}

impl Algorithm {
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Linear => "Linear Regression",
            Algorithm::Logistic => "Logistic Regression",
            Algorithm::Svm => "SVM",
            Algorithm::Lrmf => "Low Rank Matrix Factorization",
        }
    }
}

/// Hyper-parameters shared by the dense (non-LRMF) generators.
#[derive(Debug, Clone, Copy)]
pub struct DenseParams {
    pub n_features: usize,
    pub learning_rate: f64,
    pub merge_coef: u32,
    pub epochs: u32,
}

impl Default for DenseParams {
    fn default() -> DenseParams {
        DenseParams {
            n_features: 10,
            learning_rate: 0.1,
            merge_coef: 8,
            epochs: 1,
        }
    }
}

/// Linear regression (the paper's running example, §4.3): batched gradient
/// descent with a summing merge.
pub fn linear_regression(p: DenseParams) -> DslResult<AlgoSpec> {
    parse_udf(&linear_regression_source(p), "linearR")
}

/// Logistic regression: sigmoid hypothesis, cross-entropy gradient
/// (`(σ(w·x) − y)·x`), batched with a summing merge.
pub fn logistic_regression(p: DenseParams) -> DslResult<AlgoSpec> {
    parse_udf(&logistic_regression_source(p), "logisticR")
}

/// Linear SVM with hinge loss. Labels are ±1; a tuple in the margin
/// (`y·(w·x) < 1`) contributes sub-gradient `−y·x`, so the update *adds*
/// `lr·y·x` for violators and the comparison result gates the gradient —
/// exactly the `<` operator's role in Table 1.
pub fn svm(p: DenseParams) -> DslResult<AlgoSpec> {
    parse_udf(&svm_source(p), "svm")
}

/// Hyper-parameters for LRMF.
#[derive(Debug, Clone, Copy)]
pub struct LrmfParams {
    /// Rows of the rating matrix (users).
    pub rows: usize,
    /// Columns (items).
    pub cols: usize,
    /// Factorization rank (the paper's Netflix topology is rank 10).
    pub rank: usize,
    pub learning_rate: f64,
    pub merge_coef: u32,
    pub epochs: u32,
}

impl Default for LrmfParams {
    fn default() -> LrmfParams {
        LrmfParams {
            rows: 100,
            cols: 80,
            rank: 10,
            learning_rate: 0.05,
            merge_coef: 4,
            epochs: 1,
        }
    }
}

/// Low-rank matrix factorization by SGD over rating tuples `(i, j, r)`:
/// rows `L[i]`, `R[j]` are gathered, the rating error updates both rows,
/// and the updates scatter back ([`crate::ast::ModelUpdate::Row`]).
///
/// The merge point sits after both row updates: threads process disjoint
/// rating tuples and the tree bus applies their (rarely colliding) row
/// deltas — the behaviour §7.2 observes when "merging across multiple
/// different threads incurs an overhead" for LRMF.
pub fn lrmf(p: LrmfParams) -> DslResult<AlgoSpec> {
    parse_udf(&lrmf_source(p), "lrmf")
}

/// Builds the spec for `algo` with dense parameters (LRMF uses defaults
/// scaled from `n_features`: `rows = cols = n_features`, rank 10).
pub fn spec_for(algo: Algorithm, p: DenseParams) -> DslResult<AlgoSpec> {
    match algo {
        Algorithm::Linear => linear_regression(p),
        Algorithm::Logistic => logistic_regression(p),
        Algorithm::Svm => svm(p),
        Algorithm::Lrmf => lrmf(LrmfParams {
            rows: p.n_features,
            cols: p.n_features,
            rank: 10,
            learning_rate: p.learning_rate,
            merge_coef: p.merge_coef,
            epochs: p.epochs,
        }),
    }
}

/// The §4.3 linear-regression listing as DSL text. The summed batch
/// gradient keeps the effective step size by dividing the learning rate by
/// the merge coefficient.
pub fn linear_regression_source(p: DenseParams) -> String {
    let (n, mc, epochs) = (p.n_features, p.merge_coef, p.epochs);
    let lr = p.learning_rate / mc as f64;
    format!(
        r#"# Linear regression — update rule, merge, convergence (paper §4.3)
mo  = dana.model([{n}])
in  = dana.input([{n}])
out = dana.output()
lr  = dana.meta({lr})
linearR = dana.algo(mo, in, out)

# Gradient of the loss function
s    = sigma(mo * in, 1)
er   = s - out
grad = er * in

# Batched gradient descent
grad  = linearR.merge(grad, {mc}, "+")
up    = lr * grad
mo_up = mo - up
linearR.setModel(mo_up)
linearR.setEpochs({epochs})
"#
    )
}

/// Logistic regression as DSL text.
pub fn logistic_regression_source(p: DenseParams) -> String {
    let (n, mc, epochs) = (p.n_features, p.merge_coef, p.epochs);
    let lr = p.learning_rate / mc as f64;
    format!(
        r#"mo  = dana.model([{n}])
in  = dana.input([{n}])
out = dana.output()
lr  = dana.meta({lr})
logisticR = dana.algo(mo, in, out)
s    = sigma(mo * in, 1)
h    = sigmoid(s)
er   = h - out
grad = er * in
grad = logisticR.merge(grad, {mc}, "+")
up    = lr * grad
mo_up = mo - up
logisticR.setModel(mo_up)
logisticR.setEpochs({epochs})
"#
    )
}

/// SVM as DSL text.
pub fn svm_source(p: DenseParams) -> String {
    let (n, mc, epochs) = (p.n_features, p.merge_coef, p.epochs);
    let lr = p.learning_rate / mc as f64;
    format!(
        r#"mo  = dana.model([{n}])
in  = dana.input([{n}])
out = dana.output()
lr  = dana.meta({lr})
one = dana.meta(1.0)
svm = dana.algo(mo, in, out)
s      = sigma(mo * in, 1)
margin = out * s
viol   = margin < one
yx     = out * in
g      = viol * yx
g      = svm.merge(g, {mc}, "+")
up     = lr * g
mo_up  = mo + up
svm.setModel(mo_up)
svm.setEpochs({epochs})
"#
    )
}

/// LRMF as DSL text (uses `lookup`/`setModelRow`, the row-indexed forms).
pub fn lrmf_source(p: LrmfParams) -> String {
    let (rows, cols, rank) = (p.rows, p.cols, p.rank);
    let (lr, mc, epochs) = (p.learning_rate, p.merge_coef, p.epochs);
    format!(
        r#"L = dana.model([{rows}, {rank}])
R = dana.model([{cols}, {rank}])
i = dana.input()
j = dana.input()
rating = dana.output()
lr = dana.meta({lr})
lrmf = dana.algo(L, R, i, j, rating)
li = lookup(L, i)
rj = lookup(R, j)
pred = sigma(li * rj, 1)
e = pred - rating
lg = e * rj
rg = e * li
lup = lr * lg
rup = lr * rg
l_new = li - lup
r_new = rj - rup
l_new = lrmf.merge(l_new, {mc}, "+")
setModelRow(L, i, l_new)
setModelRow(R, j, r_new)
lrmf.setEpochs({epochs})
"#
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{DataKind, MergeOp};
    use crate::builder::AlgoBuilder;

    #[test]
    fn all_dense_specs_build() {
        let p = DenseParams {
            n_features: 16,
            ..DenseParams::default()
        };
        for algo in [Algorithm::Linear, Algorithm::Logistic, Algorithm::Svm] {
            let spec = spec_for(algo, p).unwrap();
            assert_eq!(spec.input_width(), 16);
            assert_eq!(spec.model_elements(), 16);
            assert_eq!(spec.merge_coef(), 8);
        }
    }

    #[test]
    fn lrmf_spec_builds() {
        let spec = lrmf(LrmfParams::default()).unwrap();
        // Two models: L [100][10] and R [80][10].
        assert_eq!(spec.model_elements(), 100 * 10 + 80 * 10);
        // Inputs are the two scalar indices.
        assert_eq!(spec.input_width(), 2);
        assert_eq!(spec.model_updates.len(), 2);
    }

    /// The reference: each program built statement by statement with the
    /// builder API, which is what the DSL text must parse to.
    fn built(algo: Algorithm, p: DenseParams) -> AlgoSpec {
        let name = match algo {
            Algorithm::Linear => "linearR",
            Algorithm::Logistic => "logisticR",
            Algorithm::Svm => "svm",
            Algorithm::Lrmf => "lrmf",
        };
        let mut a = AlgoBuilder::new(name);
        if algo == Algorithm::Lrmf {
            let (rows, cols) = (p.n_features, p.n_features + 3);
            let l = a.model("L", &[rows, 10]);
            let r = a.model("R", &[cols, 10]);
            let i = a.input("i", &[]);
            let j = a.input("j", &[]);
            let y = a.output("rating");
            let lr = a.meta("lr", p.learning_rate);
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
            a.merge(l_new, p.merge_coef, MergeOp::Sum).unwrap();
            a.set_model_row(l, i, l_new).unwrap();
            a.set_model_row(r, j, r_new).unwrap();
            a.set_epochs(p.epochs);
            return a.finish().unwrap();
        }
        let mo = a.model("mo", &[p.n_features]);
        let x = a.input("in", &[p.n_features]);
        let y = a.output("out");
        let lr = a.meta("lr", p.learning_rate / p.merge_coef as f64);
        let mo_up = if algo == Algorithm::Svm {
            let one = a.meta("one", 1.0);
            let prod = a.mul(mo, x).unwrap();
            let s = a.sigma(prod, 1).unwrap();
            let margin = a.mul(y, s).unwrap();
            let viol = a.lt(margin, one).unwrap();
            let yx = a.mul(y, x).unwrap();
            let g = a.mul(viol, yx).unwrap();
            let g = a.merge(g, p.merge_coef, MergeOp::Sum).unwrap();
            let up = a.mul(lr, g).unwrap();
            a.add(mo, up).unwrap()
        } else {
            let prod = a.mul(mo, x).unwrap();
            let mut h = a.sigma(prod, 1).unwrap();
            if algo == Algorithm::Logistic {
                h = a.sigmoid(h);
            }
            let er = a.sub(h, y).unwrap();
            let grad = a.mul(er, x).unwrap();
            let grad = a.merge(grad, p.merge_coef, MergeOp::Sum).unwrap();
            let up = a.mul(lr, grad).unwrap();
            a.sub(mo, up).unwrap()
        };
        a.set_model(mo, mo_up).unwrap();
        a.set_epochs(p.epochs);
        a.finish().unwrap()
    }

    #[test]
    fn sources_parse_to_the_builder_programs() {
        for (learning_rate, merge_coef) in [(0.1, 8), (0.37, 4), (0.05, 16)] {
            let p = DenseParams {
                n_features: 12,
                learning_rate,
                merge_coef,
                epochs: 7,
            };
            for algo in [Algorithm::Linear, Algorithm::Logistic, Algorithm::Svm] {
                assert_eq!(
                    spec_for(algo, p).unwrap(),
                    built(algo, p),
                    "{algo:?} at {p:?}"
                );
            }
            let lp = LrmfParams {
                rows: 12,
                cols: 15,
                rank: 10,
                learning_rate,
                merge_coef,
                epochs: 7,
            };
            assert_eq!(
                lrmf(lp).unwrap(),
                built(Algorithm::Lrmf, p),
                "LRMF at {lp:?}"
            );
        }
    }

    #[test]
    fn all_sources_parse() {
        let p = DenseParams {
            n_features: 20,
            learning_rate: 0.1,
            merge_coef: 4,
            epochs: 5,
        };
        assert!(parse_udf(&logistic_regression_source(p), "x").is_ok());
        assert!(parse_udf(&svm_source(p), "x").is_ok());
        let lp = LrmfParams {
            rows: 50,
            cols: 40,
            ..LrmfParams::default()
        };
        assert!(parse_udf(&lrmf_source(lp), "x").is_ok());
    }

    #[test]
    fn svm_uses_comparison_gate() {
        let spec = svm(DenseParams::default()).unwrap();
        let has_lt = spec.stmts.iter().any(|s| {
            matches!(
                s.op,
                crate::ast::OpKind::Binary(crate::ast::BinOp::Lt, _, _)
            )
        });
        assert!(
            has_lt,
            "SVM must gate its gradient on the margin comparison"
        );
    }

    #[test]
    fn merge_divides_learning_rate() {
        // Summed batch gradients keep the effective step size by scaling lr.
        let spec = linear_regression(DenseParams {
            n_features: 4,
            learning_rate: 0.8,
            merge_coef: 8,
            epochs: 1,
        })
        .unwrap();
        let lr = spec.vars_of_kind(DataKind::Meta).next().unwrap();
        assert!((lr.meta_value.as_ref().unwrap()[0] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn paper_line_count_claim_holds() {
        // "express the algorithm in ≈30-60 lines of Python" (abstract).
        let p = DenseParams {
            n_features: 100,
            ..DenseParams::default()
        };
        let lp = LrmfParams {
            rows: 100,
            cols: 100,
            ..LrmfParams::default()
        };
        for src in [
            linear_regression_source(p),
            logistic_regression_source(p),
            svm_source(p),
            lrmf_source(lp),
        ] {
            let lines = src.lines().filter(|l| !l.trim().is_empty()).count();
            assert!(lines <= 60, "{lines} lines");
        }
    }
}
