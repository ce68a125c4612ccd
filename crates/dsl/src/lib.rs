//! DAnA's Python-embedded DSL, in Rust.
//!
//! The paper's front end (§4) lets a data scientist express a learning
//! algorithm as three functions — an **update rule**, a **merge function**,
//! and a **convergence check** — over declared data types (Table 1):
//!
//! | Table 1 construct | here |
//! |---|---|
//! | `algo` | [`builder::AlgoBuilder`] / [`ast::AlgoSpec`] |
//! | `input`, `output`, `model`, `inter`, `meta` | [`ast::DataKind`] |
//! | `+ - * / > <` | [`ast::BinOp`] |
//! | `sigmoid, gaussian, sqrt` | [`ast::UnaryFn`] |
//! | `sigma, norm, pi` | [`ast::GroupOp`] |
//! | `merge(x, int, "op")` | [`ast::MergeSpec`] |
//! | `setEpochs`, `setConvergence` | [`ast::Convergence`] |
//! | `setModel(x)` | [`ast::ModelUpdate`] |
//!
//! Two front doors produce the same [`ast::AlgoSpec`]:
//!
//! * the **builder API** ([`builder`]) — the embedded form, mirroring the
//!   paper's Python;
//! * the **textual parser** ([`parser`]) — accepts the paper's surface
//!   syntax (`s = sigma(mo * in, 1)` …) so UDFs can be registered from
//!   strings, exactly the ≈30–60-line artifacts the paper advertises.
//!
//! Validation ([`validate`]) performs the dimensionality inference that the
//! paper assigns to the translator front half (§4.4): operand broadcasting,
//! group-op axis reduction, model-update shape agreement.
//!
//! [`fold`] records the order the compiler folds each group operation in,
//! so a DSL-level interpreter can reproduce the accelerator's reductions.
//!
//! [`zoo`] contains ready-made specs for the paper's four evaluated
//! algorithms (Linear/Logistic regression, SVM, LRMF).

pub mod ast;
pub mod builder;
pub mod error;
pub mod fold;
pub mod parser;
pub mod validate;
pub mod zoo;

pub use ast::{
    AlgoSpec, BinOp, Convergence, DataKind, Dims, GroupOp, MergeOp, MergeSpec, ModelUpdate, OpKind,
    Stmt, UnaryFn, VarDecl, VarId,
};
pub use builder::{AlgoBuilder, VarRef};
pub use error::{DslError, DslResult};
pub use fold::{Fold, FoldOrder};
pub use parser::parse_udf;
