//! External-library baselines: Liblinear- and DimmWitted-class tools
//! (§7.3, Fig. 15).
//!
//! "For these alternatives, if training data is stored in the database,
//! there is an overhead to extract, transform, and supply the data in
//! accordance to each of their requirements." The end-to-end pipeline is
//! therefore **export** (COPY the table out of PostgreSQL as text),
//! **transform** (parse into the library's in-memory format), and
//! **compute** (the library's multicore solver). Fig. 15a measures export
//! at 45–86 % of end-to-end time — the phase DAnA's Striders eliminate.
//!
//! Solver-efficiency notes (constants below, fit to Fig. 15b): the
//! libraries skip MADlib's per-tuple UDF machinery, so their *compute* wins
//! wherever MADlib is overhead-bound; but their SVM solvers (dual
//! coordinate descent with many passes) are 18–22× *slower* than MADlib's
//! IGD at equal hyper-parameters.

use dana_dsl::zoo::Algorithm;

use crate::algorithms::TrainConfig;
use crate::cpu::{CpuModel, Seconds};

/// Which external tool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExternalLibrary {
    /// Liblinear-Multicore: logistic regression and SVM only \[40\].
    Liblinear,
    /// DimmWitted: SVM, logistic, linear regression (and more) \[41\].
    DimmWitted,
}

impl ExternalLibrary {
    pub fn name(&self) -> &'static str {
        match self {
            ExternalLibrary::Liblinear => "Liblinear",
            ExternalLibrary::DimmWitted => "DimmWitted",
        }
    }

    /// Algorithm support matrix (§7.3: "Liblinear supports Logistic
    /// Regression and SVM, and DimmWitted supports SVM, Logistic
    /// Regression, Linear Regression, …"; neither covers LRMF).
    pub fn supports(&self, algo: Algorithm) -> bool {
        match self {
            ExternalLibrary::Liblinear => {
                matches!(algo, Algorithm::Logistic | Algorithm::Svm)
            }
            ExternalLibrary::DimmWitted => {
                matches!(
                    algo,
                    Algorithm::Logistic | Algorithm::Svm | Algorithm::Linear
                )
            }
        }
    }

    /// Effective parallel cores the library sustains (the paper ran 2–16
    /// threads on 4 physical cores and kept the best).
    fn effective_cores(&self) -> f64 {
        match self {
            ExternalLibrary::Liblinear => 3.4,
            ExternalLibrary::DimmWitted => 3.0,
        }
    }

    /// Solver work multiplier relative to one IGD epoch at equal
    /// hyper-parameters (the paper fixes tolerance/optimizer and compares
    /// one-epoch runtimes, §7.3).
    fn solver_multiplier(&self, algo: Algorithm) -> f64 {
        match (self, algo) {
            // Dual coordinate descent SVM: the libraries run orders of
            // magnitude more solver work than one IGD epoch at the paper's
            // fixed hyper-parameters (Fig. 15b/15c measure them at ~0.1×
            // MADlib end-to-end); fitted multipliers reproduce that band.
            (ExternalLibrary::Liblinear, Algorithm::Svm) => 5_000.0,
            (ExternalLibrary::DimmWitted, Algorithm::Svm) => 6_000.0,
            // Logistic/linear: tight native loops, no interpreter.
            (ExternalLibrary::Liblinear, Algorithm::Logistic) => 1.0,
            (ExternalLibrary::DimmWitted, Algorithm::Logistic) => 2.0,
            (ExternalLibrary::DimmWitted, Algorithm::Linear) => 1.0,
            _ => f64::INFINITY,
        }
    }
}

/// Text formatting cost per value during COPY-out (float → decimal string
/// through PostgreSQL's output functions).
const EXPORT_S_PER_VALUE: f64 = 120.0e-9;
/// Per-tuple COPY overhead (row assembly, protocol framing).
const EXPORT_S_PER_TUPLE: f64 = 0.8e-6;
/// Text → float parse cost per value (strtod-class).
const TRANSFORM_S_PER_VALUE: f64 = 9.0e-9;

/// The external-tool pipeline model.
pub struct ExternalExecutor {
    cpu: CpuModel,
    library: ExternalLibrary,
}

impl ExternalExecutor {
    pub fn new(cpu: CpuModel, library: ExternalLibrary) -> ExternalExecutor {
        ExternalExecutor { cpu, library }
    }

    /// Phase costs (export, transform, compute) — Fig. 15a's three bars —
    /// for a table of `n_tuples × (width + 1)` values.
    pub fn analytic_seconds(
        &self,
        cfg: &TrainConfig,
        n_tuples: u64,
        width: usize,
    ) -> (Seconds, Seconds, Seconds) {
        let values = n_tuples as f64 * (width + 1) as f64;
        let export = values * EXPORT_S_PER_VALUE + n_tuples as f64 * EXPORT_S_PER_TUPLE;
        let transform = values * TRANSFORM_S_PER_VALUE;
        let per_tuple = self
            .cpu
            .compute_tuple_seconds(cfg.algorithm, width, cfg.rank);
        let compute = cfg.epochs.max(1) as f64
            * n_tuples as f64
            * per_tuple
            * self.library.solver_multiplier(cfg.algorithm)
            / self.library.effective_cores();
        (export, transform, compute)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn support_matrix_matches_paper() {
        assert!(ExternalLibrary::Liblinear.supports(Algorithm::Logistic));
        assert!(ExternalLibrary::Liblinear.supports(Algorithm::Svm));
        assert!(!ExternalLibrary::Liblinear.supports(Algorithm::Linear));
        assert!(!ExternalLibrary::Liblinear.supports(Algorithm::Lrmf));
        assert!(ExternalLibrary::DimmWitted.supports(Algorithm::Linear));
        assert!(!ExternalLibrary::DimmWitted.supports(Algorithm::Lrmf));
    }

    #[test]
    fn export_dominates_end_to_end() {
        // Fig. 15a: export is 57–86 % of Liblinear/DimmWitted runtime for
        // the logistic workloads.
        let exec = ExternalExecutor::new(CpuModel::i7_6700(), ExternalLibrary::Liblinear);
        let cfg = TrainConfig {
            algorithm: Algorithm::Logistic,
            epochs: 1,
            ..Default::default()
        };
        let (export, transform, compute) = exec.analytic_seconds(&cfg, 387_944, 2_000);
        let total = export + transform + compute;
        let frac = export / total;
        assert!(frac > 0.5 && frac < 0.95, "export fraction {frac}");
        assert!(transform < export, "transform is the small slice");
    }

    #[test]
    fn svm_compute_slower_than_logistic_compute() {
        // The library SVM solvers lose to IGD (Fig. 15b shows 0.1× bars).
        let exec = ExternalExecutor::new(CpuModel::i7_6700(), ExternalLibrary::Liblinear);
        let log = exec
            .analytic_seconds(
                &TrainConfig {
                    algorithm: Algorithm::Logistic,
                    epochs: 1,
                    ..Default::default()
                },
                100_000,
                500,
            )
            .2;
        let svm = exec
            .analytic_seconds(
                &TrainConfig {
                    algorithm: Algorithm::Svm,
                    epochs: 1,
                    ..Default::default()
                },
                100_000,
                500,
            )
            .2;
        assert!(svm > 10.0 * log, "svm {svm} vs logistic {log}");
    }
}
