//! Reference ML algorithms and the cost model of the paper's software
//! baselines (§7).
//!
//! DAnA is compared against:
//!
//! * **MADlib + PostgreSQL** — single-threaded in-RDBMS training over the
//!   buffer pool ([`CpuModel::madlib_epoch_seconds`]);
//! * **MADlib + Greenplum** — the same, partitioned across N segments with
//!   per-epoch model averaging ([`CpuModel::greenplum_epoch_seconds`],
//!   Fig. 13);
//! * **Liblinear / DimmWitted** — optimized external libraries that must
//!   first export and reformat the data ([`external`], Fig. 15).
//!
//! No baseline is executed: each is priced by the calibrated cost model in
//! [`cpu`] (constants documented against the paper's testbed: 4-core
//! i7-6700 @ 3.40 GHz, 32 GB RAM, SATA SSD), which `dana::analytic` drives
//! from a workload's table statistics.
//!
//! There is one training oracle: [`interp`], an interpreter of the DSL
//! that trains any validated program the way the accelerator does, folding
//! every reduction in the order the compiler recorded; [`merge`] merges a
//! gang's members per epoch. The statement matrix holds the executor to
//! both bit for bit; [`train_reference`] runs [`interp`] on a zoo spec.

pub mod algorithms;
pub mod cpu;
pub mod external;
pub mod interp;
pub mod linalg;
pub mod merge;
pub mod metrics;
pub mod scorer;

pub use algorithms::{
    default_lrmf_init, train_reference, DenseModel, LrmfModel, TrainConfig, TrainedModel,
};
pub use cpu::CpuModel;
pub use dana_dsl::zoo::Algorithm;
pub use external::{ExternalExecutor, ExternalLibrary};
pub use interp::{row_index, train_spec, RowOutOfRange};
pub use metrics::{MetricsError, MetricsResult};
pub use scorer::{score_dense, score_lrmf, Link};
