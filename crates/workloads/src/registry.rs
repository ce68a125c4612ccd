//! The Table-3 workload registry.

use dana_dsl::zoo::Algorithm;
use dana_storage::{Schema, TUPLE_HEADER_BYTES};

/// Which of the paper's three dataset groups a workload belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum DatasetClass {
    /// Publicly available datasets (UCI + Netflix), Figures 8/11/12/13/15/16.
    Public,
    /// Synthetic nominal (S/N), Figure 9.
    SyntheticNominal,
    /// Synthetic extensive (S/E) — the out-of-memory group, Figure 10.
    SyntheticExtensive,
}

/// One evaluation workload (a row of Table 3).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Workload {
    /// Table-3 name, e.g. `"Remote Sensing LR"`.
    pub name: &'static str,
    pub class: DatasetClass,
    pub algorithm: Algorithm,
    /// Feature count for dense algorithms (0 for LRMF).
    pub features: usize,
    /// LRMF topology `(rows, cols, rank)` (paper's "model topology").
    pub lrmf: Option<(usize, usize, usize)>,
    /// Training tuples. For LRMF this is the *triple* count derived from
    /// the paper's byte volume (see crate docs); Table 3's own number (the
    /// dense-row count) is kept in `paper_tuples`.
    pub tuples: u64,
    /// Table 3's published tuple count (verbatim).
    pub paper_tuples: u64,
    /// Table 3's 32 KB page count (verbatim, except that the Patient and
    /// Blog Feedback rows' pages and sizes are swapped back).
    pub paper_pages: u64,
    /// Table 3's size in MB (verbatim, with the same exception).
    pub paper_mb: u64,
    /// Training epochs used for the Table-5 absolute-runtime reproduction.
    /// The paper does not publish iteration counts; these are fitted so the
    /// MADlib+PostgreSQL cost model lands near Table 5 (EXPERIMENTS.md
    /// lists them under table3 and the residuals under table5). Ratios
    /// (the figures) are epoch-independent.
    pub epochs: u32,
    /// Merge coefficient declared in the UDF (batch size / max threads).
    pub merge_coef: u32,
    pub learning_rate: f64,
}

impl Workload {
    /// Columns of the training table (features + label, or i/j/rating).
    pub fn schema(&self) -> Schema {
        match self.algorithm {
            Algorithm::Lrmf => Schema::rating(),
            _ => Schema::training(self.features),
        }
    }

    /// On-page tuple size under our layout.
    pub fn tuple_bytes(&self) -> usize {
        TUPLE_HEADER_BYTES + self.schema().tuple_data_width()
    }

    /// Pages needed under our layout for a page size.
    pub fn pages_for(&self, page_size: usize) -> u64 {
        let per_tuple = self.tuple_bytes() + dana_storage::LINE_POINTER_BYTES;
        let capacity = (page_size - dana_storage::PAGE_HEADER_BYTES) / per_tuple;
        self.tuples.div_ceil(capacity as u64)
    }

    /// Total bytes under our layout (32 KB pages).
    pub fn bytes(&self) -> u64 {
        self.pages_for(32 * 1024) * 32 * 1024
    }

    /// Model elements (dense width, or LRMF (rows+cols)×rank).
    pub fn model_elements(&self) -> usize {
        match self.lrmf {
            Some((r, c, k)) => (r + c) * k,
            None => self.features,
        }
    }

    /// A scaled copy for functional (in-memory) runs: keeps topology,
    /// shrinks the tuple count.
    pub fn scaled(&self, fraction: f64) -> Workload {
        let mut w = self.clone();
        w.tuples = ((self.tuples as f64 * fraction) as u64).max(64);
        w
    }

    /// A copy with a different merge coefficient (Fig. 12 sweeps).
    pub fn with_merge_coef(&self, coef: u32) -> Workload {
        let mut w = self.clone();
        w.merge_coef = coef;
        w
    }

    /// The UDF for this workload, straight from the algorithm zoo.
    pub fn spec(&self) -> dana_dsl::AlgoSpec {
        use dana_dsl::zoo::{self, DenseParams, LrmfParams};
        match self.algorithm {
            Algorithm::Lrmf => {
                let (rows, cols, rank) = self.lrmf.expect("LRMF workload has dims");
                zoo::lrmf(LrmfParams {
                    rows,
                    cols,
                    rank,
                    learning_rate: self.learning_rate,
                    merge_coef: self.merge_coef,
                    epochs: self.epochs,
                })
            }
            algo => zoo::spec_for(
                algo,
                DenseParams {
                    n_features: self.features,
                    learning_rate: self.learning_rate,
                    merge_coef: self.merge_coef,
                    epochs: self.epochs,
                },
            ),
        }
        .expect("zoo specs are valid by construction")
    }
}

/// Ratings triples that fill the paper's published byte volume for an LRMF
/// dataset (32-byte triple slots under our layout: 12 B data + 16 B header
/// + 4 B line pointer).
const fn lrmf_triples(paper_mb: u64) -> u64 {
    paper_mb * 1_000_000 / 32
}

/// All fourteen workloads of Table 3, in the paper's row order.
pub fn all_workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "Remote Sensing LR",
            class: DatasetClass::Public,
            algorithm: Algorithm::Logistic,
            features: 54,
            lrmf: None,
            tuples: 581_102,
            paper_tuples: 581_102,
            paper_pages: 4_924,
            paper_mb: 154,
            epochs: 2,
            merge_coef: 64,
            learning_rate: 0.2,
        },
        Workload {
            name: "WLAN",
            class: DatasetClass::Public,
            algorithm: Algorithm::Logistic,
            features: 520,
            lrmf: None,
            tuples: 19_937,
            paper_tuples: 19_937,
            paper_pages: 1_330,
            paper_mb: 42,
            epochs: 11,
            merge_coef: 64,
            learning_rate: 0.2,
        },
        Workload {
            name: "Remote Sensing SVM",
            class: DatasetClass::Public,
            algorithm: Algorithm::Svm,
            features: 54,
            lrmf: None,
            tuples: 581_102,
            paper_tuples: 581_102,
            paper_pages: 4_924,
            paper_mb: 154,
            epochs: 1,
            merge_coef: 64,
            learning_rate: 0.1,
        },
        Workload {
            name: "Netflix",
            class: DatasetClass::Public,
            algorithm: Algorithm::Lrmf,
            features: 0,
            lrmf: Some((6_040, 3_952, 10)),
            tuples: lrmf_triples(96),
            paper_tuples: 6_040,
            paper_pages: 3_068,
            paper_mb: 96,
            epochs: 110,
            merge_coef: 64,
            learning_rate: 0.05,
        },
        Workload {
            name: "Patient",
            class: DatasetClass::Public,
            algorithm: Algorithm::Linear,
            features: 384,
            lrmf: None,
            tuples: 53_500,
            paper_tuples: 53_500,
            // Table 3 prints 1 941 pages / 61 MB here and 2 675 / 84 for
            // Blog Feedback: swapped in transcription, since page count
            // scales with cells — 384 × 53 500 ≈ 20.5 M here against
            // 280 × 52 397 ≈ 14.7 M (`page_counts_grow_with_cells`).
            paper_pages: 2_675,
            paper_mb: 84,
            epochs: 5,
            merge_coef: 64,
            learning_rate: 0.1,
        },
        Workload {
            name: "Blog Feedback",
            class: DatasetClass::Public,
            algorithm: Algorithm::Linear,
            features: 280,
            lrmf: None,
            tuples: 52_397,
            paper_tuples: 52_397,
            paper_pages: 1_941,
            paper_mb: 61,
            epochs: 4,
            merge_coef: 64,
            learning_rate: 0.1,
        },
        Workload {
            name: "S/N Logistic",
            class: DatasetClass::SyntheticNominal,
            algorithm: Algorithm::Logistic,
            features: 2_000,
            lrmf: None,
            tuples: 387_944,
            paper_tuples: 387_944,
            paper_pages: 96_986,
            paper_mb: 3_031,
            epochs: 10,
            merge_coef: 64,
            learning_rate: 0.2,
        },
        Workload {
            name: "S/N SVM",
            class: DatasetClass::SyntheticNominal,
            algorithm: Algorithm::Svm,
            features: 1_740,
            lrmf: None,
            tuples: 678_392,
            paper_tuples: 678_392,
            paper_pages: 169_598,
            paper_mb: 5_300,
            epochs: 120,
            merge_coef: 64,
            learning_rate: 0.1,
        },
        Workload {
            name: "S/N LRMF",
            class: DatasetClass::SyntheticNominal,
            algorithm: Algorithm::Lrmf,
            features: 0,
            lrmf: Some((19_880, 19_880, 10)),
            tuples: lrmf_triples(1_587),
            paper_tuples: 19_880,
            paper_pages: 50_784,
            paper_mb: 1_587,
            epochs: 2,
            merge_coef: 64,
            learning_rate: 0.05,
        },
        Workload {
            name: "S/N Linear",
            class: DatasetClass::SyntheticNominal,
            algorithm: Algorithm::Linear,
            features: 8_000,
            lrmf: None,
            tuples: 130_503,
            paper_tuples: 130_503,
            paper_pages: 130_503,
            paper_mb: 4_078,
            epochs: 73,
            merge_coef: 64,
            learning_rate: 0.1,
        },
        Workload {
            name: "S/E Logistic",
            class: DatasetClass::SyntheticExtensive,
            algorithm: Algorithm::Logistic,
            features: 6_033,
            lrmf: None,
            tuples: 1_044_024,
            paper_tuples: 1_044_024,
            paper_pages: 809_339,
            paper_mb: 25_292,
            epochs: 31,
            merge_coef: 64,
            learning_rate: 0.2,
        },
        Workload {
            name: "S/E SVM",
            class: DatasetClass::SyntheticExtensive,
            algorithm: Algorithm::Svm,
            features: 7_129,
            lrmf: None,
            tuples: 1_356_784,
            paper_tuples: 1_356_784,
            paper_pages: 1_242_871,
            paper_mb: 38_840,
            epochs: 2,
            merge_coef: 64,
            learning_rate: 0.1,
        },
        Workload {
            name: "S/E LRMF",
            class: DatasetClass::SyntheticExtensive,
            algorithm: Algorithm::Lrmf,
            features: 0,
            lrmf: Some((28_002, 45_064, 10)),
            tuples: lrmf_triples(5_067),
            paper_tuples: 45_064,
            paper_pages: 162_146,
            paper_mb: 5_067,
            epochs: 110,
            merge_coef: 64,
            learning_rate: 0.05,
        },
        Workload {
            name: "S/E Linear",
            class: DatasetClass::SyntheticExtensive,
            algorithm: Algorithm::Linear,
            features: 8_000,
            lrmf: None,
            tuples: 1_000_000,
            paper_tuples: 1_000_000,
            paper_pages: 1_027_961,
            paper_mb: 32_124,
            epochs: 130,
            merge_coef: 64,
            learning_rate: 0.1,
        },
    ]
}

/// Looks a workload up by its Table-3 name.
pub fn workload(name: &str) -> Option<Workload> {
    all_workloads().into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fourteen_workloads_as_in_table_3() {
        let all = all_workloads();
        assert_eq!(all.len(), 14);
        assert_eq!(
            all.iter()
                .filter(|w| w.class == DatasetClass::Public)
                .count(),
            6
        );
        assert_eq!(
            all.iter()
                .filter(|w| w.class == DatasetClass::SyntheticNominal)
                .count(),
            4
        );
        assert_eq!(
            all.iter()
                .filter(|w| w.class == DatasetClass::SyntheticExtensive)
                .count(),
            4
        );
    }

    #[test]
    fn topologies_match_table_3() {
        let rs = workload("Remote Sensing LR").unwrap();
        assert_eq!(rs.features, 54);
        assert_eq!(rs.tuples, 581_102);
        let nf = workload("Netflix").unwrap();
        assert_eq!(nf.lrmf, Some((6_040, 3_952, 10)));
        assert_eq!(nf.paper_pages, 3_068);
        let se = workload("S/E SVM").unwrap();
        assert_eq!(se.features, 7_129);
        assert_eq!(se.paper_mb, 38_840);
    }

    #[test]
    fn our_byte_volume_tracks_the_papers() {
        // Same data, different tuple header/page bookkeeping: our layout
        // must land within 2× of every published dataset size (most are
        // within ~15 %).
        for w in all_workloads() {
            let ours = w.bytes() as f64 / 1.0e6;
            let paper = w.paper_mb as f64;
            let ratio = ours / paper;
            assert!(
                ratio > 0.5 && ratio < 2.0,
                "{}: ours {ours:.0} MB vs paper {paper} MB",
                w.name
            );
        }
    }

    /// A dense table with more cells (features × tuples) has no fewer
    /// pages and megabytes in Table 3 — the check that finds the Patient
    /// and Blog Feedback rows swapped as printed.
    #[test]
    fn page_counts_grow_with_cells() {
        let mut dense: Vec<Workload> = all_workloads()
            .into_iter()
            .filter(|w| w.lrmf.is_none())
            .collect();
        dense.sort_by_key(|w| w.features as u64 * w.tuples);
        for pair in dense.windows(2) {
            let (small, large) = (&pair[0], &pair[1]);
            assert!(
                small.paper_pages <= large.paper_pages && small.paper_mb <= large.paper_mb,
                "{} has fewer cells than {} but more pages or MB",
                small.name,
                large.name
            );
        }
        let (patient, blog) = (
            workload("Patient").unwrap(),
            workload("Blog Feedback").unwrap(),
        );
        assert!(patient.paper_pages > blog.paper_pages && patient.paper_mb > blog.paper_mb);
    }

    #[test]
    fn lrmf_triples_preserve_byte_volume() {
        let nf = workload("Netflix").unwrap();
        // 3M triples at 32 B/slot ≈ 96 MB.
        assert_eq!(nf.tuples, 3_000_000);
        let ours_mb = nf.tuples * 32 / 1_000_000;
        assert!((ours_mb as i64 - 96).abs() <= 1);
    }

    #[test]
    fn scaled_workloads_keep_topology() {
        let w = workload("S/N Logistic").unwrap();
        let s = w.scaled(0.001);
        assert_eq!(s.features, w.features);
        assert_eq!(s.tuples, 387);
        assert!(w.scaled(0.0).tuples >= 64, "scale floors at a usable size");
    }

    #[test]
    fn unknown_workload_is_none() {
        assert!(workload("nope").is_none());
    }

    #[test]
    fn model_elements() {
        assert_eq!(workload("WLAN").unwrap().model_elements(), 520);
        assert_eq!(
            workload("Netflix").unwrap().model_elements(),
            (6_040 + 3_952) * 10
        );
    }
}
