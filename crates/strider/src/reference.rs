//! The per-tuple extraction reference: one `Vec<f32>` per tuple, the
//! pre-batch pipeline.
//!
//! No statement can reach this module. Its callers are `dana::reference`
//! (the end-to-end reference `tests/equivalence.rs` and
//! `tests/lowered_differential.rs` drive), this crate's unit tests, which
//! hold the batch path to it page for page, and the `micro` bench's
//! `data_path/per_tuple_reference` row.

use crate::access_engine::AccessEngine;
use crate::error::StriderResult;

/// One extracted, cleansed, float-converted training tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractedTuple {
    /// All column values in schema order, as the engine's native f32.
    pub values: Vec<f32>,
}

impl ExtractedTuple {
    /// Splits a training-schema tuple into (features, label).
    pub fn as_training(&self) -> (&[f32], f32) {
        let n = self.values.len();
        (&self.values[..n - 1], self.values[n - 1])
    }
}

impl AccessEngine {
    /// Reference per-tuple extraction path, retained for differential
    /// testing of the batch pipeline (and for callers that want row
    /// objects). Allocates one `Vec<f32>` per tuple — never used on the
    /// deploy/execute hot path.
    pub fn extract_page_rows(&self, page: &[u8]) -> StriderResult<(Vec<ExtractedTuple>, u64)> {
        let run = self.machine.run(page)?;
        let (n, full, malformed) = self.decoded_rows(&run);
        malformed?;
        let width = self.width();
        let tuples = (0..n)
            .map(|i| ExtractedTuple {
                values: full[i * width..(i + 1) * width].to_vec(),
            })
            .collect();
        Ok((tuples, run.cycles + self.conversion_cycles(n)))
    }
}
