//! The per-tuple extraction reference: the generated program run by the
//! [`StriderMachine`] interpreter, one `Vec<f32>` per tuple — the
//! pre-batch pipeline.
//!
//! No statement can reach this module. Its callers are this crate's unit
//! tests, which hold the batch path's closed-form walk to it page for
//! page, and `tests/properties.rs`. (Training has one oracle of its own,
//! the DSL interpreter `dana_ml::interp`, fed by `HeapFile::scan_batch`.)

use crate::access_engine::AccessEngine;
use crate::codegen::{live_tuples, strider_program_for_layout};
use crate::error::StriderResult;
use crate::machine::StriderMachine;

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
    /// deploy/execute hot path. A page whose header says it holds no live
    /// tuples is skipped before the interpreter sees it, as on the batch
    /// path: no rows, no cycles.
    pub fn extract_page_rows(&self, page: &[u8]) -> StriderResult<(Vec<ExtractedTuple>, u64)> {
        if live_tuples(page)? == 0 {
            return Ok((Vec::new(), 0));
        }
        let (program, config) = strider_program_for_layout(self.layout());
        let run = StriderMachine::new(program, config).run(page)?;
        let tuples = run
            .records()
            .map(|record| {
                let mut values = vec![0f32; self.width()];
                self.decoder().decode_row(record, &mut values);
                ExtractedTuple { values }
            })
            .collect();
        Ok((tuples, run.cycles + self.conversion_cycles(run.len())))
    }
}
