//! The end-to-end training reference: the whole table materialized as
//! per-tuple `Vec<f32>` rows (the pre-streaming pipeline), trained by the
//! engine's rows reference.
//!
//! No statement can reach this module. Its callers are
//! `tests/equivalence.rs` and `tests/lowered_differential.rs`, which hold
//! [`SystemCore::train_with_spec`] to bit-identical models against it.

use dana_engine::ModelStore;
use dana_storage::{PageId, PageView, Tuple};

use crate::core::SystemCore;
use crate::error::DanaResult;
use crate::exec;
use crate::runtime::ExecutionMode;

impl SystemCore {
    /// Reference data path, retained for differential testing: compiles
    /// `spec` like [`SystemCore::train_with_spec`] but materializes the
    /// entire table as per-tuple `Vec<f32>` rows first (the pre-streaming
    /// pipeline) and trains via the engine's reference rows path. The
    /// equivalence suite holds this and the streaming path to
    /// bit-identical models; it reports models only — no timing.
    pub fn train_with_spec_reference(
        &self,
        spec: &dana_dsl::AlgoSpec,
        table: &str,
        mode: ExecutionMode,
    ) -> DanaResult<Vec<Vec<f32>>> {
        let (entry, heap) = self.snapshot_table(table)?;
        let threads = (mode == ExecutionMode::Tabla).then_some(1);
        let acc = self.compile_for(spec, &heap, entry.tuple_count, threads)?;
        let access = exec::access_engine_for(&heap, acc.budget, &self.fpga);

        // Full-table materialization: one heap allocation per tuple.
        let mut tuples: Vec<Vec<f32>> = Vec::with_capacity(heap.tuple_count() as usize);
        for page_no in 0..heap.page_count() {
            let (bytes, _) =
                self.pool
                    .fetch(PageId::new(entry.heap_id, page_no), &heap, &self.disk)?;
            if mode.uses_striders() {
                let (page_tuples, _) = access.extract_page_rows(&bytes)?;
                tuples.extend(page_tuples.into_iter().map(|t| t.values));
            } else {
                let page = PageView::new(&bytes, *heap.layout())?;
                for slot in 0..page.tuple_count() {
                    let t = Tuple::deform(heap.schema(), page.tuple_bytes(slot)?)?;
                    tuples.push(t.values.iter().map(|d| d.as_f32()).collect());
                }
            }
        }

        let mut store = ModelStore::new(&acc.design, exec::initial_models(&acc.design))?;
        acc.engine.run_training_rows(&tuples, &mut store)?;
        Ok(store.into_values())
    }
}
