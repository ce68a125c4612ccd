//! Stage replay: the work of one statement, redone through the layers'
//! public functions with a span around each call, so the traced run can
//! say where a statement's wall time goes. The replay owns its buffer
//! pool (same configuration as the server's) and touches none of the
//! serial `Dana` facade, `BufferPool`, `PageStreamSource` or the
//! reference interpreters that later PRs retire.

use std::ops::Range;
use std::sync::Arc;

use dana::{exec, parse_statement, CachedAccelerator, Statement};
use dana_infer::{MetricKind, ScoringProgram};
use dana_parallel::ReplaySource;
use dana_scan::{BoundScanSpec, ScanSidecar};
use dana_storage::{HeapFile, HeapId, PageId, SharedBufferPool, TupleBatch};
use dana_strider::AccessEngine;

use crate::harness::Front;
use crate::span::Tracer;

/// A live table's heap snapshot and the id the replay files its pages
/// under in its own pool.
pub struct ReplayTable {
    pub heap: Arc<HeapFile>,
    id: HeapId,
}

pub struct Replay<'a> {
    pub front: &'a Front,
    pub pool: SharedBufferPool,
}

/// A deployed UDF's runtime pieces, as the query path resolves them.
pub struct Scorer {
    pub program: ScoringProgram,
    pub lanes: u16,
    pub metric: MetricKind,
}

impl<'a> Replay<'a> {
    pub fn new(front: &'a Front) -> Replay<'a> {
        Replay {
            front,
            pool: SharedBufferPool::with_shards(front.config.pool, front.config.pool_shards),
        }
    }

    /// `table` as the query path would snapshot it. Tables replayed
    /// through one pool need distinct `slot`s.
    pub fn table(&self, table: &str, slot: u32) -> ReplayTable {
        let heap = self
            .front
            .srv
            .core()
            .table_snapshot(table)
            .unwrap_or_else(|e| panic!("replay needs table `{table}`: {e}"));
        ReplayTable {
            heap,
            id: HeapId(slot + 1),
        }
    }

    pub fn accelerator(&self, udf: &str) -> Arc<CachedAccelerator> {
        self.front
            .srv
            .core()
            .accelerator_runtime(udf)
            .unwrap_or_else(|e| panic!("replay needs accelerator `{udf}`: {e}"))
    }

    pub fn access_engine(&self, heap: &HeapFile, acc: &CachedAccelerator) -> AccessEngine {
        exec::access_engine_for(heap, acc.budget, &self.front.config.fpga)
    }

    /// The scoring program PREDICT/EVALUATE would bind right now.
    pub fn scorer(&self, udf: &str, acc: &CachedAccelerator) -> Scorer {
        let recipe = acc
            .scoring
            .clone()
            .expect("deploy derived a scoring recipe");
        let trained = self
            .front
            .srv
            .core()
            .trained_generation(udf)
            .expect("set-up trained the model");
        Scorer {
            program: ScoringProgram::bind(&recipe, &trained.names, &trained.models)
                .expect("trained models fit the recipe"),
            lanes: acc.engine.design().num_threads.max(1),
            metric: recipe.default_metric(),
        }
    }

    /// Parses `sql` under a span, as every front-door call does.
    pub fn parse(&self, t: &mut Tracer, sql: &str) -> Statement {
        t.span("core.parse_statement", |_| parse_statement(sql))
            .expect("benchmark SQL parses")
    }

    /// Fetches and extracts the pages of `range`: one batch per page.
    pub fn scan(
        &self,
        t: &mut Tracer,
        table: &ReplayTable,
        access: &AccessEngine,
        range: Range<u32>,
    ) -> Vec<TupleBatch> {
        let heap = &*table.heap;
        let width = heap.schema().len();
        let mut batches = Vec::with_capacity(range.len());
        for page_no in range {
            let (bytes, _io) = t
                .span("storage.fetch", |_| {
                    self.pool.fetch(
                        PageId::new(table.id, page_no),
                        heap,
                        &self.front.config.disk,
                    )
                })
                .expect("page fetch");
            let mut batch = TupleBatch::with_capacity(width, heap.layout().capacity as usize);
            t.span("strider.extract", |_| {
                access.extract_page_into(&bytes, &mut batch)
            })
            .expect("page extraction");
            batches.push(batch);
        }
        batches
    }

    /// [`Replay::scan`] over `shards` page ranges on as many threads, the
    /// way a gang's members scan: one replaying source per shard.
    pub fn scan_shards(
        &self,
        t: &mut Tracer,
        table: &ReplayTable,
        access: &AccessEngine,
        ranges: &[Range<u32>],
    ) -> Vec<ReplaySource> {
        let width = table.heap.schema().len();
        let scanned: Vec<(Vec<TupleBatch>, Tracer)> = std::thread::scope(|scope| {
            let handles: Vec<_> = ranges
                .iter()
                .map(|range| {
                    let mut local = t.fork();
                    let range = range.clone();
                    scope.spawn(move || {
                        let batches = self.scan(&mut local, table, access, range);
                        (batches, local)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard scan thread"))
                .collect()
        });
        scanned
            .into_iter()
            .map(|(batches, local)| {
                t.absorb(local);
                ReplaySource::new(width, batches)
            })
            .collect()
    }

    /// The pushdown scan: zone-map pruning, compressed fetch, decompress,
    /// filtered extraction. One batch per surviving page.
    pub fn scan_filtered(
        &self,
        t: &mut Tracer,
        table: &ReplayTable,
        access: &AccessEngine,
        sidecar: &ScanSidecar,
        spec: &BoundScanSpec,
    ) -> Vec<TupleBatch> {
        let heap = &*table.heap;
        let width = spec.output_width(heap.schema().len());
        let mut batches = Vec::new();
        for page_no in 0..heap.page_count() {
            if !spec.page_can_match(sidecar.zone(page_no)) {
                continue;
            }
            let (packed, _io) = t
                .span("storage.fetch", |_| {
                    self.pool.fetch_raw(
                        PageId::new(table.id.shadow(), page_no),
                        sidecar.page(page_no),
                        &self.front.config.disk,
                    )
                })
                .expect("compressed page fetch");
            let raw = t
                .span("scan.decompress_page", |_| {
                    dana_scan::decompress_page(&packed, heap.layout(), heap.schema())
                })
                .expect("page decompression");
            drop(packed);
            let mut batch = TupleBatch::with_capacity(width, heap.layout().capacity as usize);
            t.span("strider.extract", |_| {
                access.extract_page_filtered_into(
                    &raw,
                    &mut batch,
                    spec.projection.as_deref(),
                    |row| spec.row_matches(row),
                )
            })
            .expect("filtered extraction");
            batches.push(batch);
        }
        batches
    }
}
