//! Property-based tests on the core data structures and invariants.

use std::collections::HashSet;
use std::sync::Arc;

use proptest::prelude::*;

use dana_dsl::Dims;
use dana_storage::page::TupleDirection;
use dana_storage::shared_pool::DEFAULT_SHARDS;
use dana_storage::{
    BufferPoolConfig, ColumnType, Datum, DiskModel, HeapFile, HeapFileBuilder, HeapId, PageId,
    PageLayoutDesc, PageView, RowDecoder, Schema, SharedBufferPool, SourceError, StorageResult,
    Tuple, TupleBatch, TupleSource, LINE_POINTER_BYTES, PAGE_HEADER_BYTES,
};
use dana_strider::isa::{decode_program, encode_program, Instr, Opcode, Operand, Reg};
use dana_strider::{AccessEngine, AccessEngineConfig, StriderMachine, StriderResult};

proptest! {
    /// Tuple form/deform is the identity for any finite values.
    #[test]
    fn tuple_round_trip(values in prop::collection::vec(-1.0e6f32..1.0e6, 1..60), label in -1.0e6f32..1.0e6) {
        let schema = Schema::training(values.len());
        let t = Tuple::training(&values, label);
        let bytes = t.form(&schema, 7, 0).unwrap();
        let back = Tuple::deform(&schema, &bytes).unwrap();
        prop_assert_eq!(back, t);
    }

    /// Heap construction preserves tuple order and count for any direction
    /// and supported page size.
    #[test]
    fn heap_preserves_order(
        n in 1usize..400,
        d in 1usize..24,
        dir_desc in any::<bool>(),
        page_kb in prop::sample::select(vec![8usize, 16, 32]),
    ) {
        let dir = if dir_desc { TupleDirection::Descending } else { TupleDirection::Ascending };
        let schema = Schema::training(d);
        let mut b = HeapFileBuilder::new(schema, page_kb * 1024, dir).unwrap();
        for k in 0..n {
            b.insert(&Tuple::training(&vec![k as f32; d], k as f32)).unwrap();
        }
        let heap = b.finish();
        prop_assert_eq!(heap.tuple_count(), n as u64);
        let labels: Vec<f32> = heap.scan().map(|t| t.as_training().1).collect();
        for (k, l) in labels.iter().enumerate() {
            prop_assert_eq!(*l, k as f32);
        }
    }

    /// Strider extraction equals CPU scan for arbitrary table shapes.
    #[test]
    fn strider_equals_scan(n in 1usize..200, d in 1usize..16, seed_vals in prop::collection::vec(-100.0f32..100.0, 16)) {
        let schema = Schema::training(d);
        let mut b = HeapFileBuilder::new(schema.clone(), 8 * 1024, TupleDirection::Ascending).unwrap();
        for k in 0..n {
            let x: Vec<f32> = (0..d).map(|i| seed_vals[(k + i) % seed_vals.len()] + k as f32).collect();
            b.insert(&Tuple::training(&x, -(k as f32))).unwrap();
        }
        let heap = b.finish();
        let engine = AccessEngine::for_table(
            *heap.layout(),
            schema,
            AccessEngineConfig::new(2, dana_fpga::Clock::FPGA_150MHZ, dana_fpga::AxiLink::with_bandwidth(2.5e9)),
        );
        let (tuples, stats) = engine.extract_heap(&heap).unwrap();
        prop_assert_eq!(tuples.len(), n);
        prop_assert_eq!(stats.tuples, n as u64);
        for (ext, cpu) in tuples.rows().zip(heap.scan()) {
            let vals: Vec<f32> = cpu.values.iter().map(|v| v.as_f32()).collect();
            prop_assert_eq!(ext, &vals[..]);
        }
    }

    /// Every well-formed Strider instruction survives the 22-bit encoding.
    #[test]
    fn strider_isa_round_trip(
        op in 0u32..11,
        a_reg in any::<bool>(), a in 0u8..32,
        b_reg in any::<bool>(), b in 0u8..32,
        c_reg in any::<bool>(), c in 0u8..32,
    ) {
        let mk = |is_reg: bool, v: u8| if is_reg { Operand::Reg(Reg(v)) } else { Operand::Imm(v % 32) };
        let instr = Instr::new(Opcode::from_u32(op).unwrap(), mk(a_reg, a), mk(b_reg, b), mk(c_reg, c));
        let words = encode_program(&[instr]).unwrap();
        prop_assert!(words[0] < (1 << 22));
        let back = decode_program(&words).unwrap();
        prop_assert_eq!(back[0], instr);
    }

    /// Dims broadcasting is commutative in shape (a⊗b and b⊗a agree for
    /// symmetric cases) and reduction removes exactly one axis.
    #[test]
    fn dims_algebra(a in prop::collection::vec(1usize..12, 0..3), axis in 1usize..4) {
        let d = Dims(a.clone());
        // broadcast with self: identity.
        prop_assert_eq!(d.broadcast(&d, "*").unwrap(), d.clone());
        // broadcast with scalar: identity.
        prop_assert_eq!(d.broadcast(&Dims::scalar(), "*").unwrap(), d.clone());
        prop_assert_eq!(Dims::scalar().broadcast(&d, "*").unwrap(), d.clone());
        // reduce: rank drops by one when the axis is valid.
        if axis <= d.rank() {
            let r = d.reduce(axis).unwrap();
            prop_assert_eq!(r.rank(), d.rank().saturating_sub(1));
            let removed = d.0[d.rank() - axis];
            prop_assert_eq!(r.elements() * removed, d.elements());
        }
    }

    /// The buffer pool never exceeds its frame budget, never loses or
    /// mutates an image a reader still holds, counts hits + misses ==
    /// fetches, and holds no frame once every reader has dropped its
    /// image — with one lock shard (an embedded system's pool) and with
    /// the serving default.
    #[test]
    fn bufferpool_invariants(
        ops in prop::collection::vec(0u32..12, 1..150),
        frames in 2usize..8,
        sharded in any::<bool>(),
    ) {
        let schema = Schema::training(4);
        let mut b = HeapFileBuilder::new(schema, 8 * 1024, TupleDirection::Ascending).unwrap();
        for k in 0..2400 {
            b.insert(&Tuple::training(&[k as f32; 4], 0.0)).unwrap();
        }
        let heap = b.finish();
        prop_assume!(heap.page_count() >= 12);
        let pool = SharedBufferPool::with_shards(
            BufferPoolConfig {
                pool_bytes: (frames * 8 * 1024) as u64,
                page_size: 8 * 1024,
            },
            if sharded { DEFAULT_SHARDS } else { 1 },
        );
        let disk = DiskModel::instant();
        let mut fetches = 0u64;
        // One image stays held across later fetches; every third fetch
        // swaps it for the page just read.
        let mut held = None;
        for (i, page_no) in ops.into_iter().enumerate() {
            let page = PageId::new(HeapId(0), page_no);
            // A fetch refused because every frame of the shard is held
            // still counts (as a miss).
            fetches += 1;
            if let Ok((bytes, _)) = pool.fetch(page, &heap, &disk) {
                prop_assert_eq!(&*bytes, heap.page_bytes(page_no).unwrap());
                if i % 3 == 0 {
                    held = Some((page, bytes));
                }
            }
            if let Some((page, bytes)) = &held {
                prop_assert!(pool.contains(*page), "a held page was evicted");
                prop_assert_eq!(&**bytes, heap.page_bytes(page.page_no).unwrap());
            }
            prop_assert!(pool.resident_pages() <= pool.frames());
        }
        let stats = pool.stats();
        prop_assert_eq!(stats.hits + stats.misses, fetches);
        drop(held);
        prop_assert_eq!(pool.held_frames(), 0);
    }

    /// Random histories over a small multi-shard pool, two heaps and one
    /// sidecar: fetches (raw and compressed, some guards kept), releases,
    /// clears, forced evictions and prewarms. After every step each image
    /// is its source's bytes, lent rather than copied; `held_frames()`
    /// counts the frames with an outstanding guard; residency stays within
    /// the frame budget; and the misses' `io_seconds` is the sum of their
    /// `read_time`s. The stand-in proptest does not shrink, so a failure
    /// prints the case's seed and step list.
    #[test]
    fn pool_histories(seed in 0u64..u64::MAX, len in 1usize..120) {
        let steps = pool_history(seed, len);
        if let Err(failure) = run_pool_history(&steps) {
            panic!("seed {seed:#x}, steps {steps:?}: {failure}");
        }
    }

    /// Page checksums detect any single-byte corruption of the data area.
    #[test]
    fn checksum_detects_corruption(offset in 0usize..1000, flip in 1u8..255) {
        let schema = Schema::training(8);
        let mut b = HeapFileBuilder::new(schema, 8 * 1024, TupleDirection::Ascending).unwrap();
        for k in 0..100 {
            b.insert(&Tuple::training(&[k as f32; 8], 0.0)).unwrap();
        }
        let heap = b.finish();
        let mut bytes = heap.page_bytes(0).unwrap().to_vec();
        let pos = dana_storage::PAGE_HEADER_BYTES + (offset % (bytes.len() - dana_storage::PAGE_HEADER_BYTES));
        bytes[pos] ^= flip;
        let page = dana_storage::PageView::new(&bytes, *heap.layout()).unwrap();
        prop_assert!(!page.verify_checksum());
    }

    /// One flipped bit anywhere past the page header — the last 8 bytes,
    /// which the checksum folds byte-wise after its word lanes, as much as
    /// any lane word — fails verification, on every page size and for both
    /// placement directions.
    #[test]
    fn checksum_detects_any_single_bit_flip(
        page_kb in prop::sample::select(vec![8usize, 16, 32]),
        descending in any::<bool>(),
        n in 1usize..120,
        in_tail in any::<bool>(),
        pos in 0usize..1 << 15,
        bit in 0u8..8,
    ) {
        let direction = if descending { TupleDirection::Descending } else { TupleDirection::Ascending };
        let mut b = HeapFileBuilder::new(Schema::training(8), page_kb * 1024, direction).unwrap();
        for k in 0..n {
            b.insert(&Tuple::training(&[k as f32 * 0.75; 8], -(k as f32))).unwrap();
        }
        let heap = b.finish();
        let mut bytes = heap.page_bytes(0).unwrap().to_vec();
        let at = if in_tail {
            bytes.len() - 8 + pos % 8
        } else {
            PAGE_HEADER_BYTES + pos % (bytes.len() - PAGE_HEADER_BYTES)
        };
        bytes[at] ^= 1 << bit;
        let page = PageView::new(&bytes, *heap.layout()).unwrap();
        prop_assert!(!page.verify_checksum(), "bit {bit} of byte {at} went unnoticed");
    }
}

/// One step of a random buffer-pool history. Sources 0 and 1 are heaps,
/// source 2 is heap 0's sidecar (fetched compressed, under its shadow id).
#[derive(Debug, Clone, Copy)]
enum PoolStep {
    /// Fetch one page of a source; keep the guard when `hold`.
    Fetch {
        source: usize,
        page: u32,
        hold: bool,
    },
    /// Drop the `k % n`-th of the `n` outstanding guards.
    Release(usize),
    Clear,
    EvictHeapForce(usize),
    Prewarm(usize),
}

/// The steps a seed stands for (splitmix64 draws).
fn pool_history(seed: u64, len: usize) -> Vec<PoolStep> {
    let mut state = seed;
    let mut draw = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..len)
        .map(|_| {
            let r = draw();
            let arg = (r >> 8) as usize;
            // A forced eviction tombstones its heap for the rest of the
            // history, so it is the rarest step.
            match r % 32 {
                0..=17 => PoolStep::Fetch {
                    source: arg % 3,
                    page: (r >> 24) as u32 % 11,
                    hold: (r >> 40) & 1 == 1,
                },
                18..=23 => PoolStep::Release(arg),
                24..=26 => PoolStep::Clear,
                27 => PoolStep::EvictHeapForce(arg % 3),
                _ => PoolStep::Prewarm(arg % 2),
            }
        })
        .collect()
}

/// Runs `steps`, checking the pool against a model of it after each one.
fn run_pool_history(steps: &[PoolStep]) -> Result<(), String> {
    let heap_of = |tuples: usize| {
        let mut b =
            HeapFileBuilder::new(Schema::training(4), 8 * 1024, TupleDirection::Ascending).unwrap();
        for k in 0..tuples {
            b.insert(&Tuple::training(&[(k % 7) as f32; 4], k as f32))
                .unwrap();
        }
        b.finish()
    };
    // 10 and 8 pages: a fetch of page 10 of either, or 8–9 of the
    // second, is out of range.
    let heaps = [heap_of(2000), heap_of(1600)];
    let sidecar = dana::ScanSidecar::build(&heaps[0]).unwrap();
    let ids = [HeapId(1), HeapId(2), HeapId(1).shadow()];
    let pool = SharedBufferPool::with_shards(
        BufferPoolConfig {
            pool_bytes: 6 * 8 * 1024,
            page_size: 8 * 1024,
        },
        3,
    );
    // Dyadic timings: every sum of read times is exact in any order, so
    // the shards' total can be held to the model's with `==`.
    let disk = DiskModel {
        seq_read_bandwidth: (1u64 << 20) as f64,
        access_latency: 1.0 / 1024.0,
    };
    let source = |s: usize, page_no: u32| -> Option<&[u8]> {
        match s {
            2 => (page_no < sidecar.page_count()).then(|| sidecar.page(page_no).as_slice()),
            _ => heaps[s].page_bytes(page_no).ok(),
        }
    };
    struct Held {
        page: PageId,
        source: usize,
        /// False once its heap was force-evicted, or when it was fetched
        /// from a tombstoned heap.
        pins: bool,
        guard: dana_storage::PageGuard,
    }
    let mut held: Vec<Held> = Vec::new();
    let (mut fetches, mut io) = (0u64, 0.0f64);
    for (i, step) in steps.iter().enumerate() {
        let fail = |what: String| Err(format!("step {i} ({step:?}): {what}"));
        match *step {
            PoolStep::Fetch {
                source: s,
                page,
                hold,
            } => {
                let page = if s == 2 {
                    page % sidecar.page_count()
                } else {
                    page
                };
                let page_id = PageId::new(ids[s], page);
                let misses = pool.stats().misses;
                let (result, charged) = match s {
                    2 => {
                        let image = sidecar.page(page);
                        (pool.fetch_raw(page_id, image, &disk), image.len() as u64)
                    }
                    _ => (pool.fetch(page_id, &heaps[s], &disk), 8 * 1024),
                };
                fetches += 1;
                let missed = pool.stats().misses > misses;
                if missed {
                    io += disk.read_time(charged);
                }
                match (result, source(s, page)) {
                    (Ok((guard, seconds)), Some(bytes)) => {
                        if seconds != if missed { disk.read_time(charged) } else { 0.0 } {
                            return fail(format!("charged {seconds} (miss: {missed})"));
                        }
                        if guard.as_ptr() != bytes.as_ptr() || *guard != *bytes {
                            return fail("the image is not its source's page".into());
                        }
                        // A miss of a dropped heap lends the image but pins nothing.
                        let tombstoned = missed && !pool.contains(page_id);
                        if hold {
                            held.push(Held {
                                page: page_id,
                                source: s,
                                pins: !tombstoned,
                                guard,
                            });
                        }
                    }
                    (Err(dana_storage::StorageError::PageOutOfRange { .. }), None) => {}
                    (Err(dana_storage::StorageError::BufferPoolExhausted), Some(_)) => {}
                    (result, _) => return fail(format!("unexpected {result:?}")),
                }
            }
            PoolStep::Release(k) => {
                if !held.is_empty() {
                    held.swap_remove(k % held.len());
                }
            }
            PoolStep::Clear => pool.clear(),
            PoolStep::EvictHeapForce(s) => {
                pool.evict_heap_force(ids[s]);
                for h in held.iter_mut().filter(|h| h.page.heap == ids[s]) {
                    h.pins = false;
                }
            }
            PoolStep::Prewarm(s) => {
                if let Err(e) = pool.prewarm(ids[s], &heaps[s]) {
                    return fail(format!("prewarm: {e}"));
                }
            }
        }
        for h in &held {
            if Some(&*h.guard) != source(h.source, h.page.page_no) {
                return fail(format!("held image of {:?} changed", h.page));
            }
        }
        let pinned: HashSet<PageId> = held.iter().filter(|h| h.pins).map(|h| h.page).collect();
        if pool.held_frames() != pinned.len() {
            return fail(format!(
                "held_frames {} != {}",
                pool.held_frames(),
                pinned.len()
            ));
        }
        if pool.resident_pages() > pool.frames() {
            return fail(format!("{} resident pages", pool.resident_pages()));
        }
        let stats = pool.stats();
        if stats.hits + stats.misses != fetches || stats.io_seconds != io {
            return fail(format!("{stats:?} after {fetches} fetches, io {io}"));
        }
    }
    drop(held);
    match pool.held_frames() {
        0 => Ok(()),
        n => Err(format!("{n} frames held after every guard dropped")),
    }
}

// ALU ops agree with plain f32 arithmetic (non-property spot checks for
// the full op set are in the engine crate; here: random operands).
proptest! {
    #[test]
    fn alu_matches_f32(a in -1.0e3f32..1.0e3, b in -1.0e3f32..1.0e3) {
        use dana_engine::AluOp;
        prop_assert_eq!(AluOp::Add.apply(a, b), a + b);
        prop_assert_eq!(AluOp::Sub.apply(a, b), a - b);
        prop_assert_eq!(AluOp::Mul.apply(a, b), a * b);
        prop_assert_eq!(AluOp::Max.apply(a, b), a.max(b));
        prop_assert_eq!(AluOp::Gt.apply(a, b), if a > b { 1.0 } else { 0.0 });
        prop_assert_eq!(AluOp::Mov.apply(a, b), a);
    }
}

/// What `parse_statement_never_panics` glues into statements: every
/// keyword in both cases, the punctuation and operators, a schema prefix,
/// numbers (finite, overflowing, non-finite) and multi-byte atoms — the
/// vendored proptest has no string strategy, so a statement is a vector
/// of indices into this table.
const SQL_ATOMS: &[&str] = &[
    "SELECT",
    "select",
    "FROM",
    "from",
    "EXECUTE",
    "execute",
    "PREDICT",
    "predict",
    "INTO",
    "into",
    "VALUES",
    "values",
    "EVALUATE",
    "evaluate",
    "EXPLAIN",
    "explain",
    "ANALYZE",
    "analyze",
    "SHOW",
    "show",
    "STATS",
    "stats",
    "WHERE",
    "where",
    "AND",
    "and",
    "COLUMNS",
    "columns",
    "WITH",
    "with",
    "shards",
    "backend",
    "trace",
    "timeout_ms",
    "retries",
    "(",
    ")",
    ",",
    ";",
    "'",
    "\"",
    "=",
    "<",
    "<=",
    "<>",
    "!=",
    "*",
    "dana.",
    "f",
    "'t'",
    "x0",
    "1",
    "-2.5",
    "1e40",
    "nan",
    "inf",
    "é",
    "日本",
    "ß",
    "İ",
    "\u{a0}",
    " ",
];

/// Whether `parse_statement(sql)` returned — a statement or a typed
/// query error — rather than unwinding.
fn parses_or_refuses(sql: &str) -> bool {
    matches!(
        std::panic::catch_unwind(|| dana::parse_statement(sql)),
        Ok(Ok(_) | Err(dana::DanaError::Query(_)))
    )
}

// ROADMAP robustness 4(a): the SQL front door answers arbitrary strings
// with a statement or a typed error, never a panic — it runs on the
// *caller's* thread of `DanaServer::submit`, outside any `catch_unwind`.
proptest! {
    #[test]
    fn parse_statement_never_panics(
        soups in prop::collection::vec(prop::collection::vec(0usize..SQL_ATOMS.len(), 1..14), 64),
        spaced in any::<bool>(),
        blobs in prop::collection::vec(prop::collection::vec(0u16..256, 0..48), 16),
    ) {
        for soup in &soups {
            let atoms: Vec<&str> = soup.iter().map(|&i| SQL_ATOMS[i]).collect();
            let sql = atoms.join(if spaced { " " } else { "" });
            prop_assert!(parses_or_refuses(&sql), "panicked on {sql:?}");
        }
        for blob in &blobs {
            let bytes: Vec<u8> = blob.iter().map(|&b| b as u8).collect();
            let sql = String::from_utf8_lossy(&bytes);
            prop_assert!(parses_or_refuses(&sql), "panicked on {sql:?}");
        }
    }
}

/// Whether every reader of the page format answers `bytes` with a value or
/// a typed error — no unwinding — and only ever appends whole rows: the one
/// page reader (`PageView`: header, line pointers, `t_hoff`, checksum), the
/// zone-map / slot-selection style of decoding (`user_data` → `RowDecoder`),
/// the CPU deform the oracle reads through, and Strider extraction.
fn readers_survive(
    bytes: &[u8],
    heap: &HeapFile,
    decoder: &RowDecoder,
    engine: &AccessEngine,
) -> bool {
    let layout = *heap.layout();
    let width = decoder.columns().len();
    let whole_rows = |b: &TupleBatch| b.as_slice().len() == b.len() * width;
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut ok = true;
        let view: StorageResult<PageView> = PageView::new(bytes, layout);
        if let Ok(view) = view {
            let _: bool = view.verify_checksum();
            let mut row = vec![0f32; width];
            // Every live slot, and the one past the last.
            for slot in 0..=view.tuple_count() {
                let _: StorageResult<&[u8]> = view.tuple_bytes(slot);
                if let Ok(data) = view.user_data(slot, decoder.data_width()) {
                    decoder.decode_row(data, &mut row);
                }
            }
            let mut batch = TupleBatch::new(width);
            let deformed: StorageResult<()> = view.deform_all_into(decoder, &mut batch);
            ok &= whole_rows(&batch);
            ok &= deformed.is_err() || batch.len() == view.tuple_count() as usize;
        }
        let mut batch = TupleBatch::from_rows(width, [vec![9.0; width]]);
        let _: StriderResult<u64> = engine.extract_page_into(bytes, &mut batch);
        ok &= whole_rows(&batch) && batch.row(0).iter().all(|v| *v == 9.0);
        // A statement's scan that finds `bytes` in the pool as its page 0:
        // whole batches or a typed error, and the frame hold released
        // either way — mid-scan errors included.
        let pool = SharedBufferPool::with_shards(
            BufferPoolConfig {
                pool_bytes: 1 << 20,
                page_size: layout.page_size,
            },
            1,
        );
        let disk = DiskModel::instant();
        drop(pool.fetch_raw(PageId::new(HeapId(1), 0), &Arc::new(bytes.to_vec()), &disk));
        let mut scan = dana::SharedPageStreamSource::with_range(
            &pool,
            &disk,
            heap,
            HeapId(1),
            engine,
            0,
            heap.page_count(),
        );
        let mut pass = |scan: &mut dana::SharedPageStreamSource<'_>| loop {
            match scan.next_batch() {
                Ok(Some(batch)) => ok &= whole_rows(batch),
                Ok(None) => break true,
                Err(SourceError(_)) => break false,
            }
        };
        let streamed = pass(&mut scan);
        // A rewound pass reads the same page 0 out of the pool again: it
        // ends as the first pass did.
        let again = scan.rewind().is_ok() && pass(&mut scan);
        ok &= pool.held_frames() == 0;
        ok &= again == streamed;
        ok &= streamed || bytes != heap.page_bytes(0).unwrap();
        ok
    }))
    .unwrap_or(false)
}

// ROADMAP robustness 4(a) for the page format: start from builder pages
// over random schemas and both placement directions, then truncate the
// image or flip bytes where the readers look — the page header, the tuple
// count, a line pointer, a tuple's `t_hoff` — and require values or typed
// `StorageError` / `StriderError`s, never a panic or a partial row.
proptest! {
    #[test]
    fn hostile_pages_are_typed_errors_never_panics(
        types in prop::collection::vec(0usize..4, 1..7),
        descending in any::<bool>(),
        n in 1usize..260,
        kinds in prop::collection::vec(0usize..5, 1..7),
        positions in prop::collection::vec(0usize..1 << 16, 6),
        flips in prop::collection::vec(1u16..256, 6),
    ) {
        let types: Vec<ColumnType> = types.iter().map(|&t| COLUMN_TYPES[t]).collect();
        let schema = schema_of(&types);
        let direction = if descending { TupleDirection::Descending } else { TupleDirection::Ascending };
        let mut b = HeapFileBuilder::new(schema.clone(), 8 * 1024, direction).unwrap();
        for k in 0..n as i32 {
            let values = types.iter().map(|ty| match ty {
                ColumnType::Float4 => Datum::Float4(k as f32 * 0.5),
                ColumnType::Float8 => Datum::Float8(f64::from(k) * -0.25),
                ColumnType::Int4 => Datum::Int4(k - 7),
                ColumnType::Int8 => Datum::Int8(i64::from(k) << 33),
            });
            b.insert(&Tuple::new(values.collect())).unwrap();
        }
        let heap = b.finish();
        let layout = *heap.layout();
        let decoder = RowDecoder::new(&schema);
        let engine = AccessEngine::for_table(
            layout,
            schema,
            AccessEngineConfig::new(1, dana_fpga::Clock::FPGA_150MHZ, dana_fpga::AxiLink::with_bandwidth(2.5e9)),
        );
        let clean = heap.page_bytes(0).unwrap();
        let live = PageView::new(clean, layout).unwrap().tuple_count() as usize;
        prop_assert!(readers_survive(clean, &heap, &decoder, &engine));

        // Each kind of damage alone, then all of them piled on one image.
        let mut piled = clean.to_vec();
        for (i, &kind) in kinds.iter().enumerate() {
            let (pos, flip) = (positions[i], flips[i] as u8);
            let mut alone = clean.to_vec();
            for bytes in [&mut alone, &mut piled] {
                let at = match kind {
                    0 => {
                        bytes.truncate(pos % bytes.len().max(1));
                        continue;
                    }
                    1 => pos % PAGE_HEADER_BYTES,
                    2 => 16 + pos % 2, // tuple count
                    3 => PAGE_HEADER_BYTES + pos % (live * LINE_POINTER_BYTES),
                    _ => layout.tuple_offset((pos % live) as u16) + 10, // t_hoff
                };
                if let Some(byte) = bytes.get_mut(at) {
                    *byte ^= flip;
                }
            }
            prop_assert!(
                readers_survive(&alone, &heap, &decoder, &engine),
                "damage {kind} at {pos} ^ {flip:#x}: {types:?} {direction:?} n={n}"
            );
        }
        prop_assert!(
            readers_survive(&piled, &heap, &decoder, &engine),
            "damage {kinds:?} at {positions:?} ^ {flips:?}: {types:?} {direction:?} n={n}"
        );
    }
}

/// A page's records and cycles, or the error, as the Strider interpreter
/// running the generated program reports them — the oracle of
/// `strider_walk_is_the_programs_run`.
type Run = StriderResult<(Vec<Vec<u8>>, u64)>;

fn interpreted(layout: &PageLayoutDesc, page: &[u8]) -> Run {
    let (program, config) = dana_strider::strider_program_for_layout(layout);
    let run = StriderMachine::new(program, config).run(page)?;
    Ok((run.records().map(<[u8]>::to_vec).collect(), run.cycles))
}

fn walked(layout: &PageLayoutDesc, page: &[u8]) -> Run {
    let walk = dana_strider::codegen::walk_page(layout, page)?;
    Ok((walk.records().map(<[u8]>::to_vec).collect(), walk.cycles()))
}

// Extraction evaluates the generated Strider program in closed form. Over
// random layouts — both placement directions, three page sizes, every
// column type, 1..capacity rows — and builder pages damaged where the
// program looks (the live count, the first line pointer, the length) or
// anywhere (bit flips), the walk must be the interpreter's run: the same
// records byte for byte and the same cycles, or the same error. The one
// departure is a page whose header says it holds no live tuples: skipped
// host-side, no records and no cycles. Extraction and the interpreting
// reference then give the same rows, bit for bit, or the same error.
proptest! {
    #[test]
    fn strider_walk_is_the_programs_run(
        types in prop::collection::vec(0usize..4, 1..7),
        descending in any::<bool>(),
        page_kb in prop::sample::select(vec![8usize, 16, 32]),
        fill in 0usize..1 << 16,
        positions in prop::collection::vec(0usize..1 << 16, 13),
        piled in prop::collection::vec(0usize..13, 2..5),
    ) {
        let types: Vec<ColumnType> = types.iter().map(|&t| COLUMN_TYPES[t]).collect();
        let direction = if descending { TupleDirection::Descending } else { TupleDirection::Ascending };
        let schema = schema_of(&types);
        let layout = HeapFileBuilder::layout_for(&schema, page_kb * 1024, direction).unwrap();
        let capacity = layout.capacity as usize;
        let rows = 1 + fill % capacity;
        let heap = lane_table(&types, direction, page_kb, rows, fill as u64, u64::MAX);
        prop_assert_eq!(heap.page_count(), 1);
        let engine = AccessEngine::for_table(
            layout,
            schema,
            AccessEngineConfig::new(1, dana_fpga::Clock::FPGA_150MHZ, dana_fpga::AxiLink::with_bandwidth(2.5e9)),
        );
        let clean = heap.page_bytes(0).unwrap();
        let set = |page: &mut Vec<u8>, at: usize, v: usize| {
            page[at..at + 2].copy_from_slice(&(v as u16).to_le_bytes());
        };
        let damage = |page: &mut Vec<u8>, kind: usize, x: usize| {
            let tuple = layout.tuple_bytes;
            match kind {
                // A header field a piled truncation cut off stays cut off.
                _ if kind < 8 && page.len() < 28 => {}
                // The live count.
                0 => set(page, 16, 0),
                1 => set(page, 16, 1),
                2 => set(page, 16, capacity),
                3 => set(page, 16, capacity + 1 + x % 64),
                4 => set(page, 16, u16::MAX as usize),
                // The first line pointer.
                5 => set(page, 24, 0),
                6 => set(page, 24, layout.page_size - 1 - x % tuple),
                7 => set(page, 24, layout.page_size + x % (u16::MAX as usize - layout.page_size)),
                // Truncation: inside the live count, inside the first line
                // pointer, inside a tuple.
                8 => page.truncate(x % 18),
                9 => page.truncate(18 + x % 10),
                10 => page.truncate(layout.tuple_offset((x % rows) as u16) + 1 + x % (tuple - 1)),
                // A bit flip in the header and first line pointer, or anywhere.
                _ => {
                    let at = if kind == 11 { x % 28 } else { x % page.len().max(1) };
                    if let Some(byte) = page.get_mut(at) {
                        *byte ^= 1 << (x >> 10 & 7);
                    }
                }
            }
        };
        let mut pages = vec![clean.to_vec()];
        for (kind, &x) in positions.iter().enumerate() {
            let mut page = clean.to_vec();
            damage(&mut page, kind, x);
            pages.push(page);
        }
        let mut page = clean.to_vec();
        for &kind in &piled {
            damage(&mut page, kind, positions[kind]);
        }
        pages.push(page);

        for (i, page) in pages.iter().enumerate() {
            let skipped = page.get(16..18) == Some(&[0, 0][..]);
            let expected = if skipped { Ok((Vec::new(), 0)) } else { interpreted(&layout, page) };
            prop_assert_eq!(walked(&layout, page), expected, "page {} {:?} {:?} rows={}", i, types, direction, rows);

            let mut batch = TupleBatch::new(types.len());
            let extracted = engine
                .extract_page_into(page, &mut batch)
                .map(|cycles| (bits_of(&batch), cycles));
            let reference = engine.extract_page_rows(page).map(|(tuples, cycles)| {
                let bits = tuples.iter().flat_map(|t| t.values.iter().map(|v| v.to_bits()));
                (bits.collect::<Vec<u32>>(), cycles)
            });
            prop_assert_eq!(extracted, reference, "page {} {:?} {:?} rows={}", i, types, direction, rows);
        }
    }
}

/// Adversarial f32 bit patterns: quiet/signaling NaNs with payloads, ±0,
/// subnormals, ±inf.
const ODDBALLS: [u32; 10] = [
    0x7FC0_0000,
    0x7FC0_1234,
    0xFFC0_0001,
    0x7F80_0001,
    0x8000_0000,
    0x0000_0000,
    0x0000_0001,
    0x807F_FFFF,
    0x7F80_0000,
    0xFF80_0000,
];

/// What the page fuzzers' `types` indices pick.
const COLUMN_TYPES: [ColumnType; 4] = [
    ColumnType::Float4,
    ColumnType::Float8,
    ColumnType::Int4,
    ColumnType::Int8,
];

/// A schema of `types`, columns named `c0, c1, …`.
fn schema_of(types: &[ColumnType]) -> Schema {
    Schema::new(
        types
            .iter()
            .enumerate()
            .map(|(i, &ty)| (format!("c{i}"), ty))
            .collect(),
    )
}

/// A heap over `types` whose column `c` follows pattern
/// `(patterns >> 3c) & 7` — 0: one value (a lane of bit width 0); 1: the
/// oddballs and a few dozen other widely spread values, widened for 8-byte
/// columns (a dictionary lane of up to 6-bit indices); 2: a narrow integer
/// range (a narrow frame-of-reference lane); 3: random bits shifted right
/// by `c + 1` (a lane a few bits narrower than its cells: 58–63 bits for
/// an 8-byte column); 4: one of `k` widely spread bit patterns, `k` in
/// 2..=256 from byte `c` of `seed` (on a full page, a dictionary lane of
/// any index width 1–8, its dictionary often short of `2^bw` entries);
/// otherwise random bit patterns (64 bits wide in Int8 / Float8 columns).
fn lane_table(
    types: &[ColumnType],
    direction: TupleDirection,
    page_kb: usize,
    rows: usize,
    seed: u64,
    patterns: u64,
) -> HeapFile {
    let mut b = HeapFileBuilder::new(schema_of(types), page_kb * 1024, direction).unwrap();
    for k in 0..rows {
        let values = types.iter().enumerate().map(|(c, &ty)| {
            let random = seed
                .wrapping_add((k * 31 + c) as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(29)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let level = match random % 3 {
                0 => ODDBALLS[(random % ODDBALLS.len() as u64) as usize],
                _ => ((random >> 32) % 50) as u32 * 0x0503_0107,
            };
            let bits = match (patterns >> (3 * c)) & 7 {
                0 => seed.rotate_left(c as u32),
                1 if ty.width() == 4 => u64::from(level),
                1 => f64::from(f32::from_bits(level)).to_bits(),
                2 => random % 100,
                3 => random >> (c + 1),
                4 => {
                    let k = 2 + (seed.rotate_right(8 * c as u32) & 0xFF) % 255;
                    (1 + (random >> 8) % k).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                }
                _ => random,
            };
            match ty {
                ColumnType::Float4 => Datum::Float4(f32::from_bits(bits as u32)),
                ColumnType::Float8 => Datum::Float8(f64::from_bits(bits)),
                ColumnType::Int4 => Datum::Int4(bits as u32 as i32),
                ColumnType::Int8 => Datum::Int8(bits as i64),
            }
        });
        b.insert(&Tuple::new(values.collect())).unwrap();
    }
    b.finish()
}

/// Where one lane of a `CODEC_FOR` image keeps its mode byte, its bit
/// width byte and its packed codes.
struct LaneAt {
    mode: usize,
    bw: usize,
    codes: std::ops::Range<usize>,
}

/// The lanes of a well-formed `CODEC_FOR` image, read off the lane format
/// `dana_scan::codec` documents (`[mode][min | n_dict, dict][bw][codes]`,
/// one lane per tuple-header word, then one per column).
fn lanes_of(packed: &[u8], heap: &HeapFile) -> Vec<LaneAt> {
    let layout = heap.layout();
    let n = u16::from_le_bytes([packed[17], packed[18]]) as usize;
    let widths = std::iter::repeat_n(4, layout.tuple_header_bytes / 4)
        .chain(heap.schema().columns().iter().map(|c| c.ty.width()));
    let mut at = 1 + PAGE_HEADER_BYTES + layout.special_bytes;
    widths
        .map(|width| {
            let mode = at;
            at += 1 + match packed[mode] {
                0 => width,
                _ => 2 + width * u16::from_le_bytes([packed[at + 1], packed[at + 2]]) as usize,
            };
            let bw = at;
            at += 1;
            let codes = at..at + (n * packed[bw] as usize).div_ceil(8);
            at = codes.end;
            LaneAt { mode, bw, codes }
        })
        .collect()
}

/// One conjunct per pick: a column, one of the six operators, and a
/// constant drawn from that column's cells on `page` (NaNs and ±0 among
/// them whenever the column holds oddballs).
fn conjuncts_over(page: &PageView, decoder: &RowDecoder, picks: &[usize]) -> Vec<dana::Predicate> {
    let ops = [
        dana::CmpOp::Lt,
        dana::CmpOp::Le,
        dana::CmpOp::Gt,
        dana::CmpOp::Ge,
        dana::CmpOp::Eq,
        dana::CmpOp::Ne,
    ];
    let ncols = decoder.columns().len();
    let mut row = vec![0f32; ncols];
    picks
        .iter()
        .map(|&pick| {
            // At most six columns: the three fields of `pick` do not overlap.
            let column = pick % ncols;
            let slot = (pick / 64 % page.tuple_count() as usize) as u16;
            decoder.decode_row(
                page.user_data(slot, decoder.data_width()).unwrap(),
                &mut row,
            );
            dana::Predicate {
                column: format!("c{column}"),
                op: ops[pick / 8 % ops.len()],
                value: row[column],
            }
        })
        .collect()
}

fn bits_of(batch: &TupleBatch) -> Vec<u32> {
    batch.as_slice().iter().map(|v| v.to_bits()).collect()
}

// ROADMAP 2(a): a pushdown scan filters a `CODEC_FOR` page on its lanes.
// Over random schemas, both placement directions, three page sizes,
// partial and full pages, random conjunctions and projections, that must
// give exactly what rebuilding the page and walking it gives — batch bits,
// kept slots, and the Strider cycles it is charged.
proptest! {
    #[test]
    fn lane_filter_is_the_rebuilt_page_walk(
        types in prop::collection::vec(0usize..4, 1..7),
        descending in any::<bool>(),
        page_kb in prop::sample::select(vec![8usize, 16, 32]),
        fill in 0usize..1 << 16,
        seed in 0u64..u64::MAX,
        patterns in 0u64..u64::MAX,
        picks in prop::collection::vec(0usize..1 << 20, 0..4),
        projection in prop::collection::vec(0usize..64, 0..5),
    ) {
        let types: Vec<ColumnType> = types.iter().map(|&t| COLUMN_TYPES[t]).collect();
        let direction = if descending { TupleDirection::Descending } else { TupleDirection::Ascending };
        let schema = schema_of(&types);
        let capacity = HeapFileBuilder::layout_for(&schema, page_kb * 1024, direction).unwrap().capacity as usize;
        let heap = lane_table(&types, direction, page_kb, 1 + fill % (2 * capacity), seed, patterns);
        let layout = *heap.layout();
        let decoder = RowDecoder::new(&schema);
        let engine = AccessEngine::for_table(
            layout,
            schema.clone(),
            AccessEngineConfig::new(1, dana_fpga::Clock::FPGA_150MHZ, dana_fpga::AxiLink::with_bandwidth(2.5e9)),
        );
        for p in 0..heap.page_count() {
            let packed = dana::compress_page(heap.page_bytes(p).unwrap(), &layout, &schema);
            if packed[0] != dana::CODEC_FOR {
                continue;
            }
            let spec = dana::ScanSpec {
                predicates: conjuncts_over(&heap.page(p).unwrap(), &decoder, &picks),
                projection: (!projection.is_empty())
                    .then(|| projection.iter().map(|c| format!("c{}", c % types.len())).collect()),
            };
            let bound = spec.bind(&schema).unwrap();
            let width = bound.output_width(types.len());

            let page = dana::ForPage::open(&packed, &layout, &schema).unwrap().unwrap();
            let (mut lanes, mut kept) = (TupleBatch::new(width), Vec::new());
            page.filter_into(&bound, &mut lanes, &mut kept, &mut dana::LaneScratch::default());

            let rebuilt = dana::decompress_page(&packed, &layout, &schema).unwrap();
            let (mut walked, mut walked_kept, mut slot) = (TupleBatch::new(width), Vec::new(), 0u16);
            let cycles = engine
                .extract_page_filtered_into(&rebuilt, &mut walked, bound.projection.as_deref(), |row| {
                    let keep = bound.row_matches(row);
                    if keep {
                        walked_kept.push(slot);
                    }
                    slot += 1;
                    keep
                })
                .unwrap();
            prop_assert_eq!(bits_of(&lanes), bits_of(&walked), "page {} {:?} {:?}", p, spec, types);
            prop_assert_eq!(&kept, &walked_kept, "page {} {:?}", p, spec);
            prop_assert_eq!(engine.canonical_page_cycles(page.tuple_count()), cycles);
        }
    }
}

/// What `lane_filter_is_the_rebuilt_page_walk` compares reaches every lane
/// shape the reader has: frame-of-reference and dictionary lanes, bit
/// width 0, widths past 56 (one 8-byte load no longer holds a code), bit
/// width 64, and dictionary lanes of every index width 1–8 — the widths
/// whose indexes are checked and unpacked eight at a time — with fewer
/// than `2^bw` entries at widths 2–8, so that `ForPage::open` checks them.
/// (A dictionary of 1-bit indexes has two entries: every code indexes it.)
#[test]
fn lane_table_reaches_every_lane_shape() {
    let mut shapes = std::collections::BTreeSet::new();
    let mut shapes_of = |page_kb, rows, seed, patterns| {
        let heap = lane_table(
            &COLUMN_TYPES,
            TupleDirection::Ascending,
            page_kb,
            rows,
            seed,
            patterns,
        );
        let packed = dana::compress_page(heap.page_bytes(0).unwrap(), heap.layout(), heap.schema());
        assert_eq!(packed[0], dana::CODEC_FOR);
        shapes.extend(lanes_of(&packed, &heap).iter().map(|lane| {
            let n_dict = u16::from_le_bytes([packed[lane.mode + 1], packed[lane.mode + 2]]);
            let (mode, bw) = (packed[lane.mode], packed[lane.bw]);
            (mode, bw, mode == 1 && u32::from(n_dict) < 1 << bw)
        }));
    };
    // Column c gets pattern (c + shift) % 6: every column meets all six.
    for shift in 0..6u64 {
        let patterns = (0..4).map(|c| ((c + shift) % 6) << (3 * c)).sum();
        shapes_of(8, 150, 7, patterns);
    }
    // Pattern 4 in every column, k values per column, on a full 32 KB page.
    let schema = schema_of(&COLUMN_TYPES);
    let layout =
        HeapFileBuilder::layout_for(&schema, 32 * 1024, TupleDirection::Ascending).unwrap();
    for k in [2u64, 3, 6, 12, 24, 48, 96, 192] {
        let seed = (k - 2) * 0x0101_0101_0101_0101;
        shapes_of(32, layout.capacity as usize, seed, 0o4444);
    }
    let modes: std::collections::BTreeSet<u8> = shapes.iter().map(|s| s.0).collect();
    assert_eq!(
        modes,
        [0, 1].into(),
        "frame-of-reference and dictionary lanes"
    );
    assert!(shapes.iter().any(|s| s.1 == 0), "bit width 0: {shapes:?}");
    for bw in 1..=8 {
        assert!(
            shapes
                .iter()
                .any(|s| s.0 == 1 && s.1 == bw && (s.2 || bw == 1)),
            "a dictionary lane of {bw}-bit indexes: {shapes:?}"
        );
    }
    assert!(
        shapes.iter().any(|s| (57..64).contains(&s.1)),
        "57–63 bits: {shapes:?}"
    );
    assert!(shapes.iter().any(|s| s.1 == 64), "bit width 64: {shapes:?}");
}

/// Whether the compressed-page readers answer `packed` (page 0 of `heap`'s
/// sidecar, possibly damaged) with a value or a typed error, never an
/// unwind: [`dana::ForPage::open`] must fail exactly when
/// [`dana::decompress_page`] does, and a statement's pushdown scan that
/// finds `packed` in the pool must stream whole rows
/// exactly when the image opens, and release every frame either way.
fn compressed_readers_survive(packed: &[u8], heap: &HeapFile, engine: &AccessEngine) -> bool {
    let (layout, schema) = (heap.layout(), heap.schema());
    let width = schema.len();
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let opens = dana::ForPage::open(packed, layout, schema).is_ok();
        let mut ok = opens == dana::decompress_page(packed, layout, schema).is_ok();
        let pool = SharedBufferPool::with_shards(
            BufferPoolConfig {
                pool_bytes: 1 << 20,
                page_size: layout.page_size,
            },
            1,
        );
        let disk = DiskModel::instant();
        drop(pool.fetch_raw(
            PageId::new(HeapId(1).shadow(), 0),
            &Arc::new(packed.to_vec()),
            &disk,
        ));
        // `!= NaN` holds for every cell: no page is zone-pruned, every row
        // is kept and every column decoded.
        let keep_all = |column: usize| dana::Predicate {
            column: format!("c{column}"),
            op: dana::CmpOp::Ne,
            value: f32::NAN,
        };
        let spec = dana::ScanSpec {
            predicates: vec![keep_all(0), keep_all(width - 1)],
            projection: None,
        };
        let state = dana::ScanState {
            sidecar: Arc::new(dana::ScanSidecar::build(heap).unwrap()),
            spec: Arc::new(spec.bind(schema).unwrap()),
        };
        let mut scan = dana::SharedPageStreamSource::with_range(
            &pool,
            &disk,
            heap,
            HeapId(1),
            engine,
            0,
            heap.page_count(),
        )
        .with_scan(state);
        let streamed = loop {
            match scan.next_batch() {
                Ok(Some(batch)) => ok &= batch.as_slice().len() == batch.len() * width,
                Ok(None) => break true,
                Err(SourceError(_)) => break false,
            }
        };
        ok &= pool.held_frames() == 0;
        ok && streamed == opens
    }))
    .unwrap_or(false)
}

// ROADMAP robustness 4(a) for the compressed form: start from FOR images
// of random-pattern pages and damage them where the lane reader looks —
// a lane's mode byte, its bit width, a dictionary's size, the dictionary
// index bits, a truncation, one appended byte.
proptest! {
    #[test]
    fn hostile_compressed_pages_are_typed_errors_never_panics(
        types in prop::collection::vec(0usize..4, 1..7),
        descending in any::<bool>(),
        n in 1usize..260,
        seed in 0u64..u64::MAX,
        patterns in 0u64..u64::MAX,
        kinds in prop::collection::vec(0usize..6, 1..7),
        positions in prop::collection::vec(0usize..1 << 16, 6),
        flips in prop::collection::vec(1u16..256, 6),
    ) {
        let types: Vec<ColumnType> = types.iter().map(|&t| COLUMN_TYPES[t]).collect();
        let direction = if descending { TupleDirection::Descending } else { TupleDirection::Ascending };
        let heap = lane_table(&types, direction, 8, n, seed, patterns);
        let engine = AccessEngine::for_table(
            *heap.layout(),
            heap.schema().clone(),
            AccessEngineConfig::new(1, dana_fpga::Clock::FPGA_150MHZ, dana_fpga::AxiLink::with_bandwidth(2.5e9)),
        );
        let clean = dana::compress_page(heap.page_bytes(0).unwrap(), heap.layout(), heap.schema());
        prop_assume!(clean[0] == dana::CODEC_FOR);
        prop_assert!(compressed_readers_survive(&clean, &heap, &engine));
        let lanes = lanes_of(&clean, &heap);
        let dict: Vec<&LaneAt> = lanes.iter().filter(|l| clean[l.mode] == 1).collect();

        // Each kind of damage alone, then all of them piled on one image.
        let mut piled = clean.clone();
        for (i, &kind) in kinds.iter().enumerate() {
            let (pos, flip) = (positions[i], flips[i] as u8);
            let lane = &lanes[pos % lanes.len()];
            let dict_lane = dict.get(pos % dict.len().max(1)).copied().unwrap_or(lane);
            let mut alone = clean.clone();
            for bytes in [&mut alone, &mut piled] {
                let at = match kind {
                    0 => {
                        bytes.truncate(pos % bytes.len().max(1));
                        continue;
                    }
                    1 => {
                        bytes.push(flip);
                        continue;
                    }
                    2 => lane.mode,
                    3 => lane.bw,
                    4 if clean[dict_lane.mode] == 1 => dict_lane.mode + 1 + pos % 2, // n_dict
                    4 => dict_lane.mode,
                    _ if dict_lane.codes.is_empty() => dict_lane.bw,
                    _ => dict_lane.codes.start + pos % dict_lane.codes.len(), // index bits
                };
                if let Some(byte) = bytes.get_mut(at) {
                    *byte ^= flip;
                }
            }
            prop_assert!(
                compressed_readers_survive(&alone, &heap, &engine),
                "damage {kind} at {pos} ^ {flip:#x}: {types:?} {direction:?} n={n}"
            );
        }
        prop_assert!(
            compressed_readers_survive(&piled, &heap, &engine),
            "damage {kinds:?} at {positions:?} ^ {flips:?}: {types:?} {direction:?} n={n}"
        );
    }
}

/// The one-shard pool's replacement order, stated once: a second-chance
/// clock over all frames. An embedded system's simulated I/O seconds are a
/// function of exactly this hit/miss sequence, so a change here is a
/// change to every cold-cache number it reports. (LRU would keep the hot
/// page 0 resident throughout and score six hits on this string.)
#[test]
fn one_shard_pool_replacement_order_is_pinned() {
    let mut b =
        HeapFileBuilder::new(Schema::training(4), 8 * 1024, TupleDirection::Ascending).unwrap();
    for k in 0..2400 {
        b.insert(&Tuple::training(&[k as f32; 4], 0.0)).unwrap();
    }
    let heap = b.finish();
    assert!(heap.page_count() >= 7);
    let pool = SharedBufferPool::with_shards(
        BufferPoolConfig {
            pool_bytes: 3 * 8 * 1024,
            page_size: 8 * 1024,
        },
        1,
    );
    let disk = DiskModel::instant();
    let page = |page_no| PageId::new(HeapId(1), page_no);
    let mut trace = String::new();
    for page_no in [0, 1, 2, 0, 3, 0, 1, 4, 0, 5, 0, 6, 1, 0, 2] {
        let hits = pool.stats().hits;
        pool.fetch(page(page_no), &heap, &disk).unwrap();
        trace.push(if pool.stats().hits > hits { 'h' } else { 'm' });
    }
    assert_eq!(trace, "mmmhmmmmhmhmmmm");
    let stats = pool.stats();
    assert_eq!((stats.hits, stats.misses, stats.evictions), (3, 12, 9));
    let resident: Vec<u32> = (0..7).filter(|&p| pool.contains(page(p))).collect();
    assert_eq!(resident, [0, 1, 2]);
}

/// Drains `source` to its end, returning how many tuples it streamed.
fn drain(source: &mut dyn TupleSource) -> usize {
    let mut tuples = 0;
    while let Some(batch) = source.next_batch().unwrap() {
        tuples += batch.len();
    }
    tuples
}

proptest! {
    /// What bind estimates a scan will count is what the scan counts:
    /// for one page, many pages and a ragged last page, at any width and
    /// page size, and whether or not the pool holds the whole table, the
    /// estimated Strider cycles, AXI seconds, tuples and later-pass disk
    /// seconds equal those the simulator bills from a real scan of the
    /// prewarmed heap. `EXPLAIN`'s price equals the bill because of this.
    #[test]
    fn estimated_scan_counts_are_the_measured_ones(
        n in 1usize..900,
        d in 1usize..24,
        page_shift in 13u32..16,
        frames in 2usize..48,
    ) {
        let page_size = 1usize << page_shift;
        let mut b = HeapFileBuilder::new(Schema::training(d), page_size, TupleDirection::Ascending).unwrap();
        for k in 0..n {
            let x: Vec<f32> = (0..d).map(|i| (k * 3 + i) as f32 / 7.0).collect();
            b.insert(&Tuple::training(&x, k as f32)).unwrap();
        }
        let heap = b.finish();
        let (fpga, cpu, disk) = (dana_fpga::FpgaSpec::vu9p(), dana_ml::CpuModel::i7_6700(), DiskModel::ssd());
        let budget = dana_fpga::ResourceBudget {
            data_model_bytes: 0,
            page_buffer_bytes: 0,
            num_page_buffers: 4,
            num_aus: 8,
            num_acs: 1,
            num_threads: 1,
        };
        let pool = SharedBufferPool::with_shards(
            BufferPoolConfig { pool_bytes: (frames * page_size) as u64, page_size },
            1,
        );
        let access = dana::exec::access_engine_for(&heap, budget, &fpga);
        let pages = heap.page_count();
        let open = || dana::SharedPageStreamSource::with_range(
            &pool, &disk, &heap, HeapId(1), &access, 0, pages,
        );
        prop_assert_eq!(drain(&mut open()), n);
        let mut scan = open();
        prop_assert_eq!(drain(&mut scan), n);
        let outcome = scan.into_stats();
        let inputs = dana::exec::CostInputs {
            budget,
            fpga: &fpga,
            cpu: &cpu,
            disk: &disk,
            pool_frames: pool.frames(),
            heap: &heap,
        };
        let measured = dana::exec::stream_counts(&inputs, pages, &outcome.stats, outcome.io_seconds, 0.0);
        let estimated = dana::exec::estimated_counts(&inputs, None);
        prop_assert_eq!(estimated.strider_cycles, measured.strider_cycles);
        prop_assert_eq!(estimated.axi_seconds, measured.axi_seconds);
        prop_assert_eq!(estimated.tuples, measured.tuples);
        prop_assert_eq!(estimated.io_later, measured.io_later);
        prop_assert_eq!((estimated.width, estimated.tuple_bytes), (measured.width, measured.tuple_bytes));
        // A resident heap's first pass costs what the estimate charges it.
        if pages as usize <= pool.frames() {
            prop_assert_eq!(estimated.io_first, measured.io_first);
        }
    }
}
