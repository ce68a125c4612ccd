//! RDBMS storage substrate for the DAnA reproduction.
//!
//! DAnA's defining feature is that its Striders "directly interface with the
//! buffer pool of the database" (§1) and pointer-chase *raw page bytes*
//! (Fig. 6). That only means something if there are real pages with a real
//! layout, so this crate implements a PostgreSQL-style storage engine:
//!
//! * [`schema`] — column types and table schemas, and [`RowDecoder`]: the
//!   one conversion from a record's bytes to an engine-native f32 row;
//! * [`mod@tuple`] — tuple encoding (header + user data), CPU-side
//!   deforming, and [`tuple::user_data`]: the one reader of where a
//!   record's user data starts;
//! * [`page`] — byte-exact slotted heap pages (page header, line pointers,
//!   free space, special space) in 8/16/32 KB sizes; [`PageView`] is the
//!   one reader, [`HeapPage`] the write side;
//! * [`heap`] — heap files: ordered collections of pages on the simulated
//!   disk;
//! * [`disk`] — a sequential/seek disk timing model (SSD-class by default);
//! * [`shared_pool`] — the one buffer pool, [`SharedBufferPool`]: sharded
//!   clock-eviction frames behind interior mutability that lend the
//!   heaps' page images instead of copying them, [`PageGuard`]s in place
//!   of pin counts, warm / cold cache control and hit/miss
//!   statistics, for one embedded scan or the serving tier's many
//!   simultaneous ones;
//! * [`bufferpool`] — its sizing and counters ([`BufferPoolConfig`], the
//!   paper's default being an 8 GB pool of 32 KB pages, §7;
//!   [`BufferPoolStats`]) and the tests holding a one-shard pool to the
//!   plain clock-cache contract;
//! * [`catalog`] — the RDBMS catalog's database half: table metadata and
//!   the heaps behind it. The accelerator half ("DAnA stores accelerator
//!   metadata ... in the RDBMS's catalog", §3) is typed by the engine, so it
//!   lives beside this one in `dana::core`, under the same lock.
//!
//! Everything is deterministic and simulation-timed: reads report the
//! simulated seconds they would cost, never wall-clock time.

pub mod batch;
pub mod bufferpool;
pub mod catalog;
pub mod disk;
pub mod error;
pub mod heap;
pub mod page;
pub mod schema;
pub mod shared_pool;
pub mod tuple;

pub use batch::{load_lanes, OneBatchSource, SourceError, TupleBatch, TupleSource};
pub use bufferpool::{BufferPoolConfig, BufferPoolStats};
pub use catalog::{Catalog, TableEntry};
pub use disk::DiskModel;
pub use error::{StorageError, StorageResult};
pub use heap::{HeapFile, HeapFileBuilder};
pub use page::{HeapPage, PageLayoutDesc, PageView, LINE_POINTER_BYTES, PAGE_HEADER_BYTES};
pub use schema::{ColumnType, RowDecoder, Schema};
pub use shared_pool::{PageGuard, SharedBufferPool};
pub use tuple::{Datum, Tuple, TUPLE_HEADER_BYTES};

/// Identifies a heap file (a table's storage) within a database.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct HeapId(pub u32);

impl HeapId {
    /// Bit marking a *shadow* heap id — the compressed-frame alias of a
    /// real heap. The scan tier caches compressed page images in the
    /// buffer pool under `heap.shadow()` so they never collide with the
    /// raw pages of the same table, while drop paths can still find and
    /// evict them. The catalog allocates ids sequentially from 1, so the
    /// high bit is never assigned to a real heap.
    pub const SHADOW_BIT: u32 = 1 << 31;

    /// The shadow (compressed-frame) alias of this heap id.
    pub fn shadow(self) -> HeapId {
        HeapId(self.0 | Self::SHADOW_BIT)
    }
}

/// Identifies a page: a heap file plus a page number within it.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct PageId {
    pub heap: HeapId,
    pub page_no: u32,
}

impl PageId {
    pub fn new(heap: HeapId, page_no: u32) -> PageId {
        PageId { heap, page_no }
    }
}
