//! The RDBMS catalog, the database's half: tables and the heaps behind them.
//!
//! "DAnA stores accelerator metadata (Strider and execution engine
//! instruction schedules) in the RDBMS's catalog along with the name of a
//! UDF to be invoked from the query. ... the RDBMS catalog is shared by the
//! database engine and the FPGA." (§3, Fig. 2)
//!
//! The accelerator half of that catalog — the deployed engines, their
//! trained models and the scan sidecars — is typed by crates this one must
//! not depend on, so it lives beside this [`Catalog`] in `dana::core`,
//! under the same lock.

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::{StorageError, StorageResult};
use crate::heap::HeapFile;
use crate::HeapId;

/// Catalog record for one table.
#[derive(Debug, Clone)]
pub struct TableEntry {
    pub name: String,
    pub heap_id: HeapId,
    pub tuple_count: u64,
    pub page_count: u32,
    /// For materialized prediction tables: the source table the scoring
    /// query scanned. Dropping that source marks this table stale — its
    /// contents describe rows that no longer exist.
    pub derived_from: Option<String>,
    /// True once the source table has been dropped. Querying a stale
    /// table is a typed error; dropping it (cleanup) still works.
    pub stale: bool,
}

/// The catalog (and, in this reproduction, the database itself: it owns the
/// heap files the way PostgreSQL's storage manager owns relations).
#[derive(Default)]
pub struct Catalog {
    tables: HashMap<String, TableEntry>,
    // Heaps are reference-counted so a concurrent reader (a query already
    // admitted by the serving tier) can keep scanning a consistent snapshot
    // while the catalog lock is long gone — dropping the table only detaches
    // the name; the pages live until the last scan finishes.
    heaps: HashMap<HeapId, Arc<HeapFile>>,
    next_heap: u32,
}

impl Catalog {
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Registers a table backed by `heap`; returns its heap id.
    pub fn create_table(&mut self, name: &str, heap: HeapFile) -> StorageResult<HeapId> {
        self.register_table(name, heap, None)
    }

    /// Registers a *materialized* table derived from `source` (a PREDICT
    /// output). Identical to [`Catalog::create_table`] except the entry
    /// remembers its provenance, so dropping `source` can mark it stale.
    pub fn create_derived_table(
        &mut self,
        name: &str,
        heap: HeapFile,
        source: &str,
    ) -> StorageResult<HeapId> {
        self.register_table(name, heap, Some(source.to_string()))
    }

    fn register_table(
        &mut self,
        name: &str,
        heap: HeapFile,
        derived_from: Option<String>,
    ) -> StorageResult<HeapId> {
        if self.tables.contains_key(name) {
            return Err(StorageError::DuplicateName(name.to_string()));
        }
        let id = HeapId(self.next_heap);
        self.next_heap += 1;
        self.tables.insert(
            name.to_string(),
            TableEntry {
                name: name.to_string(),
                heap_id: id,
                tuple_count: heap.tuple_count(),
                page_count: heap.page_count(),
                derived_from,
                stale: false,
            },
        );
        self.heaps.insert(id, Arc::new(heap));
        Ok(id)
    }

    /// Drops a table and its heap; returns the removed entry so callers can
    /// clean up downstream state (evict its buffer-pool pages, invalidate
    /// accelerators compiled against it).
    pub fn drop_table(&mut self, name: &str) -> StorageResult<TableEntry> {
        let entry = self
            .tables
            .remove(name)
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))?;
        self.heaps.remove(&entry.heap_id);
        Ok(entry)
    }

    pub fn table(&self, name: &str) -> StorageResult<&TableEntry> {
        self.tables
            .get(name)
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// The table entry, refusing stale derived tables with a typed error —
    /// the lookup every *query* path uses. Plain [`Catalog::table`] still
    /// returns stale entries so cleanup (DROP) keeps working.
    pub fn live_table(&self, name: &str) -> StorageResult<&TableEntry> {
        let entry = self.table(name)?;
        if entry.stale {
            return Err(StorageError::StaleDerivedTable {
                table: name.to_string(),
                dropped_source: entry.derived_from.clone().unwrap_or_default(),
            });
        }
        Ok(entry)
    }

    pub fn heap(&self, id: HeapId) -> StorageResult<&HeapFile> {
        self.heaps
            .get(&id)
            .map(|h| h.as_ref())
            .ok_or(StorageError::UnknownHeap(id.0))
    }

    /// Shared handle to a heap, for readers that outlive the catalog
    /// borrow (the concurrent query path).
    pub fn heap_arc(&self, id: HeapId) -> StorageResult<Arc<HeapFile>> {
        self.heaps
            .get(&id)
            .cloned()
            .ok_or(StorageError::UnknownHeap(id.0))
    }

    /// Marks every materialized table derived from `source` as stale (its
    /// provenance is gone; querying it is now a typed error). Returns the
    /// affected `(name, heap_id)` pairs sorted by name, so callers can
    /// evict the stale heaps' buffer-pool pages.
    pub fn invalidate_derived_for(&mut self, source: &str) -> Vec<(String, HeapId)> {
        let mut hit: Vec<(String, HeapId)> = self
            .tables
            .values_mut()
            .filter(|t| t.derived_from.as_deref() == Some(source) && !t.stale)
            .map(|t| {
                t.stale = true;
                (t.name.clone(), t.heap_id)
            })
            .collect();
        hit.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        hit
    }

    /// All table names, sorted (stable introspection output).
    pub fn table_names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.tables.keys().map(|s| s.as_str()).collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::HeapFileBuilder;
    use crate::page::TupleDirection;
    use crate::schema::Schema;
    use crate::tuple::Tuple;

    fn tiny_heap() -> HeapFile {
        let mut b =
            HeapFileBuilder::new(Schema::training(2), 8 * 1024, TupleDirection::Ascending).unwrap();
        b.insert(&Tuple::training(&[1.0, 2.0], 3.0)).unwrap();
        b.finish()
    }

    #[test]
    fn create_and_lookup_table() {
        let mut cat = Catalog::new();
        let id = cat.create_table("t", tiny_heap()).unwrap();
        let entry = cat.table("t").unwrap();
        assert_eq!(entry.heap_id, id);
        assert_eq!(entry.tuple_count, 1);
        assert!(cat.heap(id).is_ok());
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut cat = Catalog::new();
        cat.create_table("t", tiny_heap()).unwrap();
        assert!(matches!(
            cat.create_table("t", tiny_heap()),
            Err(StorageError::DuplicateName(_))
        ));
    }

    #[test]
    fn drop_table_removes_heap() {
        let mut cat = Catalog::new();
        let id = cat.create_table("t", tiny_heap()).unwrap();
        let dropped = cat.drop_table("t").unwrap();
        assert_eq!(dropped.heap_id, id);
        assert!(cat.table("t").is_err());
        assert!(cat.heap(id).is_err());
        assert!(cat.heap_arc(id).is_err());
        assert!(cat.drop_table("t").is_err());
    }

    #[test]
    fn heap_arc_survives_drop() {
        let mut cat = Catalog::new();
        let id = cat.create_table("t", tiny_heap()).unwrap();
        let heap = cat.heap_arc(id).unwrap();
        cat.drop_table("t").unwrap();
        // A reader that grabbed the Arc before the drop keeps a consistent
        // snapshot of the table.
        assert_eq!(heap.tuple_count(), 1);
    }

    #[test]
    fn derived_tables_go_stale_when_source_drops() {
        let mut cat = Catalog::new();
        cat.create_table("t", tiny_heap()).unwrap();
        let pid = cat.create_derived_table("p", tiny_heap(), "t").unwrap();
        cat.create_derived_table("q", tiny_heap(), "other").unwrap();
        assert_eq!(cat.table("p").unwrap().derived_from.as_deref(), Some("t"));
        assert!(cat.live_table("p").is_ok());

        cat.drop_table("t").unwrap();
        let hit = cat.invalidate_derived_for("t");
        assert_eq!(hit, vec![("p".to_string(), pid)]);
        // Idempotent; unrelated derivations untouched.
        assert!(cat.invalidate_derived_for("t").is_empty());
        assert!(cat.live_table("q").is_ok());

        // Queries refuse the stale table with a typed error...
        match cat.live_table("p") {
            Err(StorageError::StaleDerivedTable {
                table,
                dropped_source,
            }) => {
                assert_eq!(table, "p");
                assert_eq!(dropped_source, "t");
            }
            other => panic!("expected StaleDerivedTable, got {other:?}"),
        }
        // ...but cleanup still works.
        assert!(cat.drop_table("p").is_ok());
    }

    #[test]
    fn names_are_sorted() {
        let mut cat = Catalog::new();
        cat.create_table("zeta", tiny_heap()).unwrap();
        cat.create_table("alpha", tiny_heap()).unwrap();
        assert_eq!(cat.table_names(), vec!["alpha", "zeta"]);
    }
}
