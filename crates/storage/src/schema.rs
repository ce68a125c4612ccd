//! Table schemas: typed, fixed-width columns.
//!
//! DAnA's training tables are fixed-width ("all the training data tuples are
//! expected to be identical", §5.1.2), which is what lets the Strider process
//! only the first line pointer and stride through the rest. We therefore
//! support the fixed-width column types the workloads need; variable-width
//! columns would defeat the paper's own assumption.

use crate::error::{StorageError, StorageResult};

/// A fixed-width column type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ColumnType {
    /// 32-bit IEEE-754 float (PostgreSQL `real`). The execution engine
    /// computes in f32, so training data is commonly stored as Float4.
    Float4,
    /// 64-bit IEEE-754 float (PostgreSQL `double precision`).
    Float8,
    /// 32-bit signed integer (PostgreSQL `integer`); used for LRMF row /
    /// column keys.
    Int4,
    /// 64-bit signed integer (PostgreSQL `bigint`).
    Int8,
}

impl ColumnType {
    /// On-page width in bytes.
    pub fn width(&self) -> usize {
        match self {
            ColumnType::Float4 | ColumnType::Int4 => 4,
            ColumnType::Float8 | ColumnType::Int8 => 8,
        }
    }

    /// Decodes one on-page cell (exactly [`ColumnType::width`] little-endian
    /// bytes) to the execution engine's native f32 — the float-conversion
    /// unit of §6.2. The single source of truth for cell conversion, shared
    /// by CPU deforming and Strider extraction so every data path is
    /// bit-identical by construction.
    ///
    /// Panics if `bytes` is not exactly the column's width; callers
    /// validate record length first.
    pub fn decode_f32(&self, bytes: &[u8]) -> f32 {
        match self {
            ColumnType::Float4 => f32::from_le_bytes(bytes.try_into().unwrap()),
            ColumnType::Float8 => f64::from_le_bytes(bytes.try_into().unwrap()) as f32,
            ColumnType::Int4 => i32::from_le_bytes(bytes.try_into().unwrap()) as f32,
            ColumnType::Int8 => i64::from_le_bytes(bytes.try_into().unwrap()) as f32,
        }
    }
}

/// A named column.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Column {
    pub name: String,
    pub ty: ColumnType,
}

/// An ordered set of columns.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Builds a schema from `(name, type)` pairs.
    pub fn new(cols: Vec<(String, ColumnType)>) -> Schema {
        Schema {
            columns: cols
                .into_iter()
                .map(|(name, ty)| Column { name, ty })
                .collect(),
        }
    }

    /// The conventional training-table schema used throughout the paper's
    /// evaluation: `n_features` Float4 feature columns `x0..x{n-1}` followed
    /// by a single Float4 label column `y`.
    pub fn training(n_features: usize) -> Schema {
        let mut cols = Vec::with_capacity(n_features + 1);
        for i in 0..n_features {
            cols.push((format!("x{i}"), ColumnType::Float4));
        }
        cols.push(("y".to_string(), ColumnType::Float4));
        Schema::new(cols)
    }

    /// The LRMF (Netflix-style) rating schema: `(i integer, j integer,
    /// rating real)` — a sparse matrix entry per tuple.
    pub fn rating() -> Schema {
        Schema::new(vec![
            ("i".to_string(), ColumnType::Int4),
            ("j".to_string(), ColumnType::Int4),
            ("rating".to_string(), ColumnType::Float4),
        ])
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    pub fn len(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Total fixed user-data width of a tuple under this schema, in bytes
    /// (no alignment padding: all our types are 4- or 8-byte aligned and we
    /// lay them out in declaration order, which the workloads keep aligned).
    pub fn tuple_data_width(&self) -> usize {
        self.columns.iter().map(|c| c.ty.width()).sum()
    }

    /// Byte offset of column `idx` within the user-data area.
    pub fn column_offset(&self, idx: usize) -> StorageResult<usize> {
        if idx >= self.columns.len() {
            return Err(StorageError::SchemaMismatch(format!(
                "column index {idx} out of range ({} columns)",
                self.columns.len()
            )));
        }
        Ok(self.columns[..idx].iter().map(|c| c.ty.width()).sum())
    }

    /// Looks a column up by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_match_sql_types() {
        assert_eq!(ColumnType::Float4.width(), 4);
        assert_eq!(ColumnType::Float8.width(), 8);
        assert_eq!(ColumnType::Int4.width(), 4);
        assert_eq!(ColumnType::Int8.width(), 8);
    }

    #[test]
    fn training_schema_shape() {
        let s = Schema::training(10);
        assert_eq!(s.len(), 11);
        assert_eq!(s.tuple_data_width(), 44);
        assert_eq!(s.columns()[0].name, "x0");
        assert_eq!(s.columns()[10].name, "y");
        assert_eq!(s.column_index("y"), Some(10));
        assert_eq!(s.column_index("x9"), Some(9));
        assert_eq!(s.column_index("nope"), None);
    }

    #[test]
    fn rating_schema_shape() {
        let s = Schema::rating();
        assert_eq!(s.len(), 3);
        assert_eq!(s.tuple_data_width(), 12);
        assert_eq!(s.columns()[2].ty, ColumnType::Float4);
    }

    #[test]
    fn column_offsets_accumulate() {
        let s = Schema::new(vec![
            ("a".into(), ColumnType::Int8),
            ("b".into(), ColumnType::Float4),
            ("c".into(), ColumnType::Float8),
        ]);
        assert_eq!(s.column_offset(0).unwrap(), 0);
        assert_eq!(s.column_offset(1).unwrap(), 8);
        assert_eq!(s.column_offset(2).unwrap(), 12);
        assert!(s.column_offset(3).is_err());
    }
}
