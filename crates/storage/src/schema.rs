//! Table schemas: typed, fixed-width columns.
//!
//! DAnA's training tables are fixed-width ("all the training data tuples are
//! expected to be identical", §5.1.2), which is what lets the Strider process
//! only the first line pointer and stride through the rest. We therefore
//! support the fixed-width column types the workloads need; variable-width
//! columns would defeat the paper's own assumption.
//!
//! [`RowDecoder`] is the one conversion from a record's user-data bytes to
//! the engine's f32 row; every data path decodes through it.

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
    /// unit of §6.2. The single source of truth for cell conversion:
    /// [`RowDecoder::decode_row`] bottoms out here and its bulk kernels are
    /// held to it bit for bit, so every data path is bit-identical.
    ///
    /// Panics if `bytes` is not exactly the column's width; callers
    /// validate record length first.
    #[inline]
    pub fn decode_f32(&self, bytes: &[u8]) -> f32 {
        match self {
            ColumnType::Float4 => f32::from_le_bytes(bytes.try_into().unwrap()),
            ColumnType::Float8 => f64::from_le_bytes(bytes.try_into().unwrap()) as f32,
            ColumnType::Int4 => i32::from_le_bytes(bytes.try_into().unwrap()) as f32,
            ColumnType::Int8 => i64::from_le_bytes(bytes.try_into().unwrap()) as f32,
        }
    }
}

/// The schema's byte → engine-native f32 conversion (the float-conversion
/// unit of §6.2), resolved once per table.
pub struct RowDecoder {
    /// Per column, in schema order: byte offset within a record, and type.
    columns: Vec<(usize, ColumnType)>,
    /// Bytes of user data per record ([`Schema::tuple_data_width`]).
    data_width: usize,
    /// Every column is `Float4`: back-to-back records are the row stream,
    /// little-endian.
    all_float4: bool,
}

impl RowDecoder {
    pub fn new(schema: &Schema) -> RowDecoder {
        let mut offset = 0;
        let columns: Vec<(usize, ColumnType)> = schema
            .columns()
            .iter()
            .map(|col| {
                let at = offset;
                offset += col.ty.width();
                (at, col.ty)
            })
            .collect();
        RowDecoder {
            all_float4: columns.iter().all(|&(_, ty)| ty == ColumnType::Float4),
            columns,
            data_width: offset,
        }
    }

    pub fn columns(&self) -> &[(usize, ColumnType)] {
        &self.columns
    }

    pub fn data_width(&self) -> usize {
        self.data_width
    }

    /// Decodes one record's user data (`data_width` bytes, as
    /// `PageView::user_data` hands out) into `out`, one value per column.
    pub fn decode_row(&self, data: &[u8], out: &mut [f32]) {
        for (v, &(at, ty)) in out.iter_mut().zip(&self.columns) {
            *v = ty.decode_f32(&data[at..at + ty.width()]);
        }
    }

    /// Decodes records laid `stride` ≥ `data_width` bytes apart into
    /// row-major `out` (one value per column per record). The type
    /// dispatch runs once per column, not once per cell.
    pub fn decode_records(&self, records: &[u8], stride: usize, out: &mut [f32]) {
        if self.all_float4 && stride == self.data_width {
            for (v, cell) in out.iter_mut().zip(records.chunks_exact(4)) {
                *v = f32::from_le_bytes([cell[0], cell[1], cell[2], cell[3]]);
            }
            return;
        }
        for (c, &(at, ty)) in self.columns.iter().enumerate() {
            match ty {
                ColumnType::Float4 => {
                    self.decode_column(records, stride, out, c, at, f32::from_le_bytes)
                }
                ColumnType::Float8 => self.decode_column(records, stride, out, c, at, |b| {
                    f64::from_le_bytes(b) as f32
                }),
                ColumnType::Int4 => self.decode_column(records, stride, out, c, at, |b| {
                    i32::from_le_bytes(b) as f32
                }),
                ColumnType::Int8 => self.decode_column(records, stride, out, c, at, |b| {
                    i64::from_le_bytes(b) as f32
                }),
            }
        }
    }

    /// Column `c` of every record: the `W` bytes at `at`, through `convert`.
    fn decode_column<const W: usize>(
        &self,
        records: &[u8],
        stride: usize,
        out: &mut [f32],
        c: usize,
        at: usize,
        convert: impl Fn([u8; W]) -> f32,
    ) {
        let rows = out.chunks_exact_mut(self.columns.len());
        for (row, record) in rows.zip(records.chunks_exact(stride)) {
            let mut cell = [0u8; W];
            cell.copy_from_slice(&record[at..at + W]);
            row[c] = convert(cell);
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

    /// Looks a column up by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::{Datum, Tuple, TUPLE_HEADER_BYTES};

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

    /// `decode_row`, `decode_records` (records back to back and at a
    /// padded stride) and the typed `Tuple::deform(..).as_f32()` path agree
    /// bit for bit on every column-type mix, including values the `as f32`
    /// conversions round, saturate or pass through untouched.
    #[test]
    fn row_decoder_matches_the_typed_path() {
        use ColumnType::{Float4, Float8, Int4, Int8};
        let f4 = [
            0.0f32,
            -0.0,
            1.5,
            f32::MIN_POSITIVE / 4.0,     // subnormal
            f32::from_bits(0x7fc0_1234), // NaN with a payload
            f32::from_bits(0xffa0_0001), // signalling NaN, sign set
            f32::INFINITY,
        ];
        let f8 = [
            -0.0f64,
            1e300, // beyond f32 range: +inf
            -1e300,
            f64::MIN_POSITIVE / 8.0, // subnormal: rounds to 0
            f64::from_bits(0x7ff8_0000_dead_beef),
            0.1,
            16_777_217.0, // not representable in f32
        ];
        let i4 = [0i32, -1, i32::MAX, i32::MIN, 16_777_217, 7, -7];
        let i8 = [0i64, -1, i64::MAX, i64::MIN, 1 << 53, 3, -3];
        let datum = |ty: ColumnType, k: usize| match ty {
            Float4 => Datum::Float4(f4[k % f4.len()]),
            Float8 => Datum::Float8(f8[k % f8.len()]),
            Int4 => Datum::Int4(i4[k % i4.len()]),
            Int8 => Datum::Int8(i8[k % i8.len()]),
        };
        let mixes: [&[ColumnType]; 6] = [
            &[Float4, Float4, Float4],
            &[Float8],
            &[Int4, Int4, Float4],
            &[Int8, Float4, Float8, Int4],
            &[Float4, Int8, Int8, Float8, Int4, Float4],
            &[Int4, Float8],
        ];
        for types in mixes {
            let schema = Schema::new(
                types
                    .iter()
                    .enumerate()
                    .map(|(i, &ty)| (format!("c{i}"), ty))
                    .collect(),
            );
            let decoder = RowDecoder::new(&schema);
            let (width, ncols, n) = (schema.tuple_data_width(), schema.len(), 11);
            assert_eq!(decoder.data_width(), width);
            let mut packed = Vec::new();
            let mut padded = Vec::new();
            let mut typed: Vec<u32> = Vec::new();
            let mut by_row: Vec<u32> = Vec::new();
            for k in 0..n {
                let tuple = Tuple::new((0..ncols).map(|c| datum(types[c], k + c)).collect());
                let record = tuple.form(&schema, 1, 0).unwrap();
                let data = &record[TUPLE_HEADER_BYTES..];
                packed.extend_from_slice(data);
                padded.extend_from_slice(data);
                padded.extend_from_slice(&[0xAB; 5]);
                let back = Tuple::deform(&schema, &record).unwrap();
                typed.extend(back.values.iter().map(|d| d.as_f32().to_bits()));
                let mut row = vec![0f32; ncols];
                decoder.decode_row(data, &mut row);
                by_row.extend(row.iter().map(|v| v.to_bits()));
            }
            assert_eq!(by_row, typed, "{types:?}: decode_row");
            for (records, stride) in [(&packed, width), (&padded, width + 5)] {
                let mut out = vec![0f32; n * ncols];
                decoder.decode_records(records, stride, &mut out);
                let bits: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                assert_eq!(bits, typed, "{types:?}: decode_records, stride {stride}");
            }
        }
    }
}
