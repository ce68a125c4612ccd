//! Tuple encoding: header + user data, and CPU-side deforming.
//!
//! Each heap tuple carries a header of transaction/visibility metadata (the
//! "auxiliary information" the Strider `cln` instruction strips, §5.1.2)
//! followed by the fixed-width user data laid out per [`crate::Schema`].
//! [`user_data`] is the one reader of that boundary; nothing else slices a
//! record at an offset of its own.
//!
//! Layout of the 16-byte tuple header (little-endian):
//!
//! ```text
//! offset  field       meaning
//! 0..4    t_xmin      inserting transaction id
//! 4..8    t_xmax      deleting transaction id (0 = live)
//! 8..10   t_infomask  visibility/status flags
//! 10..11  t_hoff      header size in bytes — user data starts here (16)
//! 11..12  t_nullmask  reserved null-bitmap byte (0: training data is NOT NULL)
//! 12..16  t_ctid      self-pointer (page_no<<16 | slot), for diagnostics
//! ```

use crate::error::{StorageError, StorageResult};
use crate::schema::{ColumnType, Schema};

/// Size of the on-page tuple header in bytes.
pub const TUPLE_HEADER_BYTES: usize = 16;

/// A single typed value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Datum {
    Float4(f32),
    Float8(f64),
    Int4(i32),
    Int8(i64),
}

impl Datum {
    /// The column type this datum belongs to.
    pub fn column_type(&self) -> ColumnType {
        match self {
            Datum::Float4(_) => ColumnType::Float4,
            Datum::Float8(_) => ColumnType::Float8,
            Datum::Int4(_) => ColumnType::Int4,
            Datum::Int8(_) => ColumnType::Int8,
        }
    }

    /// Numeric value as f32 (the execution engine's native width).
    pub fn as_f32(&self) -> f32 {
        match self {
            Datum::Float4(v) => *v,
            Datum::Float8(v) => *v as f32,
            Datum::Int4(v) => *v as f32,
            Datum::Int8(v) => *v as f32,
        }
    }

    /// Writes this cell over the front of `out`.
    fn write_to(&self, out: &mut [u8]) {
        match self {
            Datum::Float4(v) => out[..4].copy_from_slice(&v.to_le_bytes()),
            Datum::Float8(v) => out[..8].copy_from_slice(&v.to_le_bytes()),
            Datum::Int4(v) => out[..4].copy_from_slice(&v.to_le_bytes()),
            Datum::Int8(v) => out[..8].copy_from_slice(&v.to_le_bytes()),
        }
    }

    /// Reads one cell off the front of `bytes` ([`user_data`] has already
    /// checked that every column's cell is there).
    fn read_from(ty: ColumnType, bytes: &[u8]) -> Datum {
        match ty {
            ColumnType::Float4 => Datum::Float4(f32::from_le_bytes(bytes[..4].try_into().unwrap())),
            ColumnType::Float8 => Datum::Float8(f64::from_le_bytes(bytes[..8].try_into().unwrap())),
            ColumnType::Int4 => Datum::Int4(i32::from_le_bytes(bytes[..4].try_into().unwrap())),
            ColumnType::Int8 => Datum::Int8(i64::from_le_bytes(bytes[..8].try_into().unwrap())),
        }
    }
}

/// Writes the on-page tuple header (see the module docs) over `header`,
/// the first [`TUPLE_HEADER_BYTES`] of a record — shared by [`Tuple::form`]
/// and the heap builder, which forms tuples in their page slots.
pub(crate) fn write_header(xmin: u32, ctid: u32, header: &mut [u8]) {
    debug_assert_eq!(header.len(), TUPLE_HEADER_BYTES);
    header[0..4].copy_from_slice(&xmin.to_le_bytes()); // t_xmin
    header[4..8].copy_from_slice(&0u32.to_le_bytes()); // t_xmax (live)
    header[8..10].copy_from_slice(&0x0001u16.to_le_bytes()); // t_infomask: HEAP_XMIN_COMMITTED
    header[10] = TUPLE_HEADER_BYTES as u8; // t_hoff
    header[11] = 0; // t_nullmask
    header[12..16].copy_from_slice(&ctid.to_le_bytes()); // t_ctid
}

/// The `width` bytes of user data of one on-page record: they start at the
/// record's `t_hoff` byte, which must clear the fixed header and leave
/// `width` bytes inside the record.
pub fn user_data(record: &[u8], width: usize) -> StorageResult<&[u8]> {
    let hoff = record.get(10).copied().unwrap_or(0) as usize;
    if hoff < TUPLE_HEADER_BYTES || hoff + width > record.len() {
        return Err(StorageError::SchemaMismatch(format!(
            "bad t_hoff {hoff} for {width} data bytes in a {}-byte tuple",
            record.len()
        )));
    }
    Ok(&record[hoff..hoff + width])
}

/// A decoded tuple: one datum per schema column.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuple {
    pub values: Vec<Datum>,
}

impl Tuple {
    pub fn new(values: Vec<Datum>) -> Tuple {
        Tuple { values }
    }

    /// Builds a training tuple (`x0..x{n-1}, y`) from a feature slice and a
    /// label, matching [`Schema::training`].
    pub fn training(features: &[f32], label: f32) -> Tuple {
        let mut values: Vec<Datum> = features.iter().map(|&f| Datum::Float4(f)).collect();
        values.push(Datum::Float4(label));
        Tuple { values }
    }

    /// Builds an LRMF rating tuple, matching [`Schema::rating`].
    pub fn rating(i: i32, j: i32, rating: f32) -> Tuple {
        Tuple {
            values: vec![Datum::Int4(i), Datum::Int4(j), Datum::Float4(rating)],
        }
    }

    /// Serializes header + user data into on-page bytes.
    ///
    /// `xmin` is the inserting transaction id; `ctid` the self-pointer.
    pub fn form(&self, schema: &Schema, xmin: u32, ctid: u32) -> StorageResult<Vec<u8>> {
        self.check(schema)?;
        let mut out = vec![0u8; TUPLE_HEADER_BYTES + schema.tuple_data_width()];
        let (header, data) = out.split_at_mut(TUPLE_HEADER_BYTES);
        write_header(xmin, ctid, header);
        self.write_data(data);
        Ok(out)
    }

    /// One value per column of `schema`, each of the column's type.
    pub(crate) fn check(&self, schema: &Schema) -> StorageResult<()> {
        if self.values.len() != schema.len() {
            return Err(StorageError::SchemaMismatch(format!(
                "tuple has {} values, schema {} columns",
                self.values.len(),
                schema.len()
            )));
        }
        for (v, c) in self.values.iter().zip(schema.columns()) {
            if v.column_type() != c.ty {
                return Err(StorageError::SchemaMismatch(format!(
                    "column '{}' expects {:?}, got {:?}",
                    c.name,
                    c.ty,
                    v.column_type()
                )));
            }
        }
        Ok(())
    }

    /// Writes the cells back to back over `data` — the user-data bytes of
    /// a record of a schema this tuple passed [`Tuple::check`] against.
    pub(crate) fn write_data(&self, data: &mut [u8]) {
        let mut off = 0;
        for v in &self.values {
            v.write_to(&mut data[off..]);
            off += v.column_type().width();
        }
    }

    /// Deforms on-page bytes back into a tuple — the CPU-side operation that
    /// MADlib performs for every tuple and that Striders replace on-chip.
    pub fn deform(schema: &Schema, bytes: &[u8]) -> StorageResult<Tuple> {
        let mut data = user_data(bytes, schema.tuple_data_width())?;
        let mut values = Vec::with_capacity(schema.len());
        for col in schema.columns() {
            values.push(Datum::read_from(col.ty, data));
            data = &data[col.ty.width()..];
        }
        Ok(Tuple { values })
    }

    /// Feature vector and label for a [`Schema::training`]-shaped tuple
    /// (all columns but the last are features, the last is the label).
    pub fn as_training(&self) -> (Vec<f32>, f32) {
        let n = self.values.len();
        assert!(n >= 1, "training tuple needs at least a label");
        let features = self.values[..n - 1].iter().map(|d| d.as_f32()).collect();
        (features, self.values[n - 1].as_f32())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::TupleBatch;
    use crate::page::{HeapPage, PageLayoutDesc, PageView, TupleDirection, PAGE_HEADER_BYTES};
    use crate::schema::RowDecoder;

    #[test]
    fn form_deform_round_trip() {
        let schema = Schema::training(4);
        let t = Tuple::training(&[1.0, -2.5, 3.25, 0.0], 7.5);
        let bytes = t.form(&schema, 42, 0x0001_0002).unwrap();
        assert_eq!(bytes.len(), TUPLE_HEADER_BYTES + schema.tuple_data_width());
        let back = Tuple::deform(&schema, &bytes).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn rating_round_trip() {
        let schema = Schema::rating();
        let t = Tuple::rating(17, 923, 4.5);
        let bytes = t.form(&schema, 1, 0).unwrap();
        let back = Tuple::deform(&schema, &bytes).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.values[0], Datum::Int4(17));
    }

    #[test]
    fn header_fields_are_where_striders_expect() {
        let schema = Schema::training(1);
        let bytes = Tuple::training(&[1.0], 2.0)
            .form(&schema, 9, 0xBEEF)
            .unwrap();
        assert_eq!(u32::from_le_bytes(bytes[0..4].try_into().unwrap()), 9); // xmin
        assert_eq!(bytes[10] as usize, TUPLE_HEADER_BYTES); // t_hoff
        assert_eq!(
            u32::from_le_bytes(bytes[12..16].try_into().unwrap()),
            0xBEEF
        );
        // user data begins exactly at t_hoff
        let x0 = f32::from_le_bytes(bytes[16..20].try_into().unwrap());
        assert_eq!(x0, 1.0);
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let schema = Schema::training(2);
        let t = Tuple::training(&[1.0], 2.0); // one feature short
        assert!(t.form(&schema, 0, 0).is_err());
        let t2 = Tuple::rating(1, 2, 3.0); // wrong types entirely
        assert!(t2.form(&schema, 0, 0).is_err());
    }

    #[test]
    fn deform_rejects_truncated_bytes() {
        let schema = Schema::training(2);
        let bytes = Tuple::training(&[1.0, 2.0], 3.0)
            .form(&schema, 0, 0)
            .unwrap();
        assert!(Tuple::deform(&schema, &bytes[..bytes.len() - 1]).is_err());
        assert!(Tuple::deform(&schema, &bytes[..8]).is_err());
    }

    #[test]
    fn as_training_splits_features_and_label() {
        let t = Tuple::training(&[1.0, 2.0, 3.0], 9.0);
        let (x, y) = t.as_training();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
        assert_eq!(y, 9.0);
    }

    #[test]
    fn deform_into_matches_deform() {
        let schema = Schema::rating();
        let layout = PageLayoutDesc::new(
            8 * 1024,
            0,
            TUPLE_HEADER_BYTES + schema.tuple_data_width(),
            TUPLE_HEADER_BYTES,
            TupleDirection::Ascending,
        )
        .unwrap();
        let bytes = Tuple::rating(17, 923, 4.5).form(&schema, 1, 0).unwrap();
        let mut page = HeapPage::new(layout);
        page.insert(&bytes).unwrap();
        let decoder = RowDecoder::new(&schema);
        let mut batch = TupleBatch::new(schema.len());
        page.view().deform_all_into(&decoder, &mut batch).unwrap();
        let via_datum: Vec<f32> = Tuple::deform(&schema, &bytes)
            .unwrap()
            .values
            .iter()
            .map(|d| d.as_f32())
            .collect();
        assert_eq!(batch.row(0), &via_datum[..]);
        // Truncated bytes (a line pointer one byte short) leave the batch
        // unchanged.
        let mut raw = page.into_bytes();
        raw[PAGE_HEADER_BYTES + 2] -= 1;
        let short = PageView::new(&raw, layout).unwrap();
        assert!(short.deform_all_into(&decoder, &mut batch).is_err());
        assert_eq!(batch.len(), 1);
    }

    #[test]
    fn datum_conversions() {
        assert_eq!(Datum::Int4(3).as_f32(), 3.0);
        assert_eq!(Datum::Float8(0.5).as_f32(), 0.5);
    }
}
