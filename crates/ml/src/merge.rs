//! The merge oracle: a gang's epoch-boundary merge, read off the program.
use dana_dsl::{AlgoSpec, DataKind, ModelUpdate};
use dana_storage::TupleBatch;
type Member<'a> = (Vec<Vec<f32>>, &'a TupleBatch);

/// Merges one epoch from the epoch-start models and each member's epoch-end
/// models beside its tuples, in member order. A written value is a mean
/// folded in f64 in member order: over all members, weighted by tuple count,
/// for a model written whole; evenly over the members indexing it for a row
/// of a model written by rows of an input index (a row none indexes keeps
/// its epoch-start values). An unwritten model keeps member 0's values.
pub fn merge_members(spec: &AlgoSpec, start: &[Vec<f32>], members: &[Member]) -> Vec<Vec<f32>> {
    let mut merged = members[0].0.clone();
    let inputs = spec.vars_of_kind(DataKind::Input);
    let columns: Vec<_> = inputs.flat_map(|v| vec![v.id; v.dims.elements()]).collect();
    for (m, model) in spec.vars_of_kind(DataKind::Model).enumerate() {
        let update = spec.model_updates.iter().find(|u| u.model() == model.id);
        let Some(update) = update else { continue };
        let width = spec.var(update.source()).dims.elements();
        let rows = merged[m].len() / width;
        let column = match *update {
            ModelUpdate::Whole { .. } => None,
            ModelUpdate::Row { index, .. } => columns.iter().position(|&v| v == index),
        };
        merged[m].clone_from(&start[m]);
        for i in 0..rows {
            let owns = |t: &TupleBatch, c| t.rows().any(|r| crate::row_index(r[c], rows) == Ok(i));
            let weigh = |t: &TupleBatch| column.map_or(t.len() as f64, |c| owns(t, c) as u8 as f64);
            let of: Vec<_> = members.iter().map(|(v, t)| (&v[m], weigh(t))).collect();
            let total: f64 = of.iter().map(|o| o.1).sum();
            for e in (i * width..(i + 1) * width).filter(|_| total > 0.0) {
                let sum = of.iter().fold(0.0, |a, (v, w)| a + w * v[e] as f64);
                merged[m][e] = (sum / total) as f32;
            }
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use dana_dsl::zoo::{self, DenseParams, LrmfParams};

    fn tuples(rows: &[[f32; 3]]) -> TupleBatch {
        TupleBatch::from_rows(3, rows)
    }

    #[test]
    fn a_whole_model_is_the_tuple_count_weighted_mean() {
        let p = DenseParams {
            n_features: 2,
            ..DenseParams::default()
        };
        let spec = zoo::linear_regression(p).unwrap();
        let row = [0.0; 3];
        let (one, two, five) = (tuples(&[row]), tuples(&[row; 2]), tuples(&[row; 5]));
        let members = [
            (vec![vec![0.5, 4.0]], &one),
            (vec![vec![-1.25, 0.0]], &two),
            (vec![vec![2.0, -0.75]], &five),
        ];
        // (1·0.5 + 2·(−1.25) + 5·2) / 8 = 1 and (1·4 + 2·0 + 5·(−0.75)) / 8 = 1/32.
        let merged = merge_members(&spec, &[vec![9.0, 9.0]], &members);
        assert_eq!(merged, vec![vec![1.0, 0.03125]]);
    }

    /// A 3 × 2 `L` and a 2 × 2 `R`; member 0 rates (0, 0) and (1, 0),
    /// member 1 rates (1.4, 1), whose row index rounds to 1.
    fn lrmf_members() -> (dana_dsl::AlgoSpec, [TupleBatch; 2]) {
        let p = LrmfParams {
            rows: 3,
            cols: 2,
            rank: 2,
            ..LrmfParams::default()
        };
        let tuples = [
            tuples(&[[0.0, 0.0, 1.0], [1.0, 0.0, 2.0]]),
            tuples(&[[1.4, 1.0, 3.0]]),
        ];
        (zoo::lrmf(p).unwrap(), tuples)
    }

    #[test]
    fn a_factor_row_is_its_owners_mean_or_its_start() {
        let (spec, [t0, t1]) = lrmf_members();
        let start = [vec![9.0; 6], vec![9.0; 4]];
        let members = [
            (
                vec![
                    vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                    vec![7.0, 8.0, 0.5, 0.25],
                ],
                &t0,
            ),
            (
                vec![
                    vec![-1.0, -2.0, 1.0, 0.5, 7.0, 7.0],
                    vec![0.0, 0.0, 3.0, 5.0],
                ],
                &t1,
            ),
        ];
        // L: row 0 is member 0's alone, row 1 both members' (unweighted)
        // mean, row 2 nobody's; R: row 0 is member 0's, row 1 member 1's.
        let merged = merge_members(&spec, &start, &members);
        assert_eq!(merged[0], [1.0, 2.0, 2.0, 2.25, 9.0, 9.0]);
        assert_eq!(merged[1], [7.0, 8.0, 3.0, 5.0]);
    }

    #[test]
    fn an_unwritten_model_keeps_member_zeros_values() {
        let (mut spec, [t0, t1]) = lrmf_members();
        let r = spec.model_updates[1].model();
        spec.model_updates.retain(|u| u.model() != r);
        let start = [vec![9.0; 6], vec![9.0; 4]];
        let members = [
            (vec![vec![1.0; 6], vec![7.0, 8.0, 0.5, 0.25]], &t0),
            (vec![vec![3.0; 6], vec![0.0, 0.0, 3.0, 5.0]], &t1),
        ];
        let merged = merge_members(&spec, &start, &members);
        assert_eq!(merged[0], [1.0, 1.0, 2.0, 2.0, 9.0, 9.0]);
        assert_eq!(merged[1], [7.0, 8.0, 0.5, 0.25]);
    }
}
