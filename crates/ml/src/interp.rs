//! The training oracle: an interpreter of the DSL (§4) that trains any
//! validated [`AlgoSpec`] the way the accelerator does. It reads the
//! program, never the compiled schedule:
//!
//! * a batch is one tuple per thread; each thread runs the statements
//!   before the merge boundary on the models as they were at the start of
//!   the batch (dense models broadcast, row models gathered);
//! * the merge folds threads `0..active` in order into thread 0 (`Avg`
//!   divides by `active`), the statements after it run on thread 0, and
//!   row writes scatter in thread order;
//! * elementwise operations are [`BinOp::apply`] and [`UnaryFn::apply`];
//!   a group folds in the order the compiler recorded ([`FoldOrder`]), or
//!   in f64 over compile-time constants, as the compiler folds them.
//!
//! The differential suites hold the lowered engine to it bit for bit;
//! [`crate::train_reference`] runs it on one AU.

use dana_dsl::{
    AlgoSpec, BinOp, Convergence, DataKind, Dims, Fold, FoldOrder, GroupOp, MergeOp, ModelUpdate,
    OpKind, UnaryFn, VarId,
};
use dana_storage::TupleBatch;

/// A gather or row write named a row outside its model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowOutOfRange {
    /// The model's index in declaration order.
    pub model: usize,
    pub row: i64,
    pub rows: usize,
}

enum Kind {
    Bin(BinOp),
    Unary(UnaryFn),
    /// The recorded fold of each output element; `None` for a group over
    /// constants.
    Group(GroupOp, Option<Vec<Fold>>),
    /// A row of the model with this index.
    Gather(usize),
    Const(f32),
}

/// One statement placed in a thread's value buffer: output element `e`
/// lands at `dst + e` and reads the buffer words `srcs[e]`.
struct Op {
    kind: Kind,
    dst: usize,
    srcs: Vec<Vec<usize>>,
}

/// Trains `spec` over `tuples` (inputs, then labels) with `threads`
/// lockstep threads, folding every group in `order`. `models` holds the
/// initial values of the program's models, in declaration order, and
/// receives the trained ones. Returns the epochs run and whether the
/// convergence condition fired.
pub fn train_spec(
    spec: &AlgoSpec,
    order: &FoldOrder,
    threads: usize,
    tuples: &TupleBatch,
    models: &mut [Vec<f32>],
) -> Result<(u32, bool), RowOutOfRange> {
    // Each variable's current value (its first buffer word), whether it
    // is a compile-time constant, and (for a model) its model index.
    let nvars = spec.vars.len();
    let (mut at, mut konst, mut model_of) = (vec![0; nvars], vec![false; nvars], vec![0; nvars]);
    let mut init: Vec<f32> = Vec::new();
    let alloc = |init: &mut Vec<f32>, n: usize| {
        init.resize(init.len() + n, 0.0);
        init.len() - n
    };
    // A model some statement gathers rows of is row-indexed.
    let gathered = |v: VarId| {
        spec.stmts
            .iter()
            .any(|s| matches!(s.op, OpKind::Gather { matrix, .. } if matrix == v))
    };
    let (mut inputs, mut labels, mut broadcasts, mut nmodels) = (vec![], vec![], vec![], 0);
    for v in spec.vars.iter().filter(|v| v.kind != DataKind::Inter) {
        let (i, n) = (v.id.0 as usize, v.dims.elements());
        if v.kind == DataKind::Model {
            model_of[i] = nmodels;
            nmodels += 1;
            if gathered(v.id) {
                continue;
            }
        }
        at[i] = alloc(&mut init, n);
        match v.kind {
            DataKind::Input => inputs.extend(at[i]..at[i] + n),
            DataKind::Output => labels.extend(at[i]..at[i] + n),
            DataKind::Model => broadcasts.push((model_of[i], at[i])),
            _ => {
                konst[i] = true;
                for (k, x) in v.meta_value.iter().flatten().enumerate() {
                    init[at[i] + k] = *x as f32;
                }
            }
        }
    }
    inputs.extend(labels);
    assert_eq!(tuples.width(), inputs.len(), "inputs, then labels");

    let boundary = spec.merge.as_ref().map_or(usize::MAX, |m| m.boundary);
    let (mut merge_at, mut folds) = (None, order.groups.iter());
    let (mut per_tuple, mut post_merge) = (vec![], vec![]);
    for (si, s) in spec.stmts.iter().enumerate() {
        if si == boundary {
            merge_at = spec.merge.as_ref().map(|m| at[m.var.0 as usize]);
        }
        let (t, dims) = (s.target.0 as usize, &spec.var(s.target).dims);
        let is_const = s.op.operands().iter().all(|v| konst[v.0 as usize]);
        let word = |v: VarId| at[v.0 as usize];
        let per_element = |f: &dyn Fn(usize) -> Vec<usize>| (0..dims.elements()).map(f).collect();
        let (kind, srcs) = match s.op {
            OpKind::Identity(x) => {
                (at[t], konst[t]) = (word(x), konst[x.0 as usize]);
                continue;
            }
            OpKind::Binary(op, x, y) => {
                let (xd, yd) = (&spec.var(x).dims, &spec.var(y).dims);
                let srcs = per_element(&|e| {
                    let a = word(x) + broadcast_index(dims, xd, e, true);
                    vec![a, word(y) + broadcast_index(dims, yd, e, false)]
                });
                (Kind::Bin(op), srcs)
            }
            OpKind::Unary(f, x) => (Kind::Unary(f), per_element(&|e| vec![word(x) + e])),
            OpKind::Group(g, x, axis) => {
                let input = &spec.var(x).dims;
                let extent = input.rank().checked_sub(axis).map_or(1, |d| input.0[d]);
                let srcs = per_element(&|oe| {
                    let operand = |k| word(x) + reduction_index(input, axis, oe, k);
                    (0..extent).map(operand).collect()
                });
                let folds = folds.next().expect("a fold order entry per group");
                (Kind::Group(g, (!is_const).then(|| folds.clone())), srcs)
            }
            OpKind::Gather { matrix, index } => {
                let model = Kind::Gather(model_of[matrix.0 as usize]);
                (model, per_element(&|_| vec![word(index)]))
            }
            OpKind::Const(c) => (Kind::Const(c as f32), vec![vec![]]),
        };
        let dst = alloc(&mut init, dims.elements());
        (at[t], konst[t]) = (dst, is_const);
        let region = if si < boundary {
            &mut per_tuple
        } else {
            &mut post_merge
        };
        region.push(Op { kind, dst, srcs });
    }
    if boundary == spec.stmts.len() {
        merge_at = spec.merge.as_ref().map(|m| at[m.var.0 as usize]);
    }
    let word = |v: VarId| at[v.0 as usize];
    // Threads merge only when a whole-model update consumes the result;
    // row updates scatter each thread's rows instead.
    let whole = |u: &ModelUpdate| matches!(u, ModelUpdate::Whole { .. });
    let merge = spec
        .merge
        .as_ref()
        .filter(|_| spec.model_updates.iter().any(whole));
    let merge = merge.map(|m| {
        (
            m.op,
            merge_at.expect("a merge has a boundary"),
            spec.var(m.var).dims.elements(),
        )
    });
    // (model, source word, elements, and for a row write the index word).
    let writes: Vec<_> = spec
        .model_updates
        .iter()
        .map(|u| {
            let (model, source, index) = match *u {
                ModelUpdate::Whole { model, source } => (model, source, None),
                ModelUpdate::Row {
                    model,
                    index,
                    source,
                } => (model, source, Some(word(index))),
            };
            let n = spec.var(source).dims.elements();
            (model_of[model.0 as usize], word(source), n, index)
        })
        .collect();
    let (converged, max_epochs) = match spec.convergence {
        Convergence::Epochs(n) => (None, n),
        Convergence::Condition { var, max_epochs } => (Some(word(var)), max_epochs),
    };

    let width = inputs.len();
    let mut bufs = vec![init; threads.max(1)];
    for epoch in 1..=max_epochs {
        for group in tuples.as_slice().chunks(width * bufs.len()) {
            let active = group.len() / width;
            for &(m, w) in &broadcasts {
                for buf in bufs.iter_mut() {
                    buf[w..w + models[m].len()].copy_from_slice(&models[m]);
                }
            }
            for (buf, tuple) in bufs.iter_mut().zip(group.chunks_exact(width)) {
                inputs.iter().zip(tuple).for_each(|(&w, &v)| buf[w] = v);
                run(&per_tuple, buf, models)?;
            }
            if let Some((op, w0, n)) = merge.filter(|_| active > 1) {
                for w in w0..w0 + n {
                    let lanes = bufs[1..active].iter().map(|buf| buf[w]);
                    let max = op == MergeOp::Max;
                    let acc = lanes.fold(bufs[0][w], |a, v| if max { a.max(v) } else { a + v });
                    bufs[0][w] = if op == MergeOp::Avg {
                        acc / active as f32
                    } else {
                        acc
                    };
                }
            }
            run(&post_merge, &mut bufs[0], models)?;
            // A whole model takes thread 0's value; a row write checks
            // every active thread's row, then scatters them in order.
            for &(m, src, n, index) in &writes {
                let bases = match index {
                    None => vec![0],
                    Some(index) => bufs[..active]
                        .iter()
                        .map(|buf| checked_row(buf[index], m, models[m].len() / n).map(|r| r * n))
                        .collect::<Result<_, _>>()?,
                };
                for (buf, base) in bufs.iter().zip(bases) {
                    models[m][base..base + n].copy_from_slice(&buf[src..src + n]);
                }
            }
        }
        if converged.is_some_and(|w| bufs[0][w] != 0.0) {
            return Ok((epoch, true));
        }
    }
    Ok((max_epochs, false))
}

/// Runs `ops` on one thread's buffer.
fn run(ops: &[Op], buf: &mut [f32], models: &[Vec<f32>]) -> Result<(), RowOutOfRange> {
    for op in ops {
        for (e, src) in op.srcs.iter().enumerate() {
            let x = |k: usize| buf[src[k]];
            let v = match &op.kind {
                Kind::Bin(b) => b.apply(x(0), x(1)),
                Kind::Unary(f) => f.apply(x(0) as f64) as f32,
                Kind::Group(g, Some(folds)) => match g {
                    GroupOp::Sigma => folds[e].eval(&x, &|a, b| a + b),
                    GroupOp::Pi => folds[e].eval(&x, &|a, b| a * b),
                    GroupOp::Norm => {
                        let sum = folds[e].eval(&|k| x(k) * x(k), &|a, b| a + b);
                        UnaryFn::Sqrt.apply(sum as f64) as f32
                    }
                },
                Kind::Group(g, None) => {
                    let vals = src.iter().map(|&w| buf[w] as f64);
                    match g {
                        GroupOp::Sigma => vals.sum::<f64>() as f32,
                        GroupOp::Pi => vals.product::<f64>() as f32,
                        GroupOp::Norm => vals.map(|v| v * v).sum::<f64>().sqrt() as f32,
                    }
                }
                &Kind::Gather(m) => {
                    let cols = op.srcs.len();
                    models[m][checked_row(x(0), m, models[m].len() / cols)? * cols + e]
                }
                &Kind::Const(v) => v,
            };
            buf[op.dst + e] = v;
        }
    }
    Ok(())
}

fn checked_row(raw: f32, model: usize, rows: usize) -> Result<usize, RowOutOfRange> {
    row_index(raw, rows).map_err(|row| RowOutOfRange { model, row, rows })
}

/// The model row an index value names: the value rounded to the nearest
/// integer, as the engine gathers it. `Err` carries that row when it
/// falls outside `0..rows`. Training, scoring and the reference scorer
/// all read an LRMF index column through this one conversion.
pub fn row_index(raw: f32, rows: usize) -> Result<usize, i64> {
    let row = raw.round() as i64;
    if row < 0 || row >= rows as i64 {
        return Err(row);
    }
    Ok(row as usize)
}

/// The element of an operand shaped `opnd` that output element `e` (of
/// `out`) reads under §4.4 broadcasting: a scalar or a trailing suffix is
/// replicated across the leading axes, and the outer pairing
/// `[a][k] ⊗ [b][k] → [a][b][k]` reads row `i` on the left, `j` on the
/// right.
fn broadcast_index(out: &Dims, opnd: &Dims, e: usize, left: bool) -> usize {
    if out.0.ends_with(&opnd.0) {
        return e % opnd.elements();
    }
    let (b, k) = (out.0[1], out.0[2]);
    let row = if left { e / (b * k) } else { e / k % b };
    row * k + e % k
}

/// The input element the k-th operand of output element `oe` reads when
/// reducing `axis` (1-based from the right) of `input`.
fn reduction_index(input: &Dims, axis: usize, oe: usize, k: usize) -> usize {
    let Some(red) = input.rank().checked_sub(axis) else {
        return 0;
    };
    // The axes after the reduced one vary fastest, in `oe` as in `input`.
    let inner: usize = input.0[red + 1..].iter().product();
    ((oe / inner) * input.0[red] + k) * inner + oe % inner
}
