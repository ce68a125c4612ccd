//! Spec → graph translation.
//!
//! "The aim of the translator is to expose as much parallelism available in
//! the algorithm to the remainder of the DAnA workflow. ... the translator
//! (1) maintains the function boundaries, especially between the merge
//! function and parallelizable portions of the update rule, and (2)
//! automatically infers dimensionality of nodes and edges in the graph."
//! (§4.4) — (2) already ran in the DSL layer; this pass materializes the
//! graph, the explicit merge node, and the region split.

use std::collections::HashMap;

use dana_dsl::{AlgoSpec, DataKind, OpKind, VarId};

use crate::graph::{ConvergenceBinding, HNode, HOp, Hdfg, MergeInfo, ModelBinding, NodeId, Region};

/// Translates a validated [`AlgoSpec`] into its [`Hdfg`].
pub fn translate(spec: &AlgoSpec) -> Hdfg {
    let mut nodes: Vec<HNode> = Vec::new();
    let mut of_var: HashMap<VarId, NodeId> = HashMap::new();

    let push = |nodes: &mut Vec<HNode>, op, inputs, dims, region, name: String| {
        let id = NodeId(nodes.len() as u32);
        nodes.push(HNode {
            id,
            op,
            inputs,
            dims,
            region,
            name,
        });
        id
    };

    // Leaves for every declared (non-inter) variable, in declaration order.
    for v in &spec.vars {
        if v.kind == DataKind::Inter {
            continue;
        }
        let id = push(
            &mut nodes,
            HOp::Leaf {
                var: v.id,
                kind: v.kind,
            },
            Vec::new(),
            v.dims.clone(),
            Region::PerTuple,
            v.name.clone(),
        );
        of_var.insert(v.id, id);
    }

    let boundary = spec
        .merge
        .as_ref()
        .map(|m| m.boundary)
        .unwrap_or(usize::MAX);
    let mut merge_info: Option<MergeInfo> = None;

    for (idx, stmt) in spec.stmts.iter().enumerate() {
        // Insert the explicit merge node exactly at the boundary.
        if idx == boundary {
            merge_info = Some(insert_merge(spec, &mut nodes, &mut of_var));
        }
        let region = if idx < boundary {
            Region::PerTuple
        } else {
            Region::PostMerge
        };
        let name = spec.var(stmt.target).name.clone();
        let dims = spec.var(stmt.target).dims.clone();
        let (op, inputs) = match &stmt.op {
            OpKind::Binary(b, x, y) => (HOp::Binary(*b), vec![of_var[x], of_var[y]]),
            OpKind::Unary(u, x) => (HOp::Unary(*u), vec![of_var[x]]),
            OpKind::Group(g, x, axis) => (HOp::Group(*g, *axis), vec![of_var[x]]),
            OpKind::Gather { matrix, index } => (HOp::Gather, vec![of_var[matrix], of_var[index]]),
            OpKind::Identity(x) => (HOp::Identity, vec![of_var[x]]),
            OpKind::Const(c) => (HOp::Const(*c), vec![]),
        };
        let id = push(&mut nodes, op, inputs, dims, region, name);
        of_var.insert(stmt.target, id);
    }
    // Merge boundary at the very end of the statement list.
    if boundary == spec.stmts.len() {
        merge_info = Some(insert_merge(spec, &mut nodes, &mut of_var));
    }

    let model_bindings = spec
        .model_updates
        .iter()
        .map(|mu| match mu {
            dana_dsl::ModelUpdate::Whole { model, source } => ModelBinding::Whole {
                model: *model,
                source: of_var[source],
            },
            dana_dsl::ModelUpdate::Row {
                model,
                index,
                source,
            } => ModelBinding::Row {
                model: *model,
                index: of_var[index],
                source: of_var[source],
            },
        })
        .collect();

    let convergence = ConvergenceBinding::from_spec(&spec.convergence, |v| of_var[&v]);

    let meta_values = spec
        .vars
        .iter()
        .filter(|v| v.kind == DataKind::Meta)
        .filter_map(|v| v.meta_value.as_ref().map(|m| (v.id, m.clone())))
        .collect();

    let g = Hdfg {
        name: spec.name.clone(),
        nodes,
        merge: merge_info,
        model_bindings,
        convergence,
        meta_values,
        input_width: spec.input_width(),
        output_width: spec.output_width(),
        model_elements: spec.model_elements(),
    };
    debug_assert_eq!(g.check(), Ok(()));
    g
}

fn insert_merge(
    spec: &AlgoSpec,
    nodes: &mut Vec<HNode>,
    of_var: &mut HashMap<VarId, NodeId>,
) -> MergeInfo {
    let m = spec
        .merge
        .as_ref()
        .expect("insert_merge called with a merge spec");
    let pre = of_var[&m.var];
    let dims = nodes[pre.0 as usize].dims.clone();
    let id = NodeId(nodes.len() as u32);
    nodes.push(HNode {
        id,
        op: HOp::Merge(m.op),
        inputs: vec![pre],
        dims,
        region: Region::PostMerge,
        name: format!("merge({})", nodes[pre.0 as usize].name),
    });
    // Downstream statements read the merged value.
    of_var.insert(m.var, id);
    MergeInfo {
        node: id,
        op: m.op,
        coef: m.coef,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Region;
    use dana_dsl::zoo::{
        linear_regression, logistic_regression, lrmf, svm, DenseParams, LrmfParams,
    };
    use dana_dsl::UnaryFn;

    #[test]
    fn regions_split_at_merge_boundary() {
        let spec = linear_regression(DenseParams {
            n_features: 10,
            ..Default::default()
        })
        .unwrap();
        let g = translate(&spec);
        // Per-tuple: leaves + mul, sigma, sub, mul.
        // Post-merge: merge, mul (lr*grad), sub (mo-up).
        let per_tuple_ops = g
            .region_nodes(Region::PerTuple)
            .filter(|n| !matches!(n.op, HOp::Leaf { .. }))
            .count();
        let post = g.region_nodes(Region::PostMerge).count();
        assert_eq!(per_tuple_ops, 4);
        assert_eq!(post, 3);
    }

    #[test]
    fn post_merge_reads_merged_value() {
        let spec = linear_regression(DenseParams::default()).unwrap();
        let g = translate(&spec);
        let merge_id = g.merge.unwrap().node;
        // Some post-merge node must consume the merge node directly.
        let consumed = g
            .region_nodes(Region::PostMerge)
            .any(|n| n.inputs.contains(&merge_id));
        assert!(consumed);
    }

    #[test]
    fn logistic_adds_one_sigmoid_node() {
        let spec = logistic_regression(DenseParams::default()).unwrap();
        let g = translate(&spec);
        let sigmoids = g
            .nodes
            .iter()
            .filter(|n| matches!(n.op, HOp::Unary(UnaryFn::Sigmoid)))
            .count();
        assert_eq!(sigmoids, 1);
    }

    #[test]
    fn svm_translates_comparison() {
        let spec = svm(DenseParams::default()).unwrap();
        let g = translate(&spec);
        assert!(g
            .nodes
            .iter()
            .any(|n| matches!(n.op, HOp::Binary(dana_dsl::BinOp::Lt))));
        g.check().unwrap();
    }

    #[test]
    fn lrmf_has_gathers_and_row_bindings() {
        let spec = lrmf(LrmfParams::default()).unwrap();
        let g = translate(&spec);
        let gathers = g
            .nodes
            .iter()
            .filter(|n| matches!(n.op, HOp::Gather))
            .count();
        assert_eq!(gathers, 2);
        assert_eq!(g.model_bindings.len(), 2);
        assert!(g
            .model_bindings
            .iter()
            .all(|b| matches!(b, crate::graph::ModelBinding::Row { .. })));
    }

    #[test]
    fn merge_at_end_of_statements() {
        let spec = lrmf(LrmfParams::default()).unwrap();
        assert_eq!(spec.merge.as_ref().unwrap().boundary, spec.stmts.len());
        let g = translate(&spec);
        assert!(g.merge.is_some());
        // The merge node is the last node.
        assert_eq!(g.merge.unwrap().node.0 as usize, g.nodes.len() - 1);
    }

    #[test]
    fn convergence_condition_binds_to_node() {
        let src = r#"
            mo = model([4])
            in = input([4])
            out = output()
            cf = meta(0.5)
            s = sigma(mo * in, 1)
            er = s - out
            grad = er * in
            mo_up = mo - grad
            setModel(mo_up)
            n = norm(grad, 1)
            conv = n < cf
            setConvergence(conv, 77)
        "#;
        let spec = dana_dsl::parse_udf(src, "t").unwrap();
        let g = translate(&spec);
        match g.convergence {
            ConvergenceBinding::Condition { node, max_epochs } => {
                assert_eq!(max_epochs, 77);
                assert!(matches!(g.node(node).op, HOp::Binary(dana_dsl::BinOp::Lt)));
            }
            other => panic!("expected condition, got {other:?}"),
        }
        assert_eq!(g.convergence.max_epochs(), 77);
    }

    #[test]
    fn widths_copied_from_spec() {
        let spec = linear_regression(DenseParams {
            n_features: 33,
            ..Default::default()
        })
        .unwrap();
        let g = translate(&spec);
        assert_eq!(g.input_width, 33);
        assert_eq!(g.output_width, 1);
        assert_eq!(g.model_elements, 33);
    }
}
