//! The hDFG data structure.

use dana_dsl::{BinOp, Convergence, DataKind, Dims, GroupOp, MergeOp, UnaryFn, VarId};

/// Index of a node within its [`Hdfg`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct NodeId(pub u32);

/// Which execution region a node belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Region {
    /// Runs once per training tuple, replicated across threads (the
    /// parallelizable portion of the update rule, Fig. 3b "Thread 1 …
    /// Thread n").
    PerTuple,
    /// Runs once per batch, after the thread merge (the optimizer step and
    /// the convergence check).
    PostMerge,
}

/// Node operation. Mirrors the DSL's [`dana_dsl::OpKind`] plus leaves and
/// the explicit cross-thread merge.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum HOp {
    /// A declared variable entering the graph (input/output/model/meta).
    Leaf {
        var: VarId,
        kind: DataKind,
    },
    Binary(BinOp),
    Unary(UnaryFn),
    Group(GroupOp, usize),
    /// Row gather from a rank-2 model.
    Gather,
    Identity,
    Const(f64),
    /// Cross-thread combination on the tree bus (the colored node of
    /// Fig. 3b). Carries the merge operator.
    Merge(MergeOp),
}

/// One hDFG node.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HNode {
    pub id: NodeId,
    pub op: HOp,
    /// Producer nodes, in operand order.
    pub inputs: Vec<NodeId>,
    /// Output shape.
    pub dims: Dims,
    pub region: Region,
    /// Source-level name (variable name or a derived label) for diagnostics.
    pub name: String,
}

/// How the trained model leaves the graph.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ModelBinding {
    /// The whole model variable is replaced by this node's value.
    Whole { model: VarId, source: NodeId },
    /// Row `index` (a node producing a scalar) is replaced (LRMF scatter).
    Row {
        model: VarId,
        index: NodeId,
        source: NodeId,
    },
}

/// Cross-thread merge description.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MergeInfo {
    pub node: NodeId,
    pub op: MergeOp,
    pub coef: u32,
}

/// The hierarchical dataflow graph for one UDF.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Hdfg {
    pub name: String,
    /// Nodes in topological order (construction preserves statement order).
    pub nodes: Vec<HNode>,
    /// The merge node, if the UDF declared one.
    pub merge: Option<MergeInfo>,
    /// Model write-backs.
    pub model_bindings: Vec<ModelBinding>,
    /// Convergence: either a fixed epoch count or (condition node, cap).
    pub convergence: ConvergenceBinding,
    /// Meta-variable contents (compile-time constants shipped to the FPGA
    /// before execution, §4.2), keyed by the DSL variable.
    pub meta_values: Vec<(VarId, Vec<f64>)>,
    /// Total feature / label widths (copied from the spec for convenience).
    pub input_width: usize,
    pub output_width: usize,
    pub model_elements: usize,
}

/// Convergence in graph terms.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ConvergenceBinding {
    Epochs(u32),
    Condition { node: NodeId, max_epochs: u32 },
}

impl ConvergenceBinding {
    pub fn from_spec(c: &Convergence, node_of: impl Fn(VarId) -> NodeId) -> ConvergenceBinding {
        match c {
            Convergence::Epochs(n) => ConvergenceBinding::Epochs(*n),
            Convergence::Condition { var, max_epochs } => ConvergenceBinding::Condition {
                node: node_of(*var),
                max_epochs: *max_epochs,
            },
        }
    }

    /// Upper bound on epochs regardless of early exit.
    pub fn max_epochs(&self) -> u32 {
        match self {
            ConvergenceBinding::Epochs(n) => *n,
            ConvergenceBinding::Condition { max_epochs, .. } => *max_epochs,
        }
    }
}

impl Hdfg {
    pub fn node(&self, id: NodeId) -> &HNode {
        &self.nodes[id.0 as usize]
    }

    /// Contents of a meta variable as engine-native f32, if `var` is a meta
    /// leaf.
    pub fn meta_contents(&self, var: VarId) -> Option<Vec<f32>> {
        self.meta_values
            .iter()
            .find(|(v, _)| *v == var)
            .map(|(_, vals)| vals.iter().map(|x| *x as f32).collect())
    }

    /// Nodes in a region, in topological order.
    pub fn region_nodes(&self, region: Region) -> impl Iterator<Item = &HNode> {
        self.nodes.iter().filter(move |n| n.region == region)
    }

    /// Structural invariant check: inputs precede their consumers, regions
    /// never flow backwards (PostMerge never feeds PerTuple), and every
    /// binding references an existing node.
    pub fn check(&self) -> Result<(), String> {
        for n in &self.nodes {
            for i in &n.inputs {
                if i.0 >= n.id.0 {
                    return Err(format!("node {} reads later node {}", n.id.0, i.0));
                }
                let producer = self.node(*i);
                if producer.region == Region::PostMerge && n.region == Region::PerTuple {
                    return Err(format!(
                        "per-tuple node {} consumes post-merge node {}",
                        n.id.0, i.0
                    ));
                }
            }
        }
        for b in &self.model_bindings {
            let src = match b {
                ModelBinding::Whole { source, .. } => *source,
                ModelBinding::Row { source, .. } => *source,
            };
            if src.0 as usize >= self.nodes.len() {
                return Err(format!("model binding references missing node {}", src.0));
            }
        }
        if let Some(m) = &self.merge {
            if !matches!(self.node(m.node).op, HOp::Merge(_)) {
                return Err("merge info does not point at a Merge node".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate::translate;
    use dana_dsl::zoo::{linear_regression, lrmf, DenseParams, LrmfParams};

    fn linreg_graph(n: usize) -> Hdfg {
        let spec = linear_regression(DenseParams {
            n_features: n,
            ..Default::default()
        })
        .unwrap();
        translate(&spec)
    }

    #[test]
    fn merge_node_has_correct_shape() {
        let g = linreg_graph(16);
        let m = g.merge.expect("linreg has a merge");
        assert_eq!(m.coef, 8);
        let node = g.node(m.node);
        assert!(matches!(node.op, HOp::Merge(_)));
        assert_eq!(node.dims, Dims::vector(16));
        assert_eq!(node.region, Region::PostMerge);
    }

    #[test]
    fn invariants_hold_for_zoo_graphs() {
        linreg_graph(10).check().unwrap();
        let spec = lrmf(LrmfParams::default()).unwrap();
        translate(&spec).check().unwrap();
    }
}
