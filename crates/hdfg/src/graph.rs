//! The hDFG data structure and its analysis queries.

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

impl HNode {
    /// Number of atomic sub-nodes (single scalar engine operations) this
    /// multi-dimensional node decomposes into (§4.4).
    ///
    /// * elementwise binary/unary: one op per output element;
    /// * `sigma`/`pi` over an axis of extent `k`: a `(k−1)`-op reduction
    ///   tree per output element;
    /// * `norm`: squares (`k`), reduction (`k−1`), and a square root;
    /// * `gather`: one move per gathered element;
    /// * leaves, constants, identities: zero compute.
    pub fn atomic_ops(&self, input_dims: &[&Dims]) -> u64 {
        let out = self.dims.elements() as u64;
        match &self.op {
            HOp::Binary(_) => out,
            HOp::Unary(_) => out,
            HOp::Group(g, axis) => {
                let in_dims = input_dims.first().expect("group has one input");
                let k = group_extent(in_dims, *axis) as u64;
                match g {
                    GroupOp::Sigma | GroupOp::Pi => out * k.saturating_sub(1),
                    GroupOp::Norm => out * (2 * k).saturating_sub(1).max(1),
                }
            }
            HOp::Gather => out,
            HOp::Merge(_) => out,
            HOp::Leaf { .. } | HOp::Identity | HOp::Const(_) => 0,
        }
    }

    /// Pipeline depth in "levels" when fully parallelized: elementwise ops
    /// take one level; reductions take ⌈log₂ k⌉ levels.
    pub fn depth(&self, input_dims: &[&Dims]) -> u64 {
        match &self.op {
            HOp::Binary(_) | HOp::Unary(_) | HOp::Gather | HOp::Merge(_) => 1,
            HOp::Group(g, axis) => {
                let in_dims = input_dims.first().expect("group has one input");
                let k = group_extent(in_dims, *axis).max(1) as u64;
                let tree = (64 - (k - 1).leading_zeros().min(63)) as u64; // ⌈log₂ k⌉
                match g {
                    GroupOp::Sigma | GroupOp::Pi => tree.max(1),
                    GroupOp::Norm => tree + 2, // squares, tree, sqrt
                }
            }
            HOp::Leaf { .. } | HOp::Identity | HOp::Const(_) => 0,
        }
    }
}

/// Extent of the reduced axis (1-based from the right).
fn group_extent(dims: &Dims, axis: usize) -> usize {
    if dims.is_scalar() {
        1
    } else {
        dims.0[dims.rank() - axis]
    }
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

    fn input_dims(&self, node: &HNode) -> Vec<&Dims> {
        node.inputs.iter().map(|i| &self.node(*i).dims).collect()
    }

    /// Nodes in a region, in topological order.
    pub fn region_nodes(&self, region: Region) -> impl Iterator<Item = &HNode> {
        self.nodes.iter().filter(move |n| n.region == region)
    }

    /// Total atomic sub-node count in a region — the work one thread
    /// performs per tuple (PerTuple) or per batch (PostMerge).
    pub fn atomic_op_count(&self, region: Region) -> u64 {
        self.region_nodes(region)
            .map(|n| n.atomic_ops(&self.input_dims(n)))
            .sum()
    }

    /// Critical-path depth of a region in levels (infinite-resource bound):
    /// the longest chain of node depths through the dataflow edges.
    pub fn critical_path(&self, region: Region) -> u64 {
        let mut best: Vec<u64> = vec![0; self.nodes.len()];
        let mut max = 0;
        for n in &self.nodes {
            if n.region != region {
                continue;
            }
            let in_best = n
                .inputs
                .iter()
                .map(|i| best[i.0 as usize])
                .max()
                .unwrap_or(0);
            let d = in_best + n.depth(&self.input_dims(n));
            best[n.id.0 as usize] = d;
            max = max.max(d);
        }
        max
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

    /// GraphViz dot output (handy for docs and debugging).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "digraph \"{}\" {{", self.name);
        for n in &self.nodes {
            let shape = match n.op {
                HOp::Leaf { .. } => "ellipse",
                HOp::Merge(_) => "doubleoctagon",
                _ => "box",
            };
            let _ = writeln!(
                s,
                "  n{} [label=\"{} {}\" shape={}];",
                n.id.0, n.name, n.dims, shape
            );
            for i in &n.inputs {
                let _ = writeln!(s, "  n{} -> n{};", i.0, n.id.0);
            }
        }
        let _ = writeln!(s, "}}");
        s
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
    fn atomic_ops_scale_with_features() {
        let g8 = linreg_graph(8);
        let g64 = linreg_graph(64);
        let w8 = g8.atomic_op_count(Region::PerTuple);
        let w64 = g64.atomic_op_count(Region::PerTuple);
        // linear regression per-tuple work: mul n + reduce (n−1) + sub 1 + mul n
        assert_eq!(w8, 8 + 7 + 1 + 8);
        assert_eq!(w64, 64 + 63 + 1 + 64);
        assert!(w64 > w8);
    }

    #[test]
    fn critical_path_is_logarithmic_in_features() {
        let g8 = linreg_graph(8);
        let g64 = linreg_graph(64);
        let d8 = g8.critical_path(Region::PerTuple);
        let d64 = g64.critical_path(Region::PerTuple);
        // mul (1) + log2 reduction + sub (1) + mul (1)
        assert_eq!(d8, 1 + 3 + 1 + 1);
        assert_eq!(d64, 1 + 6 + 1 + 1);
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

    #[test]
    fn dot_output_mentions_every_node() {
        let g = linreg_graph(4);
        let dot = g.to_dot();
        for n in &g.nodes {
            assert!(dot.contains(&format!("n{}", n.id.0)));
        }
        assert!(dot.contains("doubleoctagon")); // merge node rendered distinctly
    }
}
