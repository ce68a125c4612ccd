//! The execution-engine ISA: scheduled steps of selective-SIMD micro-ops.

use dana_dsl::{BinOp, UnaryFn};

/// AUs per analytic cluster. "The number of AUs per AC are fixed to 8 to
/// obtain highest operational frequency." (§5.2)
pub const AUS_PER_AC: u16 = 8;

/// A storage location within one thread: an AU and a slot in that AU's
/// data-memory scratchpad (Fig. 7b's "Data Memory Scratchpad").
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct Loc {
    pub au: u16,
    pub slot: u16,
}

impl Loc {
    pub fn new(au: u16, slot: u16) -> Loc {
        Loc { au, slot }
    }

    /// The cluster this location belongs to.
    pub fn ac(&self) -> u16 {
        self.au / AUS_PER_AC
    }
}

/// ALU operations (Fig. 7b: "executes both basic mathematical operations
/// and complicated non-linear operations").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum AluOp {
    Add,
    Sub,
    Mul,
    Div,
    /// 1.0 if a > b else 0.0.
    Gt,
    /// 1.0 if a < b else 0.0.
    Lt,
    Max,
    Sigmoid,
    Gaussian,
    Sqrt,
    /// Copy `a` to the destination. The only op allowed to read across
    /// cluster boundaries (it is the inter-AC bus transfer).
    Mov,
}

impl AluOp {
    /// Pipeline latency in cycles. A step's cost is the maximum latency of
    /// its micro-ops (the AC controller "proceeds to the next instruction"
    /// only when "the designated AUs complete their execution", §5.2).
    pub fn latency(&self) -> u64 {
        match self {
            AluOp::Add
            | AluOp::Sub
            | AluOp::Mul
            | AluOp::Gt
            | AluOp::Lt
            | AluOp::Max
            | AluOp::Mov => 1,
            AluOp::Sigmoid | AluOp::Gaussian => 2,
            AluOp::Div | AluOp::Sqrt => 4,
        }
    }

    /// Functional semantics (f32, the engine's native width): the DSL's
    /// own ([`BinOp::apply`], [`UnaryFn::apply`]).
    pub fn apply(&self, a: f32, b: f32) -> f32 {
        match self {
            AluOp::Add => BinOp::Add.apply(a, b),
            AluOp::Sub => BinOp::Sub.apply(a, b),
            AluOp::Mul => BinOp::Mul.apply(a, b),
            AluOp::Div => BinOp::Div.apply(a, b),
            AluOp::Gt => BinOp::Gt.apply(a, b),
            AluOp::Lt => BinOp::Lt.apply(a, b),
            AluOp::Max => a.max(b),
            AluOp::Sigmoid => UnaryFn::Sigmoid.apply(a as f64) as f32,
            AluOp::Gaussian => UnaryFn::Gaussian.apply(a as f64) as f32,
            AluOp::Sqrt => UnaryFn::Sqrt.apply(a as f64) as f32,
            AluOp::Mov => a,
        }
    }

    pub fn is_unary(&self) -> bool {
        matches!(
            self,
            AluOp::Sigmoid | AluOp::Gaussian | AluOp::Sqrt | AluOp::Mov
        )
    }
}

/// A micro-op source operand.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Src {
    /// Read a scratchpad location (same cluster unless the op is `Mov`).
    Slot(Loc),
    /// An immediate constant (meta values folded by the compiler).
    Const(f32),
}

/// One micro-operation, occupying one AU for one step.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum MicroOp {
    /// ALU operation on AU `au`, writing `dst` in `au`'s scratchpad.
    Alu {
        au: u16,
        op: AluOp,
        a: Src,
        b: Src,
        dst: u16,
    },
    /// Gather a model row: `dst[k] := model[row(index)][k]`. Occupies the
    /// destination AUs for the step. `model` indexes
    /// [`crate::engine::EngineDesign::models`]. A program never writes
    /// model memory: rows go back after the region, through
    /// [`crate::engine::ModelWrite::Row`].
    Gather {
        model: u8,
        index: Src,
        dst: Vec<Loc>,
    },
}

impl MicroOp {
    /// AUs this op occupies (structural hazard set). Row moves may stream
    /// several slots through one AU — that AU appears once.
    pub fn occupied_aus(&self) -> Vec<u16> {
        let mut aus = match self {
            MicroOp::Alu { au, .. } => vec![*au],
            MicroOp::Gather { dst, .. } => dst.iter().map(|l| l.au).collect(),
        };
        aus.sort_unstable();
        aus.dedup();
        aus
    }

    /// Latency contribution to the containing step.
    pub fn latency(&self) -> u64 {
        match self {
            MicroOp::Alu { op, .. } => op.latency(),
            // Row moves stream one element per cycle through the memory port.
            MicroOp::Gather { dst, .. } => dst.len().max(1) as u64,
        }
    }
}

/// One scheduled step: the micro-ops that issue together. In hardware this
/// is one AC instruction per involved cluster (selective SIMD: the enable
/// mask is implied by which AUs appear).
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct Step {
    pub ops: Vec<MicroOp>,
}

impl Step {
    pub fn cost(&self) -> u64 {
        self.ops.iter().map(|o| o.latency()).max().unwrap_or(1)
    }

    /// Inter-AC bus usage in this step: the number of *distinct sources*
    /// moved across cluster boundaries. The inter-AC bus is a shared line
    /// (§5.2), so one source broadcasting to many clusters costs one bus
    /// use; distinct sources contend.
    pub fn cross_cluster_movs(&self) -> usize {
        let mut sources: Vec<Loc> = self
            .ops
            .iter()
            .filter_map(|o| match o {
                MicroOp::Alu {
                    au,
                    op: AluOp::Mov,
                    a: Src::Slot(l),
                    ..
                } if l.ac() != au / AUS_PER_AC => Some(*l),
                _ => None,
            })
            .collect();
        sources.sort_unstable();
        sources.dedup();
        sources.len()
    }
}

/// A compiled engine program: the per-tuple region (replicated across
/// threads) and the post-merge region (runs on the merge result).
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct EngineProgram {
    pub per_tuple: Vec<Step>,
    pub post_merge: Vec<Step>,
}

impl EngineProgram {
    /// Cycle cost of the per-tuple region (one thread, one tuple).
    pub fn per_tuple_cycles(&self) -> u64 {
        self.per_tuple.iter().map(Step::cost).sum()
    }

    /// Cycle cost of the post-merge region (once per batch).
    pub fn post_merge_cycles(&self) -> u64 {
        self.post_merge.iter().map(Step::cost).sum()
    }

    /// Total micro-op count (diagnostics / instruction footprint).
    pub fn micro_ops(&self) -> usize {
        self.per_tuple
            .iter()
            .chain(&self.post_merge)
            .map(|s| s.ops.len())
            .sum()
    }

    /// Human-readable listing.
    pub fn listing(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let dump = |title: &str, steps: &[Step], s: &mut String| {
            let _ = writeln!(s, "; {title} ({} steps)", steps.len());
            for (i, st) in steps.iter().enumerate() {
                let _ = writeln!(s, "step {i} (cost {}):", st.cost());
                for op in &st.ops {
                    let _ = writeln!(s, "  {}", display_op(op));
                }
            }
        };
        dump("per-tuple", &self.per_tuple, &mut s);
        dump("post-merge", &self.post_merge, &mut s);
        s
    }
}

fn display_src(s: &Src) -> String {
    match s {
        Src::Slot(l) => format!("au{}[{}]", l.au, l.slot),
        Src::Const(c) => format!("#{c}"),
    }
}

fn display_op(op: &MicroOp) -> String {
    match op {
        MicroOp::Alu { au, op, a, b, dst } => {
            if op.is_unary() {
                format!("au{au}[{dst}] <- {op:?} {}", display_src(a))
            } else {
                format!(
                    "au{au}[{dst}] <- {:?}({}, {})",
                    op,
                    display_src(a),
                    display_src(b)
                )
            }
        }
        MicroOp::Gather { model, index, dst } => {
            format!(
                "gather m{model}[{}] -> {} slots",
                display_src(index),
                dst.len()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loc_cluster_arithmetic() {
        assert_eq!(Loc::new(0, 0).ac(), 0);
        assert_eq!(Loc::new(7, 0).ac(), 0);
        assert_eq!(Loc::new(8, 0).ac(), 1);
        assert_eq!(Loc::new(23, 5).ac(), 2);
    }

    #[test]
    fn alu_semantics() {
        assert_eq!(AluOp::Add.apply(2.0, 3.0), 5.0);
        assert_eq!(AluOp::Sub.apply(2.0, 3.0), -1.0);
        assert_eq!(AluOp::Mul.apply(2.0, 3.0), 6.0);
        assert_eq!(AluOp::Div.apply(3.0, 2.0), 1.5);
        assert_eq!(AluOp::Gt.apply(2.0, 3.0), 0.0);
        assert_eq!(AluOp::Lt.apply(2.0, 3.0), 1.0);
        assert_eq!(AluOp::Max.apply(2.0, 3.0), 3.0);
        assert_eq!(AluOp::Mov.apply(7.0, 0.0), 7.0);
        assert!((AluOp::Sigmoid.apply(0.0, 0.0) - 0.5).abs() < 1e-6);
        assert!((AluOp::Sqrt.apply(9.0, 0.0) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn step_cost_is_max_latency() {
        let step = Step {
            ops: vec![
                MicroOp::Alu {
                    au: 0,
                    op: AluOp::Add,
                    a: Src::Const(1.0),
                    b: Src::Const(2.0),
                    dst: 0,
                },
                MicroOp::Alu {
                    au: 1,
                    op: AluOp::Div,
                    a: Src::Const(1.0),
                    b: Src::Const(2.0),
                    dst: 0,
                },
            ],
        };
        assert_eq!(step.cost(), 4);
        let empty = Step::default();
        assert_eq!(empty.cost(), 1);
    }

    #[test]
    fn cross_cluster_movs_counted() {
        let step = Step {
            ops: vec![
                // AU 0 (cluster 0) pulling from AU 9 (cluster 1): bus transfer.
                MicroOp::Alu {
                    au: 0,
                    op: AluOp::Mov,
                    a: Src::Slot(Loc::new(9, 0)),
                    b: Src::Const(0.0),
                    dst: 0,
                },
                // Same-cluster mov: free.
                MicroOp::Alu {
                    au: 1,
                    op: AluOp::Mov,
                    a: Src::Slot(Loc::new(2, 0)),
                    b: Src::Const(0.0),
                    dst: 0,
                },
                // Non-mov op: not a bus user.
                MicroOp::Alu {
                    au: 3,
                    op: AluOp::Add,
                    a: Src::Slot(Loc::new(4, 0)),
                    b: Src::Const(0.0),
                    dst: 0,
                },
            ],
        };
        assert_eq!(step.cross_cluster_movs(), 1);
    }

    #[test]
    fn gather_latency_scales_with_rank() {
        let g = MicroOp::Gather {
            model: 0,
            index: Src::Const(0.0),
            dst: (0..10).map(|i| Loc::new(0, i)).collect(),
        };
        assert_eq!(g.latency(), 10);
    }

    #[test]
    fn program_cycle_totals() {
        let p = EngineProgram {
            per_tuple: vec![
                Step {
                    ops: vec![MicroOp::Alu {
                        au: 0,
                        op: AluOp::Mul,
                        a: Src::Const(1.0),
                        b: Src::Const(1.0),
                        dst: 0,
                    }],
                },
                Step {
                    ops: vec![MicroOp::Alu {
                        au: 0,
                        op: AluOp::Sigmoid,
                        a: Src::Const(1.0),
                        b: Src::Const(0.0),
                        dst: 1,
                    }],
                },
            ],
            post_merge: vec![Step {
                ops: vec![MicroOp::Alu {
                    au: 0,
                    op: AluOp::Sub,
                    a: Src::Const(1.0),
                    b: Src::Const(1.0),
                    dst: 2,
                }],
            }],
        };
        assert_eq!(p.per_tuple_cycles(), 3); // 1 + 2
        assert_eq!(p.post_merge_cycles(), 1);
        assert_eq!(p.micro_ops(), 3);
        assert!(p.listing().contains("per-tuple"));
    }
}
