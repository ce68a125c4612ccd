//! The static scheduler: hDFG sub-nodes → AU/AC micro-instruction schedule.
//!
//! "The compiler schedules, maps, and generates the micro-instructions for
//! both ACs and AUs for each sub-node in the hDFG. ... Elementary and
//! non-linear operation nodes are spread across as many AUs as required by
//! the dimensionality of the operation. ... Group operations exhibit data
//! dependencies, hence, they are mapped to minimize the communication
//! cost." (§6.2)
//!
//! Mapping strategy:
//!
//! * every value element `e` of every node lives at AU `e mod AUs` — so
//!   aligned elementwise operands are cluster-local for free;
//! * scalar (and shape-broadcast) operands that cross cluster boundaries
//!   are staged with explicit `Mov` transfers on the inter-AC bus, cached
//!   per (source, cluster) so repeated consumers pay once (slots are
//!   static-single-assignment within the per-tuple program, so staged
//!   copies stay valid);
//! * reductions run in two phases: parallel per-AU chains (all AUs busy
//!   every cycle), then a cluster-aware pairwise tree with bus-limited
//!   cross-cluster hops — the communication-minimizing mapping the paper
//!   prescribes for group operations;
//! * `meta` constants fold into immediate operands; constant subexpressions
//!   fold at compile time.

use std::collections::HashMap;

use dana_dsl::{BinOp, DataKind, Fold, FoldOrder, GroupOp, UnaryFn, VarId};
use dana_engine::engine::ModelDesc;
use dana_engine::{
    AluOp, ConvergenceCheck, EngineDesign, EngineProgram, Loc, MergePlan, MicroOp, ModelWrite, Src,
    Step, AUS_PER_AC,
};
use dana_hdfg::{HNode, HOp, Hdfg, NodeId, Region};

use crate::error::{CompilerError, CompilerResult};

/// Architecture parameters chosen by the hardware generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleParams {
    pub num_threads: u16,
    pub acs_per_thread: u16,
    pub slots_per_au: u16,
    /// Distinct cross-cluster sources the inter-AC bus carries per step.
    pub bus_lanes: u16,
}

impl ScheduleParams {
    pub fn aus(&self) -> u16 {
        self.acs_per_thread * AUS_PER_AC
    }
}

/// Where a node's value lives.
#[derive(Debug, Clone)]
enum Binding {
    /// One scratchpad location per element.
    Locs(Vec<Loc>),
    /// Compile-time constants (meta variables, folded subexpressions).
    Consts(Vec<f32>),
    /// A row-indexed model in model memory (LRMF).
    ModelRef(u8),
}

struct Sched<'a> {
    g: &'a Hdfg,
    p: ScheduleParams,
    slot_next: Vec<u16>,
    bind: HashMap<NodeId, Binding>,
    per_tuple: Vec<Step>,
    post_merge: Vec<Step>,
    /// (source loc, destination cluster) → staged copy. Cleared at the
    /// region boundary: copies made pre-merge hold un-merged values and
    /// must not satisfy post-merge reads.
    stage_cache: HashMap<(Loc, u16), Loc>,
    cur_region: Region,
    input_slots: Vec<Loc>,
    output_slots: Vec<Loc>,
    models: Vec<ModelDesc>,
    model_of_var: HashMap<VarId, u8>,
    /// The fold order of each group node emitted so far.
    folds: Vec<Vec<Fold>>,
}

/// Schedules `g` onto the fabric described by `p`, producing a complete
/// [`EngineDesign`] and the order its reductions fold in (what a DSL-level
/// interpreter folds in to reproduce them).
pub fn schedule_hdfg(g: &Hdfg, p: ScheduleParams) -> CompilerResult<(EngineDesign, FoldOrder)> {
    assert!(p.num_threads >= 1 && p.acs_per_thread >= 1);
    let mut s = Sched {
        g,
        p,
        slot_next: vec![0; p.aus() as usize],
        bind: HashMap::new(),
        per_tuple: Vec::new(),
        post_merge: Vec::new(),
        stage_cache: HashMap::new(),
        cur_region: Region::PerTuple,
        input_slots: Vec::new(),
        output_slots: Vec::new(),
        models: Vec::new(),
        model_of_var: HashMap::new(),
        folds: Vec::new(),
    };
    s.allocate_leaves()?;
    for node in &g.nodes {
        if matches!(node.op, HOp::Leaf { .. }) {
            continue;
        }
        if node.region != s.cur_region {
            s.stage_cache.clear();
            s.cur_region = node.region;
        }
        s.emit_node(node)?;
    }
    s.finish()
}

impl<'a> Sched<'a> {
    fn aus(&self) -> u16 {
        self.p.aus()
    }

    fn alloc_slot(&mut self, au: u16) -> CompilerResult<u16> {
        let next = self.slot_next[au as usize];
        if next >= self.p.slots_per_au {
            return Err(CompilerError::OutOfSlots {
                au,
                slots: self.p.slots_per_au,
            });
        }
        self.slot_next[au as usize] = next + 1;
        Ok(next)
    }

    /// Allocates `n` elements round-robin across AUs.
    fn alloc_vec(&mut self, n: usize) -> CompilerResult<Vec<Loc>> {
        let aus = self.aus();
        (0..n)
            .map(|e| {
                let au = (e % aus as usize) as u16;
                Ok(Loc::new(au, self.alloc_slot(au)?))
            })
            .collect()
    }

    /// True if `var`'s leaf is consumed only by `Gather` nodes (and model
    /// bindings) — the row-indexed model class.
    fn classify_models(&self) -> CompilerResult<HashMap<VarId, bool>> {
        let mut leaf_of: HashMap<VarId, NodeId> = HashMap::new();
        for n in &self.g.nodes {
            if let HOp::Leaf {
                var,
                kind: DataKind::Model,
            } = n.op
            {
                leaf_of.insert(var, n.id);
            }
        }
        let mut indexed: HashMap<VarId, bool> = HashMap::new();
        for (var, leaf) in &leaf_of {
            let mut gathered = false;
            let mut elementwise = false;
            for n in &self.g.nodes {
                if !n.inputs.contains(leaf) {
                    continue;
                }
                match n.op {
                    HOp::Gather if n.inputs.first() == Some(leaf) => gathered = true,
                    _ => elementwise = true,
                }
            }
            if gathered && elementwise {
                let name = &self.g.node(*leaf).name;
                return Err(CompilerError::MixedModelUse(name.clone()));
            }
            indexed.insert(*var, gathered);
        }
        Ok(indexed)
    }

    fn allocate_leaves(&mut self) -> CompilerResult<()> {
        let indexed = self.classify_models()?;
        // Iterate nodes in order: translate() emitted leaves in declaration
        // order, which fixes the tuple-value layout (inputs then outputs).
        let leaves: Vec<HNode> = self
            .g
            .nodes
            .iter()
            .filter(|n| matches!(n.op, HOp::Leaf { .. }))
            .cloned()
            .collect();
        for node in leaves {
            let HOp::Leaf { var, kind } = node.op else {
                unreachable!()
            };
            match kind {
                DataKind::Input => {
                    let locs = self.alloc_vec(node.dims.elements())?;
                    self.input_slots.extend(locs.iter().copied());
                    self.bind.insert(node.id, Binding::Locs(locs));
                }
                DataKind::Output => {
                    let locs = self.alloc_vec(node.dims.elements())?;
                    self.output_slots.extend(locs.iter().copied());
                    self.bind.insert(node.id, Binding::Locs(locs));
                }
                DataKind::Meta => {
                    let values = self.meta_values(var).ok_or_else(|| {
                        CompilerError::Unsupported(format!("meta '{}' has no value", node.name))
                    })?;
                    self.bind.insert(node.id, Binding::Consts(values));
                }
                DataKind::Model => {
                    let idx = self.models.len() as u8;
                    if indexed.get(&var).copied().unwrap_or(false) {
                        if node.dims.rank() != 2 {
                            return Err(CompilerError::BadIndexedModel(node.name.clone()));
                        }
                        self.models.push(ModelDesc {
                            name: node.name.clone(),
                            rows: node.dims.0[0],
                            cols: node.dims.0[1],
                            broadcast_slots: None,
                        });
                        self.bind.insert(node.id, Binding::ModelRef(idx));
                    } else {
                        let n = node.dims.elements();
                        let locs = self.alloc_vec(n)?;
                        self.models.push(ModelDesc {
                            name: node.name.clone(),
                            rows: 1,
                            cols: n,
                            broadcast_slots: Some(locs.clone()),
                        });
                        self.bind.insert(node.id, Binding::Locs(locs));
                    }
                    self.model_of_var.insert(var, idx);
                }
                DataKind::Inter => unreachable!("inter vars are not leaves"),
            }
        }
        Ok(())
    }

    fn meta_values(&self, var: VarId) -> Option<Vec<f32>> {
        // The hDFG does not carry meta contents; they ride on the leaf name
        // lookup into the spec — which the Hdfg intentionally drops. The
        // translator stores them in the leaf's `HOp::Leaf` var id; contents
        // come from the spec, so `Hdfg` keeps them in `meta_contents`.
        self.g.meta_contents(var)
    }

    // ----- operand resolution -------------------------------------------

    fn binding(&self, id: NodeId) -> &Binding {
        &self.bind[&id]
    }

    /// Maps an output element index to the operand's element index under
    /// the DSL broadcast rules.
    fn operand_index(
        out_dims: &dana_dsl::Dims,
        opnd_dims: &dana_dsl::Dims,
        e: usize,
        left: bool,
    ) -> usize {
        if opnd_dims.is_scalar() {
            return 0;
        }
        if opnd_dims == out_dims {
            return e;
        }
        // Trailing-suffix replication.
        if opnd_dims.rank() < out_dims.rank() && out_dims.0.ends_with(&opnd_dims.0) {
            return e % opnd_dims.elements();
        }
        // Outer pairing [A][K] ⊗ [B][K] → [A][B][K].
        if out_dims.rank() == 3 && opnd_dims.rank() == 2 {
            let (b, k) = (out_dims.0[1], out_dims.0[2]);
            let i = e / (b * k);
            let j = (e / k) % b;
            let l = e % k;
            return if left { i * k + l } else { j * k + l };
        }
        debug_assert!(false, "unreachable broadcast shape");
        e
    }

    // ----- step emission helpers ----------------------------------------

    fn steps_mut(&mut self, region: Region) -> &mut Vec<Step> {
        match region {
            Region::PerTuple => &mut self.per_tuple,
            Region::PostMerge => &mut self.post_merge,
        }
    }

    /// Ensures `src` is readable from cluster `ac`; returns the usable Src.
    /// Queues a staged Mov into `movs` when a bus transfer is needed.
    fn localize(&mut self, src: Src, ac: u16, movs: &mut Vec<(Loc, Loc)>) -> CompilerResult<Src> {
        let Src::Slot(l) = src else { return Ok(src) };
        if l.ac() == ac {
            return Ok(src);
        }
        if let Some(copy) = self.stage_cache.get(&(l, ac)) {
            return Ok(Src::Slot(*copy));
        }
        // Stage into the cluster's first AU (any AU of the cluster works;
        // intra-cluster reads are free).
        let au = ac * AUS_PER_AC;
        let slot = self.alloc_slot(au)?;
        let copy = Loc::new(au, slot);
        movs.push((l, copy));
        self.stage_cache.insert((l, ac), copy);
        Ok(Src::Slot(copy))
    }

    /// Emits queued Mov transfers as steps: per step, distinct sources ≤
    /// bus lanes and distinct destination AUs.
    fn flush_movs(&mut self, region: Region, movs: Vec<(Loc, Loc)>) {
        if movs.is_empty() {
            return;
        }
        let lanes = self.p.bus_lanes as usize;
        let mut pending = movs;
        while !pending.is_empty() {
            let mut step = Step::default();
            let mut used_aus: Vec<u16> = Vec::new();
            let mut sources: Vec<Loc> = Vec::new();
            let mut rest = Vec::new();
            for (src, dst) in pending {
                let new_source = !sources.contains(&src);
                if used_aus.contains(&dst.au) || (new_source && sources.len() >= lanes) {
                    rest.push((src, dst));
                    continue;
                }
                if new_source {
                    sources.push(src);
                }
                used_aus.push(dst.au);
                step.ops.push(MicroOp::Alu {
                    au: dst.au,
                    op: AluOp::Mov,
                    a: Src::Slot(src),
                    b: Src::Const(0.0),
                    dst: dst.slot,
                });
            }
            self.steps_mut(region).push(step);
            pending = rest;
        }
    }

    /// Emits an elementwise operation over `out` with operand resolvers.
    fn emit_map(
        &mut self,
        region: Region,
        op: AluOp,
        out: &[Loc],
        a_src: &dyn Fn(usize) -> Src,
        b_src: &dyn Fn(usize) -> Src,
    ) -> CompilerResult<()> {
        let aus = self.aus() as usize;
        let n = out.len();
        let mut e0 = 0;
        while e0 < n {
            let wave = &out[e0..(e0 + aus).min(n)];
            let mut movs = Vec::new();
            let mut resolved: Vec<(u16, Src, Src, u16)> = Vec::with_capacity(wave.len());
            for (k, loc) in wave.iter().enumerate() {
                let e = e0 + k;
                let a = self.localize(a_src(e), loc.ac(), &mut movs)?;
                let b = self.localize(b_src(e), loc.ac(), &mut movs)?;
                resolved.push((loc.au, a, b, loc.slot));
            }
            self.flush_movs(region, movs);
            let step = Step {
                ops: resolved
                    .into_iter()
                    .map(|(au, a, b, dst)| MicroOp::Alu { au, op, a, b, dst })
                    .collect(),
            };
            self.steps_mut(region).push(step);
            e0 += aus;
        }
        Ok(())
    }

    /// Two-phase reduction of `srcs` with `op` (Add or Mul) into `dst`.
    /// Returns the order it folds them in: a chain per AU in operand
    /// order, then a pairwise tree over the chains sorted by AU, an odd
    /// one carried up a level.
    fn emit_reduce(
        &mut self,
        region: Region,
        op: AluOp,
        srcs: &[Loc],
        dst: Loc,
    ) -> CompilerResult<Fold> {
        // Each AU's operands, by position in `srcs`.
        let mut by_au: HashMap<u16, Vec<usize>> = HashMap::new();
        for (k, l) in srcs.iter().enumerate() {
            by_au.entry(l.au).or_default().push(k);
        }
        // Phase 1: per-AU chains, all AUs advancing one op per step.
        let mut partials: Vec<(Loc, Fold)> = Vec::new();
        let mut chains: Vec<(u16, Vec<usize>, Loc)> = Vec::new(); // (au, elems, acc)
        for (au, elems) in by_au {
            if let [k] = elems[..] {
                partials.push((srcs[k], Fold::Operand(k)));
            } else {
                let acc = Loc::new(au, self.alloc_slot(au)?);
                chains.push((au, elems, acc));
            }
        }
        chains.sort_by_key(|(au, _, _)| *au);
        let max_len = chains.iter().map(|(_, e, _)| e.len()).max().unwrap_or(0);
        for round in 1..max_len {
            let mut step = Step::default();
            for (au, elems, acc) in &chains {
                if round < elems.len() {
                    let a = if round == 1 {
                        Src::Slot(srcs[elems[0]])
                    } else {
                        Src::Slot(*acc)
                    };
                    step.ops.push(MicroOp::Alu {
                        au: *au,
                        op,
                        a,
                        b: Src::Slot(srcs[elems[round]]),
                        dst: acc.slot,
                    });
                }
            }
            if !step.ops.is_empty() {
                self.steps_mut(region).push(step);
            }
        }
        partials.extend(chains.into_iter().map(|(_, elems, acc)| {
            let mut chain = elems.into_iter().map(Fold::Operand);
            let first = chain.next().expect("a chain has elements");
            (acc, chain.fold(first, Fold::join))
        }));
        partials.sort_by_key(|(l, _)| l.au);
        // Phase 2: cluster-aware pairwise tree.
        while partials.len() > 1 {
            let mut movs = Vec::new();
            let mut pairs: Vec<(Loc, Src, Fold)> = Vec::new(); // (left, right src, fold)
            let mut next: Vec<(Loc, Fold)> = Vec::new();
            let mut level = partials.into_iter();
            while let Some((x, fx)) = level.next() {
                match level.next() {
                    None => next.push((x, fx)),
                    Some((y, fy)) => {
                        let rsrc = self.localize(Src::Slot(y), x.ac(), &mut movs)?;
                        pairs.push((x, rsrc, fx.join(fy)));
                    }
                }
            }
            self.flush_movs(region, movs);
            let mut step = Step::default();
            for (x, rsrc, fold) in pairs {
                let out = Loc::new(x.au, self.alloc_slot(x.au)?);
                step.ops.push(MicroOp::Alu {
                    au: x.au,
                    op,
                    a: Src::Slot(x),
                    b: rsrc,
                    dst: out.slot,
                });
                next.push((out, fold));
            }
            self.steps_mut(region).push(step);
            next.sort_by_key(|(l, _)| l.au);
            partials = next;
        }
        // Land the result at `dst`.
        let (p, fold) = partials.pop().expect("a reduction has operands");
        let mut movs = Vec::new();
        let psrc = self.localize(Src::Slot(p), dst.ac(), &mut movs)?;
        self.flush_movs(region, movs);
        self.steps_mut(region).push(Step {
            ops: vec![MicroOp::Alu {
                au: dst.au,
                op: AluOp::Mov,
                a: psrc,
                b: Src::Const(0.0),
                dst: dst.slot,
            }],
        });
        Ok(fold)
    }

    // ----- node emission --------------------------------------------------

    fn emit_node(&mut self, node: &HNode) -> CompilerResult<()> {
        match &node.op {
            HOp::Leaf { .. } => unreachable!(),
            HOp::Identity => {
                let b = self.binding(node.inputs[0]).clone();
                self.bind.insert(node.id, b);
                Ok(())
            }
            HOp::Const(c) => {
                self.bind.insert(node.id, Binding::Consts(vec![*c as f32]));
                Ok(())
            }
            HOp::Merge(_) => {
                // The merged value occupies the same locations; the engine's
                // tree bus combines thread copies in place (into thread 0).
                let b = self.binding(node.inputs[0]).clone();
                self.bind.insert(node.id, b);
                Ok(())
            }
            HOp::Binary(b) => self.emit_binary(node, *b),
            HOp::Unary(u) => self.emit_unary(node, *u),
            HOp::Group(g, axis) => self.emit_group(node, *g, *axis),
            HOp::Gather => self.emit_gather(node),
        }
    }

    fn alu_of_bin(b: BinOp) -> AluOp {
        match b {
            BinOp::Add => AluOp::Add,
            BinOp::Sub => AluOp::Sub,
            BinOp::Mul => AluOp::Mul,
            BinOp::Div => AluOp::Div,
            BinOp::Gt => AluOp::Gt,
            BinOp::Lt => AluOp::Lt,
        }
    }

    fn alu_of_un(u: UnaryFn) -> AluOp {
        match u {
            UnaryFn::Sigmoid => AluOp::Sigmoid,
            UnaryFn::Gaussian => AluOp::Gaussian,
            UnaryFn::Sqrt => AluOp::Sqrt,
        }
    }

    fn emit_binary(&mut self, node: &HNode, b: BinOp) -> CompilerResult<()> {
        let op = Self::alu_of_bin(b);
        let a_id = node.inputs[0];
        let b_id = node.inputs[1];
        let a_dims = self.g.node(a_id).dims.clone();
        let b_dims = self.g.node(b_id).dims.clone();
        let a_bind = self.binding(a_id).clone();
        let b_bind = self.binding(b_id).clone();
        // Constant folding when both operands are compile-time constants.
        if let (Binding::Consts(av), Binding::Consts(bv)) = (&a_bind, &b_bind) {
            let n = node.dims.elements();
            let folded: Vec<f32> = (0..n)
                .map(|e| {
                    let ai = Self::operand_index(&node.dims, &a_dims, e, true);
                    let bi = Self::operand_index(&node.dims, &b_dims, e, false);
                    op.apply(av[ai], bv[bi])
                })
                .collect();
            self.bind.insert(node.id, Binding::Consts(folded));
            return Ok(());
        }
        let out = self.alloc_vec(node.dims.elements())?;
        let out_dims = node.dims.clone();
        let a_src = make_resolver(&a_bind, &out_dims, &a_dims, true)?;
        let b_src = make_resolver(&b_bind, &out_dims, &b_dims, false)?;
        self.emit_map(node.region, op, &out, &a_src, &b_src)?;
        self.bind.insert(node.id, Binding::Locs(out));
        Ok(())
    }

    fn emit_unary(&mut self, node: &HNode, u: UnaryFn) -> CompilerResult<()> {
        let op = Self::alu_of_un(u);
        let a_id = node.inputs[0];
        let a_dims = self.g.node(a_id).dims.clone();
        let a_bind = self.binding(a_id).clone();
        if let Binding::Consts(av) = &a_bind {
            let folded: Vec<f32> = av.iter().map(|v| op.apply(*v, 0.0)).collect();
            self.bind.insert(node.id, Binding::Consts(folded));
            return Ok(());
        }
        let out = self.alloc_vec(node.dims.elements())?;
        let out_dims = node.dims.clone();
        let a_src = make_resolver(&a_bind, &out_dims, &a_dims, true)?;
        self.emit_map(node.region, op, &out, &a_src, &|_| Src::Const(0.0))?;
        self.bind.insert(node.id, Binding::Locs(out));
        Ok(())
    }

    fn emit_group(&mut self, node: &HNode, g: GroupOp, axis: usize) -> CompilerResult<()> {
        // Every group gets an entry in the fold order, in program order; a
        // constant one folds below, in f64, and records no folds.
        self.folds.push(Vec::new());
        let a_id = node.inputs[0];
        let in_dims = self.g.node(a_id).dims.clone();
        let a_bind = self.binding(a_id).clone();
        let out_n = node.dims.elements();
        // Input element indices feeding each output element.
        let extent = if in_dims.is_scalar() {
            1
        } else {
            in_dims.0[in_dims.rank() - axis]
        };
        let groups: Vec<Vec<usize>> = (0..out_n)
            .map(|oe| reduction_sources(&in_dims, axis, extent, oe))
            .collect();
        // Constant input → fold.
        if let Binding::Consts(av) = &a_bind {
            let folded: Vec<f32> = groups
                .iter()
                .map(|g_idx| {
                    let vals = g_idx.iter().map(|i| av[*i] as f64);
                    match g {
                        GroupOp::Sigma => vals.sum::<f64>() as f32,
                        GroupOp::Pi => vals.product::<f64>() as f32,
                        GroupOp::Norm => (vals.map(|v| v * v).sum::<f64>()).sqrt() as f32,
                    }
                })
                .collect();
            self.bind.insert(node.id, Binding::Consts(folded));
            return Ok(());
        }
        let Binding::Locs(a_locs) = &a_bind else {
            return Err(CompilerError::Unsupported(
                "group over a model reference".into(),
            ));
        };
        let out = self.alloc_vec(out_n)?;
        let region = node.region;
        for (oe, group) in groups.iter().enumerate() {
            let srcs: Vec<Loc> = group.iter().map(|i| a_locs[*i]).collect();
            let dst = out[oe];
            let fold = match g {
                GroupOp::Sigma => self.emit_reduce(region, AluOp::Add, &srcs, dst)?,
                GroupOp::Pi => self.emit_reduce(region, AluOp::Mul, &srcs, dst)?,
                GroupOp::Norm => {
                    // squares into scratch, sum, sqrt.
                    let sq: Vec<Loc> = self.alloc_vec(srcs.len())?;
                    self.emit_map(region, AluOp::Mul, &sq, &|k| Src::Slot(srcs[k]), &|k| {
                        Src::Slot(srcs[k])
                    })?;
                    let sum = Loc::new(dst.au, self.alloc_slot(dst.au)?);
                    let fold = self.emit_reduce(region, AluOp::Add, &sq, sum)?;
                    self.steps_mut(region).push(Step {
                        ops: vec![MicroOp::Alu {
                            au: dst.au,
                            op: AluOp::Sqrt,
                            a: Src::Slot(sum),
                            b: Src::Const(0.0),
                            dst: dst.slot,
                        }],
                    });
                    fold
                }
            };
            self.folds.last_mut().expect("pushed above").push(fold);
        }
        self.bind.insert(node.id, Binding::Locs(out));
        Ok(())
    }

    fn emit_gather(&mut self, node: &HNode) -> CompilerResult<()> {
        let model_bind = self.binding(node.inputs[0]).clone();
        let Binding::ModelRef(model) = model_bind else {
            return Err(CompilerError::Unsupported(
                "gather target is not a row-indexed model".into(),
            ));
        };
        let idx_bind = self.binding(node.inputs[1]).clone();
        let index = match idx_bind {
            Binding::Locs(l) => Src::Slot(l[0]),
            Binding::Consts(c) => Src::Const(c[0]),
            Binding::ModelRef(_) => {
                return Err(CompilerError::Unsupported("gather index is a model".into()))
            }
        };
        let out = self.alloc_vec(node.dims.elements())?;
        let region = node.region;
        self.steps_mut(region).push(Step {
            ops: vec![MicroOp::Gather {
                model,
                index,
                dst: out.clone(),
            }],
        });
        self.bind.insert(node.id, Binding::Locs(out));
        Ok(())
    }

    // ----- assembly --------------------------------------------------------

    fn finish(self) -> CompilerResult<(EngineDesign, FoldOrder)> {
        // Merge plan: whole-model algorithms combine the merge variable on
        // the tree bus; row-update (LRMF) designs scatter per thread.
        let has_whole = self
            .g
            .model_bindings
            .iter()
            .any(|b| matches!(b, dana_hdfg::graph::ModelBinding::Whole { .. }));
        let merge = match (&self.g.merge, has_whole) {
            (Some(mi), true) => {
                let Binding::Locs(slots) = self.binding(self.g.node(mi.node).inputs[0]).clone()
                else {
                    return Err(CompilerError::Unsupported(
                        "merge variable is not in slots".into(),
                    ));
                };
                MergePlan::Whole { op: mi.op, slots }
            }
            _ => MergePlan::None,
        };
        if matches!(merge, MergePlan::None) && has_whole && self.p.num_threads > 1 {
            return Err(CompilerError::Unsupported(
                "whole-model update without a merge function cannot run multi-threaded".into(),
            ));
        }
        // Model write-backs.
        let mut model_writes = Vec::new();
        for b in &self.g.model_bindings {
            match b {
                dana_hdfg::graph::ModelBinding::Whole { model, source } => {
                    let Binding::Locs(src) = self.binding(*source).clone() else {
                        return Err(CompilerError::Unsupported(
                            "model update source not in slots".into(),
                        ));
                    };
                    model_writes.push(ModelWrite::Whole {
                        model: self.model_of_var[model],
                        src,
                    });
                }
                dana_hdfg::graph::ModelBinding::Row {
                    model,
                    index,
                    source,
                } => {
                    let Binding::Locs(src) = self.binding(*source).clone() else {
                        return Err(CompilerError::Unsupported(
                            "row update source not in slots".into(),
                        ));
                    };
                    let Binding::Locs(idx) = self.binding(*index).clone() else {
                        return Err(CompilerError::Unsupported("row index not in slots".into()));
                    };
                    model_writes.push(ModelWrite::Row {
                        model: self.model_of_var[model],
                        index: idx[0],
                        src,
                    });
                }
            }
        }
        // Convergence.
        let convergence = match &self.g.convergence {
            dana_hdfg::graph::ConvergenceBinding::Epochs(n) => ConvergenceCheck::Epochs(*n),
            dana_hdfg::graph::ConvergenceBinding::Condition { node, max_epochs } => {
                let Binding::Locs(l) = self.binding(*node).clone() else {
                    return Err(CompilerError::Unsupported(
                        "convergence condition not in slots".into(),
                    ));
                };
                ConvergenceCheck::Condition {
                    slot: l[0],
                    max_epochs: *max_epochs,
                }
            }
        };
        // Meta preloads: scalar metas folded to constants need no slots;
        // nothing else to preload in this scheme.
        let slots_used = self.slot_next.iter().copied().max().unwrap_or(0);
        let design = EngineDesign {
            num_threads: self.p.num_threads,
            acs_per_thread: self.p.acs_per_thread,
            slots_per_au: slots_used.max(1),
            bus_lanes: self.p.bus_lanes,
            program: EngineProgram {
                per_tuple: self.per_tuple,
                post_merge: self.post_merge,
            },
            input_slots: self.input_slots,
            output_slots: self.output_slots,
            meta: Vec::new(),
            models: self.models,
            merge,
            model_writes,
            convergence,
        };
        Ok((design, FoldOrder { groups: self.folds }))
    }
}

/// Builds a closure resolving output element `e` to the operand's `Src`.
fn make_resolver(
    bind: &Binding,
    out_dims: &dana_dsl::Dims,
    opnd_dims: &dana_dsl::Dims,
    left: bool,
) -> CompilerResult<Box<dyn Fn(usize) -> Src>> {
    let out_dims = out_dims.clone();
    let opnd_dims = opnd_dims.clone();
    match bind {
        Binding::Locs(locs) => {
            let locs = locs.clone();
            Ok(Box::new(move |e| {
                Src::Slot(locs[Sched::operand_index(&out_dims, &opnd_dims, e, left)])
            }))
        }
        Binding::Consts(vals) => {
            let vals = vals.clone();
            Ok(Box::new(move |e| {
                Src::Const(vals[Sched::operand_index(&out_dims, &opnd_dims, e, left)])
            }))
        }
        Binding::ModelRef(_) => Err(CompilerError::Unsupported(
            "row-indexed model used elementwise".into(),
        )),
    }
}

/// Input element indices reduced into output element `oe` for a group op
/// over `axis` (1-based from the right) of `in_dims`.
fn reduction_sources(
    in_dims: &dana_dsl::Dims,
    axis: usize,
    extent: usize,
    oe: usize,
) -> Vec<usize> {
    if in_dims.is_scalar() {
        return vec![0];
    }
    let rank = in_dims.rank();
    let red = rank - axis; // axis position from the left
                           // Decompose oe over the output dims (input dims minus `red`).
    let mut out_shape: Vec<usize> = in_dims.0.clone();
    out_shape.remove(red);
    let mut coords = vec![0usize; out_shape.len()];
    let mut rem = oe;
    for (i, d) in out_shape.iter().enumerate().rev() {
        coords[i] = rem % d;
        rem /= d;
    }
    // Insert the reduced coordinate and flatten per input strides.
    let mut strides = vec![1usize; rank];
    for i in (0..rank - 1).rev() {
        strides[i] = strides[i + 1] * in_dims.0[i + 1];
    }
    (0..extent)
        .map(|k| {
            let mut idx = 0usize;
            let mut ci = 0usize;
            for (i, stride) in strides.iter().enumerate() {
                let c = if i == red {
                    k
                } else {
                    let c = coords[ci];
                    ci += 1;
                    c
                };
                idx += c * stride;
            }
            idx
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dana_dsl::zoo::{
        linear_regression, logistic_regression, lrmf, svm, DenseParams, LrmfParams,
    };
    use dana_dsl::Dims;
    use dana_engine::{ExecutionEngine, ModelStore};
    use dana_hdfg::translate;

    fn params(threads: u16, acs: u16) -> ScheduleParams {
        ScheduleParams {
            num_threads: threads,
            acs_per_thread: acs,
            slots_per_au: 4096,
            bus_lanes: 1,
        }
    }

    fn schedule_zoo(spec: &dana_dsl::AlgoSpec, threads: u16, acs: u16) -> EngineDesign {
        let g = translate(spec);
        schedule_hdfg(&g, params(threads, acs)).unwrap().0
    }

    #[test]
    fn linreg_design_is_engine_valid() {
        let spec = linear_regression(DenseParams {
            n_features: 10,
            ..Default::default()
        })
        .unwrap();
        let design = schedule_zoo(&spec, 4, 1);
        ExecutionEngine::new(design).expect("engine accepts scheduled design");
    }

    #[test]
    fn all_zoo_specs_schedule_and_validate() {
        for spec in [
            linear_regression(DenseParams {
                n_features: 20,
                ..Default::default()
            })
            .unwrap(),
            logistic_regression(DenseParams {
                n_features: 20,
                ..Default::default()
            })
            .unwrap(),
            svm(DenseParams {
                n_features: 20,
                ..Default::default()
            })
            .unwrap(),
            lrmf(LrmfParams::default()).unwrap(),
        ] {
            for (threads, acs) in [(1u16, 1u16), (2, 1), (4, 2), (8, 2)] {
                let design = schedule_zoo(&spec, threads, acs);
                ExecutionEngine::new(design)
                    .unwrap_or_else(|e| panic!("{} t={threads} acs={acs}: {e}", spec.name));
            }
        }
    }

    #[test]
    fn trained_linreg_matches_reference() {
        // End-to-end: DSL → hDFG → schedule → engine vs. hand-rolled SGD.
        let n = 6usize;
        let spec = linear_regression(DenseParams {
            n_features: n,
            learning_rate: 0.2,
            merge_coef: 4,
            epochs: 10,
        })
        .unwrap();
        let design = schedule_zoo(&spec, 4, 1);
        let engine = ExecutionEngine::new(design.clone()).unwrap();
        // Synthetic tuples from a known model.
        let truth: Vec<f32> = (0..n).map(|i| 0.5 * (i as f32) - 1.0).collect();
        let tuples: Vec<Vec<f32>> = (0..64)
            .map(|k| {
                let x: Vec<f32> = (0..n)
                    .map(|i| (((k * 7 + i * 3) % 11) as f32 - 5.0) / 5.0)
                    .collect();
                let y: f32 = x.iter().zip(&truth).map(|(a, b)| a * b).sum();
                let mut t = x;
                t.push(y);
                t
            })
            .collect();
        let mut store = ModelStore::new(&design, vec![vec![0.0; n]]).unwrap();
        let batch = dana_storage::TupleBatch::from_rows(n + 1, &tuples);
        engine.run_training_batch(&batch, &mut store).unwrap();

        // Reference: batched GD, batch 4, lr 0.2/4, 10 epochs.
        let mut w = vec![0.0f32; n];
        for _ in 0..10 {
            for batch in tuples.chunks(4) {
                let mut g = vec![0.0f32; n];
                for t in batch {
                    let s: f32 = w.iter().zip(&t[..n]).map(|(a, b)| a * b).sum();
                    let er = s - t[n];
                    for i in 0..n {
                        g[i] += er * t[i];
                    }
                }
                for i in 0..n {
                    w[i] -= 0.05 * g[i];
                }
            }
        }
        let got = store.model(0);
        for i in 0..n {
            assert!(
                (got[i] - w[i]).abs() < 1e-3,
                "element {i}: engine {} vs reference {}",
                got[i],
                w[i]
            );
        }
    }

    #[test]
    fn fold_order_records_au_chains_then_the_au_sorted_tree() {
        let op = Fold::Operand;
        let order_for = |n_features| {
            let spec = linear_regression(DenseParams {
                n_features,
                ..Default::default()
            })
            .unwrap();
            schedule_hdfg(&translate(&spec), params(1, 1)).unwrap().1
        };
        // 20 operands on 8 AUs: AU a chains a, a + 8, a + 16 in order, and
        // the eight chains join pairwise by AU, 8 → 4 → 2 → 1.
        let chain = |a: usize| {
            let mut ks = (a..20).step_by(8).map(op);
            let first = ks.next().unwrap();
            ks.fold(first, Fold::join)
        };
        let pair = |a: usize| chain(a).join(chain(a + 1));
        let quad = |a: usize| pair(a).join(pair(a + 2));
        assert_eq!(order_for(20).groups, vec![vec![quad(0).join(quad(4))]]);
        // Five single operands: the odd one is carried up each level.
        let five = op(0).join(op(1)).join(op(2).join(op(3))).join(op(4));
        assert_eq!(order_for(5).groups, vec![vec![five]]);
    }

    #[test]
    fn wide_models_span_multiple_clusters() {
        let spec = linear_regression(DenseParams {
            n_features: 64,
            ..Default::default()
        })
        .unwrap();
        let design = schedule_zoo(&spec, 2, 4); // 32 AUs per thread
        let engine = ExecutionEngine::new(design.clone()).unwrap();
        // Per-tuple work must spread across all 4 clusters.
        let mut acs_used: Vec<u16> = design
            .program
            .per_tuple
            .iter()
            .flat_map(|s| s.ops.iter().flat_map(|o| o.occupied_aus()))
            .map(|au| au / AUS_PER_AC)
            .collect();
        acs_used.sort_unstable();
        acs_used.dedup();
        assert_eq!(acs_used.len(), 4);
        let _ = engine;
    }

    #[test]
    fn more_acs_fewer_per_tuple_cycles() {
        let spec = linear_regression(DenseParams {
            n_features: 128,
            ..Default::default()
        })
        .unwrap();
        let one = schedule_zoo(&spec, 1, 1).program.per_tuple_cycles();
        let four = schedule_zoo(&spec, 1, 4).program.per_tuple_cycles();
        let sixteen = schedule_zoo(&spec, 1, 16).program.per_tuple_cycles();
        assert!(four < one, "4 ACs {four} !< 1 AC {one}");
        // Scaling saturates: the dot-product reduction becomes inter-AC-bus
        // bound, so 16 ACs need not beat 4 (the Fig. 12 saturation effect) —
        // but they must still beat a single cluster.
        assert!(sixteen < one, "16 ACs {sixteen} !< 1 AC {one}");
    }

    #[test]
    fn meta_constants_fold_into_immediates() {
        let spec = linear_regression(DenseParams {
            n_features: 4,
            ..Default::default()
        })
        .unwrap();
        let design = schedule_zoo(&spec, 1, 1);
        // No meta preloads: lr folded into Const operands.
        assert!(design.meta.is_empty());
        let has_const_operand = design
            .program
            .post_merge
            .iter()
            .flat_map(|s| &s.ops)
            .any(|o| matches!(o, MicroOp::Alu { a: Src::Const(c), .. } if *c != 0.0));
        assert!(has_const_operand, "lr must appear as an immediate");
    }

    #[test]
    fn lrmf_schedules_gathers_and_row_writes() {
        let spec = lrmf(LrmfParams::default()).unwrap();
        let design = schedule_zoo(&spec, 2, 1);
        let gathers = design
            .program
            .per_tuple
            .iter()
            .flat_map(|s| &s.ops)
            .filter(|o| matches!(o, MicroOp::Gather { .. }))
            .count();
        assert_eq!(gathers, 2);
        assert_eq!(design.model_writes.len(), 2);
        assert!(design
            .model_writes
            .iter()
            .all(|w| matches!(w, ModelWrite::Row { .. })));
        assert!(matches!(design.merge, MergePlan::None));
        // Both models are row-indexed: no broadcast slots.
        assert!(design.models.iter().all(|m| m.broadcast_slots.is_none()));
    }

    #[test]
    fn convergence_condition_gets_a_slot() {
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
            setConvergence(conv, 9)
        "#;
        let spec = dana_dsl::parse_udf(src, "t").unwrap();
        let design = schedule_zoo(&spec, 1, 1);
        assert!(matches!(
            design.convergence,
            ConvergenceCheck::Condition { max_epochs: 9, .. }
        ));
    }

    #[test]
    fn reduction_sources_full_vector() {
        let d = Dims::vector(6);
        let srcs = reduction_sources(&d, 1, 6, 0);
        assert_eq!(srcs, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn reduction_sources_matrix_axes() {
        let d = Dims::matrix(3, 4);
        // axis 1 (innermost): out [3]; out elem 1 ← row 1 = indices 4..8
        assert_eq!(reduction_sources(&d, 1, 4, 1), vec![4, 5, 6, 7]);
        // axis 2: out [4]; out elem 2 ← column 2 = 2, 6, 10
        assert_eq!(reduction_sources(&d, 2, 3, 2), vec![2, 6, 10]);
    }

    #[test]
    fn outer_pairing_schedules() {
        // [2][3] ⊗ [4][3] → [2][4][3] then sigma axis 1 → [2][4] (paper §4.4).
        let mut a = dana_dsl::AlgoBuilder::new("mat");
        let mo = a.model("mo", &[2, 3]);
        let x = a.input("in", &[4, 3]);
        let y = a.output_dims("out", &[2, 4]);
        let prod = a.mul(mo, x).unwrap();
        let s = a.sigma(prod, 1).unwrap();
        let er = a.sub(s, y).unwrap();
        let er2 = a.mul(er, er).unwrap();
        let red = a.sigma(er2, 1).unwrap();
        let red2 = a.sigma(red, 1).unwrap();
        let g = a.mul(mo, red2).unwrap();
        let mo_up = a.sub(mo, g).unwrap();
        a.set_model(mo, mo_up).unwrap();
        a.set_epochs(1);
        let spec = a.finish().unwrap();
        let design = schedule_zoo(&spec, 1, 2);
        ExecutionEngine::new(design).unwrap();
    }

    #[test]
    fn slots_exhaustion_reported() {
        let spec = linear_regression(DenseParams {
            n_features: 64,
            ..Default::default()
        })
        .unwrap();
        let g = translate(&spec);
        let tight = ScheduleParams {
            num_threads: 1,
            acs_per_thread: 1,
            slots_per_au: 4,
            bus_lanes: 1,
        };
        assert!(matches!(
            schedule_hdfg(&g, tight),
            Err(CompilerError::OutOfSlots { .. })
        ));
    }
}
