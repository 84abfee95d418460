//! One-time compilation of a [`GateNetlist`] into a flat levelized program.
//!
//! [`GateProgram::compile`] levelizes the netlist (a topological order of
//! its combinational cells and memory read paths) and flattens that order
//! into a dense instruction stream: one instruction per combinational cell
//! (operand net ids resolved up front, no per-eval pin walks) plus one per
//! memory read path. The program is immutable and shared: any number of
//! [`BitGateSim`] instances — including one per fault-simulation worker
//! thread — execute it concurrently.

use crate::bitpar::BitGateSim;
use crate::celllib::CellKind;
use crate::error::GateError;
use crate::netlist::{GNetId, GateNetlist};
use scflow_hwtypes::Logic;
use std::sync::{Arc, OnceLock};

/// A levelized node: a combinational cell or one memory's read path.
///
/// Shared with the pass pipeline ([`crate::passes`]), which walks the
/// same order.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Node {
    Inst(u32),
    MemRead(u32),
}

/// The shift-mode sub-program, executed instead of the full stream while
/// the `scan_en` input is known-1 in every lane.
///
/// With the scan enable at 1, an SDFF samples only its scan input, so the
/// functional cones feeding flop data pins cannot reach any state.  The
/// sub-program keeps exactly what still matters per shift cycle — the
/// scan path, the memory-port cones (writes and the checking model stay
/// live during shift) and `scan_out` — which is what makes scan-test
/// fault simulation cheap: a shift tick costs a fraction of a full sweep.
/// Nets outside those cones may go stale while shifting; the first sweep
/// with `scan_en` no longer known-1 (e.g. the capture cycle) recomputes
/// every net from scratch, so they are exact again before anything reads
/// them.
pub(crate) struct ScanMode {
    /// The `scan_en` input net.
    pub(crate) en: u32,
    /// Topologically ordered subset of the full instruction stream.
    pub(crate) instrs: Vec<Instr>,
}

/// One flat instruction of the compiled program.
///
/// Gate operands are net indices; cells with fewer than three pins repeat
/// the first operand in the unused slots (the evaluator ignores them).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Instr {
    /// Evaluate a combinational cell into `out`.
    Gate {
        /// Cell function.
        kind: CellKind,
        /// First input net.
        a: u32,
        /// Second input net (or `a`).
        b: u32,
        /// Third input net (or `a`).
        c: u32,
        /// Output net.
        out: u32,
    },
    /// Re-evaluate one memory's combinational read path.
    MemRead(u32),
}

/// A gate netlist compiled to a topologically levelized flat program.
///
/// Compile once, then instantiate simulators cheaply:
///
/// ```
/// use scflow_gate::{CellKind, GateProgram, NetlistBuilder};
/// use scflow_hwtypes::Bv;
///
/// let mut b = NetlistBuilder::new("half_adder");
/// let a = b.input_port("a", 1)[0];
/// let c = b.input_port("b", 1)[0];
/// let sum = b.cell(CellKind::Xor2, &[a, c]);
/// b.output_port("sum", &[sum]);
/// let nl = b.build();
/// let prog = GateProgram::compile(&nl).unwrap();
/// let mut sim = prog.simulator();
/// sim.set_input("a", Bv::bit(true));
/// sim.set_input("b", Bv::bit(false));
/// sim.settle();
/// assert_eq!(sim.output("sum"), Some(Bv::bit(true)));
/// ```
pub struct GateProgram {
    /// The source netlist, shared so any number of compiled programs,
    /// simulators and cache entries can hold it without a lifetime tie
    /// (the simulation service keeps programs alive in a
    /// content-addressed cache across concurrent sessions).
    pub(crate) nl: Arc<GateNetlist>,
    pub(crate) instrs: Vec<Instr>,
    /// Sequential instances (indices into `nl.instances()`), sampled at
    /// each clock edge.
    pub(crate) flops: Vec<u32>,
    /// Reduced instruction stream for scan-shift cycles, when the netlist
    /// has a scan chain.
    pub(crate) scan: Option<ScanMode>,
    /// [`GateNetlist::stable_hash`] of `nl`, computed on first use: every
    /// session open, snapshot and restore asks for it, but most compiles
    /// (fault simulation, ATPG) never do.
    hash: OnceLock<u64>,
}

impl GateProgram {
    /// Levelizes and flattens the netlist (cloned into shared ownership;
    /// use [`GateProgram::compile_shared`] to avoid the clone when the
    /// caller already holds an `Arc`).
    ///
    /// # Errors
    ///
    /// [`GateError::CombLoop`] if the combinational cells form a cycle
    /// (such netlists need the event-driven simulator's delay semantics).
    pub fn compile(nl: &GateNetlist) -> Result<Self, GateError> {
        Self::compile_shared(Arc::new(nl.clone()))
    }

    /// Levelizes and flattens a shared netlist without copying it.
    ///
    /// # Errors
    ///
    /// [`GateError::CombLoop`] as for [`GateProgram::compile`].
    pub fn compile_shared(nl: Arc<GateNetlist>) -> Result<Self, GateError> {
        let order = levelize(&nl)?;
        let mut instrs = Vec::with_capacity(order.len());
        for node in order {
            match node {
                Node::Inst(i) => {
                    let inst = &nl.instances()[i as usize];
                    let a = inst.inputs[0].0 as u32;
                    let b = inst.inputs.get(1).map_or(a, |n| n.0 as u32);
                    let c = inst.inputs.get(2).map_or(a, |n| n.0 as u32);
                    instrs.push(Instr::Gate {
                        kind: inst.kind,
                        a,
                        b,
                        c,
                        out: inst.output.0 as u32,
                    });
                }
                Node::MemRead(m) => instrs.push(Instr::MemRead(m)),
            }
        }
        let flops = nl
            .instances()
            .iter()
            .enumerate()
            .filter(|(_, i)| i.kind.is_sequential())
            .map(|(i, _)| i as u32)
            .collect();
        let scan = scan_mode(&nl, &instrs);
        Ok(GateProgram {
            nl,
            instrs,
            flops,
            scan,
            hash: OnceLock::new(),
        })
    }

    /// The netlist this program was compiled from.
    pub fn netlist(&self) -> &GateNetlist {
        &self.nl
    }

    /// A new shared handle on the source netlist.
    pub fn shared_netlist(&self) -> Arc<GateNetlist> {
        Arc::clone(&self.nl)
    }

    /// The stable content hash of the source netlist — the
    /// content-address under which a compiled-program cache may share
    /// this program (see [`GateNetlist::stable_hash`]). The netlist is
    /// hashed once, on the first call.
    pub fn content_hash(&self) -> u64 {
        *self.hash.get_or_init(|| self.nl.stable_hash())
    }

    /// Number of flat instructions (cells + memory read paths).
    pub fn instr_count(&self) -> usize {
        self.instrs.len()
    }

    /// A single-pattern simulator (lane 0 only): the drop-in configuration
    /// for cosimulation testbenches.
    pub fn simulator(&self) -> BitGateSim<'_> {
        BitGateSim::new(self, 1)
    }

    /// A simulator evaluating `lanes` independent stimulus patterns per
    /// instruction (1..=64).
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is 0 or greater than 64.
    pub fn simulator_lanes(&self, lanes: u32) -> BitGateSim<'_> {
        BitGateSim::new(self, lanes)
    }
}

/// Topologically orders the combinational cells and memory read paths.
pub(crate) fn levelize(nl: &GateNetlist) -> Result<Vec<Node>, GateError> {
    let comb: Vec<usize> = nl
        .instances()
        .iter()
        .enumerate()
        .filter(|(_, i)| !i.kind.is_sequential())
        .map(|(i, _)| i)
        .collect();
    let n_nodes = comb.len() + nl.memories().len();
    let nodes: Vec<Node> = comb
        .iter()
        .map(|&i| Node::Inst(i as u32))
        .chain((0..nl.memories().len()).map(|m| Node::MemRead(m as u32)))
        .collect();

    // Which levelized node drives each net (flop Q / const / input nets
    // have no combinational driver and act as sources).
    let mut net_driver: Vec<Option<usize>> = vec![None; nl.net_count()];
    for (node, &i) in comb.iter().enumerate() {
        net_driver[nl.instances()[i].output.0] = Some(node);
    }
    for (m, mem) in nl.memories().iter().enumerate() {
        for &d in &mem.dout {
            net_driver[d.0] = Some(comb.len() + m);
        }
    }

    let node_inputs = |node: usize| -> &[GNetId] {
        match nodes[node] {
            Node::Inst(i) => &nl.instances()[i as usize].inputs,
            Node::MemRead(m) => &nl.memories()[m as usize].raddr,
        }
    };

    // Fan-out in compressed form: the consumers of node `d` are
    // `fanout[start[d]..start[d + 1]]`, consumer ascending and pins in
    // order — one offsets and one edge array instead of a heap vector
    // per node.
    let mut indeg = vec![0u32; n_nodes];
    let mut start = vec![0u32; n_nodes + 1];
    for (node, deg) in indeg.iter_mut().enumerate() {
        for net in node_inputs(node) {
            if let Some(d) = net_driver[net.0] {
                start[d + 1] += 1;
                *deg += 1;
            }
        }
    }
    for d in 0..n_nodes {
        start[d + 1] += start[d];
    }
    let mut next = start.clone();
    let mut fanout = vec![0u32; start[n_nodes] as usize];
    for node in 0..n_nodes {
        for net in node_inputs(node) {
            if let Some(d) = net_driver[net.0] {
                fanout[next[d] as usize] = node as u32;
                next[d] += 1;
            }
        }
    }

    let mut queue: std::collections::VecDeque<usize> =
        (0..n_nodes).filter(|&n| indeg[n] == 0).collect();
    let mut order = Vec::with_capacity(n_nodes);
    while let Some(n) = queue.pop_front() {
        order.push(nodes[n]);
        for &m in &fanout[start[n] as usize..start[n + 1] as usize] {
            let m = m as usize;
            indeg[m] -= 1;
            if indeg[m] == 0 {
                queue.push_back(m);
            }
        }
    }
    if order.len() != n_nodes {
        return Err(GateError::CombLoop {
            netlist: nl.name().to_string(),
        });
    }
    Ok(order)
}

/// Computes the scan-shift sub-program: the instructions still able to
/// affect architectural state (flop contents, memory contents, the
/// checking memory model) or the `scan_out` stream while `scan_en` is
/// known-1 in every lane.
///
/// Roots of the backward cone: each SDFF's scan-in pin (`scan_en` = 1
/// makes the data pin unreachable — [`CellKind::Sdff`]'s evaluation masks
/// it entirely), every pin of flops not on the chain, the memory port
/// nets, and `scan_out`. A MUX2 selected by `scan_en` likewise
/// contributes only its select-1 arm.
fn scan_mode(nl: &GateNetlist, instrs: &[Instr]) -> Option<ScanMode> {
    let en = *nl.input_port("scan_en")?.first()?;
    let producer = net_producers(nl, instrs);

    let mut stack: Vec<usize> = Vec::new();
    for inst in nl.instances() {
        if !inst.kind.is_sequential() {
            continue;
        }
        if inst.kind == CellKind::Sdff && inst.inputs.get(2) == Some(&en) {
            stack.push(inst.inputs[1].0); // si; se is known-1, d is masked
        } else {
            stack.extend(inst.inputs.iter().map(|n| n.0));
        }
    }
    for mem in nl.memories() {
        stack.extend(mem.raddr.iter().map(|n| n.0));
        stack.extend(mem.waddr.iter().map(|n| n.0));
        stack.extend(mem.wdata.iter().map(|n| n.0));
        if let Some(wen) = mem.wen {
            stack.push(wen.0);
        }
    }
    if let Some(bits) = nl.output_port("scan_out") {
        stack.extend(bits.iter().map(|n| n.0));
    }

    let mut needed = vec![false; instrs.len()];
    let mut seen = vec![false; nl.net_count()];
    while let Some(n) = stack.pop() {
        if seen[n] {
            continue;
        }
        seen[n] = true;
        let Some(i) = producer[n] else { continue };
        let i = i as usize;
        if needed[i] {
            continue;
        }
        needed[i] = true;
        match instrs[i] {
            Instr::Gate {
                kind: CellKind::Mux2,
                b,
                c,
                ..
            } if c as usize == en.0 => stack.push(b as usize),
            Instr::Gate { a, b, c, .. } => {
                stack.push(a as usize);
                stack.push(b as usize);
                stack.push(c as usize);
            }
            Instr::MemRead(m) => {
                stack.extend(nl.memories()[m as usize].raddr.iter().map(|x| x.0));
            }
        }
    }

    let sub = instrs
        .iter()
        .zip(&needed)
        .filter(|(_, &keep)| keep)
        .map(|(instr, _)| *instr)
        .collect();
    Some(ScanMode {
        en: en.0 as u32,
        instrs: sub,
    })
}

/// Net → the instruction that computes it (flop outputs, constants and
/// primary inputs have none).
pub(crate) fn net_producers(nl: &GateNetlist, instrs: &[Instr]) -> Vec<Option<u32>> {
    let mut producer = vec![None; nl.net_count()];
    for (i, instr) in instrs.iter().enumerate() {
        match *instr {
            Instr::Gate { out, .. } => producer[out as usize] = Some(i as u32),
            Instr::MemRead(m) => {
                for n in &nl.memories()[m as usize].dout {
                    producer[n.0] = Some(i as u32);
                }
            }
        }
    }
    producer
}

/// Per-net rows of `u32` items in one flat array: the items of net `n`
/// are `items[at[n]..at[n + 1]]`, in the order they were given.
pub(crate) struct NetRows {
    at: Vec<u32>,
    items: Vec<u32>,
}

impl NetRows {
    /// Groups `(net, item)` pairs by net.
    pub(crate) fn new(nets: usize, pairs: &[(usize, u32)]) -> Self {
        let mut at = vec![0u32; nets + 1];
        for &(n, _) in pairs {
            at[n + 1] += 1;
        }
        for n in 0..nets {
            at[n + 1] += at[n];
        }
        let mut next = at.clone();
        let mut items = vec![0u32; pairs.len()];
        for &(n, item) in pairs {
            items[next[n] as usize] = item;
            next[n] += 1;
        }
        NetRows { at, items }
    }

    /// The items of net `n`.
    #[inline]
    pub(crate) fn row(&self, n: usize) -> &[u32] {
        &self.items[self.at[n] as usize..self.at[n + 1] as usize]
    }
}

/// Net → the instructions reading it as a gate pin or a read address,
/// ascending (a gate reading one net on two pins lists it twice).
pub(crate) fn net_consumers(nl: &GateNetlist, instrs: &[Instr]) -> NetRows {
    let mut pairs = Vec::new();
    for (i, instr) in instrs.iter().enumerate() {
        match *instr {
            Instr::Gate { kind, a, b, c, .. } => pairs.extend(
                [a, b, c][..kind.input_count()]
                    .iter()
                    .map(|&n| (n as usize, i as u32)),
            ),
            Instr::MemRead(m) => pairs.extend(
                nl.memories()[m as usize]
                    .raddr
                    .iter()
                    .map(|n| (n.0, i as u32)),
            ),
        }
    }
    NetRows::new(nl.net_count(), &pairs)
}

/// Which single stuck-at faults the PPSFP kernel may simulate on the
/// capture frame alone ([`crate::fault`]): per net, `true` when a fault
/// forcing that net cannot change any flop or memory word while the
/// chain shifts, so the faulty circuit enters the capture cycle in the
/// fault-free circuit's state.
///
/// `None` — no fault may — unless the flops form one pure shift
/// register: every flop an SDFF whose scan enable is `scan_en`, the
/// first taking `scan_in`, each other the previous flop's Q, and
/// `scan_out` the last flop's Q. Shift-out then replays the captured
/// states verbatim, which is what lets the kernel read them off the
/// capture edge.
///
/// Otherwise a fault is ineligible when it sits inside the backward cone
/// of what can change state while `scan_en` is 1: every SDFF's scan
/// input, `scan_out`, and each RAM's write enable, plus its write address
/// and data unless the enable is constant 0 in shift mode. In a pure
/// chain every flop output is a scan input or `scan_out`, so flop-output
/// faults, which corrupt the shifting itself, are ineligible as roots.
/// Read addresses are no roots: a read changes no state, and the
/// checking model's violation stream is not part of a test signature.
///
/// The cone is refined by the shift-mode constants: one forward pass of
/// [`CellKind::eval`] with `scan_en` = 1, the constant nets known and
/// everything else `X`. A cell whose output comes out known stays at
/// that value under any values of its unknown inputs (four-valued
/// evaluation is monotone), so the cone follows only its known inputs;
/// a `MUX2` with a known select follows the select and the chosen arm.
/// On scan-inserted netlists this leaves the `scan_en` inverter and the
/// RAM write-protect gates: the rest of the shift sub-program reaches
/// only read addresses or write ports the protect gate holds shut.
pub(crate) fn frame_eligible(nl: &GateNetlist, instrs: &[Instr]) -> Option<Vec<bool>> {
    let en = *nl.input_port("scan_en")?.first()?;
    let scan_in = *nl.input_port("scan_in")?.first()?;
    let scan_out = *nl.output_port("scan_out")?.first()?;

    // The chain, walked back from `scan_out` through each flop's scan
    // input, must visit every flop once and end at `scan_in`.
    let flops: Vec<&crate::netlist::Instance> = nl
        .instances()
        .iter()
        .filter(|i| i.kind.is_sequential())
        .collect();
    let mut flop_of_q: Vec<Option<usize>> = vec![None; nl.net_count()];
    for (k, f) in flops.iter().enumerate() {
        if f.kind != CellKind::Sdff || f.inputs[2] != en {
            return None;
        }
        flop_of_q[f.output.0] = Some(k);
    }
    let mut net = scan_out;
    let mut walked = 0;
    while net != scan_in {
        let k = flop_of_q[net.0].take()?;
        net = flops[k].inputs[1];
        walked += 1;
    }
    if flops.is_empty() || walked != flops.len() {
        return None;
    }

    let mut known = vec![Logic::X; nl.net_count()];
    known[nl.const0().0] = Logic::Zero;
    known[nl.const1().0] = Logic::One;
    known[en.0] = Logic::One;
    for instr in instrs {
        if let Instr::Gate { kind, a, b, c, out } = *instr {
            let pins = [known[a as usize], known[b as usize], known[c as usize]];
            known[out as usize] = kind.eval(&pins[..kind.input_count()]);
        }
    }

    let mut stack: Vec<usize> = flops.iter().map(|f| f.inputs[1].0).collect();
    stack.push(scan_out.0);
    for mem in nl.memories() {
        let Some(wen) = mem.wen else { continue };
        stack.push(wen.0);
        if known[wen.0] != Logic::Zero {
            stack.extend(mem.waddr.iter().chain(&mem.wdata).map(|n| n.0));
        }
    }
    let producer = net_producers(nl, instrs);
    let mut in_cone = vec![false; nl.net_count()];
    while let Some(n) = stack.pop() {
        if std::mem::replace(&mut in_cone[n], true) {
            continue;
        }
        let Some(i) = producer[n] else { continue };
        match instrs[i as usize] {
            Instr::Gate {
                kind: CellKind::Mux2,
                a,
                b,
                c,
                ..
            } if known[c as usize].is_known() => {
                let arm = if known[c as usize] == Logic::One {
                    b
                } else {
                    a
                };
                stack.extend([c as usize, arm as usize]);
            }
            Instr::Gate { kind, a, b, c, out } => {
                let pins = &[a, b, c][..kind.input_count()];
                let constant = known[out as usize].is_known();
                stack.extend(
                    pins.iter()
                        .filter(|&&p| !constant || known[p as usize].is_known())
                        .map(|&p| p as usize),
                );
            }
            Instr::MemRead(m) => {
                stack.extend(nl.memories()[m as usize].raddr.iter().map(|x| x.0));
            }
        }
    }
    Some(in_cone.into_iter().map(|c| !c).collect())
}

impl std::fmt::Debug for GateProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GateProgram")
            .field("netlist", &self.nl.name())
            .field("instrs", &self.instrs.len())
            .field("flops", &self.flops.len())
            .field("scan_instrs", &self.scan.as_ref().map(|s| s.instrs.len()))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::celllib::CellLibrary;
    use crate::gsim::GateSim;
    use crate::netlist::{GNetId, NetlistBuilder};
    use crate::scan::insert_scan_chain;
    use scflow_hwtypes::Bv;

    /// An XOR-accumulator with a 3-word checking memory: a functional cone
    /// the shift mode can prune, plus memory writes that stay live during
    /// shift.
    fn scan_design() -> GateNetlist {
        let mut b = NetlistBuilder::new("dut");
        let din = b.input_port("din", 4);
        let wen = b.input_port("wen", 1)[0];
        let waddr = b.input_port("waddr", 2);
        let raddr = b.input_port("raddr", 2);
        let q: Vec<GNetId> = (0..4).map(|i| b.net(format!("q[{i}]"))).collect();
        for i in 0..4 {
            let d = b.cell(CellKind::Xor2, &[q[i], din[i]]);
            b.dff_onto(d, q[i], false);
        }
        let y01 = b.cell(CellKind::And2, &[q[0], q[1]]);
        let y23 = b.cell(CellKind::And2, &[q[2], q[3]]);
        let y = b.cell(CellKind::And2, &[y01, y23]);
        b.output_port("y", &[y]);
        let dout = b.memory(
            "buf",
            4,
            vec![Bv::zero(4); 3],
            raddr,
            waddr,
            q.clone(),
            Some(wen),
        );
        b.output_port("dout", &dout);
        b.build()
    }

    #[test]
    fn scan_sub_program_prunes_the_functional_cone() {
        let nl = insert_scan_chain(&scan_design());
        let prog = GateProgram::compile(&nl).unwrap();
        let scan = prog.scan.as_ref().expect("scan design has a shift mode");
        assert!(
            scan.instrs.len() < prog.instrs.len(),
            "shift mode kept all {} instructions",
            prog.instrs.len()
        );
    }

    /// Frame eligibility on [`scan_design`] plus one gate that feeds only
    /// a read address.
    #[test]
    fn frame_eligibility_excludes_only_what_acts_while_shifting() {
        let mut b = NetlistBuilder::new("dut");
        let a = b.input_port("a", 2);
        let din = b.input_port("din", 2);
        let wen = b.input_port("wen", 1)[0];
        let q: Vec<GNetId> = (0..2).map(|i| b.net(format!("q[{i}]"))).collect();
        for i in 0..2 {
            let d = b.cell(CellKind::Xor2, &[q[i], din[i]]);
            b.dff_onto(d, q[i], false);
        }
        let raddr0 = b.cell(CellKind::Xor2, &[a[0], q[1]]);
        let dout = b.memory(
            "buf",
            2,
            vec![Bv::zero(2); 4],
            vec![raddr0, a[1]],
            a.clone(),
            q.clone(),
            Some(wen),
        );
        b.output_port("dout", &dout);
        let nl = insert_scan_chain(&b.build());
        let prog = GateProgram::compile(&nl).unwrap();
        let eligible = frame_eligible(&nl, &prog.instrs).expect("one pure chain");
        let net = |name: &str| {
            nl.instances()
                .iter()
                .find(|i| i.name == name)
                .unwrap_or_else(|| panic!("no instance {name}"))
                .output
                .0
        };
        for flop in nl.instances().iter().filter(|i| i.kind.is_sequential()) {
            assert!(
                !eligible[flop.output.0],
                "flop output {} eligible",
                flop.name
            );
        }
        assert!(!eligible[net("scan_nen_inv")], "scan_en inverter eligible");
        assert!(
            !eligible[net("buf_wen_gate")],
            "RAM write-enable gate eligible"
        );
        assert!(
            eligible[raddr0.0],
            "a read-address gate is inert while shifting"
        );
        // The write-protect gate pins the enable at 0, so the write
        // address and data cones stay eligible too.
        assert!(eligible[wen.0] && eligible[a[0].0]);
        // Two gates in the cone, against the shift sub-program's more.
        let in_cone = prog
            .instrs
            .iter()
            .filter(|i| matches!(i, Instr::Gate { out, .. } if !eligible[*out as usize]))
            .count();
        assert_eq!(in_cone, 2);
        assert!(prog.scan.as_ref().unwrap().instrs.len() > in_cone);
    }

    #[test]
    fn frame_eligibility_needs_one_pure_chain() {
        let plain = scan_design();
        let prog = GateProgram::compile(&plain).unwrap();
        assert!(
            frame_eligible(&plain, &prog.instrs).is_none(),
            "no chain at all"
        );
        // A flop added after scan insertion sits off the chain.
        let mut nl = insert_scan_chain(&scan_design());
        let d = nl.instances()[0].output;
        let q = GNetId(nl.net_names.len());
        nl.net_names.push("late_q".into());
        nl.instances.push(crate::netlist::Instance {
            name: "late".into(),
            kind: CellKind::Dff,
            inputs: vec![d],
            output: q,
            init: Some(false),
        });
        let prog = GateProgram::compile(&nl).unwrap();
        assert!(
            frame_eligible(&nl, &prog.instrs).is_none(),
            "off-chain flop"
        );
    }

    #[test]
    fn no_scan_chain_means_no_shift_mode() {
        let nl = scan_design();
        let prog = GateProgram::compile(&nl).unwrap();
        assert!(prog.scan.is_none());
    }

    #[test]
    fn shift_mode_matches_the_event_driven_protocol() {
        // Full scan-test rounds (shift in, capture, repeat) against the
        // event-driven reference: scan_out every shift cycle, all outputs
        // at capture, and the checking-memory violation streams —
        // including writes fired by stale-looking shift states — must
        // stay byte-identical.
        let nl = insert_scan_chain(&scan_design());
        let lib = CellLibrary::generic_025u();
        let prog = GateProgram::compile(&nl).unwrap();
        let mut ev = GateSim::new(&nl, &lib);
        let mut bp = prog.simulator();
        let mut state = 0x5EEDu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let flops = nl.flop_count();
        for round in 0..3 {
            ev.set_input("scan_en", Bv::bit(true));
            bp.set_input("scan_en", Bv::bit(true));
            for _ in 0..flops {
                let bit = Bv::bit(next() & 1 == 1);
                ev.set_input("scan_in", bit);
                bp.set_input("scan_in", bit);
                ev.tick();
                bp.tick();
                assert_eq!(
                    ev.output_logic("scan_out"),
                    bp.output_logic("scan_out"),
                    "round {round}: scan_out diverged while shifting"
                );
            }
            ev.set_input("scan_en", Bv::zero(1));
            bp.set_input("scan_en", Bv::zero(1));
            for (port, w) in [("din", 4u32), ("wen", 1), ("waddr", 2), ("raddr", 2)] {
                let v = Bv::new(next() & ((1 << w) - 1), w);
                ev.set_input(port, v);
                bp.set_input(port, v);
            }
            ev.tick();
            bp.tick();
            for port in ["y", "dout", "scan_out"] {
                assert_eq!(
                    ev.output_logic(port),
                    bp.output_logic(port),
                    "round {round}: `{port}` diverged at capture"
                );
            }
        }
        // A guaranteed out-of-range write, then compare the whole streams.
        for sim_inputs in [("wen", Bv::bit(true)), ("waddr", Bv::new(3, 2))] {
            ev.set_input(sim_inputs.0, sim_inputs.1);
            bp.set_input(sim_inputs.0, sim_inputs.1);
        }
        ev.tick();
        bp.tick();
        assert!(!ev.violations().is_empty(), "bad write must be recorded");
        assert_eq!(ev.violations(), bp.violations(), "violation streams");
    }
}
