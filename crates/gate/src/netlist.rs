//! Gate-level netlists: single-bit nets, cell instances, memory macros.

use crate::celllib::CellKind;
use scflow_hwtypes::Bv;
use std::collections::HashMap;

/// Index of a single-bit net within a [`GateNetlist`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct GNetId(pub usize);

/// One placed cell.
#[derive(Clone, Debug)]
pub struct Instance {
    /// Instance name.
    pub name: String,
    /// The cell type.
    pub kind: CellKind,
    /// Input nets, in the pin order documented on [`CellKind`].
    pub inputs: Vec<GNetId>,
    /// Output net.
    pub output: GNetId,
    /// Power-on value for flip-flops (`None` for combinational cells).
    pub init: Option<bool>,
}

/// A memory macro block.
///
/// Memories are not decomposed into gates: like the paper's flow, they are
/// generated blocks, simulated behaviourally and **excluded from area**.
/// The gate-level simulation model *checks addresses* — the mechanism that
/// exposed the paper's golden-model bug.
#[derive(Clone, Debug)]
pub struct GateMemory {
    /// Memory name.
    pub name: String,
    /// Data width in bits.
    pub width: u32,
    /// Initial contents; length = word count.
    pub init: Vec<Bv>,
    /// Read-address bit nets, LSB first.
    pub raddr: Vec<GNetId>,
    /// Read-data output bit nets, LSB first.
    pub dout: Vec<GNetId>,
    /// Write-address bit nets (empty for a ROM).
    pub waddr: Vec<GNetId>,
    /// Write-data bit nets (empty for a ROM).
    pub wdata: Vec<GNetId>,
    /// Write enable (None for a ROM).
    pub wen: Option<GNetId>,
    /// Combinational read latency in ps.
    pub read_delay_ps: u64,
}

impl GateMemory {
    /// Number of words.
    pub fn words(&self) -> usize {
        self.init.len()
    }

    /// `true` for a ROM (no write port): `init` is then its contents for
    /// good, in every simulator and lane.
    pub fn is_rom(&self) -> bool {
        self.wen.is_none()
    }
}

/// A flat gate-level netlist.
///
/// Multi-bit design ports are represented as vectors of single-bit nets
/// (bit 0 first), named `port[i]` internally.
#[derive(Clone, Debug)]
pub struct GateNetlist {
    pub(crate) name: String,
    pub(crate) net_names: Vec<String>,
    pub(crate) instances: Vec<Instance>,
    pub(crate) inputs: Vec<(String, Vec<GNetId>)>,
    pub(crate) outputs: Vec<(String, Vec<GNetId>)>,
    pub(crate) memories: Vec<GateMemory>,
    /// Net hardwired to logic 0.
    pub(crate) const0: GNetId,
    /// Net hardwired to logic 1.
    pub(crate) const1: GNetId,
}

impl GateNetlist {
    /// The netlist name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.net_names.len()
    }

    /// All cell instances.
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// All memory macros.
    pub fn memories(&self) -> &[GateMemory] {
        &self.memories
    }

    /// Input ports as `(name, bit nets)`.
    pub fn inputs(&self) -> &[(String, Vec<GNetId>)] {
        &self.inputs
    }

    /// Output ports as `(name, bit nets)`.
    pub fn outputs(&self) -> &[(String, Vec<GNetId>)] {
        &self.outputs
    }

    /// Net name lookup for diagnostics.
    #[doc(hidden)]
    pub fn net_names_dbg(&self, id: GNetId) -> &str {
        &self.net_names[id.0]
    }

    /// The constant-0 net.
    pub fn const0(&self) -> GNetId {
        self.const0
    }

    /// The constant-1 net.
    pub fn const1(&self) -> GNetId {
        self.const1
    }

    /// Total number of flip-flops.
    pub fn flop_count(&self) -> usize {
        self.instances
            .iter()
            .filter(|i| i.kind.is_sequential())
            .count()
    }

    /// Number of combinational cells.
    pub fn comb_count(&self) -> usize {
        self.instances.len() - self.flop_count()
    }

    /// A stable 64-bit content hash over everything that affects
    /// simulation semantics: nets, cells (kind, pins, power-on values),
    /// ports, memory macros and the constant nets.
    ///
    /// Two netlists with equal structure hash equally regardless of the
    /// process that built them — the content address under which the
    /// simulation service shares one compiled [`crate::GateProgram`]
    /// across concurrent sessions. Instance and net *names* are included
    /// (they name coverage items and violation records, which are part
    /// of the observable behaviour).
    pub fn stable_hash(&self) -> u64 {
        use scflow_hwtypes::Fnv64;
        let mut h = Fnv64::new();
        h.write_str("gate-netlist-v1");
        h.write_str(&self.name);
        h.write_usize(self.net_names.len());
        for n in &self.net_names {
            h.write_str(n);
        }
        h.write_usize(self.instances.len());
        for inst in &self.instances {
            h.write_str(&inst.name);
            h.write_u8(inst.kind as u8);
            h.write_usize(inst.inputs.len());
            for i in &inst.inputs {
                h.write_usize(i.0);
            }
            h.write_usize(inst.output.0);
            h.write_u8(match inst.init {
                None => 0,
                Some(false) => 1,
                Some(true) => 2,
            });
        }
        for (label, ports) in [("in", &self.inputs), ("out", &self.outputs)] {
            h.write_str(label);
            h.write_usize(ports.len());
            for (name, bits) in ports.iter() {
                h.write_str(name);
                h.write_usize(bits.len());
                for b in bits {
                    h.write_usize(b.0);
                }
            }
        }
        h.write_usize(self.memories.len());
        for mem in &self.memories {
            h.write_str(&mem.name);
            h.write_u32(mem.width);
            h.write_usize(mem.init.len());
            for w in &mem.init {
                h.write_u64(w.as_u64());
            }
            for bits in [&mem.raddr, &mem.dout, &mem.waddr, &mem.wdata] {
                h.write_usize(bits.len());
                for b in bits {
                    h.write_usize(b.0);
                }
            }
            h.write_u64(mem.wen.map_or(u64::MAX, |n| n.0 as u64));
            h.write_u64(mem.read_delay_ps);
        }
        h.write_usize(self.const0.0);
        h.write_usize(self.const1.0);
        h.finish()
    }

    /// [`stable_hash`](Self::stable_hash) extended with the pass
    /// configuration the netlist will be optimized under (see
    /// [`crate::passes::optimize`]). Two sessions running the same
    /// design at different optimization levels must not share compiled
    /// programs or exchange snapshots, so the simulation service keys
    /// its caches on this hash rather than the bare structural one.
    pub fn stable_hash_with(&self, passes: &scflow_hwtypes::PassConfig) -> u64 {
        use scflow_hwtypes::Fnv64;
        let mut h = Fnv64::new();
        h.write_str("gate-netlist-passes-v1");
        h.write_u64(self.stable_hash());
        h.write_u64(passes.stable_tag());
        h.finish()
    }

    /// Looks up an input port.
    pub fn input_port(&self, name: &str) -> Option<&[GNetId]> {
        self.inputs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, bits)| bits.as_slice())
    }

    /// Looks up an output port.
    pub fn output_port(&self, name: &str) -> Option<&[GNetId]> {
        self.outputs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, bits)| bits.as_slice())
    }
}

/// Builds a [`GateNetlist`].
///
/// # Example
///
/// ```
/// use scflow_gate::{NetlistBuilder, CellKind};
///
/// let mut b = NetlistBuilder::new("half_adder");
/// let a = b.input_port("a", 1)[0];
/// let c = b.input_port("b", 1)[0];
/// let sum = b.cell(CellKind::Xor2, &[a, c]);
/// let carry = b.cell(CellKind::And2, &[a, c]);
/// b.output_port("sum", &[sum]);
/// b.output_port("carry", &[carry]);
/// let netlist = b.build();
/// assert_eq!(netlist.instances().len(), 2);
/// ```
pub struct NetlistBuilder {
    netlist: GateNetlist,
    driven: Vec<bool>,
    name_counter: HashMap<&'static str, usize>,
}

impl NetlistBuilder {
    /// Starts a new netlist. Constant-0/1 nets are pre-created.
    pub fn new(name: impl Into<String>) -> Self {
        let mut b = NetlistBuilder {
            netlist: GateNetlist {
                name: name.into(),
                net_names: Vec::new(),
                instances: Vec::new(),
                inputs: Vec::new(),
                outputs: Vec::new(),
                memories: Vec::new(),
                const0: GNetId(0),
                const1: GNetId(0),
            },
            driven: Vec::new(),
            name_counter: HashMap::new(),
        };
        let c0 = b.net("const0".into());
        let c1 = b.net("const1".into());
        b.driven[c0.0] = true;
        b.driven[c1.0] = true;
        b.netlist.const0 = c0;
        b.netlist.const1 = c1;
        b
    }

    /// Creates a named net.
    pub fn net(&mut self, name: String) -> GNetId {
        let id = GNetId(self.netlist.net_names.len());
        self.netlist.net_names.push(name);
        self.driven.push(false);
        id
    }

    fn auto_net(&mut self, prefix: &'static str) -> GNetId {
        let n = self.name_counter.entry(prefix).or_insert(0);
        let name = format!("{prefix}_{n}");
        *n += 1;
        self.net(name)
    }

    /// Net name lookup for diagnostics.
    #[doc(hidden)]
    pub fn net_names_dbg(&self, id: GNetId) -> &str {
        &self.netlist.net_names[id.0]
    }

    /// The constant-0 net.
    pub fn const0(&self) -> GNetId {
        self.netlist.const0
    }

    /// The constant-1 net.
    pub fn const1(&self) -> GNetId {
        self.netlist.const1
    }

    /// Declares an input port of `width` bits; returns its bit nets, LSB
    /// first.
    pub fn input_port(&mut self, name: &str, width: u32) -> Vec<GNetId> {
        let bits: Vec<GNetId> = (0..width)
            .map(|i| {
                let id = self.net(format!("{name}[{i}]"));
                self.driven[id.0] = true;
                id
            })
            .collect();
        self.netlist.inputs.push((name.to_owned(), bits.clone()));
        bits
    }

    /// Declares an output port made of existing nets (LSB first).
    pub fn output_port(&mut self, name: &str, bits: &[GNetId]) {
        self.netlist.outputs.push((name.to_owned(), bits.to_vec()));
    }

    /// Places a combinational cell; returns its (new) output net.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is sequential (use [`dff`](NetlistBuilder::dff)) or
    /// the pin count is wrong.
    pub fn cell(&mut self, kind: CellKind, inputs: &[GNetId]) -> GNetId {
        assert!(!kind.is_sequential(), "use dff()/sdff() for flops");
        assert_eq!(inputs.len(), kind.input_count(), "{kind} pin count");
        let out = self.auto_net("n");
        self.place(kind, inputs, out, None);
        out
    }

    /// Places a combinational cell whose output drives the pre-created net
    /// `output` (needed for feedback structures, where the consumer is
    /// built before the driver).
    ///
    /// # Panics
    ///
    /// Panics if `kind` is sequential, the pin count is wrong, or `output`
    /// is already driven.
    pub fn cell_onto(&mut self, kind: CellKind, inputs: &[GNetId], output: GNetId) {
        assert!(!kind.is_sequential(), "use dff_onto() for flops");
        assert_eq!(inputs.len(), kind.input_count(), "{kind} pin count");
        self.place(kind, inputs, output, None);
    }

    /// Places a D flip-flop with power-on value `init`; returns Q.
    pub fn dff(&mut self, d: GNetId, init: bool) -> GNetId {
        let q = self.auto_net("q");
        self.place(CellKind::Dff, &[d], q, Some(init));
        q
    }

    /// Places a D flip-flop whose Q drives the pre-created net `q`
    /// (the standard way to close register feedback loops).
    ///
    /// # Panics
    ///
    /// Panics if `q` is already driven.
    pub fn dff_onto(&mut self, d: GNetId, q: GNetId, init: bool) {
        self.place(CellKind::Dff, &[d], q, Some(init));
    }

    /// Places a scan flip-flop (`d`, `si`, `se`); returns Q.
    pub fn sdff(&mut self, d: GNetId, si: GNetId, se: GNetId, init: bool) -> GNetId {
        let q = self.auto_net("q");
        self.place(CellKind::Sdff, &[d, si, se], q, Some(init));
        q
    }

    fn place(&mut self, kind: CellKind, inputs: &[GNetId], output: GNetId, init: Option<bool>) {
        assert!(
            !self.driven[output.0],
            "net {} already driven",
            self.netlist.net_names[output.0]
        );
        self.driven[output.0] = true;
        let name = format!("u{}", self.netlist.instances.len());
        self.netlist.instances.push(Instance {
            name,
            kind,
            inputs: inputs.to_vec(),
            output,
            init,
        });
    }

    /// Adds a memory macro with fresh output nets; returns the dout nets.
    #[allow(clippy::too_many_arguments)]
    pub fn memory(
        &mut self,
        name: &str,
        width: u32,
        init: Vec<Bv>,
        raddr: Vec<GNetId>,
        waddr: Vec<GNetId>,
        wdata: Vec<GNetId>,
        wen: Option<GNetId>,
    ) -> Vec<GNetId> {
        let dout: Vec<GNetId> = (0..width)
            .map(|i| {
                let id = self.net(format!("{name}.dout[{i}]"));
                self.driven[id.0] = true;
                id
            })
            .collect();
        self.netlist.memories.push(GateMemory {
            name: name.to_owned(),
            width,
            init,
            raddr,
            dout: dout.clone(),
            waddr,
            wdata,
            wen,
            read_delay_ps: 900,
        });
        dout
    }

    /// Adds a memory macro whose dout drives pre-created nets (needed when
    /// readers are built before the memory is finalised).
    ///
    /// # Panics
    ///
    /// Panics if a dout net is already driven or `dout.len() != width`.
    #[allow(clippy::too_many_arguments)]
    pub fn memory_onto(
        &mut self,
        name: &str,
        width: u32,
        init: Vec<Bv>,
        raddr: Vec<GNetId>,
        dout: Vec<GNetId>,
        waddr: Vec<GNetId>,
        wdata: Vec<GNetId>,
        wen: Option<GNetId>,
    ) {
        assert_eq!(dout.len() as u32, width, "dout width mismatch");
        for &d in &dout {
            assert!(
                !self.driven[d.0],
                "net {} already driven",
                self.netlist.net_names[d.0]
            );
            self.driven[d.0] = true;
        }
        self.netlist.memories.push(GateMemory {
            name: name.to_owned(),
            width,
            init,
            raddr,
            dout,
            waddr,
            wdata,
            wen,
            read_delay_ps: 900,
        });
    }

    /// Finalises the netlist.
    ///
    /// # Panics
    ///
    /// Panics if any instance input references an undriven net (excluding
    /// output-only nets is not possible at gate level — everything must be
    /// driven).
    pub fn build(self) -> GateNetlist {
        let check = |id: GNetId, what: &str| {
            assert!(
                self.driven[id.0],
                "{what} reads undriven net {}",
                self.netlist.net_names[id.0]
            );
        };
        for inst in &self.netlist.instances {
            for &i in &inst.inputs {
                check(i, &format!("instance {}", inst.name));
            }
        }
        for (name, bits) in &self.netlist.outputs {
            for &b in bits {
                check(b, &format!("output port {name}"));
            }
        }
        for mem in &self.netlist.memories {
            for &n in mem
                .raddr
                .iter()
                .chain(&mem.waddr)
                .chain(&mem.wdata)
                .chain(mem.wen.as_ref())
            {
                check(n, &format!("memory {}", mem.name));
            }
        }
        self.netlist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ports_and_cells() {
        let mut b = NetlistBuilder::new("m");
        let a = b.input_port("a", 2);
        let y0 = b.cell(CellKind::Inv, &[a[0]]);
        let y1 = b.cell(CellKind::Nand2, &[a[0], a[1]]);
        b.output_port("y", &[y0, y1]);
        let n = b.build();
        assert_eq!(n.inputs().len(), 1);
        assert_eq!(n.input_port("a").unwrap().len(), 2);
        assert_eq!(n.output_port("y").unwrap().len(), 2);
        assert_eq!(n.comb_count(), 2);
        assert_eq!(n.flop_count(), 0);
    }

    #[test]
    fn flops_counted() {
        let mut b = NetlistBuilder::new("m");
        let a = b.input_port("a", 1)[0];
        let q = b.dff(a, false);
        let q2 = b.dff(q, true);
        b.output_port("q", &[q2]);
        let n = b.build();
        assert_eq!(n.flop_count(), 2);
        assert_eq!(n.instances()[1].init, Some(true));
    }

    #[test]
    #[should_panic(expected = "already driven")]
    fn double_drive_rejected() {
        let mut b = NetlistBuilder::new("m");
        let a = b.input_port("a", 1)[0];
        let out = b.net("y".into());
        b.place(CellKind::Inv, &[a], out, None);
        b.place(CellKind::Buf, &[a], out, None);
    }

    #[test]
    #[should_panic(expected = "undriven")]
    fn undriven_input_rejected() {
        let mut b = NetlistBuilder::new("m");
        let ghost = b.net("ghost".into());
        let y = b.cell(CellKind::Inv, &[ghost]);
        b.output_port("y", &[y]);
        let _ = b.build();
    }

    #[test]
    fn memory_macro_shape() {
        let mut b = NetlistBuilder::new("m");
        let addr = b.input_port("addr", 3);
        let dout = b.memory(
            "rom",
            8,
            (0..8).map(|i| Bv::new(i, 8)).collect(),
            addr,
            vec![],
            vec![],
            None,
        );
        b.output_port("dout", &dout);
        let n = b.build();
        assert_eq!(n.memories().len(), 1);
        assert_eq!(n.memories()[0].words(), 8);
        assert_eq!(n.memories()[0].dout.len(), 8);
    }
}
