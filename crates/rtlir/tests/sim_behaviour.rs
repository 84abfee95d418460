//! Integration tests: build small designs and simulate them cycle by cycle.

use scflow_hwtypes::Bv;
use scflow_rtl::{Expr, ModuleBuilder, RtlSim};

/// A mod-10 counter with synchronous clear.
fn counter_mod10() -> scflow_rtl::Module {
    let mut b = ModuleBuilder::new("counter");
    let clear = b.input("clear", 1);
    let count = b.reg("count", 4, Bv::zero(4));
    let at_max = b.comb("at_max", b.n(count).eq(Expr::lit(9, 4)));
    let next = b.comb(
        "next",
        b.n(clear)
            .or(b.n(at_max))
            .mux(Expr::lit(0, 4), b.n(count).add(Expr::lit(1, 4))),
    );
    b.set_next(count, b.n(next));
    b.output("q", b.n(count));
    b.build().expect("valid counter")
}

#[test]
fn counter_counts_and_wraps() {
    let m = counter_mod10();
    let mut sim = RtlSim::new(&m);
    sim.set_input("clear", Bv::zero(1));
    for expected in [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1] {
        sim.tick();
        assert_eq!(sim.output("q").as_u64(), expected);
    }
    sim.set_input("clear", Bv::bit(true));
    sim.tick();
    assert_eq!(sim.output("q").as_u64(), 0);
}

#[test]
fn settle_without_tick_does_not_advance_state() {
    let m = counter_mod10();
    let mut sim = RtlSim::new(&m);
    sim.set_input("clear", Bv::zero(1));
    sim.settle();
    sim.settle();
    assert_eq!(sim.output("q").as_u64(), 0);
    assert_eq!(sim.cycle(), 0);
}

/// A 4-entry ring buffer (RAM) with write pointer, echoing the SRC input
/// buffer structure.
fn ring_buffer() -> scflow_rtl::Module {
    let mut b = ModuleBuilder::new("ring");
    let din = b.input("din", 8);
    let push = b.input("push", 1);
    let raddr = b.input("raddr", 2);
    let wptr = b.reg("wptr", 2, Bv::zero(2));
    let mem = b.memory("buf", 8, vec![Bv::zero(8); 4]);
    b.mem_write(mem, b.n(wptr), b.n(din), b.n(push));
    b.set_next(
        wptr,
        b.n(push).mux(b.n(wptr).add(Expr::lit(1, 2)), b.n(wptr)),
    );
    b.output("dout", Expr::read_mem(mem, b.n(raddr), 8));
    b.output("wp", b.n(wptr));
    b.build().expect("valid ring buffer")
}

#[test]
fn ring_buffer_writes_and_reads() {
    let m = ring_buffer();
    let mut sim = RtlSim::new(&m);
    sim.set_input("push", Bv::bit(true));
    sim.set_input("raddr", Bv::zero(2));
    for v in [10u64, 20, 30, 40] {
        sim.set_input("din", Bv::new(v, 8));
        sim.tick();
    }
    assert_eq!(sim.output("wp").as_u64(), 0); // wrapped
    sim.set_input("push", Bv::zero(1));
    for (addr, v) in [(0u64, 10u64), (1, 20), (2, 30), (3, 40)] {
        sim.set_input("raddr", Bv::new(addr, 2));
        sim.settle();
        assert_eq!(sim.output("dout").as_u64(), v, "addr {addr}");
    }
    // Fifth push overwrites slot 0.
    sim.set_input("push", Bv::bit(true));
    sim.set_input("din", Bv::new(99, 8));
    sim.tick();
    sim.set_input("push", Bv::zero(1));
    sim.set_input("raddr", Bv::zero(2));
    sim.settle();
    assert_eq!(sim.output("dout").as_u64(), 99);
}

/// A memory deliberately addressed out of range: silently wraps by default,
/// records a violation when checking is enabled — the paper's golden-model
/// bug mechanism.
fn oob_reader() -> scflow_rtl::Module {
    let mut b = ModuleBuilder::new("oob");
    let addr = b.input("addr", 4); // 16 addresses into an 8-word ROM
    let mem = b.memory("rom", 8, (0..8).map(|i| Bv::new(i * 11, 8)).collect());
    b.output("dout", Expr::read_mem(mem, b.n(addr), 8));
    b.build().expect("valid")
}

#[test]
fn out_of_range_read_silent_by_default() {
    let m = oob_reader();
    let mut sim = RtlSim::new(&m);
    sim.set_input("addr", Bv::new(9, 4)); // wraps to 1
    sim.settle();
    assert_eq!(sim.output("dout").as_u64(), 11);
    assert!(sim.violations().is_empty());
}

#[test]
fn out_of_range_read_recorded_when_checked() {
    let m = oob_reader();
    let mut sim = RtlSim::new(&m);
    sim.check_addresses = true;
    sim.set_input("addr", Bv::new(12, 4));
    sim.settle();
    let v = sim.violations();
    assert!(!v.is_empty());
    assert_eq!(v[0].memory, "rom");
    assert_eq!(v[0].address, 12);
    assert!(!v[0].write);
}

#[test]
fn signed_datapath() {
    // y = (a * b) >>> 2 with signed 8-bit operands, 16-bit product.
    let mut b = ModuleBuilder::new("sdp");
    let a = b.input("a", 8);
    let c = b.input("b", 8);
    let prod = b.comb("prod", b.n(a).sext(16).mul_signed(b.n(c).sext(16)));
    b.output("y", b.n(prod).sar(Expr::lit(2, 2)));
    let m = b.build().expect("valid");
    let mut sim = RtlSim::new(&m);
    sim.set_input("a", Bv::from_i64(-7, 8));
    sim.set_input("b", Bv::from_i64(5, 8));
    sim.settle();
    assert_eq!(sim.output("y").as_i64(), -35 >> 2); // -9 (arithmetic)
}

#[test]
fn verilog_output_is_structurally_complete() {
    let m = ring_buffer();
    let v = m.to_verilog();
    assert!(v.contains("module ring ("));
    assert!(v.contains("input wire clk"));
    assert!(v.contains("input wire [7:0] din"));
    assert!(v.contains("reg [7:0] buf [0:3];"));
    assert!(v.contains("always @(posedge clk)"));
    assert!(v.contains("endmodule"));
    // every output appears as an assign target
    assert!(v.contains("assign dout ="));
    assert!(v.contains("assign wp ="));
}

#[test]
fn stats_reflect_structure() {
    let m = ring_buffer();
    let s = m.stats();
    assert_eq!(s.registers, 1);
    assert_eq!(s.register_bits, 2);
    assert_eq!(s.memories, 1);
    assert_eq!(s.memory_bits, 32);
    assert!(s.ops.mux >= 1);
    assert!(s.ops.arith >= 1);
}

#[test]
fn waveform_capture_produces_vcd() {
    let m = counter_mod10();
    let mut sim = RtlSim::new(&m);
    sim.watch_port("q");
    sim.set_input("clear", Bv::zero(1));
    sim.run(5);
    let vcd = sim.waveform_vcd(40_000);
    assert!(vcd.contains("$var wire 4 v0 q $end"));
    // 5 distinct values -> 5 timestamped changes at 40ns spacing.
    assert!(vcd.contains("#40000"));
    assert!(vcd.contains("#200000"));
    assert!(vcd.contains("b101 v0")); // q == 5 at cycle 5
}
