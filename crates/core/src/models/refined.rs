//! Level 1b: the **refined hierarchical channel** (the paper's Figure 6).
//!
//! The channel's C++ code is split into three submodules along the class
//! structure — an input-buffer module, a polyphase-coefficient module and
//! a main module with its own functional thread. Synchronisation uses
//! explicit events (`sc_event`), and the method calls of the C++ model
//! become interface method calls between the submodules.

use crate::algo::{wrap_to, InputBuffer, PolyphaseFilter};
use crate::config::SrcConfig;
use crate::models::SimRun;
use scflow_kernel::{Event, Kernel, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// The input-buffer submodule: owns the ring buffer, fires
/// `sample_written` after each write (the explicit `sc_event` of the
/// refinement step).
pub struct InputBufferModule {
    buffer: RefCell<InputBuffer>,
    available: RefCell<u32>,
    sample_written: Event,
}

impl InputBufferModule {
    /// Creates the submodule.
    pub fn new(kernel: &Kernel) -> Rc<Self> {
        Rc::new(InputBufferModule {
            buffer: RefCell::new(InputBuffer::new()),
            available: RefCell::new(0),
            sample_written: kernel.event("ibuf.sample_written"),
        })
    }

    /// Interface method: store a sample and notify.
    pub fn write(&self, sample: i16) {
        self.buffer.borrow_mut().push(sample);
        *self.available.borrow_mut() += 1;
        self.sample_written.notify_delta();
    }

    /// Interface method: samples available since the last consume.
    pub fn available(&self) -> u32 {
        *self.available.borrow()
    }

    /// Interface method: consume `n` availability credits.
    pub fn consume(&self, n: u32) {
        *self.available.borrow_mut() -= n;
    }

    /// Interface method: the `TAPS` most recent samples, newest first.
    pub fn recent(&self) -> Vec<i16> {
        self.buffer.borrow_mut().iter_recent().collect()
    }

    /// The notification event.
    pub fn sample_written(&self) -> &Event {
        &self.sample_written
    }
}

/// The coefficient submodule: wraps the polyphase ROM behind an interface
/// method.
pub struct CoefModule {
    filter: PolyphaseFilter,
}

impl CoefModule {
    /// Designs the coefficients for `cfg`.
    pub fn new(cfg: &SrcConfig) -> Rc<Self> {
        Rc::new(CoefModule {
            filter: PolyphaseFilter::design(cfg),
        })
    }

    /// Interface method: one coefficient.
    pub fn coefficient(&self, phase: u32, tap: u32) -> i16 {
        self.filter.rom().coefficient(phase, tap)
    }
}

/// Runs the refined-channel model's testbench (same stimulus contract as
/// [`run_channel_model`](crate::models::channel::run_channel_model)).
pub fn run_refined_model(cfg: &SrcConfig, input: &[i16]) -> SimRun {
    let kernel = Kernel::new();
    let expected = crate::verify::GoldenVectors::generate(cfg, input.to_vec()).len();

    let ibuf = InputBufferModule::new(&kernel);
    let coef = CoefModule::new(cfg);
    let out_fifo = kernel.fifo::<i16>("src.out", 8);
    let in_fifo = kernel.fifo::<i16>("src.in", 8);

    // Demand credits: the main module announces how many samples it needs;
    // the input stage must not run ahead (the ring buffer holds exactly
    // the samples the convolution expects).
    let demand: Rc<RefCell<u32>> = Rc::new(RefCell::new(0));
    let demand_event = kernel.event("src.demand");

    // Input stage thread: moves samples from the write interface into the
    // buffer submodule, one per outstanding demand credit.
    kernel.spawn("src.input_stage", {
        let (k, in_fifo, ibuf) = (kernel.clone(), in_fifo.clone(), ibuf.clone());
        let (demand, demand_event) = (demand.clone(), demand_event.clone());
        async move {
            loop {
                while *demand.borrow() == 0 {
                    k.wait(&demand_event).await;
                }
                let s = in_fifo.read(&k).await;
                *demand.borrow_mut() -= 1;
                ibuf.write(s);
            }
        }
    });

    // Main thread: the SRC's functional behaviour, synchronised by
    // explicit events and using interface method calls on the submodules.
    kernel.spawn("src.main", {
        let (k, ibuf, coef, out_fifo) =
            (kernel.clone(), ibuf.clone(), coef.clone(), out_fifo.clone());
        let (demand, demand_event) = (demand.clone(), demand_event.clone());
        let cfg = cfg.clone();
        async move {
            let mut acc = 0u32;
            loop {
                let (new_acc, consume, phase) = cfg.advance(acc);
                *demand.borrow_mut() += consume;
                if consume > 0 {
                    demand_event.notify_delta();
                }
                while ibuf.available() < consume {
                    k.wait(ibuf.sample_written()).await;
                }
                ibuf.consume(consume);
                acc = new_acc;
                // Convolution via interface method calls, tap by tap.
                let samples = ibuf.recent();
                let mut macc: i64 = 0;
                for (tap, &x) in samples.iter().enumerate() {
                    let c = coef.coefficient(phase, tap as u32);
                    macc += i64::from(x) * i64::from(c);
                }
                let y = (wrap_to(macc, SrcConfig::ACC_BITS) >> SrcConfig::COEF_FRAC_BITS) as i16;
                out_fifo.write(&k, y).await;
            }
        }
    });

    let collected: Rc<RefCell<Vec<i16>>> = Rc::new(RefCell::new(Vec::new()));
    let times: Rc<RefCell<Vec<SimTime>>> = Rc::new(RefCell::new(Vec::new()));
    let in_period = SimTime::from_ps(cfg.in_period_ps());
    let out_period = SimTime::from_ps(cfg.out_period_ps());

    kernel.spawn("producer", {
        let (k, in_fifo) = (kernel.clone(), in_fifo.clone());
        let input = input.to_vec();
        async move {
            for s in input {
                k.wait_time(in_period).await;
                in_fifo.write(&k, s).await;
            }
        }
    });
    kernel.spawn("consumer", {
        let (k, out_fifo, collected) = (kernel.clone(), out_fifo.clone(), collected.clone());
        let times = times.clone();
        async move {
            for _ in 0..expected {
                k.wait_time(out_period).await;
                let y = out_fifo.read(&k).await;
                collected.borrow_mut().push(y);
                times.borrow_mut().push(k.now());
            }
            k.stop();
        }
    });

    kernel.run();
    SimRun {
        outputs: Rc::try_unwrap(collected)
            .map(RefCell::into_inner)
            .unwrap_or_default(),
        sim_time: kernel.now(),
        clock_cycles: None,
        stats: Some(kernel.stats()),
        output_times: Rc::try_unwrap(times)
            .map(RefCell::into_inner)
            .unwrap_or_default(),
    }
}
