//! Tests for the hierarchical channel's three interfaces (the paper's
//! `SRC_CTRL`, `SampleWriteIF`, `SampleReadIF`) used directly from
//! producer/consumer processes, including mode switching.

use scflow::models::channel::SrcChannel;
use scflow::verify::GoldenVectors;
use scflow::{stimulus, SrcConfig};
use scflow_kernel::{Kernel, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

#[test]
fn interface_methods_drive_the_channel() {
    let cfg = SrcConfig::cd_to_dvd();
    let input = stimulus::sine(120, 1000.0, 44_100.0, 9_000.0);
    let golden = GoldenVectors::generate(&cfg, input.clone());

    let kernel = Kernel::new();
    let channel = SrcChannel::new(&kernel, &cfg);
    let collected: Rc<RefCell<Vec<i16>>> = Rc::new(RefCell::new(Vec::new()));

    kernel.spawn("producer", {
        let (k, ch) = (kernel.clone(), channel.clone());
        async move {
            for s in input {
                // SampleWriteIF
                ch.write_sample(&k, s).await;
                k.wait_time(SimTime::from_us(20)).await;
            }
        }
    });
    kernel.spawn("consumer", {
        let (k, ch, collected) = (kernel.clone(), channel.clone(), collected.clone());
        let expected = golden.len();
        async move {
            for _ in 0..expected {
                // SampleReadIF
                let y = ch.read_sample(&k).await;
                collected.borrow_mut().push(y);
            }
            k.stop();
        }
    });
    kernel.run();
    assert_eq!(&*collected.borrow(), &golden.output);
}

#[test]
fn ctrl_interface_switches_mode() {
    // Run a few samples in up-conversion, then reconfigure to
    // down-conversion via SRC_CTRL and verify the new behaviour.
    let up = SrcConfig::cd_to_dvd();
    let down = SrcConfig::dvd_to_cd();

    let kernel = Kernel::new();
    let channel = SrcChannel::new(&kernel, &up);

    // Phase 1: feed 50 samples at the up-conversion rate.
    let in1 = stimulus::sine(50, 1000.0, 44_100.0, 9_000.0);
    let n1 = Rc::new(RefCell::new(0usize));
    kernel.spawn("phase1", {
        let (k, ch, n1) = (kernel.clone(), channel.clone(), n1.clone());
        let in1 = in1.clone();
        async move {
            for s in in1 {
                ch.write_sample(&k, s).await;
                // Drain as we go so neither FIFO backs up.
                while ch.try_read_sample().is_some() {
                    *n1.borrow_mut() += 1;
                }
            }
            // Collect stragglers.
            for _ in 0..3 {
                k.wait_time(SimTime::from_us(50)).await;
                while ch.try_read_sample().is_some() {
                    *n1.borrow_mut() += 1;
                }
            }
            k.stop();
        }
    });
    kernel.run();
    let phase1 = *n1.borrow();
    assert!(
        phase1 > 50,
        "upsampling should produce > inputs, got {phase1}"
    );

    // SRC_CTRL: switch operation mode (resets converter state).
    channel.set_mode(&down);

    let in2 = stimulus::sine(50, 1000.0, 48_000.0, 9_000.0);
    let n2 = Rc::new(RefCell::new(0usize));
    kernel.spawn("phase2", {
        let (k, ch, n2) = (kernel.clone(), channel.clone(), n2.clone());
        async move {
            for s in in2 {
                ch.write_sample(&k, s).await;
                while ch.try_read_sample().is_some() {
                    *n2.borrow_mut() += 1;
                }
            }
            for _ in 0..3 {
                k.wait_time(SimTime::from_us(50)).await;
                while ch.try_read_sample().is_some() {
                    *n2.borrow_mut() += 1;
                }
            }
            k.stop();
        }
    });
    kernel.run();
    let phase2 = *n2.borrow();
    assert!(
        phase2 < 50 && phase2 > 30,
        "downsampling should produce < inputs, got {phase2}"
    );
}
