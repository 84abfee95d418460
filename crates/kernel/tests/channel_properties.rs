//! Property-based tests for kernel channels: FIFO order/count
//! preservation under arbitrary producer/consumer pacing, and clock/edge
//! arithmetic. Runs on the in-repo `scflow-testkit` property runner.

use scflow_kernel::{Kernel, SimTime};
use scflow_testkit::prop::{check_with, ints, vecs, Config};
use scflow_testkit::prop_assert_eq;
use std::cell::RefCell;
use std::rc::Rc;

fn cfg(cases: u32) -> Config {
    Config::from_env().with_cases(cases)
}

/// Whatever the relative pacing of producer and consumer and the FIFO
/// capacity, every item arrives exactly once, in order.
#[test]
fn fifo_preserves_order_and_count() {
    let strategy = (
        vecs(ints(0u32..=u32::MAX), 1..=40),
        ints(1usize..=5),
        vecs(ints(0u64..=49), 1..=40),
        vecs(ints(0u64..=49), 1..=40),
    );
    check_with(
        &cfg(64),
        "fifo preserves order and count",
        &strategy,
        |(items, capacity, prod_delays, cons_delays)| {
            let k = Kernel::new();
            let fifo = k.fifo::<u32>("f", *capacity);
            let received: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
            let n = items.len();

            k.spawn("producer", {
                let (k2, fifo) = (k.clone(), fifo.clone());
                let items = items.clone();
                let prod_delays = prod_delays.clone();
                async move {
                    for (i, item) in items.into_iter().enumerate() {
                        let d = prod_delays[i % prod_delays.len()];
                        if d > 0 {
                            k2.wait_time(SimTime::from_ns(d)).await;
                        }
                        fifo.write(&k2, item).await;
                    }
                }
            });
            k.spawn("consumer", {
                let (k2, fifo, received) = (k.clone(), fifo.clone(), received.clone());
                let cons_delays = cons_delays.clone();
                async move {
                    for i in 0..n {
                        let d = cons_delays[i % cons_delays.len()];
                        if d > 0 {
                            k2.wait_time(SimTime::from_ns(d)).await;
                        }
                        let v = fifo.read(&k2).await;
                        received.borrow_mut().push(v);
                    }
                }
            });
            k.run();
            prop_assert_eq!(&*received.borrow(), items);
            prop_assert_eq!(fifo.num_available(), 0);
            Ok(())
        },
    );
}

/// A clock produces exactly floor(t/period) rising edges by time t,
/// for arbitrary (even-picosecond) periods and horizons.
#[test]
fn clock_edge_count_is_exact() {
    let strategy = (ints(1u64..=4999), ints(1u64..=49), ints(0u64..=1999));
    check_with(
        &cfg(64),
        "clock edge count is exact",
        &strategy,
        |&(half_period, horizon_periods, extra)| {
            let period = half_period * 2;
            let k = Kernel::new();
            let clk = k.clock("clk", SimTime::from_ps(period));
            let horizon = period * horizon_periods + extra.min(period - 1);
            k.run_until(SimTime::from_ps(horizon));
            // First rising edge at period/2, then every period.
            let expected = if horizon < half_period {
                0
            } else {
                (horizon - half_period) / period + 1
            };
            prop_assert_eq!(clk.cycles(), expected);
            Ok(())
        },
    );
}

/// Timed notifications fire in exactly the order of their deadlines,
/// with ties broken by notification order.
#[test]
fn timed_events_fire_in_deadline_order() {
    check_with(
        &cfg(64),
        "timed events fire in deadline order",
        &vecs(ints(1u64..=999), 1..=20),
        |delays| {
            let k = Kernel::new();
            let log: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
            for (i, &d) in delays.iter().enumerate() {
                let ev = k.event(format!("e{i}"));
                k.spawn(format!("w{i}"), {
                    let (k2, ev, log) = (k.clone(), ev.clone(), log.clone());
                    async move {
                        k2.wait(&ev).await;
                        log.borrow_mut().push(i);
                    }
                });
                ev.notify_at(SimTime::from_ns(d));
            }
            k.run();
            let got = log.borrow().clone();
            let mut expect: Vec<usize> = (0..delays.len()).collect();
            expect.sort_by_key(|&i| (delays[i], i));
            prop_assert_eq!(got, expect);
            Ok(())
        },
    );
}
