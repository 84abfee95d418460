//! Integration tests for SystemC-style scheduler semantics: delta cycles,
//! notification flavours, signal update phases, FIFO blocking, clocks.

use scflow_kernel::{Kernel, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

fn log() -> Rc<RefCell<Vec<String>>> {
    Rc::new(RefCell::new(Vec::new()))
}

#[test]
fn processes_start_at_time_zero() {
    let k = Kernel::new();
    let ran = k.signal("ran", false);
    k.spawn("p", {
        let (k2, ran) = (k.clone(), ran.clone());
        async move {
            assert_eq!(k2.now(), SimTime::ZERO);
            ran.write(true);
        }
    });
    k.run();
    assert!(ran.read());
}

#[test]
fn signal_update_is_deferred_one_delta() {
    let k = Kernel::new();
    let s = k.signal("s", 0u32);
    let observed = k.signal("observed", 999u32);

    // Writer and reader in the same evaluate phase: reader must see the old
    // value regardless of execution order; a delta later it sees the new one.
    k.spawn("writer", {
        let s = s.clone();
        async move {
            s.write(42);
        }
    });
    k.spawn("reader", {
        let (k2, s, observed) = (k.clone(), s.clone(), observed.clone());
        async move {
            let before = s.read();
            k2.wait(s.changed()).await;
            let after = s.read();
            observed.write(before * 1000 + after);
        }
    });
    k.run();
    assert_eq!(observed.read(), 42);
}

#[test]
fn immediate_notification_wakes_within_same_evaluate_phase() {
    let k = Kernel::new();
    let ev = k.event("ev");
    let order = log();

    k.spawn("waiter", {
        let (k2, ev, order) = (k.clone(), ev.clone(), order.clone());
        async move {
            order.borrow_mut().push("waiter:armed".into());
            k2.wait(&ev).await;
            order.borrow_mut().push(format!("waiter:woke@{}", k2.now()));
        }
    });
    k.spawn("notifier", {
        let (k2, ev, order) = (k.clone(), ev.clone(), order.clone());
        async move {
            // Give the waiter a timed step to arm itself first.
            k2.wait_time(SimTime::from_ns(1)).await;
            order.borrow_mut().push("notifier:fire".into());
            ev.notify(); // immediate
            order.borrow_mut().push("notifier:done".into());
        }
    });
    k.run();
    let order = order.borrow();
    assert_eq!(
        order.as_slice(),
        [
            "waiter:armed",
            "notifier:fire",
            "notifier:done",
            "waiter:woke@1ns"
        ]
    );
}

#[test]
fn delta_notification_wakes_in_next_delta_same_time() {
    let k = Kernel::new();
    let ev = k.event("ev");
    let woke_at = k.signal("woke_at", SimTime::MAX.as_ps());

    k.spawn("waiter", {
        let (k2, ev, woke_at) = (k.clone(), ev.clone(), woke_at.clone());
        async move {
            k2.wait(&ev).await;
            woke_at.write(k2.now().as_ps());
        }
    });
    k.spawn("notifier", {
        let (k2, ev) = (k.clone(), ev.clone());
        async move {
            k2.wait_time(SimTime::from_ns(7)).await;
            ev.notify_delta();
        }
    });
    k.run();
    assert_eq!(woke_at.read(), SimTime::from_ns(7).as_ps());
}

#[test]
fn timed_notification_fires_after_delay() {
    let k = Kernel::new();
    let ev = k.event("ev");
    let woke_at = k.signal("woke_at", 0u64);

    k.spawn("waiter", {
        let (k2, ev, woke_at) = (k.clone(), ev.clone(), woke_at.clone());
        async move {
            k2.wait(&ev).await;
            woke_at.write(k2.now().as_ps());
        }
    });
    ev.notify_at(SimTime::from_ns(30));
    k.run();
    assert_eq!(woke_at.read(), SimTime::from_ns(30).as_ps());
}

#[test]
fn wait_any_resumes_on_first_event_and_ignores_stale_registration() {
    let k = Kernel::new();
    let a = k.event("a");
    let b = k.event("b");
    let wakes = k.signal("wakes", 0u32);

    k.spawn("waiter", {
        let (k2, a, b, wakes) = (k.clone(), a.clone(), b.clone(), wakes.clone());
        async move {
            k2.wait_any(&[&a, &b]).await;
            wakes.write(wakes.read() + 1);
            // Block forever on a fresh event so the later `b` firing could
            // only wake us through the *stale* registration — it must not.
            let never = k2.event("never");
            k2.wait(&never).await;
            wakes.write(wakes.read() + 100);
        }
    });
    a.notify_at(SimTime::from_ns(1));
    b.notify_at(SimTime::from_ns(2));
    k.run();
    assert_eq!(wakes.read(), 1);
}

#[test]
fn last_write_in_delta_wins() {
    let k = Kernel::new();
    let s = k.signal("s", 0u8);
    k.spawn("w", {
        let s = s.clone();
        async move {
            s.write(1);
            s.write(2);
            s.write(3);
        }
    });
    k.run();
    assert_eq!(s.read(), 3);
}

#[test]
fn write_of_same_value_does_not_fire_changed() {
    let k = Kernel::new();
    let s = k.signal("s", 5u8);
    let woke = k.signal("woke", false);
    k.spawn("waiter", {
        let (k2, s, woke) = (k.clone(), s.clone(), woke.clone());
        async move {
            k2.wait(s.changed()).await;
            woke.write(true);
        }
    });
    k.spawn("writer", {
        let (k2, s) = (k.clone(), s.clone());
        async move {
            k2.wait_time(SimTime::from_ns(1)).await;
            s.write(5); // no change
        }
    });
    k.run();
    assert!(!woke.read());
}

#[test]
fn run_until_parks_at_deadline_and_resumes() {
    let k = Kernel::new();
    let count = k.signal("count", 0u32);
    k.spawn("ticker", {
        let (k2, count) = (k.clone(), count.clone());
        async move {
            loop {
                k2.wait_time(SimTime::from_ns(10)).await;
                count.write(count.read() + 1);
            }
        }
    });
    k.run_until(SimTime::from_ns(35));
    assert_eq!(count.read(), 3);
    assert_eq!(k.now(), SimTime::from_ns(35));
    k.run_for(SimTime::from_ns(10));
    assert_eq!(count.read(), 4);
    assert_eq!(k.now(), SimTime::from_ns(45));
}

#[test]
fn notification_exactly_at_deadline_is_processed() {
    let k = Kernel::new();
    let hit = k.signal("hit", false);
    k.spawn("p", {
        let (k2, hit) = (k.clone(), hit.clone());
        async move {
            k2.wait_time(SimTime::from_ns(20)).await;
            hit.write(true);
        }
    });
    k.run_until(SimTime::from_ns(20));
    assert!(hit.read());
}

#[test]
fn stop_aborts_run() {
    let k = Kernel::new();
    let count = k.signal("count", 0u32);
    k.spawn("ticker", {
        let (k2, count) = (k.clone(), count.clone());
        async move {
            loop {
                k2.wait_time(SimTime::from_ns(1)).await;
                let v = count.read() + 1;
                count.write(v);
                if v == 5 {
                    k2.stop();
                }
            }
        }
    });
    k.run();
    // One more increment may be staged but the loop stops right after.
    assert!(count.read() <= 6, "stopped promptly, got {}", count.read());
    assert!(k.now() <= SimTime::from_ns(6));
}

#[test]
fn fifo_blocks_writer_when_full() {
    use std::cell::Cell;
    let k = Kernel::new();
    let f = k.fifo::<u32>("f", 2);
    let writes_done = Rc::new(Cell::new(0u32));

    k.spawn("producer", {
        let (k2, f, writes_done) = (k.clone(), f.clone(), writes_done.clone());
        async move {
            for i in 0..4 {
                f.write(&k2, i).await;
                writes_done.set(writes_done.get() + 1);
            }
        }
    });
    // No consumer yet: producer must stall after 2 writes.
    k.run();
    assert_eq!(writes_done.get(), 2);
    assert_eq!(f.num_available(), 2);

    // Attach a consumer and drain.
    let sum = Rc::new(Cell::new(0u32));
    k.spawn("consumer", {
        let (k2, f, sum) = (k.clone(), f.clone(), sum.clone());
        async move {
            for _ in 0..4 {
                let v = f.read(&k2).await;
                sum.set(sum.get() + v);
            }
        }
    });
    k.run();
    assert_eq!(writes_done.get(), 4);
    assert_eq!(sum.get(), 1 + 2 + 3);
    assert_eq!(f.num_free(), 2);
}

#[test]
fn fifo_try_ops() {
    let k = Kernel::new();
    let f = k.fifo::<u8>("f", 1);
    assert_eq!(f.try_read(), None);
    assert!(f.try_write(9).is_ok());
    assert_eq!(f.try_write(10), Err(10));
    assert_eq!(f.try_read(), Some(9));
}

#[test]
fn clock_generates_edges_and_counts_cycles() {
    let k = Kernel::new();
    let clk = k.clock("clk", SimTime::from_ns(40));
    let levels = log();

    k.spawn("sampler", {
        let (k2, clk, levels) = (k.clone(), clk.clone(), levels.clone());
        async move {
            for _ in 0..3 {
                k2.wait(clk.posedge()).await;
                levels
                    .borrow_mut()
                    .push(format!("pos@{} lvl={}", k2.now(), clk.signal().read()));
            }
        }
    });
    k.run_until(SimTime::from_ns(200));
    assert_eq!(clk.cycles(), 5);
    let levels = levels.borrow();
    assert_eq!(
        levels.as_slice(),
        [
            "pos@20ns lvl=true",
            "pos@60ns lvl=true",
            "pos@100ns lvl=true"
        ]
    );
}

#[test]
fn two_clocked_processes_see_consistent_snapshot() {
    // Classic register-exchange: two processes swap values through signals
    // on each clock edge. With deferred updates they must swap cleanly, not
    // race.
    let k = Kernel::new();
    let clk = k.clock("clk", SimTime::from_ns(10));
    let a = k.signal("a", 1u32);
    let b = k.signal("b", 2u32);

    for (name, rd, wr) in [("pa", b.clone(), a.clone()), ("pb", a.clone(), b.clone())] {
        k.spawn(name, {
            let (k2, clk) = (k.clone(), clk.clone());
            async move {
                loop {
                    k2.wait(clk.posedge()).await;
                    wr.write(rd.read());
                }
            }
        });
    }
    // 3 rising edges: values swap 3 times.
    k.run_until(SimTime::from_ns(31));
    assert_eq!((a.read(), b.read()), (2, 1));
}

#[test]
fn stats_accumulate() {
    let k = Kernel::new();
    let s = k.signal("s", 0u32);
    k.spawn("p", {
        let (k2, s) = (k.clone(), s.clone());
        async move {
            for i in 0..10 {
                k2.wait_time(SimTime::from_ns(1)).await;
                s.write(i);
            }
        }
    });
    k.run();
    let st = k.stats();
    assert!(st.processes_polled >= 10);
    assert!(st.timed_steps >= 10);
    assert!(st.signal_updates >= 9);
    assert!(st.events_fired >= 9);
}

#[test]
fn set_now_bypasses_update_phase() {
    let k = Kernel::new();
    let s = k.signal("s", 0u32);
    s.set_now(5);
    assert_eq!(s.read(), 5); // visible without running
}

#[test]
fn trace_records_changes_with_time() {
    let k = Kernel::new();
    let s = k.signal("s", 0u32);
    let t = k.trace();
    s.attach_trace(&t);
    k.spawn("w", {
        let (k2, s) = (k.clone(), s.clone());
        async move {
            k2.wait_time(SimTime::from_ns(5)).await;
            s.write(1);
            k2.wait_time(SimTime::from_ns(5)).await;
            s.write(2);
        }
    });
    k.run();
    let recs = t.records_for("s");
    assert_eq!(recs.len(), 3); // initial + 2 changes
    assert_eq!(recs[1].time, SimTime::from_ns(5));
    assert_eq!(recs[2].time, SimTime::from_ns(10));
    assert_eq!(recs[2].value, "2");
}

#[test]
fn spawning_process_during_simulation_runs_it() {
    let k = Kernel::new();
    let child_ran = k.signal("child", false);
    k.spawn("parent", {
        let (k2, child_ran) = (k.clone(), child_ran.clone());
        async move {
            k2.wait_time(SimTime::from_ns(3)).await;
            let k3 = k2.clone();
            let child_ran2 = child_ran.clone();
            k2.spawn("child", async move {
                child_ran2.write(true);
                assert_eq!(k3.now(), SimTime::from_ns(3));
            });
        }
    });
    k.run();
    assert!(child_ran.read());
}

#[test]
fn starvation_terminates_run() {
    let k = Kernel::new();
    let ev = k.event("never");
    k.spawn("stuck", {
        let (k2, ev) = (k.clone(), ev.clone());
        async move {
            k2.wait(&ev).await;
            unreachable!("event never notified");
        }
    });
    k.run(); // must return, not hang
    assert_eq!(k.now(), SimTime::ZERO);
}

#[test]
fn method_process_reruns_on_sensitivity() {
    // A combinational method: y = a ^ b, re-evaluated on any change.
    let k = Kernel::new();
    let a = k.signal("a", false);
    let b = k.signal("b", false);
    let y = k.signal("y", false);
    k.spawn_method("xor_gate", &[a.changed(), b.changed()], {
        let (a, b, y) = (a.clone(), b.clone(), y.clone());
        move || y.write(a.read() ^ b.read())
    });
    k.run();
    assert!(!y.read());

    a.write(true);
    k.run();
    assert!(y.read());

    b.write(true);
    k.run();
    assert!(!y.read());

    // No change -> no re-evaluation artefacts.
    b.write(true);
    k.run();
    assert!(!y.read());
}

#[test]
fn method_processes_compose_combinationally() {
    // Two chained methods settle through delta cycles: z = !(a & b).
    let k = Kernel::new();
    let a = k.signal("a", false);
    let b = k.signal("b", false);
    let and_ab = k.signal("and_ab", false);
    let z = k.signal("z", true);
    k.spawn_method("and_gate", &[a.changed(), b.changed()], {
        let (a, b, and_ab) = (a.clone(), b.clone(), and_ab.clone());
        move || and_ab.write(a.read() & b.read())
    });
    k.spawn_method("inv_gate", &[and_ab.changed()], {
        let (and_ab, z) = (and_ab.clone(), z.clone());
        move || z.write(!and_ab.read())
    });
    a.write(true);
    b.write(true);
    k.run();
    assert!(!z.read());
    a.write(false);
    k.run();
    assert!(z.read());
}
