//! Signal primitive channels with evaluate/update semantics.

use crate::event::Event;
use crate::sched::Updatable;
use crate::trace::Trace;
use crate::{Kernel, SimTime};
use std::cell::{Cell, RefCell};
use std::fmt::Debug;
use std::rc::Rc;

/// A primitive channel with deferred-update semantics (`sc_signal<T>`).
///
/// Writes are staged and only become visible to readers in the *update
/// phase* at the end of the current delta cycle — so every process in one
/// evaluate phase sees a consistent snapshot, which is the property that
/// makes clocked RTL-style modelling race-free.
///
/// Cloning a `Signal` clones the handle; all clones share the same channel.
///
/// # Example
///
/// ```
/// use scflow_kernel::{Kernel, SimTime};
///
/// let k = Kernel::new();
/// let s = k.signal("s", 0u8);
/// s.write(7);
/// assert_eq!(s.read(), 0); // not yet updated
/// k.run();                 // one delta: update phase commits the write
/// assert_eq!(s.read(), 7);
/// ```
pub struct Signal<T> {
    inner: Rc<SigInner<T>>,
    kernel: Kernel,
}

impl<T> Clone for Signal<T> {
    fn clone(&self) -> Self {
        Signal {
            inner: self.inner.clone(),
            kernel: self.kernel.clone(),
        }
    }
}

struct SigInner<T> {
    name: String,
    current: RefCell<T>,
    next: RefCell<Option<T>>,
    update_pending: Cell<bool>,
    changed: Event,
    trace: RefCell<Option<Trace>>,
}

impl<T: Clone + PartialEq + Debug + 'static> Signal<T> {
    pub(crate) fn new(kernel: &Kernel, name: String, initial: T) -> Self {
        let changed = kernel.event(format!("{name}.changed"));
        Signal {
            inner: Rc::new(SigInner {
                name,
                current: RefCell::new(initial),
                next: RefCell::new(None),
                update_pending: Cell::new(false),
                changed,
                trace: RefCell::new(None),
            }),
            kernel: kernel.clone(),
        }
    }

    /// The signal's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Reads the current (committed) value.
    pub fn read(&self) -> T {
        self.inner.current.borrow().clone()
    }

    /// Stages a write; it becomes visible after the next update phase.
    ///
    /// The last write in a delta cycle wins, like `sc_signal`.
    pub fn write(&self, value: T) {
        *self.inner.next.borrow_mut() = Some(value);
        if !self.inner.update_pending.get() {
            self.inner.update_pending.set(true);
            self.kernel
                .sched
                .borrow_mut()
                .updates
                .push(self.inner.clone() as Rc<dyn Updatable>);
        }
    }

    /// Writes immediately, bypassing the update phase.
    ///
    /// Intended for testbench code *between* [`Kernel::run`] calls; using
    /// it from inside processes reintroduces evaluation-order races.
    pub fn set_now(&self, value: T) {
        let changed = *self.inner.current.borrow() != value;
        *self.inner.current.borrow_mut() = value;
        if changed {
            self.inner.changed.notify_delta();
        }
    }

    /// The value-changed event, notified in the delta cycle after each
    /// committed change.
    pub fn changed(&self) -> &Event {
        &self.inner.changed
    }

    /// Attaches this signal to a [`Trace`]; every committed change is
    /// recorded with the current simulated time.
    pub fn attach_trace(&self, trace: &Trace) {
        trace.record(
            SimTime::ZERO,
            &self.inner.name,
            format!("{:?}", self.read()),
        );
        *self.inner.trace.borrow_mut() = Some(trace.clone());
    }
}

impl<T: Clone + PartialEq + Debug + 'static> Updatable for SigInner<T> {
    fn apply(&self, now: SimTime) -> Option<usize> {
        self.update_pending.set(false);
        let next = self.next.borrow_mut().take()?;
        let changed = *self.current.borrow() != next;
        if changed {
            if let Some(trace) = self.trace.borrow().as_ref() {
                trace.record(now, &self.name, format!("{next:?}"));
            }
            *self.current.borrow_mut() = next;
            // Delta-notify via the scheduler's collected list (the caller
            // adds it), so waiters wake in the next delta.
            return Some(self.changed.id());
        }
        None
    }
}

impl<T: Clone + PartialEq + Debug + 'static> Debug for Signal<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Signal({}={:?})", self.inner.name, self.read())
    }
}
