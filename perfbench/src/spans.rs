//! Outside-in tracing: host-time spans recorded around calls into the
//! simulator's public functions, and a [`Supervisor`] wrapper that times
//! the OS layer from outside.
//!
//! Spans stay in memory while the benchmark runs; [`Tracer::write_chrome`]
//! writes them out once at the end. A span's self time is its duration
//! minus the part of it its direct children cover.

use microscope_cpu::{FaultEvent, HwParts, InterruptEvent, Supervisor, SupervisorAction};
use std::any::Any;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// Span names, one per layer boundary the benchmark times.
pub mod name {
    /// One timed operation (the root of every per-op span tree).
    pub const OP: &str = "op";
    /// Set-up work before the first timed operation.
    pub const SETUP: &str = "setup";
    /// `SessionBuilder::build` (and the program assembly feeding it).
    pub const BUILD: &str = "core.build";
    /// `AttackSession::report`.
    pub const REPORT: &str = "core.report";
    /// `Machine::run` / `Machine::run_until`.
    pub const RUN: &str = "cpu.run";
    /// `Machine::restore`.
    pub const RESTORE: &str = "cpu.restore";
    /// `Machine::checkpoint`.
    pub const CHECKPOINT: &str = "cpu.checkpoint";
    /// `Supervisor::on_page_fault` of the session's kernel.
    pub const OS_FAULT: &str = "os.fault";
    /// `Supervisor::on_interrupt` of the session's kernel.
    pub const OS_INTERRUPT: &str = "os.interrupt";
    /// `probe::export::chrome_trace`.
    pub const EXPORT: &str = "probe.export";
}

/// One closed span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer boundary (one of [`name`]).
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
struct Buf {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Shared, single-threaded span recorder.
#[derive(Clone, Debug)]
pub struct Tracer(Rc<RefCell<Buf>>);

impl Default for Tracer {
    fn default() -> Self {
        Tracer(Rc::new(RefCell::new(Buf {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })))
    }
}

impl Tracer {
    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = {
            let mut b = self.0.borrow_mut();
            let id = b.spans.len();
            let parent = b.open.last().copied();
            let start_ns = b.origin.elapsed().as_nanos() as u64;
            b.spans.push(Span {
                name,
                parent,
                start_ns,
                end_ns: start_ns,
            });
            b.open.push(id);
            id
        };
        let out = f();
        let mut b = self.0.borrow_mut();
        b.spans[id].end_ns = b.origin.elapsed().as_nanos() as u64;
        b.open.pop();
        out
    }

    /// Number of spans recorded so far (an index for [`Tracer::count_since`]).
    pub fn len(&self) -> usize {
        self.0.borrow().spans.len()
    }

    /// Spans named one of `names` recorded from index `from` on.
    pub fn count_since(&self, from: usize, names: &[&str]) -> u64 {
        let b = self.0.borrow();
        b.spans[from..]
            .iter()
            .filter(|s| names.contains(&s.name))
            .count() as u64
    }

    /// Self-time totals of every span recorded.
    pub fn summary(&self) -> Summary {
        let b = self.0.borrow();
        let spans = &b.spans;
        let mut covered = vec![0u64; spans.len()];
        let mut root = vec![0usize; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            root[i] = match s.parent {
                Some(p) => {
                    covered[p] += s.dur_ns();
                    root[p]
                }
                None => i,
            };
        }
        let mut out = Summary::default();
        for (i, s) in spans.iter().enumerate() {
            let self_ns = s.dur_ns() - covered[i];
            let all = out.all.entry(s.name).or_default();
            all.calls += 1;
            all.self_ns += self_ns;
            if spans[root[i]].name == name::OP {
                let in_ops = out.in_ops.entry(s.name).or_default();
                in_ops.calls += 1;
                in_ops.self_ns += self_ns;
                if s.name == name::OP {
                    out.op_ns.push(s.dur_ns());
                }
            }
        }
        out
    }

    /// Writes every span as a Chrome trace (loadable in Perfetto).
    pub fn write_chrome(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        use std::fmt::Write;
        let b = self.0.borrow();
        let mut out = String::with_capacity(b.spans.len() * 80 + 256);
        let _ = write!(out, "{{\"otherData\":{header},\"traceEvents\":[");
        for (i, s) in b.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Calls and self time of one span name.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    /// Spans of this name.
    pub calls: u64,
    /// Their summed self time.
    pub self_ns: u64,
}

/// Self-time totals per span name.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// Over every span, set-up included.
    pub all: BTreeMap<&'static str, Agg>,
    /// Over spans inside timed operations only.
    pub in_ops: BTreeMap<&'static str, Agg>,
    /// Duration of each timed operation, in order.
    pub op_ns: Vec<u64>,
}

impl Summary {
    /// Mean self time per call of `name` over all spans, in µs.
    pub fn us_per_call(&self, name: &str) -> f64 {
        self.all
            .get(name)
            .map_or(0.0, |a| a.self_ns as f64 / 1e3 / a.calls.max(1) as f64)
    }

    /// Self time of `names` inside operations, in ms per operation.
    pub fn ms_per_op(&self, names: &[&str]) -> f64 {
        self.in_ops_ns(names) as f64 / 1e6 / self.op_ns.len().max(1) as f64
    }

    /// Self time of `names` inside operations, as a percentage of the
    /// operations' total duration.
    pub fn share(&self, names: &[&str]) -> f64 {
        let total: u64 = self.op_ns.iter().sum();
        100.0 * self.in_ops_ns(names) as f64 / total.max(1) as f64
    }

    /// Summed self time of `names` inside operations, in ns.
    pub fn in_ops_ns(&self, names: &[&str]) -> u64 {
        names
            .iter()
            .filter_map(|n| self.in_ops.get(n))
            .map(|a| a.self_ns)
            .sum()
    }

    /// Calls of `names` inside operations.
    pub fn in_ops_calls(&self, names: &[&str]) -> u64 {
        names
            .iter()
            .filter_map(|n| self.in_ops.get(n))
            .map(|a| a.calls)
            .sum()
    }
}

/// Wraps a session's supervisor: times `on_page_fault` and `on_interrupt`
/// and delegates everything, checkpoint hooks included, so the wrapped
/// machine behaves exactly as before.
pub struct TimedSupervisor {
    inner: Box<dyn Supervisor>,
    tracer: Tracer,
}

impl TimedSupervisor {
    /// Installs the wrapper around `machine`'s current supervisor.
    pub fn install(machine: &mut microscope_cpu::Machine, tracer: &Tracer) {
        let inner = machine.replace_supervisor(Box::new(microscope_cpu::NullSupervisor));
        machine.replace_supervisor(Box::new(TimedSupervisor {
            inner,
            tracer: tracer.clone(),
        }));
    }
}

impl Supervisor for TimedSupervisor {
    fn on_page_fault(&mut self, hw: &mut HwParts, ev: &FaultEvent) -> SupervisorAction {
        let inner = &mut self.inner;
        self.tracer
            .span(name::OS_FAULT, || inner.on_page_fault(hw, ev))
    }

    fn on_interrupt(&mut self, hw: &mut HwParts, ev: &InterruptEvent) -> SupervisorAction {
        let inner = &mut self.inner;
        self.tracer
            .span(name::OS_INTERRUPT, || inner.on_interrupt(hw, ev))
    }

    fn checkpoint(&self) -> Option<Box<dyn Any>> {
        self.inner.checkpoint()
    }

    fn restore_checkpoint(&mut self, state: &dyn Any) -> bool {
        self.inner.restore_checkpoint(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let t = Tracer::default();
        t.span(name::OP, || {
            t.span(name::RUN, || {
                t.span(name::OS_FAULT, || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            });
        });
        let s = t.summary();
        assert_eq!(s.op_ns.len(), 1);
        let total: u64 = s.in_ops.values().map(|a| a.self_ns).sum();
        assert_eq!(total, s.op_ns[0], "self times partition the op");
        assert!(s.in_ops[name::OS_FAULT].self_ns >= 2_000_000);
        assert!(s.in_ops[name::RUN].self_ns < s.in_ops[name::OS_FAULT].self_ns);
    }
}
