//! The cross-layer event taxonomy.
//!
//! Every simulator layer reports what it did through one of these
//! variants; the probe stamps each record with the simulated cycle, the
//! originating hardware context (where meaningful) and the current replay
//! index, so a whole attack can be read as a single ordered stream.

use crate::json;
use std::fmt;

/// Which layer of the simulator emitted an event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// Out-of-order core: fetch/issue/complete/retire/squash/fault.
    Cpu,
    /// MMU: TLB lookups, hardware page walks, PWC.
    Mem,
    /// Cache hierarchy: per-level hits/misses, flushes, back-invalidations.
    Cache,
    /// OS / MicroScope kernel module: arming, present-bit flips, handler
    /// trampoline, replay and pivot bookkeeping.
    Os,
    /// Attack session orchestration: run boundaries, monitor samples.
    Session,
}

impl Layer {
    /// All layers, in display order.
    pub const ALL: [Layer; 5] = [
        Layer::Cpu,
        Layer::Mem,
        Layer::Cache,
        Layer::Os,
        Layer::Session,
    ];
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why the pipeline was squashed.
///
/// Lives here (rather than in `microscope-cpu`, which re-exports it) so
/// non-cpu layers can talk about squashes without depending on the core.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SquashCause {
    /// A page fault retired — the MicroScope replay mechanism.
    PageFault,
    /// A branch resolved against its prediction (§7.2 bounded replays).
    Mispredict,
    /// A transaction aborted (§7.1 TSX replay handle).
    TxnAbort,
    /// A timer interrupt was delivered (CacheZoom/SGX-Step stepping).
    Interrupt,
}

impl SquashCause {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            SquashCause::PageFault => "page-fault",
            SquashCause::Mispredict => "mispredict",
            SquashCause::TxnAbort => "txn-abort",
            SquashCause::Interrupt => "interrupt",
        }
    }
}

impl fmt::Display for SquashCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which level of the memory system served an access.
///
/// Mirrors the cache crate's `Level` without depending on it (probe sits
/// below every other crate in the dependency graph).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CacheTier {
    /// L1 data cache.
    L1,
    /// Unified L2.
    L2,
    /// Shared L3.
    L3,
    /// DRAM.
    Memory,
}

impl CacheTier {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            CacheTier::L1 => "l1",
            CacheTier::L2 => "l2",
            CacheTier::L3 => "l3",
            CacheTier::Memory => "dram",
        }
    }
}

impl fmt::Display for CacheTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What happened. Field types are primitive on purpose: the probe crate
/// sits below every other crate, so addresses arrive as raw `u64`s.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    // ---- cpu ----
    /// An instruction entered the ROB.
    Fetch {
        /// Global sequence number.
        seq: u64,
        /// Program counter.
        pc: u64,
    },
    /// An instruction began executing on a port.
    Issue {
        /// Global sequence number.
        seq: u64,
        /// Program counter.
        pc: u64,
    },
    /// An instruction's result materialized.
    Complete {
        /// Global sequence number.
        seq: u64,
    },
    /// An instruction retired architecturally.
    Retire {
        /// Global sequence number.
        seq: u64,
        /// Program counter.
        pc: u64,
    },
    /// The pipeline was squashed.
    Squash {
        /// Why.
        cause: SquashCause,
        /// How many in-flight instructions were discarded — the length of
        /// the speculative window for page-fault squashes.
        discarded: u64,
    },
    /// A precise fault was raised at the ROB head.
    FaultRaised {
        /// Faulting virtual address.
        vaddr: u64,
        /// Faulting instruction's pc.
        pc: u64,
    },
    /// The OS fault/interrupt handler returned to the victim.
    HandlerReturn {
        /// Simulated cycles the handler consumed.
        handler_cycles: u64,
    },

    // ---- mem ----
    /// A TLB hierarchy lookup.
    TlbLookup {
        /// Virtual page number.
        vpn: u64,
        /// Whether any TLB level hit.
        hit: bool,
        /// Lookup latency in cycles.
        latency: u64,
    },
    /// The hardware walker began a page walk.
    WalkStart {
        /// Virtual address being translated.
        vaddr: u64,
    },
    /// The walker accessed one page-table level.
    WalkStep {
        /// Level index (0 = PGD .. 3 = PTE).
        level: u8,
        /// Whether the page-walk cache short-circuited this level.
        pwc_hit: bool,
        /// Cycles this step cost.
        latency: u64,
    },
    /// The walker finished.
    WalkEnd {
        /// Virtual address translated.
        vaddr: u64,
        /// Total walk latency in cycles.
        latency: u64,
        /// Whether the walk ended in a page fault.
        faulted: bool,
    },

    // ---- cache ----
    /// A line access was served.
    CacheAccess {
        /// Line address (byte address >> 6).
        line: u64,
        /// Which level served it.
        tier: CacheTier,
        /// Access latency in cycles.
        latency: u64,
    },
    /// A line was flushed from the whole hierarchy (clflush-style).
    CacheFlush {
        /// Line address.
        line: u64,
    },
    /// An L3 eviction back-invalidated inner copies.
    BackInvalidate {
        /// Line address.
        line: u64,
    },

    // ---- os / module ----
    /// A recipe was armed: its handle page's Present bit is now clear.
    RecipeArmed {
        /// Recipe id.
        recipe: u32,
        /// Replay-handle virtual address.
        vaddr: u64,
    },
    /// The module cleared a Present bit.
    PresentCleared {
        /// Virtual address of the page.
        vaddr: u64,
    },
    /// The module restored a Present bit (handle or pivot release).
    PresentSet {
        /// Virtual address of the page.
        vaddr: u64,
    },
    /// PTE lines + PWC + TLB entry flushed for a page (shootdown).
    TlbShootdown {
        /// Virtual address of the page.
        vaddr: u64,
    },
    /// The fault-handler trampoline claimed a fault on an armed page.
    HandlerEnter {
        /// Faulting virtual address.
        vaddr: u64,
    },
    /// One replay cycle completed; the ambient replay index advances.
    Replay {
        /// Recipe id.
        recipe: u32,
        /// 1-based replay number within the current step.
        replay: u64,
    },
    /// The module probed a monitor address after a replay.
    MonitorProbe {
        /// Probed virtual address.
        vaddr: u64,
        /// Observed access latency.
        latency: u64,
    },
    /// The pivot engine advanced the attack by one step.
    PivotStep {
        /// Recipe id.
        recipe: u32,
        /// Steps completed so far.
        step: u64,
    },
    /// A recipe finished and disarmed.
    RecipeFinished {
        /// Recipe id.
        recipe: u32,
        /// Total replays it performed.
        replays: u64,
    },
    /// The kernel serviced a fault the module did not claim.
    HonestFault {
        /// Faulting virtual address.
        vaddr: u64,
    },

    // ---- session ----
    /// An attack session started running.
    SessionStart {
        /// Number of hardware contexts.
        contexts: u32,
    },
    /// The session's run loop ended.
    RunEnd {
        /// Cycle count at exit.
        cycles: u64,
        /// Whether every context halted.
        all_halted: bool,
    },
    /// One monitor sample read back from the victim's buffer.
    MonitorSample {
        /// Sample index.
        index: u64,
        /// Measured latency delta.
        value: u64,
    },
}

/// The kind table: each layer's name and Chrome-trace pid, then the name
/// of every kind it emits. [`Layer::name`], [`EventKind::layer`],
/// [`EventKind::name`] and the exporters' per-kind record prefixes all
/// come from it; the prefixes are assembled at compile time, so an
/// exporter pushes one literal per record for its name, layer and pid.
macro_rules! kind_table {
    ($($layer:ident = $lname:literal, pid $pid:literal {
        $($kind:ident = $kname:literal,)*
    })*) => {
        impl Layer {
            /// Stable lowercase name (used by the exporters).
            pub fn name(self) -> &'static str {
                match self {
                    $(Layer::$layer => $lname,)*
                }
            }

            /// The layer's "process" id in the Chrome trace.
            pub(crate) fn pid(self) -> u32 {
                match self {
                    $(Layer::$layer => $pid,)*
                }
            }
        }

        impl EventKind {
            /// The layer this kind belongs to.
            pub fn layer(&self) -> Layer {
                match self {
                    $($(EventKind::$kind { .. } => Layer::$layer,)*)*
                }
            }

            /// Stable event name (used by the exporters).
            pub fn name(&self) -> &'static str {
                match self {
                    $($(EventKind::$kind { .. } => $kname,)*)*
                }
            }

            /// A Chrome-trace instant record up to its `tid` value,
            /// preceded by the comma that separates it from the record
            /// before.
            pub(crate) fn chrome_prefix(&self) -> &'static str {
                match self {
                    $($(EventKind::$kind { .. } => concat!(
                        ",{\"ph\":\"i\",\"s\":\"t\",\"name\":\"", $kname,
                        "\",\"cat\":\"", $lname, "\",\"pid\":", $pid, ",\"tid\":"
                    ),)*)*
                }
            }

            /// The `layer` and `event` members of a JSONL record, each
            /// preceded by a comma.
            pub(crate) fn jsonl_members(&self) -> &'static str {
                match self {
                    $($(EventKind::$kind { .. } => concat!(
                        ",\"layer\":\"", $lname, "\",\"event\":\"", $kname, "\""
                    ),)*)*
                }
            }
        }
    };
}

kind_table! {
    Cpu = "cpu", pid 1 {
        Fetch = "fetch",
        Issue = "issue",
        Complete = "complete",
        Retire = "retire",
        Squash = "squash",
        FaultRaised = "fault",
        HandlerReturn = "handler-return",
    }
    Mem = "mem", pid 2 {
        TlbLookup = "tlb-lookup",
        WalkStart = "walk-start",
        WalkStep = "walk-step",
        WalkEnd = "walk-end",
    }
    Cache = "cache", pid 3 {
        CacheAccess = "cache-access",
        CacheFlush = "cache-flush",
        BackInvalidate = "back-invalidate",
    }
    Os = "os", pid 4 {
        RecipeArmed = "recipe-armed",
        PresentCleared = "present-cleared",
        PresentSet = "present-set",
        TlbShootdown = "tlb-shootdown",
        HandlerEnter = "handler-enter",
        Replay = "replay",
        MonitorProbe = "monitor-probe",
        PivotStep = "pivot-step",
        RecipeFinished = "recipe-finished",
        HonestFault = "honest-fault",
    }
    Session = "session", pid 5 {
        SessionStart = "session-start",
        RunEnd = "run-end",
        MonitorSample = "monitor-sample",
    }
}

impl EventKind {
    /// Appends this kind's payload as JSON object members (no braces),
    /// e.g. `"seq":12,"pc":3`. Every kind has at least one member.
    pub(crate) fn write_args_json<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        use EventKind::*;
        let num = |out: &mut W, key: &str, v: u64| {
            out.write_str(key)?;
            json::write_u64(out, v)
        };
        let flag = |out: &mut W, key: &str, v: bool| {
            out.write_str(key)?;
            out.write_str(if v { "true" } else { "false" })
        };
        match *self {
            Fetch { seq, pc } | Issue { seq, pc } | Retire { seq, pc } => {
                num(out, "\"seq\":", seq)?;
                num(out, ",\"pc\":", pc)
            }
            Complete { seq } => num(out, "\"seq\":", seq),
            Squash { cause, discarded } => {
                out.write_str("\"cause\":\"")?;
                out.write_str(cause.name())?;
                num(out, "\",\"discarded\":", discarded)
            }
            FaultRaised { vaddr, pc } => {
                num(out, "\"vaddr\":", vaddr)?;
                num(out, ",\"pc\":", pc)
            }
            HandlerReturn { handler_cycles } => num(out, "\"handler_cycles\":", handler_cycles),
            TlbLookup { vpn, hit, latency } => {
                num(out, "\"vpn\":", vpn)?;
                flag(out, ",\"hit\":", hit)?;
                num(out, ",\"latency\":", latency)
            }
            WalkStep {
                level,
                pwc_hit,
                latency,
            } => {
                num(out, "\"level\":", level.into())?;
                flag(out, ",\"pwc_hit\":", pwc_hit)?;
                num(out, ",\"latency\":", latency)
            }
            WalkEnd {
                vaddr,
                latency,
                faulted,
            } => {
                num(out, "\"vaddr\":", vaddr)?;
                num(out, ",\"latency\":", latency)?;
                flag(out, ",\"faulted\":", faulted)
            }
            CacheAccess {
                line,
                tier,
                latency,
            } => {
                num(out, "\"line\":", line)?;
                out.write_str(",\"tier\":\"")?;
                out.write_str(tier.name())?;
                num(out, "\",\"latency\":", latency)
            }
            CacheFlush { line } | BackInvalidate { line } => num(out, "\"line\":", line),
            RecipeArmed { recipe, vaddr } => {
                num(out, "\"recipe\":", recipe.into())?;
                num(out, ",\"vaddr\":", vaddr)
            }
            WalkStart { vaddr }
            | PresentCleared { vaddr }
            | PresentSet { vaddr }
            | TlbShootdown { vaddr }
            | HandlerEnter { vaddr }
            | HonestFault { vaddr } => num(out, "\"vaddr\":", vaddr),
            Replay { recipe, replay } => {
                num(out, "\"recipe\":", recipe.into())?;
                num(out, ",\"replay\":", replay)
            }
            MonitorProbe { vaddr, latency } => {
                num(out, "\"vaddr\":", vaddr)?;
                num(out, ",\"latency\":", latency)
            }
            PivotStep { recipe, step } => {
                num(out, "\"recipe\":", recipe.into())?;
                num(out, ",\"step\":", step)
            }
            RecipeFinished { recipe, replays } => {
                num(out, "\"recipe\":", recipe.into())?;
                num(out, ",\"replays\":", replays)
            }
            SessionStart { contexts } => num(out, "\"contexts\":", contexts.into()),
            RunEnd { cycles, all_halted } => {
                num(out, "\"cycles\":", cycles)?;
                flag(out, ",\"all_halted\":", all_halted)
            }
            MonitorSample { index, value } => {
                num(out, "\"index\":", index)?;
                num(out, ",\"value\":", value)
            }
        }
    }
}

/// One record on the bus.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Simulated cycle the event was recorded at.
    pub cycle: u64,
    /// Originating hardware context, when one is meaningful.
    pub ctx: Option<u32>,
    /// Ambient replay index (0 before the first replay completes; replay
    /// *N* means "during the N-th replay cycle of the current step").
    pub replay: u64,
    /// What happened.
    pub kind: EventKind,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>8}] {:<7} r{:<3} {}",
            self.cycle,
            self.kind.layer(),
            self.replay,
            self.kind.name()
        )?;
        if let Some(c) = self.ctx {
            write!(f, " ctx{c}")?;
        }
        f.write_str(" {")?;
        self.kind.write_args_json(f)?;
        f.write_str("}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_maps_to_its_layer() {
        assert_eq!(EventKind::Fetch { seq: 1, pc: 2 }.layer(), Layer::Cpu);
        assert_eq!(
            EventKind::TlbLookup {
                vpn: 1,
                hit: true,
                latency: 1
            }
            .layer(),
            Layer::Mem
        );
        assert_eq!(
            EventKind::CacheAccess {
                line: 1,
                tier: CacheTier::L1,
                latency: 4
            }
            .layer(),
            Layer::Cache
        );
        assert_eq!(
            EventKind::Replay {
                recipe: 0,
                replay: 3
            }
            .layer(),
            Layer::Os
        );
        assert_eq!(
            EventKind::MonitorSample { index: 0, value: 9 }.layer(),
            Layer::Session
        );
    }

    #[test]
    fn display_is_compact_and_stable() {
        let e = Event {
            cycle: 120,
            ctx: Some(0),
            replay: 2,
            kind: EventKind::Squash {
                cause: SquashCause::PageFault,
                discarded: 17,
            },
        };
        let s = e.to_string();
        assert!(s.contains("page-fault"), "{s}");
        assert!(s.contains("17"), "{s}");
        assert!(s.contains("cpu"), "{s}");
        assert_eq!(
            s,
            "[     120] cpu r2   squash ctx0 {\"cause\":\"page-fault\",\"discarded\":17}"
        );
        let e = Event {
            cycle: 7,
            ctx: None,
            replay: 0,
            kind: EventKind::TlbLookup {
                vpn: u64::MAX,
                hit: true,
                latency: 0,
            },
        };
        assert_eq!(
            e.to_string(),
            "[       7] mem r0   tlb-lookup {\"vpn\":18446744073709551615,\"hit\":true,\"latency\":0}"
        );
    }
}
