//! The checkpoint/fast-replay engine's contract, as properties:
//!
//! 1. **Restore is exact** — re-running a session from its armed
//!    [`MachineCheckpoint`](microscope::cpu::MachineCheckpoint) produces
//!    an [`AttackReport`](microscope::core::AttackReport) byte-identical
//!    (via `Debug`) to a cold re-execution of an identically built
//!    session, across arbitrary victims, replay counts and core configs.
//! 2. **Fast-forward is invisible** — idle-cycle clock jumps change
//!    nothing observable: cycle-by-cycle and fast-forwarded execution
//!    yield byte-identical reports (also enforced internally by
//!    `RunRequest::cross_checked`).
//! 3. **The probe ring counts its drops** — a ring too small for the
//!    event stream records `capacity` events and counts the rest, so
//!    `recorded + dropped` equals the full stream's length.
//! 4. **CoW restore is a deep-clone restore** — arbitrary interleaved
//!    dirty writes between capture and restore never leak through a
//!    copy-on-write snapshot: restoring it yields the same bytes a
//!    byte-for-byte deep copy taken at capture time holds.
//! 5. **Checkpoint cost is O(dirty pages)** — capture copies no page
//!    whatever the resident footprint, and a replay restores and copies
//!    exactly the pages it dirtied, pinned as work counters.

use microscope::channels::port_contention::{self, PortContentionConfig};
use microscope::core::{AttackReport, AttackSession, RunRequest, SessionBuilder};
use microscope::cpu::{AluOp, Assembler, ContextId, CoreConfig, Reg};
use microscope::mem::{PAddr, PhysMem, PteFlags, VAddr, PAGE_BYTES};
use microscope::os::WalkTuning;
use microscope::probe::RecorderConfig;
use proptest::prelude::*;

/// One generated victim: a handle load at a random position inside a
/// straight-line mix of ALU ops, loads and multiplies.
#[derive(Clone, Copy, Debug)]
struct Knobs {
    ops: u8,
    handle_frac: u8,
    replays: u64,
    rob_small: bool,
    walk_levels: u8,
    probe_capacity: usize,
}

fn arb_knobs() -> impl Strategy<Value = Knobs> {
    (4u8..24, 0u8..100, 1u64..10, 0u8..2, 1u8..5, 0u8..3).prop_map(
        |(ops, handle_frac, replays, rob_small, walk_levels, cap)| Knobs {
            ops,
            handle_frac,
            replays,
            rob_small: rob_small == 1,
            walk_levels,
            // Exercise tiny, wrapped and roomy rings.
            probe_capacity: [64, 1_000, 100_000][cap as usize],
        },
    )
}

/// Builds one session from the knobs (deterministic in the knobs, so two
/// calls produce identically behaving sessions).
fn build(k: &Knobs) -> AttackSession {
    let mut b = SessionBuilder::new();
    b.sim_mut().core = CoreConfig {
        rob_size: if k.rob_small { 64 } else { 224 },
        ..CoreConfig::default()
    };
    b.probe(RecorderConfig::with_capacity(k.probe_capacity));
    let aspace = b.new_aspace(1);
    let handle = VAddr(0x1000_0000);
    let data = VAddr(0x1000_2000);
    aspace.alloc_map(b.phys(), handle, 4096, PteFlags::user_data());
    aspace.alloc_map(b.phys(), data, 4096, PteFlags::user_data());
    let (hp, dp) = (Reg(14), Reg(13));
    let mut asm = Assembler::new();
    asm.imm(hp, handle.0).imm(dp, data.0);
    for r in 1..8u8 {
        asm.imm(Reg(r), u64::from(r) * 11 + 3);
    }
    let handle_pos = usize::from(k.ops) * usize::from(k.handle_frac) / 100;
    for i in 0..usize::from(k.ops) {
        if i == handle_pos {
            asm.load(Reg(15), hp, 0);
        }
        // A deterministic op mix keyed off the index: some ALU pressure,
        // some memory traffic, some multiplies to occupy ports.
        match i % 4 {
            0 => {
                asm.alu_imm(AluOp::Add, Reg(1 + (i % 7) as u8), Reg(1), i as u64);
            }
            1 => {
                asm.load(Reg(2 + (i % 5) as u8), dp, (i as i64 % 8) * 8);
            }
            2 => {
                asm.mul(Reg(3), Reg(2), Reg(1));
            }
            _ => {
                asm.store(Reg(4), dp, (i as i64 % 8) * 8);
            }
        }
    }
    asm.halt();
    b.victim(asm.finish(), aspace);
    let id = b.module().provide_replay_handle(ContextId(0), handle);
    {
        let recipe = b.module().recipe_mut(id);
        recipe.replays_per_step = k.replays;
        recipe.walk = WalkTuning::Length {
            levels: k.walk_levels,
        };
    }
    b.build().expect("generated session has a victim")
}

/// The byte-identity relation the ISSUE asks for: `AttackReport` has no
/// `PartialEq` (it aggregates trace events and metric registries), but
/// its `Debug` rendering covers every field, so equal strings mean equal
/// reports.
fn bytes(report: &AttackReport) -> String {
    format!("{report:?}")
}

const BUDGET: u64 = 40_000_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property 1: cold re-execution vs restore-from-checkpoint.
    #[test]
    fn rerun_from_checkpoint_matches_cold_execution(k in arb_knobs()) {
        let cold = bytes(
            &build(&k)
                .execute(RunRequest::cold(BUDGET))
                .expect("a cold run cannot fail"),
        );
        let mut session = build(&k);
        let first = session
            .execute(RunRequest::cold(BUDGET))
            .expect("a cold run cannot fail");
        prop_assert_eq!(&bytes(&first), &cold, "same build must replay identically");
        prop_assert!(session.armed_checkpoint().is_some(), "handle armed at build");
        for _ in 0..2 {
            let again = session
                .execute(RunRequest::cold(BUDGET).from_checkpoint())
                .expect("checkpoint captured");
            prop_assert_eq!(&bytes(&again), &cold, "rerun must be byte-identical to cold");
        }
        // The counters the CoW engine threads through the session must
        // never leak into the report (they differ between cold and warm
        // executions, and byte-identity above would be unprovable).
        let stats = session.checkpoint_metrics();
        prop_assert!(matches!(
            stats.get("checkpoint.restores"),
            Some(microscope::probe::MetricValue::Count(n)) if n >= 2
        ));
        prop_assert!(!cold.contains("checkpoint.restores"));
    }

    /// Property 2: fast-forward on vs off (both cold and rerun paths).
    #[test]
    fn fast_forward_is_observationally_invisible(k in arb_knobs()) {
        let mut slow = build(&k);
        slow.machine_mut().set_fast_forward(false);
        let slow_report = bytes(
            &slow
                .execute(RunRequest::cold(BUDGET))
                .expect("a cold run cannot fail"),
        );
        let mut fast = build(&k);
        let fast_report = bytes(
            &fast
                .execute(RunRequest::cold(BUDGET))
                .expect("a cold run cannot fail"),
        );
        prop_assert_eq!(&fast_report, &slow_report);
        // And the built-in cross-check mode agrees with itself.
        let mut checked = build(&k);
        checked
            .execute(RunRequest::cold(BUDGET))
            .expect("a cold run cannot fail");
        let report = checked
            .execute(RunRequest::cold(BUDGET).cross_checked())
            .expect("checkpoint captured");
        prop_assert_eq!(&bytes(&report), &slow_report);
    }

    /// Property 4: a CoW snapshot restores exactly what a byte-for-byte
    /// deep copy taken at the same instant holds, no matter what dirty
    /// writes (to old pages or freshly allocated ones) land in between.
    #[test]
    fn cow_restore_matches_deep_clone_restore(
        seed_writes in prop::collection::vec((0u64..8, 0u64..PAGE_BYTES, 0u8..255), 1..64),
        dirty_writes in prop::collection::vec((0u64..12, 0u64..PAGE_BYTES, 0u8..255), 1..128),
    ) {
        let mut phys = PhysMem::new();
        let base = phys.alloc_frames(8);
        for &(frame, off, v) in &seed_writes {
            phys.write_u8(PAddr((base + frame) * PAGE_BYTES + off), v);
        }

        // Deep clone: every resident byte, copied out by hand.
        let deep: Vec<Vec<u8>> = (0..8)
            .map(|frame| {
                let mut page = vec![0u8; PAGE_BYTES as usize];
                phys.read_bytes(PAddr((base + frame) * PAGE_BYTES), &mut page);
                page
            })
            .collect();
        // CoW clone: one Arc bump.
        let snap = phys.clone();
        phys.begin_epoch();

        // Interleave dirty writes over the original: the first 8 frames
        // are shared with `snap`, the rest are fresh allocations.
        let extra = phys.alloc_frames(4);
        for &(frame, off, v) in &dirty_writes {
            let pa = if frame < 8 {
                (base + frame) * PAGE_BYTES + off
            } else {
                (extra + frame - 8) * PAGE_BYTES + off
            };
            phys.write_u8(PAddr(pa), v);
        }

        // Restore is a clone of the snapshot — and must equal the deep copy.
        let dirtied = phys.epoch_dirty_pages();
        phys = snap.clone();
        for (frame, want) in deep.iter().enumerate() {
            let mut got = vec![0u8; PAGE_BYTES as usize];
            phys.read_bytes(PAddr((base + frame as u64) * PAGE_BYTES), &mut got);
            prop_assert_eq!(&got, want, "frame {} diverged after CoW restore", frame);
        }
        // Restore cost is bounded by what was actually dirtied, never the
        // resident footprint.
        prop_assert!(dirtied <= dirty_writes.len() as u64 + 4);
    }
}

/// The monitor path (SMT sibling sampling + step interrupts) round-trips
/// through the checkpoint too: a checkpointed monitor-done request
/// reproduces the cold monitor-done report of an identically built
/// session.
#[test]
fn monitor_session_rerun_matches_cold() {
    let cfg = PortContentionConfig {
        samples: 80,
        replays: 60,
        handler_cycles: 500,
        walk: WalkTuning::Long,
        max_cycles: 20_000_000,
        ambient_interrupt_retires: Some(5_000),
        probe: Some(RecorderConfig::with_capacity(50_000)),
    };
    let cold = {
        let mut s = port_contention::build_session(true, &cfg);
        bytes(
            &s.execute(RunRequest::cold(cfg.max_cycles).until_monitor_done())
                .expect("monitor installed"),
        )
    };
    let mut s = port_contention::build_session(true, &cfg);
    let first = bytes(
        &s.execute(RunRequest::cold(cfg.max_cycles).until_monitor_done())
            .expect("monitor installed"),
    );
    assert_eq!(first, cold);
    let again = bytes(
        &s.execute(
            RunRequest::cold(cfg.max_cycles)
                .until_monitor_done()
                .from_checkpoint(),
        )
        .expect("checkpoint captured on first run"),
    );
    assert_eq!(again, cold);
}

/// Property 3: the ring's counted-drops invariant. A roomy ring captures
/// the whole stream; a tiny ring over the same execution must satisfy
/// `recorded == capacity` and `recorded + dropped == full stream length`.
#[test]
fn probe_ring_overflow_counts_every_dropped_event() {
    let k = Knobs {
        ops: 20,
        handle_frac: 40,
        replays: 8,
        rob_small: false,
        walk_levels: 4,
        probe_capacity: 1_000_000,
    };
    let full = build(&k)
        .execute(RunRequest::cold(BUDGET))
        .expect("a cold run cannot fail");
    assert_eq!(full.dropped_events, 0, "roomy ring must not drop");
    let emitted = full.trace.len() as u64;

    let tiny_cap = 128u64;
    let tiny = build(&Knobs {
        probe_capacity: tiny_cap as usize,
        ..k
    })
    .execute(RunRequest::cold(BUDGET))
    .expect("a cold run cannot fail");
    assert!(emitted > tiny_cap, "workload must overflow the tiny ring");
    assert_eq!(
        tiny.trace.len() as u64,
        tiny_cap,
        "ring keeps exactly capacity"
    );
    assert_eq!(
        tiny.dropped_events,
        emitted - tiny.trace.len() as u64,
        "events_dropped must equal emitted minus recorded"
    );
}

/// A one-load victim on a replay handle (two replays per step), with
/// `extra_pages` frames written beyond it so the resident footprint
/// scales while the workload stays the same.
fn footprint_session(extra_pages: u64) -> AttackSession {
    let mut b = SessionBuilder::new();
    let aspace = b.new_aspace(1);
    let handle = VAddr(0x1000_0000);
    aspace.alloc_map(b.phys(), handle, 4096, PteFlags::user_data());
    let mut asm = Assembler::new();
    asm.imm(Reg(1), handle.0).load(Reg(2), Reg(1), 0).halt();
    b.victim(asm.finish(), aspace);
    let id = b.module().provide_replay_handle(ContextId(0), handle);
    b.module().recipe_mut(id).replays_per_step = 2;
    let base = b.phys().alloc_frames(extra_pages);
    for i in 0..extra_pages {
        b.phys().write_u8(PAddr((base + i) * PAGE_BYTES), 0xA5);
    }
    b.build().expect("footprint session has a victim")
}

/// Runs `session` cold, then `replays` times from its armed checkpoint,
/// and returns what the replays added to the checkpoint engine's
/// `(restores, restore_pages, pages_cow)`.
fn replay_page_costs(
    session: &mut AttackSession,
    max_cycles: u64,
    replays: u64,
) -> (u64, u64, u64) {
    session
        .execute(RunRequest::cold(max_cycles))
        .expect("a cold run cannot fail");
    let before = session.machine().checkpoint_stats();
    for _ in 0..replays {
        session
            .execute(RunRequest::cold(max_cycles).from_checkpoint())
            .expect("the cold run armed the replay handle");
    }
    let after = session.machine().checkpoint_stats();
    (
        after.restores - before.restores,
        after.restore_pages - before.restore_pages,
        after.pages_cow - before.pages_cow,
    )
}

/// Property 5, as exact host-independent counters: capture shares every
/// page at 64 and at 512 extra resident pages, and a replay's restore
/// and copy-on-write cost depends on the pages it dirties, not on the
/// footprint.
#[test]
fn checkpoint_page_costs_are_pinned() {
    for (extra, resident) in [(64, 68), (512, 516)] {
        let session = footprint_session(extra);
        let phys = &session.machine().hw().phys;
        assert_eq!(phys.resident_pages(), resident);
        let (cow, tables) = (phys.cow_copied_pages(), phys.table_copies());
        let snaps: Vec<_> = (0..100).map(|_| session.machine().checkpoint()).collect();
        let phys = &session.machine().hw().phys;
        assert_eq!(phys.cow_copied_pages(), cow, "capture copied pages");
        assert_eq!(phys.table_copies(), tables, "capture copied the page table");
        // The last frame allocated is the last extra page.
        assert!(
            phys.page_is_shared(phys.frames_allocated()),
            "capture shares pages"
        );
        drop(snaps);

        let mut session = footprint_session(extra);
        let costs = replay_page_costs(&mut session, BUDGET, 5);
        assert_eq!(costs, (5, 20, 20), "{extra} extra pages");
    }

    let cfg = PortContentionConfig {
        samples: 32,
        replays: 60,
        handler_cycles: 800,
        walk: WalkTuning::Long,
        max_cycles: 30_000_000,
        ambient_interrupt_retires: None,
        probe: None,
    };
    let mut session = port_contention::build_session(true, &cfg);
    let costs = replay_page_costs(&mut session, cfg.max_cycles, 12);
    assert_eq!(costs, (12, 120, 96));
    // The page table the first write after each restore copies: one `Rc`
    // per resident page.
    assert_eq!(session.machine().hw().phys.resident_pages(), 11);
}
