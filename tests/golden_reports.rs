//! Golden digests of complete runs, pinned to the exact cycle-level timing
//! of the out-of-order core.
//!
//! Each case runs one session (or bare machine) and hashes the `Debug`
//! rendering of everything it produced: the full `AttackReport` for
//! sessions, and statistics + architectural registers + the probe event
//! stream for bare machines. The digests were recorded before the core's
//! scheduler became event-driven; any change to when an instruction
//! issues, completes, squashes or retires changes them.
//!
//! The cases are picked to reach every gating path of the issue stage and
//! every squash source of the complete and retire stages:
//!
//! * Figure-10 port contention (both SMT contexts busy, the monitor's
//!   ambient stepping interrupt), cold and replayed from the armed
//!   checkpoint;
//! * Figure-10 with deferred arming, cold and replayed: the checkpoint is
//!   captured mid-run at the arming interrupt of a run that stops when the
//!   monitor halts;
//! * one AES extraction with deferred arming (the victim's own stepping
//!   interrupt, pivots, walks, primes), cold and replayed from the
//!   checkpoint captured after `SessionStart`;
//! * one 48-step AES extraction armed at build (the benchmark's
//!   `aes_extract` op: every replay probes and re-primes 64 table lines);
//! * fence-after-pipeline-flush (the post-flush blocker);
//! * fenced and unfenced RDRAND (the execute-at-head gate) under a
//!   selective replayer;
//! * a TSX write-set eviction handle (transaction aborts from the retire
//!   stage's conflict check);
//! * modular exponentiation (a mispredict-heavy victim);
//! * invisible speculation (fills deferred to retirement);
//! * a store-heavy victim with younger loads (memory disambiguation).
//!
//! A second table pins the bytes of the probe's Chrome-trace and JSONL
//! exporters, on the Figure-10 traces and on a synthetic stream holding
//! every event kind with extreme field values.
//!
//! To re-derive the tables after an *intended* change, run
//! `cargo test --test golden_reports -- --nocapture` and copy the printed
//! digests.

use microscope::channels::aes_attack::{self, AesAttackConfig};
use microscope::channels::modexp_attack::{self, ModExpAttackConfig};
use microscope::channels::port_contention::{self, PortContentionConfig};
use microscope::core::{AttackReport, AttackSession, RunRequest, SessionBuilder, SimConfig};
use microscope::cpu::{
    AluOp, Assembler, Cond, ContextId, CoreConfig, FaultEvent, HwParts, InterruptEvent, Machine,
    MachineBuilder, Reg, Supervisor, SupervisorAction,
};
use microscope::mem::{AddressSpace, PhysMem, PteFlags, VAddr, LINE_BYTES};
use microscope::os::WalkTuning;
use microscope::probe::json::{self, Json};
use microscope::probe::{
    export, timeline, CacheTier, Event, EventKind, Layer, Probe, RecorderConfig, SquashCause,
};
use microscope::victims::layout::DataLayout;
use microscope::victims::{aes, control_flow, rdrand};

/// 64-bit FNV-1a.
fn fnv(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn report_digest(report: &AttackReport) -> u64 {
    fnv(&format!("{report:?}"))
}

/// Statistics, registers and the full probe event stream of a bare
/// machine run.
fn machine_digest(m: &Machine) -> u64 {
    let regs: Vec<Vec<u64>> = (0..m.context_count())
        .map(|c| {
            (0..Reg::COUNT as u8)
                .map(|r| m.context(ContextId(c)).reg(Reg(r)))
                .collect()
        })
        .collect();
    fnv(&format!(
        "{:?} {:?} {:?}",
        m.stats(),
        regs,
        m.probe().events()
    ))
}

fn fig10_cfg() -> PortContentionConfig {
    PortContentionConfig {
        samples: 300,
        probe: Some(RecorderConfig::with_capacity(400_000)),
        ..PortContentionConfig::default()
    }
}

/// The report of a freshly built Figure-10 session's first execution.
fn fig10_cold_report(secret: bool) -> AttackReport {
    let cfg = fig10_cfg();
    let report = port_contention::build_session(secret, &cfg)
        .execute(RunRequest::cold(cfg.max_cycles).until_monitor_done())
        .expect("port-contention session has a monitor");
    assert_eq!(report.monitor_samples.len(), 300);
    assert!(report.module.replays.iter().sum::<u64>() > 0);
    report
}

/// Figure 10, cold: the first execution of a freshly built session.
fn fig10_cold(secret: bool) -> u64 {
    report_digest(&fig10_cold_report(secret))
}

/// Figure 10, warm: a second execution replayed from the armed checkpoint.
fn fig10_warm(secret: bool) -> u64 {
    let cfg = fig10_cfg();
    let mut session = port_contention::build_session(secret, &cfg);
    let req = RunRequest::cold(cfg.max_cycles).until_monitor_done();
    session.execute(req).expect("cold run");
    let report = session
        .execute(req.from_checkpoint())
        .expect("checkpoint captured");
    report_digest(&report)
}

/// `port_contention::build_session` for the multiplication victim, with
/// arming deferred until the victim has retired `retires` instructions.
fn fig10_deferred_session(cfg: &PortContentionConfig, retires: u64) -> AttackSession {
    let mut b = SessionBuilder::new();
    b.probe(cfg.probe.expect("fig10_cfg records"));
    let victim_asp = b.new_aspace(1);
    let monitor_asp = b.new_aspace(2);
    let (victim_prog, victim_layout) =
        control_flow::build(b.phys(), victim_asp, VAddr(0x1000_0000), false);
    let (monitor_prog, buffer) =
        port_contention::monitor_program(b.phys(), monitor_asp, VAddr(0x2000_0000), cfg.samples);
    b.victim(victim_prog, victim_asp);
    b.monitor(monitor_prog, monitor_asp, Some(buffer));
    let id = b
        .module()
        .provide_replay_handle(ContextId(0), victim_layout.handle);
    let recipe = b.module().recipe_mut(id);
    recipe.name = "port-contention".into();
    recipe.replays_per_step = cfg.replays;
    recipe.walk = cfg.walk;
    recipe.handler_cycles = cfg.handler_cycles;
    b.defer_arm(retires);
    let mut session = b.build().expect("victim installed");
    if let Some(every) = cfg.ambient_interrupt_retires {
        session
            .machine_mut()
            .set_step_interrupt(ContextId(1), Some(every));
    }
    session
}

/// Figure 10 with deferred arming: the checkpoint is captured mid-run, at
/// the arming interrupt, while the run stops when the monitor halts. With
/// `warm`, the digest is of a second execution replayed from that
/// checkpoint.
fn fig10_deferred_arm(warm: bool) -> u64 {
    let cfg = fig10_cfg();
    let mut session = fig10_deferred_session(&cfg, 4);
    let req = RunRequest::cold(cfg.max_cycles).until_monitor_done();
    let cold = session.execute(req).expect("cold run");
    assert_eq!(cold.monitor_samples.len(), 300);
    assert!(cold.module.replays.iter().sum::<u64>() > 0);
    let captured = session.armed_checkpoint().expect("armed mid-run").cycle();
    assert!(captured > 0, "captured at the arming interrupt");
    if !warm {
        return report_digest(&cold);
    }
    let report = session
        .execute(req.from_checkpoint())
        .expect("checkpoint captured");
    report_digest(&report)
}

fn aes_deferred_cfg() -> AesAttackConfig {
    AesAttackConfig {
        max_steps: 6,
        defer_arm: Some(150),
        probe: Some(RecorderConfig::with_capacity(400_000)),
        ..AesAttackConfig::default()
    }
}

fn aes() -> u64 {
    let out = aes_attack::run(&aes_deferred_cfg());
    assert!(!out.report.module.observations.is_empty());
    report_digest(&out.report)
}

/// The session `aes_attack::run` builds, run cold and then replayed from
/// the checkpoint the deferred arm captured after `SessionStart`. Returns
/// the replay's digest, asserting it equals the cold run's.
fn aes_deferred_arm_warm() -> u64 {
    let cfg = aes_deferred_cfg();
    let mut b = SessionBuilder::new();
    b.sim(cfg.sim);
    b.probe(cfg.probe.expect("recording"));
    let aspace = b.new_aspace(1);
    let (prog, layout) = aes::build(
        b.phys(),
        aspace,
        VAddr(0x4000_0000),
        &cfg.key,
        cfg.size,
        &cfg.block,
    );
    b.victim(prog, aspace);
    let id = b.module().provide_replay_handle(ContextId(0), layout.rk);
    let module = b.module();
    module.provide_pivot(id, layout.td[0]);
    for line in layout.all_table_lines() {
        module.provide_monitor_addr(id, line);
    }
    let recipe = module.recipe_mut(id);
    recipe.name = "aes-ttable".into();
    recipe.replays_per_step = cfg.replays_per_step;
    recipe.max_steps = cfg.max_steps;
    recipe.walk = cfg.walk;
    recipe.prime_between_replays = true;
    recipe.handler_cycles = cfg.handler_cycles;
    b.defer_arm(cfg.defer_arm.expect("deferred"));
    let mut session = b.build().expect("victim installed");
    let req = RunRequest::cold(cfg.max_cycles);
    let cold = session.execute(req).expect("cold run");
    let warm = session.execute(req.from_checkpoint()).expect("replay");
    assert_eq!(format!("{warm:?}"), format!("{cold:?}"));
    report_digest(&warm)
}

/// One 48-step AES extraction armed at build, as the benchmark runs it:
/// every replay probes and re-primes all 64 table lines, so the event
/// stream pins the order of each `CacheAccess`, `CacheFlush` and
/// `MonitorProbe` the replay handler makes.
fn aes_extract_48() -> u64 {
    let out = aes_attack::run(&AesAttackConfig {
        max_steps: 48,
        defer_arm: None,
        walk: WalkTuning::Length { levels: 2 },
        probe: Some(RecorderConfig::with_capacity(400_000)),
        ..AesAttackConfig::default()
    });
    assert!(out.decrypted_correctly);
    assert_eq!(out.report.dropped_events, 0);
    report_digest(&out.report)
}

/// A replay handle followed by an independent transmit load, optionally
/// under the fence-after-pipeline-flush defense.
fn leak_victim(fence_after_flush: bool) -> u64 {
    let mut b = SessionBuilder::new();
    b.sim(SimConfig::new().with_core(CoreConfig {
        fence_after_pipeline_flush: fence_after_flush,
        ..CoreConfig::default()
    }));
    b.probe(RecorderConfig::default());
    let aspace = b.new_aspace(1);
    let mut layout = DataLayout::new(b.phys(), aspace, VAddr(0x1000_0000));
    let handle = layout.page(64);
    let transmit = layout.page(64);
    let (hp, hv, tp, tv) = (Reg(1), Reg(2), Reg(3), Reg(4));
    let mut asm = Assembler::new();
    asm.imm(hp, handle.0)
        .imm(tp, transmit.0)
        .load(hv, hp, 0)
        .load(tv, tp, 0)
        .alu(AluOp::Add, Reg(5), hv, tv)
        .mul(Reg(6), Reg(5), tv)
        .halt();
    b.victim(asm.finish(), aspace);
    let id = b.module().provide_replay_handle(ContextId(0), handle);
    b.module().recipe_mut(id).replays_per_step = 12;
    let report = b
        .build()
        .expect("victim installed")
        .execute(RunRequest::cold(50_000_000))
        .expect("a cold run cannot fail");
    assert!(report.stats.contexts[0].page_faults >= 12);
    report_digest(&report)
}

/// The §7.2 selective replayer: release the handle only once the wanted
/// RDRAND bit was transmitted speculatively.
fn rdrand_bias(fenced: bool, trial: u64) -> u64 {
    struct Biaser {
        aspace: AddressSpace,
        layout: rdrand::RdRandLayout,
        faults: u64,
    }
    impl Supervisor for Biaser {
        fn on_page_fault(&mut self, hw: &mut HwParts, ev: &FaultEvent) -> SupervisorAction {
            self.faults += 1;
            let hot = microscope::os::translate_ignoring_present(
                hw,
                self.aspace,
                self.layout.transmit_addr(1),
            )
            .map(|pa| hw.hier.level_of(pa).is_some())
            .unwrap_or(false);
            if hot || self.faults >= 16 {
                self.aspace.set_present(&mut hw.phys, ev.fault.vaddr, true);
                hw.tlb.invlpg(ev.fault.vaddr, self.aspace.pcid());
                return SupervisorAction::cycles(20);
            }
            for bit in 0..2 {
                if let Some(pa) = microscope::os::translate_ignoring_present(
                    hw,
                    self.aspace,
                    self.layout.transmit_addr(bit),
                ) {
                    hw.hier.flush_line(pa);
                }
            }
            microscope::os::flush_translation(hw, self.aspace, ev.fault.vaddr);
            SupervisorAction::cycles(700)
        }
    }
    let mut phys = PhysMem::new();
    let aspace = AddressSpace::new(&mut phys, 1);
    let (prog, layout) = rdrand::build(&mut phys, aspace, VAddr(0x900_0000));
    aspace.set_present(&mut phys, layout.handle, false);
    let mut m = MachineBuilder::new()
        .core_config(CoreConfig {
            rdrand_is_fenced: fenced,
            rdrand_seed: 0xfeed + trial,
            ..CoreConfig::default()
        })
        .probe(Probe::new(RecorderConfig::default()))
        .phys(phys)
        .context_in(prog, aspace)
        .supervisor(Box::new(Biaser {
            aspace,
            layout,
            faults: 0,
        }))
        .build();
    m.run(5_000_000);
    assert!(m.all_halted());
    assert!(m.context(ContextId(0)).stats().page_faults > 1);
    machine_digest(&m)
}

/// TSX write-set eviction: a stepping interrupt flushes the transaction's
/// written line, the retire stage's conflict check aborts it, and the
/// abort path re-runs the transaction.
fn tsx_abort() -> u64 {
    struct Flusher {
        target: microscope::cache::PAddr,
        remaining: u64,
    }
    impl Supervisor for Flusher {
        fn on_page_fault(&mut self, _: &mut HwParts, ev: &FaultEvent) -> SupervisorAction {
            panic!("unexpected fault {}", ev.fault);
        }
        fn on_interrupt(&mut self, hw: &mut HwParts, _: &InterruptEvent) -> SupervisorAction {
            if self.remaining > 0 {
                hw.hier.flush_line(self.target);
                self.remaining -= 1;
            }
            SupervisorAction::cycles(50)
        }
    }
    let mut phys = PhysMem::new();
    let asp = AddressSpace::new(&mut phys, 1);
    let wpage = VAddr(0x100_0000);
    let tpage = VAddr(0x200_0000);
    asp.alloc_map(&mut phys, wpage, 4096, PteFlags::user_data());
    asp.alloc_map(&mut phys, tpage, 4096, PteFlags::user_data());
    let target = asp.translate(&phys, wpage, true).unwrap().paddr;
    let (wp, tp, v, i, n) = (Reg(1), Reg(2), Reg(3), Reg(4), Reg(5));
    let mut asm = Assembler::new();
    let abort = asm.label();
    let begin = asm.label();
    asm.imm(wp, wpage.0).imm(tp, tpage.0).imm(i, 0).imm(n, 120);
    asm.bind(begin);
    asm.xbegin(abort);
    asm.store(v, wp, 0).load(v, tp, 0);
    let spin = asm.label();
    asm.bind(spin);
    asm.alu_imm(AluOp::Add, i, i, 1)
        .branch(Cond::Lt, i, n, spin)
        .xend()
        .halt();
    asm.bind(abort);
    asm.imm(i, 0).jmp(begin);
    let mut m = MachineBuilder::new()
        .probe(Probe::new(RecorderConfig::default()))
        .phys(phys)
        .context_in(asm.finish(), asp)
        .supervisor(Box::new(Flusher {
            target,
            remaining: 5,
        }))
        .build();
    m.set_step_interrupt(ContextId(0), Some(120));
    m.run(5_000_000);
    let s = m.context(ContextId(0)).stats();
    assert!(m.all_halted());
    assert!(s.txn_aborts >= 5 && s.txn_commits == 1);
    machine_digest(&m)
}

fn modexp() -> u64 {
    let out = modexp_attack::run(&ModExpAttackConfig {
        bits: 5,
        ..ModExpAttackConfig::default()
    });
    assert!(out.result_correct);
    assert!(out.report.stats.contexts[0].mispredict_squashes >= 5);
    report_digest(&out.report)
}

/// Replayed secret-indexed table load, with speculative fills either
/// visible or deferred to retirement.
fn invisible_speculation(invisible: bool) -> u64 {
    let table_lines = 8u64;
    let secret = 5u64;
    let mut b = SessionBuilder::new();
    b.sim(SimConfig::new().with_core(CoreConfig {
        invisible_speculation: invisible,
        ..CoreConfig::default()
    }));
    b.probe(RecorderConfig::default());
    let aspace = b.new_aspace(1);
    let mut layout = DataLayout::new(b.phys(), aspace, VAddr(0x1000_0000));
    let handle = layout.page(64);
    let table = layout.page(table_lines * LINE_BYTES);
    let (hp, hv, tp, tv) = (Reg(1), Reg(2), Reg(3), Reg(4));
    let mut asm = Assembler::new();
    asm.imm(hp, handle.0)
        .imm(tp, table.0 + secret * LINE_BYTES)
        .load(hv, hp, 0)
        .load(tv, tp, 0)
        .halt();
    b.victim(asm.finish(), aspace);
    let id = b.module().provide_replay_handle(ContextId(0), handle);
    {
        let recipe = b.module().recipe_mut(id);
        recipe.replays_per_step = 6;
        recipe.prime_between_replays = true;
        for l in 0..table_lines {
            recipe.monitor_addrs.push(table.offset(l * LINE_BYTES));
        }
    }
    let report = b
        .build()
        .expect("victim installed")
        .execute(RunRequest::cold(20_000_000))
        .expect("a cold run cannot fail");
    assert_eq!(report.module.observations.len(), 6);
    report_digest(&report)
}

/// Stores whose address or data resolve late, interleaved with younger
/// loads to the same and to disjoint addresses, behind a replay handle.
fn disambiguation() -> u64 {
    let mut b = SessionBuilder::new();
    b.probe(RecorderConfig::default());
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
    asm.load(Reg(15), hp, 0);
    for i in 0..24usize {
        match i % 5 {
            0 => {
                asm.mul(Reg(3), Reg(2), Reg(1));
            }
            1 => {
                asm.store(Reg(3), dp, (i as i64 % 4) * 8);
            }
            2 => {
                asm.load(Reg(2 + (i % 4) as u8), dp, (i as i64 % 8) * 8);
            }
            3 => {
                asm.alu_imm(AluOp::And, Reg(8), Reg(15), 0x18)
                    .alu(AluOp::Add, Reg(9), dp, Reg(8))
                    .store(Reg(1), Reg(9), 0);
            }
            _ => {
                asm.load(Reg(4), dp, 8)
                    .alu(AluOp::Add, Reg(1), Reg(4), Reg(1));
            }
        }
    }
    asm.halt();
    b.victim(asm.finish(), aspace);
    let id = b.module().provide_replay_handle(ContextId(0), handle);
    {
        let recipe = b.module().recipe_mut(id);
        recipe.replays_per_step = 4;
        recipe.walk = WalkTuning::Length { levels: 3 };
    }
    let report = b
        .build()
        .expect("victim installed")
        .execute(RunRequest::cold(20_000_000))
        .expect("a cold run cannot fail");
    assert!(report.stats.contexts[0].page_faults >= 4);
    report_digest(&report)
}

/// A store and a younger load to the same address whose bases one
/// multiply produces, so both become ready in the same cycle: the load
/// must wait for the store that issues ahead of it in that cycle.
fn store_load_same_cycle() -> u64 {
    let mut phys = PhysMem::new();
    let asp = AddressSpace::new(&mut phys, 1);
    let data = VAddr(0x100_0000);
    asp.alloc_map(&mut phys, data, 4096, PteFlags::user_data());
    let (base, one, addr, i, n) = (Reg(1), Reg(2), Reg(3), Reg(4), Reg(5));
    let mut asm = Assembler::new();
    asm.imm(base, data.0).imm(one, 1).imm(i, 0).imm(n, 12);
    let top = asm.label();
    asm.bind(top);
    asm.mul(addr, base, one)
        .store(i, addr, 8)
        .load(Reg(6), addr, 8)
        .load(Reg(7), addr, 16)
        .alu(AluOp::Add, Reg(8), Reg(8), Reg(6))
        .alu_imm(AluOp::Add, i, i, 1)
        .branch(Cond::Lt, i, n, top)
        .halt();
    let mut m = MachineBuilder::new()
        .probe(Probe::new(RecorderConfig::default()))
        .phys(phys)
        .context_in(asm.finish(), asp)
        .build();
    m.run(1_000_000);
    assert!(m.all_halted());
    assert_eq!(m.context(ContextId(0)).reg(Reg(8)), (0..12).sum::<u64>());
    machine_digest(&m)
}

/// `(case, digest recorded before the event-driven core)`; the deferred-arm
/// replay cases were recorded later, before the session's run paths were
/// merged into one driver.
const GOLDEN: &[(&str, u64)] = &[
    ("fig10_mul_cold", 0x880252f9f3ed8222),
    ("fig10_div_cold", 0xeb9476951e622261),
    ("fig10_mul_warm", 0x880252f9f3ed8222),
    ("fig10_div_warm", 0xeb9476951e622261),
    ("fig10_deferred_arm_cold", 0x6970b793d1f48304),
    ("fig10_deferred_arm_warm", 0x6970b793d1f48304),
    ("aes_deferred_arm", 0x761d591afa54a361),
    ("aes_deferred_arm_warm", 0x761d591afa54a361),
    ("aes_extract_48", 0xe5008fb4117cc6d6),
    ("leak_unfenced", 0xf78bc898442b7e54),
    ("leak_fence_after_flush", 0x2d92a83c44ddbb99),
    ("rdrand_unfenced", 0xb43252127712d461),
    ("rdrand_fenced", 0x2fedc2fac06da9a8),
    ("tsx_abort", 0x2120f10e2430c51a),
    ("modexp", 0xf212a50b499e94ce),
    ("invisible_off", 0xf84c1b00491762eb),
    ("invisible_on", 0x9d42ad87ae623974),
    ("disambiguation", 0x2ddaa66ceb184662),
    ("store_load_same_cycle", 0x9ce8bde57bcfdab1),
];

fn run_case(name: &str) -> u64 {
    match name {
        "fig10_mul_cold" => fig10_cold(false),
        "fig10_div_cold" => fig10_cold(true),
        "fig10_mul_warm" => fig10_warm(false),
        "fig10_div_warm" => fig10_warm(true),
        "fig10_deferred_arm_cold" => fig10_deferred_arm(false),
        "fig10_deferred_arm_warm" => fig10_deferred_arm(true),
        "aes_deferred_arm" => aes(),
        "aes_deferred_arm_warm" => aes_deferred_arm_warm(),
        "aes_extract_48" => aes_extract_48(),
        "leak_unfenced" => leak_victim(false),
        "leak_fence_after_flush" => leak_victim(true),
        "rdrand_unfenced" => rdrand_bias(false, 2),
        "rdrand_fenced" => rdrand_bias(true, 2),
        "tsx_abort" => tsx_abort(),
        "modexp" => modexp(),
        "invisible_off" => invisible_speculation(false),
        "invisible_on" => invisible_speculation(true),
        "disambiguation" => disambiguation(),
        "store_load_same_cycle" => store_load_same_cycle(),
        other => panic!("unknown golden case {other}"),
    }
}

#[test]
fn reports_match_the_recorded_digests() {
    let mut mismatches = Vec::new();
    for &(name, want) in GOLDEN {
        let got = run_case(name);
        println!("    (\"{name}\", {got:#018x}),");
        if got != want {
            mismatches.push(format!("{name}: got {got:#018x}, recorded {want:#018x}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "cycle-level behaviour changed:\n{}",
        mismatches.join("\n")
    );
}

/// Fast-forward is invisible in every report by design, so the digests
/// above cannot notice it silently turning off; the engine's step count
/// can. One small Figure-10 replay from the armed checkpoint takes this
/// many steps, and every simulated cycle is either stepped or skipped.
#[test]
fn fig10_replay_steps_are_pinned() {
    const STEPS: u64 = 2_717;
    let cfg = PortContentionConfig {
        samples: 300,
        ..PortContentionConfig::default()
    };
    let req = RunRequest::cold(cfg.max_cycles).until_monitor_done();
    let mut session = port_contention::build_session(false, &cfg);
    session.execute(req).expect("cold run");
    let start = session.armed_checkpoint().expect("armed at build").cycle();
    let before = session.machine().engine_stats();
    let report = session.execute(req.from_checkpoint()).expect("replay");
    let after = session.machine().engine_stats();
    let (steps, skipped) = (
        after.steps - before.steps,
        after.cycles_skipped - before.cycles_skipped,
    );
    assert_eq!(steps + skipped, report.cycles - start);
    assert!(skipped > steps, "most of a fig10 replay is idle cycles");
    assert_eq!(steps, STEPS, "{skipped} cycles skipped");
}

/// Every event kind, with every squash cause and cache tier, its numeric
/// fields set from `v` (truncated to narrower fields) and its flags from
/// `flag`.
fn every_kind(v: u64, flag: bool) -> Vec<EventKind> {
    use EventKind::*;
    let n = v as u32;
    let mut kinds = vec![
        Fetch { seq: v, pc: v },
        Issue { seq: v, pc: v },
        Complete { seq: v },
        Retire { seq: v, pc: v },
        FaultRaised { vaddr: v, pc: v },
        HandlerReturn { handler_cycles: v },
        TlbLookup {
            vpn: v,
            hit: flag,
            latency: v,
        },
        WalkStart { vaddr: v },
        WalkStep {
            level: v as u8,
            pwc_hit: flag,
            latency: v,
        },
        WalkEnd {
            vaddr: v,
            latency: v,
            faulted: flag,
        },
        CacheFlush { line: v },
        BackInvalidate { line: v },
        RecipeArmed {
            recipe: n,
            vaddr: v,
        },
        PresentCleared { vaddr: v },
        PresentSet { vaddr: v },
        TlbShootdown { vaddr: v },
        HandlerEnter { vaddr: v },
        Replay {
            recipe: n,
            replay: v,
        },
        MonitorProbe {
            vaddr: v,
            latency: v,
        },
        PivotStep { recipe: n, step: v },
        RecipeFinished {
            recipe: n,
            replays: v,
        },
        HonestFault { vaddr: v },
        SessionStart { contexts: n },
        RunEnd {
            cycles: v,
            all_halted: flag,
        },
        MonitorSample { index: v, value: v },
    ];
    for cause in [
        SquashCause::PageFault,
        SquashCause::Mispredict,
        SquashCause::TxnAbort,
        SquashCause::Interrupt,
    ] {
        kinds.push(Squash {
            cause,
            discarded: v,
        });
    }
    for tier in [
        CacheTier::L1,
        CacheTier::L2,
        CacheTier::L3,
        CacheTier::Memory,
    ] {
        kinds.push(CacheAccess {
            line: v,
            tier,
            latency: v,
        });
    }
    kinds
}

/// Every event kind at 0, `u32::MAX` and `u64::MAX`, with both flag
/// values and with and without a context. Cycles only grow, as in a
/// recorded stream, so the reconstructed timeline is well formed.
fn synthetic_events() -> Vec<Event> {
    let mut events = Vec::new();
    for (v, flag) in [(0, false), (u64::from(u32::MAX), true), (u64::MAX, false)] {
        for kind in every_kind(v, flag) {
            let ctx = (events.len() % 2 == 1).then_some(v as u32);
            events.push(Event {
                cycle: v,
                ctx,
                replay: v,
                kind,
            });
        }
    }
    events
}

/// `(case, digest of the export)`, recorded before the exporters were
/// rewritten to append into one buffer.
const EXPORT_GOLDEN: &[(&str, u64)] = &[
    ("fig10_mul_cold.chrome", 0xba322679de7faaca),
    ("fig10_mul_cold.jsonl", 0xc899cb2332c87bfd),
    ("fig10_div_cold.chrome", 0xcccd28e482d27e1f),
    ("fig10_div_cold.jsonl", 0x4ba233f896c3381b),
    ("synthetic.chrome", 0xaddfab05f179befc),
    ("synthetic.jsonl", 0x9851b45de107eac4),
];

#[test]
fn exports_match_the_recorded_digests() {
    let streams = [
        ("fig10_mul_cold", fig10_cold_report(false).trace),
        ("fig10_div_cold", fig10_cold_report(true).trace),
        ("synthetic", synthetic_events()),
    ];
    let mut got = Vec::new();
    for (name, events) in &streams {
        assert!(events.len() > 90, "{name}: {} events", events.len());
        got.push((format!("{name}.chrome"), fnv(&export::chrome_trace(events))));
        got.push((format!("{name}.jsonl"), fnv(&export::jsonl(events))));
    }
    for (name, digest) in &got {
        println!("    (\"{name}\", {digest:#018x}),");
    }
    let want: Vec<(String, u64)> = EXPORT_GOLDEN
        .iter()
        .map(|&(name, digest)| (name.to_string(), digest))
        .collect();
    assert_eq!(got, want, "exporter output changed");
}

/// The tree parser reads every Chrome export back record for record: one
/// metadata record per layer plus the timeline's, one instant record per
/// event stamped at its cycle, then one duration record per Fig. 3 span.
#[test]
fn chrome_exports_parse_back_event_for_event() {
    for events in [synthetic_events(), fig10_cold_report(false).trace] {
        let doc = json::parse(&export::chrome_trace(&events)).expect("export parses");
        let Some(Json::Arr(records)) = doc.get("traceEvents") else {
            panic!("traceEvents is an array");
        };
        let spans = timeline::reconstruct(&events);
        assert_eq!(
            records.len(),
            Layer::ALL.len() + 1 + events.len() + spans.len()
        );
        // Exact integers: the synthetic stream's `u64::MAX` stamp would
        // read back equal to 2^64 through an `f64`.
        let instants: Vec<u64> = records
            .iter()
            .filter(|r| r.get("ph").and_then(Json::as_str) == Some("i"))
            .map(|r| r.get("ts").and_then(Json::as_u64).expect("integer ts"))
            .collect();
        let cycles: Vec<u64> = events.iter().map(|e| e.cycle).collect();
        assert_eq!(instants, cycles);
    }
}
