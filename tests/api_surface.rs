//! Pins the public API surface the rest of the ecosystem leans on:
//!
//! 1. **The prelude is sufficient** — `use microscope::prelude::*` brings
//!    in everything a driver binary needs to build, run and sweep attacks.
//! 2. **Errors are well-behaved** — every error type in the workspace is
//!    `Send + Sync + 'static` (usable in `anyhow`/`Box<dyn Error>`
//!    pipelines and across sweep worker threads), renders as
//!    "what failed: why", and exposes its cause chain through
//!    [`std::error::Error::source`].
//! 3. **`RunRequest` composes** — the builder flags are independent and
//!    order-insensitive, and `AttackSession::execute` refuses each
//!    combination it cannot carry out with the same typed error, checked
//!    in the same order.

use microscope::channels::port_contention::{self, PortContentionConfig};
use microscope::cpu::{ContextId, NullSupervisor};
use microscope::mem::{PageFault, PageFaultKind, PtLevel, VAddr};
use microscope::prelude::*;
use microscope::victims::single_secret;
use std::error::Error;

/// Compile-time proof that a type can cross threads and live in boxed
/// error chains.
fn assert_error_type<E: Error + Send + Sync + 'static>() {}

#[test]
fn every_error_type_is_send_sync_static() {
    assert_error_type::<BuildError>();
    assert_error_type::<RunError>();
    assert_error_type::<SweepError>();
    assert_error_type::<microscope_bench::ArgError>();
    assert_error_type::<microscope_bench::ExportError>();
}

#[test]
fn prelude_exports_cover_the_driver_workflow() {
    // Session assembly + run requests come straight from the prelude.
    let mut b = SessionBuilder::new();
    b.sim(SimConfig::default());
    let req = RunRequest::cold(1_000);
    assert_eq!(req.max_cycles(), 1_000);
    // Sweep types too.
    let spec: SweepSpec<'_, (), AttackReport> = SweepSpec::new("surface", |_pt: &SweepPoint<()>| {
        Err(SweepError::Point("unused".into()))
    });
    assert!(spec.is_empty());
    // And building without a victim is the canonical BuildError.
    assert!(matches!(b.build(), Err(BuildError::NoVictim)));
}

#[test]
fn run_request_flags_compose_in_any_order() {
    let a = RunRequest::cold(5).from_checkpoint().until_monitor_done();
    let b = RunRequest::cold(5).until_monitor_done().from_checkpoint();
    assert_eq!(a, b);
    assert!(a.is_from_checkpoint() && a.is_until_monitor_done());
    // Cross-checked runs replay from the checkpoint by definition.
    let c = RunRequest::cold(5).cross_checked();
    assert!(c.is_cross_checked() && c.is_from_checkpoint());
}

/// A victim armed at build (ten replays of its handle), with or without
/// the Figure-10 monitor beside it.
fn small_session(with_monitor: bool) -> AttackSession {
    if with_monitor {
        let cfg = PortContentionConfig {
            samples: 8,
            replays: 10,
            ambient_interrupt_retires: None,
            ..PortContentionConfig::default()
        };
        return port_contention::build_session(false, &cfg);
    }
    let mut b = SessionBuilder::new();
    let aspace = b.new_aspace(1);
    let secrets = single_secret::secrets_with_subnormal(16, 5);
    let (prog, layout) =
        single_secret::build(b.phys(), aspace, VAddr(0x1000_0000), &secrets, 5, 3.0);
    b.victim(prog, aspace);
    let id = b.module().provide_replay_handle(ContextId(0), layout.count);
    b.module().recipe_mut(id).replays_per_step = 10;
    b.build().expect("a victim is installed")
}

/// The result's variant and context; a mismatch must name the cycle the
/// session's checkpoint was captured at.
fn outcome(result: Result<AttackReport, RunError>, session: &AttackSession) -> String {
    let captured = session.armed_checkpoint().map(|cp| cp.cycle());
    match result {
        Ok(_) => "ok".into(),
        Err(RunError::NoMonitor { operation }) => format!("no monitor: {operation}"),
        Err(RunError::NoCheckpoint { operation }) => format!("no checkpoint: {operation}"),
        Err(RunError::CheckpointMismatch { capture_cycle }) if Some(capture_cycle) == captured => {
            "mismatch".into()
        }
        Err(e) => format!("{e:?}"),
    }
}

#[test]
fn execute_refuses_each_request_it_cannot_run() {
    const OK: &str = "ok";
    const RUN_MON: &str = "no monitor: run until monitor done";
    const REPLAY_MON: &str = "no monitor: replay until monitor done";
    const NO_CP: &str = "no checkpoint: replay from checkpoint";
    const SWAP: &str = "mismatch";
    // `(from_checkpoint, until_monitor_done, cross_checked)`, then the
    // outcome on a session without and with a monitor: on a fresh session,
    // after one cold run, and after the supervisor was swapped.
    type Row = ((bool, bool, bool), [&'static str; 3], [&'static str; 3]);
    let table: [Row; 8] = [
        ((false, false, false), [OK, OK, OK], [OK, OK, OK]),
        ((false, true, false), [RUN_MON; 3], [OK, OK, OK]),
        ((true, false, false), [NO_CP, OK, SWAP], [NO_CP, OK, SWAP]),
        ((true, true, false), [REPLAY_MON; 3], [NO_CP, OK, SWAP]),
        // A cross-checked request stops where the session says, whatever
        // `until_monitor_done` asks.
        ((false, false, true), [NO_CP, OK, SWAP], [NO_CP, OK, SWAP]),
        ((false, true, true), [NO_CP, OK, SWAP], [NO_CP, OK, SWAP]),
        ((true, false, true), [NO_CP, OK, SWAP], [NO_CP, OK, SWAP]),
        ((true, true, true), [NO_CP, OK, SWAP], [NO_CP, OK, SWAP]),
    ];
    const MAX: u64 = 5_000_000;
    for ((from, until, cross), without, with) in table {
        let mut req = RunRequest::cold(MAX);
        if from {
            req = req.from_checkpoint();
        }
        if until {
            req = req.until_monitor_done();
        }
        if cross {
            req = req.cross_checked();
        }
        for (with_monitor, want) in [(false, without), (true, with)] {
            let first = if with_monitor {
                RunRequest::cold(MAX).until_monitor_done()
            } else {
                RunRequest::cold(MAX)
            };
            let mut cold = small_session(with_monitor);
            let fresh = outcome(cold.execute(req), &cold);
            let mut warm = small_session(with_monitor);
            warm.execute(first).expect("a first cold run succeeds");
            let after = outcome(warm.execute(req), &warm);
            warm.machine_mut()
                .replace_supervisor(Box::new(NullSupervisor));
            let swapped = outcome(warm.execute(req), &warm);
            assert_eq!(
                [fresh.as_str(), after.as_str(), swapped.as_str()],
                want,
                "{req:?}, monitor: {with_monitor}"
            );
        }
    }
}

#[test]
fn displays_follow_what_failed_colon_why() {
    let unmapped = BuildError::MonitorBufferUnmapped {
        base: VAddr(0x7000_0000),
        samples: 4,
        fault: PageFault {
            vaddr: VAddr(0x7000_0000),
            kind: PageFaultKind::NotPresent {
                level: PtLevel::Pgd,
            },
            is_write: false,
        },
    };
    let cases: Vec<String> = vec![
        BuildError::NoVictim.to_string(),
        unmapped.to_string(),
        RunError::NoMonitor {
            operation: "run until monitor done",
        }
        .to_string(),
        RunError::NoCheckpoint {
            operation: "replay from checkpoint",
        }
        .to_string(),
        RunError::CheckpointMismatch { capture_cycle: 17 }.to_string(),
        SweepError::Point("injected".into()).to_string(),
        SweepError::Panicked { label: "p3".into() }.to_string(),
        microscope_bench::ArgError::MissingValue {
            flag: "--jobs".into(),
        }
        .to_string(),
        microscope_bench::ArgError::InvalidValue {
            flag: "--jobs".into(),
            value: "many".into(),
            expected: "a positive integer",
        }
        .to_string(),
    ];
    for msg in &cases {
        assert!(
            msg.contains(" failed: "),
            "error message {msg:?} must read \"what failed: why\""
        );
    }
    // Context actually lands in the rendering.
    assert!(cases[1].contains("v:0x70000000") && cases[1].contains("PGD not present"));
    assert!(cases[2].starts_with("run until monitor done failed:"));
    assert!(cases[4].contains("cycle 17"));
    assert!(cases[7].contains("--jobs"));
}

/// A monitor whose sample buffer is (partly) unmapped is refused at build,
/// naming the first page that does not translate, instead of panicking in
/// the report that reads the samples back.
#[test]
fn unmapped_monitor_buffer_is_a_build_error() {
    // One sample past the end of a mapped page, and a buffer nowhere.
    let mapped = VAddr(0x2000_0000);
    for (base, samples, first_unmapped) in [
        (mapped.offset(4096 - 8), 2, mapped.offset(4096)),
        (VAddr(0x7000_0000), 4, VAddr(0x7000_0000)),
    ] {
        let mut b = SessionBuilder::new();
        let victim_asp = b.new_aspace(1);
        let monitor_asp = b.new_aspace(2);
        let secrets = single_secret::secrets_with_subnormal(16, 5);
        let (prog, _) =
            single_secret::build(b.phys(), victim_asp, VAddr(0x1000_0000), &secrets, 5, 3.0);
        b.victim(prog, victim_asp);
        let (monitor, _) = port_contention::monitor_program(b.phys(), monitor_asp, mapped, 8);
        b.monitor(monitor, monitor_asp, Some(MonitorBuffer { base, samples }));
        let Err(err) = b.build() else {
            panic!("a buffer at {base} with {samples} samples must be refused");
        };
        let BuildError::MonitorBufferUnmapped {
            base: got,
            samples: n,
            fault,
        } = err
        else {
            panic!("wrong error: {err}");
        };
        assert_eq!((got, n), (base, samples));
        assert_eq!(fault.vaddr, first_unmapped);
        let source = err.source().expect("the page fault is the cause");
        assert_eq!(source.downcast_ref::<PageFault>(), Some(&fault));
    }
}

#[test]
fn error_sources_chain_to_the_cause() {
    let wrapped = SweepError::Run(RunError::NoCheckpoint {
        operation: "replay from checkpoint",
    });
    let source = wrapped.source().expect("SweepError::Run has a cause");
    let run = source
        .downcast_ref::<RunError>()
        .expect("cause is the RunError");
    assert!(matches!(run, RunError::NoCheckpoint { .. }));

    let build = SweepError::Build(BuildError::NoVictim);
    assert!(build
        .source()
        .unwrap()
        .downcast_ref::<BuildError>()
        .is_some());
    // Leaves have no source.
    assert!(BuildError::NoVictim.source().is_none());
    assert!(SweepError::Point("x".into()).source().is_none());

    let io = std::io::Error::new(std::io::ErrorKind::PermissionDenied, "denied");
    let export = microscope_bench::ExportError {
        path: "/tmp/out.json".into(),
        source: io,
    };
    let msg = export.to_string();
    assert!(
        msg.contains("export to") && msg.contains("failed:"),
        "{msg}"
    );
    assert!(export
        .source()
        .unwrap()
        .downcast_ref::<std::io::Error>()
        .is_some());
}
