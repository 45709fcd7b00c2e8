//! The three workloads. Each builds its sessions and reference reports in
//! set-up, then runs one checked operation per call to [`Workload::op`].
//!
//! With a [`Tracer`], a workload drives the same work through the
//! simulator's public pieces instead of the one-call entry points, so that
//! each layer's calls can be timed from outside. Set-up then checks that
//! the pieces reproduce the one-call report exactly.

use crate::spans::{name, TimedSupervisor, Tracer};
use microscope_channels::aes_attack::{self, AesAttackConfig, AesAttackOutcome};
use microscope_channels::port_contention::{self, PortContentionConfig};
use microscope_core::{AttackReport, AttackSession, RunRequest, SessionBuilder};
use microscope_cpu::{ContextId, MachineCheckpoint, RunExit};
use microscope_mem::VAddr;
use microscope_probe::{export, json, EventKind, MetricValue, RecorderConfig};
use microscope_victims::aes;
use std::time::Instant;

/// Monitor samples per Figure-10 operation: enough for the division victim
/// to stand out (the paper uses 10,000; `fig10` needs at least ~1,000).
const FIG10_SAMPLES: u64 = 2_000;
/// Handle→pivot steps of one AES extraction.
const AES_STEPS: u64 = 48;
/// Minimum recall and precision of the extracted table lines.
const AES_MIN_SCORE: f64 = 0.8;
/// Probe latency (cycles) below which a probed line counts as a hit.
const AES_HIT_THRESHOLD: u64 = 100;
/// Over-threshold ratio the reference pair must reach (as in `fig10`).
const FIG10_MIN_RATIO: f64 = 8.0;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Figure-10 port-contention sampling, replayed from the armed
    /// checkpoint until the monitor finishes.
    Fig10Sample,
    /// One full T-table AES extraction from a cold session.
    AesExtract,
    /// `Fig10Sample` with the probe recorder on and each report exported.
    Fig10Traced,
}

impl Kind {
    /// Parses a `--workload` value.
    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "fig10_sample" => Some(Kind::Fig10Sample),
            "aes_extract" => Some(Kind::AesExtract),
            "fig10_traced" => Some(Kind::Fig10Traced),
            _ => None,
        }
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig10Sample => "fig10_sample",
            Kind::AesExtract => "aes_extract",
            Kind::Fig10Traced => "fig10_traced",
        }
    }

    /// Builds the workload's sessions and references.
    pub fn setup(self, seed: u64, tracer: Option<&Tracer>) -> Box<dyn Workload> {
        match self {
            Kind::Fig10Sample => Box::new(Fig10::setup(seed, false, tracer)),
            Kind::Fig10Traced => Box::new(Fig10::setup(seed, true, tracer)),
            Kind::AesExtract => Box::new(Aes::setup(seed, tracer)),
        }
    }
}

/// Deterministic work counters of one operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Simulated cycles.
    pub sim_cycles: u64,
    /// Instructions dispatched, squashed ones included.
    pub dispatched: u64,
    /// Instructions squashed.
    pub squashed: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Replays of the attack's handle.
    pub replays: u64,
    /// Observations the OS module recorded.
    pub observations: u64,
    /// L1 data-cache accesses.
    pub l1_accesses: u64,
    /// L1 data-cache misses.
    pub l1_misses: u64,
    /// DRAM accesses.
    pub dram_accesses: u64,
    /// Cache lines flushed.
    pub line_flushes: u64,
    /// Last-level TLB misses.
    pub tlb_misses: u64,
    /// Page walks.
    pub walks: u64,
    /// Page walks that faulted.
    pub walk_faults: u64,
    /// Pages discarded by checkpoint restores.
    pub restore_pages: u64,
    /// Pages copied by copy-on-write.
    pub pages_cow: u64,
    /// Probe events in the report.
    pub probe_events: u64,
    /// Probe events dropped by the ring.
    pub dropped: u64,
    /// Bytes of exported trace (zero when the operation exports nothing).
    pub export_bytes: u64,
    /// Supervisor calls (traced operations only).
    pub os_calls: u64,
}

impl Counters {
    fn from_report(rep: &AttackReport, start_cycle: u64, probe_events: usize) -> Counters {
        let count = |name: &str| match rep.metrics.get(name) {
            Some(MetricValue::Count(v)) => v,
            _ => 0,
        };
        let ctx = |f: fn(&microscope_cpu::ContextStats) -> u64| {
            rep.stats.contexts.iter().map(f).sum::<u64>()
        };
        Counters {
            sim_cycles: rep.cycles - start_cycle,
            dispatched: ctx(|c| c.dispatched),
            squashed: ctx(|c| c.squashed),
            retired: ctx(|c| c.retired),
            replays: rep.module.replays.iter().sum(),
            observations: rep.module.observations.len() as u64,
            l1_accesses: count("cache.l1.hits") + count("cache.l1.misses"),
            l1_misses: count("cache.l1.misses"),
            dram_accesses: count("cache.dram_accesses"),
            line_flushes: count("cache.line_flushes"),
            tlb_misses: count("mem.tlb.l2.misses"),
            walks: count("mem.walker.walks"),
            walk_faults: count("mem.walker.faults"),
            probe_events: probe_events as u64,
            dropped: rep.dropped_events,
            ..Counters::default()
        }
    }

    /// The counters that must repeat exactly for the same operation,
    /// whichever way it was driven (traced or not).
    pub fn work(&self) -> [u64; 17] {
        [
            self.sim_cycles,
            self.dispatched,
            self.squashed,
            self.retired,
            self.replays,
            self.observations,
            self.l1_accesses,
            self.l1_misses,
            self.dram_accesses,
            self.line_flushes,
            self.tlb_misses,
            self.walks,
            self.walk_faults,
            self.restore_pages,
            self.pages_cow,
            self.probe_events,
            self.dropped,
        ]
    }
}

/// One operation's outcome.
#[derive(Clone, Debug)]
pub struct OpOutcome {
    /// Host time of the operation, in ns.
    pub host_ns: u64,
    /// Its work counters.
    pub counters: Counters,
    /// Why its check failed, if it did.
    pub error: Option<String>,
}

/// A set-up workload.
pub trait Workload {
    /// Runs and checks operation `index`; its inputs depend only on the
    /// seed and `index`.
    fn op(&mut self, index: u64) -> OpOutcome;
    /// Digest of the set-up's reference reports (equal across set-ups).
    fn reference_digest(&self) -> u64;
    /// Set-up checks that failed.
    fn problems(&self) -> &[String];
}

/// SplitMix64 finaliser: the benchmark's only source of randomness.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// A report with its trace taken out, printed for exact comparison.
fn report_text(rep: &mut AttackReport) -> (String, Vec<microscope_probe::Event>) {
    let trace = std::mem::take(&mut rep.trace);
    (format!("{rep:?}"), trace)
}

/// Runs a built-and-armed session to its stop condition from its current
/// state, as `AttackSession::execute` does for a session armed at build
/// time: until the monitor halts when there is one, until every context
/// halts otherwise. The cycle budget counts from session start.
fn run_window(session: &mut AttackSession, tracer: &Tracer, max_cycles: u64) -> AttackReport {
    let contexts = session.machine().context_count() as u32;
    session
        .probe()
        .emit(None, EventKind::SessionStart { contexts });
    let budget = max_cycles.saturating_sub(session.machine().cycle());
    let monitor = session.monitor_ctx();
    let machine = session.machine_mut();
    let exit = tracer.span(name::RUN, || match monitor {
        Some(ctx) => match machine.run_until(budget, |m| m.context(ctx).halted()) {
            true => RunExit::AllHalted,
            false => RunExit::MaxCycles,
        },
        None => machine.run(budget),
    });
    let cycles = session.machine().cycle();
    session.probe().set_cycle(cycles);
    session.probe().emit(
        None,
        EventKind::RunEnd {
            cycles,
            all_halted: exit == RunExit::AllHalted,
        },
    );
    tracer.span(name::REPORT, || session.report(exit))
}

/// A reference report, as compared against each operation's.
struct Expected {
    text: String,
    export: Option<String>,
}

struct Victim {
    session: AttackSession,
    /// The armed checkpoint of a traced session (untraced sessions keep
    /// theirs inside `AttackSession`).
    checkpoint: Option<MachineCheckpoint>,
    expected: Expected,
}

/// Figure-10 sampling: each operation replays one victim's armed
/// checkpoint until the monitor has taken all its samples.
pub struct Fig10 {
    seed: u64,
    cfg: PortContentionConfig,
    export: bool,
    tracer: Option<Tracer>,
    /// Indexed by the victim's secret: `[mul, div]`.
    victims: Vec<Victim>,
    problems: Vec<String>,
}

impl Fig10 {
    fn setup(seed: u64, export: bool, tracer: Option<&Tracer>) -> Fig10 {
        let cfg = PortContentionConfig {
            samples: FIG10_SAMPLES,
            replays: FIG10_SAMPLES / 2,
            probe: export.then(RecorderConfig::default),
            ..PortContentionConfig::default()
        };
        let mut problems = Vec::new();
        let mut samples = Vec::new();
        let mut victims = Vec::new();
        for secret in [false, true] {
            let mut session = port_contention::build_session(secret, &cfg);
            let cold = RunRequest::cold(cfg.max_cycles).until_monitor_done();
            let mut reference = session
                .execute(cold)
                .expect("the Figure-10 session has a monitor");
            samples.push(reference.monitor_samples.clone());
            let exported = export.then(|| export::chrome_trace(&reference.trace));
            if let Some(text) = &exported {
                if let Err(e) = json::validate(text) {
                    problems.push(format!("reference export is not valid JSON: {e}"));
                }
            }
            let expected = Expected {
                text: report_text(&mut reference).0,
                export: exported,
            };
            let (session, checkpoint) = match tracer {
                None => (session, None),
                Some(t) => {
                    let (session, checkpoint, mut traced) = Self::traced_session(secret, &cfg, t);
                    if report_text(&mut traced).0 != expected.text {
                        problems.push(format!(
                            "traced cold run of victim {secret} differs from the untraced one"
                        ));
                    }
                    (session, Some(checkpoint))
                }
            };
            victims.push(Victim {
                session,
                checkpoint,
                expected,
            });
        }
        let verdict = port_contention::analyze(samples[0].clone(), samples[1].clone());
        if !verdict.detects_divisions(FIG10_MIN_RATIO) {
            problems.push(format!(
                "reference pair does not detect divisions: ratio {:.2} < {FIG10_MIN_RATIO}",
                verdict.ratio
            ));
        }
        Fig10 {
            seed,
            cfg,
            export,
            tracer: tracer.cloned(),
            victims,
            problems,
        }
    }

    /// Builds a session with the timing supervisor installed, captures its
    /// armed checkpoint and runs it cold once.
    fn traced_session(
        secret: bool,
        cfg: &PortContentionConfig,
        tracer: &Tracer,
    ) -> (AttackSession, MachineCheckpoint, AttackReport) {
        let mut session = tracer.span(name::BUILD, || port_contention::build_session(secret, cfg));
        TimedSupervisor::install(session.machine_mut(), tracer);
        let checkpoint = tracer.span(name::CHECKPOINT, || session.machine().checkpoint());
        let report = run_window(&mut session, tracer, cfg.max_cycles);
        (session, checkpoint, report)
    }

    /// The victim of operation `index`: every pair of operations runs both
    /// victims, in an order drawn from the seed.
    fn secret(&self, index: u64) -> bool {
        let swap = mix(self.seed ^ mix(index / 2)) & 1 == 1;
        (index % 2 == 1) != swap
    }
}

impl Workload for Fig10 {
    fn op(&mut self, index: u64) -> OpOutcome {
        let secret = self.secret(index);
        let max_cycles = self.cfg.max_cycles;
        let export = self.export;
        let v = &mut self.victims[secret as usize];
        let before = v.session.machine().checkpoint_stats();
        let t0 = Instant::now();
        let (result, exported) = match (&self.tracer, &v.checkpoint) {
            (Some(t), Some(cp)) => t.span(name::OP, || {
                let restored = t.span(name::RESTORE, || v.session.machine_mut().restore(cp));
                let report = run_window(&mut v.session, t, max_cycles);
                let exported = t.span(name::EXPORT, || export::chrome_trace(&report.trace));
                let result = match restored {
                    true => Ok(report),
                    false => Err("restore rejected the armed checkpoint".to_string()),
                };
                (result, Some(exported))
            }),
            _ => {
                let req = RunRequest::cold(max_cycles)
                    .from_checkpoint()
                    .until_monitor_done();
                let result = v.session.execute(req).map_err(|e| e.to_string());
                let exported = match (&result, export) {
                    (Ok(r), true) => Some(export::chrome_trace(&r.trace)),
                    _ => None,
                };
                (result, exported)
            }
        };
        let host_ns = elapsed_ns(t0);
        let after = v.session.machine().checkpoint_stats();
        let start_cycle = v
            .checkpoint
            .as_ref()
            .or(v.session.armed_checkpoint())
            .map_or(0, MachineCheckpoint::cycle);
        let mut report = match result {
            Ok(r) => r,
            Err(e) => {
                return OpOutcome {
                    host_ns,
                    counters: Counters::default(),
                    error: Some(e),
                }
            }
        };
        let (text, trace) = report_text(&mut report);
        let mut counters = Counters::from_report(&report, start_cycle, trace.len());
        counters.restore_pages = after.restore_pages - before.restore_pages;
        counters.pages_cow = after.pages_cow - before.pages_cow;
        counters.export_bytes = exported.as_ref().map_or(0, |s| s.len() as u64);
        let error = if counters.dropped != 0 {
            Some(format!("{} probe events dropped", counters.dropped))
        } else if text != v.expected.text {
            Some(format!(
                "victim {secret}: report differs from the cold reference"
            ))
        } else if matches!((&v.expected.export, &exported), (Some(e), Some(x)) if e != x) {
            Some(format!(
                "victim {secret}: trace export differs from the cold reference"
            ))
        } else {
            None
        };
        OpOutcome {
            host_ns,
            counters,
            error,
        }
    }

    fn reference_digest(&self) -> u64 {
        self.victims.iter().fold(0, |h, v| {
            let export = v.expected.export.as_deref().unwrap_or("");
            mix(h ^ fnv(v.expected.text.as_bytes()) ^ fnv(export.as_bytes()))
        })
    }

    fn problems(&self) -> &[String] {
        &self.problems
    }
}

/// One-run AES extraction: each operation attacks a fresh key and
/// ciphertext drawn from the seed, with empty simulated caches.
pub struct Aes {
    seed: u64,
    tracer: Option<Tracer>,
    /// Report of operation 0, printed for exact comparison.
    expected: String,
    problems: Vec<String>,
}

impl Aes {
    fn config(seed: u64, index: u64) -> AesAttackConfig {
        let mut state = seed ^ mix(index);
        let mut byte = || {
            state = mix(state);
            (state >> 56) as u8
        };
        let key = (0..16).map(|_| byte()).collect();
        let block = std::array::from_fn(|_| byte());
        AesAttackConfig {
            key,
            block,
            max_steps: AES_STEPS,
            ..AesAttackConfig::default()
        }
    }

    fn setup(seed: u64, tracer: Option<&Tracer>) -> Aes {
        let cfg = Self::config(seed, 0);
        let mut problems = Vec::new();
        let mut outcome = aes_attack::run(&cfg);
        if let Some(e) = Self::check(&outcome) {
            problems.push(format!("reference extraction: {e}"));
        }
        let expected = report_text(&mut outcome.report).0;
        if let Some(t) = tracer {
            let (mut replica, mut session, checkpoint) = Self::replica(&cfg, t);
            if report_text(&mut replica.report).0 != expected {
                problems.push("replica report differs from aes_attack::run's".into());
            }
            // A run replayed from the armed checkpoint repeats exactly.
            let restored = t.span(name::RESTORE, || session.machine_mut().restore(&checkpoint));
            let mut again = run_window(&mut session, t, cfg.max_cycles);
            if !restored || report_text(&mut again).0 != expected {
                problems.push("replay from the armed checkpoint differs from the cold run".into());
            }
        }
        Aes {
            seed,
            tracer: tracer.cloned(),
            expected,
            problems,
        }
    }

    /// `aes_attack::run`, rebuilt from public pieces so that session build,
    /// checkpoint capture, run and report can be timed apart.
    fn replica(
        cfg: &AesAttackConfig,
        tracer: &Tracer,
    ) -> (AesAttackOutcome, AttackSession, MachineCheckpoint) {
        let (_, ground_truth) = aes::decrypt_block_traced(&cfg.key, cfg.size, &cfg.block);
        let expected_plain = aes::decrypt_block(&cfg.key, cfg.size, &cfg.block);
        let (mut session, aspace, layout) = tracer.span(name::BUILD, || {
            let mut b = SessionBuilder::new();
            b.sim(cfg.sim);
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
            let session = b.build().expect("the AES session has a victim");
            (session, aspace, layout)
        });
        TimedSupervisor::install(session.machine_mut(), tracer);
        let checkpoint = tracer.span(name::CHECKPOINT, || session.machine().checkpoint());
        let report = run_window(&mut session, tracer, cfg.max_cycles);
        let plain = aes::read_output(&session.machine().hw().phys, aspace, &layout);
        let outcome = AesAttackOutcome {
            report,
            layout,
            ground_truth,
            decrypted_correctly: plain == expected_plain,
        };
        (outcome, session, checkpoint)
    }

    fn check(out: &AesAttackOutcome) -> Option<String> {
        let (recall, precision) = out.score(AES_HIT_THRESHOLD);
        if !out.decrypted_correctly {
            Some("the victim decrypted wrongly under attack".into())
        } else if recall < AES_MIN_SCORE || precision < AES_MIN_SCORE {
            Some(format!(
                "extraction too weak: recall {recall:.3}, precision {precision:.3}"
            ))
        } else {
            None
        }
    }
}

impl Workload for Aes {
    fn op(&mut self, index: u64) -> OpOutcome {
        let cfg = Self::config(self.seed, index);
        let t0 = Instant::now();
        let (mut outcome, engine, exported) = match &self.tracer {
            Some(t) => t.span(name::OP, || {
                let (outcome, session, _) = Self::replica(&cfg, t);
                let exported = t.span(name::EXPORT, || export::chrome_trace(&outcome.report.trace));
                let engine = session.machine().checkpoint_stats();
                (outcome, engine, Some(exported))
            }),
            None => (aes_attack::run(&cfg), Default::default(), None),
        };
        let host_ns = elapsed_ns(t0);
        let mut error = Self::check(&outcome);
        let (text, trace) = report_text(&mut outcome.report);
        if index == 0 && error.is_none() && text != self.expected {
            error = Some("operation 0 differs from the set-up reference".into());
        }
        let mut counters = Counters::from_report(&outcome.report, 0, trace.len());
        counters.restore_pages = engine.restore_pages;
        counters.pages_cow = engine.pages_cow;
        counters.export_bytes = exported.map_or(0, |s| s.len() as u64);
        OpOutcome {
            host_ns,
            counters,
            error,
        }
    }

    fn reference_digest(&self) -> u64 {
        fnv(self.expected.as_bytes())
    }

    fn problems(&self) -> &[String] {
        &self.problems
    }
}
