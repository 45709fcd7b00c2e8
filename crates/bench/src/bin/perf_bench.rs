//! The perf-regression harness: measures the simulator's replay
//! throughput and emits `BENCH_replay.json`, the first point of the
//! repo's perf trajectory.
//!
//! Three workloads, three rates:
//!
//! * **fig10** — the port-contention attack (control-flow victim, replay
//!   module, SMT monitor). Measures **replays/sec** two ways: *cold*
//!   (each iteration rebuilds the session and simulates cycle-by-cycle,
//!   fast-forward off — the pre-checkpoint behaviour) and *warm* (one
//!   session, each iteration rewinds to the armed `MachineCheckpoint`
//!   and re-runs with idle-cycle fast-forward on). The warm/cold ratio
//!   is the speedup the checkpoint/fast-forward engine buys; in full
//!   mode the harness **fails below 3×** — that is the regression gate.
//!   Simulated-cycles/sec comes from the same runs.
//! * **table1** — the side-channel taxonomy catalog as a sweep grid
//!   (reduced trials). Measures **sweep points/sec**.
//! * **sec8** — static attack-plan analysis plus in-simulator
//!   `validate_plan` confirmation (which itself exercises a checkpointed
//!   re-run). Measures **plans validated/sec**.
//! * **checkpoint** — the copy-on-write snapshot engine in isolation.
//!   Measures **checkpoint_capture_per_sec** at a base footprint and at
//!   8x the resident pages (`capture_flatness_8x` near 1.0 demonstrates
//!   capture is O(dirty pages), not O(footprint)), plus
//!   **restore_pages_per_replay** — how many pages a warm rewind
//!   actually swaps.
//!
//! Usage: `perf_bench [--smoke] [--out PATH] [--validate PATH]`.
//! `--smoke` shrinks every workload for CI; `--validate` parses an
//! existing emit, checks the schema, and exits (no simulation).

use microscope_bench::{extract_flag, extract_flag_value, parse_or_exit};
use microscope_channels::port_contention::{self, PortContentionConfig};
use microscope_channels::taxonomy;
use microscope_core::sweep::{SweepPoint, SweepSpec};
use microscope_core::{AttackSession, RunRequest, SessionBuilder, SimConfig};
use microscope_cpu::{Assembler, ContextId, Reg};
use microscope_mem::{PAddr, PteFlags, VAddr, PAGE_BYTES};
use microscope_os::WalkTuning;
use microscope_probe::json::{self, escape, Json};
use std::time::Instant;

/// One measured workload, ready to serialize.
struct Workload {
    name: &'static str,
    /// `(metric name, value)` pairs, emitted in order.
    metrics: Vec<(&'static str, f64)>,
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = extract_flag(&mut args, "--smoke");
    let out = parse_or_exit(extract_flag_value(&mut args, "--out"))
        .unwrap_or_else(|| "BENCH_replay.json".into());
    let validate = parse_or_exit(extract_flag_value(&mut args, "--validate"));
    if let Some(extra) = args.first() {
        eprintln!("error: unknown argument {extra:?}");
        std::process::exit(2);
    }
    if let Some(path) = validate {
        std::process::exit(match validate_emit(&path) {
            Ok(summary) => {
                println!("{summary}");
                0
            }
            Err(e) => {
                eprintln!("error: {path}: {e}");
                1
            }
        });
    }

    let mode = if smoke { "smoke" } else { "full" };
    println!("== perf_bench ({mode}) ==\n");
    let workloads = vec![
        bench_fig10(smoke),
        bench_table1(smoke),
        bench_sec8(smoke),
        bench_checkpoint(smoke),
    ];
    for w in &workloads {
        println!("[{}]", w.name);
        for (k, v) in &w.metrics {
            println!("  {k:<26} {v:.3}");
        }
    }
    let doc = render(mode, &workloads);
    if let Err(e) = std::fs::write(&out, &doc) {
        eprintln!("error: cannot write {out}: {e}");
        std::process::exit(1);
    }
    println!("\nwrote {out}");

    let speedup = workloads[0]
        .metrics
        .iter()
        .find(|(k, _)| *k == "speedup")
        .map(|(_, v)| *v)
        .expect("fig10 reports a speedup");
    // The regression gate: checkpointed fast-forward replay must stay >=3x
    // faster than cold cycle-by-cycle re-execution. Smoke workloads are too
    // small for a stable ratio, so CI only checks the emit's schema there.
    if !smoke && speedup < 3.0 {
        eprintln!("error: fig10 warm/cold speedup {speedup:.2}x is below the 3x floor");
        std::process::exit(1);
    }
}

/// Figure-10 replay throughput, cold vs checkpointed + fast-forward.
fn bench_fig10(smoke: bool) -> Workload {
    let cfg = PortContentionConfig {
        samples: if smoke { 64 } else { 256 },
        replays: if smoke { 120 } else { 400 },
        handler_cycles: 800,
        walk: WalkTuning::Long,
        max_cycles: if smoke { 30_000_000 } else { 80_000_000 },
        ambient_interrupt_retires: None,
        probe: None,
    };
    let iters = if smoke { 3 } else { 6 };

    // Cold: the pre-checkpoint cost model — build the session from scratch
    // and simulate every cycle (fast-forward off) each time.
    let t = Instant::now();
    let (mut cold_replays, mut cold_cycles) = (0u64, 0u64);
    for _ in 0..iters {
        let mut session = port_contention::build_session(true, &cfg);
        session.machine_mut().set_fast_forward(false);
        let report = session
            .execute(RunRequest::cold(cfg.max_cycles))
            .expect("a cold run cannot fail");
        cold_replays += report.replays();
        cold_cycles += report.cycles;
    }
    let cold_secs = t.elapsed().as_secs_f64().max(1e-9);

    // Warm: one session; the first run captures the armed checkpoint, then
    // every iteration rewinds to it and re-runs with fast-forward on.
    let mut session = port_contention::build_session(true, &cfg);
    let first = session
        .execute(RunRequest::cold(cfg.max_cycles))
        .expect("a cold run cannot fail");
    let t = Instant::now();
    let (mut warm_replays, mut warm_cycles) = (0u64, 0u64);
    for _ in 0..iters {
        let report = session
            .execute(RunRequest::cold(cfg.max_cycles).from_checkpoint())
            .expect("first run armed the replay handle");
        assert_eq!(
            report.replays(),
            first.replays(),
            "a checkpointed re-run must reproduce the cold replay count"
        );
        warm_replays += report.replays();
        warm_cycles += report.cycles;
    }
    let warm_secs = t.elapsed().as_secs_f64().max(1e-9);

    let cold_rate = cold_replays as f64 / cold_secs;
    let warm_rate = warm_replays as f64 / warm_secs;
    Workload {
        name: "fig10",
        metrics: vec![
            ("iters", iters as f64),
            ("replays_per_iter", (warm_replays / iters) as f64),
            ("cold_replays_per_sec", cold_rate),
            ("warm_replays_per_sec", warm_rate),
            ("speedup", warm_rate / cold_rate.max(1e-9)),
            ("cold_sim_cycles_per_sec", cold_cycles as f64 / cold_secs),
            ("warm_sim_cycles_per_sec", warm_cycles as f64 / warm_secs),
        ],
    }
}

/// Table-1 taxonomy catalog as a sweep grid: points/sec.
fn bench_table1(smoke: bool) -> Workload {
    type RowRun = (fn(u32, u64) -> taxonomy::Measurement, u32);
    let trials = if smoke { 4 } else { 12 };
    let rows = taxonomy::catalog();
    let defs: Vec<(String, SimConfig, RowRun)> = rows
        .iter()
        .map(|row| {
            (
                row.name.to_string(),
                SimConfig::default(),
                (row.experiment, trials),
            )
        })
        .collect();
    let points = defs.len() as u64;
    let t = Instant::now();
    let sweep = SweepSpec::new("perf-table1", |pt: &SweepPoint<RowRun>| {
        let (experiment, t) = pt.payload;
        Ok(experiment(t, 0xdecade + t as u64))
    })
    .points(defs)
    .jobs(1)
    .run();
    let secs = t.elapsed().as_secs_f64().max(1e-9);
    let failed = sweep.errors().count() as f64;
    Workload {
        name: "table1",
        metrics: vec![
            ("points", points as f64),
            ("failed", failed),
            ("points_per_sec", points as f64 / secs),
            ("elapsed_sec", secs),
        ],
    }
}

/// §8 plan validation: static analysis plus simulator confirmation.
fn bench_sec8(smoke: bool) -> Workload {
    use microscope_analyze::{analyze, validate_plan};
    use microscope_victims::single_secret;

    let reps = if smoke { 2 } else { 6 };
    let t = Instant::now();
    let (mut validated, mut confirmed, mut reconfirmed) = (0u64, 0u64, 0u64);
    for _ in 0..reps {
        let mut b = SessionBuilder::new();
        let aspace = b.new_aspace(1);
        let table = single_secret::secrets_with_subnormal(8, 3);
        let (prog, layout) =
            single_secret::build(b.phys(), aspace, VAddr(0x100_0000), &table, 3, 1.5);
        let secrets = single_secret::secrets(&layout, 8);
        let report = analyze(
            "single_secret",
            &prog,
            &secrets,
            &SimConfig::default(),
            b.phys(),
            aspace,
        );
        b.victim(prog, aspace);
        if let Some(plan) = report.plans.first() {
            let v = validate_plan(b, plan, None, 4_000_000).expect("page-fault plan drives");
            validated += 1;
            confirmed += u64::from(v.confirmed);
            reconfirmed += u64::from(v.replay_reconfirmed == Some(true));
        }
    }
    let secs = t.elapsed().as_secs_f64().max(1e-9);
    Workload {
        name: "sec8",
        metrics: vec![
            ("plans_validated", validated as f64),
            ("confirmed", confirmed as f64),
            ("rerun_reconfirmed", reconfirmed as f64),
            ("plans_per_sec", validated as f64 / secs),
        ],
    }
}

/// Builds the small checkpoint-bench victim, with `extra_pages` frames
/// materialized beyond it so the resident footprint can be scaled
/// without changing the workload.
fn checkpoint_session(extra_pages: u64) -> AttackSession {
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
    b.build().expect("checkpoint bench session has a victim")
}

/// Times `iters` checkpoint captures on a session with `extra_pages`
/// of materialized physical memory, returning captures/sec.
fn capture_rate(extra_pages: u64, iters: u64) -> f64 {
    let session = checkpoint_session(extra_pages);
    let t = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(session.machine().checkpoint());
    }
    iters as f64 / t.elapsed().as_secs_f64().max(1e-9)
}

/// The CoW snapshot engine in isolation: capture throughput (flat in the
/// resident footprint) and the page cost of a warm rewind.
fn bench_checkpoint(smoke: bool) -> Workload {
    let iters = if smoke { 20_000 } else { 200_000 };
    let base_pages = 64u64;
    // Warm-up pass absorbs one-time costs (allocator, cache state), then
    // measure base and 8x resident footprints.
    capture_rate(base_pages, iters / 10);
    let rate_base = capture_rate(base_pages, iters);
    let rate_8x = capture_rate(base_pages * 8, iters);

    // Warm rewinds on the fig10 session: how many pages does a restore
    // actually swap, and how many get copy-on-write-duplicated per replay?
    let cfg = PortContentionConfig {
        samples: 32,
        replays: 60,
        handler_cycles: 800,
        walk: WalkTuning::Long,
        max_cycles: 30_000_000,
        ambient_interrupt_retires: None,
        probe: None,
    };
    let replays = if smoke { 4 } else { 12 };
    let mut session = port_contention::build_session(true, &cfg);
    session
        .execute(RunRequest::cold(cfg.max_cycles))
        .expect("a cold run cannot fail");
    let before = session.machine().checkpoint_stats();
    for _ in 0..replays {
        session
            .execute(RunRequest::cold(cfg.max_cycles).from_checkpoint())
            .expect("first run armed the replay handle");
    }
    let after = session.machine().checkpoint_stats();
    let restores = (after.restores - before.restores).max(1);
    let restore_pages_per_replay =
        (after.restore_pages - before.restore_pages) as f64 / restores as f64;
    let pages_cow_per_replay = (after.pages_cow - before.pages_cow) as f64 / restores as f64;

    Workload {
        name: "checkpoint",
        metrics: vec![
            ("capture_iters", iters as f64),
            ("touched_pages_base", base_pages as f64),
            ("checkpoint_capture_per_sec", rate_base),
            ("capture_per_sec_8x", rate_8x),
            ("capture_flatness_8x", rate_8x / rate_base.max(1e-9)),
            ("restore_pages_per_replay", restore_pages_per_replay),
            ("pages_cow_per_replay", pages_cow_per_replay),
        ],
    }
}

/// Serializes the run to the `microscope-bench-replay-v1` schema.
fn render(mode: &str, workloads: &[Workload]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"microscope-bench-replay-v1\",\n");
    out.push_str(&format!("  \"mode\": \"{}\",\n", escape(mode)));
    out.push_str("  \"workloads\": {\n");
    for (wi, w) in workloads.iter().enumerate() {
        out.push_str(&format!("    \"{}\": {{\n", escape(w.name)));
        for (mi, (k, v)) in w.metrics.iter().enumerate() {
            let sep = if mi + 1 == w.metrics.len() { "" } else { "," };
            // f64 Display never yields NaN/inf here (rates are clamped),
            // so the emitted token is always a valid JSON number.
            out.push_str(&format!("      \"{}\": {v}{sep}\n", escape(k)));
        }
        let sep = if wi + 1 == workloads.len() { "" } else { "," };
        out.push_str(&format!("    }}{sep}\n"));
    }
    out.push_str("  }\n}\n");
    out
}

/// Schema check for an existing emit: parses the JSON, requires the
/// schema tag and the metrics CI keys on, and returns a summary line.
fn validate_emit(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let doc = json::parse(&text).map_err(|e| e.to_string())?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing \"schema\"")?;
    if schema != "microscope-bench-replay-v1" {
        return Err(format!("unknown schema {schema:?}"));
    }
    doc.get("mode")
        .and_then(Json::as_str)
        .ok_or("missing \"mode\"")?;
    for key in [
        "workloads.fig10.cold_replays_per_sec",
        "workloads.fig10.warm_replays_per_sec",
        "workloads.fig10.speedup",
        "workloads.fig10.warm_sim_cycles_per_sec",
        "workloads.table1.points_per_sec",
        "workloads.sec8.plans_per_sec",
        "workloads.checkpoint.checkpoint_capture_per_sec",
        "workloads.checkpoint.restore_pages_per_replay",
    ] {
        let v = doc
            .path(key)
            .and_then(Json::as_num)
            .ok_or(format!("missing or non-numeric {key:?}"))?;
        if !v.is_finite() || v < 0.0 {
            return Err(format!("{key:?} is not a finite non-negative rate: {v}"));
        }
    }
    let speedup = doc
        .path("workloads.fig10.speedup")
        .and_then(Json::as_num)
        .expect("checked above");
    Ok(format!("{path}: schema ok (fig10 speedup {speedup:.2}x)"))
}
