//! The repository's benchmark: closed-loop, single-client workloads over
//! the MicroScope simulator, every operation checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig10_sample --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload untraced and then with spans around each layer's public calls,
//! and prints the per-layer metrics. The last line of stdout is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See README.md
//! for the workloads and metric definitions.

mod spans;
mod speed;
mod workloads;

use spans::{name, Tracer};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workloads::{fnv, Counters, Kind, OpOutcome, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Per-layer counts are per-operation means over this many first
/// operations, so that they repeat exactly for a seed.
const COUNTER_OPS: usize = 8;

/// Reads one work counter.
type CounterOf = fn(&Counters) -> u64;

/// Per-layer counts: per-operation means over the first [`COUNTER_OPS`]
/// traced ops.
const COUNTS: [(&str, CounterOf); 18] = [
    ("cpu.sim_cycles", |c| c.sim_cycles),
    ("cpu.dispatched", |c| c.dispatched),
    ("cpu.squashed", |c| c.squashed),
    ("cpu.retired", |c| c.retired),
    ("checkpoint.restore_pages", |c| c.restore_pages),
    ("checkpoint.pages_cow", |c| c.pages_cow),
    ("os.calls", |c| c.os_calls),
    ("os.replays", |c| c.replays),
    ("os.observations", |c| c.observations),
    ("cache.l1.accesses", |c| c.l1_accesses),
    ("cache.l1.misses", |c| c.l1_misses),
    ("cache.dram_accesses", |c| c.dram_accesses),
    ("cache.line_flushes", |c| c.line_flushes),
    ("mem.tlb.misses", |c| c.tlb_misses),
    ("mem.walker.walks", |c| c.walks),
    ("mem.walker.faults", |c| c.walk_faults),
    ("probe.events", |c| c.probe_events),
    ("probe.export_bytes", |c| c.export_bytes),
];

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::parse(&value)
                        .ok_or(bad("expected fig10_sample, aes_extract or fig10_traced"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=3600).contains(s))
                        .ok_or(bad("expected 1 to 3600"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10) as f64,
        trace: trace.unwrap_or(false),
    })
}

/// What one run found.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Counts the operations and their failures.
    fn tally(&mut self, ops: &[OpOutcome]) {
        self.attempted += ops.len() as u64;
        for (i, op) in ops.iter().enumerate() {
            if let Some(e) = &op.error {
                self.failed += 1;
                if self.failed <= 5 {
                    eprintln!("operation {i} failed: {e}");
                }
            }
        }
    }

    fn print(&self) {
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "# attempted {} failed {} failed_frac {failed_frac} (ratio)",
            self.attempted, self.failed
        );
        for p in self.problems.iter().take(10) {
            println!("# problem: {p}");
        }
        if self.problems.len() > 10 {
            println!("# ... and {} more problems", self.problems.len() - 10);
        }
        let mut fields = Vec::new();
        for (name, value, unit) in &self.metrics {
            println!("# {name} = {value} {unit}");
            let value = if value.is_finite() { *value } else { 0.0 };
            fields.push(format!(
                "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            ));
        }
        let correct = self.failed == 0 && self.problems.is_empty();
        println!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(",")
        );
    }
}

/// Runs operations 0, 1, … back to back (one client, closed loop) until
/// `seconds` have passed; always at least one. With `kernel_ns`, times the
/// host-speed kernel before each operation and pushes its time there.
fn run_loop(
    w: &mut dyn Workload,
    seconds: f64,
    tracer: Option<&Tracer>,
    mut kernel_ns: Option<&mut Vec<f64>>,
) -> Vec<OpOutcome> {
    let t0 = Instant::now();
    // Reserved up front (virtual memory only, touched as it fills) so that
    // growing it never copies and `peak_rss_mb` does not depend on how the
    // op count falls against the growth steps.
    let mut ops: Vec<OpOutcome> = Vec::with_capacity((seconds * 2_000.0) as usize);
    while ops.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        if let Some(k) = kernel_ns.as_deref_mut() {
            k.push(speed::kernel_ns());
        }
        let from = tracer.map_or(0, Tracer::len);
        let mut op = w.op(ops.len() as u64);
        if let Some(t) = tracer {
            op.counters.os_calls = t.count_since(from, &[name::OS_FAULT, name::OS_INTERRUPT]);
        }
        ops.push(op);
    }
    ops
}

/// Sets `kind` up `reps` times; returns the last set-up and each one's
/// duration in seconds. Every set-up must produce the same references.
/// With `kernel_ns`, times the host-speed kernel before each set-up.
fn setup(
    kind: Kind,
    seed: u64,
    reps: usize,
    tracer: Option<&Tracer>,
    mut kernel_ns: Option<&mut Vec<f64>>,
    out: &mut Outcome,
) -> (Box<dyn Workload>, Vec<f64>) {
    let mut times = Vec::new();
    let mut last: Option<Box<dyn Workload>> = None;
    for _ in 0..reps {
        if let Some(k) = kernel_ns.as_deref_mut() {
            k.push(speed::kernel_ns());
        }
        let t0 = Instant::now();
        let w = match tracer {
            Some(t) => t.span(name::SETUP, || kind.setup(seed, Some(t))),
            None => kind.setup(seed, None),
        };
        times.push(t0.elapsed().as_secs_f64());
        if let Some(prev) = &last {
            if prev.reference_digest() != w.reference_digest() {
                out.problems
                    .push("set-up references differ between repeats".into());
            }
        }
        last = Some(w);
    }
    let w = last.expect("at least one set-up");
    out.problems.extend(w.problems().iter().cloned());
    (w, times)
}

/// `q`-quantile of `v` by linear interpolation.
pub(crate) fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

fn op_ms(ops: &[OpOutcome]) -> Vec<f64> {
    ops.iter().map(|o| o.host_ns as f64 / 1e6).collect()
}

/// Sum of a counter over `ops`.
fn total(ops: &[OpOutcome], f: impl Fn(&Counters) -> u64) -> f64 {
    ops.iter().map(|o| f(&o.counters)).sum::<u64>() as f64
}

/// Per-operation mean of a counter over the first [`COUNTER_OPS`] ops.
fn first_mean(ops: &[OpOutcome], f: impl Fn(&Counters) -> u64) -> f64 {
    let head = &ops[..ops.len().min(COUNTER_OPS)];
    total(head, f) / head.len() as f64
}

fn run_plain(args: &Args, out: &mut Outcome) -> Vec<(Kind, Vec<OpOutcome>)> {
    let mut setup_kernel = Vec::new();
    let (mut w, setups) = setup(
        args.kind,
        args.seed,
        SETUP_REPS,
        None,
        Some(&mut setup_kernel),
        out,
    );
    let mut op_kernel = Vec::new();
    let ops = run_loop(w.as_mut(), args.seconds, None, Some(&mut op_kernel));
    out.tally(&ops);
    // Every timing is scaled to the host's reference speed (see speed.rs);
    // the raw wall-clock figures are printed on `#` lines.
    let raw_ms = op_ms(&ops);
    let ms: Vec<f64> = raw_ms
        .iter()
        .zip(speed::scales(&op_kernel))
        .map(|(t, s)| t * s)
        .collect();
    let setup_scaled: Vec<f64> = setups
        .iter()
        .zip(speed::scales(&setup_kernel))
        .map(|(t, s)| t * s)
        .collect();
    // Throughputs are medians of per-operation rates, like the op times.
    let rate = |f: CounterOf| {
        let per_op: Vec<f64> = ops
            .iter()
            .zip(&ms)
            .map(|(o, ms)| f(&o.counters) as f64 * 1e3 / ms)
            .collect();
        quantile(&per_op, 0.5)
    };
    println!("# {} ops, {} set-ups", ops.len(), setups.len());
    println!(
        "# host speed: kernel median {} ns, {} ns at the reference speed",
        quantile(&op_kernel, 0.5),
        speed::REF_NS
    );
    println!(
        "# wall clock, not scaled: setup_s = {} s, op_ms_p50 = {} ms",
        quantile(&setups, 0.5),
        quantile(&raw_ms, 0.5)
    );
    println!("# {} ops beyond op_ms_p90", ops.len() / 10);
    out.metric("setup_s", quantile(&setup_scaled, 0.5), "s");
    out.metric("op_ms_p50", quantile(&ms, 0.5), "ms");
    out.metric("op_ms_p90", quantile(&ms, 0.9), "ms");
    out.metric("replays_per_s", rate(|c| c.replays), "1/s");
    out.metric("sim_cycles_per_s", rate(|c| c.sim_cycles), "1/s");
    out.metric("sim_insts_per_s", rate(|c| c.dispatched), "1/s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    vec![(args.kind, ops)]
}

fn run_traced(args: &Args, out: &mut Outcome, tracer: &Tracer) -> Vec<(Kind, Vec<OpOutcome>)> {
    // Phases share the run's seconds: the workload untraced, the same
    // workload traced and, for fig10_traced, the recorder-off workload the
    // recorder's overhead is measured against.
    let base_kind = match args.kind {
        Kind::Fig10Traced => Some(Kind::Fig10Sample),
        _ => None,
    };
    let phase_s = args.seconds / if base_kind.is_some() { 3.0 } else { 2.0 };
    let (mut plain, _) = setup(args.kind, args.seed, 1, None, None, out);
    let untraced = run_loop(plain.as_mut(), phase_s, None, None);
    let base = base_kind.map(|k| {
        let (mut w, _) = setup(k, args.seed, 1, None, None, out);
        (k, run_loop(w.as_mut(), phase_s, None, None))
    });
    let (mut traced, _) = setup(args.kind, args.seed, 1, Some(tracer), None, out);
    let ops = run_loop(traced.as_mut(), phase_s, Some(tracer), None);
    out.tally(&untraced);
    out.tally(&ops);
    if let Some((_, b)) = &base {
        out.tally(b);
    }

    let s = tracer.summary();
    let n = ops.len() as f64;
    let os = [name::OS_FAULT, name::OS_INTERRUPT];
    let op_mean_ms = op_ms(&ops).iter().sum::<f64>() / n;
    let base_ms = op_ms(base.as_ref().map_or(&untraced, |(_, b)| b));
    let base_mean_ms = base_ms.iter().sum::<f64>() / base_ms.len() as f64;
    println!(
        "# {} untraced ops, {} traced ops, {} base ops",
        untraced.len(),
        ops.len(),
        base_ms.len()
    );

    out.metric("cpu.run_self_ms", s.ms_per_op(&[name::RUN]), "ms");
    let run_ns = s.in_ops_ns(&[name::RUN]) as f64;
    out.metric(
        "cpu.ns_per_sim_cycle",
        run_ns / total(&ops, |c| c.sim_cycles),
        "ns",
    );
    out.metric(
        "cpu.ns_per_dispatched",
        run_ns / total(&ops, |c| c.dispatched),
        "ns",
    );
    out.metric("cpu.restore_us", s.us_per_call(name::RESTORE), "us");
    out.metric("cpu.checkpoint_us", s.us_per_call(name::CHECKPOINT), "us");
    out.metric("os.handler_ms", s.ms_per_op(&os), "ms");
    let os_calls = s.in_ops_calls(&os).max(1) as f64;
    out.metric(
        "os.us_per_call",
        s.in_ops_ns(&os) as f64 / 1e3 / os_calls,
        "us",
    );
    out.metric("core.build_ms", s.us_per_call(name::BUILD) / 1e3, "ms");
    out.metric("core.report_ms", s.us_per_call(name::REPORT) / 1e3, "ms");
    let export_ms = s.ms_per_op(&[name::EXPORT]);
    out.metric("probe.export_ms", export_ms, "ms");
    out.metric(
        "probe.record_overhead",
        (op_mean_ms - export_ms) / base_mean_ms,
        "ratio",
    );
    out.metric("probe.dropped", total(&ops, |c| c.dropped), "count");
    let p50 = |ms: &[f64]| quantile(ms, 0.5);
    out.metric(
        "trace.overhead",
        p50(&op_ms(&ops)) / p50(&op_ms(&untraced)),
        "ratio",
    );
    out.metric("trace.uncovered_ms", s.ms_per_op(&[name::OP]), "ms");
    out.metric("cpu.run_share", s.share(&[name::RUN]), "%");
    out.metric(
        "cpu.snapshot_share",
        s.share(&[name::RESTORE, name::CHECKPOINT]),
        "%",
    );
    out.metric("os.share", s.share(&os), "%");
    out.metric("core.share", s.share(&[name::BUILD, name::REPORT]), "%");
    out.metric("probe.export_share", s.share(&[name::EXPORT]), "%");
    for (name, count) in COUNTS {
        out.metric(name, first_mean(&ops, count), "count");
    }

    let mut runs = vec![(args.kind, untraced), (args.kind, ops)];
    runs.extend(base);
    runs
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Host, toolchain and source revision, as one JSON object.
fn fingerprint(args: &Args) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rev = if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "none (not a git checkout)".into()
    };
    let esc = microscope_probe::json::escape;
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"cpu\":\"{}\",\"rustc\":\"{}\",\"git_rev\":\"{}\"}}",
        args.kind.name(),
        args.seed,
        args.seconds,
        args.trace,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        esc(&cpu),
        esc(&command_line("rustc", &["-V"])),
        esc(&rev),
    )
}

/// Where the benchmark keeps what it writes: next to its own executable,
/// inside the build directory.
fn output_dir() -> Option<PathBuf> {
    Some(std::env::current_exe().ok()?.parent()?.to_path_buf())
}

/// Checks that each operation's work counters equal those recorded for the
/// same operation by every earlier run of this executable with this seed
/// (and by other phases of this run), then records the new ones.
fn check_ledger(seed: u64, runs: &[(Kind, Vec<OpOutcome>)], out: &mut Outcome) {
    let Some(dir) = output_dir() else { return };
    let exe = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    let dir = dir
        .join("perfbench-ledger")
        .join(format!("{:016x}", fnv(&exe)));
    for (kind, ops) in runs {
        let path = dir.join(format!("{}-{seed}.txt", kind.name()));
        let mut seen: BTreeMap<u64, String> = std::fs::read_to_string(&path)
            .unwrap_or_default()
            .lines()
            .filter_map(|l| l.split_once(' '))
            .filter_map(|(i, h)| Some((i.parse().ok()?, h.to_string())))
            .collect();
        for (i, op) in ops.iter().enumerate() {
            if op.error.is_some() {
                continue;
            }
            let work = format!("{:?}", op.counters.work());
            match seen.get(&(i as u64)) {
                Some(prev) if *prev != work => out.problems.push(format!(
                    "{} op {i}: work counters {work} differ from an earlier run's {prev}",
                    kind.name()
                )),
                Some(_) => {}
                None => {
                    seen.insert(i as u64, work);
                }
            }
        }
        let text: String = seen.iter().map(|(i, w)| format!("{i} {w}\n")).collect();
        let written = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, text));
        if let Err(e) = written {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: --workload <fig10_sample|aes_extract|fig10_traced> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let host = fingerprint(&args);
    println!("# host {host}");
    let mut out = Outcome::default();
    let runs = if args.trace {
        let tracer = Tracer::default();
        let runs = run_traced(&args, &mut out, &tracer);
        if let Some(dir) = output_dir() {
            let path = dir.join("perfbench-spans").join(format!(
                "{}-{}.json",
                args.kind.name(),
                args.seed
            ));
            match tracer.write_chrome(&path, &host) {
                Ok(()) => println!("# spans written to {}", path.display()),
                Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
            }
        }
        runs
    } else {
        run_plain(&args, &mut out)
    };
    check_ledger(args.seed, &runs, &mut out);
    out.print();
}
