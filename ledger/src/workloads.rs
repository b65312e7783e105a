//! The five workloads and the metrics each run reports.
//!
//! Every workload reports every end-to-end metric.  The compile-side
//! figures (`stub_bytes`, and the compile and recompile times in the
//! detail line) describe the workload's contract: the synthetic one for
//! `compile`, and for the runtime workloads `bench.idl`, whose compiled
//! stubs they run (every setup compiles it and checks that the compiler
//! still emits exactly those stubs; the times come from rounds in
//! pauses of the serving window).
//! The call-side ones (`calls_per_s`, `payload_mb_per_s`, `p50_us`,
//! `server_cpu_us_per_call`) count calls for the runtime workloads and
//! compiles for `compile`.
//!
//! Timed figures are means over slices: a run is cut into slices
//! (half-second slices of the serving window; rounds over every compile
//! unit), each figure is computed exactly within each slice, and the
//! run reports the mean slice with the lowest and highest tenth
//! dropped.  A shared host runs whole slices fast or slow, by up to
//! half, for seconds at a time; the mean follows the share of slow
//! slices smoothly, where a median jumps when that share crosses half.

use std::sync::Arc;
use std::time::Instant;

use flick::PlanCache;
use flick_runtime::bridge::BridgeCounters;
use flick_runtime::fabric::{FabricStats, Framing};
use flick_telemetry::json::{string, ObjectWriter};

use crate::compile::{self, Contract, Output, Shape, Unit};
use crate::report::{self, median, num, pct, pct_json, trimmed_mean, Metrics};
use crate::rpc::{self, Checks, Inputs, Load, Loop, Op, Plan, Rig, Window};
use crate::trace::{self, Layer, LayerTotals};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Compile,
    RpcSmall,
    RpcBulk,
    RpcPaced,
    Bridge,
}

impl Workload {
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "compile" => Workload::Compile,
            "rpc_small" => Workload::RpcSmall,
            "rpc_bulk" => Workload::RpcBulk,
            "rpc_paced" => Workload::RpcPaced,
            "bridge" => Workload::Bridge,
            _ => return None,
        })
    }

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Compile => "compile",
            Workload::RpcSmall => "rpc_small",
            Workload::RpcBulk => "rpc_bulk",
            Workload::RpcPaced => "rpc_paced",
            Workload::Bridge => "bridge",
        }
    }

    /// The runtime workloads' traffic.  Load is sized for two cores:
    /// one client thread, at most two connections, one fabric worker.
    fn plan(self, tiny: bool) -> Option<Plan> {
        let onc_giop = vec![Framing::OncRecord, Framing::Giop];
        Some(match self {
            Workload::Compile => return None,
            Workload::RpcSmall => Plan {
                conns: onc_giop,
                bridge: false,
                ops: vec![Op::Stat, Op::Ints(16)],
                load: Loop::Closed { depth: 32 },
                latency_stride: 32,
            },
            Workload::RpcBulk => Plan {
                conns: onc_giop,
                bridge: false,
                ops: vec![Op::Ints(16_384), Op::Dirents(64)],
                // Deep enough that the worker never runs dry while the
                // client encodes and writes the next 64 KB call; at depth
                // 2 a client stall sends the worker into its idle backoff
                // and throughput halves from one run to the next.
                load: Loop::Closed { depth: 8 },
                latency_stride: 1,
            },
            Workload::RpcPaced => Plan {
                conns: vec![Framing::OncRecord],
                bridge: false,
                ops: vec![Op::Stat, Op::Ints(16)],
                load: Loop::Open {
                    rate: if tiny { 2_000.0 } else { 20_000.0 },
                },
                latency_stride: 1,
            },
            Workload::Bridge => Plan {
                conns: vec![Framing::OncRecord, Framing::OncRecord],
                bridge: true,
                ops: vec![Op::Ints(64), Op::Rects(16), Op::Dirents(4), Op::Stat],
                load: Loop::Closed { depth: 16 },
                latency_stride: 8,
            },
        })
    }
}

/// Command-line settings for one run.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Smoke-test size: a small contract, a few hundred calls.
    pub tiny: bool,
}

impl Args {
    /// Setups per timed run of `compile`; `setup_s` is their trimmed mean.
    /// (The runtime workloads set up again in every pause of their
    /// serving window.)
    fn setups(&self) -> usize {
        if self.tiny {
            1
        } else {
            SETUPS
        }
    }
}

/// Setups per timed run of `compile`.
const SETUPS: usize = 9;

fn ns(secs: f64) -> u64 {
    (secs * 1e9) as u64
}

/// Length of one slice of a serving window.
const SLICE_S: f64 = 0.5;

/// Everything one run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub succeeded: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Metrics,
    /// Extra fields for the detail line (sample counts, layers).
    pub detail: Vec<(String, String)>,
}

impl Outcome {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 16 {
            self.failures.push(why);
        }
    }

    fn detail(&mut self, key: &str, json: String) {
        self.detail.push((key.to_string(), json));
    }

    fn absorb(&mut self, load: &mut Load) {
        self.attempted += load.attempted;
        self.succeeded += load.succeeded;
        self.failed += load.failed;
        self.failures.append(&mut load.failures);
    }
}

/// Runs `args.workload` once.
#[must_use]
pub fn run(args: &Args) -> Outcome {
    let mut out = match args.workload.plan(args.tiny) {
        None => run_compile(args),
        Some(plan) => run_rpc(args, &plan),
    };
    if args.traced {
        spans_detail(&mut out, args);
    }
    out
}

// ---------------------------------------------------------------- compiling

/// Cold-compile, recompile-after-edit, and cold-compile-the-edit of
/// one unit, with the checks that tie them together.
struct Cycle {
    cold_ms: [f64; 2],
    re_ms: f64,
    out: Output,
    hits: u64,
    misses: u64,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn cycle(
    unit: &Unit,
    reference: Option<&Output>,
    traced: bool,
    xid: &mut u64,
) -> Result<Cycle, String> {
    let (out, c1, re, r, cold_ed, c2, hits, misses);
    if traced {
        let mut next = || {
            *xid += 1;
            trace::COMPILE_XID_BASE + *xid
        };
        let mut cache = PlanCache::in_memory();
        let t = Instant::now();
        out = compile::compile_traced(unit, &unit.text, &mut cache, next())?.0;
        c1 = ms_since(t);
        // The recompile is timed but not traced: the compile-layer
        // metrics describe cold compiles, and the cache hit ratio
        // comes from the back end's own report.
        trace::set_enabled(false);
        let t = Instant::now();
        let (o, facts) = compile::compile_traced(unit, &unit.edited, &mut cache, 0)?;
        r = ms_since(t);
        trace::set_enabled(true);
        (re, hits, misses) = (o, facts.cache_hits, facts.cache_misses);
        let t = Instant::now();
        cold_ed =
            compile::compile_traced(unit, &unit.edited, &mut PlanCache::in_memory(), next())?.0;
        c2 = ms_since(t);
    } else {
        let mut s = compile::session(unit);
        let t = Instant::now();
        out = compile::compile(&mut s, unit, &unit.text)?;
        c1 = ms_since(t);
        let before = s.cache_stats();
        let t = Instant::now();
        re = compile::compile(&mut s, unit, &unit.edited)?;
        r = ms_since(t);
        let after = s.cache_stats();
        (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
        let t = Instant::now();
        cold_ed = compile::compile(&mut compile::session(unit), unit, &unit.edited)?;
        c2 = ms_since(t);
    }
    match reference {
        Some(r) if *r != out => return Err(format!("{}: two cold compiles differ", unit.name)),
        Some(_) => {}
        None => compile::check_output(unit, &out, true)?,
    }
    if re != cold_ed {
        return Err(format!(
            "{}: recompile after a one-op edit differs from a cold compile of the edited text",
            unit.name
        ));
    }
    compile::check_output(unit, &cold_ed, false)?;
    Ok(Cycle {
        cold_ms: [c1, c2],
        re_ms: r,
        out,
        hits,
        misses,
    })
}

/// One round: a cycle of every unit of a contract.
#[derive(Default)]
struct Round {
    /// Sum over units of the median of each unit's cold compiles.
    cold_ms: f64,
    /// Sum over units of the recompile times.
    re_ms: f64,
    /// Every cold compile's time (ns).
    cold_ns: Vec<u64>,
    compiles: u64,
    source_bytes: u64,
    secs: f64,
    cpu_ns: u64,
}

/// The rounds of a contract, plus what the cycles reported.
#[derive(Default)]
struct Compiles {
    rounds: Vec<Round>,
    /// Reference outputs (the first cold compile of each unit).
    refs: Vec<Option<Output>>,
    cold: u64,
    hits: u64,
    misses: u64,
}

impl Compiles {
    fn new(refs: Vec<Option<Output>>) -> Compiles {
        Compiles {
            refs,
            ..Compiles::default()
        }
    }

    /// Runs one round over `units`.
    fn round(&mut self, units: &[Unit], traced: bool, xid: &mut u64, o: &mut Outcome) {
        let t = Instant::now();
        let cpu0 = report::process_cpu_ns();
        let mut r = Round::default();
        for (u, unit) in units.iter().enumerate() {
            o.attempted += 3;
            match cycle(unit, self.refs[u].as_ref(), traced, xid) {
                Ok(c) => {
                    o.succeeded += 3;
                    r.cold_ms += (c.cold_ms[0] + c.cold_ms[1]) / 2.0;
                    r.re_ms += c.re_ms;
                    r.cold_ns.extend(c.cold_ms.map(|ms| (ms * 1e6) as u64));
                    r.compiles += 3;
                    r.source_bytes += (unit.text.len() + 2 * unit.edited.len()) as u64;
                    self.cold += 2;
                    self.hits += c.hits;
                    self.misses += c.misses;
                    if self.refs[u].is_none() {
                        self.refs[u] = Some(c.out);
                    }
                }
                Err(e) => o.fail(e),
            }
        }
        r.secs = t.elapsed().as_secs_f64();
        r.cpu_ns = report::process_cpu_ns() - cpu0;
        self.rounds.push(r);
    }

    fn stub_bytes(&self) -> u64 {
        self.refs.iter().flatten().map(|r| r.bytes() as u64).sum()
    }

    /// The contract figures every workload reports.  The compile and
    /// recompile times go to the detail line only: they follow the
    /// host's slow and fast spells by more than any usable bound (see
    /// `ledger/README.md`).
    fn report_contract(&self, o: &mut Outcome) {
        let each = |f: fn(&Round) -> f64| self.rounds.iter().map(f).collect::<Vec<f64>>();
        let mut d = ObjectWriter::new();
        d.u64_field("rounds", self.rounds.len() as u64)
            .raw("compile_ms_p50", &num(median(&each(|r| r.cold_ms))))
            .raw("recompile_ms_p50", &num(median(&each(|r| r.re_ms))));
        o.detail("contract", d.finish());
        o.metrics.set("stub_bytes", self.stub_bytes() as f64, "B");
    }

    /// The call-side metrics of the `compile` workload, where a call is
    /// one compile.
    fn report_calls(&self, o: &mut Outcome) {
        let each = |f: &dyn Fn(&Round) -> f64| self.rounds.iter().map(f).collect::<Vec<f64>>();
        let m = &mut o.metrics;
        m.set(
            "calls_per_s",
            trimmed_mean(&each(&|r| r.compiles as f64 / r.secs)),
            "1/s",
        );
        m.set(
            "payload_mb_per_s",
            trimmed_mean(&each(&|r| r.source_bytes as f64 / r.secs / 1e6)),
            "MB/s",
        );
        m.set(
            "server_cpu_us_per_call",
            trimmed_mean(&each(&|r| r.cpu_ns as f64 / r.compiles.max(1) as f64 / 1e3)),
            "us",
        );
        let lat: Vec<Vec<u64>> = self.rounds.iter().map(|r| r.cold_ns.clone()).collect();
        latency_metrics(o, &lat);
    }
}

/// Latency figures from per-slice samples: each slice's exact
/// percentiles; `p50_us` is the trimmed mean over slices, with the whole window's
/// exact percentiles and sample counts in the detail.
fn latency_metrics(o: &mut Outcome, slices: &[Vec<u64>]) {
    let mut per: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut counts = Vec::new();
    let mut all = Vec::new();
    for s in slices.iter().filter(|s| !s.is_empty()) {
        let mut v = s.clone();
        v.sort_unstable();
        per[0].push(pct(&v, 0.50).value);
        per[1].push(pct(&v, 0.99).value);
        counts.push(v.len() as f64);
        all.extend(v);
    }
    all.sort_unstable();
    o.metrics.set("p50_us", trimmed_mean(&per[0]) / 1e3, "us");
    let mut d = ObjectWriter::new();
    d.u64_field("slices", counts.len() as u64)
        .raw("median_samples_per_slice", &num(median(&counts)))
        .raw("window_p50_us", &pct_json(pct(&all, 0.50), 1e-3))
        .raw("window_p99_us", &pct_json(pct(&all, 0.99), 1e-3));
    for (key, v) in [("slice_p50_us", &per[0]), ("slice_p99_us", &per[1])] {
        let list: Vec<String> = v.iter().map(|v| format!("{:.1}", v / 1e3)).collect();
        d.raw(key, &format!("[{}]", list.join(", ")));
    }
    o.detail("percentiles", d.finish());
}

/// Compile-layer metrics from the traced cold compiles since the last
/// reset.
fn compile_layer_metrics(m: &mut Metrics, c: &Compiles, units: &[Unit]) {
    let per = |l: usize| trace::totals(l).total_ns as f64 / c.cold.max(1) as f64 / 1e6;
    m.set("frontend.parse_ms", per(Layer::Parse as usize), "ms");
    m.set("presgen.ms", per(Layer::Presgen as usize), "ms");
    m.set("backend.plan_ms", per(Layer::Plan as usize), "ms");
    for (i, name) in trace::pass_names().iter().enumerate() {
        m.set(
            &format!("backend.pass.{name}_ms"),
            per(Layer::pass(i)),
            "ms",
        );
    }
    m.set("backend.emit_c_ms", per(Layer::EmitC as usize), "ms");
    m.set("cast.print_c_ms", per(Layer::PrintC as usize), "ms");
    m.set("backend.emit_rust_ms", per(Layer::EmitRust as usize), "ms");
    let enabled = trace::enabled();
    trace::set_enabled(false);
    let facts: Vec<compile::Facts> = units
        .iter()
        .filter_map(|u| compile::compile_traced(u, &u.text, &mut PlanCache::in_memory(), 0).ok())
        .map(|(_, f)| f)
        .collect();
    trace::set_enabled(enabled);
    let n = facts.len().max(1) as f64;
    let mean = |f: fn(&compile::Facts) -> u64| facts.iter().map(|x| f(x) as f64).sum::<f64>() / n;
    m.set("presgen.mint_nodes", mean(|f| f.mint_nodes), "count");
    m.set("backend.plan_nodes", mean(|f| f.plan_nodes), "count");
    m.set(
        "backend.cache_hit_ratio",
        c.hits as f64 / (c.hits + c.misses).max(1) as f64,
        "ratio",
    );
    let outs: Vec<&Output> = c.refs.iter().flatten().collect();
    let n = outs.len().max(1) as f64;
    let bytes = |f: fn(&Output) -> usize| outs.iter().map(|o| f(o) as f64).sum::<f64>() / n;
    m.set("backend.rust_bytes", bytes(|o| o.rust.len()), "B");
    m.set("backend.c_bytes", bytes(|o| o.c.len()), "B");
}

fn run_compile(args: &Args) -> Outcome {
    let mut o = Outcome::default();
    let shape = if args.tiny {
        Shape {
            structs: 12,
            ifaces: 2,
            ops: 10,
        }
    } else {
        Shape {
            structs: 60,
            ifaces: 4,
            ops: 50,
        }
    };
    // Setup: generate the contract and cold-compile every unit once;
    // those outputs are the references later compiles must equal.
    let mut setup_s = Vec::new();
    let mut units = Vec::new();
    let mut refs = Vec::new();
    for _ in 0..args.setups() {
        let t = Instant::now();
        units = compile::synthetic_units(&Contract::synth(args.seed, shape));
        refs.clear();
        for u in &units {
            o.attempted += 1;
            match compile::compile(&mut compile::session(u), u, &u.text)
                .and_then(|out| compile::check_output(u, &out, true).map(|()| out))
            {
                Ok(out) => {
                    o.succeeded += 1;
                    refs.push(Some(out));
                }
                Err(e) => {
                    o.fail(e);
                    return o;
                }
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut c = Compiles::new(refs);
    if args.traced {
        trace::set_enabled(true);
        trace::reset();
    }
    let mut xid = 0;
    let t0 = Instant::now();
    let rounds = if args.tiny { 2 } else { usize::MAX };
    while t0.elapsed().as_secs_f64() < args.seconds && c.rounds.len() < rounds {
        c.round(&units, args.traced, &mut xid, &mut o);
    }
    if args.traced {
        let m = &mut o.metrics;
        compile_layer_metrics(m, &c, &units);
        let compile = trace::totals(Layer::Compile as usize);
        m.set(
            "unattributed_ns_per_call",
            compile.self_ns as f64 / c.cold.max(1) as f64,
            "ns",
        );
        trace::set_enabled(false);
        // Overhead: traced rounds against one untraced round.
        let mut plain = Compiles::new(c.refs.clone());
        plain.round(&units, false, &mut xid, &mut o);
        let traced_ms = median(&c.rounds.iter().map(|r| r.cold_ms).collect::<Vec<_>>());
        o.metrics.set(
            "trace.overhead_pct",
            (traced_ms / plain.rounds[0].cold_ms - 1.0) * 100.0,
            "%",
        );
    } else {
        o.metrics.set("setup_s", trimmed_mean(&setup_s), "s");
        c.report_contract(&mut o);
        c.report_calls(&mut o);
        let mut d = ObjectWriter::new();
        let list: Vec<String> = c
            .rounds
            .iter()
            .map(|r| format!("{:.3}", r.cold_ms))
            .collect();
        d.u64_field("rounds", c.rounds.len() as u64)
            .u64_field("units", units.len() as u64)
            .raw("round_cold_ms", &format!("[{}]", list.join(", ")));
        o.detail("compile", d.finish());
    }
    o
}

// ---------------------------------------------------------------- serving

/// Checks that hold once a rig has stopped.
fn serving_checks(
    o: &mut Outcome,
    plan: &Plan,
    checks: &Checks,
    stats: &FabricStats,
    b: BridgeCounters,
    sent: u64,
) {
    use std::sync::atomic::Ordering::Relaxed;
    let bad = checks.failed.load(Relaxed);
    if bad > 0 {
        o.fail(format!("{bad} server-side argument checks failed"));
    }
    if checks.checked.load(Relaxed) == 0 && sent >= 64 {
        o.fail("no server-side argument was checked".into());
    }
    if stats.accepted() != stats.closed() {
        o.fail(format!(
            "fabric accepted {} connections but closed {}",
            stats.accepted(),
            stats.closed()
        ));
    }
    for (what, n) in [
        ("shed", stats.shed()),
        ("expired", stats.expired()),
        ("evicted", stats.evicted()),
        ("bridge-rejected", b.rejected),
    ] {
        if n > 0 {
            o.failed += n;
            o.failures.push(format!("{n} calls {what}"));
        }
    }
    if plan.bridge && b.forwarded != sent {
        o.fail(format!("bridge forwarded {} of {sent} calls", b.forwarded));
    }
}

/// Drives a fresh rig for `window`, stops it, and checks it.
fn serve(
    o: &mut Outcome,
    args: &Args,
    plan: &Plan,
    rig: Rig,
    window: Window,
    traced: bool,
    pause: Option<&mut dyn FnMut()>,
) -> (Load, FabricStats, BridgeCounters) {
    let mut rig = rig;
    let mut load = rpc::drive(&mut rig, plan, args.seed, window, traced, pause);
    let checks = rig.checks.clone();
    let (stats, b) = rig.stop();
    o.absorb(&mut load);
    serving_checks(o, plan, &checks, &stats, b, load.attempted);
    let mut f = ObjectWriter::new();
    f.u64_field("accepted", stats.accepted())
        .u64_field("closed", stats.closed())
        .u64_field("bridge_forwarded", b.forwarded)
        .u64_field(
            "server_args_checked",
            checks.checked.load(std::sync::atomic::Ordering::Relaxed),
        );
    o.detail(
        if traced { "serving_traced" } else { "serving" },
        f.finish(),
    );
    (load, stats, b)
}

/// One setup of a runtime workload: compile the contract (and check it
/// is what the workload runs), build the inputs, start the server and
/// dial.  Returns the rig and the seconds setup took.
fn setup_rpc(
    args: &Args,
    plan: &Plan,
    units: &[Unit],
    c: &mut Compiles,
    xid: &mut u64,
    o: &mut Outcome,
) -> (Rig, f64) {
    let t = Instant::now();
    c.round(units, false, xid, o);
    if plan.bridge {
        if let Err(e) = compile::check_transcode() {
            o.fail(e);
        }
    }
    let inputs = Arc::new(Inputs::new(args.seed, &plan.ops));
    let rig = Rig::start(plan, &inputs, false);
    (rig, t.elapsed().as_secs_f64())
}

fn run_rpc(args: &Args, plan: &Plan) -> Outcome {
    let mut o = Outcome::default();
    let units = compile::bench_units(args.seed);
    let mut c = Compiles::new(vec![None; units.len()]);
    let mut xid = 0;
    let window = |secs: f64, slices: usize| Window {
        warmup_ns: if args.tiny {
            0
        } else {
            ns(secs.min(1.0) * 0.25)
        },
        measure_ns: ns(secs),
        max_calls: if args.tiny { 300 } else { u64::MAX },
        slices: if args.tiny { 1 } else { slices },
    };

    if args.traced {
        trace::set_enabled(true);
        let cost = rpc::shim_cost();
        trace::reset();
        c.round(&units, true, &mut xid, &mut o);
        if plan.bridge {
            if let Err(e) = compile::check_transcode() {
                o.fail(e);
            }
        }
        compile_layer_metrics(&mut o.metrics, &c, &units);
        trace::set_enabled(false);

        // Untraced first, for the overhead figure; then traced.
        let inputs = Arc::new(Inputs::new(args.seed, &plan.ops));
        let plain_secs = args.seconds / 3.0;
        let rig = Rig::start(plan, &inputs, false);
        let (plain, _, _) = serve(&mut o, args, plan, rig, window(plain_secs, 1), false, None);
        trace::set_enabled(true);
        trace::count_allocs(true);
        let rig = Rig::start(plan, &inputs, true);
        let (load, stats, b) = serve(
            &mut o,
            args,
            plan,
            rig,
            window(args.seconds - plain_secs, 1),
            true,
            None,
        );
        trace::count_allocs(false);
        trace::set_enabled(false);
        layer_metrics(&mut o, &load, &plain, &stats, b, cost);
        return o;
    }

    // Set up, and serve; as each slice of the window begins, pause and
    // set the workload up once more beside the running rig, then stop
    // the new rig.  Each pause gives one `setup_s` sample and one
    // compile round of the contract.  Slow spells of a shared host last
    // seconds, so samples spread over the window give a far steadier
    // figure than samples taken back to back before it (see
    // `ledger/README.md`).  A smoke run's single slice is too short to
    // share; it reports its first setup.
    let (rig, secs) = setup_rpc(args, plan, &units, &mut c, &mut xid, &mut o);
    let mut setup_s = vec![secs];
    let slices = ((args.seconds / SLICE_S).round() as usize).max(1);
    let mut contract = Compiles::new(c.refs.clone());
    let mut tally = Outcome::default();
    let mut again = || {
        let (rig, secs) = setup_rpc(args, plan, &units, &mut contract, &mut xid, &mut tally);
        setup_s.push(secs);
        let checks = rig.checks.clone();
        let (stats, b) = rig.stop();
        serving_checks(&mut tally, plan, &checks, &stats, b, 0);
    };
    let pause: Option<&mut dyn FnMut()> = if args.tiny { None } else { Some(&mut again) };
    let (mut load, _, _) = serve(
        &mut o,
        args,
        plan,
        rig,
        window(args.seconds, slices),
        false,
        pause,
    );
    o.attempted += tally.attempted;
    o.succeeded += tally.succeeded;
    o.failed += tally.failed;
    o.failures.append(&mut tally.failures);

    o.metrics.set("setup_s", trimmed_mean(&setup_s), "s");
    if contract.rounds.is_empty() {
        c.report_contract(&mut o);
    } else {
        contract.report_contract(&mut o);
    }
    let secs = if load.slices.len() == 1 {
        load.window_ns
    } else {
        load.slice_ns
    } as f64
        / 1e9;
    let each = |f: &dyn Fn(&rpc::Slice) -> f64| load.slices.iter().map(f).collect::<Vec<f64>>();
    let rates = each(&|s| s.calls as f64 / secs);
    o.metrics.set("calls_per_s", trimmed_mean(&rates), "1/s");
    let list: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
    o.detail
        .push(("slice_calls_per_s".into(), format!("[{}]", list.join(", "))));
    let m = &mut o.metrics;
    m.set(
        "payload_mb_per_s",
        trimmed_mean(&each(&|s| s.payload_bytes as f64 / secs / 1e6)),
        "MB/s",
    );
    let busy: Vec<f64> = load
        .slices
        .iter()
        .filter(|s| s.calls > 0)
        .map(|s| s.server_cpu_ns as f64 / s.calls as f64 / 1e3)
        .collect();
    m.set("server_cpu_us_per_call", trimmed_mean(&busy), "us");
    let lat: Vec<Vec<u64>> = load.slices.iter().map(|s| s.latencies.clone()).collect();
    latency_metrics(&mut o, &lat);
    if !load.lateness.is_empty() {
        load.lateness.sort_unstable();
        let mut d = ObjectWriter::new();
        d.raw("p50_us", &pct_json(pct(&load.lateness, 0.5), 1e-3))
            .raw("p99_us", &pct_json(pct(&load.lateness, 0.99), 1e-3));
        o.detail("generator_lateness", d.finish());
    }
    o
}

/// Per-layer metrics of the traced serving run.
fn layer_metrics(
    o: &mut Outcome,
    load: &Load,
    plain: &Load,
    stats: &FabricStats,
    b: BridgeCounters,
    cost: rpc::ShimCost,
) {
    let t = |l: Layer| -> LayerTotals { trace::totals(l as usize) };
    let mean = |l: Layer| {
        let x = t(l);
        x.total_ns as f64 / x.count.max(1) as f64
    };
    let handler = t(Layer::Handler);
    let frames = handler.count.max(1) as f64;
    let calls = load.calls.max(1) as f64;
    let (read, write) = (t(Layer::TransportRead), t(Layer::TransportWrite));
    let shims = rpc::take_shim_counts();
    let m = &mut o.metrics;
    m.set("stubs.encode_ns.xdr", mean(Layer::EncodeXdr), "ns");
    m.set("stubs.encode_ns.cdr", mean(Layer::EncodeCdr), "ns");
    m.set("stubs.decode_ns.xdr", mean(Layer::DecodeXdr), "ns");
    m.set("stubs.decode_ns.cdr", mean(Layer::DecodeCdr), "ns");
    m.set("alloc.per_call", load.allocs as f64 / calls, "count");
    // The handler shim's own cost, calibrated in this process, sits in
    // both the handler span and the worker's CPU; take it out of both.
    let handler_allocs = shims.handler_allocs as f64 / frames;
    let shim_ns = cost.span_ns + cost.alloc_ns * handler_allocs;
    let handler_ns = handler.total_ns as f64 / frames - shim_ns;
    let worker = load.worker_cpu_ns as f64 / frames - shim_ns;
    let spanned = handler_ns + (read.total_ns + write.total_ns) as f64 / frames;
    m.set("fabric.worker_cpu_ns_per_call", worker, "ns");
    m.set("fabric.self_ns_per_call", worker - spanned, "ns");
    let mut waits = shims.waits;
    waits.sort_unstable();
    m.set("fabric.wait_us_p50", pct(&waits, 0.5).value / 1e3, "us");
    m.set(
        "fabric.frames_per_read",
        handler.count as f64 / (shims.reads - shims.empty_reads).max(1) as f64,
        "count",
    );
    m.set("transport.read_ns", read.total_ns as f64 / frames, "ns");
    m.set("transport.write_ns", write.total_ns as f64 / frames, "ns");
    m.set(
        "transport.empty_read_ratio",
        shims.empty_reads as f64 / shims.reads.max(1) as f64,
        "ratio",
    );
    m.set(
        "transport.short_write_ratio",
        shims.short_writes as f64 / shims.writes.max(1) as f64,
        "ratio",
    );
    m.set("handler.ns_per_call", handler_ns, "ns");
    m.set(
        "framing.client_ns",
        (t(Layer::ClientSend).self_ns + t(Layer::ClientRecv).self_ns) as f64 / calls,
        "ns",
    );
    let upstream = t(Layer::BridgeUpstream);
    if upstream.count > 0 {
        m.set(
            "bridge.self_ns_per_call",
            handler.total_ns.saturating_sub(upstream.total_ns) as f64 / frames,
            "ns",
        );
    }
    m.set(
        "bridge.upstream_ns_per_call",
        upstream.total_ns as f64 / frames,
        "ns",
    );
    m.set(
        "bridge.fallback_ratio",
        b.fallback as f64 / b.forwarded.max(1) as f64,
        "ratio",
    );
    m.set("fabric.shed", stats.shed() as f64, "count");
    m.set("fabric.expired", stats.expired() as f64, "count");
    m.set("fabric.evicted", stats.evicted() as f64, "count");
    m.set("bridge.rejected", b.rejected as f64, "count");
    m.set(
        "unattributed_ns_per_call",
        load.window_ns as f64 / frames - spanned,
        "ns",
    );
    let rate = |l: &Load| l.calls as f64 / l.window_ns.max(1) as f64 * 1e9;
    m.set(
        "trace.overhead_pct",
        (rate(plain) / rate(load) - 1.0) * 100.0,
        "%",
    );
    let mut d = ObjectWriter::new();
    let untraced_cpu = plain.slices.iter().map(|s| s.server_cpu_ns).sum::<u64>() as f64
        / plain.calls.max(1) as f64;
    for (k, v) in [
        ("untraced_calls_per_s", rate(plain)),
        ("traced_calls_per_s", rate(load)),
        ("untraced_server_cpu_ns_per_call", untraced_cpu),
        ("handler_span_raw_ns", handler.total_ns as f64 / frames),
        ("shim_span_cost_ns", cost.span_ns),
        ("alloc_count_cost_ns", cost.alloc_ns),
        ("handler_allocs_per_call", handler_allocs),
    ] {
        d.raw(k, &num(v));
    }
    o.detail("tracing", d.finish());
}

/// Writes the kept spans and adds per-layer self times to the detail.
fn spans_detail(o: &mut Outcome, args: &Args) {
    let mut layers = ObjectWriter::new();
    for (name, t) in trace::all_totals() {
        if t.count > 0 {
            let mut l = ObjectWriter::new();
            l.u64_field("count", t.count)
                .u64_field("total_ns", t.total_ns)
                .u64_field("self_ns", t.self_ns);
            layers.raw(name, &l.finish());
        }
    }
    o.detail("layers", layers.finish());
    let spans = trace::kept_spans();
    let mut json = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let mut e = ObjectWriter::new();
        e.u64_field("id", s.id)
            .u64_field("parent", s.parent)
            .str_field("name", trace::layer_name(s.layer))
            .u64_field("xid", s.xid)
            .u64_field("start_ns", s.start)
            .u64_field("end_ns", s.end);
        json.push_str(&e.finish());
        json.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    json.push_str("]\n");
    let path = format!(".ledger/spans-{}.json", args.workload.name());
    match std::fs::create_dir_all(".ledger").and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => o.detail("spans", string(&path)),
        Err(e) => o.fail(format!("writing {path}: {e}")),
    }
}
