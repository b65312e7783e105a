//! Flick's optimizing back ends: PRES-C → stub implementations
//! (paper §2.3 and §3).
//!
//! A back end is specific to a message encoding and transport but
//! independent of the IDL and presentation rules that produced its
//! input.  All back ends here share one large optimization library —
//! exactly the structure the paper's Table 1 reports — organized as:
//!
//! * [`encoding`] — wire-format descriptions (XDR, CDR big/little
//!   endian, Mach 3 typed, Fluke IPC): primitive sizes, alignment,
//!   byte order, count prefixes, string conventions;
//! * [`layout`] — §3.1 storage classification: every message region is
//!   *fixed*, *variable but bounded*, or *unbounded*;
//! * [`mir`] — the marshal MIR, the IR on which the optimizations run;
//! * [`plan`] — PRES-C → naive MIR lowering (parallel across stubs)
//!   plus the `plan_presc` facade;
//! * [`passes`] — the §3 optimizations as named [`MirPass`]es run by a
//!   pass manager: buffer-check hoisting, chunk formation, `memcpy`
//!   run coalescing, marshal-code inlining, and the word-wise
//!   discriminator switches of §3.3;
//! * [`verify`] — the MIR verifier run between passes in debug/test
//!   builds;
//! * [`emit_c`] — MIR → CAST → C source (the paper's actual output);
//! * [`emit_rust`] — MIR → Rust source against `flick-runtime`,
//!   which the benchmark harness compiles and *executes*;
//! * [`transcode`] / [`emit_transcode`] — encoding-pair gateways: the
//!   presentation lowered once per encoding, the two MIRs walked in
//!   lockstep through `emit_rust`'s forms;
//! * [`opts`] — [`OptFlags`], individual toggles for each optimization
//!   (a thin facade over [`PassPipeline`]) so the ablation benchmarks
//!   can reproduce the paper's §3 claims.
//!
//! The entry point is [`BackEnd::compile`].

pub mod c_header;
pub mod cache;
pub mod emit_c;
pub mod emit_rust;
pub mod emit_transcode;
pub mod encoding;
pub mod layout;
pub mod mir;
pub mod opts;
pub mod passes;
pub mod plan;
pub mod transcode;
pub mod verify;

pub use c_header::C_RUNTIME_HEADER;
pub use cache::{CacheReport, CacheStats, ExplainEntry, PlanCache, StubKey};
pub use encoding::{Encoding, WirePrim};
pub use mir::{PlanStats, StubPlans};
pub use opts::OptFlags;
pub use passes::{MirDump, MirPass, PassPipeline, PassSpan, PASS_NAMES};
pub use plan::Parallelism;
pub use transcode::TranscodePair;

use flick_pres::PresC;

/// Lowers `presc` once per encoding of the pair (`src` → `dst`) and
/// emits the generated transcoder module — the `--transcode=SRC:DST`
/// path.  `fused` mirrors the `fuse-transcode` pass toggle; when off,
/// the primary rewrites never block-copy.
///
/// # Errors
/// Returns a message when an encoding or presentation construct cannot
/// be transcoded (typed-descriptor encodings, a side the MIR verifier
/// or the pair check rejects).
pub fn compile_transcode(
    presc: &PresC,
    src: &Encoding,
    dst: &Encoding,
    fused: bool,
) -> Result<String, String> {
    emit_transcode::emit(&transcode::plan(presc, src, dst, fused)?)
}

/// Which transport family a back end serves (paper: CORBA IIOP/TCP,
/// ONC/XDR over TCP or UDP, Mach 3 typed messages, Fluke kernel IPC).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// CORBA IIOP over TCP.
    IiopTcp,
    /// ONC RPC over TCP (record-marked).
    OncTcp,
    /// ONC RPC over UDP (datagrams).
    OncUdp,
    /// Mach 3 IPC between ports.
    Mach3,
    /// Fluke kernel IPC (register window).
    Fluke,
}

impl Transport {
    /// The natural encoding for this transport.
    #[must_use]
    pub fn default_encoding(self) -> Encoding {
        match self {
            Transport::IiopTcp => Encoding::cdr_native(),
            Transport::OncTcp | Transport::OncUdp => Encoding::xdr(),
            Transport::Mach3 => Encoding::mach3(),
            Transport::Fluke => Encoding::fluke(),
        }
    }

    /// Stable name used in generated-code banners and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Transport::IiopTcp => "iiop-tcp",
            Transport::OncTcp => "onc-tcp",
            Transport::OncUdp => "onc-udp",
            Transport::Mach3 => "mach3",
            Transport::Fluke => "fluke",
        }
    }
}

/// Which backend step failed — the finer-grained phase that
/// `CompileError` reports (`backend.plan`, `backend.emit-c`, …).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendStep {
    /// Lowering + the MIR pass pipeline.
    Plan,
    /// MIR → CAST.
    EmitC,
    /// CAST → C source text.
    PrintC,
    /// MIR → Rust source.
    EmitRust,
}

impl BackendStep {
    /// The span/phase name of this step.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BackendStep::Plan => "backend.plan",
            BackendStep::EmitC => "backend.emit-c",
            BackendStep::PrintC => "backend.print-c",
            BackendStep::EmitRust => "backend.emit-rust",
        }
    }
}

/// A backend failure, tagged with the step that raised it.
#[derive(Clone, Debug)]
pub struct BackendError {
    /// The failing step.
    pub step: BackendStep,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for BackendError {}

/// A configured back end: encoding + transport + optimization flags.
#[derive(Clone, Debug)]
pub struct BackEnd {
    /// Transport the stubs will speak.
    pub transport: Transport,
    /// Wire encoding (usually `transport.default_encoding()`).
    pub encoding: Encoding,
    /// Optimization toggles (facade over the pass pipeline).
    pub opts: OptFlags,
    /// Pass names removed from the pipeline (`flickc --disable-pass`).
    pub disabled_passes: Vec<String>,
    /// Run the MIR verifier between passes.  Defaults on in debug
    /// builds; stub regeneration turns it on explicitly.
    pub verify_mir: bool,
    /// Dump the MIR (after a named pass, or final) into
    /// [`BackendTrace::mir_dump`].
    pub dump_mir: Option<MirDump>,
    /// Per-pass decision budget (`flickc --pass-budget`): passes that
    /// exceed it report an overrun, and passes that can stop early do.
    pub pass_budget: Option<u64>,
    /// Per-pass wall-time budget in milliseconds
    /// (`flickc --pass-budget-ms`): passes running past the deadline
    /// report an ms overrun, and passes that can stop early do.
    pub pass_budget_ms: Option<u64>,
}

impl BackEnd {
    /// A back end for `transport` with its natural encoding and all
    /// optimizations enabled.
    #[must_use]
    pub fn new(transport: Transport) -> Self {
        BackEnd {
            transport,
            encoding: transport.default_encoding(),
            opts: OptFlags::all(),
            disabled_passes: Vec::new(),
            verify_mir: cfg!(debug_assertions),
            dump_mir: None,
            pass_budget: None,
            pass_budget_ms: None,
        }
    }

    /// Replaces the optimization flags.
    #[must_use]
    pub fn with_opts(mut self, opts: OptFlags) -> Self {
        self.opts = opts;
        self
    }

    /// Compiles a presentation into stub implementations.
    ///
    /// # Errors
    /// Returns a message when the presentation uses a construct this
    /// back end cannot lower (see `emit_rust` for the Rust subset).
    pub fn compile(&self, presc: &PresC) -> Result<Compiled, String> {
        self.compile_traced(presc)
            .map(|(c, _)| c)
            .map_err(|e| e.message)
    }

    /// Like [`BackEnd::compile`], but also reports per-step and
    /// per-pass wall times and the optimizer's decision counts.
    ///
    /// # Errors
    /// Same as [`BackEnd::compile`], tagged with the failing step.
    pub fn compile_traced(&self, presc: &PresC) -> Result<(Compiled, BackendTrace), BackendError> {
        self.compile_traced_with(presc, None)
    }

    /// Like [`BackEnd::compile_traced`], optionally planning through a
    /// [`PlanCache`]: stubs whose content key is cached are restored
    /// instead of replanned.  A `--dump-mir` request forces the
    /// whole-module path (the dump is defined over one uncached run).
    ///
    /// # Errors
    /// Same as [`BackEnd::compile`], tagged with the failing step.
    pub fn compile_traced_with(
        &self,
        presc: &PresC,
        cache: Option<&mut PlanCache>,
    ) -> Result<(Compiled, BackendTrace), BackendError> {
        let plan_err = |message: String| BackendError {
            step: BackendStep::Plan,
            message,
        };

        let mut pipeline = PassPipeline::from_opts(&self.opts);
        pipeline.verify = self.verify_mir;
        pipeline.budget = self.pass_budget;
        pipeline.budget_ms = self.pass_budget_ms;
        for name in &self.disabled_passes {
            pipeline.disable(name).map_err(plan_err)?;
        }

        let t = std::time::Instant::now();
        let planned = match cache {
            Some(cache) if self.dump_mir.is_none() => self
                .plan_cached(presc, &pipeline, cache)
                .map_err(plan_err)?,
            _ => {
                let run =
                    passes::run_pipeline(presc, &self.encoding, &pipeline, self.dump_mir.as_ref())
                        .map_err(plan_err)?;
                Planned {
                    mir: run.mir,
                    passes: run.passes,
                    mir_dump: run.mir_dump,
                    overruns: run.overruns.iter().map(ToString::to_string).collect(),
                    overruns_ms: run
                        .overruns_ms
                        .iter()
                        .map(|&(n, ms)| (n.to_string(), ms))
                        .collect(),
                    cache: None,
                    cache_ns: 0,
                }
            }
        };
        let stats = plan::PlanStats::of(&planned.mir);
        let plan_ns = step_ns(t);

        let t = std::time::Instant::now();
        let c_unit = emit_c::emit(presc, &planned.mir, self);
        let emit_c_ns = step_ns(t);

        let t = std::time::Instant::now();
        let c_source = flick_cast::Printer::new().unit(&c_unit);
        let print_c_ns = step_ns(t);

        let t = std::time::Instant::now();
        let rust_source =
            emit_rust::emit(presc, &planned.mir, self).map_err(|message| BackendError {
                step: BackendStep::EmitRust,
                message,
            })?;
        let emit_rust_ns = step_ns(t);

        Ok((
            Compiled {
                c_unit,
                c_source,
                rust_source,
                plans: planned.mir,
            },
            BackendTrace {
                plan_ns,
                emit_c_ns,
                print_c_ns,
                emit_rust_ns,
                stats,
                passes: planned.passes,
                mir_dump: planned.mir_dump,
                overruns: planned.overruns,
                overruns_ms: planned.overruns_ms,
                cache: planned.cache,
                cache_ns: planned.cache_ns,
            },
        ))
    }

    /// The memoized planning path: per-stub lookup, replan of misses
    /// (in parallel when there are enough), merge in presentation
    /// order, then the module-wide demux decision over the whole set.
    fn plan_cached(
        &self,
        presc: &PresC,
        pipeline: &PassPipeline,
        cache: &mut PlanCache,
    ) -> Result<Planned, String> {
        use std::collections::BTreeMap;

        let enc_fp = self.encoding.fingerprint();
        let pipe_fp = pipeline.fingerprint();
        let mut cache_ns = 0u64;

        // Probe phase: restore every stub we can, list the misses.
        let mut report = CacheReport::default();
        let evictions_before = cache.stats().evictions;
        let mut units: Vec<Option<cache::PlanUnit>> = Vec::with_capacity(presc.stubs.len());
        let mut keys = Vec::with_capacity(presc.stubs.len());
        let mut misses: Vec<usize> = Vec::new();
        for (i, stub) in presc.stubs.iter().enumerate() {
            let key = StubKey {
                pres_hash: flick_pres::stub_hash(presc, stub),
                enc_fp,
                pipe_fp,
            };
            let t = std::time::Instant::now();
            let restored = cache.fetch(&key).and_then(|(text, source)| {
                // A stale or corrupt entry demotes to a miss.
                cache::deserialize_unit(presc, &self.encoding, stub, &text)
                    .ok()
                    .map(|unit| (unit, source))
            });
            cache_ns += step_ns(t);
            match restored {
                Some((unit, source)) => {
                    cache.record_hit();
                    report.hits += 1;
                    report.entries.push(ExplainEntry {
                        stub: stub.name.clone(),
                        hit: true,
                        detail: source.to_string(),
                    });
                    units.push(Some(unit));
                }
                None => {
                    cache.record_miss();
                    report.misses += 1;
                    report.entries.push(ExplainEntry {
                        stub: stub.name.clone(),
                        hit: false,
                        detail: cache.miss_reason(&stub.name, &key),
                    });
                    units.push(None);
                    misses.push(i);
                }
            }
            keys.push(key);
        }

        // Replan phase: only the misses run the per-stub pipeline.
        let mut spans: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        let mut overruns: Vec<String> = Vec::new();
        let mut overruns_ms: Vec<(String, u64)> = Vec::new();
        let add_ms = |list: &mut Vec<(String, u64)>, name: &str, ms: u64| match list
            .iter_mut()
            .find(|(n, _)| n == name)
        {
            Some(e) => e.1 += ms,
            None => list.push((name.to_string(), ms)),
        };
        let computed = run_miss_units(presc, &self.encoding, pipeline, &misses)?;
        for (i, unit) in misses.iter().zip(computed) {
            for span in &unit.passes {
                let e = spans.entry(span.name).or_insert((0, 0));
                e.0 += span.ns;
                e.1 += span.decisions;
            }
            for name in &unit.overruns {
                if !overruns.iter().any(|o| o == name) {
                    overruns.push((*name).to_string());
                }
            }
            for (name, ms) in &unit.overruns_ms {
                add_ms(&mut overruns_ms, name, *ms);
            }
            let mut mir = unit.mir;
            let stub = &presc.stubs[*i];
            let plan = mir.stubs.remove(0);
            let t = std::time::Instant::now();
            // An uncacheable stub (expansion cap) is just not stored.
            if let Ok(text) = cache::serialize_unit(presc, stub, &plan, &mir.outlines) {
                cache.store(keys[*i], text);
            }
            cache_ns += step_ns(t);
            units[*i] = Some((plan, mir.outlines));
        }

        // Merge phase: presentation order, later outline registrations
        // winning — identical to one sequential whole-module lowering.
        let scheduled = pipeline.pass_names();
        let mut mir = StubPlans {
            stubs: Vec::with_capacity(presc.stubs.len()),
            outlines: std::collections::BTreeMap::new(),
            hoist: scheduled.contains(&"hoist-checks"),
            memcpy: scheduled.contains(&"coalesce-memcpy"),
            demux: mir::Demux::Linear,
        };
        for unit in units {
            let (plan, outlines) = unit.expect("every stub restored or replanned");
            mir.stubs.push(plan);
            mir.outlines.extend(outlines);
        }

        if pipeline.verify {
            verify::verify(&mir, presc, &self.encoding)
                .map_err(|e| format!("MIR verify after cached merge: {e}"))?;
        }

        // Module-wide phase: demux needs every stub's wire name at
        // once (and merge-prefix rewrites the trie demux builds), so
        // they run on the merged module even on a full hit.
        let mut module_spans: Vec<PassSpan> = Vec::new();
        let module_passes: [Box<dyn MirPass>; 2] =
            [Box::new(passes::DemuxSwitch), Box::new(passes::MergePrefix)];
        for pass in module_passes {
            let name = pass.name();
            if !scheduled.contains(&name) {
                continue;
            }
            let cx = passes::PassCx {
                presc,
                enc: &self.encoding,
            };
            let t = std::time::Instant::now();
            let budget = pipeline.pass_budget();
            let (decisions, overran) = pass
                .run_budgeted(&mut mir, &cx, &budget)
                .map_err(|e| format!("pass {name}: {e}"))?;
            let ns = step_ns(t);
            if overran && !overruns.iter().any(|o| o == name) {
                overruns.push(name.to_string());
            }
            if let Some(over) = passes::ms_overrun(pipeline.budget_ms, ns) {
                add_ms(&mut overruns_ms, name, over);
            }
            module_spans.push(PassSpan {
                name,
                ns,
                decisions,
            });
            if pipeline.verify {
                verify::verify(&mir, presc, &self.encoding)
                    .map_err(|e| format!("MIR verify after {name}: {e}"))?;
            }
        }

        // Span shape matches the uncached run: lowering first, then
        // each scheduled pass (zeros when everything hit).
        let mut pass_spans = vec![PassSpan {
            name: "lower",
            ns: spans.get("lower").map_or(0, |e| e.0),
            decisions: misses.len() as u64,
        }];
        for name in &scheduled {
            if passes::MODULE_WIDE_PASSES.contains(name) {
                continue;
            }
            let (ns, decisions) = spans.get(name).copied().unwrap_or((0, 0));
            pass_spans.push(PassSpan {
                name,
                ns,
                decisions,
            });
        }
        pass_spans.extend(module_spans);

        for (stub, key) in presc.stubs.iter().zip(&keys) {
            cache.remember(&stub.name, *key);
        }
        cache.persist();
        report.evictions = cache.stats().evictions - evictions_before;

        Ok(Planned {
            mir,
            passes: pass_spans,
            mir_dump: None,
            overruns,
            overruns_ms,
            cache: Some(report),
            cache_ns,
        })
    }
}

/// The outcome of the planning phase, whichever path produced it.
struct Planned {
    mir: StubPlans,
    passes: Vec<PassSpan>,
    mir_dump: Option<String>,
    overruns: Vec<String>,
    overruns_ms: Vec<(String, u64)>,
    cache: Option<CacheReport>,
    cache_ns: u64,
}

/// Runs the per-stub pipeline over every missed stub, in parallel when
/// the miss set is large enough to pay for the threads (same policy as
/// uncached lowering).
fn run_miss_units(
    presc: &PresC,
    enc: &Encoding,
    pipeline: &PassPipeline,
    misses: &[usize],
) -> Result<Vec<passes::StubUnit>, String> {
    let n = misses.len();
    let threads = match pipeline.parallel {
        Parallelism::Sequential => 1,
        Parallelism::Threads(t) => t.max(1),
        Parallelism::Auto if n >= plan::PARALLEL_MIN_STUBS => std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get)
            .min(8),
        Parallelism::Auto => 1,
    };
    if threads <= 1 || n <= 1 {
        return misses
            .iter()
            .map(|&i| passes::run_stub_pipeline(presc, enc, pipeline, &presc.stubs[i]))
            .collect();
    }
    let chunk = n.div_ceil(threads);
    let per_chunk: Vec<Result<Vec<_>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = misses
            .chunks(chunk)
            .map(|idxs| {
                scope.spawn(move || {
                    idxs.iter()
                        .map(|&i| passes::run_stub_pipeline(presc, enc, pipeline, &presc.stubs[i]))
                        .collect::<Result<Vec<_>, String>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("replan worker panicked".to_string()))
            })
            .collect()
    });
    let mut all = Vec::with_capacity(n);
    for res in per_chunk {
        all.extend(res?);
    }
    Ok(all)
}

fn step_ns(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Per-step wall times and optimizer decision counts from one
/// [`BackEnd::compile_traced`] run.
#[derive(Clone, Debug, Default)]
pub struct BackendTrace {
    /// Time planning (PRES-C → MIR, including all passes).
    pub plan_ns: u64,
    /// Time lowering plans to CAST.
    pub emit_c_ns: u64,
    /// Time pretty-printing the CAST to C source.
    pub print_c_ns: u64,
    /// Time emitting Rust stub source.
    pub emit_rust_ns: u64,
    /// What the optimizer decided.
    pub stats: plan::PlanStats,
    /// Per-pass breakdown of `plan_ns` (lowering first, then each
    /// scheduled MIR pass in order).
    pub passes: Vec<PassSpan>,
    /// The `--dump-mir` rendering, if one was requested.
    pub mir_dump: Option<String>,
    /// Names of passes that overran the `--pass-budget`.
    pub overruns: Vec<String>,
    /// `(pass, ms over)` for passes that ran past the
    /// `--pass-budget-ms` wall-time budget.
    pub overruns_ms: Vec<(String, u64)>,
    /// What the plan cache did, when one was in use.
    pub cache: Option<CacheReport>,
    /// Time spent in cache lookup/restore/store bookkeeping.
    pub cache_ns: u64,
}

/// The artifacts a back end produces for one presentation.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// The generated C declarations and stub definitions.
    pub c_unit: flick_cast::CUnit,
    /// Pretty-printed C source.
    pub c_source: String,
    /// Rust stub source against `flick-runtime`.
    pub rust_source: String,
    /// The optimized MIR (exposed for tests and the code-size
    /// accounting of Table 2).
    pub plans: StubPlans,
}

#[cfg(test)]
mod tests {
    use super::*;
    use flick_idl::diag::Diagnostics;
    use flick_pres::Side;

    const IDL: &str = r"
        struct Point { long x; long y; };
        struct Rect { Point min; Point max; };
        typedef sequence<Rect> RectSeq;
        interface I { void put(in RectSeq rs); long get(in string k); };
    ";

    fn presc() -> PresC {
        let aoi = flick_frontend_corba::parse_str("t.idl", IDL);
        let mut d = Diagnostics::new();
        flick_presgen::corba_c(&aoi, "I", Side::Client, &mut d).expect("presentation")
    }

    #[test]
    fn cached_compiles_are_byte_identical_to_uncached() {
        let p = presc();
        let be = BackEnd::new(Transport::IiopTcp);
        let (cold, _) = be.compile_traced(&p).expect("uncached");
        let mut cache = PlanCache::in_memory();
        let (first, t1) = be
            .compile_traced_with(&p, Some(&mut cache))
            .expect("cold cached");
        let (warm, t2) = be
            .compile_traced_with(&p, Some(&mut cache))
            .expect("warm cached");
        assert_eq!(cold.c_source, first.c_source);
        assert_eq!(cold.rust_source, first.rust_source);
        assert_eq!(
            first.c_source, warm.c_source,
            "warm recompile must be byte-identical"
        );
        assert_eq!(first.rust_source, warm.rust_source);
        let r1 = t1.cache.expect("cold report");
        assert_eq!((r1.hits, r1.misses), (0, 2));
        assert!(r1.entries.iter().all(|e| e.detail == "first compile"));
        let r2 = t2.cache.expect("warm report");
        assert_eq!((r2.hits, r2.misses), (2, 0));
        assert!(r2.entries.iter().all(|e| e.hit && e.detail == "memory"));
        // The span shape stays the same as an uncached run, so the
        // telemetry pipeline sees a uniform pass list.
        let warm_names: Vec<_> = t2.passes.iter().map(|s| s.name).collect();
        let mut expect = vec!["lower"];
        expect.extend(PASS_NAMES);
        assert_eq!(warm_names, expect);
    }

    #[test]
    fn changing_the_pipeline_invalidates_every_stub() {
        let p = presc();
        let be = BackEnd::new(Transport::IiopTcp);
        let mut cache = PlanCache::in_memory();
        be.compile_traced_with(&p, Some(&mut cache)).expect("cold");
        let mut other = BackEnd::new(Transport::IiopTcp);
        other.opts.bounded_threshold += 64;
        let (_, t) = other
            .compile_traced_with(&p, Some(&mut cache))
            .expect("reconfigured");
        let r = t.cache.expect("report");
        assert_eq!((r.hits, r.misses), (0, 2));
        assert!(
            r.entries
                .iter()
                .all(|e| e.detail.starts_with("pass pipeline changed (fingerprint ")),
            "{:?}",
            r.entries
        );
    }
}
