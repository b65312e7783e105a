//! The compiler side: a seeded synthetic contract, compile units, and
//! the two ways of compiling one — through `CompileSession` (timed) or
//! through separate calls to each compiler layer (traced).

use flick::{BackEnd, CompileSession, Compiler, Frontend, PlanCache, Style, Transport};
use flick_idl::diag::Diagnostics;
use flick_idl::source::SourceFile;
use flick_pres::Side;

use crate::rng::Rng;
use crate::trace::{self, Layer};

/// Shape of the synthetic contract.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub structs: usize,
    pub ifaces: usize,
    pub ops: usize,
}

/// Nesting levels: level-0 structs hold scalars, strings and arrays;
/// each higher level nests one lower-level struct and a bounded
/// sequence of another.  Fixing the level of every struct and
/// operation keeps the contract's size, and so its compile cost, the
/// same for every seed; the seed picks which struct goes where and the
/// string bounds.
const LEVELS: usize = 3;

struct Rec {
    level: usize,
    bound: u32,
    inner: usize,
    items: usize,
}

/// One edited operation: `(interface, op)` gains a trailing parameter.
type Edit = Option<(usize, usize)>;

/// The seeded synthetic contract, emitted both as CORBA IDL and as ONC
/// `.x`.
pub struct Contract {
    recs: Vec<Rec>,
    /// Per interface, per op: (kind, struct a, struct b).
    ops: Vec<Vec<(usize, usize, usize)>>,
    /// The op each interface's one-op edit touches.
    pub edits: Vec<usize>,
}

impl Contract {
    #[must_use]
    pub fn synth(seed: u64, shape: Shape) -> Contract {
        let mut rng = Rng::new(seed ^ 0xc0de_c0de);
        let per_level = shape.structs.div_ceil(LEVELS).max(1);
        let at_level = |rng: &mut Rng, level: usize| {
            let lo = level * per_level;
            let hi = ((level + 1) * per_level).min(shape.structs);
            lo + rng.below((hi - lo) as u64) as usize
        };
        let mut recs = Vec::with_capacity(shape.structs);
        for k in 0..shape.structs {
            let level = (k / per_level).min(LEVELS - 1);
            let bound = [8, 16, 24, 32][rng.below(4) as usize];
            let (inner, items) = if level == 0 {
                (0, 0)
            } else {
                (at_level(&mut rng, level - 1), at_level(&mut rng, level - 1))
            };
            recs.push(Rec {
                level,
                bound,
                inner,
                items,
            });
        }
        let top = (shape.structs - 1) / per_level;
        let ops = (0..shape.ifaces)
            .map(|_| {
                (0..shape.ops)
                    .map(|j| {
                        let kind = j % 5;
                        let la = [top, top.saturating_sub(1), 1.min(top), top, 2.min(top)][kind];
                        let lb = la.saturating_sub(1);
                        (kind, at_level(&mut rng, la), at_level(&mut rng, lb))
                    })
                    .collect()
            })
            .collect();
        let edits = (0..shape.ifaces)
            .map(|_| rng.below(shape.ops as u64) as usize)
            .collect();
        Contract { recs, ops, edits }
    }

    #[must_use]
    pub fn ifaces(&self) -> usize {
        self.ops.len()
    }

    #[must_use]
    pub fn op_name(i: usize, j: usize) -> String {
        format!("s{i}_op{j}")
    }

    /// The contract as CORBA IDL, with `edit` applied.
    #[must_use]
    pub fn corba(&self, edit: Edit) -> String {
        let mut s = String::from("// Synthetic contract (seeded).\n");
        for (k, r) in self.recs.iter().enumerate() {
            s.push_str(&format!(
                "struct rec{k} {{\n    long id;\n    string<{}> label;\n",
                r.bound
            ));
            if r.level == 0 {
                s.push_str("    long grid[4];\n    double weight;\n");
            } else {
                s.push_str(&format!(
                    "    rec{} inner;\n    rec{}Seq items;\n",
                    r.inner, r.items
                ));
            }
            s.push_str(&format!("}};\ntypedef sequence<rec{k}, 8> rec{k}Seq;\n"));
        }
        for (i, ops) in self.ops.iter().enumerate() {
            s.push_str(&format!("interface Svc{i} {{\n"));
            for (j, &(kind, a, b)) in ops.iter().enumerate() {
                let (ret, params) = match kind {
                    0 => ("void".to_string(), format!("in rec{a} x, in long n")),
                    1 => (format!("rec{a}"), format!("in rec{b} x")),
                    2 => ("void".to_string(), format!("in rec{a}Seq xs")),
                    3 => (
                        "long".to_string(),
                        format!("in string<32> name, in rec{a} x"),
                    ),
                    _ => (format!("rec{a}"), format!("in rec{a} x, in rec{b}Seq ys")),
                };
                let extra = if edit == Some((i, j)) {
                    ", in long edited"
                } else {
                    ""
                };
                s.push_str(&format!(
                    "    {ret} {}({params}{extra});\n",
                    Contract::op_name(i, j)
                ));
            }
            s.push_str("};\n");
        }
        s
    }

    /// The contract as ONC RPC `.x`, with `edit` applied.
    #[must_use]
    pub fn onc(&self, edit: Edit) -> String {
        let mut s = String::from("/* Synthetic contract (seeded). */\n");
        for (k, r) in self.recs.iter().enumerate() {
            s.push_str(&format!(
                "struct rec{k} {{\n    int id;\n    string label<{}>;\n",
                r.bound
            ));
            if r.level == 0 {
                s.push_str("    int grid[4];\n    double weight;\n");
            } else {
                s.push_str(&format!(
                    "    rec{} inner;\n    rec{}seq items;\n",
                    r.inner, r.items
                ));
            }
            s.push_str(&format!("}};\ntypedef rec{k} rec{k}seq<8>;\n"));
        }
        for (i, ops) in self.ops.iter().enumerate() {
            s.push_str(&format!("program SVC{i} {{\n    version SVC{i}_V {{\n"));
            for (j, &(kind, a, b)) in ops.iter().enumerate() {
                let (ret, params) = match kind {
                    0 => ("void".to_string(), format!("rec{a} x, int n")),
                    1 => (format!("rec{a}"), format!("rec{b} x")),
                    2 => ("void".to_string(), format!("rec{a}seq xs")),
                    3 => ("int".to_string(), format!("string name<32>, rec{a} x")),
                    _ => (format!("rec{a}"), format!("rec{a} x, rec{b}seq ys")),
                };
                let extra = if edit == Some((i, j)) {
                    ", int edited"
                } else {
                    ""
                };
                s.push_str(&format!(
                    "        {ret} {}({params}{extra}) = {};\n",
                    Contract::op_name(i, j),
                    j + 1
                ));
            }
            s.push_str(&format!("    }} = 1;\n}} = 0x{:08x};\n", 0x3100_0000 + i));
        }
        s
    }
}

/// A front-end → presentation → transport configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Config {
    pub frontend: Frontend,
    pub style: Style,
    pub transport: Transport,
}

/// CORBA IDL → CORBA C presentation → IIOP.
pub const CORBA_IIOP: Config = Config {
    frontend: Frontend::Corba,
    style: Style::CorbaC,
    transport: Transport::IiopTcp,
};
/// ONC `.x` → rpcgen presentation → ONC/TCP.
pub const ONC_TCP: Config = Config {
    frontend: Frontend::Onc,
    style: Style::RpcgenC,
    transport: Transport::OncTcp,
};
/// CORBA IDL → rpcgen presentation → ONC/TCP (the checked-in
/// `onc_bench` stubs).
pub const CORBA_ONC: Config = Config {
    frontend: Frontend::Corba,
    style: Style::RpcgenC,
    transport: Transport::OncTcp,
};

/// One thing to compile: an interface in a source text under a
/// configuration, plus its one-op edit.
pub struct Unit {
    pub name: String,
    pub config: Config,
    pub file: &'static str,
    pub iface: String,
    pub text: String,
    pub edited: String,
    /// Operation names whose `encode_<op>_request` must be emitted.
    pub ops: Vec<String>,
    /// The Rust the runtime workloads execute, when this unit's output
    /// is checked in.
    pub expect_rust: Option<&'static str>,
}

/// The generated code one compile produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Output {
    pub rust: String,
    pub c: String,
}

impl Output {
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.rust.len() + self.c.len()
    }
}

fn compiler(c: Config) -> Compiler {
    Compiler::new(c.frontend, c.style, c.transport)
}

/// A fresh compile session for `unit` (cold plan cache).
#[must_use]
pub fn session(unit: &Unit) -> CompileSession {
    CompileSession::new(compiler(unit.config))
}

/// Compiles `text` for `unit` through `session`.
///
/// # Errors
/// The rendered compile error.
pub fn compile(session: &mut CompileSession, unit: &Unit, text: &str) -> Result<Output, String> {
    session
        .compile(unit.file, text, &unit.iface, Side::Server)
        .map(|o| Output {
            rust: o.rust_source,
            c: o.c_source,
        })
        .map_err(|e| e.to_string())
}

/// What a traced compile learned beyond its spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct Facts {
    pub mint_nodes: u64,
    pub plan_nodes: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

/// Compiles through separate calls to each layer — the front end's
/// `parse`, `Style::generate`, and `BackEnd::compile_traced_with` —
/// recording a span for each and laying the back end's own per-step
/// and per-pass split out inside the measured back-end span.
///
/// # Errors
/// The first layer's error.
pub fn compile_traced(
    unit: &Unit,
    text: &str,
    cache: &mut PlanCache,
    xid: u64,
) -> Result<(Output, Facts), String> {
    trace::begin(Layer::Compile as usize, xid);
    let r = compile_layers(unit, text, cache);
    trace::end();
    r
}

fn compile_layers(
    unit: &Unit,
    text: &str,
    cache: &mut PlanCache,
) -> Result<(Output, Facts), String> {
    let file = SourceFile::new(unit.file, text);
    let mut diags = Diagnostics::new();
    trace::begin(Layer::Parse as usize, trace::current_xid());
    let aoi = match unit.config.frontend {
        Frontend::Corba => flick_frontend_corba::parse(&file, &mut diags),
        _ => flick_frontend_onc::parse(&file, &mut diags),
    };
    trace::end();
    if diags.has_errors() {
        return Err(diags.render_all(&file));
    }
    trace::begin(Layer::Presgen as usize, trace::current_xid());
    let presc = unit
        .config
        .style
        .generate(&aoi, &unit.iface, Side::Server, &mut diags);
    trace::end();
    let presc = match presc {
        Some(p) if !diags.has_errors() => p,
        _ => return Err(diags.render_all(&file)),
    };
    let backend = BackEnd::new(unit.config.transport);
    trace::begin(Layer::Backend as usize, trace::current_xid());
    let t0 = trace::current_start();
    let res = backend.compile_traced_with(&presc, Some(cache));
    if let Ok((_, bt)) = &res {
        // The back end reports its own split; lay it out in order from
        // the span's start (each step ran inside the measured span).
        let mut at = t0;
        let mut kids = Vec::with_capacity(bt.passes.len());
        let mut p_at = at;
        for pass in &bt.passes {
            if let Some(slot) = trace::pass_names().iter().position(|n| *n == pass.name) {
                kids.push((Layer::pass(slot), p_at, p_at + pass.ns));
            }
            p_at += pass.ns;
        }
        trace::child_tree(Layer::Plan as usize, at, at + bt.plan_ns, &kids);
        at += bt.plan_ns;
        trace::child(Layer::EmitC as usize, at, at + bt.emit_c_ns);
        at += bt.emit_c_ns;
        trace::child(Layer::PrintC as usize, at, at + bt.print_c_ns);
        at += bt.print_c_ns;
        trace::child(Layer::EmitRust as usize, at, at + bt.emit_rust_ns);
    }
    trace::end();
    let (compiled, bt) = res.map_err(|e| e.message)?;
    let cache_report = bt.cache.as_ref();
    Ok((
        Output {
            rust: compiled.rust_source,
            c: compiled.c_source,
        },
        Facts {
            mint_nodes: presc.mint.len() as u64,
            plan_nodes: bt.stats.plan_nodes,
            cache_hits: cache_report.map_or(0, |c| c.hits),
            cache_misses: cache_report.map_or(0, |c| c.misses),
        },
    ))
}

/// The synthetic contract's compile units: every interface under both
/// configurations.
#[must_use]
pub fn synthetic_units(contract: &Contract) -> Vec<Unit> {
    let mut units = Vec::new();
    for (config, file) in [(CORBA_IIOP, "contract.idl"), (ONC_TCP, "contract.x")] {
        for i in 0..contract.ifaces() {
            let edit = Some((i, contract.edits[i]));
            let (text, edited, iface) = if config == CORBA_IIOP {
                (
                    contract.corba(None),
                    contract.corba(edit),
                    format!("Svc{i}"),
                )
            } else {
                (contract.onc(None), contract.onc(edit), format!("SVC{i}"))
            };
            units.push(Unit {
                name: format!("{}:{iface}", config.frontend.name()),
                config,
                file,
                iface,
                text,
                edited,
                ops: (0..contract.ops[i].len())
                    .map(|j| Contract::op_name(i, j))
                    .collect(),
                expect_rust: None,
            });
        }
    }
    units
}

const BENCH_IDL: &str = include_str!("../../testdata/bench.idl");
const BENCH_OPS: [&str; 4] = ["send_ints", "send_rects", "send_dirents", "echo_stat"];

/// The contract the runtime workloads serve: `bench.idl` compiled to
/// the two checked-in stub modules they execute.  The one-op edit adds
/// a parameter to the seeded op.
#[must_use]
pub fn bench_units(seed: u64) -> Vec<Unit> {
    let op = BENCH_OPS[Rng::new(seed ^ 0xed17).below(3) as usize];
    let edited = BENCH_IDL.replacen(
        &format!("{op}(in "),
        &format!("{op}(in long edited, in "),
        1,
    );
    [
        (
            CORBA_ONC,
            "onc_bench",
            include_str!("../../crates/bench/src/generated/onc_bench.rs"),
        ),
        (
            CORBA_IIOP,
            "iiop_bench",
            include_str!("../../crates/bench/src/generated/iiop_bench.rs"),
        ),
    ]
    .into_iter()
    .map(|(config, name, expect)| Unit {
        name: name.to_string(),
        config,
        file: "bench.idl",
        iface: "Bench".into(),
        text: BENCH_IDL.to_string(),
        edited: edited.clone(),
        ops: BENCH_OPS.iter().map(ToString::to_string).collect(),
        expect_rust: Some(expect),
    })
    .collect()
}

/// Checks one cold output: every op's request encoder is emitted, and
/// (for the unedited text, `original`) a checked-in module matches
/// byte for byte.
///
/// # Errors
/// What is missing or different.
pub fn check_output(unit: &Unit, out: &Output, original: bool) -> Result<(), String> {
    for op in &unit.ops {
        if !out.rust.contains(&format!("fn encode_{op}_request(")) {
            return Err(format!(
                "{}: no encode_{op}_request in the output",
                unit.name
            ));
        }
    }
    if let Some(expect) = unit.expect_rust.filter(|_| original) {
        if out.rust != expect {
            return Err(format!(
                "{}: compiler output differs from the checked-in stubs the workload runs",
                unit.name
            ));
        }
    }
    Ok(())
}

/// Checks that the compiler still emits the checked-in transcoding
/// module the bridge workload runs.
///
/// # Errors
/// What failed or differs.
pub fn check_transcode() -> Result<(), String> {
    let out = compiler(CORBA_ONC)
        .compile_source("bench.idl", BENCH_IDL, "Bench", Side::Server)
        .map_err(|e| e.to_string())?;
    let module = flick_backend::compile_transcode(
        &out.presc,
        &flick_backend::Encoding::xdr(),
        &flick_backend::Encoding::cdr_native(),
        true,
    )?;
    if module == include_str!("../../crates/bench/src/generated/transcode_bench.rs") {
        Ok(())
    } else {
        Err("transcoding module differs from the checked-in one the bridge runs".into())
    }
}
