//! `flick-ledger` — one benchmark for the Flick compiler and runtime,
//! end to end and layer by layer.  See `ledger/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path ledger/Cargo.toml -- \
//!     --workload <compile|rpc_small|rpc_bulk|rpc_paced|bridge> \
//!     --seed N --seconds S --trace <0|1> [--tiny]
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics"}`, with the end-to-end
//! metrics in a timed run (`--trace 0`) and the per-layer metrics in a
//! traced run (`--trace 1`).  The line before it carries the detail:
//! the host record, sample counts behind each percentile, and per-layer
//! self times.  The exit code is nonzero when any check failed.

mod compile;
mod report;
mod rng;
mod rpc;
mod trace;
mod workloads;

use flick_telemetry::json::{string, ObjectWriter};
use workloads::{Args, Workload};

#[global_allocator]
static ALLOC: trace::SwitchAlloc = trace::SwitchAlloc;

/// End-to-end metrics every timed run prints.  The p99 latency and the
/// contract's compile and recompile times are in the detail line only:
/// on a shared two-core host they swing by more than any usable bound
/// between runs (see `ledger/README.md`).
const END_TO_END: [&str; 7] = [
    "setup_s",
    "peak_rss_mib",
    "stub_bytes",
    "calls_per_s",
    "payload_mb_per_s",
    "p50_us",
    "server_cpu_us_per_call",
];

/// Per-layer metrics every traced run prints, with their units; a
/// layer a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 47] = [
    ("frontend.parse_ms", "ms"),
    ("presgen.ms", "ms"),
    ("presgen.mint_nodes", "count"),
    ("backend.plan_ms", "ms"),
    ("backend.pass.lower_ms", "ms"),
    ("backend.pass.dead-slot_ms", "ms"),
    ("backend.pass.classify-storage_ms", "ms"),
    ("backend.pass.reuse-slots_ms", "ms"),
    ("backend.pass.hoist-checks_ms", "ms"),
    ("backend.pass.form-chunks_ms", "ms"),
    ("backend.pass.coalesce-memcpy_ms", "ms"),
    ("backend.pass.fuse-transcode_ms", "ms"),
    ("backend.pass.inline-marshal_ms", "ms"),
    ("backend.pass.reply-alias_ms", "ms"),
    ("backend.pass.demux-switch_ms", "ms"),
    ("backend.pass.merge-prefix_ms", "ms"),
    ("backend.plan_nodes", "count"),
    ("backend.cache_hit_ratio", "ratio"),
    ("backend.emit_rust_ms", "ms"),
    ("cast.print_c_ms", "ms"),
    ("backend.emit_c_ms", "ms"),
    ("backend.rust_bytes", "B"),
    ("backend.c_bytes", "B"),
    ("stubs.encode_ns.xdr", "ns"),
    ("stubs.encode_ns.cdr", "ns"),
    ("stubs.decode_ns.xdr", "ns"),
    ("stubs.decode_ns.cdr", "ns"),
    ("alloc.per_call", "count"),
    ("fabric.self_ns_per_call", "ns"),
    ("fabric.wait_us_p50", "us"),
    ("fabric.frames_per_read", "count"),
    ("transport.read_ns", "ns"),
    ("transport.write_ns", "ns"),
    ("transport.empty_read_ratio", "ratio"),
    ("transport.short_write_ratio", "ratio"),
    ("handler.ns_per_call", "ns"),
    ("framing.client_ns", "ns"),
    ("fabric.worker_cpu_ns_per_call", "ns"),
    ("bridge.self_ns_per_call", "ns"),
    ("bridge.upstream_ns_per_call", "ns"),
    ("bridge.fallback_ratio", "ratio"),
    ("fabric.shed", "count"),
    ("fabric.expired", "count"),
    ("fabric.evicted", "count"),
    ("bridge.rejected", "count"),
    ("unattributed_ns_per_call", "ns"),
    ("trace.overhead_pct", "%"),
];

fn usage(why: &str) -> ! {
    eprintln!(
        "flick-ledger: {why}\nusage: flick-ledger --workload <compile|rpc_small|rpc_bulk|rpc_paced|bridge> \
         --seed N --seconds S --trace <0|1> [--tiny]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut tiny = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let Some(v) = it.next() else {
            usage(&format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&v).unwrap_or_else(|| usage(&format!("unknown workload {v}"))),
                );
            }
            "--seed" => {
                seed = Some(
                    v.parse()
                        .unwrap_or_else(|_| usage("--seed takes an integer")),
                )
            }
            "--seconds" => {
                seconds = Some(
                    v.parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .unwrap_or_else(|| usage("--seconds takes a positive number")),
                );
            }
            "--trace" => {
                traced = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                });
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        traced: traced.unwrap_or_else(|| usage("--trace is required")),
        tiny,
    }
}

fn main() {
    let args = parse_args();
    report::pin_to(report::CLIENT_CPU);
    let mut out = workloads::run(&args);
    let rss = report::peak_rss_mib();
    let m = &mut out.metrics;
    if args.traced {
        for (name, unit) in PER_LAYER {
            if m.get(name).is_none() {
                m.set(name, 0.0, unit);
            }
        }
        m.0.retain(|k, _| PER_LAYER.iter().any(|(n, _)| n == k));
    } else {
        m.set("peak_rss_mib", rss, "MiB");
        for name in END_TO_END {
            if m.get(name).is_none_or(|v| v <= 0.0) {
                out.failed += 1;
                out.failures.push(format!("metric {name} was not measured"));
            }
        }
        m.0.retain(|k, _| END_TO_END.contains(&k.as_str()));
    }
    let correct = out.failed == 0 && out.failures.is_empty();

    let mut detail = ObjectWriter::new();
    detail
        .str_field("workload", args.workload.name())
        .u64_field("seed", args.seed)
        .str_field("mode", if args.traced { "traced" } else { "timed" })
        .raw("host", &report::host_record())
        .u64_field("attempted", out.attempted)
        .u64_field("succeeded", out.succeeded)
        .u64_field("failed", out.failed);
    let failures: Vec<String> = out.failures.iter().map(|f| string(f)).collect();
    detail.raw("failures", &format!("[{}]", failures.join(", ")));
    for (k, v) in &out.detail {
        detail.raw(k, v);
    }
    println!("{}", detail.finish());

    let mut result = ObjectWriter::new();
    result
        .raw("correct", if correct { "true" } else { "false" })
        .u64_field("attempted", out.attempted.max(1))
        .u64_field("failed", out.failed)
        .raw("metrics", &out.metrics.to_json());
    println!("{}", result.finish());
    if !correct {
        for f in &out.failures {
            eprintln!("flick-ledger: check failed: {f}");
        }
        std::process::exit(1);
    }
}
