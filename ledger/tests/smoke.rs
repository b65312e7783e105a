//! Tiny-size runs of every workload, timed and traced: each exits 0,
//! reports itself correct, prints every metric `BENCHMARK.json` names
//! for its mode, and (traced) writes spans that nest — a child lies
//! within its parent and carries the same xid.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 5] = ["compile", "rpc_small", "rpc_bulk", "rpc_paced", "bridge"];

/// A parsed JSON value (just enough for the benchmark's own output).
#[derive(Debug, Clone)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, k: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(k).unwrap_or_else(|| panic!("missing key {k}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("not an array: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing bytes after JSON");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i], c, "expected {} at {}", c as char, self.i);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(v);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    let c = self.s[self.i];
                    self.i += 1;
                    match c {
                        b'"' => return Json::Str(out),
                        b'\\' => {
                            let e = self.s[self.i];
                            self.i += 1;
                            out.push(match e {
                                b'n' => '\n',
                                b'u' => {
                                    let hex =
                                        std::str::from_utf8(&self.s[self.i..self.i + 4]).unwrap();
                                    self.i += 4;
                                    char::from_u32(u32::from_str_radix(hex, 16).unwrap()).unwrap()
                                }
                                other => other as char,
                            });
                        }
                        _ => out.push(c as char),
                    }
                }
            }
            b't' => {
                self.i += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.i += 4;
                Json::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let t = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(t.parse().unwrap_or_else(|_| panic!("bad number {t:?}")))
            }
        }
    }
}

fn metric_names(section: &str) -> Vec<String> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = Parser::parse(&std::fs::read_to_string(root).expect("BENCHMARK.json"));
    spec.get(section)
        .arr()
        .iter()
        .map(|m| m.get("name").str().to_string())
        .collect()
}

/// Runs one tiny workload in its own directory; returns the result
/// line, the detail line, and the directory.
fn run(workload: &str, traced: bool) -> (Json, Json, PathBuf) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{traced}"));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_flick-ledger"))
        .current_dir(&dir)
        .args(["--workload", workload, "--seed", "7", "--seconds", "5"])
        .args(["--trace", if traced { "1" } else { "0" }, "--tiny"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} traced={traced} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 2, "{stdout}");
    let result = Parser::parse(lines[lines.len() - 1]);
    let detail = Parser::parse(lines[lines.len() - 2]);
    (result, detail, dir)
}

fn check_result(workload: &str, traced: bool, result: &Json, detail: &Json) {
    let Json::Obj(top) = result else { panic!() };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert!(
        matches!(result.get("correct"), Json::Bool(true)),
        "{workload}: {detail:?}"
    );
    assert!(result.get("attempted").num() >= 1.0);
    assert_eq!(result.get("failed").num(), 0.0);
    let section = if traced { "per_layer" } else { "end_to_end" };
    let Json::Obj(metrics) = result.get("metrics") else {
        panic!()
    };
    let want = metric_names(section);
    for name in &want {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: metric {name} missing"));
        let v = m.get("value").num();
        assert!(v.is_finite(), "{workload}: {name} = {v}");
        if !traced {
            assert!(v > 0.0, "{workload}: end-to-end {name} is {v}");
        }
        assert!(!m.get("unit").str().is_empty());
    }
    assert_eq!(metrics.len(), want.len(), "{workload}: extra metrics");
    let host = detail.get("host");
    assert!(host.get("cores").num() >= 1.0);
    assert!(host.get("memcpy_bytes_per_s").num() > 0.0);
    assert!(host.get("rustc").str().starts_with("rustc"));
    if !traced {
        let p99 = detail.get("percentiles").get("window_p99_us");
        assert!(p99.get("samples").num() >= 1.0);
        assert!(p99.get("beyond").num() <= p99.get("samples").num());
    }
}

fn check_spans(workload: &str, dir: &std::path::Path) {
    let path = dir.join(format!(".ledger/spans-{workload}.json"));
    let spans = Parser::parse(&std::fs::read_to_string(&path).expect("spans written"));
    let spans = spans.arr();
    assert!(!spans.is_empty(), "{workload}: no spans kept");
    let by_id: BTreeMap<u64, &Json> = spans
        .iter()
        .map(|s| (s.get("id").num() as u64, s))
        .collect();
    let mut nested = 0;
    for s in spans {
        let (start, end) = (s.get("start_ns").num(), s.get("end_ns").num());
        assert!(
            start <= end,
            "{workload}: span ends before it starts: {s:?}"
        );
        let parent = s.get("parent").num() as u64;
        if parent == 0 {
            continue;
        }
        let p = by_id
            .get(&parent)
            .unwrap_or_else(|| panic!("{workload}: parent of {s:?} not kept"));
        assert!(
            p.get("start_ns").num() <= start && end <= p.get("end_ns").num(),
            "{workload}: {} [{start}, {end}] outside parent {} {p:?}",
            s.get("name").str(),
            p.get("name").str()
        );
        assert_eq!(
            s.get("xid").num(),
            p.get("xid").num(),
            "{workload}: xid differs from parent"
        );
        nested += 1;
    }
    assert!(nested > 0, "{workload}: no nested spans");
}

#[test]
fn every_workload_runs_tiny_timed_and_traced() {
    for workload in WORKLOADS {
        let (result, detail, _) = run(workload, false);
        check_result(workload, false, &result, &detail);
        let (result, detail, dir) = run(workload, true);
        check_result(workload, true, &result, &detail);
        check_spans(workload, &dir);
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_flick-ledger"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
