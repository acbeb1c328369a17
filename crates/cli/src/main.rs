//! `matic` — command-line driver for the MATLAB-to-C ASIP compiler.
//!
//! ```text
//! matic compile <file.m> --entry <fn> --sig <spec> [--target <json>]
//!       [--baseline] [-o <dir>]        compile to C (+ runtime headers)
//! matic mir     <file.m> --entry <fn> --sig <spec>   dump optimized MIR
//! matic cycles  <file.m> --entry <fn> --sig <spec>   baseline-vs-optimized
//!       [--n <size>] [--profile] [--profile-json <p>]  cycle comparison
//! matic targets [--dump <name>]                       list/export targets
//! matic explore [--benchmarks <ids>] [--widths <list>] [--scales <list>]
//!       [--area-model <json>] [--json <out>]          design-space search
//!       [--resume <frontier.json>]
//! matic discover [--frontier <json>] [--benchmarks <ids>]    guided ISA search +
//!       [--seed <k>] [--budget <evals>] [--json <out>]         instruction mining
//! matic serve   [--addr <host:port>] [--workers <n>]  compile server with a
//!       [--max-fuel <N>] [--max-source-bytes <N>]       shared compile cache
//! matic request <addr> <op> ...                       client for `matic serve`
//! ```
//!
//! `--sig` describes the entry signature, comma-separated:
//! `s` scalar, `cs` complex scalar, `v<N>` real vector, `cv<N>` complex
//! vector, `m<R>x<C>` matrix — e.g. `--sig v1024,v64` for `fir(x, h)`.

use matic::reportfmt::{self, DEFAULT_MAX_CYCLES};
use matic::{Compiler, IsaSpec, OptLevel, Ty};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("matic: {msg}");
            ExitCode::from(1)
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err(USAGE.to_string());
    };
    match cmd.as_str() {
        "compile" => cmd_compile(&args[1..]),
        "mir" => cmd_mir(&args[1..]),
        "cycles" => cmd_cycles(&args[1..]),
        "targets" => cmd_targets(&args[1..]),
        "explore" => cmd_explore(&args[1..]),
        "discover" => cmd_discover(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "request" => cmd_request(&args[1..]),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

const USAGE: &str = "usage:
  matic compile <file.m> --entry <fn> --sig <spec> [--target <json>] [--baseline] [-o <dir>]
  matic mir     <file.m> --entry <fn> --sig <spec> [--target <json>]
  matic cycles  <file.m> --entry <fn> --sig <spec> [--target <json>] [--seed <k>] [--max-cycles <N>]
                [--profile] [--profile-json <path>]
  matic targets [--dump <name>]
  matic explore [--benchmarks <ids>] [--widths <list>] [--scales <list>] [--n <size>]
                [--seed <k>] [--max-cycles <N>] [--area-model <json>] [--json <out>]
                [--quick] [--resume <frontier.json>]
  matic discover [--frontier <json>] [--benchmarks <ids>] [--seed <k>] [--budget <evals>]
                [--json <out>] [--quick]
  matic serve   [--addr <host:port>] [--workers <n>] [--max-fuel <N>] [--max-source-bytes <N>]
  matic request <addr> ping | stats
  matic request <addr> compile <file.m> --entry <fn> --sig <spec> [--target <json>] [--baseline]
  matic request <addr> cycles  <file.m> --entry <fn> --sig <spec> [cycles options]
sig spec: s | cs | v<N> | cv<N> | m<R>x<C>, comma-separated (e.g. v1024,v64)
explore sweeps a grid of candidate ISAs (SIMD widths x feature subsets x
cost scalings) over the benchmark suite and reports the cycles-vs-area
Pareto frontier; --quick shrinks the grid for smoke runs, --json writes a
matic-explore-v1 document; --resume seeds the whole sweep configuration
from a previous matic-explore-v1 document (other flags still override)
discover runs a guided search beyond the explore grid: simulated
annealing over ISA mutations plus automatic custom-instruction mining
(recurring MIR op pairs fused into one synthetic instruction, simulated
for real); writes a matic-discover-v2 document
--max-cycles caps the simulated step budget (default 100000000); runaway
programs stop with a fuel-exhaustion diagnostic instead of hanging
--profile prints a per-source-line cycle report for the optimized build;
--profile-json writes the same data as a matic-profile-v1 JSON document
--trace-passes (any command) prints per-pass wall-time and the
vectorizer's per-loop accept/reject decisions on stderr
serve runs a compile server (default 127.0.0.1:9123) that answers a
repeated request from a cache holding one compiled result per distinct
request; request is its client — compile prints the
generated C and cycles prints the same report bytes `matic cycles` would";

/// Parsed common options.
struct Opts {
    file: String,
    entry: String,
    sig: Vec<Ty>,
    /// The raw `--sig` spec, kept for forwarding in `matic request`.
    sig_raw: String,
    target: IsaSpec,
    baseline: bool,
    out_dir: String,
    seed: u64,
    max_cycles: u64,
    profile: bool,
    profile_json: Option<String>,
    trace_passes: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut file = None;
    let mut entry = None;
    let mut sig = None;
    let mut sig_raw = String::new();
    let mut target = IsaSpec::dsp16();
    let mut baseline = false;
    let mut out_dir = "matic_out".to_string();
    let mut seed = 1u64;
    let mut max_cycles = DEFAULT_MAX_CYCLES;
    let mut profile = false;
    let mut profile_json = None;
    let mut trace_passes = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--entry" => entry = Some(next(&mut it, "--entry")?),
            "--sig" => {
                sig_raw = next(&mut it, "--sig")?;
                sig = Some(reportfmt::parse_sig(&sig_raw)?);
            }
            "--target" => {
                let p = next(&mut it, "--target")?;
                let text = std::fs::read_to_string(&p)
                    .map_err(|e| format!("cannot read target `{p}`: {e}"))?;
                target = IsaSpec::from_json(&text)?;
                target.validate()?;
            }
            "--baseline" => baseline = true,
            "--profile" => profile = true,
            "--profile-json" => profile_json = Some(next(&mut it, "--profile-json")?),
            "--trace-passes" => trace_passes = true,
            "-o" | "--out" => out_dir = next(&mut it, "-o")?,
            "--seed" => {
                seed = next(&mut it, "--seed")?
                    .parse()
                    .map_err(|_| "--seed expects an integer".to_string())?
            }
            "--max-cycles" => {
                max_cycles = next(&mut it, "--max-cycles")?
                    .parse()
                    .map_err(|_| "--max-cycles expects a positive integer".to_string())?;
                if max_cycles == 0 {
                    return Err("--max-cycles expects a positive integer".to_string());
                }
            }
            other if !other.starts_with('-') && file.is_none() => file = Some(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(Opts {
        file: file.ok_or("missing input file")?,
        entry: entry.ok_or("missing --entry")?,
        sig: sig.ok_or("missing --sig")?,
        sig_raw,
        target,
        baseline,
        out_dir,
        seed,
        max_cycles,
        profile,
        profile_json,
        trace_passes,
    })
}

fn next(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("{flag} expects a value"))
}

fn read_source(opts: &Opts) -> Result<String, String> {
    std::fs::read_to_string(&opts.file).map_err(|e| format!("cannot read `{}`: {e}", opts.file))
}

fn compile_src(opts: &Opts, src: &str) -> Result<matic::Compiled, String> {
    let level = if opts.baseline {
        OptLevel::baseline()
    } else {
        OptLevel::full()
    };
    let compiled = Compiler::new()
        .target(opts.target.clone())
        .opt_level(level)
        .compile(src, &opts.entry, &opts.sig)
        .map_err(|e| e.to_string())?;
    if opts.trace_passes {
        trace_passes(&compiled, &opts.file, src);
    }
    Ok(compiled)
}

fn compile_with(opts: &Opts) -> Result<matic::Compiled, String> {
    let src = read_source(opts)?;
    compile_src(opts, &src)
}

/// Prints per-pass wall-time and the vectorizer's per-loop decisions on
/// stderr (stdout stays reserved for the command's normal output).
fn trace_passes(compiled: &matic::Compiled, file: &str, src: &str) {
    for t in &compiled.timings {
        eprintln!(
            "trace: pass {:<9} {:>9.3} ms",
            t.name,
            t.duration.as_secs_f64() * 1e3
        );
    }
    let map = matic_frontend::span::SourceMap::new(src);
    for d in &compiled.report.loops.decisions {
        let pos = map.line_col(d.span.start);
        if d.accepted {
            eprintln!(
                "trace: vectorize {file}:{pos}: vectorized loop ({}) at {}",
                d.detail, d.span
            );
        } else {
            eprintln!(
                "trace: vectorize {file}:{pos}: loop not vectorized: {} at {}",
                d.detail, d.span
            );
        }
    }
}

fn reject_profile_flags(opts: &Opts, cmd: &str) -> Result<(), String> {
    if opts.profile || opts.profile_json.is_some() {
        return Err(format!(
            "--profile/--profile-json apply to `cycles`, not `{cmd}`"
        ));
    }
    Ok(())
}

fn cmd_compile(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args)?;
    reject_profile_flags(&opts, "compile")?;
    let compiled = compile_with(&opts)?;
    let dir = Path::new(&opts.out_dir);
    let path = matic_codegen::write_module(dir, &compiled.c, None)
        .map_err(|e| format!("cannot write output: {e}"))?;
    let r = &compiled.report;
    println!("target      : {}", compiled.spec);
    println!(
        "vectorizer  : loops {} accepted / {} rejected, array ops {}, macs fused {}, slices forwarded {}",
        r.loops.maps + r.loops.macs + r.loops.reductions,
        r.loops.rejected,
        r.arrays.maps + r.arrays.reductions + r.arrays.copies,
        r.fuse.macs_fused,
        r.forward.inputs_forwarded + r.forward.outputs_forwarded,
    );
    println!("wrote       : {}", path.display());
    println!("              {}", dir.join("matic_rt.h").display());
    println!("              {}", dir.join("matic_intrinsics.h").display());
    Ok(())
}

fn cmd_mir(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args)?;
    reject_profile_flags(&opts, "mir")?;
    let compiled = compile_with(&opts)?;
    print!("{}", compiled.mir_dump());
    Ok(())
}

fn cmd_cycles(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args)?;
    let src = read_source(&opts)?;
    let optimized = compile_src(
        &Opts {
            baseline: false,
            ..clone_opts(&opts)
        },
        &src,
    )?;
    let baseline = compile_src(
        &Opts {
            baseline: true,
            // Pass traces for the optimized build only; the baseline
            // pipeline never vectorizes and would just repeat timings.
            trace_passes: false,
            ..clone_opts(&opts)
        },
        &src,
    )?;
    let copts = reportfmt::CyclesOptions {
        seed: opts.seed,
        max_cycles: opts.max_cycles,
        profile: opts.profile || opts.profile_json.is_some(),
        ..reportfmt::CyclesOptions::default()
    };
    let run = reportfmt::run_cycles(&baseline, &optimized, &opts.sig, &copts)
        .map_err(|e| e.to_string())?;
    print!(
        "{}",
        reportfmt::render_cycles(&run, &optimized, &src, &opts.entry, opts.profile)
    );
    if let Some(path) = &opts.profile_json {
        if let Some(profile) = &run.optimized.profile {
            let map = matic_frontend::span::SourceMap::new(src.as_str());
            let doc = profile.to_json(&map, &opts.entry, &optimized.spec.name);
            let mut text = doc.pretty();
            text.push('\n');
            std::fs::write(path, text)
                .map_err(|e| format!("cannot write profile `{path}`: {e}"))?;
            println!("\nprofile   : wrote {path}");
        }
    }
    Ok(())
}

fn clone_opts(o: &Opts) -> Opts {
    Opts {
        file: o.file.clone(),
        entry: o.entry.clone(),
        sig: o.sig.clone(),
        sig_raw: o.sig_raw.clone(),
        target: o.target.clone(),
        baseline: o.baseline,
        out_dir: o.out_dir.clone(),
        seed: o.seed,
        max_cycles: o.max_cycles,
        profile: o.profile,
        profile_json: o.profile_json.clone(),
        trace_passes: o.trace_passes,
    }
}

fn cmd_discover(args: &[String]) -> Result<(), String> {
    use matic_discover::{discover, DiscoverConfig};
    // --quick only lowers the default budget; an explicit --budget wins
    // regardless of argument order.
    let mut cfg = if args.iter().any(|a| a == "--quick") {
        DiscoverConfig::quick("")
    } else {
        DiscoverConfig::new("")
    };
    let mut frontier_path = "EXPLORE_frontier.json".to_string();
    let mut json_out = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--frontier" => frontier_path = next(&mut it, "--frontier")?,
            "--benchmarks" => {
                cfg.bench_ids = Some(
                    next(&mut it, "--benchmarks")?
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect(),
                );
            }
            "--seed" => {
                cfg.seed = next(&mut it, "--seed")?
                    .parse()
                    .map_err(|_| "--seed expects an integer".to_string())?;
            }
            "--budget" => {
                cfg.budget = next(&mut it, "--budget")?
                    .parse()
                    .map_err(|_| "--budget expects a positive integer".to_string())?;
            }
            "--json" => json_out = Some(next(&mut it, "--json")?),
            "--quick" => {}
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    cfg.frontier_text = std::fs::read_to_string(&frontier_path)
        .map_err(|e| format!("cannot read frontier `{frontier_path}`: {e}"))?;
    let result = discover(&cfg)?;
    print!("{}", result.render_text());
    if let Some(path) = json_out {
        let mut text = result.to_json().pretty();
        text.push('\n');
        std::fs::write(&path, text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn cmd_explore(args: &[String]) -> Result<(), String> {
    use matic_explore::{explore, resume_config, AreaModel, ExploreConfig, GridConfig};
    // --resume seeds the whole config from a previous matic-explore-v1
    // document; any other flag then overrides the recovered value, so it
    // is applied first regardless of argument order.
    let mut cfg = ExploreConfig::default();
    if let Some(pos) = args.iter().position(|a| a == "--resume") {
        let p = args
            .get(pos + 1)
            .ok_or("--resume expects a frontier JSON path")?;
        let text =
            std::fs::read_to_string(p).map_err(|e| format!("cannot read frontier `{p}`: {e}"))?;
        cfg = resume_config(&text).map_err(|e| format!("cannot resume from `{p}`: {e}"))?;
    }
    let mut json_out = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--benchmarks" => {
                cfg.bench_ids = next(&mut it, "--benchmarks")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--widths" => {
                cfg.grid.widths = next(&mut it, "--widths")?
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .map_err(|_| format!("bad width `{}`", s.trim()))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--scales" => {
                cfg.grid.cost_scales = next(&mut it, "--scales")?
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .map_err(|_| format!("bad cost scale `{}`", s.trim()))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--n" => {
                let n = next(&mut it, "--n")?
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or("--n expects a positive integer")?;
                cfg.n = Some(n);
            }
            "--seed" => {
                cfg.seed = next(&mut it, "--seed")?
                    .parse()
                    .map_err(|_| "--seed expects an integer".to_string())?;
            }
            "--max-cycles" => {
                cfg.fuel = next(&mut it, "--max-cycles")?
                    .parse()
                    .map_err(|_| "--max-cycles expects a positive integer".to_string())?;
                if cfg.fuel == 0 {
                    return Err("--max-cycles expects a positive integer".to_string());
                }
            }
            "--area-model" => {
                let p = next(&mut it, "--area-model")?;
                let text = std::fs::read_to_string(&p)
                    .map_err(|e| format!("cannot read area model `{p}`: {e}"))?;
                cfg.area = AreaModel::from_json(&text)?;
            }
            "--json" => json_out = Some(next(&mut it, "--json")?),
            "--quick" => cfg.grid = GridConfig::quick(),
            "--resume" => {
                // Already applied above; skip the path operand here.
                next(&mut it, "--resume")?;
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let result = explore(&cfg)?;
    print!("{}", result.render_text());
    if let Some(path) = json_out {
        let mut text = result.to_json().pretty();
        text.push('\n');
        std::fs::write(&path, text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        println!("\nwrote {path}");
    }
    Ok(())
}

fn cmd_targets(args: &[String]) -> Result<(), String> {
    if let Some(pos) = args.iter().position(|a| a == "--dump") {
        let name = args.get(pos + 1).ok_or("--dump expects a target name")?;
        let spec =
            IsaSpec::builtin(name).ok_or_else(|| format!("unknown builtin target `{name}`"))?;
        println!("{}", spec.to_json());
        return Ok(());
    }
    println!("builtin targets (export with `matic targets --dump <name>`):");
    for s in &IsaSpec::builtins() {
        println!("  {s}");
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    use matic_serve::{Server, ServerConfig};
    let mut addr = "127.0.0.1:9123".to_string();
    let mut cfg = ServerConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = next(&mut it, "--addr")?,
            "--workers" => {
                cfg.workers = next(&mut it, "--workers")?
                    .parse()
                    .map_err(|_| "--workers expects a positive integer".to_string())?;
                if cfg.workers == 0 {
                    return Err("--workers expects a positive integer".to_string());
                }
            }
            "--max-fuel" => {
                cfg.budgets.max_fuel = next(&mut it, "--max-fuel")?
                    .parse()
                    .map_err(|_| "--max-fuel expects a positive integer".to_string())?;
                if cfg.budgets.max_fuel == 0 {
                    return Err("--max-fuel expects a positive integer".to_string());
                }
            }
            "--max-source-bytes" => {
                cfg.budgets.max_source_bytes = next(&mut it, "--max-source-bytes")?
                    .parse()
                    .map_err(|_| "--max-source-bytes expects an integer".to_string())?;
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let server = Server::bind(&addr, cfg).map_err(|e| format!("cannot bind `{addr}`: {e}"))?;
    println!("matic serve: listening on {}", server.addr());
    // Serve until killed; the acceptor and workers own all the activity.
    loop {
        std::thread::park();
    }
}

fn cmd_request(args: &[String]) -> Result<(), String> {
    use matic_isa::json::Json;
    let addr = args.first().ok_or("request expects <addr> <op>")?;
    let op = args.get(1).ok_or("request expects <addr> <op>")?.as_str();
    let req = match op {
        "ping" | "stats" => Json::Obj(vec![("op".to_string(), Json::Str(op.to_string()))]),
        "compile" | "cycles" => {
            let opts = parse_opts(&args[2..])?;
            let src = read_source(&opts)?;
            build_request(op, &opts, src)?
        }
        other => {
            return Err(format!(
                "unknown request op `{other}` (expected ping, stats, compile, or cycles)"
            ))
        }
    };
    let mut client = matic_serve::Client::connect(addr)
        .map_err(|e| format!("cannot connect to `{addr}`: {e}"))?;
    let resp = client
        .request(&req)
        .map_err(|e| format!("request failed: {e}"))?;
    render_response(op, &resp)
}

/// Builds a serve-protocol request from the CLI's common options.
fn build_request(op: &str, opts: &Opts, src: String) -> Result<matic_isa::json::Json, String> {
    use matic_isa::json::Json;
    let target = matic_isa::json::parse(&opts.target.to_json())
        .map_err(|e| format!("internal: target spec does not round-trip: {e}"))?;
    let mut fields = vec![
        ("op".to_string(), Json::Str(op.to_string())),
        ("source".to_string(), Json::Str(src)),
        ("entry".to_string(), Json::Str(opts.entry.clone())),
        ("sig".to_string(), Json::Str(opts.sig_raw.clone())),
        ("target".to_string(), target),
    ];
    match op {
        "compile" => fields.push(("baseline".to_string(), Json::Bool(opts.baseline))),
        _ => {
            fields.push(("seed".to_string(), Json::Num(opts.seed as f64)));
            fields.push(("max_cycles".to_string(), Json::Num(opts.max_cycles as f64)));
            fields.push(("profile".to_string(), Json::Bool(opts.profile)));
        }
    }
    Ok(Json::Obj(fields))
}

/// Prints a response: raw payload text for compile/cycles (so output can
/// be diffed against the offline CLI), pretty JSON otherwise.
fn render_response(op: &str, resp: &matic_isa::json::Json) -> Result<(), String> {
    use matic_isa::json::Json;
    match resp.get("ok").and_then(Json::as_bool) {
        Some(true) => {}
        _ => {
            let (kind, message) = match resp.get("error") {
                Some(e) => (
                    e.get("kind").and_then(Json::as_str).unwrap_or("unknown"),
                    e.get("message").and_then(Json::as_str).unwrap_or(""),
                ),
                None => ("protocol", "malformed response envelope"),
            };
            return Err(format!("server error ({kind}): {message}"));
        }
    }
    let result = resp
        .get("result")
        .ok_or("malformed response: missing `result`")?;
    let payload_field = match op {
        "compile" => Some("c"),
        "cycles" => Some("text"),
        _ => None,
    };
    match payload_field {
        Some(field) => {
            let text = result
                .get(field)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("malformed response: missing `{field}`"))?;
            print!("{text}");
        }
        None => println!("{}", result.pretty()),
    }
    Ok(())
}
