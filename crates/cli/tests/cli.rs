//! CLI-level regression tests for the failure-mode contract: malformed
//! or runaway input must exit nonzero with a single-line
//! `matic: <stage>: <message> at <span>` diagnostic on stderr — never a
//! panic, never a hang.
//!
//! These drive the actual `matic` binary (via `CARGO_BIN_EXE_matic`) so
//! the exact user-visible text and exit codes are pinned.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_matic")
}

/// Writes `src` to a unique temp file and returns its path.
fn source_file(tag: &str, src: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("matic_cli_{}_{tag}", std::process::id(),));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("prog.m");
    std::fs::write(&path, src).expect("write source");
    path
}

fn run(args: &[&str]) -> Output {
    Command::new(bin()).args(args).output().expect("matic runs")
}

fn stderr_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr)
        .lines()
        .next()
        .unwrap_or_default()
        .to_string()
}

#[test]
fn parse_error_is_diagnosed_not_panicked() {
    let file = source_file("parse", "function y = f(x)\ny = x +;\nend\n");
    let out = run(&[
        "compile",
        file.to_str().unwrap(),
        "--entry",
        "f",
        "--sig",
        "v8",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        stderr_line(&out),
        "matic: parse: error: expected expression, found `;` at 25..26"
    );
}

#[test]
fn signature_arity_mismatch_is_a_sema_error() {
    let file = source_file("arity", "function y = f(x, h)\ny = x + h;\nend\n");
    let out = run(&[
        "cycles",
        file.to_str().unwrap(),
        "--entry",
        "f",
        "--sig",
        "v8",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        stderr_line(&out),
        "matic: sema: error: entry `f` expects 2 arguments, signature provides 1 at 0..21"
    );
}

#[test]
fn out_of_bounds_read_is_diagnosed_at_simulation_time() {
    let file = source_file(
        "oob",
        "function y = f(x)\nk = numel(x) + 1;\ny = x(k) * x;\nend\n",
    );
    let out = run(&[
        "cycles",
        file.to_str().unwrap(),
        "--entry",
        "f",
        "--sig",
        "v4",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        stderr_line(&out),
        "matic: asip sim: index 5 out of bounds (4) at 40..44"
    );
}

/// A single-output `size` is the 1×2 row `[rows cols]`; the simulator
/// once indexed a second argument that is not there and panicked.
#[test]
fn single_output_size_runs() {
    let file = source_file("size1", "function y = f(x)\ny = size(x(1));\nend\n");
    let out = run(&[
        "cycles",
        file.to_str().unwrap(),
        "--entry",
        "f",
        "--sig",
        "v4",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_line(&out));
    assert!(out.stderr.is_empty(), "stderr: {}", stderr_line(&out));
}

#[test]
fn runaway_program_exhausts_fuel_instead_of_hanging() {
    let file = source_file(
        "spin",
        "function y = f(x)\ny = 0;\nwhile 1\ny = y + 1;\nend\nend\n",
    );
    let out = run(&[
        "cycles",
        file.to_str().unwrap(),
        "--entry",
        "f",
        "--sig",
        "s",
        "--max-cycles",
        "20000",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let line = stderr_line(&out);
    assert!(
        line.starts_with("matic: asip sim: simulation fuel exhausted at "),
        "unexpected diagnostic: {line}"
    );
}

#[test]
fn zero_max_cycles_is_rejected() {
    let file = source_file("zero", "function y = f(x)\ny = x;\nend\n");
    let out = run(&[
        "cycles",
        file.to_str().unwrap(),
        "--entry",
        "f",
        "--sig",
        "s",
        "--max-cycles",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        stderr_line(&out),
        "matic: --max-cycles expects a positive integer"
    );
}

#[test]
fn help_documents_max_cycles() {
    let out = run(&["help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        text.contains("--max-cycles"),
        "usage must document the flag"
    );
}

#[test]
fn explore_quick_reports_frontier_and_writes_valid_json() {
    let dir = std::env::temp_dir().join(format!("matic_cli_{}_explore", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let json = dir.join("explore.json");
    let out = run(&[
        "explore",
        "--benchmarks",
        "fir",
        "--quick",
        "--n",
        "64",
        "--json",
        json.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_line(&out));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("frontier point"), "{text}");
    assert!(text.contains("== fir"), "{text}");
    let doc = std::fs::read_to_string(&json).expect("json written");
    let summary = matic_explore::validate_explore_json(&doc).expect("document validates");
    assert_eq!(summary.benchmarks, 1);
    assert!(summary.scalar_outperformed);
}

#[test]
fn explore_rejects_unknown_benchmarks_and_bad_grids() {
    let out = run(&["explore", "--benchmarks", "nope", "--quick"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_line(&out).contains("unknown benchmark `nope`"));

    let out = run(&["explore", "--benchmarks", "fir", "--widths", "0"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_line(&out).contains("width"), "{}", stderr_line(&out));
}

/// A zero problem size has no meaningful frontier; it must be rejected
/// like any other non-positive `--n`.
#[test]
fn explore_rejects_a_zero_problem_size() {
    for n in ["0", "-3", "x"] {
        let out = run(&["explore", "--quick", "--benchmarks", "fir", "--n", n]);
        assert_eq!(out.status.code(), Some(1), "--n {n}");
        assert_eq!(
            stderr_line(&out),
            "matic: --n expects a positive integer",
            "--n {n}"
        );
    }
}

/// A default `cycles` run of a scalar FIR kernel succeeds and reports a
/// speedup.
#[test]
fn cycles_report_runs_on_the_default_engine() {
    let file = source_file(
        "engines",
        "function y = f(x, h)\n\
         n = numel(x);\n\
         m = numel(h);\n\
         y = zeros(1, n);\n\
         for i = 1:n\n\
           acc = 0;\n\
           for k = 1:m\n\
             if i - k + 1 >= 1\n\
               acc = acc + h(k) * x(i - k + 1);\n\
             end\n\
           end\n\
           y(i) = acc;\n\
         end\n\
         end\n",
    );
    let out = run(&[
        "cycles",
        file.to_str().unwrap(),
        "--entry",
        "f",
        "--sig",
        "v64,v8",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_line(&out));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("speedup"), "{text}");
}

/// There is one simulator engine, so there is no flag to pick one.
#[test]
fn engine_flag_is_rejected() {
    let file = source_file("badengine", "function y = f(x)\ny = x;\nend\n");
    let out = run(&[
        "cycles",
        file.to_str().unwrap(),
        "--entry",
        "f",
        "--sig",
        "s",
        "--engine",
        "native",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(stderr_line(&out), "matic: unexpected argument `--engine`");
}

#[test]
fn well_formed_program_still_succeeds() {
    let file = source_file("ok", "function y = f(a, b)\ny = sum(a .* b);\nend\n");
    let out = run(&[
        "cycles",
        file.to_str().unwrap(),
        "--entry",
        "f",
        "--sig",
        "v64,v64",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_line(&out));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("speedup"));
}

/// A reader that closes the pipe early (`matic cycles … | head`) ends the
/// command quietly: exit status 0, no panic, nothing on stderr.
#[test]
fn closed_stdout_pipe_ends_quietly() {
    let fir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../benchmarks/fir.m");
    let mut child = Command::new(bin())
        .args(["cycles", fir.to_str().unwrap(), "--entry", "fir"])
        .args(["--sig", "v256,v32"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("matic runs");
    // Close the read end before the report is written.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("matic exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}
