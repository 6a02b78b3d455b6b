//! `memscale-sim` end to end: every subcommand's `--help` lists its flags
//! and exits 0, an unknown flag or an out-of-range run description is a
//! usage error that exits 2, even when stderr is closed, and a run exits 0
//! when its stdout or its stderr is a closed pipe.

use std::process::{Command, Output, Stdio};

/// Runs the binary under test with `sub` (if any) followed by `args`.
fn sim(sub: &str, args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_memscale-sim"));
    if !sub.is_empty() {
        cmd.arg(sub);
    }
    cmd.args(args).output().expect("memscale-sim runs")
}

/// Each subcommand's flags; the bare run command first.
const FLAGS: [(&str, &str); 7] = [
    ("", "--mix --policy --generation --duration-ms --gamma --cores --channels --epoch-ms --seed --faults --replay --json --list"),
    ("record", "--mix --policy --generation --duration-ms --gamma --cores --channels --epoch-ms --seed --faults --out --margin --list"),
    ("check", "--generation --report"),
    ("serve", "--addr --queue-depth --threads --cache-cap --cache-capacity --state-dir --cell-queue --default-deadline --cell-timeout --io-timeout --drain-timeout"),
    ("slo", "--arrivals --slo-p99-ms --policies --misses-per-request --request-gap --record --replay --out --mix --generation --duration-ms --seed --cores --channels --epoch-ms --margin"),
    ("loadgen", "--addr --clients --jobs --mix --generation --duration-ms --policies --deadline-ms --retries --connect-timeout --read-timeout --reconnect-retries --out --require-cache-hits --open-loop"),
    ("chaos", "--addr --seed --clients --jobs --flood --mix --duration-ms --policies --deadline-ms --out --kill9 --state-dir --server-bin"),
];

#[test]
fn help_lists_every_flag_and_exits_0() {
    // `trace-info` has no flags: its one argument is the trace PATH.
    for (sub, flags) in FLAGS.into_iter().chain([("trace-info", "")]) {
        let out = sim(sub, &["--help"]);
        assert_eq!(out.status.code(), Some(0), "{sub} --help");
        let help = String::from_utf8_lossy(&out.stderr);
        assert!(
            help.starts_with(&format!("usage: memscale-sim {sub}")),
            "{help}"
        );
        for flag in flags.split_whitespace() {
            let listed = [" ", "]"]
                .iter()
                .any(|end| help.contains(&format!("{flag}{end}")));
            assert!(listed, "`{sub} --help` does not list {flag}:\n{help}");
        }
    }
}

#[test]
fn unknown_flag_exits_2() {
    for (sub, _) in FLAGS {
        let out = sim(sub, &["--no-such-flag"]);
        assert_eq!(out.status.code(), Some(2), "{sub}");
        assert!(out.stdout.is_empty());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("flag --no-such-flag"), "{stderr}");
    }
}

#[test]
fn out_of_range_run_description_exits_2_before_simulating() {
    for (args, field) in [
        (["--gamma", "-5"], "gamma_pct"),
        (["--gamma", "nan"], "gamma_pct"),
        (["--epoch-ms", "18446744074"], "epoch_ms"),
    ] {
        let out = sim("", &[args[0], args[1], "--duration-ms", "2"]);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with(&format!("error: {field}")), "{stderr}");
    }
}

/// The exit code of the binary under test run with `args` while its stdout
/// (`stdout_closed`) or its stderr writes into a pipe whose reader is
/// gone; the other stream is discarded.
fn code_with_closed_pipe(args: &[&str], stdout_closed: bool) -> Option<i32> {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let (stdout, stderr) = if stdout_closed {
        (Stdio::from(writer), Stdio::null())
    } else {
        (Stdio::null(), Stdio::from(writer))
    };
    Command::new(env!("CARGO_BIN_EXE_memscale-sim"))
        .args(args)
        .stdout(stdout)
        .stderr(stderr)
        .status()
        .expect("memscale-sim runs")
        .code()
}

#[test]
fn usage_errors_exit_2_when_stderr_is_closed() {
    // The first is refused while parsing, the second once the run is
    // described: the two paths by which `main` reports an error.
    for args in [["--gamma", "-5"], ["--mix", "NOPE"]] {
        let code = code_with_closed_pipe(&[args[0], args[1], "--duration-ms", "2"], false);
        assert_eq!(code, Some(2), "{args:?}");
    }
}

/// A short run that writes progress to stderr and its report to stdout.
const RUN: [&str; 5] = ["--mix", "ILP2", "--duration-ms", "1", "--json"];

#[test]
fn a_run_exits_0_when_stdout_is_closed() {
    assert_eq!(code_with_closed_pipe(&RUN, true), Some(0));
}

#[test]
fn a_run_exits_0_when_stderr_is_closed() {
    assert_eq!(code_with_closed_pipe(&RUN, false), Some(0));
}
