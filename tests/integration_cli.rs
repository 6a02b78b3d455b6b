//! `memscale-sim` end to end: every subcommand's `--help` lists its flags
//! and exits 0, and an unknown flag is a usage error that exits 2.

use std::process::{Command, Output};

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
