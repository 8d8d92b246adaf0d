//! Injected panics stay quiet: `repro` prints one line per panic a fault
//! plan raised on purpose, with its site and index and no backtrace,
//! even under `RUST_BACKTRACE=1`, while stdout is unchanged.

use std::process::Command;

#[test]
fn injected_panics_print_one_line_each_and_no_backtrace() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "16", "--seed", "2013", "--threads", "1"])
        .args(["fit-recovery", "serve-replay", "serve-failover"])
        .env("RUST_BACKTRACE", "1")
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "repro failed:\n{stderr}");
    let injected: Vec<&str> = stderr
        .lines()
        .filter(|line| line.starts_with("injected panic at "))
        .collect();
    let at = |site: &str| {
        injected
            .iter()
            .filter(|line| line.starts_with(&format!("injected panic at {site} index ")))
            .count()
    };
    // fit-recovery isolates one task panic; serve-replay (3) and
    // serve-failover (2) catch theirs in the handler.
    assert_eq!(injected.len(), 6, "{stderr}");
    assert_eq!(
        (at("core.par.task"), at("serve.handler")),
        (1, 5),
        "{stderr}"
    );
    assert!(!stderr.contains("stack backtrace"), "{stderr}");
    assert!(!stderr.contains("panicked at"), "{stderr}");

    let stdout = String::from_utf8(output.stdout).expect("stdout is UTF-8");
    assert!(
        stdout.contains("converged bit-identically to reference: true"),
        "{stdout}"
    );
    assert_eq!(stdout.matches(" caught / 0 escaped").count(), 2, "{stdout}");
}
