//! Captures the toolchain and build settings for the host fingerprint: every
//! result the benchmark prints records which compiler and flags produced it.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(&rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let env = |name: &str| std::env::var(name).unwrap_or_else(|_| "unknown".to_string());
    println!("cargo:rustc-env=FIGBENCH_RUSTC={version}");
    println!("cargo:rustc-env=FIGBENCH_PROFILE={}", env("PROFILE"));
    println!("cargo:rustc-env=FIGBENCH_OPT_LEVEL={}", env("OPT_LEVEL"));
    println!(
        "cargo:rustc-env=FIGBENCH_TARGET_FEATURES={}",
        env("CARGO_CFG_TARGET_FEATURE")
    );
    println!("cargo:rerun-if-env-changed=RUSTC");
    println!("cargo:rerun-if-env-changed=RUSTFLAGS");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
