//! Bakes the build half of the machine fingerprint into the binary: the
//! compiler version, the git revision when built from a git checkout, and
//! a digest of the repository sources (which identifies the code even in
//! a checkout without git metadata).

use std::path::{Path, PathBuf};
use std::process::Command;

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets it"));
    let repo = manifest.join("..");

    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    println!("cargo:rustc-env=SERVEBENCH_RUSTC={version}");

    let git_dir = repo.join(".git");
    let rev = if git_dir.exists() {
        for watched in ["HEAD", "refs", "packed-refs"] {
            if git_dir.join(watched).exists() {
                println!("cargo:rerun-if-changed={}", git_dir.join(watched).display());
            }
        }
        Command::new("git")
            .arg("-C")
            .arg(&repo)
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    } else {
        None
    };
    println!(
        "cargo:rustc-env=SERVEBENCH_GIT_REV={}",
        rev.unwrap_or_else(|| "unavailable".into())
    );

    let roots = [
        repo.join("crates"),
        repo.join("vendor"),
        repo.join("Cargo.toml"),
        repo.join("Cargo.lock"),
        manifest.join("src"),
        manifest.join("Cargo.toml"),
    ];
    let mut files = Vec::new();
    for root in &roots {
        println!("cargo:rerun-if-changed={}", root.display());
        collect(root, &mut files);
    }
    files.sort();
    // FNV-1a over every (relative path, contents) pair.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        let rel = f.strip_prefix(&repo).unwrap_or(f);
        eat(rel.to_string_lossy().as_bytes());
        eat(&std::fs::read(f).unwrap_or_default());
    }
    println!("cargo:rustc-env=SERVEBENCH_SOURCE_DIGEST={h:016x}");
}

/// Every regular `.rs`/`.toml`/`.lock` file under `path` (or `path`
/// itself), skipping build output.
fn collect(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() {
        if path.file_name().is_some_and(|n| n == "target") {
            return;
        }
        if let Ok(entries) = std::fs::read_dir(path) {
            for e in entries.flatten() {
                collect(&e.path(), out);
            }
        }
    } else if path
        .extension()
        .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
    {
        out.push(path.to_path_buf());
    }
}
