//! Compiles the digest of the simulator's source into
//! `levioso_uarch::core_fingerprint`, the namespace of every cached sweep
//! cell (see `src/fingerprint.rs`). Cargo reruns this script when this
//! file or anything under one of the five source trees changes; a tree
//! that is missing or holds no `.rs` file fails the build.

#[path = "src/fingerprint.rs"]
mod fingerprint;

use std::path::Path;

fn main() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("crates/ directory");
    println!("cargo:rerun-if-changed=build.rs");
    for tree in fingerprint::TREES {
        // A directory reruns the script on any change beneath it, an added
        // or removed file included; the digest code is under uarch's.
        println!("cargo:rerun-if-changed={}", crates.join(tree).join("src").display());
    }
    let digest = fingerprint::digest(crates)
        .unwrap_or_else(|e| panic!("cannot fingerprint the simulator's source: {e}"));
    println!("cargo:rustc-env=LEVIOSO_CORE_DIGEST={digest}");
}
