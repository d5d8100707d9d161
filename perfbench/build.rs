//! Starts the benchmark's machine code on a page boundary.
//!
//! The linker places `.rodata` before `.text`, and `.rodata` holds the
//! absolute paths of the crates' source files, so a checkout at a path of
//! another length shifts every function by a few bytes and changes how
//! hot loops fall on cache lines: the same source, built in two places,
//! measured up to 17 % apart (README.md, "Steadiness"). With separate code
//! segments `.text` starts on a page of its own, whatever that length.

fn main() {
    println!("cargo:rustc-link-arg-bins=-Wl,-z,separate-code");
}
