//! Names the first difference between two `experiments --fingerprints`
//! dumps.
//!
//! ```text
//! cargo run -p mtnet-bench --bin fingerprint-diff --release -- a.txt b.txt
//! ```
//!
//! Exit codes follow `cmp`: 0 when the dumps are identical (nothing is
//! printed), 1 when they differ — one line naming the experiment, run,
//! section, field and both values, plus the line number — and 2 when an
//! input cannot be read.

use mtnet_bench::fpdiff::first_divergence;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [a, b] = args.as_slice() else {
        eprintln!("usage: fingerprint-diff A B");
        std::process::exit(2)
    };
    let read = |path: &String| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("fingerprint-diff: {path}: {e}");
            std::process::exit(2)
        })
    };
    let (text_a, text_b) = (read(a), read(b));
    if let Some(d) = first_divergence(&text_a, &text_b) {
        println!("{a} (A) and {b} (B) differ at {d}");
        std::process::exit(1)
    }
}
