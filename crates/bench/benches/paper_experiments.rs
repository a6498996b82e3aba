//! `cargo bench -p rhodos-bench --bench paper_experiments`
//!
//! Regenerates every exhibit and prose claim of the paper (Table 1 plus
//! experiments E3–E16 of `EXPERIMENTS.md`) and prints the paper-style
//! tables. This is a `harness = false` bench target so the whole paper
//! reproduction is part of `cargo bench --workspace`.

fn main() {
    // `cargo bench` passes harness flags like `--bench`; ignore them.
    println!("{}", rhodos_bench::run_all(false));
}
