//! Runs paper experiments by id: `exp e03 e12`, `exp all` or
//! `exp all --smoke` (see `rhodos_bench::exp`). Exits 1 when a claim
//! does not hold, 2 on an unknown flag or id.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let experiments = rhodos_bench::all_experiments();
    let (mut out, mut err) = (std::io::stdout(), std::io::stderr());
    let status = rhodos_bench::exp(&args, &experiments, &mut out, &mut err).expect("write report");
    std::process::exit(status);
}
