//! Runs paper experiments by id: `exp e03 e12` or `exp all`.
//! Flags: `--smoke` shrinks the expensive cells of E20–E24.

fn main() {
    let mut ids = Vec::new();
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        if let Some(flag) = arg.strip_prefix("--") {
            match flag {
                "smoke" => smoke = true,
                _ => {
                    eprintln!("unknown flag --{flag}; supported: --smoke");
                    std::process::exit(2);
                }
            }
        } else {
            ids.push(arg);
        }
    }
    let experiments = rhodos_bench::all_experiments();
    if ids.is_empty() || ids.iter().any(|a| a == "all") {
        println!("{}", rhodos_bench::run_all(smoke));
        return;
    }
    for want in &ids {
        match experiments.iter().find(|(id, _, _)| id == want) {
            Some((id, title, run)) => {
                println!("[{id}] {title}");
                println!("{}", run(smoke));
            }
            None => {
                eprintln!("unknown experiment {want:?}; available:");
                for (id, title, _) in &experiments {
                    eprintln!("  {id}  {title}");
                }
                std::process::exit(2);
            }
        }
    }
}
