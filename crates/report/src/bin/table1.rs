//! Regenerate **Table 1** — the validation application set.

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("table1: unexpected argument {arg:?}\nusage: table1");
        std::process::exit(2);
    }
    println!("Table 1: Validation Application Set");
    println!("{:-<72}", "");
    println!("{:<20} Description", "Name");
    println!("{:-<72}", "");
    let mut last_group = "";
    for k in kernels::all_kernels() {
        let group = if k.name.starts_with("LFK") {
            "Livermore Fortran Kernels (LFK)"
        } else if k.name.starts_with("PBS") {
            "Purdue Benchmarking Set (PBS)"
        } else {
            ""
        };
        if group != last_group && !group.is_empty() {
            println!("{group}");
            last_group = group;
        }
        println!("{:<20} {}", k.name, k.description);
    }
    println!("{:-<72}", "");
    println!(
        "kernels: {}   applications: {}",
        kernels::all_kernels()
            .iter()
            .filter(|k| k.is_kernel)
            .count(),
        kernels::all_kernels()
            .iter()
            .filter(|k| !k.is_kernel)
            .count()
    );
}
