//! CLI entry point: regenerate a figure's data rows.
//!
//! ```text
//! p4update-experiments fig2
//! p4update-experiments fig4  [--runs N]
//! p4update-experiments fig7a [--runs N]   (panels a..f)
//! p4update-experiments fig8a [--runs N]
//! p4update-experiments fig8b [--runs N]
//! p4update-experiments all   [--runs N]
//! ```

use p4update_experiments::{fig2, fig4, fig7, fig8, table1};

fn usage() -> ! {
    eprintln!(
        "usage: p4update-experiments <fig2|fig4|fig7a..fig7f|fig8a|fig8b|table1|all> [--runs N] [--seed S]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(which) = args.first() else { usage() };
    let mut runs: u64 = 30;
    let mut seed: u64 = 7;
    let mut i = 1;
    while i < args.len() {
        let value = args.get(i + 1).and_then(|v| v.parse().ok());
        match (args[i].as_str(), value) {
            ("--runs", Some(v)) => runs = v,
            ("--seed", Some(v)) => seed = v,
            _ => usage(),
        }
        i += 2;
    }

    match which.as_str() {
        "fig2" => fig2::print(seed),
        "fig4" => fig4::print(runs),
        p if p.starts_with("fig7") => {
            let Some(panel) = fig7::Panel::from_letter(&p["fig7".len()..]) else {
                usage()
            };
            fig7::print(panel, runs);
        }
        "fig8a" => fig8::print(false, runs),
        "fig8b" => fig8::print(true, runs),
        "table1" => table1::print(),
        "all" => {
            fig2::print(seed);
            println!();
            fig4::print(runs);
            for panel in ["a", "b", "c", "d", "e", "f"] {
                println!();
                fig7::print(fig7::Panel::from_letter(panel).expect("valid panel"), runs);
            }
            println!();
            fig8::print(false, runs);
            println!();
            fig8::print(true, runs);
        }
        _ => usage(),
    }
}
