//! Table II: ablation — the contribution of MC dropout and conformal
//! prediction to DR and DRP, on all three dataset lookalikes.
//!
//! Run with `cargo run -p bench --release --bin table2 [--seeds N]`.

use bench::harness::{run_setting, seeds_from_args, table_sizes, TABLE2};
use bench::report::{print_markdown_table, write_json};
use datasets::generator::RctGenerator;
use datasets::{AlibabaLike, CriteoLike, MeituanLike, Setting};

/// Paper Table II reference values, rows in `TABLE2` order
/// (DR, DR w/ MC, DRP, DRP w/ MC, DRP w/ MC w/ CP), columns iterated as
/// below.
const PAPER: [[f64; 5]; 12] = [
    // CRITEO SuNo / SuCo / InNo / InCo
    [0.7459, 0.7464, 0.7714, 0.7716, 0.7717],
    [0.6757, 0.6988, 0.7263, 0.7265, 0.7382],
    [0.6155, 0.6203, 0.6222, 0.6333, 0.6509],
    [0.4465, 0.5326, 0.5411, 0.5907, 0.6087],
    // Meituan
    [0.6067, 0.6675, 0.7223, 0.7253, 0.7290],
    [0.6421, 0.6591, 0.6580, 0.6596, 0.6611],
    [0.6041, 0.6194, 0.6881, 0.6935, 0.7005],
    [0.5736, 0.6034, 0.6489, 0.6609, 0.6753],
    // Alibaba
    [0.6214, 0.6273, 0.7281, 0.7393, 0.7476],
    [0.5422, 0.5527, 0.6867, 0.6938, 0.7042],
    [0.5914, 0.6075, 0.7121, 0.7166, 0.7214],
    [0.5888, 0.6304, 0.6475, 0.6746, 0.6823],
];

fn main() {
    let seeds = seeds_from_args(2);
    let sizes = table_sizes();
    let generators: Vec<(&str, Box<dyn RctGenerator>)> = vec![
        ("CRITEO-UPLIFT v2", Box::new(CriteoLike::new())),
        ("Meituan-LIFT", Box::new(MeituanLike::new())),
        ("Alibaba-LIFT", Box::new(AlibabaLike::new())),
    ];
    println!(
        "Table II reproduction (ablation) — {} seed(s) per cell",
        seeds.len()
    );
    let mut all_cells = Vec::new();
    let mut columns = Vec::new();
    let mut paper_row = 0usize;
    for (name, gen) in &generators {
        for setting in Setting::ALL {
            eprintln!("running {name} / {setting} ...");
            let results = run_setting(gen.as_ref(), setting, &sizes, &TABLE2, &seeds);
            println!("\n-- {name} / {setting} --");
            for (mi, r) in results.iter().enumerate() {
                bench::report::print_paper_vs_measured(
                    &format!("{} [{name}/{setting}]", r.method),
                    PAPER[paper_row][mi],
                    r.aucc,
                );
            }
            columns.push(format!("{name}/{setting}"));
            all_cells.push(results);
            paper_row += 1;
        }
    }
    print_markdown_table("Table II (measured ablation AUCC)", &columns, &all_cells);
    match write_json("table2", &(&columns, &all_cells)) {
        Ok(path) => println!("\nresults written to {path}"),
        Err(e) => eprintln!("could not persist results: {e}"),
    }
}
