//! Table I: offline AUCC of all ten methods on the three dataset
//! lookalikes under the four settings.
//!
//! Run with `cargo run -p bench --release --bin table1 [--seeds N]`.
//! Results are printed as markdown and persisted to `results/table1.json`.

use bench::harness::{run_setting, seeds_from_args, table_sizes, TABLE1};
use bench::report::{print_markdown_table, write_json};
use datasets::generator::RctGenerator;
use datasets::{AlibabaLike, CriteoLike, MeituanLike, Setting};

/// Paper Table I reference values, rows in `TABLE1` order,
/// columns: (dataset, sufficient?, shifted?) as iterated below.
// Literal AUCC values quoted from the paper; 0.6366 is not 2/pi.
#[allow(clippy::approx_constant)]
const PAPER: [[f64; 10]; 12] = [
    // CRITEO SuNo
    [
        0.6983, 0.5965, 0.7034, 0.6497, 0.7359, 0.7115, 0.6953, 0.7474, 0.7714, 0.7717,
    ],
    // CRITEO SuCo
    [
        0.6824, 0.6108, 0.6817, 0.6712, 0.6500, 0.5433, 0.6411, 0.6757, 0.7263, 0.7382,
    ],
    // CRITEO InNo
    [
        0.5772, 0.5797, 0.5875, 0.6203, 0.6190, 0.5373, 0.6287, 0.6155, 0.6222, 0.6509,
    ],
    // CRITEO InCo
    [
        0.5851, 0.4215, 0.5358, 0.5374, 0.5371, 0.5196, 0.5504, 0.4465, 0.5411, 0.6087,
    ],
    // Meituan SuNo
    [
        0.6890, 0.7213, 0.5841, 0.5478, 0.5147, 0.5164, 0.5392, 0.6067, 0.7223, 0.7290,
    ],
    // Meituan SuCo
    [
        0.5938, 0.6494, 0.5202, 0.5844, 0.5683, 0.5038, 0.4766, 0.6421, 0.6580, 0.6611,
    ],
    // Meituan InNo
    [
        0.6248, 0.6494, 0.5935, 0.6118, 0.6959, 0.6088, 0.6209, 0.6041, 0.6881, 0.7005,
    ],
    // Meituan InCo
    [
        0.5747, 0.5807, 0.5720, 0.5807, 0.5646, 0.6692, 0.6210, 0.5736, 0.6489, 0.6753,
    ],
    // Alibaba SuNo
    [
        0.7213, 0.7234, 0.7177, 0.7079, 0.7264, 0.7275, 0.6392, 0.6214, 0.7281, 0.7476,
    ],
    // Alibaba SuCo
    [
        0.6975, 0.6950, 0.6241, 0.6846, 0.6509, 0.6215, 0.6390, 0.5422, 0.6867, 0.7042,
    ],
    // Alibaba InNo
    [
        0.7082, 0.7035, 0.6134, 0.6998, 0.6570, 0.6651, 0.6686, 0.5888, 0.7121, 0.7214,
    ],
    // Alibaba InCo
    [
        0.6204, 0.6541, 0.6518, 0.6402, 0.6360, 0.6366, 0.6637, 0.5888, 0.6475, 0.6823,
    ],
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
        "Table I reproduction — {} seed(s) per cell, sizes {sizes:?}",
        seeds.len()
    );

    let mut all_cells = Vec::new();
    let mut columns = Vec::new();
    let mut paper_row = 0usize;
    for (name, gen) in &generators {
        for setting in Setting::ALL {
            eprintln!("running {name} / {setting} ...");
            let results = run_setting(gen.as_ref(), setting, &sizes, &TABLE1, &seeds);
            // Paper-vs-measured per method for this cell.
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
    print_markdown_table("Table I (measured AUCC)", &columns, &all_cells);
    match write_json("table1", &(&columns, &all_cells)) {
        Ok(path) => println!("\nresults written to {path}"),
        Err(e) => eprintln!("could not persist results: {e}"),
    }
}
