//! Fig. 5: ablation cost curves on CRITEO-UPLIFT v2, one panel per
//! setting (SuNo, SuCo, InNo, InCo), five curves per panel
//! (DR, DR w/ MC, DRP, DRP w/ MC, DRP w/ MC w/ CP = rDRP).
//!
//! Run with `cargo run -p bench --release --bin fig5`.

use bench::harness::{label, score_method, table_sizes, AUCC_BINS, TABLE2};
use bench::report::write_json;
use datasets::{CriteoLike, ExperimentData, Setting};
use linalg::random::Prng;
use metrics::{aucc_from_labels, cost_curve, CostCurvePoint};
#[allow(dead_code)]
struct Panel {
    setting: String,
    curves: Vec<(String, f64, Vec<CostCurvePoint>)>,
}

tinyjson::json_struct!(Panel { setting, curves });

fn main() {
    let gen = CriteoLike::new();
    let sizes = table_sizes();
    let mut panels = Vec::new();
    for setting in Setting::ALL {
        eprintln!("running panel {setting} ...");
        let mut rng = Prng::seed_from_u64(2024);
        let data = ExperimentData::build(&gen, setting, &sizes, &mut rng);
        let mut curves = Vec::new();
        println!("\nFig. 5 panel ({setting})");
        for method in TABLE2 {
            let mut mrng = rng.fork();
            let scores = score_method(method, &data, &mut mrng);
            let aucc = aucc_from_labels(&data.test, &scores, AUCC_BINS);
            let curve = cost_curve(&data.test, &scores, AUCC_BINS);
            println!("  {:<16} AUCC {aucc:.4}", label(method));
            curves.push((label(method).to_string(), aucc, curve));
        }
        panels.push(Panel {
            setting: setting.label().to_string(),
            curves,
        });
    }
    // The paper's qualitative claim: within each panel the curve order is
    // DR <= DR w/ MC and DRP <= DRP w/ MC <= rDRP (by area).
    println!("\nOrdering check (paper's qualitative claim):");
    for p in &panels {
        let find = |label: &str| {
            p.curves
                .iter()
                .find(|(l, _, _)| l == label)
                .map(|(_, a, _)| *a)
                .expect("method present")
        };
        let dr = find("DR");
        let dr_mc = find("DR w/ MC");
        let drp = find("DRP");
        let drp_mc = find("DRP w/ MC");
        let rdrp = find("rDRP");
        println!(
            "  {}: DR {dr:.4} -> DR w/MC {dr_mc:.4} | DRP {drp:.4} -> DRP w/MC {drp_mc:.4} -> rDRP {rdrp:.4}",
            p.setting
        );
    }
    match write_json("fig5", &panels) {
        Ok(path) => println!("\nresults written to {path}"),
        Err(e) => eprintln!("could not persist results: {e}"),
    }
}
