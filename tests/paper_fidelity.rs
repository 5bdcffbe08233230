//! Paper-fidelity gate over the checked-in paper-scale outputs.
//!
//! CI `cmp`s the binary's output against `results/paper_scale.txt` and
//! `results/ablations.txt`, so a change that moves a simulated number has
//! to regenerate those files — and then these bands decide whether the
//! regenerated reproduction still has the paper's shape: Table 2's
//! speedup ordering, Figure 8's "stride matters" contrast, and ablation
//! 2's cost of a separate flag message. The bands are absolute, not
//! relative to the files' previous contents.

use std::collections::BTreeMap;

fn results(name: &str) -> String {
    let path = format!("{}/results/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The lines of the section headed by a line starting with `title`, up to
/// the next blank line.
fn section<'a>(text: &'a str, title: &str) -> Vec<&'a str> {
    let mut lines = text.lines().skip_while(|l| !l.starts_with(title));
    assert!(lines.next().is_some(), "no section titled {title:?}");
    lines.take_while(|l| !l.trim().is_empty()).collect()
}

/// Splits a table row into its app name (which may contain spaces, e.g.
/// `TC no st`) and its trailing `columns` whitespace-separated fields.
fn row(line: &str, columns: usize) -> (String, Vec<&str>) {
    let fields: Vec<&str> = line.split_whitespace().collect();
    assert!(fields.len() > columns, "short table row {line:?}");
    let (name, rest) = fields.split_at(fields.len() - columns);
    (name.join(" "), rest.to_vec())
}

fn num(field: &str) -> f64 {
    field
        .parse()
        .unwrap_or_else(|e| panic!("not a number {field:?}: {e}"))
}

/// Parses a rendered sim time (`527.764µs`, `1.259ms`, `5.890s`) to ns.
fn sim_time_ns(field: &str) -> f64 {
    let split = field
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or_else(|| panic!("sim time without a unit {field:?}"));
    let scale = match &field[split..] {
        "ns" => 1.0,
        "µs" => 1e3,
        "ms" => 1e6,
        "s" => 1e9,
        unit => panic!("unknown sim-time unit {unit:?} in {field:?}"),
    };
    num(&field[..split]) * scale
}

/// Table 2 as `app -> (AP1000+ speedup, AP1000* speedup)`.
fn table2(text: &str) -> BTreeMap<String, (f64, f64)> {
    section(text, "Table 2:")
        .into_iter()
        .skip(1)
        .map(|line| {
            let (app, cols) = row(line, 3);
            (app, (num(cols[1]), num(cols[2])))
        })
        .collect()
}

#[test]
fn table2_speedups_keep_the_papers_ordering() {
    let t2 = table2(&results("paper_scale.txt"));
    // Paper Table 2, AP1000+ column: EP 8.00, CG 4.78, FT 7.12, SP 7.62,
    // TC st 7.83, TC no st 11.55, MatMul 8.27, SCG 7.96. The reproduction
    // is held to the ordering and to a band around each entry, not to the
    // digits (CG's store-and-forward ring is ablation 1's subject).
    let bands = [
        ("EP", 7.99, 8.01),
        ("CG", 1.5, 5.5),
        ("FT", 6.0, 10.0),
        ("SP", 6.0, 9.0),
        ("TC st", 7.0, 9.0),
        ("TC no st", 11.0, 30.0),
        ("MatMul", 7.0, 9.0),
        ("SCG", 5.0, 9.0),
    ];
    assert_eq!(t2.len(), bands.len(), "Table 2 rows: {:?}", t2.keys());
    for (app, lo, hi) in bands {
        let (plus, star) = t2[app];
        assert!(
            (lo..=hi).contains(&plus),
            "{app}: AP1000+ speedup {plus} outside [{lo}, {hi}]"
        );
        // Hardware handling never loses to software handling on the same
        // processor, and only EP (no communication) ties.
        assert!(plus >= star, "{app}: AP1000+ {plus} < AP1000* {star}");
        assert_eq!(plus == star, app == "EP", "{app}: {plus} vs {star}");
    }
    let by_plus = |a: &(&str, f64, f64), b: &(&str, f64, f64)| t2[a.0].0.total_cmp(&t2[b.0].0);
    let least = bands.iter().copied().min_by(by_plus).map(|b| b.0);
    let most = bands.iter().copied().max_by(by_plus).map(|b| b.0);
    assert_eq!((least, most), (Some("CG"), Some("TC no st")));
    // Without hardware support, element-wise TOMCATV barely beats the
    // AP1000 at all, while the stride version keeps most of the gain.
    assert!(t2["TC no st"].1 < 2.0 && t2["TC st"].1 > 6.0);
}

#[test]
fn figure8_stride_matters_for_ft_sp_and_tomcatv() {
    let text = results("paper_scale.txt");
    // (app, model) -> [exec, rts, overhead, idle, total]
    let mut fig8: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for line in section(&text, "Figure 8:").into_iter().skip(2) {
        let (name, cols) = row(line, 6);
        let values: Vec<f64> = cols[1..].iter().map(|c| num(c)).collect();
        fig8.insert((name, cols[0].to_string()), values);
    }
    assert_eq!(fig8.len(), 16, "eight apps under two models");
    let cell =
        |app: &str, model: &str, col: usize| fig8[&(app.to_string(), model.to_string())][col];
    let total = |app: &str, model: &str| cell(app, model, 4);
    let overhead = |app: &str, model: &str| cell(app, model, 2);
    for app in ["EP", "CG", "FT", "SP", "TC st", "TC no st", "MatMul", "SCG"] {
        assert_eq!(total(app, "AP1000+"), 100.0, "{app} is the normalization");
        assert!(total(app, "AP1000*") >= 100.0, "{app}");
        // Same processor under both models: message handling moves only
        // overhead and idle time, never exec or RTS.
        for col in [0, 1] {
            assert_eq!(
                cell(app, "AP1000+", col),
                cell(app, "AP1000*", col),
                "{app}"
            );
        }
    }
    // The stride users pay for software message handling in CPU overhead:
    // FT more than doubles, SP grows by half, and per-element TOMCATV is an
    // order of magnitude worse than its stride version.
    assert!(total("FT", "AP1000*") >= 200.0 && overhead("FT", "AP1000*") >= 100.0);
    assert!(total("SP", "AP1000*") >= 130.0 && overhead("SP", "AP1000*") >= 15.0);
    assert!(total("TC st", "AP1000*") <= 130.0);
    assert!(total("TC no st", "AP1000*") >= 8.0 * total("TC st", "AP1000*"));
    assert!(overhead("TC no st", "AP1000*") >= 0.8 * total("TC no st", "AP1000*"));
    // Even on the AP1000+ the element-wise version spends an eighth of its
    // time issuing PUT/GETs where the stride version spends a thousandth.
    assert!(overhead("TC no st", "AP1000+") >= 10.0 && overhead("TC st", "AP1000+") <= 1.0);
    assert_eq!(total("EP", "AP1000*"), 100.0, "EP never communicates");
}

#[test]
fn ablation2_separate_flag_message_costs_a_fifth() {
    let text = results("ablations.txt");
    let lines = section(&text, "Ablation 2:");
    let field = |prefix: &str, n: usize| {
        let line = lines
            .iter()
            .find(|l| l.trim_start().starts_with(prefix))
            .unwrap_or_else(|| panic!("ablation 2 has no {prefix:?} line"));
        line.split_whitespace()
            .nth(n)
            .unwrap_or_else(|| panic!("short line {line:?}"))
            .trim_start_matches('(')
            .to_string()
    };
    // `combined :    527.764µs (32 messages)`
    let combined = sim_time_ns(&field("combined", 2));
    let separate = sim_time_ns(&field("separate", 2));
    let (msgs_combined, msgs_separate) = (num(&field("combined", 3)), num(&field("separate", 3)));
    assert_eq!(
        msgs_separate,
        2.0 * msgs_combined,
        "one extra message per PUT"
    );
    let ratio = separate / combined;
    assert!(
        (1.10..=1.35).contains(&ratio),
        "separate/combined = {ratio:.3}, outside [1.10, 1.35]"
    );
    let printed = num(field("separate", 5).trim_end_matches('x'));
    assert!((printed - ratio).abs() < 0.01, "{printed} vs {ratio:.3}");
}

#[test]
fn experiments_md_figure7_table_is_what_repro_fig7_computes() {
    let path = format!("{}/EXPERIMENTS.md", env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let table = apbench::fig7_markdown(1600);
    assert!(
        doc.contains(&table),
        "EXPERIMENTS.md's Figure 7 table is stale; `repro fig7 --bytes 1600` gives:\n{table}"
    );
}
