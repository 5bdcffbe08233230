//! Group barriers and group reductions (§2.3).
//!
//! Run with `cargo run --release --example groups`.
//!
//! §2.3: *"Barrier synchronization and global reductions are performed in
//! specific groups of nodes"* — the index-partition case where arrays are
//! decomposed two-dimensionally and each row/column of cells synchronizes
//! independently. The S-net only covers the full machine, so group
//! collectives run in software on the communication registers (§4.5),
//! exactly as this example does: a 4×4 cell grid computes row sums and
//! column maxima concurrently, no full-machine barrier involved.

use apcore::{run, MachineConfig, ReduceOp};

const SIDE: usize = 4;

fn main() {
    let report = run(
        MachineConfig::new((SIDE * SIDE) as u32),
        None,
        async |cell| {
            let me = cell.id();
            let (row, col) = (me / SIDE, me % SIDE);
            let value = (me * me) as f64;

            // Row group: cells sharing `row`; column group: sharing `col`.
            let row_group: Vec<usize> = (0..SIDE).map(|c| row * SIDE + c).collect();
            let col_group: Vec<usize> = (0..SIDE).map(|r| r * SIDE + col).collect();

            cell.group_barrier(&row_group).await;
            let row_sum = cell
                .group_reduce_f64(&row_group, value, ReduceOp::Sum)
                .await;
            cell.group_barrier(&col_group).await;
            let col_max = cell
                .group_reduce_f64(&col_group, value, ReduceOp::Max)
                .await;

            // Verify against the closed forms.
            let expect_sum: f64 = (0..SIDE).map(|c| ((row * SIDE + c).pow(2)) as f64).sum();
            let expect_max = ((3 * SIDE + col).pow(2)) as f64;
            assert_eq!(row_sum, expect_sum, "cell {me} row sum");
            assert_eq!(col_max, expect_max, "cell {me} col max");
            (row_sum, col_max)
        },
    )
    .expect("simulation failed");

    println!("4×4 cell grid, software group collectives over communication registers:");
    for r in 0..SIDE {
        let (sum, _) = report.outputs[r * SIDE];
        println!("  row {r}: sum of id² = {sum}");
    }
    for c in 0..SIDE {
        let (_, max) = report.outputs[c];
        println!("  col {c}: max of id² = {max}");
    }
    println!(
        "simulated time {} | full-machine barriers used: {}",
        report.total_time, report.barriers
    );
    assert_eq!(
        report.barriers, 0,
        "no S-net barriers — groups are software"
    );
}
