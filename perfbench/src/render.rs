//! The sweep table as `resilience-cli grid` prints it, rebuilt from library
//! calls: the reference the CLI's bytes are checked against, and the
//! render layer the traced run times.

use sim::executor::CellResult;
use stats::table::{Align, TableFormat};

/// Width of the scenario column in `grid` tables.
pub const GRID_NAME_WIDTH: usize = 20;

/// The `grid` table layout; simulated sweeps append the Monte-Carlo
/// columns.
pub fn grid_format(simulated: bool) -> TableFormat {
    let mut fmt = TableFormat::new()
        .col("scenario", GRID_NAME_WIDTH, Align::Left)
        .col("pattern", 9, Align::Left)
        .col("m", 3, Align::Right)
        .col("n", 3, Align::Right)
        .col("pv", 4, Align::Right)
        .col("W*(s)", 9, Align::Right)
        .col("H*(%)", 9, Align::Right);
    if simulated {
        fmt = fmt
            .col("sim(%) ± ci", 18, Align::Right)
            .col("ckpt/h", 8, Align::Right)
            .col("rec/d", 8, Align::Right);
    }
    fmt
}

/// One result row's cells, formatted as the CLI formats them.
pub fn cells(r: &CellResult) -> Vec<String> {
    let pat = &r.optimum.pattern;
    let mut cells = vec![
        r.name.to_string(),
        r.theorem.label().to_string(),
        pat.guaranteed_verifs().to_string(),
        pat.partials_per_segment().to_string(),
        pat.partial_verifs().to_string(),
        format!("{:.0}", r.optimum.work()),
        format!("{:.3}", 100.0 * r.optimum.overhead),
    ];
    if let Some(rep) = &r.report {
        cells.push(format!(
            "{:.3} ± {:.3}",
            100.0 * rep.overhead.mean,
            100.0 * rep.overhead.ci95
        ));
        cells.push(format!("{:.2}", rep.checkpoints_per_hour()));
        cells.push(format!("{:.2}", rep.recoveries_per_day()));
    }
    cells
}

/// Header and rule lines, each newline-terminated.
pub fn header(fmt: &TableFormat) -> String {
    format!("{}\n{}\n", fmt.header(), fmt.rule())
}
