//! The sweep table: its column layout and the one writer of its rows.

use sim::executor::CellResult;
use stats::table::{Align, TableFormat};

/// The sweep table's column layout (simulated sweeps append the
/// Monte-Carlo columns).
pub fn table_format(simulated: bool, name_width: usize) -> TableFormat {
    let mut fmt = TableFormat::new()
        .col("scenario", name_width, Align::Left)
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

/// Appends one result row, newline included, to `buf`. `n` is the
/// per-segment partial-verification count derived from the pattern shape;
/// `pv` is the true total per pattern (they differ from naive `pv/m`
/// bookkeeping exactly when the pattern has no segments to divide by).
pub fn render_row(fmt: &TableFormat, r: &CellResult, buf: &mut Vec<u8>) {
    let pat = &r.optimum.pattern;
    let mut row = fmt.row_writer(buf);
    row.cell(&r.name)
        .cell(r.theorem.label())
        .cell(pat.guaranteed_verifs())
        .cell(pat.partials_per_segment())
        .cell(pat.partial_verifs())
        .cell(format_args!("{:.0}", r.optimum.work()))
        .cell(format_args!("{:.3}", 100.0 * r.optimum.overhead));
    if let Some(rep) = &r.report {
        row.cell(format_args!(
            "{:.3} ± {:.3}",
            100.0 * rep.overhead.mean,
            100.0 * rep.overhead.ci95
        ))
        .cell(format_args!("{:.2}", rep.checkpoints_per_hour()))
        .cell(format_args!("{:.2}", rep.recoveries_per_day()));
    }
    row.finish();
    buf.push(b'\n');
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilience::{grid_spec, CellName, Pattern, PatternOptimum, Theorem};
    use sim::{Rng, SimReport};
    use stats::Summary;
    use std::sync::Arc;

    /// The row as `format!` renders it: one `String` per cell, padded with
    /// `{:<w$}`/`{:>w$}` and the whole row `trim_end`ed. This is the
    /// renderer the sweep table used before rows were written in place,
    /// kept here as the oracle, with the column layout spelled out again.
    fn oracle(name_width: usize, r: &CellResult) -> String {
        let pat = &r.optimum.pattern;
        let mut cells = vec![
            (r.name.to_string(), name_width, Align::Left),
            (r.theorem.label().to_string(), 9, Align::Left),
            (pat.guaranteed_verifs().to_string(), 3, Align::Right),
            (pat.partials_per_segment().to_string(), 3, Align::Right),
            (pat.partial_verifs().to_string(), 4, Align::Right),
            (format!("{:.0}", r.optimum.work()), 9, Align::Right),
            (
                format!("{:.3}", 100.0 * r.optimum.overhead),
                9,
                Align::Right,
            ),
        ];
        if let Some(rep) = &r.report {
            let sim = format!(
                "{:.3} ± {:.3}",
                100.0 * rep.overhead.mean,
                100.0 * rep.overhead.ci95
            );
            cells.push((sim, 18, Align::Right));
            cells.push((
                format!("{:.2}", rep.checkpoints_per_hour()),
                8,
                Align::Right,
            ));
            cells.push((format!("{:.2}", rep.recoveries_per_day()), 8, Align::Right));
        }
        let mut out = String::new();
        for (i, (cell, width, align)) in cells.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            match align {
                Align::Left => out.push_str(&format!("{cell:<width$}")),
                Align::Right => out.push_str(&format!("{cell:>width$}")),
            }
        }
        out.truncate(out.trim_end().len());
        out.push('\n');
        out
    }

    fn rendered(fmt: &TableFormat, r: &CellResult) -> String {
        let mut buf = b"previous row\n".to_vec();
        render_row(fmt, r, &mut buf);
        let row = buf.split_off(b"previous row\n".len());
        assert_eq!(buf, b"previous row\n", "the writer must only append");
        String::from_utf8(row).expect("rows are UTF-8")
    }

    fn report(mean: f64, ci95: f64, replications: u64, total_time: f64) -> SimReport {
        let summary = Summary {
            count: replications,
            mean,
            std_dev: 0.0,
            ci95,
            min: mean,
            max: mean,
        };
        SimReport {
            overhead: summary,
            time: summary,
            fail_stop_events: replications / 3,
            silent_errors: 0,
            silent_detections: replications / 7,
            total_time,
            replications,
            time_histogram: None,
        }
    }

    fn cell(name: &str, theorem: Theorem, pattern: Pattern, overhead: f64) -> CellResult {
        CellResult {
            index: 0,
            name: CellName::Shared(Arc::from(name)),
            theorem,
            optimum: PatternOptimum { pattern, overhead },
            report: None,
        }
    }

    /// Floats that stress fixed-precision formatting: signed zeros,
    /// subnormals, huge and non-finite values, and ties at `{:.0}`,
    /// `{:.2}` and `{:.3}` (after the ×100 the table applies, too).
    fn adversarial_floats() -> Vec<f64> {
        vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            1e300,
            -1e300,
            f64::MAX,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.5,
            1.5,
            2.5,
            -2.5,
            0.0005,
            0.000_005,
            1.0045,
            0.010_045,
            0.125,
            0.005,
            0.015,
            123_456_789.5,
            999.9995,
            9.999_999_999,
        ]
    }

    #[test]
    fn rows_match_the_format_oracle_on_adversarial_inputs() {
        let names = [
            "plain",
            "",
            "exactly-twenty-chars",
            "a-name-much-wider-than-its-twenty-char-column",
            "ñodo-µs-±",
            "日本語のシナリオ名",
            "trailing  ",
            "tab\t",
        ];
        let floats = adversarial_floats();
        for simulated in [false, true] {
            for name_width in [12, 20] {
                let fmt = table_format(simulated, name_width);
                for (i, name) in names.iter().enumerate() {
                    for (j, &x) in floats.iter().enumerate() {
                        let y = floats[(i * 7 + j * 3) % floats.len()];
                        let pattern = Pattern::Checkpoint { work: x };
                        let mut r = cell(name, Theorem::ALL[j % 4], pattern, y);
                        if simulated {
                            let total = floats[(j + 5) % floats.len()];
                            r.report = Some(report(y, x, (i * 31 + j) as u64, total));
                        }
                        assert_eq!(
                            rendered(&fmt, &r),
                            oracle(name_width, &r),
                            "name {name:?}, work {x:e}, overhead {y:e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rows_match_the_format_oracle_on_random_bit_patterns() {
        let mut rng = Rng::new(0x7ab1e);
        let name_width = 20;
        let fmt = table_format(true, name_width);
        for _ in 0..2_000 {
            let mut r = cell(
                "random",
                Theorem::Four,
                Pattern::Checkpoint {
                    work: f64::from_bits(rng.next_u64()),
                },
                f64::from_bits(rng.next_u64()),
            );
            r.report = Some(report(
                f64::from_bits(rng.next_u64()),
                rng.uniform() * 10.0_f64.powi((rng.next_u64() % 12) as i32),
                rng.next_u64() % 1_000_000,
                f64::from_bits(rng.next_u64()),
            ));
            assert_eq!(rendered(&fmt, &r), oracle(name_width, &r));
        }
    }

    #[test]
    fn grid_rows_match_the_format_oracle() {
        let spec = grid_spec(10);
        let name_width = 20;
        let fmt = table_format(false, name_width);
        for c in spec.cells() {
            let r = CellResult {
                index: c.index,
                optimum: c.theorem.optimize(&c.platform, &c.costs),
                name: c.name,
                theorem: c.theorem,
                report: None,
            };
            assert_eq!(rendered(&fmt, &r), oracle(name_width, &r));
        }
    }
}
