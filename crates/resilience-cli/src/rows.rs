//! The sweep table: its column layout and the one writer of its rows.

use sim::executor::CellResult;
use stats::table::{Align, TableFormat};
use std::fmt;

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
        .cell(Fixed0(r.optimum.work()))
        .cell(Fixed3(100.0 * r.optimum.overhead));
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

/// Displays an `f64` exactly as `{:.0}` does, through integer formatting
/// where that is exact.
///
/// For a sign-positive `x < 2^53`, `x.round_ties_even()` is an integer
/// below 2^53, so the `u64` cast is exact; and `{:.0}` prints the exact
/// binary value of `x` rounded to an integer, ties to even, which is the
/// same integer. Everything else (negative values and `-0.0`, NaN, ±inf,
/// `x ≥ 2^53`) goes through core `{:.0}`.
struct Fixed0(f64);

impl Fixed0 {
    /// The integer the fast path prints, or `None` where core must.
    fn integer(&self) -> Option<u64> {
        let x = self.0;
        (x.is_sign_positive() && x < TWO_POW_53).then(|| x.round_ties_even() as u64)
    }
}

impl fmt::Display for Fixed0 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.integer() {
            Some(k) => write!(f, "{k}"),
            None => write!(f, "{:.0}", self.0),
        }
    }
}

/// 2^53, the [`Fixed0`] cutoff.
const TWO_POW_53: f64 = 9_007_199_254_740_992.0;

/// Displays an `f64` exactly as `{:.3}` does, through integer formatting
/// wherever that is provably exact.
///
/// `{:.3}` prints the exact binary value of `x` rounded to three decimals:
/// the integer `k` nearest to `X = 1000·x`, over 1000. The fast path
/// computes `s = x * 1000.0`, which is `X` rounded to nearest, and for a
/// sign-positive `x` with `s < 2^52` ([`FIXED3_CUTOFF`]) takes for `k` the
/// integer nearest to `s`, declining when `s` is itself a tie:
///
/// * *Rounding the product never crosses a tie.* Every `j + ½` below 2^52
///   is a double, and rounding to nearest is monotone, so `X < j + ½`
///   gives `s ≤ j + ½` and `X > j + ½` gives `s ≥ j + ½`. Hence
///   `k − ½ < s < k + ½` gives `k − ½ < X < k + ½`: `X` is no tie, and `k`
///   is its nearest integer, the one core prints. So the bound the fast
///   path must keep between `s` and a tie, whatever the product's rounding
///   error (up to half an ulp of `s`), is zero.
/// * *Computing `k` is exact.* `t = s − ⌊s⌋` keeps only low bits of `s`,
///   so `t` and its comparison with ½ are exact; `k` is `⌊s⌋` when
///   `t < ½` and `⌊s⌋ + 1` when `t > ½`, below 2^52 either way, so the
///   cast to `u64` is exact too.
/// * *Sign.* `x ≥ +0` gives `X ≥ 0`, which core prints with no sign.
///
/// Everything else goes through core `{:.3}`: `t = ½` (exact ties such as
/// `1062.5`, and products that round onto a tie), `-0.0` and negative
/// values, NaN, ±inf and `s ≥ 2^52`.
struct Fixed3(f64);

/// 2^52: the product `x·1000` (exclusive) up to which every half-integer
/// is a double, and so up to which the [`Fixed3`] fast path is exact.
const FIXED3_CUTOFF: f64 = 4_503_599_627_370_496.0;

impl Fixed3 {
    /// The integer `k` of thousandths the fast path prints, or `None`
    /// where core must.
    fn millis(&self) -> Option<u64> {
        let x = self.0;
        let s = x * 1000.0;
        if !(x.is_sign_positive() && s < FIXED3_CUTOFF) {
            return None;
        }
        let floor = s.floor();
        let t = s - floor;
        if t < 0.5 {
            Some(floor as u64)
        } else if t > 0.5 {
            Some(floor as u64 + 1)
        } else {
            None
        }
    }
}

impl fmt::Display for Fixed3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.millis() {
            Some(k) => write_millis(f, k),
            None => write!(f, "{:.3}", self.0),
        }
    }
}

/// Writes `k / 1000` `.` `k % 1000`, the latter as three digits.
fn write_millis(f: &mut fmt::Formatter<'_>, mut k: u64) -> fmt::Result {
    // u64::MAX has 20 digits; one more byte for the point.
    let mut buf = [0u8; 21];
    let mut at = buf.len();
    for place in 0.. {
        if place == 3 {
            at -= 1;
            buf[at] = b'.';
        }
        at -= 1;
        buf[at] = b'0' + (k % 10) as u8;
        k /= 10;
        if k == 0 && place >= 3 {
            break;
        }
    }
    f.write_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"))
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

    /// Asserts both fast-path wrappers print `x` as core does.
    fn assert_fixed_like_core(x: f64) {
        assert_eq!(Fixed0(x).to_string(), format!("{x:.0}"), "{{:.0}} of {x:e}");
        assert_eq!(Fixed3(x).to_string(), format!("{x:.3}"), "{{:.3}} of {x:e}");
    }

    /// `x` and its neighbours up to four ulps either side.
    fn with_ulp_neighbours(x: f64) -> impl Iterator<Item = f64> {
        let (mut down, mut up) = (x, x);
        let mut near = vec![x];
        for _ in 0..4 {
            down = down.next_down();
            up = up.next_up();
            near.extend([down, up]);
        }
        near.into_iter()
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn fixed_wrappers_match_core_on_random_bit_patterns() {
        let mut rng = Rng::new(0xf1_7ed);
        for _ in 0..1_000_000 {
            let x = f64::from_bits(rng.next_u64());
            if x.abs() < 1e20 || x.is_nan() {
                assert_fixed_like_core(x);
            } else {
                // Both wrappers must hand x to core unchanged, which then
                // prints it with every integer digit: too slow to compare
                // a million times, and the same call as the oracle's.
                assert_eq!(Fixed0(x).integer(), None, "{x:e}");
                assert_eq!(Fixed3(x).millis(), None, "{x:e}");
            }
        }
        // Random bits rarely land where the fast paths work, so also draw
        // uniformly below each cutoff and over the table's usual range.
        let mut fallbacks = 0;
        for _ in 0..200_000 {
            let (h, w) = (rng.uniform() * 100.0, rng.uniform() * TWO_POW_53);
            for x in [h, rng.uniform() * FIXED3_CUTOFF / 1000.0, w] {
                assert_fixed_like_core(x);
            }
            fallbacks += usize::from(Fixed3(h).millis().is_none());
            fallbacks += usize::from(Fixed0(w).integer().is_none());
        }
        // Only exact ties fall back, and uniform draws almost never hit
        // one: a fast path that declined more often would be correct but
        // pointless.
        assert!(fallbacks < 10, "{fallbacks} fallbacks in 400,000 draws");
    }

    #[test]
    fn fixed_wrappers_match_core_on_adversarial_floats() {
        for x in adversarial_floats() {
            for x in with_ulp_neighbours(x) {
                assert_fixed_like_core(x);
                assert_fixed_like_core(100.0 * x);
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn fixed_wrappers_match_core_next_to_rounding_boundaries() {
        // Halfway points of {:.3}: (k + ½)/1000, which mostly fall back.
        let ks = (0..20_000u64).chain((0..64).map(|i| 1u64 << i)).chain([
            999_999,
            1_062_500,
            (1 << 51) - 1,
            (1 << 52) - 1,
        ]);
        for k in ks {
            for x in with_ulp_neighbours((k as f64 + 0.5) / 1000.0) {
                assert_fixed_like_core(x);
            }
        }
        // Halfway points of {:.0}, and both fast paths' cutoffs.
        let two52 = TWO_POW_53 / 2.0;
        let fixed3_edges = [0.25, 0.5, 1.0, 2.0, 4.0].map(|m| m * two52 / 1000.0);
        for x in [0.5, 2.5, two52 - 0.5, two52, TWO_POW_53]
            .into_iter()
            .chain(fixed3_edges)
        {
            for x in with_ulp_neighbours(x) {
                assert_fixed_like_core(x);
            }
        }
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
    #[cfg_attr(miri, ignore)]
    fn sampled_million_cell_grid_rows_match_the_format_oracle() {
        // Every 997th cell of the 10⁶ grid: all axes past index 9.
        let spec = grid_spec(100);
        let name_width = 20;
        let fmt = table_format(false, name_width);
        for c in (0..spec.len()).step_by(997).map(|i| spec.cell_at(i)) {
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
