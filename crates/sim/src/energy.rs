//! Energy accounting glue: the trace flush cursor.
//!
//! The calibrated energy model itself lives in [`nvp_isa::energy`] so
//! that static analyses (the WCEC certifier in `nvp-analysis`) price
//! instructions with exactly the arithmetic the simulator charges at
//! runtime. What stays simulator-local is [`FlushCursor`], which turns the
//! continuously accruing income/compute totals into telescoping trace
//! deltas.

use nvp_power::Energy;
use nvp_trace::Event;

/// Delta cursor over the continuously-accruing income/compute totals.
///
/// Income accrues every tick and compute every instruction; tracing each
/// accrual would dwarf the rest of the trace. Instead the simulator calls
/// [`flush`](Self::flush) at phase boundaries (backup, restore, run end)
/// and emits the since-last-flush deltas as one `energy_flush` event.
/// The deltas telescope: their sum reproduces the run totals (up to f64
/// subtraction rounding, which `nvp-trace summarize` tolerates).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FlushCursor {
    income: Energy,
    compute: Energy,
}

impl FlushCursor {
    /// Creates a cursor at zero (the start-of-run totals).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds an `energy_flush` event for the deltas between the current
    /// totals and the last flush, then advances the cursor.
    pub fn flush(&mut self, tick: u64, income: Energy, compute: Energy) -> Event {
        let d_income = income - self.income;
        let d_compute = compute - self.compute;
        self.income = income;
        self.compute = compute;
        Event::EnergyFlush {
            tick,
            income_nj: d_income.as_nj(),
            compute_nj: d_compute.as_nj(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_cursor_deltas_telescope_to_totals() {
        let mut c = FlushCursor::new();
        let steps = [(10u64, 5.0, 2.0), (20, 5.5, 2.0), (30, 9.0, 7.25)];
        let mut sum_income = 0.0;
        let mut sum_compute = 0.0;
        for (tick, income, compute) in steps {
            match c.flush(tick, Energy::from_nj(income), Energy::from_nj(compute)) {
                Event::EnergyFlush {
                    tick: t,
                    income_nj,
                    compute_nj,
                } => {
                    assert_eq!(t, tick);
                    assert!(income_nj >= 0.0 && compute_nj >= 0.0);
                    sum_income += income_nj;
                    sum_compute += compute_nj;
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert!((sum_income - 9.0).abs() < 1e-12);
        assert!((sum_compute - 7.25).abs() < 1e-12);
    }
}
