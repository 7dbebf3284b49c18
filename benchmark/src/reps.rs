//! The reps of one untraced run, and what is reported from them.
//!
//! A rep is a short slice of the measured window (serve: 0.25 s of the
//! closed loop; sim: one seed; mc: one estimate call). Rates and
//! request times are taken per rep. CPU time comes from
//! `/proc/self/stat` in 10 ms ticks, too coarse for one rep, so it is
//! taken per *block* of consecutive reps at least [`CPU_BLOCK`] long.
//! Every reported figure is the [`best`] over reps or blocks.

use std::time::Duration;

use crate::procstat::{self, cpu_seconds};
use crate::stats::{best, max_deviation_from_median, runner_up_gap};
use crate::tables::END_TO_END;
use crate::Validity;

/// Shortest stretch CPU time is read over (1 % tick granularity).
const CPU_BLOCK: Duration = Duration::from_secs(1);

/// See the module docs.
pub struct Reps {
    rates: Vec<f64>,
    request_us: Vec<f64>,
    cpu_us_per_work: Vec<f64>,
    block_cpu_start: f64,
    block_wall: Duration,
    block_work: f64,
}

impl Reps {
    /// Starts the measured window (reads the CPU clock).
    pub fn begin() -> Result<Reps, String> {
        Ok(Reps {
            rates: Vec::new(),
            request_us: Vec::new(),
            cpu_us_per_work: Vec::new(),
            block_cpu_start: cpu_seconds()?,
            block_wall: Duration::ZERO,
            block_work: 0.0,
        })
    }

    /// Records a rep: `work` units done in `wall`, with `request_us`
    /// the time one request took in it.
    pub fn push(&mut self, work: f64, wall: Duration, request_us: f64) -> Result<(), String> {
        self.rates.push(work / wall.as_secs_f64());
        self.request_us.push(request_us);
        self.block_wall += wall;
        self.block_work += work;
        if self.block_wall >= CPU_BLOCK {
            self.close_block()?;
        }
        Ok(())
    }

    fn close_block(&mut self) -> Result<(), String> {
        let now = cpu_seconds()?;
        let cost = (now - self.block_cpu_start) * 1e6 / self.block_work;
        println!(
            "cpu_block {} cpu_us_per_work={cost:.4}",
            self.cpu_us_per_work.len()
        );
        self.cpu_us_per_work.push(cost);
        self.block_cpu_start = now;
        self.block_wall = Duration::ZERO;
        self.block_work = 0.0;
        Ok(())
    }

    /// Reps recorded so far.
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// Whether no rep was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }

    /// Ends the window: the end-to-end metrics in table order, and what
    /// the validity guard looks at.
    pub fn finish(
        mut self,
        setup_s: f64,
        underfull_share: f64,
    ) -> Result<(Vec<(String, f64)>, Validity), String> {
        if self.is_empty() {
            return Err("no rep was measured".into());
        }
        // A window shorter than one block still has a CPU figure.
        if self.cpu_us_per_work.is_empty() {
            self.close_block()?;
        }
        let values = [
            setup_s,
            best(&self.rates, true),
            best(&self.cpu_us_per_work, false),
            best(&self.request_us, false),
            procstat::peak_rss_mb()?,
        ];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name.to_string(), v))
            .collect();
        let validity = Validity {
            underfull_share,
            runner_up_gap: runner_up_gap(&self.rates),
            max_rep_deviation: max_deviation_from_median(&self.rates),
            reps: self.rates.len(),
        };
        Ok((metrics, validity))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_come_out_in_table_order() {
        let mut reps = Reps::begin().unwrap();
        for k in 1..=20u32 {
            reps.push(
                f64::from(k) * 100.0,
                Duration::from_millis(100),
                f64::from(k),
            )
            .unwrap();
        }
        let (metrics, validity) = reps.finish(0.5, 0.0).unwrap();
        let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, expected);
        assert_eq!(metrics[0].1, 0.5);
        assert_eq!(metrics[1].1, 20_000.0, "best of 1000..=20000 per second");
        assert_eq!(metrics[3].1, 1.0, "best of 1..=20");
        assert!(metrics[2].1 >= 0.0 && metrics[4].1 > 0.0);
        assert_eq!(validity.reps, 20);
        assert_eq!(validity.runner_up_gap, 0.05);
        assert!(validity.is_valid());
    }

    #[test]
    fn an_empty_window_is_an_error() {
        assert!(Reps::begin().unwrap().finish(0.1, 0.0).is_err());
    }
}
