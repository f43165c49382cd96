//! Text-table formatting for experiment output, matching the series the
//! paper's figures plot.

use tiger_core::WindowSample;

use crate::startup::StartupResult;

/// Formats ramp windows as the Figure 8/9 table: streams on the x-axis,
/// loads on the left axis, control traffic on the right axis.
pub fn format_ramp_table(title: &str, windows: &[WindowSample]) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {title}\n"));
    out.push_str("streams  cub_cpu%  ctrl_cpu%  disk_load%  nic_util%  ctrl_traffic_B/s\n");
    for w in windows {
        out.push_str(&format!(
            "{:>7}  {:>8.1}  {:>9.2}  {:>10.1}  {:>9.1}  {:>16.0}\n",
            w.streams,
            w.cub_cpu * 100.0,
            w.controller_cpu * 100.0,
            w.disk_load * 100.0,
            w.nic_utilization * 100.0,
            w.control_bytes_per_sec,
        ));
    }
    out
}

/// Formats startup samples as the Figure 10 series: per-load mean, min,
/// max, and the count of >20 s outliers.
pub fn format_startup_table(result: &StartupResult) -> String {
    let mut out = String::new();
    out.push_str("# Figure 10: stream startup latency vs schedule load\n");
    out.push_str("load_bin   n   mean_s    min_s    max_s   >20s\n");
    let bins = [
        (0.0, 0.55),
        (0.55, 0.65),
        (0.65, 0.75),
        (0.75, 0.825),
        (0.825, 0.875),
        (0.875, 0.925),
        (0.925, 0.965),
        (0.965, 0.99),
        (0.99, 1.01),
    ];
    for (lo, hi) in bins {
        let samples: Vec<f64> = result
            .samples
            .iter()
            .filter(|(l, _)| *l >= lo && *l < hi)
            .map(|&(_, s)| s)
            .collect();
        if samples.is_empty() {
            continue;
        }
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(0.0f64, f64::max);
        let outliers = samples.iter().filter(|&&s| s > 20.0).count();
        out.push_str(&format!(
            "{lo:.2}-{hi:.2}  {n:>3}  {mean:>7.2}  {min:>7.2}  {max:>7.2}  {outliers:>5}\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiger_sim::SimTime;

    #[test]
    fn ramp_table_has_one_row_per_window() {
        let windows = vec![
            WindowSample {
                at: SimTime::from_secs(50),
                streams: 30,
                cub_cpu: 0.1,
                controller_cpu: 0.01,
                disk_load: 0.12,
                control_bytes_per_sec: 900.0,
                nic_utilization: 0.03,
            },
            WindowSample {
                at: SimTime::from_secs(100),
                streams: 60,
                cub_cpu: 0.2,
                controller_cpu: 0.01,
                disk_load: 0.24,
                control_bytes_per_sec: 1800.0,
                nic_utilization: 0.06,
            },
        ];
        let table = format_ramp_table("Figure 8", &windows);
        assert_eq!(table.lines().count(), 4);
        assert!(table.contains("Figure 8"));
        assert!(table
            .lines()
            .nth(2)
            .expect("row")
            .trim_start()
            .starts_with("30"));
    }

    #[test]
    fn startup_table_bins_samples() {
        let r = StartupResult {
            samples: vec![(0.5, 1.8), (0.51, 2.0), (0.95, 25.0)],
            violations: Vec::new(),
        };
        let t = format_startup_table(&r);
        assert!(t.contains("0.00-0.55"));
        assert!(t.contains("1"), "outlier bin counted");
    }
}
