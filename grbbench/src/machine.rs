//! What the run happened on: core count, pool width, last-level cache,
//! `GRB_*` settings, and the process's peak resident set.

use std::fs;

/// The environment every output records.
#[derive(Debug, Clone)]
pub struct Machine {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Width of the global worker pool.
    pub pool_width: usize,
    /// Size of the highest-level data or unified cache of cpu0, in bytes
    /// (0 when sysfs does not say).
    pub llc_bytes: u64,
    /// Every `GRB_*` environment variable that is set, as `NAME=value`.
    pub grb_env: Vec<String>,
}

impl Machine {
    pub fn detect() -> Machine {
        let mut grb_env: Vec<String> = std::env::vars()
            .filter(|(k, _)| k.starts_with("GRB_"))
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        grb_env.sort();
        Machine {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            pool_width: graphblas_exec::global_pool().size(),
            llc_bytes: llc_bytes(),
            grb_env,
        }
    }

    /// One line for the text report.
    pub fn describe(&self) -> String {
        format!(
            "nproc={} pool_width={} llc_bytes={} grb_env=[{}]",
            self.nproc,
            self.pool_width,
            self.llc_bytes,
            self.grb_env.join(",")
        )
    }
}

/// Parses a sysfs cache size such as `107520K`.
fn parse_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (num, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>().ok().map(|n| n * mult)
}

/// The largest cache at the highest level listed under
/// `/sys/devices/system/cpu/cpu0/cache/`, skipping instruction caches.
fn llc_bytes() -> u64 {
    let Ok(dir) = fs::read_dir("/sys/devices/system/cpu/cpu0/cache") else {
        return 0;
    };
    let mut best = (0u32, 0u64);
    for entry in dir.flatten() {
        let p = entry.path();
        let read = |f: &str| fs::read_to_string(p.join(f)).unwrap_or_default();
        if read("type").trim() == "Instruction" {
            continue;
        }
        let (Ok(level), Some(size)) = (
            read("level").trim().parse::<u32>(),
            parse_size(&read("size")),
        ) else {
            continue;
        };
        if (level, size) > best {
            best = (level, size);
        }
    }
    best.1
}

/// Cumulative (all, steal) CPU ticks of the machine from `/proc/stat`.
/// Steal is time a virtual CPU was runnable but the host ran something
/// else; it stretches wall times without any change in the program.
pub fn cpu_ticks() -> (u64, u64) {
    let line = fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = line
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    (
        ticks.iter().take(8).sum(),
        ticks.get(7).copied().unwrap_or(0),
    )
}

/// Share of CPU time stolen by the host between two [`cpu_ticks`] reads.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let all = after.0.saturating_sub(before.0);
    if all == 0 {
        0.0
    } else {
        after.1.saturating_sub(before.1) as f64 / all as f64
    }
}

/// `VmHWM` of this process in bytes (0 where `/proc` is unavailable).
pub fn peak_rss_bytes() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes() {
        assert_eq!(parse_size("107520K\n"), Some(107520 * 1024));
        assert_eq!(parse_size("2M"), Some(2 << 20));
        assert_eq!(parse_size("64"), Some(64));
        assert_eq!(parse_size("x"), None);
    }
}
