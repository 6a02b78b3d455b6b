//! Readers for the Linux process counters the benchmark reports.

/// Kernel clock ticks per second of `/proc/<pid>/stat` CPU times (Linux's
/// `USER_HZ`, fixed at 100 on every mainstream architecture).
const USER_HZ: f64 = 100.0;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU time of the whole process so far, in seconds,
/// including threads that have already exited.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name is parenthesised and may contain spaces; fields
    // after it start with the state (field 3), so utime/stime (fields 14
    // and 15) sit at offsets 11 and 12.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Nanoseconds the calling thread has spent runnable but waiting for a
/// CPU (`/proc/thread-self/schedstat`), or 0 where the kernel lacks it.
pub fn thread_wait_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_read_on_linux() {
        assert!(peak_rss_mb() > 0.0);
        // Burn a little CPU so the tick counter has something to show.
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(process_cpu_s() > 0.0);
        let schedstat = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap();
        assert_eq!(schedstat.split_whitespace().count(), 3, "{schedstat}");
        let _ = thread_wait_ns();
    }
}
