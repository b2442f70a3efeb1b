//! Host measurements read from `/proc`: process CPU time from
//! `/proc/self/stat`, and peak resident set size (`VmHWM`) and the
//! allowed CPUs from `/proc/self/status`. The parsers take the file text so they can be
//! tested on fixtures.

use std::fs;

/// Kernel clock ticks per second for the `utime`/`stime` fields. Linux
/// reports them in `USER_HZ`, which its ABI fixes at 100.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of the whole process — every thread, live
/// or exited — from the text of `/proc/<pid>/stat`.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    // `comm` (field 2) is parenthesised and may itself hold spaces or
    // parentheses; the fields after the *last* `)` start at field 3.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Field 14 is utime and field 15 stime: indices 11 and 12 here.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Peak resident set size in MiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let kib: u64 = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(kib as f64 / 1024.0)
}

/// The CPUs this process may run on (`Cpus_allowed_list` in the text of
/// `/proc/<pid>/status`), e.g. `0-1`.
pub fn parse_cpus_allowed(status: &str) -> Option<String> {
    let line = status
        .lines()
        .find(|l| l.starts_with("Cpus_allowed_list:"))?;
    Some(line["Cpus_allowed_list:".len()..].trim().to_owned())
}

/// This process's allowed CPUs.
pub fn cpus_allowed() -> Option<String> {
    parse_cpus_allowed(&fs::read_to_string("/proc/self/status").ok()?)
}

/// This process's CPU seconds so far.
pub fn cpu_seconds() -> Option<f64> {
    parse_cpu_seconds(&fs::read_to_string("/proc/self/stat").ok()?)
}

/// This process's peak RSS so far, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    parse_vm_hwm_mib(&fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (fj-perfbench) R 1 4242 4242 0 -1 4194304 2011 0 0 0 \
                        1234 56 0 0 20 0 3 0 987654 123456789 4321 18446744073709551615";

    #[test]
    fn cpu_sums_utime_and_stime() {
        assert_eq!(parse_cpu_seconds(STAT), Some(12.9));
    }

    #[test]
    fn cpu_survives_hostile_comm() {
        let stat = STAT.replace("(fj-perfbench)", "(a) b (c) 7 8)");
        assert_eq!(parse_cpu_seconds(&stat), Some(12.9));
    }

    #[test]
    fn cpu_rejects_truncated_text() {
        assert_eq!(parse_cpu_seconds("4242 (x) R 1 2 3"), None);
        assert_eq!(parse_cpu_seconds("no parenthesis"), None);
    }

    #[test]
    fn hwm_reads_kib_as_mib() {
        let status =
            "Name:\tfj-perfbench\nVmPeak:\t  300000 kB\nVmHWM:\t  131072 kB\nVmRSS:\t  1024 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(128.0));
    }

    #[test]
    fn hwm_missing_or_malformed_is_none() {
        assert_eq!(parse_vm_hwm_mib("VmRSS:\t 10 kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t ten kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t 10 pages\n"), None);
    }

    #[test]
    fn cpus_allowed_list_is_read_verbatim() {
        let status = "Name:\tx\nCpus_allowed:\t3\nCpus_allowed_list:\t0-1\n";
        assert_eq!(parse_cpus_allowed(status).as_deref(), Some("0-1"));
        assert_eq!(parse_cpus_allowed("Name:\tx\n"), None);
    }

    #[test]
    fn live_process_reads() {
        assert!(cpu_seconds().is_some());
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
    }
}
