//! Host fingerprint: what else the machine was doing while a number was
//! taken. Everything is read from `/proc`; a field that cannot be read is 0.

use std::time::Instant;

fn proc_field(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set of this process, kB (`VmHWM`).
pub fn vm_hwm_kb() -> u64 {
    proc_field("/proc/self/status", "VmHWM:").unwrap_or(0)
}

/// Current resident set of this process, kB (`VmRSS`).
pub fn vm_rss_kb() -> u64 {
    proc_field("/proc/self/status", "VmRSS:").unwrap_or(0)
}

/// Minor page faults of this process so far: pages of memory first touched.
pub fn minor_faults() -> u64 {
    // Field 10 of /proc/self/stat; the command name (field 2) is in
    // parentheses and may hold spaces, so count from the closing one.
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let rest = &s[s.rfind(')')? + 1..];
            rest.split_whitespace().nth(7)?.parse().ok()
        })
        .unwrap_or(0)
}

/// One-minute load average.
pub fn load1() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

pub fn cpus() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// Steps of the calibration loop, and how long they take at the reference
/// clock: 1.5 ns per step is the fastest state of the host the baseline was
/// taken on (six dependent ALU operations at about 4 GHz).
const CALIBRATION_STEPS: u64 = 12_000_000;
const REFERENCE_NS: f64 = CALIBRATION_STEPS as f64 * 1.5;

/// A fixed amount of register-only work (about 20 ms) in the benchmark's own
/// code, so that no change to the repository can move it. Its duration tells
/// how fast the core's clock was running when it was taken. Taken as four
/// bursts and reported as four times the fastest, so that an interrupt
/// landing in one burst does not pass for a slow clock.
pub fn calibrate_ns() -> u64 {
    const BURSTS: u64 = 4;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut fastest = u64::MAX;
    for _ in 0..BURSTS {
        let t0 = Instant::now();
        for _ in 0..CALIBRATION_STEPS / BURSTS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        fastest = fastest.min(t0.elapsed().as_nanos() as u64);
    }
    std::hint::black_box(x);
    fastest * BURSTS
}

/// Factor that re-expresses a host time measured between two calibrations at
/// the reference clock. The sandbox's cores step between clock states that
/// are 25 % apart and last seconds to tens of seconds; a simulation run and
/// the calibration loop slow down together, so scaling one by the other
/// removes what would otherwise be the largest part of run-to-run spread.
/// Interference that does not slow the calibration loop (a neighbour
/// saturating the shared cache) is left in: it is rarer, and the fast
/// quartile over reps is there for it.
pub fn clock_factor(calib_before_ns: u64, calib_after_ns: u64) -> f64 {
    let mean = (calib_before_ns + calib_after_ns) as f64 / 2.0;
    if mean == 0.0 {
        1.0
    } else {
        REFERENCE_NS / mean
    }
}

/// Run `f` between two calibrations; returns its result and the factor that
/// takes host times measured inside it to the reference clock.
pub fn at_reference_clock<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = calibrate_ns();
    let out = f();
    (out, clock_factor(before, calibrate_ns()))
}
