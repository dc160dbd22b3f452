//! Host facts: CPU placement, peak memory, thread CPU time, and the
//! machine fingerprint printed with every result.

use std::process::Command;

// std links the platform C library; the offline build has no libc
// crate, so declare the two affinity calls directly.
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A CPU set as the kernel's `cpu_set_t` lays it out (1024 bits).
type CpuMask = [u64; 16];

/// The CPUs this process may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
    if rc != 0 {
        let n = std::thread::available_parallelism().map_or(1, |n| n.get());
        return (0..n).collect();
    }
    (0..1024)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread, and every thread or process it starts
/// afterwards, to `cpus`.
pub fn pin_current_thread(cpus: &[usize]) -> Result<(), String> {
    let mut mask: CpuMask = [0; 16];
    for &c in cpus.iter().filter(|&&c| c < 1024) {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!("sched_setaffinity({cpus:?}) failed"))
    }
}

/// Where the generator and the fleet run: the generator on the first
/// allowed CPU, everything else on the rest. With one CPU nothing is
/// pinned.
#[derive(Debug, Clone)]
pub struct Placement {
    pub generator: Vec<usize>,
    pub fleet: Vec<usize>,
}

impl Placement {
    pub fn detect() -> Placement {
        let cpus = allowed_cpus();
        if cpus.len() < 2 {
            return Placement {
                generator: cpus.clone(),
                fleet: cpus,
            };
        }
        Placement {
            generator: cpus[..1].to_vec(),
            fleet: cpus[1..].to_vec(),
        }
    }

    /// CPUs the benchmark may use, pinned or not.
    pub fn cpus(&self) -> usize {
        if self.pinned() {
            self.generator.len() + self.fleet.len()
        } else {
            self.fleet.len()
        }
    }

    pub fn pinned(&self) -> bool {
        self.generator != self.fleet
    }

    pub fn describe(&self) -> String {
        if self.pinned() {
            format!(
                "generator cpu {:?}, fleet cpus {:?}",
                self.generator, self.fleet
            )
        } else {
            format!("unpinned, cpus {:?}", self.fleet)
        }
    }
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one),
/// in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// CPU time the calling thread has run, in nanoseconds.
pub fn thread_cpu_ns() -> Option<u64> {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    s.split_whitespace().next()?.parse().ok()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
}

/// CPU model, CPU count, rustc, source revision and placement, as one
/// JSON object.
pub fn fingerprint(placement: &Placement) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let nproc = placement.cpus();
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_owned());
    let rev = command_line("git", &["rev-parse", "--short=12", "HEAD"])
        .unwrap_or_else(|| "not a git checkout".to_owned());
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    format!(
        "{{\"cpu_model\": \"{}\", \"nproc\": {nproc}, \"rustc\": \"{}\", \"git_rev\": \"{}\", \
         \"placement\": \"{}\"}}",
        esc(&cpu),
        esc(&rustc),
        esc(&rev),
        esc(&placement.describe())
    )
}
