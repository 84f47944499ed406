//! Processor time, scaled to a reference speed.
//!
//! On a shared host the processor's speed changes by a third and more for
//! minutes at a time (neighbours' load on shared cores and caches), and
//! every piece of work slows together. Wall time also grows while other
//! tenants hold the processor. So the end-to-end times are the process's
//! processor time (all threads), and each is scaled by how fast a fixed
//! reference kernel ran around it (the median of the kernel runs nearest
//! before and after, which tracks the host's slow and fast spells without
//! taking on one kernel run's noise): a reading is the
//! processor seconds the work would take on a host where the kernel takes
//! [`REFERENCE_S`]. The kernel is the benchmark's own code, not the
//! program's, so a change to the program moves the readings and a change
//! of host speed cancels out.

use std::time::Duration;

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock(id: i32) -> Duration {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the whole call, laid
    // out as the 64-bit Linux `struct timespec`.
    let rc = unsafe { clock_gettime(id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({id}) failed");
    Duration::new(ts.sec as u64, ts.nsec as u32)
}

/// Processor time this process has used so far, every thread counted,
/// ended ones too.
pub fn cpu_time() -> Duration {
    clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// Slots of the kernel's hash table: 8 MiB, more than a core's private
/// caches hold, as the BDD engine's node arena and unique table are; the
/// keys fill it a little under half.
const SLOTS: usize = 1 << 20;
/// Probes per kernel run; three in four find a key already inserted.
const PROBES: u64 = 640_000;
/// Distinct keys per kernel run.
const KEYS: u64 = PROBES / 4 * 3;

/// The kernel's processor time on the reference host (an Intel Xeon
/// x86-64 virtual machine with 2 vCPUs, unloaded), in seconds.
pub const REFERENCE_S: f64 = 0.010;
/// Kernel runs on each side of a sample that its scale is the median of.
const NEIGHBOURS: usize = 3;

/// One timed piece of work: the kernel run just before it and its
/// processor time.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    before: usize,
    cpu_s: f64,
}

/// Times work in processor time and scales it to the reference speed.
/// Call [`Meter::calibrate`] between pieces of work; each piece is scaled
/// by the median of the [`NEIGHBOURS`] kernel runs on either side of it.
pub struct Meter {
    table: Vec<u64>,
    kernel_s: Vec<f64>,
}

impl Default for Meter {
    fn default() -> Self {
        Self::new()
    }
}

impl Meter {
    /// A meter with its kernel warmed up and run once.
    pub fn new() -> Meter {
        let mut meter = Meter {
            table: vec![0; SLOTS],
            kernel_s: Vec::new(),
        };
        meter.kernel();
        meter.calibrate();
        meter
    }

    /// Open-addressing inserts and lookups of seeded keys: random accesses
    /// into a table larger than the private caches.
    fn kernel(&mut self) -> u64 {
        self.table.fill(0);
        let mut found = 0u64;
        for n in 0..PROBES {
            let key = bddcf_bdd::splitmix64(n % KEYS) | 1;
            let mut slot = key as usize & (SLOTS - 1);
            loop {
                match self.table[slot] {
                    0 => {
                        self.table[slot] = key;
                        break;
                    }
                    k if k == key => {
                        found += 1;
                        break;
                    }
                    _ => slot = (slot + 1) & (SLOTS - 1),
                }
            }
        }
        found
    }

    /// Runs the kernel once and records its processor time: this
    /// thread's only, as other threads (a daemon's) may still be busy.
    pub fn calibrate(&mut self) {
        let t0 = clock(CLOCK_THREAD_CPUTIME_ID);
        let found = std::hint::black_box(self.kernel());
        self.kernel_s
            .push((clock(CLOCK_THREAD_CPUTIME_ID) - t0).as_secs_f64());
        assert_eq!(found, PROBES - KEYS, "reference kernel miscounted");
    }

    /// Runs `work` and returns its result with its processor time.
    pub fn time<T>(&mut self, work: impl FnOnce() -> T) -> (T, Sample) {
        let before = self.kernel_s.len() - 1;
        let t0 = cpu_time();
        let out = work();
        let cpu_s = (cpu_time() - t0).as_secs_f64();
        (out, Sample { before, cpu_s })
    }

    /// `sample`'s processor seconds at the reference speed.
    pub fn scaled(&self, sample: Sample) -> f64 {
        let from = (sample.before + 1).saturating_sub(NEIGHBOURS);
        let to = (sample.before + 1 + NEIGHBOURS).min(self.kernel_s.len());
        sample.cpu_s * REFERENCE_S / crate::stats::median(&self.kernel_s[from..to])
    }

    /// `sample`'s processor seconds as measured.
    pub fn unscaled(sample: Sample) -> f64 {
        sample.cpu_s
    }

    /// Median processor time of the kernel runs so far, in seconds.
    pub fn kernel_median_s(&self) -> f64 {
        crate::stats::median(&self.kernel_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn processor_time_advances_with_work_not_sleep() {
        let t0 = cpu_time();
        std::thread::sleep(Duration::from_millis(30));
        let slept = cpu_time() - t0;
        assert!(slept < Duration::from_millis(15), "sleep cost {slept:?}");
        let mut meter = Meter::new();
        let (_, sample) = meter.time(|| std::hint::black_box(meter_free_work()));
        meter.calibrate();
        assert!(sample.cpu_s > 0.0);
        assert!(meter.scaled(sample) > 0.0);
    }

    fn meter_free_work() -> u64 {
        (0..2_000_000u64).fold(0, |acc, n| acc ^ bddcf_bdd::splitmix64(n))
    }
}
