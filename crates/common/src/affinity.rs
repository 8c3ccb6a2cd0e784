//! Best-effort thread-to-core pinning, inside the CPUs the thread may use.
//!
//! The paper pins one long-lived thread per physical core (Section 3.1).
//! A *core index* here is a position in the calling thread's allowed CPU
//! set (`sched_getaffinity`), not a CPU number: index `i` is the
//! `(i mod n)`-th allowed CPU, `n` the set's size ([`CpuSet::cpu`]). So a
//! process started under `taskset`, or in a cpuset, keeps its threads on
//! the CPUs it was given. Which core each engine thread takes is
//! [`Placement`]'s. On Linux pinning uses `sched_setaffinity`; anywhere
//! it fails (containers without the capability, non-Linux hosts) it
//! silently degrades to a no-op — the engines are correct either way,
//! pinning only reduces measurement noise.

/// The CPUs a thread may run on, in ascending order.
#[derive(Debug)]
pub struct CpuSet {
    cpus: Vec<usize>,
}

/// Words of the affinity mask passed to the kernel: 1024 CPU bits,
/// matching glibc's `cpu_set_t`.
#[cfg(target_os = "linux")]
const MASK_WORDS: usize = 16;

impl CpuSet {
    /// The calling thread's allowed CPUs as they are now. A thread
    /// inherits its spawner's set, so a set read before spawning
    /// describes every thread spawned from here until one of them pins
    /// itself. Empty where the set cannot be read.
    #[cfg(target_os = "linux")]
    pub fn of_this_thread() -> CpuSet {
        extern "C" {
            fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        }
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: the mask outlives the call and is exactly `cpusetsize`
        // bytes; pid 0 targets the calling thread.
        let ok =
            unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) == 0 };
        if !ok {
            return CpuSet { cpus: Vec::new() };
        }
        let cpus = (0..MASK_WORDS * 64)
            .filter(|&cpu| mask[cpu / 64] & (1u64 << (cpu % 64)) != 0)
            .collect();
        CpuSet { cpus }
    }

    /// Non-Linux fallback: the set is unknown.
    #[cfg(not(target_os = "linux"))]
    pub fn of_this_thread() -> CpuSet {
        CpuSet { cpus: Vec::new() }
    }

    /// How many CPUs the set holds.
    pub fn len(&self) -> usize {
        self.cpus.len()
    }

    /// Whether the set is unknown (or empty).
    pub fn is_empty(&self) -> bool {
        self.cpus.is_empty()
    }

    /// The CPU that core index `core` names: the `(core mod n)`-th of the
    /// set's `n` CPUs; `None` for an empty set.
    pub fn cpu(&self, core: usize) -> Option<usize> {
        (!self.cpus.is_empty()).then(|| self.cpus[core % self.cpus.len()])
    }
}

/// Number of CPUs the calling thread may run on.
pub fn available_cores() -> usize {
    match CpuSet::of_this_thread().len() {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
}

/// Pin the calling thread to core index `core` of its allowed set
/// ([`CpuSet::cpu`]). Returns whether the pin took effect.
pub fn pin_to_core(core: usize) -> bool {
    CpuSet::of_this_thread().cpu(core).is_some_and(pin_to_cpu)
}

/// Pin the calling thread to CPU number `cpu`. Returns whether the pin
/// took effect.
///
/// `sched_setaffinity` is declared directly (no `libc` crate — the build
/// environment is offline).
#[cfg(target_os = "linux")]
pub fn pin_to_cpu(cpu: usize) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; MASK_WORDS];
    if cpu >= mask.len() * 64 {
        return false;
    }
    mask[cpu / 64] = 1u64 << (cpu % 64);
    // SAFETY: the mask outlives the call and is exactly `cpusetsize`
    // bytes; pid 0 targets the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Non-Linux fallback: no-op.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_cpu(_cpu: usize) -> bool {
    false
}

/// Which core indices one engine of a deployment pins its long-lived
/// threads to. A deployment is `partitions` engines (1 for a plain
/// engine) of `n_cc` CC and `n_exec` execution threads each, over `n`
/// usable cores; this engine is number `partition`:
///
/// - CC thread `c` takes core `(partition·n_cc + c) mod n`;
/// - execution thread `e` takes core
///   `(partitions·n_cc + partition·n_exec + e) mod n`.
///
/// Every partition's CC threads come before any execution thread, so no
/// two execution threads share a core while `n ≥ partitions·n_exec`, and
/// no two threads at all while `n ≥ partitions·(n_cc + n_exec)`. A plain
/// engine (partition 0 of 1) takes `c` and `n_cc + e`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// This engine's partition number, below `partitions`.
    pub partition: usize,
    /// How many engines the deployment runs.
    pub partitions: usize,
}

impl Placement {
    /// A plain engine: the whole deployment.
    pub const ALONE: Placement = Placement {
        partition: 0,
        partitions: 1,
    };

    /// Core index of CC thread `c`, of `n` usable cores.
    pub fn cc_core(self, n_cc: usize, c: usize, n: usize) -> usize {
        (self.partition * n_cc + c) % n.max(1)
    }

    /// Core index of execution thread `e`, of `n` usable cores.
    pub fn exec_core(self, n_cc: usize, n_exec: usize, e: usize, n: usize) -> usize {
        (self.partitions * n_cc + self.partition * n_exec + e) % n.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn available_cores_is_positive() {
        assert!(available_cores() >= 1);
    }

    #[test]
    fn pin_does_not_panic_and_wraps() {
        // Pin a fresh thread to a core index far beyond the machine: it
        // must wrap into the allowed set, not fail.
        std::thread::spawn(|| {
            let allowed = CpuSet::of_this_thread();
            let pinned = pin_to_core(10_000);
            if pinned {
                assert_eq!(CpuSet::of_this_thread().cpu(0), allowed.cpu(10_000));
            }
        })
        .join()
        .unwrap();
    }

    #[test]
    fn a_core_index_wraps_inside_the_allowed_set() {
        let set = |cpus: Vec<usize>| CpuSet { cpus };
        let sparse = set(vec![3, 5, 9]);
        let cpus: Vec<_> = (0..7).map(|i| sparse.cpu(i).unwrap()).collect();
        assert_eq!(cpus, [3, 5, 9, 3, 5, 9, 3]);
        // A set of one: every index is its one CPU.
        let last = set(vec![1]);
        assert!((0..4).all(|i| last.cpu(i) == Some(1)));
        // The whole host, numbered from 0: index i is CPU i mod n.
        let host = set((0..4).collect());
        assert!((0..9).all(|i| host.cpu(i) == Some(i % 4)));
        // Unknown: nothing to pin to.
        assert_eq!(set(Vec::new()).cpu(0), None);
    }

    #[test]
    fn this_threads_set_is_read_on_linux() {
        let set = CpuSet::of_this_thread();
        if cfg!(target_os = "linux") {
            assert!(!set.is_empty());
            assert!((0..set.len()).all(|i| set.cpu(i).is_some()));
        }
    }

    /// Every thread of a `parts`-partition deployment of `cc` + `exec`
    /// threads each over `n` cores: CC core indices, then execution ones.
    fn deployment(parts: usize, cc: usize, exec: usize, n: usize) -> (Vec<usize>, Vec<usize>) {
        let members = (0..parts).map(|partition| Placement {
            partition,
            partitions: parts,
        });
        let ccs = members
            .clone()
            .flat_map(|p| (0..cc).map(move |c| p.cc_core(cc, c, n)))
            .collect();
        let execs = members
            .flat_map(|p| (0..exec).map(move |e| p.exec_core(cc, exec, e, n)))
            .collect();
        (ccs, execs)
    }

    fn distinct(cores: &[usize]) -> bool {
        let mut sorted = cores.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        sorted.len() == cores.len()
    }

    #[test]
    fn placement_spreads_a_deployment_over_the_cores() {
        for parts in [1, 2, 4] {
            for cc in [1, 2, 4] {
                for exec in [1, 2, 4] {
                    for n in [1, 2, 16, 80] {
                        let (ccs, execs) = deployment(parts, cc, exec, n);
                        let shape = format!("{parts} × ({cc} CC + {exec} exec) over {n}");
                        assert!(ccs.iter().chain(&execs).all(|&core| core < n), "{shape}");
                        if parts == 1 {
                            // The standalone formula, before any partition
                            // shared a host.
                            let old_cc: Vec<_> = (0..cc).map(|c| c % n).collect();
                            let old_exec: Vec<_> = (0..exec).map(|e| (cc + e) % n).collect();
                            assert_eq!((&ccs, &execs), (&old_cc, &old_exec), "{shape}");
                        }
                        if n >= parts * (cc + exec) {
                            let all: Vec<_> = ccs.iter().chain(&execs).copied().collect();
                            assert!(distinct(&all), "{shape}: {ccs:?} {execs:?}");
                        }
                        if n >= parts * exec {
                            assert!(distinct(&execs), "{shape}: {execs:?}");
                        }
                    }
                }
            }
        }
    }
}
