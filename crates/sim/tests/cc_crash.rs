//! A CC thread's death stops the engine (fail-stop), under the
//! simulator's scheduler.
//!
//! A dead CC thread grants nothing more, so an execution thread with
//! transactions waiting on it, or publishing into its full inbox, waits
//! forever unless the death is announced: the CC thread's unwind raises
//! `RunCtl::mark_failed` and rings every bell. Each run kills `cc0`
//! mid-run with the log on; the crash corpus's checks then require that
//! shutdown reports `EngineError::WorkerPanicked`, that every completion
//! delivered before the crash is in the replayed log, and that the
//! recovered engine runs a second batch. A watchdog turns a hang into a
//! failure; this file is its own test binary, so a hung run cannot hold
//! the simulator lock other tests wait for.

use std::sync::mpsc;
use std::time::Duration;

use orthrus_sim::{run_crash_sim, CrashSimConfig, CrashSpec};

#[test]
fn a_cc_thread_crash_fails_the_run_and_recovers_in_sim() {
    let (done, outcome) = mpsc::channel();
    std::thread::spawn(move || {
        for seed in 1..=6 {
            let mut cfg = CrashSimConfig::from_seed(seed);
            cfg.plan.crash = Some(CrashSpec {
                victim: "cc0".to_string(),
                at_step: 40 + 20 * seed,
            });
            let out = run_crash_sim(&cfg, false);
            let _ = done.send((seed, out.crashed, out.violations));
        }
    });
    for _ in 1..=6 {
        let (seed, crashed, violations) = outcome
            .recv_timeout(Duration::from_secs(60))
            .expect("the run hangs: an execution thread waits on the dead CC thread");
        assert!(crashed, "seed {seed}: the scheduled crash must fire");
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
    }
}
