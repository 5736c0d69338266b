//! A span closed inside a `umsc_rt::par` worker must be in the registry
//! as soon as the parallel call returns.
//!
//! `std::thread::scope` returns once every worker's closure has run, not
//! once its thread has torn down, so a registry that only learns of a
//! worker's spans at thread exit can miss them in a snapshot taken right
//! after the call. The trials repeat because that race is lost only some
//! of the time.
//!
//! This binary stands alone because the obs state is process-global.

const TRIALS: usize = 300;
const WORKERS: usize = 4;

#[test]
fn worker_spans_are_counted_right_after_the_parallel_call() {
    umsc_obs::set_enabled(true);
    let mut data = [0u8; 2 * WORKERS];
    let mut missed = 0;
    for _ in 0..TRIALS {
        umsc_obs::reset();
        // Four chunks of two on four threads: one chunk, one span per worker.
        umsc_rt::par::parallel_chunks_mut_with(WORKERS, &mut data, 2, |_, _| {
            let _span = umsc_obs::span!("test.worker");
        });
        let count = umsc_obs::spans_snapshot()
            .iter()
            .find(|(name, _)| name == "test.worker")
            .map_or(0, |(_, agg)| agg.count);
        if count != WORKERS as u64 {
            missed += 1;
        }
    }
    umsc_obs::set_enabled(false);
    umsc_obs::reset();
    assert_eq!(missed, 0, "{missed} of {TRIALS} snapshots missed a worker's span");
}
