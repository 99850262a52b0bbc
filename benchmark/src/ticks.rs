//! The open-loop tick scheduler of the paced phase.
//!
//! Tick `k` is due at `start + k * period`, whatever happened before it: a
//! stall in the system under test (or in the generator) never moves a later
//! due time, so the wait it imposes on later items is counted in their
//! latency instead of being absorbed by the schedule. How late each tick
//! actually fired is recorded and reported.

use std::time::{Duration, Instant};

/// Time as the scheduler sees it. The real clock sleeps; tests substitute a
/// fake one to force stalls.
pub trait Clock {
    /// Nanoseconds since the clock's epoch.
    fn now_ns(&mut self) -> u64;
    /// Blocks (no spinning) until `deadline_ns`; returns at once if it has
    /// already passed.
    fn sleep_until_ns(&mut self, deadline_ns: u64);
}

/// The wall clock, in nanoseconds since `epoch`.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A wall clock counting from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        WallClock { epoch }
    }
}

impl Clock for WallClock {
    fn now_ns(&mut self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn sleep_until_ns(&mut self, deadline_ns: u64) {
        let now = self.now_ns();
        if deadline_ns > now {
            std::thread::sleep(Duration::from_nanos(deadline_ns - now));
        }
    }
}

/// A fixed-period schedule of `n_ticks` ticks starting at `start_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickSchedule {
    /// When tick 0 is due.
    pub start_ns: u64,
    /// The tick period.
    pub period_ns: u64,
    /// Number of ticks.
    pub n_ticks: u64,
}

impl TickSchedule {
    /// When tick `k` is due — a function of `k` alone.
    pub fn due_ns(&self, k: u64) -> u64 {
        self.start_ns + k * self.period_ns
    }

    /// When the schedule's last tick interval ends.
    pub fn end_ns(&self) -> u64 {
        self.due_ns(self.n_ticks)
    }
}

/// The index range of the items due in tick `k` at `rate_per_s` items per
/// second with a 1 ms period, offset by `first`: rates that do not divide
/// 1000 spread their remainder evenly instead of drifting.
pub fn items_of_tick(k: u64, rate_per_s: u64, first: usize) -> std::ops::Range<usize> {
    let lo = (k * rate_per_s / 1000) as usize;
    let hi = ((k + 1) * rate_per_s / 1000) as usize;
    first + lo..first + hi
}

/// Runs the schedule: sleeps until each tick is due, calls `on_tick(k,
/// due_ns)`, and returns how late (ns) each tick fired. A tick whose due time
/// has already passed fires immediately — catching up, never rescheduling.
pub fn run_ticks<C: Clock>(
    clock: &mut C,
    schedule: TickSchedule,
    mut on_tick: impl FnMut(u64, u64),
) -> Vec<u64> {
    let mut lateness = Vec::with_capacity(schedule.n_ticks as usize);
    for k in 0..schedule.n_ticks {
        let due = schedule.due_ns(k);
        clock.sleep_until_ns(due);
        lateness.push(clock.now_ns().saturating_sub(due));
        on_tick(k, due);
    }
    lateness
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    /// A clock that only moves when slept on or when the test advances it.
    struct FakeClock {
        now: Rc<Cell<u64>>,
    }

    impl Clock for FakeClock {
        fn now_ns(&mut self) -> u64 {
            self.now.get()
        }
        fn sleep_until_ns(&mut self, deadline_ns: u64) {
            self.now.set(self.now.get().max(deadline_ns));
        }
    }

    #[test]
    fn due_times_do_not_depend_on_when_the_previous_tick_finished() {
        let now = Rc::new(Cell::new(0));
        let mut clock = FakeClock {
            now: Rc::clone(&now),
        };
        let schedule = TickSchedule {
            start_ns: 1_000,
            period_ns: 1_000_000,
            n_ticks: 6,
        };
        let mut dues = Vec::new();
        let lateness = run_ticks(&mut clock, schedule, |k, due| {
            dues.push(due);
            // Tick 1's work stalls for 3.5 periods.
            if k == 1 {
                now.set(now.get() + 3_500_000);
            }
        });
        let want: Vec<u64> = (0..6).map(|k| 1_000 + k * 1_000_000).collect();
        assert_eq!(dues, want, "a stall must not move later due times");
        // Ticks 2..=4 were already overdue when the stall ended and fire
        // back to back; their lateness is recorded, not absorbed.
        assert_eq!(
            lateness,
            vec![0, 0, 2_500_000, 1_500_000, 500_000, 0],
            "lateness is what the stall cost each later tick"
        );
        assert_eq!(schedule.end_ns(), 1_000 + 6_000_000);
    }

    #[test]
    fn items_of_tick_cover_the_stream_once_at_any_rate() {
        for rate in [10_000u64, 30_000, 120_000, 2_500, 999] {
            let mut next = 7usize;
            for k in 0..2_000 {
                let r = items_of_tick(k, rate, 7);
                assert_eq!(r.start, next, "rate {rate}, tick {k}");
                next = r.end;
            }
            assert_eq!(next - 7, (2 * rate) as usize, "two seconds at {rate}/s");
        }
        assert_eq!(items_of_tick(0, 120_000, 0), 0..120);
    }
}
