//! Summary statistics and the accounting rules every workload shares.
//!
//! Kept free of timing and I/O so the rules themselves are unit-tested:
//! which percentile a sample supports, how an open-loop rung counts
//! failures and goodput, and how generator lateness is charged.

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p < 100) of `samples`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie above it — a p99 needs at
/// least 1000 samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(0.0..100.0).contains(&p) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median of `samples` (mean of the middle pair for even counts); `None`
/// for an empty sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// Median over `windows` of each window's percentile `p`, or `None` when
/// there is no window or any window is too small to support `p`.
///
/// Each window is a stretch of one run taken in time order, so a host
/// stall that covers a few windows moves this figure far less than it
/// moves the percentile of the pooled sample.
pub fn windowed_percentile<'a, I>(windows: I, p: f64) -> Option<f64>
where
    I: IntoIterator<Item = &'a [f64]>,
{
    let per_window: Option<Vec<f64>> = windows.into_iter().map(|w| percentile(w, p)).collect();
    median(&per_window?)
}

/// How one request of an open-loop run ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// Acknowledged `Ok`, answered `latency_ns` after its scheduled slot.
    Acked { latency_ns: u64 },
    /// Refused by admission or expired in the queue (reason code 0..=4).
    Rejected(u8),
    /// Answered with an error status.
    Error,
    /// Never answered before the run gave up waiting.
    Unanswered,
}

/// Outcome counts of one open-loop run. Every refused, failed or
/// unanswered request counts as failed, and as missing the latency limit.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub offered: u64,
    pub acked: u64,
    /// Acked no later than the latency limit after the scheduled slot.
    pub within_limit: u64,
    /// Rejections by reason code (overloaded, deadline, shed scan, shed
    /// read, draining).
    pub rejected: [u64; 5],
    pub errors: u64,
    pub unanswered: u64,
}

impl Tally {
    pub fn count(&mut self, outcome: Outcome, limit_ns: u64) {
        self.offered += 1;
        match outcome {
            Outcome::Acked { latency_ns } => {
                self.acked += 1;
                if latency_ns <= limit_ns {
                    self.within_limit += 1;
                }
            }
            Outcome::Rejected(code) => self.rejected[usize::from(code).min(4)] += 1,
            Outcome::Error => self.errors += 1,
            Outcome::Unanswered => self.unanswered += 1,
        }
    }

    /// Rejected + errors + unanswered.
    pub fn failed(&self) -> u64 {
        self.rejected.iter().sum::<u64>() + self.errors + self.unanswered
    }

    /// Requests acked within the limit, per second of offered schedule.
    pub fn goodput(&self, schedule_s: f64) -> f64 {
        if schedule_s <= 0.0 {
            return 0.0;
        }
        self.within_limit as f64 / schedule_s
    }
}

/// Open-loop timing of one request: when it was due, when the generator
/// actually sent it, and when its answer arrived (all on one clock).
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    pub slot_ns: u64,
    pub sent_ns: u64,
    pub answered_ns: u64,
}

impl Timing {
    /// How late the generator ran for this request.
    pub fn lateness_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.slot_ns)
    }

    /// Latency charged to the system under test: from the scheduled slot,
    /// so a generator stall counts against every request it delayed.
    pub fn latency_ns(&self) -> u64 {
        self.answered_ns.saturating_sub(self.slot_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(percentile(&v[..999], 99.0), None, "only 9 samples above rank 990");
        assert_eq!(percentile(&v[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&v[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (0..2000).map(|i| f64::from((i * 7919) % 2000)).collect();
        let p = percentile(&v, 99.0);
        v.sort_by(f64::total_cmp);
        assert_eq!(p, percentile(&v, 99.0));
        assert_eq!(p, Some(1979.0));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn windowed_percentile_is_the_median_of_window_percentiles() {
        let calm: Vec<f64> = (1..=1000).map(f64::from).collect();
        let stalled: Vec<f64> = (1..=1000).map(|i| f64::from(i) * 10.0).collect();
        let windows = [&calm[..], &calm[..], &stalled[..]];
        assert_eq!(windowed_percentile(windows, 99.0), Some(990.0));
        // Pooled, the one stalled window owns the whole tail.
        let pooled: Vec<f64> = windows.concat();
        assert_eq!(percentile(&pooled, 99.0), Some(9700.0));
        assert_eq!(windowed_percentile([&calm[..], &calm[..999]], 99.0), None);
        assert_eq!(windowed_percentile(Vec::<&[f64]>::new(), 50.0), None);
    }

    #[test]
    fn every_non_ack_is_failed_and_misses_the_limit() {
        let limit = 50_000_000;
        let mut t = Tally::default();
        t.count(Outcome::Acked { latency_ns: 1_000_000 }, limit);
        t.count(Outcome::Acked { latency_ns: 60_000_000 }, limit); // late, not failed
        t.count(Outcome::Rejected(0), limit);
        t.count(Outcome::Rejected(2), limit);
        t.count(Outcome::Rejected(9), limit); // unknown code folds into the last
        t.count(Outcome::Error, limit);
        t.count(Outcome::Unanswered, limit);
        assert_eq!(t.offered, 7);
        assert_eq!(t.acked, 2);
        assert_eq!(t.within_limit, 1);
        assert_eq!(t.rejected, [1, 0, 1, 0, 1]);
        assert_eq!(t.failed(), 5);
        assert_eq!(t.acked + t.failed(), t.offered);
        assert_eq!(t.goodput(0.5), 2.0);
        assert_eq!(t.goodput(0.0), 0.0);
    }

    #[test]
    fn a_generator_stall_is_charged_to_every_delayed_request() {
        // Slots every 1 ms; the generator stalls 5 ms before the second
        // request and then sends the backlog at once. The system answers
        // each 0.5 ms after it was sent.
        let slots = [0u64, 1_000_000, 2_000_000, 3_000_000];
        let sent = [0u64, 6_000_000, 6_000_000, 6_000_000];
        let timings: Vec<Timing> = slots
            .iter()
            .zip(sent)
            .map(|(&slot_ns, sent_ns)| Timing { slot_ns, sent_ns, answered_ns: sent_ns + 500_000 })
            .collect();
        let lateness: Vec<u64> = timings.iter().map(Timing::lateness_ns).collect();
        assert_eq!(lateness, [0, 5_000_000, 4_000_000, 3_000_000]);
        let latency: Vec<u64> = timings.iter().map(Timing::latency_ns).collect();
        assert_eq!(latency, [500_000, 5_500_000, 4_500_000, 3_500_000]);
        // Timed from the actual send instead, the stall would vanish.
        assert!(timings.iter().all(|t| t.answered_ns - t.sent_ns == 500_000));
        // A send ahead of its slot (clock skew) is never negative lateness.
        let early = Timing { slot_ns: 10, sent_ns: 5, answered_ns: 20 };
        assert_eq!(early.lateness_ns(), 0);
    }
}
