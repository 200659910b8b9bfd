//! Open-loop pacing: operations are due on a fixed schedule whatever the
//! system does. An operation that cannot be sent on time is sent as soon
//! as the generator is free, is still timed from when it was *due* (so a
//! stall charges every operation queued behind it), and the generator's
//! own lateness is accounted separately.
//!
//! All times are nanoseconds since the start of the window, so the rules
//! are testable without a clock.

/// A fixed-rate schedule: operation `k` is due at `k * interval`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    interval_ns: u64,
}

/// What the generator does when it is free at some instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The next operation is not due yet: sleep this long.
    Wait(u64),
    /// The next operation is due (or overdue by `late_ns`): send it now.
    Send { late_ns: u64 },
}

impl Schedule {
    pub fn per_second(rate: f64) -> Self {
        assert!(rate > 0.0, "an open loop needs a positive rate");
        Schedule {
            interval_ns: (1e9 / rate) as u64,
        }
    }

    pub fn due_ns(&self, k: u64) -> u64 {
        k * self.interval_ns
    }

    pub fn step(&self, k: u64, now_ns: u64) -> Step {
        let due = self.due_ns(k);
        if now_ns < due {
            Step::Wait(due - now_ns)
        } else {
            Step::Send {
                late_ns: now_ns - due,
            }
        }
    }

    /// Latency of operation `k` acknowledged at `ack_ns`, from its due time.
    pub fn latency_ns(&self, k: u64, ack_ns: u64) -> u64 {
        ack_ns.saturating_sub(self.due_ns(k))
    }
}

/// How late the generator ran over one window.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Lateness {
    pub sent: u64,
    /// Operations sent more than [`Lateness::TOLERANCE_NS`] after due.
    pub late: u64,
    pub max_ns: u64,
    pub total_ns: u64,
}

impl Lateness {
    /// Timer slack below which a send counts as on time.
    pub const TOLERANCE_NS: u64 = 1_000_000;

    pub fn record(&mut self, late_ns: u64) {
        self.sent += 1;
        self.total_ns += late_ns;
        self.max_ns = self.max_ns.max(late_ns);
        if late_ns > Self::TOLERANCE_NS {
            self.late += 1;
        }
    }

    pub fn mean_ns(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.sent as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn waits_until_due_then_sends_on_time() {
        let s = Schedule::per_second(5.0);
        assert_eq!(s.due_ns(3), 600 * MS);
        assert_eq!(s.step(0, 0), Step::Send { late_ns: 0 });
        assert_eq!(s.step(1, 150 * MS), Step::Wait(50 * MS));
        assert_eq!(s.step(1, 200 * MS), Step::Send { late_ns: 0 });
    }

    #[test]
    fn a_stall_charges_the_operations_queued_behind_it() {
        let s = Schedule::per_second(5.0);
        let mut lateness = Lateness::default();
        // Operation 0 takes 450 ms; 1 and 2 fell due meanwhile.
        let mut now = 0;
        let mut latencies = Vec::new();
        for (k, service_ms) in [(0u64, 450u64), (1, 10), (2, 10), (3, 10)] {
            loop {
                match s.step(k, now) {
                    Step::Wait(ns) => now += ns,
                    Step::Send { late_ns } => {
                        lateness.record(late_ns);
                        break;
                    }
                }
            }
            now += service_ms * MS;
            latencies.push(s.latency_ns(k, now) / MS);
        }
        // 1 was due at 200 but sent at 450; 2 due at 400, sent at 460;
        // 3 is on time again at 600.
        assert_eq!(latencies, vec![450, 260, 70, 10]);
        assert_eq!(lateness.sent, 4);
        assert_eq!(lateness.late, 2);
        assert_eq!(lateness.max_ns, 250 * MS);
        assert_eq!(lateness.total_ns, (250 + 60) * MS);
    }

    #[test]
    fn timer_slack_is_not_lateness() {
        let mut lateness = Lateness::default();
        lateness.record(Lateness::TOLERANCE_NS);
        lateness.record(Lateness::TOLERANCE_NS + 1);
        assert_eq!(lateness.late, 1);
        assert_eq!(lateness.mean_ns(), Lateness::TOLERANCE_NS as f64 + 0.5);
    }
}
