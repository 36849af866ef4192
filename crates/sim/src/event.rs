//! The entry a [`crate::Scheduler`] hands back when an event fires.

use crate::time::SimTime;

/// A fired event: the payload plus the instant it fires at.
#[derive(Debug)]
pub struct ScheduledEvent<E> {
    pub(crate) time: SimTime,
    pub(crate) event: E,
}

impl<E> ScheduledEvent<E> {
    /// The simulated instant at which the event fires.
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// Consumes the entry and returns the payload.
    pub fn into_event(self) -> E {
        self.event
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let e = ScheduledEvent {
            time: SimTime::from_secs(1),
            event: 42u32,
        };
        assert_eq!(e.time(), SimTime::from_secs(1));
        assert_eq!(e.into_event(), 42);
    }
}
