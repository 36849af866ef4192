//! The entry a [`crate::Scheduler`] hands back when an event fires.

/// A fired event. It fires at the scheduler's [`crate::Scheduler::now`]
/// after the pop that returned it.
#[derive(Debug)]
pub struct ScheduledEvent<E> {
    pub(crate) event: E,
}

impl<E> ScheduledEvent<E> {
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
        let e = ScheduledEvent { event: 42u32 };
        assert_eq!(e.into_event(), 42);
    }
}
