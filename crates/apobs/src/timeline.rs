//! A named, ordered collection of timeline events from one source
//! (the emulator, or one MLSim model).

use crate::event::TimelineEvent;

/// All events one source emitted during a run, in emission order until
/// [`Timeline::sort`] is called.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Timeline {
    /// Source label, e.g. `"emulator"`, `"mlsim/ap1000+"`. Becomes the
    /// process name in the Chrome trace.
    pub source: String,
    pub events: Vec<TimelineEvent>,
}

impl Timeline {
    pub fn new(source: impl Into<String>) -> Self {
        Timeline {
            source: source.into(),
            events: Vec::new(),
        }
    }

    pub fn from_events(source: impl Into<String>, events: Vec<TimelineEvent>) -> Self {
        Timeline {
            source: source.into(),
            events,
        }
    }

    /// Appends events from another buffer.
    pub fn extend(&mut self, events: Vec<TimelineEvent>) {
        self.events.extend(events);
    }

    /// Stable sort by `(cell, unit, start)` so every track's timestamps
    /// are monotonic.
    pub fn sort(&mut self) {
        self.events
            .sort_by_key(|e| (e.cell, e.unit, e.start, e.end()));
    }
}
