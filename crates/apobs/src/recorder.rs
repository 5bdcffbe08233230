//! The event recorder: zero-overhead when disabled.
//!
//! A disabled [`Recorder`] is a single discriminant test per call site
//! with no allocation and no buffer; the event arguments are never
//! materialized because the inline check happens before any formatting or
//! pushing.
//!
//! Where a recorder's events go is one value, a [`TimelineMode`]:
//!
//! * **off** — everything is dropped (the default);
//! * **full** — every event is buffered, unbounded;
//! * **ring** — a flight recorder: a fixed-capacity ring per hardware-unit
//!   category keeping only the last N events of each. Memory is bounded no
//!   matter how long the run, which is what makes post-mortem event
//!   context affordable on 10k-cell machines where the unbounded timeline
//!   is not. The categories are the [`Unit`]s, so a storm of CPU events
//!   cannot evict the last few DMA or network events that usually explain
//!   a deadlock;
//! * **stream** — every event is forwarded to a shared [`EventSink`]
//!   (typically a binary `.evtrace` file writer) the moment it is
//!   recorded, so even a >1024-cell machine can record a full event stream
//!   without ever holding the timeline in memory. Several recorders (the
//!   kernel's and the T-net's) can share one sink through the
//!   `Arc<Mutex<..>>`; events arrive in emission (engine) order, which
//!   is deterministic — recordings keep it, and replay compares in it.

use crate::event::{Bucket, EvName, TimelineEvent, Unit};
use aputil::SimTime;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::{Arc, Mutex};

/// A destination for streamed [`TimelineEvent`]s.
///
/// Implementors buffer or encode each event as it arrives; I/O errors are
/// remembered internally and surfaced once from [`EventSink::finish`] so
/// the recording hot path stays infallible.
pub trait EventSink: Send {
    /// Accepts one event, in emission order.
    fn event(&mut self, ev: &TimelineEvent);
    /// Flushes buffered state. Returns the first deferred error, if any.
    fn finish(&mut self) -> Result<(), String>;
}

/// A shareable, lockable [`EventSink`] handle.
pub type SharedSink = Arc<Mutex<dyn EventSink>>;

/// Where a machine's timeline events go — the one input to every
/// [`Recorder`] of that machine.
#[derive(Clone, Default)]
pub enum TimelineMode {
    /// Record nothing.
    #[default]
    Off,
    /// Buffer every event (O(events) memory).
    Full,
    /// Flight recorder: keep the last N events per [`Unit`] category.
    Ring(NonZeroUsize),
    /// Forward every event to the sink as it happens (O(1) memory).
    Stream(SharedSink),
}

impl std::fmt::Debug for TimelineMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimelineMode::Off => f.write_str("Off"),
            TimelineMode::Full => f.write_str("Full"),
            TimelineMode::Ring(cap) => write!(f, "Ring({cap})"),
            TimelineMode::Stream(_) => f.write_str("Stream(..)"),
        }
    }
}

/// Collects [`TimelineEvent`]s as its [`TimelineMode`] says; a no-op sink
/// when off.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    mode: TimelineMode,
    /// The [`TimelineMode::Full`] buffer.
    events: Vec<TimelineEvent>,
    /// The [`TimelineMode::Ring`] buffers, one per [`Unit`].
    rings: Vec<VecDeque<TimelineEvent>>,
}

impl Recorder {
    /// A recorder in `mode`; [`Recorder::default`] is off.
    pub fn new(mode: TimelineMode) -> Self {
        let rings = match &mode {
            TimelineMode::Ring(cap) => vec![VecDeque::with_capacity(cap.get()); Unit::ALL.len()],
            _ => Vec::new(),
        };
        Recorder {
            mode,
            events: Vec::new(),
            rings,
        }
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        !matches!(self.mode, TimelineMode::Off)
    }

    #[inline]
    fn push(&mut self, ev: TimelineEvent) {
        match &self.mode {
            TimelineMode::Off => {}
            TimelineMode::Full => self.events.push(ev),
            TimelineMode::Ring(cap) => {
                let ring = &mut self.rings[ev.unit.index() as usize];
                if ring.len() == cap.get() {
                    ring.pop_front();
                }
                ring.push_back(ev);
            }
            TimelineMode::Stream(sink) => sink.lock().expect("event sink poisoned").event(&ev),
        }
    }

    /// Records a duration slice with no chain affiliation.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &mut self,
        cell: u32,
        unit: Unit,
        name: EvName,
        start: SimTime,
        dur: SimTime,
        bucket: Bucket,
        arg: u64,
    ) {
        self.span_id(cell, unit, name, start, dur, bucket, arg, 0);
    }

    /// Records a duration slice tagged with a transfer-chain id.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn span_id(
        &mut self,
        cell: u32,
        unit: Unit,
        name: EvName,
        start: SimTime,
        dur: SimTime,
        bucket: Bucket,
        arg: u64,
        tid: u64,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.push(TimelineEvent {
            cell,
            unit,
            name,
            start,
            dur: Some(dur),
            bucket,
            arg,
            tid,
        });
    }

    /// Records an instant event with no chain affiliation.
    #[inline]
    pub fn instant(
        &mut self,
        cell: u32,
        unit: Unit,
        name: EvName,
        at: SimTime,
        bucket: Bucket,
        arg: u64,
    ) {
        self.instant_id(cell, unit, name, at, bucket, arg, 0);
    }

    /// Records an instant event tagged with a transfer-chain id.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn instant_id(
        &mut self,
        cell: u32,
        unit: Unit,
        name: EvName,
        at: SimTime,
        bucket: Bucket,
        arg: u64,
        tid: u64,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.push(TimelineEvent {
            cell,
            unit,
            name,
            start: at,
            dur: None,
            bucket,
            arg,
            tid,
        });
    }

    /// Takes the buffered events, leaving the recorder empty but keeping
    /// its mode. In ring mode the surviving events come
    /// back in [`Unit`] category order (sort by time downstream if
    /// needed — [`crate::Timeline::sort`] does).
    pub fn take_events(&mut self) -> Vec<TimelineEvent> {
        let mut out = std::mem::take(&mut self.events);
        for ring in &mut self.rings {
            out.extend(ring.drain(..));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(cap: usize) -> Recorder {
        Recorder::new(TimelineMode::Ring(NonZeroUsize::new(cap).unwrap()))
    }

    #[test]
    fn disabled_recorder_stores_nothing() {
        let mut r = Recorder::new(TimelineMode::Off);
        r.span(
            0,
            Unit::Cpu,
            EvName::Work,
            SimTime::ZERO,
            SimTime::from_nanos(5),
            Bucket::Exec,
            1,
        );
        r.instant(0, Unit::Net, EvName::Hop, SimTime::ZERO, Bucket::Hw, 1);
        assert!(r.take_events().is_empty() && !r.is_enabled());
        assert!(!Recorder::default().is_enabled());
    }

    #[test]
    fn enabled_recorder_keeps_order() {
        let mut r = Recorder::new(TimelineMode::Full);
        r.span(
            0,
            Unit::Cpu,
            EvName::Work,
            SimTime::from_nanos(10),
            SimTime::from_nanos(5),
            Bucket::Exec,
            0,
        );
        r.instant(
            1,
            Unit::Queue,
            EvName::Enqueue,
            SimTime::from_nanos(12),
            Bucket::Hw,
            3,
        );
        let evs = r.take_events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].name, EvName::Work);
        assert_eq!(evs[0].end(), SimTime::from_nanos(15));
        assert_eq!(evs[1].dur, None);
        assert!(r.take_events().is_empty());
        assert!(r.is_enabled());
    }

    #[test]
    fn ring_keeps_last_n_per_category() {
        let mut r = ring(3);
        assert!(r.is_enabled());
        // 10 CPU instants and 2 Net instants: the CPU storm must not
        // evict the network events.
        for i in 0..10u64 {
            r.instant(
                0,
                Unit::Cpu,
                EvName::Work,
                SimTime::from_nanos(i),
                Bucket::Exec,
                i,
            );
        }
        for i in 0..2u64 {
            r.instant(
                0,
                Unit::Net,
                EvName::Hop,
                SimTime::from_nanos(i),
                Bucket::Hw,
                i,
            );
        }
        let evs = r.take_events();
        assert_eq!(evs.len(), 5);
        let cpu: Vec<u64> = evs
            .iter()
            .filter(|e| e.unit == Unit::Cpu)
            .map(|e| e.arg)
            .collect();
        assert_eq!(cpu, [7, 8, 9], "only the last 3 CPU events survive");
        assert_eq!(evs.iter().filter(|e| e.unit == Unit::Net).count(), 2);
        assert!(r.take_events().is_empty());
        // Taking events keeps the mode: the ring still evicts.
        for i in 0..5u64 {
            r.instant(
                0,
                Unit::Cpu,
                EvName::Work,
                SimTime::from_nanos(i),
                Bucket::Exec,
                i,
            );
        }
        assert_eq!(r.take_events().len(), 3);
    }

    /// A sink that counts events — the minimal streaming round-trip.
    struct CountSink {
        n: usize,
        last: Option<TimelineEvent>,
    }

    impl EventSink for CountSink {
        fn event(&mut self, ev: &TimelineEvent) {
            self.n += 1;
            self.last = Some(*ev);
        }
        fn finish(&mut self) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn streaming_recorder_forwards_and_buffers_nothing() {
        let sink = Arc::new(Mutex::new(CountSink { n: 0, last: None }));
        let mode = TimelineMode::Stream(sink.clone());
        let mut r = Recorder::new(mode.clone());
        assert!(r.is_enabled());
        // Two recorders can share the sink (kernel + T-net pattern).
        let mut r2 = Recorder::new(mode);
        r.span(
            0,
            Unit::Cpu,
            EvName::Work,
            SimTime::from_nanos(10),
            SimTime::from_nanos(5),
            Bucket::Exec,
            7,
        );
        r2.instant(
            3,
            Unit::Net,
            EvName::Hop,
            SimTime::from_nanos(12),
            Bucket::Hw,
            1,
        );
        assert!(
            r.take_events().is_empty() && r2.take_events().is_empty(),
            "streamed events are not buffered"
        );
        let s = sink.lock().unwrap();
        assert_eq!(s.n, 2);
        assert_eq!(s.last.as_ref().unwrap().cell, 3);
    }
}
