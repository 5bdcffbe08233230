//! Shared by `replay.rs` and `determinism.rs`.

use aptrace::evtrace::{encode, EvStream};
use aptrace::EvTrace;

/// The sorted on-disk form buffered recordings had before engine order
/// became the only one: a stable sort of the recording's events by the
/// timeline key `(cell, unit, start, end)`, re-encoded as one
/// `"emulator"` stream. The digests pinned on that form are asserted on
/// this, so the change of order provably moved no event.
pub fn sorted_reencode(recording: &[u8]) -> Vec<u8> {
    let mut doc = EvTrace::decode(recording).expect("recording decodes");
    let mut events: Vec<_> = doc.streams.drain(..).flat_map(|s| s.events).collect();
    events.sort_by_key(|e| (e.cell, e.unit, e.start, e.end()));
    let label = "emulator".to_string();
    doc.streams.push(EvStream { label, events });
    encode(&doc)
}
