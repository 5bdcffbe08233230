//! The encoder: [`StreamWriter`], which writes a file section by section
//! against any [`std::io::Write`], and [`encode`], which writes a whole
//! [`EvTrace`] through it.

use super::format::*;
use crate::op::{Op, Trace};
use apobs::{EvName, TimelineEvent};
use std::io::Write;

pub(super) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_svarint(out: &mut Vec<u8>, v: i64) {
    // Zigzag: small magnitudes of either sign stay small.
    put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

pub(super) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// The `O` section's op codec: one tag byte per op, varint fields, bools
/// packed into a single byte.
fn encode_op(out: &mut Vec<u8>, op: &Op) {
    match *op {
        Op::Work { flops } => {
            out.push(0);
            put_varint(out, flops);
        }
        Op::Rts { units } => {
            out.push(1);
            put_varint(out, units);
        }
        Op::Put {
            dst,
            bytes,
            stride,
            ack,
            send_flag,
            recv_flag,
        } => {
            out.push(2);
            put_varint(out, dst.as_u32() as u64);
            put_varint(out, bytes);
            out.push(stride as u8 | (ack as u8) << 1);
            put_varint(out, send_flag);
            put_varint(out, recv_flag);
        }
        Op::Get {
            src,
            bytes,
            stride,
            ack_probe,
            send_flag,
            recv_flag,
        } => {
            out.push(3);
            put_varint(out, src.as_u32() as u64);
            put_varint(out, bytes);
            out.push(stride as u8 | (ack_probe as u8) << 1);
            put_varint(out, send_flag);
            put_varint(out, recv_flag);
        }
        Op::Send { dst, bytes } => {
            out.push(4);
            put_varint(out, dst.as_u32() as u64);
            put_varint(out, bytes);
        }
        Op::Recv { src, bytes } => {
            out.push(5);
            put_varint(out, src.as_u32() as u64);
            put_varint(out, bytes);
        }
        Op::WaitFlag { flag, target } => {
            out.push(6);
            put_varint(out, flag);
            put_varint(out, target as u64);
        }
        Op::Barrier => out.push(7),
        Op::Bcast { root, bytes } => {
            out.push(8);
            put_varint(out, root.as_u32() as u64);
            put_varint(out, bytes);
        }
        Op::RegStore { dst, reg } => {
            out.push(9);
            put_varint(out, dst.as_u32() as u64);
            put_varint(out, reg as u64);
        }
        Op::RegLoad { reg } => {
            out.push(10);
            put_varint(out, reg as u64);
        }
        Op::RemoteStore { dst, bytes } => {
            out.push(11);
            put_varint(out, dst.as_u32() as u64);
            put_varint(out, bytes);
        }
        Op::RemoteLoad { src, bytes } => {
            out.push(12);
            put_varint(out, src.as_u32() as u64);
            put_varint(out, bytes);
        }
        Op::RemoteFence => out.push(13),
        Op::MarkGopScalar => out.push(14),
        Op::MarkGopVector => out.push(15),
    }
}

fn encode_ops(out: &mut Vec<u8>, trace: &Trace) {
    out.push(SEC_OPS);
    put_varint(out, trace.ncells() as u64);
    for (_, pe) in trace.iter() {
        put_varint(out, pe.ops.len() as u64);
        for op in &pe.ops {
            encode_op(out, op);
        }
    }
}

/// Incremental `.evtrace` encoder over any [`std::io::Write`].
///
/// I/O errors are deferred: the hot event path never fails, and the first
/// error is surfaced (with the path) from [`StreamWriter::finish`]. As an
/// [`apobs::EventSink`] it opens a `"live"` events section on the first
/// streamed event and rotates it every [`ROTATE_EVENTS`], which is how
/// machines record without an in-memory timeline.
pub struct StreamWriter<W: Write> {
    w: W,
    path: String,
    buf: Vec<u8>,
    /// Per-section string table: each [`EvName`]'s index in it, `None`
    /// until the section first spells the name. v2 resets it at every
    /// events section so each section decodes in isolation.
    name_idx: [Option<u64>; EvName::ALL.len()],
    /// Names the open section's table holds.
    table_len: u64,
    prev_cell: i64,
    prev_start: i64,
    nevents: u64,
    bytes_written: u64,
    /// Seek index accumulated section by section, written before the
    /// summary and pointed at by the footer.
    index: Vec<EvIndexEntry>,
    /// The open events section's index entry so far; `None` between
    /// sections.
    open: Option<EvIndexEntry>,
    /// The open section's label, which it keeps when it rotates.
    label: String,
    /// Events per section before it rotates: [`ROTATE_EVENTS`], lowered
    /// only by this module's tests to keep their files small.
    rotate_events: u64,
    err: Option<String>,
    finished: bool,
}

impl<W: Write> StreamWriter<W> {
    /// Starts a stream: writes the magic, version, and header.
    pub fn new(w: W, path: &str, header: &EvHeader) -> Self {
        let mut sw = StreamWriter {
            w,
            path: path.to_string(),
            buf: Vec::with_capacity(64 << 10),
            name_idx: [None; EvName::ALL.len()],
            table_len: 0,
            prev_cell: 0,
            prev_start: 0,
            nevents: 0,
            bytes_written: 0,
            index: Vec::new(),
            open: None,
            label: String::new(),
            rotate_events: ROTATE_EVENTS,
            err: None,
            finished: false,
        };
        sw.buf.extend_from_slice(&MAGIC);
        sw.buf.push(VERSION);
        sw.buf.push(SEC_HEADER);
        put_varint(&mut sw.buf, header.ncells as u64);
        put_str(&mut sw.buf, &header.app);
        put_str(&mut sw.buf, &header.scale);
        put_varint(&mut sw.buf, 0); // reserved flags
        sw
    }

    fn flush_buf(&mut self) {
        if self.err.is_some() {
            self.buf.clear();
            return;
        }
        if let Err(e) = self.w.write_all(&self.buf) {
            self.err = Some(e.to_string());
        }
        self.bytes_written += self.buf.len() as u64;
        self.buf.clear();
    }

    /// Opens an events section labelled `label` (closing any open one).
    pub fn begin_events(&mut self, label: &str) {
        self.end_events();
        let offset = self.bytes_written + self.buf.len() as u64;
        self.open = Some(EvIndexEntry {
            offset,
            ..EvIndexEntry::default()
        });
        self.buf.push(SEC_EVENTS);
        put_str(&mut self.buf, label);
        self.name_idx = [None; EvName::ALL.len()];
        self.table_len = 0;
        self.prev_cell = 0;
        self.prev_start = 0;
        self.label.clear();
        self.label.push_str(label);
    }

    /// Closes the open events section, if any, recording its seek-index
    /// entry.
    pub fn end_events(&mut self) {
        if let Some(entry) = self.open.take() {
            self.buf.push(EVENTS_DONE);
            self.index.push(entry);
        }
    }

    /// Encodes one event into the open events section (opening a `"live"`
    /// section if none is open).
    pub fn push_event(&mut self, ev: &TimelineEvent) {
        if self.open.is_none() {
            self.begin_events("live");
        }
        let flags = ev.unit.index() as u8
            | (ev.bucket.index() as u8) << 3
            | if ev.dur.is_some() { 0x40 } else { 0 }
            | if ev.tid != 0 { 0x80 } else { 0 };
        self.buf.push(flags);
        match &mut self.name_idx[ev.name as usize] {
            Some(idx) => put_varint(&mut self.buf, *idx),
            slot @ None => {
                *slot = Some(self.table_len);
                put_varint(&mut self.buf, self.table_len);
                put_str(&mut self.buf, ev.name.as_str());
                self.table_len += 1;
            }
        }
        put_svarint(&mut self.buf, ev.cell as i64 - self.prev_cell);
        self.prev_cell = ev.cell as i64;
        let start = ev.start.as_nanos() as i64;
        put_svarint(&mut self.buf, start - self.prev_start);
        self.prev_start = start;
        if let Some(d) = ev.dur {
            put_varint(&mut self.buf, d.as_nanos());
        }
        put_varint(&mut self.buf, ev.arg);
        if ev.tid != 0 {
            put_varint(&mut self.buf, ev.tid);
        }
        self.nevents += 1;
        let open = self.open.as_mut().expect("an events section is open");
        open.count(start as u64);
        if open.events >= self.rotate_events {
            // Bound per-section decode work for seeking readers.
            let label = std::mem::take(&mut self.label);
            self.end_events();
            self.begin_events(&label);
        }
        if self.buf.len() >= 48 << 10 {
            self.flush_buf();
        }
    }

    /// Writes a whole labelled events section.
    pub fn write_events(&mut self, label: &str, events: &[TimelineEvent]) {
        self.begin_events(label);
        for ev in events {
            self.push_event(ev);
        }
        self.end_events();
    }

    /// Appends the binary-encoded probe trace.
    pub fn append_ops(&mut self, trace: &Trace) {
        self.end_events();
        encode_ops(&mut self.buf, trace);
        self.flush_buf();
    }

    /// Appends delta-encoded sampled counter series.
    pub fn append_counters(&mut self, ticks: &CounterTicks) {
        self.end_events();
        self.buf.push(SEC_COUNTERS);
        put_varint(&mut self.buf, ticks.interval_ns);
        put_varint(&mut self.buf, ticks.series.len() as u64);
        for (name, vals) in &ticks.series {
            put_str(&mut self.buf, name);
            put_varint(&mut self.buf, vals.len() as u64);
            let mut prev = 0i64;
            for &v in vals {
                put_svarint(&mut self.buf, v as i64 - prev);
                prev = v as i64;
            }
        }
        self.flush_buf();
    }

    /// Appends the injected fault schedule as RON text.
    pub fn append_fault_ron(&mut self, ron: &str) {
        self.end_events();
        self.buf.push(SEC_FAULT);
        put_str(&mut self.buf, ron);
        self.flush_buf();
    }

    /// Events encoded so far.
    pub fn events_written(&self) -> u64 {
        self.nevents
    }

    /// Writes the seek index, summary, end marker, and footer, then
    /// flushes. Surfaces the first deferred I/O error; idempotent once
    /// successful.
    pub fn finish(&mut self, total_ns: u64) -> Result<(), EvError> {
        if self.finished {
            return Ok(());
        }
        self.end_events();
        let index_off = self.bytes_written + self.buf.len() as u64;
        self.buf.push(SEC_INDEX);
        put_varint(&mut self.buf, self.index.len() as u64);
        for e in &self.index {
            put_varint(&mut self.buf, e.offset);
            put_varint(&mut self.buf, e.events);
            put_varint(&mut self.buf, e.first_ns);
            put_varint(&mut self.buf, e.last_ns);
        }
        self.buf.push(SEC_SUMMARY);
        put_varint(&mut self.buf, total_ns);
        put_varint(&mut self.buf, self.nevents);
        self.buf.push(SEC_END);
        self.buf.extend_from_slice(&index_off.to_le_bytes());
        self.buf.extend_from_slice(&TRAILER_MAGIC);
        self.flush_buf();
        if self.err.is_none() {
            if let Err(e) = self.w.flush() {
                self.err = Some(e.to_string());
            }
        }
        match self.err.take() {
            Some(detail) => Err(EvError::Io {
                path: self.path.clone(),
                detail,
            }),
            None => {
                self.finished = true;
                Ok(())
            }
        }
    }
}

impl<W: Write + Send> apobs::EventSink for StreamWriter<W> {
    fn event(&mut self, ev: &TimelineEvent) {
        self.push_event(ev);
    }

    fn finish(&mut self) -> Result<(), String> {
        // Sink-level finish only drains buffers; the owning recorder
        // calls [`StreamWriter::finish`] with the final time to write the
        // trailer.
        self.end_events();
        self.flush_buf();
        match &self.err {
            Some(e) => Err(format!("i/o error on {}: {e}", self.path)),
            None => Ok(()),
        }
    }
}

/// Encodes a complete document in one call (tests, small traces).
pub fn encode(doc: &EvTrace) -> Vec<u8> {
    let mut out = Vec::new();
    let mut w = StreamWriter::new(&mut out, "<mem>", &doc.header);
    for s in &doc.streams {
        w.write_events(&s.label, &s.events);
    }
    if let Some(ops) = &doc.ops {
        w.append_ops(ops);
    }
    if let Some(c) = &doc.counters {
        w.append_counters(c);
    }
    if let Some(f) = &doc.fault_ron {
        w.append_fault_ron(f);
    }
    w.finish(doc.summary.total_ns)
        .expect("in-memory encode cannot fail");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evtrace::fixtures::{ev, read_index, sample};
    use apobs::{EvName, Unit};

    #[test]
    fn streaming_sink_mode_auto_opens_live_section() {
        let mut out = Vec::new();
        let mut w = StreamWriter::new(&mut out, "<mem>", &EvHeader::new(4, "", ""));
        {
            use apobs::EventSink;
            w.event(&ev(2, Unit::Queue, EvName::Enqueue, 10, None));
            w.event(&ev(2, Unit::Queue, EvName::Enqueue, 25, None));
            EventSink::finish(&mut w).unwrap();
        }
        w.finish(25).unwrap();
        let doc = EvTrace::decode(&out).unwrap();
        assert_eq!(doc.streams.len(), 1);
        assert_eq!(doc.streams[0].label, "live");
        assert_eq!(doc.streams[0].events.len(), 2);
        assert_eq!(doc.summary.events, 2);
    }

    #[test]
    fn string_table_resets_per_section_for_seekability() {
        let mut doc = sample();
        doc.streams.push(EvStream {
            label: "tnet".to_string(),
            events: vec![ev(3, Unit::Net, EvName::Hop, 999, None)].into(),
        });
        doc.summary.events = 4;
        let bytes = encode(&doc);
        let back = EvTrace::decode(&bytes).unwrap();
        assert_eq!(back, doc);
        // v2 stores "hop" once per section that uses it, so each section
        // decodes standalone (the price of O(1) seeking).
        let text_hops = bytes.windows(3).filter(|w| w == b"hop").count();
        assert_eq!(text_hops, 2);
    }

    #[test]
    fn long_live_sections_rotate_for_seekability() {
        let mut out = Vec::new();
        let mut w = StreamWriter::new(&mut out, "<mem>", &EvHeader::new(4, "", ""));
        let n = ROTATE_EVENTS + 5;
        for i in 0..n {
            w.push_event(&ev(0, Unit::Cpu, EvName::Work, i, None));
        }
        w.finish(n).unwrap();
        let index = read_index(&out).unwrap();
        assert_eq!(index.len(), 2, "section rotated at the event cap");
        assert_eq!(index[0].events, ROTATE_EVENTS);
        assert_eq!(index[1].events, 5);
        assert!(index[0].last_ns < index[1].first_ns);
        let doc = EvTrace::decode(&out).unwrap();
        assert_eq!(doc.summary.events, n);
        assert_eq!(doc.streams.len(), 2);
        assert_eq!(doc.streams[0].label, "live");
        assert_eq!(doc.streams[1].label, "live");
        // A seek into the first window decodes only that section.
        let seeked = EvTrace::decode_at(&out, 100).unwrap();
        assert_eq!(seeked.streams.len(), 1);

        // ROADMAP 7b at the rotation boundary: every single-bit flip (and
        // the whole-byte flip) of the 16 bytes either side of it — the
        // tail events and end marker of section 0, then section 1's tag,
        // label and first event — on a writer rotating every `cap` events
        // (the real cap makes each decode ~1M events). Neither reader
        // panics, and each returns an `EvError` or the clean section
        // split: the same sections, event counts and timestamps (which
        // the index cross-checks). Event payloads and labels carry no
        // redundancy, so a flip there may decode as a different, well-
        // formed event or label; the sweep counts those. A name is not
        // free payload: the 28 flips of section 1's spelled "work" that
        // stay valid UTF-8 name no `EvName` and are errors. A seek that
        // skips section 1 never reads its bytes.
        let cap = 1 << 10;
        let t0 = ROTATE_EVENTS - cap; // section 1 starts at ROTATE_EVENTS ns
        let mut good = Vec::new();
        let mut w = StreamWriter::new(&mut good, "<mem>", &EvHeader::new(4, "", ""));
        w.rotate_events = cap;
        for i in 0..cap + 5 {
            w.push_event(&ev(0, Unit::Cpu, EvName::Work, t0 + i, None));
        }
        w.finish(t0 + cap + 5).unwrap();
        let doc = EvTrace::decode(&good).unwrap();
        let index = read_index(&good).unwrap();
        assert_eq!(index.len(), 2);
        let split = |d: &EvTrace| -> Vec<Vec<u64>> {
            let starts = |s: &EvStream| s.events.iter().map(|e| e.start.as_nanos()).collect();
            d.streams.iter().map(starts).collect()
        };
        let boundary = index[1].offset as usize;
        assert_eq!(good[boundary - 1], EVENTS_DONE);
        assert_eq!(good[boundary], SEC_EVENTS);
        let (mut errors, mut payload) = (0, 0);
        for pos in boundary - 16..boundary + 16 {
            for mask in (0..8).map(|bit| 1u8 << bit).chain([0xFF]) {
                let mut bad = good.clone();
                bad[pos] ^= mask;
                let what = format!("byte {pos} ^ {mask:#04x}");
                let full = EvTrace::decode(&bad);
                let seek = EvTrace::decode_at(&bad, u64::MAX);
                match (&full, &seek) {
                    (Err(_), Err(_)) => errors += 1,
                    (Ok(f), Ok(s)) => {
                        assert_eq!(split(f), split(&doc), "{what}");
                        assert_eq!(f.streams, s.streams, "{what}: the readers disagree");
                        if f != &doc {
                            payload += 1;
                        }
                    }
                    _ => panic!("{what}: only one reader noticed ({full:?} vs {seek:?})"),
                }
                let early = EvTrace::decode_at(&bad, t0);
                if pos >= boundary {
                    assert_eq!(early.unwrap().streams, doc.streams[..1], "{what}");
                } else if let Ok(early) = early {
                    assert_eq!(split(&early), split(&doc)[..1], "{what}");
                }
            }
        }
        assert_eq!((errors, payload), (199, 89));
    }
}
