//! The newline-delimited serve wire protocol.
//!
//! A serve stream is plain text, one record per line:
//!
//! ```text
//! #serve,users=300,horizon_ms=604800000
//! slot,102414,17,3
//! slot,102414,252,9
//! slot,105000,17,3
//! shutdown
//! ```
//!
//! - The **header** (`#serve,users=N,horizon_ms=H`) must be the first
//!   non-blank, non-comment line: the server sizes its shards and client
//!   tables from it, exactly like the batch pipeline sizes them from a
//!   [`Trace`]'s population and horizon. It builds every client up front,
//!   so a header is a rejected line, not a header, when `users` is past
//!   [`MAX_USERS`] or its clients at [`CLIENT_BYTES`] each would pass
//!   `CLIENT_MEMORY_BUDGET`, or when `horizon_ms` is past
//!   `PopulationConfig::MAX_DAYS`, the longest horizon a trace holds.
//! - Each **event** line (`slot,<time_ms>,<user>,<app>`) is one ad slot:
//!   client `user` renders a slot of app `app` at `time_ms`. Events must
//!   be non-decreasing in time and at most `horizon_ms` — the contract
//!   the batch slot stream satisfies by construction.
//! - An optional **`shutdown`** line asks the server to finalize and
//!   report; end of input does the same (so file/stdin replay needs no
//!   sentinel, while a long-lived socket can end a session explicitly
//!   without closing its write side).
//! - Blank lines and other `#` comments are ignored.
//!
//! The parser is **panic-free and forgiving by design**: a malformed or
//! out-of-order line is *rejected* — reported with its 1-based line
//! number and counted under `serve.ingest_errors` — and the stream keeps
//! going. Only a missing header is unrecoverable, because nothing can be
//! sized without it.
//!
//! Input reaches the parser through a [`Framer`], which cuts whatever
//! byte chunks the transport delivers into lines without copying them:
//! a line that is not valid UTF-8, or longer than `MAX_LINE_BYTES`, is
//! one more rejected line, wherever the chunk boundaries fall.

use std::io::Write;

use adpf_desim::time::MILLIS_PER_DAY;
use adpf_desim::SimDuration;
use adpf_traces::{PopulationConfig, Trace, MAX_USERS};

/// Leading tag of the mandatory stream header.
pub(crate) const HEADER_PREFIX: &str = "#serve,";
/// Tag of an ad-slot event line.
pub(crate) const EVENT_TAG: &str = "slot";
/// Sentinel line requesting a graceful finalize-and-report.
pub(crate) const SHUTDOWN: &str = "shutdown";
/// Longest line (bytes before the `\n`) the ingest path accepts, more
/// than 20× the longest legal record. It bounds the [`Framer`]'s carry
/// buffer: a longer run is rejected once and skipped, never buffered.
pub(crate) const MAX_LINE_BYTES: usize = 1024;

/// Ceiling on what a serve session holds per client above its input,
/// in bytes: `tests/serve_heap.rs` holds its two-day population under
/// it, and a header is admitted only when its clients fit
/// `CLIENT_MEMORY_BUDGET` at this size each.
pub const CLIENT_BYTES: u64 = 6_000;

/// The memory a session may plan to hold for its clients, 4 GiB: at
/// [`CLIENT_BYTES`] each, room for 715,827 clients.
pub(crate) const CLIENT_MEMORY_BUDGET: u64 = 4 << 30;

/// The longest horizon a header may declare, in milliseconds: that of
/// the longest trace, `PopulationConfig::MAX_DAYS`.
const MAX_HORIZON_MS: u64 = PopulationConfig::MAX_DAYS as u64 * MILLIS_PER_DAY;

/// The stream header: the population bounds the server sizes itself
/// from, mirroring what the batch pipeline reads off a [`Trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamHeader {
    /// Population size; event `user` fields must be `< users`.
    pub users: u32,
    /// Trace horizon in milliseconds; determines the report's `days`
    /// and when the engines stop rescheduling periodic work.
    pub horizon_ms: u64,
}

/// One parsed ad-slot event, still in wire units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotEvent {
    /// Slot render time in milliseconds since stream start.
    pub time_ms: u64,
    /// Global (stream-wide) client id.
    pub user: u32,
    /// App whose session produced the slot.
    pub app: u16,
}

/// A rejected ingest line: where and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestError {
    /// 1-based line number of the offending record.
    pub line: usize,
    /// What was wrong with it.
    pub reason: String,
}

impl core::fmt::Display for IngestError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "ingest error at line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for IngestError {}

/// What one input line meant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parsed {
    /// The stream header (emitted at most once per stream).
    Header(StreamHeader),
    /// A well-formed, in-order ad-slot event.
    Event(SlotEvent),
    /// The graceful-shutdown sentinel.
    Shutdown,
    /// A blank line or comment; nothing to do.
    Skip,
    /// A malformed, out-of-range, or out-of-order line. The stream
    /// continues; the caller counts and (sparsely) reports these.
    Rejected(IngestError),
}

/// Stateful line parser for one serve stream.
///
/// Tracks the line number (for error reports), whether the header has
/// been seen (events before it are rejected, duplicates are rejected),
/// and the time watermark that enforces the non-decreasing-time
/// contract the engines rely on.
#[derive(Debug, Default)]
pub struct Parser {
    line: usize,
    header: Option<StreamHeader>,
    watermark_ms: u64,
}

impl Parser {
    /// A fresh parser at line 0, before the header.
    pub fn new() -> Self {
        Self::default()
    }

    fn reject(&self, reason: String) -> Parsed {
        Parsed::Rejected(IngestError {
            line: self.line,
            reason,
        })
    }

    /// Counts and rejects a line that never became text.
    fn reject_unread(&mut self, reason: &str) -> Parsed {
        self.line += 1;
        self.reject(reason.into())
    }

    /// [`feed`](Self::feed) for a line still in wire bytes, its `\n`
    /// already cut (`feed` trims a `\r`).
    fn feed_bytes(&mut self, raw: &[u8]) -> Parsed {
        if raw.len() > MAX_LINE_BYTES {
            return self.reject_unread("line too long");
        }
        match std::str::from_utf8(raw) {
            Ok(line) => self.feed(line),
            Err(_) => self.reject_unread("invalid UTF-8"),
        }
    }

    /// Classifies the next input line. Never panics: any content at all
    /// — truncated records, garbage bytes, duplicate headers, events
    /// that travel backwards in time — comes back as
    /// [`Parsed::Rejected`] with the line number.
    pub fn feed(&mut self, raw: &str) -> Parsed {
        self.line += 1;
        let t = raw.trim();
        if t.is_empty() {
            return Parsed::Skip;
        }
        if let Some(rest) = t.strip_prefix(HEADER_PREFIX) {
            return self.feed_header(rest);
        }
        if t.starts_with('#') {
            return Parsed::Skip;
        }
        if t == SHUTDOWN {
            return Parsed::Shutdown;
        }
        let Some(header) = self.header else {
            return self.reject(format!("event before `{HEADER_PREFIX}` header"));
        };
        let Some(rest) = t.strip_prefix(EVENT_TAG).and_then(|r| r.strip_prefix(',')) else {
            return self.reject(format!("unknown record `{}`", truncate(t)));
        };
        let mut fields = rest.split(',');
        let time_ms: u64 = match parse_field(fields.next(), "time_ms") {
            Ok(v) => v,
            Err(reason) => return self.reject(reason),
        };
        let user: u32 = match parse_field(fields.next(), "user") {
            Ok(v) => v,
            Err(reason) => return self.reject(reason),
        };
        let app: u16 = match parse_field(fields.next(), "app") {
            Ok(v) => v,
            Err(reason) => return self.reject(reason),
        };
        if fields.next().is_some() {
            return self.reject("too many fields".into());
        }
        if user >= header.users {
            return self.reject(format!(
                "user {user} out of range (population {})",
                header.users
            ));
        }
        if time_ms > header.horizon_ms {
            return self.reject(format!(
                "event at t={time_ms}ms past the horizon, {}ms",
                header.horizon_ms
            ));
        }
        if time_ms < self.watermark_ms {
            return self.reject(format!(
                "out-of-order event: t={time_ms}ms after watermark {}ms",
                self.watermark_ms
            ));
        }
        self.watermark_ms = time_ms;
        Parsed::Event(SlotEvent { time_ms, user, app })
    }

    fn feed_header(&mut self, rest: &str) -> Parsed {
        if self.header.is_some() {
            return self.reject("duplicate `#serve` header".into());
        }
        let mut users: Option<u32> = None;
        let mut horizon_ms: Option<u64> = None;
        for field in rest.split(',') {
            if let Some(v) = field.strip_prefix("users=") {
                match v.trim().parse() {
                    Ok(n) if n <= MAX_USERS => users = Some(n),
                    Ok(n) => {
                        return self.reject(format!("`users` {n} is past `MAX_USERS`, {MAX_USERS}"))
                    }
                    Err(_) => return self.reject(format!("invalid `users` value `{v}`")),
                }
            } else if let Some(v) = field.strip_prefix("horizon_ms=") {
                match v.trim().parse() {
                    Ok(n) if n <= MAX_HORIZON_MS => horizon_ms = Some(n),
                    Ok(n) => {
                        return self.reject(format!(
                            "`horizon_ms` {n} is past `MAX_DAYS`, {} days",
                            PopulationConfig::MAX_DAYS
                        ))
                    }
                    Err(_) => return self.reject(format!("invalid `horizon_ms` value `{v}`")),
                }
            }
            // Unknown header fields are ignored for forward compatibility.
        }
        match (users, horizon_ms) {
            (Some(users), Some(_)) if u64::from(users) * CLIENT_BYTES > CLIENT_MEMORY_BUDGET => {
                self.reject(format!(
                    "`users` {users} at {CLIENT_BYTES} B each is past the \
                     {CLIENT_MEMORY_BUDGET} B client memory budget"
                ))
            }
            (Some(users), Some(horizon_ms)) => {
                let h = StreamHeader { users, horizon_ms };
                self.header = Some(h);
                Parsed::Header(h)
            }
            _ => self.reject("header must carry both `users=` and `horizon_ms=`".into()),
        }
    }
}

/// Cuts the byte chunks a transport delivers into lines and classifies
/// each with a [`Parser`], without copying a line that lies within one
/// chunk.
///
/// Only the unterminated tail of a chunk is copied, into a carry buffer
/// that never exceeds `MAX_LINE_BYTES`: a longer run is rejected where
/// it crosses the limit and discarded up to its `\n`. What a stream
/// parses to is therefore a function of its bytes alone — the same lines,
/// line numbers and rejections whether it arrives whole or a byte at a
/// time.
#[derive(Debug, Default)]
pub struct Framer {
    parser: Parser,
    carry: Vec<u8>,
    /// Inside a line already rejected as too long: drop bytes up to and
    /// including the next `\n`.
    skipping: bool,
}

impl Framer {
    /// A framer at the start of a stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Classifies the next complete line of `chunk[*pos..]` and moves
    /// `*pos` past it. `None` once no complete line is left: the rest of
    /// the chunk has been carried over and `*pos == chunk.len()`.
    pub fn next_record(&mut self, chunk: &[u8], pos: &mut usize) -> Option<Parsed> {
        loop {
            let rest = &chunk[*pos..];
            let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
                *pos = chunk.len();
                if self.skipping {
                    return None;
                }
                if self.carry.len() + rest.len() > MAX_LINE_BYTES {
                    self.carry.clear();
                    self.skipping = true;
                    return Some(self.parser.reject_unread("line too long"));
                }
                self.carry.extend_from_slice(rest);
                return None;
            };
            *pos += nl + 1;
            let line = &rest[..nl];
            if self.skipping {
                self.skipping = false;
            } else if self.carry.is_empty() {
                return Some(self.parser.feed_bytes(line));
            } else if self.carry.len() + line.len() > MAX_LINE_BYTES {
                self.carry.clear();
                return Some(self.parser.reject_unread("line too long"));
            } else {
                self.carry.extend_from_slice(line);
                return Some(self.feed_carry());
            }
        }
    }

    /// End of input: the final line if it came without a `\n`, exactly
    /// as `BufRead::lines` yields it.
    pub fn finish(&mut self) -> Option<Parsed> {
        if std::mem::take(&mut self.skipping) || self.carry.is_empty() {
            return None;
        }
        Some(self.feed_carry())
    }

    fn feed_carry(&mut self) -> Parsed {
        let parsed = self.parser.feed_bytes(&self.carry);
        self.carry.clear();
        parsed
    }
}

fn parse_field<T: std::str::FromStr>(field: Option<&str>, name: &str) -> Result<T, String> {
    let s = field.ok_or_else(|| format!("missing field `{name}`"))?;
    s.trim()
        .parse()
        .map_err(|_| format!("invalid `{name}` value `{s}`"))
}

/// Caps a rejected line's echo so one long garbage line cannot flood an
/// error report.
fn truncate(s: &str) -> String {
    const MAX: usize = 40;
    if s.len() <= MAX {
        s.to_string()
    } else {
        let mut end = MAX;
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}…", &s[..end])
    }
}

/// Writes `trace` as a serve stream: the header, then every ad slot the
/// batch simulator would derive from it (same `refresh` cadence, same
/// `(time, user)` order).
///
/// This is the bridge that makes the equivalence claim testable: replay
/// `write_events(trace, cfg.ad_refresh, …)` into a server running the
/// same config and the final report is bit-identical to
/// `Simulator::run_trace(cfg, trace, _).0`.
pub fn write_events<W: Write>(
    trace: &Trace,
    refresh: SimDuration,
    w: &mut W,
) -> std::io::Result<()> {
    write_header(w, trace.num_users(), trace.horizon().as_millis())?;
    for s in trace.slots(refresh) {
        writeln!(
            w,
            "{EVENT_TAG},{},{},{}",
            s.time.as_millis(),
            s.user.0,
            s.app.0
        )?;
    }
    Ok(())
}

/// [`write_events`] throttled to `events_per_sec` (wall clock): the
/// sub-saturation load generator. An unpaced pipe saturates the server's
/// ingest, which measures peak throughput but keeps every decision queue
/// hot; pacing below capacity is what lets SLA-style latency columns
/// measure scheduling rather than backlog. The writer is flushed before
/// every sleep so the receiver observes the pace, not buffered bursts.
///
/// The emitted bytes are identical to [`write_events`] — pacing changes
/// only the wall-clock shape of the stream, never its content, so a
/// paced replay reproduces the same report hash.
///
/// # Panics
///
/// Panics if `events_per_sec` is not positive and finite.
pub fn write_events_paced<W: Write>(
    trace: &Trace,
    refresh: SimDuration,
    events_per_sec: f64,
    w: &mut W,
) -> std::io::Result<()> {
    assert!(
        events_per_sec.is_finite() && events_per_sec > 0.0,
        "pace must be positive, got {events_per_sec}"
    );
    write_header(w, trace.num_users(), trace.horizon().as_millis())?;
    let t0 = std::time::Instant::now();
    for (i, s) in trace.slots(refresh).enumerate() {
        let due = std::time::Duration::from_secs_f64(i as f64 / events_per_sec);
        let elapsed = t0.elapsed();
        if due > elapsed {
            w.flush()?;
            std::thread::sleep(due - elapsed);
        }
        writeln!(
            w,
            "{EVENT_TAG},{},{},{}",
            s.time.as_millis(),
            s.user.0,
            s.app.0
        )?;
    }
    Ok(())
}

/// Writes just the stream header line.
pub(crate) fn write_header<W: Write>(
    w: &mut W,
    users: u32,
    horizon_ms: u64,
) -> std::io::Result<()> {
    writeln!(w, "{HEADER_PREFIX}users={users},horizon_ms={horizon_ms}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use adpf_traces::PopulationConfig;

    fn fed(lines: &[&str]) -> (Parser, Vec<Parsed>) {
        let mut p = Parser::new();
        let out = lines.iter().map(|l| p.feed(l)).collect();
        (p, out)
    }

    #[test]
    fn header_then_events_parse() {
        let (p, out) = fed(&[
            "#serve,users=10,horizon_ms=1000",
            "slot,5,3,1",
            "slot,5,4,2",
            "slot,9,0,0",
            "shutdown",
        ]);
        assert_eq!(
            out[0],
            Parsed::Header(StreamHeader {
                users: 10,
                horizon_ms: 1000
            })
        );
        assert!(matches!(
            out[1],
            Parsed::Event(SlotEvent {
                time_ms: 5,
                user: 3,
                app: 1
            })
        ));
        assert!(matches!(
            out[3],
            Parsed::Event(SlotEvent { time_ms: 9, .. })
        ));
        assert_eq!(out[4], Parsed::Shutdown);
        assert_eq!(p.header.unwrap().users, 10);
    }

    #[test]
    fn blank_lines_and_comments_skip() {
        let (_, out) = fed(&["", "  ", "# a comment", "#another"]);
        assert!(out.iter().all(|p| *p == Parsed::Skip));
    }

    /// The fuzz-style hardening gate: every class of malformed input is
    /// rejected with the right line number, and nothing panics.
    #[test]
    fn malformed_lines_reject_with_line_numbers() {
        let mut p = Parser::new();
        assert!(matches!(
            p.feed("#serve,users=3,horizon_ms=100"),
            Parsed::Header(_)
        ));
        let bad = [
            "slot,5,3",                      // truncated: missing app
            "slot,5",                        // truncated: missing user
            "slot",                          // bare tag
            "slot,5,3,1,9",                  // too many fields
            "slot,x,3,1",                    // garbage time
            "slot,5,-1,1",                   // garbage user
            "slot,5,3,bananas",              // garbage app
            "sync,5,3,1",                    // unknown record
            "\u{1}\u{2}\u{3}",               // binary noise
            "slot,5,99,1",                   // user out of range
            "#serve,users=3,horizon_ms=100", // duplicate header
        ];
        for (i, line) in bad.iter().enumerate() {
            match p.feed(line) {
                Parsed::Rejected(e) => assert_eq!(e.line, i + 2, "line number for {line:?}"),
                other => panic!("{line:?} should be rejected, got {other:?}"),
            }
        }
        // The stream is still usable after every rejection.
        assert!(matches!(p.feed("slot,7,2,1"), Parsed::Event(_)));
    }

    #[test]
    fn out_of_order_events_reject_but_duplicates_of_time_pass() {
        let mut p = Parser::new();
        p.feed("#serve,users=5,horizon_ms=100");
        assert!(matches!(p.feed("slot,10,1,1"), Parsed::Event(_)));
        // Equal times are legal (the batch stream has ties too).
        assert!(matches!(p.feed("slot,10,2,1"), Parsed::Event(_)));
        match p.feed("slot,9,1,1") {
            Parsed::Rejected(e) => assert!(e.reason.contains("out-of-order"), "{e}"),
            other => panic!("expected rejection, got {other:?}"),
        }
        // Watermark survives the rejection: time keeps flowing forward.
        assert!(matches!(p.feed("slot,11,1,1"), Parsed::Event(_)));
    }

    #[test]
    fn events_past_the_horizon_reject() {
        let mut p = Parser::new();
        p.feed("#serve,users=5,horizon_ms=100");
        // A zero-length session ending at the horizon has its slot there.
        assert!(matches!(p.feed("slot,100,1,1"), Parsed::Event(_)));
        match p.feed("slot,10000000000000000,1,1") {
            Parsed::Rejected(e) => assert!(e.reason.contains("past the horizon"), "{e}"),
            other => panic!("expected rejection, got {other:?}"),
        }
        // The rejected line moved no watermark.
        assert!(matches!(p.feed("slot,100,2,1"), Parsed::Event(_)));
    }

    #[test]
    fn events_before_header_reject_and_missing_meta_rejects() {
        let mut p = Parser::new();
        match p.feed("slot,5,1,1") {
            Parsed::Rejected(e) => assert!(e.reason.contains("before"), "{e}"),
            other => panic!("expected rejection, got {other:?}"),
        }
        assert!(matches!(p.feed("#serve,users=3"), Parsed::Rejected(_)));
        for users in [MAX_USERS + 1, 4_000_000_000] {
            match p.feed(&format!("#serve,users={users},horizon_ms=1")) {
                Parsed::Rejected(e) => assert!(e.reason.contains("MAX_USERS"), "{e}"),
                other => panic!("expected rejection, got {other:?}"),
            }
        }
        assert!(matches!(
            p.feed("#serve,users=a,horizon_ms=1"),
            Parsed::Rejected(_)
        ));
        // Inside `MAX_USERS` but past the memory budget: 2^24 clients
        // would need ≈ 100 GB. The largest population inside it passes.
        let fits = CLIENT_MEMORY_BUDGET / CLIENT_BYTES;
        for users in [u64::from(MAX_USERS), fits + 1] {
            match p.feed(&format!("#serve,users={users},horizon_ms=1")) {
                Parsed::Rejected(e) => assert!(e.reason.contains("memory budget"), "{e}"),
                other => panic!("expected rejection, got {other:?}"),
            }
        }
        // A horizon past the longest trace's.
        match p.feed(&format!("#serve,users=3,horizon_ms={}", MAX_HORIZON_MS + 1)) {
            Parsed::Rejected(e) => assert!(e.reason.contains("MAX_DAYS"), "{e}"),
            other => panic!("expected rejection, got {other:?}"),
        }
        assert!(matches!(
            Parser::new().feed(&format!("#serve,users={fits},horizon_ms={MAX_HORIZON_MS}")),
            Parsed::Header(_)
        ));
        // A later complete header still works.
        assert!(matches!(
            p.feed("#serve,users=3,horizon_ms=1"),
            Parsed::Header(_)
        ));
    }

    #[test]
    fn write_events_round_trips_through_the_parser() {
        let trace = PopulationConfig::small_test(5).generate();
        let refresh = SimDuration::from_secs(30);
        let mut buf = Vec::new();
        write_events(&trace, refresh, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut p = Parser::new();
        let mut events = 0usize;
        for line in text.lines() {
            match p.feed(line) {
                Parsed::Header(h) => {
                    assert_eq!(h.users, trace.num_users());
                    assert_eq!(h.horizon_ms, trace.horizon().as_millis());
                }
                Parsed::Event(_) => events += 1,
                Parsed::Rejected(e) => panic!("generated stream rejected: {e}"),
                Parsed::Skip | Parsed::Shutdown => {}
            }
        }
        assert_eq!(events, trace.ad_slots(refresh).len());
    }

    #[test]
    fn paced_writer_emits_identical_bytes() {
        // Pacing shapes wall-clock emission only; a rate high enough to
        // never sleep must still produce the exact unpaced stream.
        let trace = PopulationConfig::small_test(5).generate();
        let refresh = SimDuration::from_secs(30);
        let mut plain = Vec::new();
        write_events(&trace, refresh, &mut plain).unwrap();
        let mut paced = Vec::new();
        write_events_paced(&trace, refresh, 1e9, &mut paced).unwrap();
        assert_eq!(plain, paced);
    }

    /// Everything `stream` parses to when delivered in the given pieces.
    fn framed(pieces: &[&[u8]]) -> Vec<Parsed> {
        let mut f = Framer::new();
        let mut out = Vec::new();
        for piece in pieces {
            let mut pos = 0;
            while let Some(p) = f.next_record(piece, &mut pos) {
                out.push(p);
            }
            assert_eq!(pos, piece.len(), "an exhausted chunk is fully consumed");
        }
        out.extend(f.finish());
        out
    }

    #[test]
    fn framing_is_the_same_wherever_one_cut_falls() {
        // CRLF and LF endings, a blank line, a comment, a line that is
        // not UTF-8, a rejected record, and a final line without `\n`.
        let stream: &[u8] = b"#serve,users=9,horizon_ms=100\r\nslot,5,3,1\n\n# note\r\n\
            slot,6,\xff\xfe,1\nslot,7,4,2\r\nbogus\nslot,8,1,1";
        let whole = framed(&[stream]);
        assert_eq!(whole.len(), 8);
        assert!(matches!(whole[0], Parsed::Header(_)));
        assert!(matches!(whole[1], Parsed::Event(_)));
        assert_eq!(whole[2], Parsed::Skip);
        assert_eq!(whole[3], Parsed::Skip);
        match &whole[4] {
            Parsed::Rejected(e) => assert_eq!((e.line, e.reason.as_str()), (5, "invalid UTF-8")),
            other => panic!("expected rejection, got {other:?}"),
        }
        assert!(matches!(
            whole[5],
            Parsed::Event(SlotEvent { time_ms: 7, .. })
        ));
        assert!(matches!(&whole[6], Parsed::Rejected(e) if e.line == 7));
        assert!(
            matches!(whole[7], Parsed::Event(SlotEvent { time_ms: 8, .. })),
            "the final unterminated line is served"
        );
        for cut in 0..=stream.len() {
            let (a, b) = stream.split_at(cut);
            assert_eq!(framed(&[a, b]), whole, "cut at byte {cut}");
        }
        let bytes: Vec<&[u8]> = stream.chunks(1).collect();
        assert_eq!(framed(&bytes), whole, "byte by byte");
    }

    #[test]
    fn a_line_is_too_long_by_its_bytes_not_by_its_chunking() {
        let header = "#serve,users=3,horizon_ms=100\n";
        for (len, too_long) in [(MAX_LINE_BYTES, false), (MAX_LINE_BYTES + 1, true)] {
            // A comment, so that a line within the limit is skipped,
            // not rejected for its content.
            let stream = format!("{header}#{}\nslot,7,2,1\n", "x".repeat(len - 1)).into_bytes();
            let whole = framed(&[&stream]);
            match (&whole[1], too_long) {
                (Parsed::Skip, false) => {}
                (Parsed::Rejected(e), true) => {
                    assert_eq!((e.line, e.reason.as_str()), (2, "line too long"))
                }
                (other, _) => panic!("{len}-byte line parsed to {other:?}"),
            }
            assert!(
                matches!(whole[2], Parsed::Event(_)),
                "the next line is served"
            );
            assert_eq!(whole.len(), 3);
            for size in [1, 7, 1000, 1024, 1025] {
                let pieces: Vec<&[u8]> = stream.chunks(size).collect();
                assert_eq!(
                    framed(&pieces),
                    whole,
                    "{len}-byte line in {size}-byte chunks"
                );
            }
        }
    }

    #[test]
    fn a_newline_free_flood_costs_one_rejection_and_constant_memory() {
        let mut f = Framer::new();
        let mut pos = 0;
        assert!(matches!(
            f.next_record(b"#serve,users=3,horizon_ms=100\n", &mut pos),
            Some(Parsed::Header(_))
        ));
        let garbage = vec![b'x'; 4096];
        let mut rejected = 0;
        for _ in 0..2560 {
            // 10 MiB in all.
            let mut pos = 0;
            while let Some(p) = f.next_record(&garbage, &mut pos) {
                assert!(matches!(p, Parsed::Rejected(e) if e.line == 2));
                rejected += 1;
            }
            assert!(f.carry.capacity() <= 2 * MAX_LINE_BYTES);
        }
        assert_eq!(rejected, 1);
        let mut pos = 0;
        let tail = b"xx\nslot,7,2,1\n";
        assert!(matches!(
            f.next_record(tail, &mut pos),
            Some(Parsed::Event(SlotEvent { time_ms: 7, .. }))
        ));
        assert_eq!(f.next_record(tail, &mut pos), None);
        // A flood that runs into the end of input was rejected already.
        let mut pos = 0;
        assert!(matches!(
            f.next_record(&garbage, &mut pos),
            Some(Parsed::Rejected(e)) if e.line == 4
        ));
        assert_eq!(f.finish(), None);
    }

    #[test]
    fn long_garbage_lines_are_truncated_in_errors() {
        let mut p = Parser::new();
        p.feed("#serve,users=3,horizon_ms=100");
        let long = "x".repeat(500);
        match p.feed(&long) {
            Parsed::Rejected(e) => assert!(e.reason.len() < 100, "{}", e.reason),
            other => panic!("expected rejection, got {other:?}"),
        }
    }
}
