//! Plain-text trace serialization.
//!
//! Format: a header line `user,app,start_ms,duration_ms` followed by one
//! session per line. The format is deliberately trivial so that real usage
//! traces (the paper's proprietary datasets, or any modern equivalent) can
//! be converted and dropped into the simulator without code changes.
//!
//! A session's fields are held to its packed layout and the population
//! to [`MAX_USERS`]: `user` is below [`MAX_USERS`] (2^24; the population
//! size, one more than the largest id, is at most [`MAX_USERS`], and so
//! is a `#meta` line's `users`), `app` a `u16`, `start_ms` at most
//! [`Session::MAX_START_MS`] (2^44 − 1, ≈ 557 years) and `duration_ms` at
//! most [`Session::MAX_DURATION_MS`] (2^36 − 1, ≈ 795 days). A line past
//! any of them is a [`CsvError::Parse`] naming the line and the field,
//! never clamped.

use std::io::{BufRead, BufReader, Read, Write};

use adpf_desim::{SimDuration, SimTime};

use crate::model::{AppId, Session, Trace, UserId};
use crate::MAX_USERS;

/// Header line of the trace format.
pub(crate) const HEADER: &str = "user,app,start_ms,duration_ms";

/// Errors produced while reading a trace.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed content at a specific (1-based) line.
    Parse {
        /// Line number of the offending record.
        line: usize,
        /// What was wrong.
        reason: String,
    },
}

impl core::fmt::Display for CsvError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "trace I/O error: {e}"),
            CsvError::Parse { line, reason } => {
                write!(f, "trace parse error at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for CsvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CsvError::Io(e) => Some(e),
            CsvError::Parse { .. } => None,
        }
    }
}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// Writes a trace to `w` in the CSV format.
///
/// A `#meta` comment line carries the population size and horizon, which
/// cannot be reconstructed from the sessions alone (trailing silent users
/// and trailing idle time would be lost).
pub fn write_trace<W: Write>(trace: &Trace, w: &mut W) -> Result<(), CsvError> {
    writeln!(w, "{HEADER}")?;
    writeln!(
        w,
        "#meta,users={},horizon_ms={}",
        trace.num_users(),
        trace.horizon().as_millis()
    )?;
    for s in trace.sessions() {
        writeln!(
            w,
            "{},{},{},{}",
            s.user().0,
            s.app().0,
            s.start().as_millis(),
            s.duration().as_millis()
        )?;
    }
    Ok(())
}

/// What one pass over a trace file learns besides the sessions
/// themselves: the `#meta` declarations and the inferred bounds.
struct ScanMeta {
    meta_users: Option<u32>,
    meta_horizon: Option<u64>,
    max_user: u32,
    saw_session: bool,
}

impl ScanMeta {
    /// Population size: declared, widened to cover every seen user id.
    fn num_users(&self) -> u32 {
        let inferred = if self.saw_session {
            self.max_user + 1
        } else {
            0
        };
        self.meta_users.unwrap_or(inferred).max(inferred)
    }
}

/// One streaming pass over the CSV format, handing each parsed session
/// to `on_session` instead of materializing a vector. The shared core
/// of [`read_trace`] (collect everything), [`trace_dims`] (collect
/// nothing), and [`read_trace_shard`] (collect one user range).
fn scan<R: Read>(r: R, mut on_session: impl FnMut(Session)) -> Result<ScanMeta, CsvError> {
    let reader = BufReader::new(r);
    let mut meta = ScanMeta {
        meta_users: None,
        meta_horizon: None,
        max_user: 0,
        saw_session: false,
    };
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let line_no = idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix("#meta,") {
            for field in rest.split(',') {
                if let Some(v) = field.strip_prefix("users=") {
                    let users = parse_field(v, "users", line_no)?;
                    if users > MAX_USERS {
                        return Err(CsvError::Parse {
                            line: line_no,
                            reason: format!("`users` {users} is past `MAX_USERS`, {MAX_USERS}"),
                        });
                    }
                    meta.meta_users = Some(users);
                } else if let Some(v) = field.strip_prefix("horizon_ms=") {
                    meta.meta_horizon = Some(parse_field(v, "horizon_ms", line_no)?);
                }
            }
            continue;
        }
        if trimmed.starts_with('#') {
            continue; // Other comments are ignored.
        }
        if idx == 0 {
            if trimmed != HEADER {
                return Err(CsvError::Parse {
                    line: line_no,
                    reason: format!("expected header `{HEADER}`, got `{trimmed}`"),
                });
            }
            continue;
        }
        let mut fields = trimmed.split(',');
        let mut next_field = |name: &str| {
            fields.next().ok_or_else(|| CsvError::Parse {
                line: line_no,
                reason: format!("missing field `{name}`"),
            })
        };
        let user: u32 = parse_field(next_field("user")?, "user", line_no)?;
        if user >= MAX_USERS {
            return Err(CsvError::Parse {
                line: line_no,
                reason: format!(
                    "`user` {user} is past the largest id, {} (`MAX_USERS` − 1)",
                    MAX_USERS - 1
                ),
            });
        }
        let app: u16 = parse_field(next_field("app")?, "app", line_no)?;
        let start: u64 = parse_field(next_field("start_ms")?, "start_ms", line_no)?;
        let duration: u64 = parse_field(next_field("duration_ms")?, "duration_ms", line_no)?;
        if fields.next().is_some() {
            return Err(CsvError::Parse {
                line: line_no,
                reason: "too many fields".to_string(),
            });
        }
        let session = Session::new(
            UserId(user),
            AppId(app),
            SimTime::from_millis(start),
            SimDuration::from_millis(duration),
        )
        .map_err(|e| CsvError::Parse {
            line: line_no,
            reason: e.to_string(),
        })?;
        meta.max_user = meta.max_user.max(user);
        meta.saw_session = true;
        on_session(session);
    }
    Ok(meta)
}

/// Reads a trace from `r`.
///
/// When the `#meta` line is absent (hand-authored files), the population
/// size is inferred as `max(user id) + 1` and the horizon as the last
/// session end; both can be widened by rebuilding with [`Trace::new`].
pub fn read_trace<R: Read>(r: R) -> Result<Trace, CsvError> {
    let mut sessions = Vec::new();
    let meta = scan(r, |s| sessions.push(s))?;
    let horizon = SimTime::from_millis(meta.meta_horizon.unwrap_or(0));
    Ok(Trace::new(sessions, meta.num_users(), horizon))
}

/// Scans a trace file for its population size and horizon (in
/// milliseconds) without materializing any session.
///
/// This is the recorded-trace counterpart of knowing a
/// `PopulationConfig`'s `num_users`/`days` up front: it is all the
/// streaming pipeline needs to derive shard ranges before any shard's
/// sessions exist in memory. The horizon matches what
/// [`read_trace`]`(r)?.horizon()` would report — the declared `#meta`
/// horizon widened to cover the last session end.
pub fn trace_dims<R: Read>(r: R) -> Result<(u32, u64), CsvError> {
    let mut last_end_ms = 0u64;
    let meta = scan(r, |s| last_end_ms = last_end_ms.max(s.end().as_millis()))?;
    let horizon_ms = meta.meta_horizon.unwrap_or(0).max(last_end_ms);
    Ok((meta.num_users(), horizon_ms))
}

/// Reads only the users of `range` from a trace file, renumbered to
/// shard-local ids (`user - range.start`) — byte-identical to
/// [`read_trace`]`(r)?.split_users(n)[i]` when `range` is shard `i` of
/// a [`crate::shard_ranges`] split and `horizon_ms` comes from
/// [`trace_dims`].
///
/// Peak memory is O(sessions-in-range), which is what lets the
/// streaming pipeline replay recorded traces far larger than RAM: each
/// worker re-reads the file but keeps only its own shard's sessions.
pub fn read_trace_shard<R: Read>(
    r: R,
    range: core::ops::Range<u32>,
    horizon_ms: u64,
) -> Result<Trace, CsvError> {
    let mut sessions = Vec::new();
    scan(r, |mut s| {
        if range.contains(&s.user().0) {
            s.set_user(UserId(s.user().0 - range.start));
            sessions.push(s);
        }
    })?;
    Ok(Trace::new(
        sessions,
        range.end - range.start,
        SimTime::from_millis(horizon_ms),
    ))
}

fn parse_field<T: std::str::FromStr>(s: &str, name: &str, line: usize) -> Result<T, CsvError> {
    s.trim().parse().map_err(|_| CsvError::Parse {
        line,
        reason: format!("invalid `{name}` value `{s}`"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::PopulationConfig;

    #[test]
    fn round_trip_preserves_trace() {
        let trace = PopulationConfig::small_test(17).generate();
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let back = read_trace(&buf[..]).unwrap();
        assert_eq!(trace, back, "metadata line preserves users and horizon");
    }

    #[test]
    fn shard_round_trip_preserves_each_shard() {
        // A shard is a first-class trace: it serializes and re-parses
        // identically, including its (possibly session-free) population
        // size and the global horizon carried by the #meta line.
        let trace = PopulationConfig::small_test(23).generate();
        for shard in trace.split_users(4) {
            let mut buf = Vec::new();
            write_trace(&shard, &mut buf).unwrap();
            let back = read_trace(&buf[..]).unwrap();
            assert_eq!(shard, back);
        }
    }

    #[test]
    fn files_without_meta_are_inferred() {
        let data = format!("{HEADER}\n3,1,1000,2000\n");
        let t = read_trace(data.as_bytes()).unwrap();
        assert_eq!(t.num_users(), 4);
        assert_eq!(t.horizon().as_millis(), 3000);
    }

    #[test]
    fn rejects_bad_header() {
        let err = read_trace("nope\n1,2,3,4\n".as_bytes()).unwrap_err();
        match err {
            CsvError::Parse { line, .. } => assert_eq!(line, 1),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn rejects_missing_fields() {
        let data = format!("{HEADER}\n1,2,3\n");
        let err = read_trace(data.as_bytes()).unwrap_err();
        match err {
            CsvError::Parse { line, reason } => {
                assert_eq!(line, 2);
                assert!(reason.contains("duration_ms"), "{reason}");
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn rejects_extra_fields_and_garbage() {
        let data = format!("{HEADER}\n1,2,3,4,5\n");
        assert!(read_trace(data.as_bytes()).is_err());
        let data = format!("{HEADER}\nx,2,3,4\n");
        assert!(read_trace(data.as_bytes()).is_err());
    }

    #[test]
    fn skips_blank_lines() {
        let data = format!("{HEADER}\n\n0,1,1000,2000\n\n");
        let t = read_trace(data.as_bytes()).unwrap();
        assert_eq!(t.sessions().len(), 1);
        assert_eq!(t.num_users(), 1);
    }

    #[test]
    fn empty_input_gives_empty_trace() {
        let t = read_trace("".as_bytes()).unwrap();
        assert_eq!(t.sessions().len(), 0);
        assert_eq!(t.num_users(), 0);
    }

    #[test]
    fn trace_dims_matches_full_read() {
        let trace = PopulationConfig::small_test(31).generate();
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let (users, horizon_ms) = trace_dims(&buf[..]).unwrap();
        assert_eq!(users, trace.num_users());
        assert_eq!(horizon_ms, trace.horizon().as_millis());
        // Meta-free files infer both bounds, like read_trace does.
        let data = format!("{HEADER}\n3,1,1000,2000\n");
        let (users, horizon_ms) = trace_dims(data.as_bytes()).unwrap();
        assert_eq!(users, 4);
        assert_eq!(horizon_ms, 3000);
    }

    #[test]
    fn shard_reads_match_split_users() {
        // The streaming-input contract: per-shard file reads must be
        // byte-identical to materializing the whole trace and splitting
        // it, for every shard of the same shard_ranges cut.
        let trace = PopulationConfig::small_test(29).generate();
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let (users, horizon_ms) = trace_dims(&buf[..]).unwrap();
        for n in [1, 3, 7] {
            let split = trace.split_users(n);
            let ranges = crate::shard_ranges(users, n);
            assert_eq!(split.len(), ranges.len());
            for (shard, range) in split.iter().zip(ranges) {
                let streamed = read_trace_shard(&buf[..], range, horizon_ms).unwrap();
                assert_eq!(*shard, streamed);
            }
        }
    }

    #[test]
    fn shard_read_of_empty_range_is_an_empty_population() {
        let data = format!("{HEADER}\n#meta,users=10,horizon_ms=5000\n3,1,1000,2000\n");
        let t = read_trace_shard(data.as_bytes(), 5..8, 5000).unwrap();
        assert_eq!(t.num_users(), 3);
        assert_eq!(t.sessions().len(), 0);
        assert_eq!(t.horizon().as_millis(), 5000);
    }

    #[test]
    fn every_field_is_read_up_to_its_limit() {
        let max_start = Session::MAX_START_MS;
        let max_duration = Session::MAX_DURATION_MS;
        let data = format!(
            "{HEADER}\n#meta,users={MAX_USERS},horizon_ms=0\n{},{},{max_start},0\n0,0,0,{max_duration}\n",
            MAX_USERS - 1,
            u16::MAX
        );
        let t = read_trace(data.as_bytes()).unwrap();
        assert_eq!(t.num_users(), MAX_USERS);
        let last = t.sessions()[1];
        assert_eq!(last.user(), UserId(MAX_USERS - 1));
        assert_eq!(last.app(), AppId(u16::MAX));
        assert_eq!(last.start().as_millis(), max_start);
        assert_eq!(t.sessions()[0].duration().as_millis(), max_duration);
    }

    #[test]
    fn a_field_past_its_limit_is_rejected_naming_line_and_field() {
        for (line, field) in [
            (format!("{MAX_USERS},2,3,4"), "user"),
            ("4000000000,2,3,4".to_string(), "user"),
            (
                format!("#meta,users={},horizon_ms=0", MAX_USERS + 1),
                "users",
            ),
            (format!("1,{},3,4", u32::from(u16::MAX) + 1), "app"),
            (format!("1,2,{},4", Session::MAX_START_MS + 1), "start_ms"),
            (
                format!("1,2,3,{}", Session::MAX_DURATION_MS + 1),
                "duration_ms",
            ),
        ] {
            let data = format!("{HEADER}\n0,0,0,1\n{line}\n");
            match read_trace(data.as_bytes()).unwrap_err() {
                CsvError::Parse { line, reason } => {
                    assert_eq!(line, 3);
                    assert!(reason.contains(field), "{reason}");
                }
                other => panic!("unexpected error {other}"),
            }
            assert!(trace_dims(data.as_bytes()).is_err());
            assert!(read_trace_shard(data.as_bytes(), 0..2, 0).is_err());
        }
    }

    #[test]
    fn write_then_read_round_trips_byte_for_byte() {
        // A generated trace plus sessions at every field's limit.
        let base = PopulationConfig::small_test(19).generate();
        let mut sessions = base.sessions().to_vec();
        sessions.push(
            Session::new(
                UserId(MAX_USERS - 1),
                AppId(u16::MAX),
                SimTime::from_millis(Session::MAX_START_MS),
                SimDuration::from_millis(Session::MAX_DURATION_MS),
            )
            .unwrap(),
        );
        let trace = Trace::new(sessions, MAX_USERS, base.horizon());
        let mut written = Vec::new();
        write_trace(&trace, &mut written).unwrap();
        let back = read_trace(&written[..]).unwrap();
        assert_eq!(back, trace);
        let mut rewritten = Vec::new();
        write_trace(&back, &mut rewritten).unwrap();
        assert_eq!(rewritten, written);
    }

    #[test]
    fn error_display_is_informative() {
        let e = CsvError::Parse {
            line: 3,
            reason: "bad".into(),
        };
        assert!(e.to_string().contains("line 3"));
    }
}
