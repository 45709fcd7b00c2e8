//! Trace exporters: Chrome trace-event JSON (Perfetto-loadable) and
//! JSONL. Both are assembled by hand — see [`crate::json`] — because the
//! workspace takes no serialization dependencies.
//!
//! Every record is appended straight to the one output buffer: a static
//! per-kind prefix (name, layer, pid), numbers through the crate's
//! decimal writer and the payload through the kind's own writer, so no
//! record allocates. The buffer is reserved from the event
//! count and trimmed to its length before it is returned, because callers
//! keep exports of several megabytes; DESIGN.md §5b has the measurements
//! behind that choice.

use crate::event::{Event, Layer};
use crate::json::push_u64;
use crate::timeline::{self, Phase};

const TIMELINE_PID: u64 = 6;

/// Bytes reserved per event and per timeline span; a typical record is
/// shorter, and a longer stream grows the buffer before it is trimmed.
const EVENT_BYTES: usize = 128;
const SPAN_BYTES: usize = 96;

/// Appends the process-name metadata record that labels track `pid`.
fn push_process_name(out: &mut String, pid: u64, name: &str) {
    out.push_str("{\"ph\":\"M\",\"pid\":");
    push_u64(out, pid);
    out.push_str(",\"name\":\"process_name\",\"args\":{\"name\":\"");
    out.push_str(name);
    out.push_str("\"}}");
}

/// Serializes events as one Chrome trace-event JSON document.
///
/// Layout: one "process" per layer (named via metadata records), events as
/// instant records (`"ph":"i"`) stamped at their simulated cycle (`ts` is
/// in cycles), plus the reconstructed Fig. 3 phase spans as duration
/// records (`"ph":"X"`) on a separate `timeline` process. The replay
/// index rides in every record's `args.replay`.
pub fn chrome_trace(events: &[Event]) -> String {
    let spans = timeline::reconstruct(events);
    let mut out =
        String::with_capacity(1024 + events.len() * EVENT_BYTES + spans.len() * SPAN_BYTES);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");

    // Process-name metadata so Perfetto labels the tracks. These records
    // come first, so every later record starts with a separating comma.
    for (i, layer) in Layer::ALL.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_process_name(&mut out, layer.pid().into(), layer.name());
    }
    out.push(',');
    push_process_name(&mut out, TIMELINE_PID, "fig3-timeline");

    for e in events {
        out.push_str(e.kind.chrome_prefix());
        push_u64(&mut out, e.ctx.unwrap_or(0).into());
        out.push_str(",\"ts\":");
        push_u64(&mut out, e.cycle);
        out.push_str(",\"args\":{\"replay\":");
        push_u64(&mut out, e.replay);
        out.push(',');
        // Writing into a `String` cannot fail.
        let _ = e.kind.write_args_json(&mut out);
        out.push_str("}}");
    }

    for span in &spans {
        out.push_str(",{\"ph\":\"X\",\"name\":\"");
        out.push_str(span.phase.name());
        if span.phase == Phase::Replay {
            out.push(' ');
            push_u64(&mut out, span.replay);
        }
        out.push_str("\",\"cat\":\"timeline\",\"pid\":");
        push_u64(&mut out, TIMELINE_PID);
        out.push_str(",\"tid\":0,\"ts\":");
        push_u64(&mut out, span.start);
        out.push_str(",\"dur\":");
        push_u64(&mut out, (span.end - span.start).max(1));
        out.push_str(",\"args\":{\"replay\":");
        push_u64(&mut out, span.replay);
        out.push_str(",\"weight\":");
        push_u64(&mut out, span.weight);
        out.push_str("}}");
    }

    out.push_str("]}");
    out.shrink_to_fit();
    out
}

/// Serializes events as JSON Lines: one flat object per event.
pub fn jsonl(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * EVENT_BYTES);
    for e in events {
        out.push_str("{\"cycle\":");
        push_u64(&mut out, e.cycle);
        out.push_str(e.kind.jsonl_members());
        if let Some(c) = e.ctx {
            out.push_str(",\"ctx\":");
            push_u64(&mut out, c.into());
        }
        out.push_str(",\"replay\":");
        push_u64(&mut out, e.replay);
        out.push(',');
        let _ = e.kind.write_args_json(&mut out);
        out.push_str("}\n");
    }
    out.shrink_to_fit();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CacheTier, EventKind, SquashCause};
    use crate::json;

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                cycle: 1,
                ctx: Some(0),
                replay: 0,
                kind: EventKind::PresentCleared { vaddr: 0x1000 },
            },
            Event {
                cycle: 2,
                ctx: Some(0),
                replay: 0,
                kind: EventKind::TlbLookup {
                    vpn: 1,
                    hit: false,
                    latency: 8,
                },
            },
            Event {
                cycle: 2,
                ctx: Some(0),
                replay: 0,
                kind: EventKind::CacheAccess {
                    line: 64,
                    tier: CacheTier::Memory,
                    latency: 200,
                },
            },
            Event {
                cycle: 210,
                ctx: Some(0),
                replay: 0,
                kind: EventKind::FaultRaised {
                    vaddr: 0x1000,
                    pc: 8,
                },
            },
            Event {
                cycle: 210,
                ctx: Some(0),
                replay: 0,
                kind: EventKind::Squash {
                    cause: SquashCause::PageFault,
                    discarded: 7,
                },
            },
            Event {
                cycle: 400,
                ctx: Some(0),
                replay: 1,
                kind: EventKind::HandlerReturn {
                    handler_cycles: 190,
                },
            },
        ]
    }

    #[test]
    fn chrome_trace_is_valid_json_with_all_layers() {
        let doc = chrome_trace(&sample_events());
        json::validate(&doc).expect("chrome trace parses");
        for name in ["\"cpu\"", "\"mem\"", "\"cache\"", "\"os\""] {
            assert!(doc.contains(name), "missing layer {name}");
        }
        assert!(doc.contains("\"replay\":1"));
        assert!(doc.contains("\"ph\":\"X\""), "timeline spans present");
    }

    #[test]
    fn jsonl_lines_each_parse() {
        let doc = jsonl(&sample_events());
        assert_eq!(doc.lines().count(), 6);
        for line in doc.lines() {
            json::validate(line).expect("line parses");
        }
    }

    #[test]
    fn empty_stream_exports_cleanly() {
        let doc = chrome_trace(&[]);
        json::validate(&doc).expect("empty trace parses");
        assert_eq!(jsonl(&[]), "");
    }
}
