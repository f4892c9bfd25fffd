//! Chrome `trace_event` export.
//!
//! Converts a [`crate::Trace`] span tree into the JSON object format
//! understood by `chrome://tracing` and [Perfetto](https://ui.perfetto.dev):
//! a `{"traceEvents": [...]}` document of complete (`"X"`) events plus
//! `"M"` metadata naming the process and its one thread. A compile runs on
//! one thread, so timestamps are wall-clock offsets from the start of
//! tracing and sibling spans never overlap.

use crate::json::Json;
use crate::{SpanRec, Trace};

/// Process id used for all exported events (the trace is one process).
const PID: i64 = 1;
/// Thread id used for all exported events (a compile is one thread).
const TID: i64 = 0;

fn micros(ns: u64) -> Json {
    // trace_event timestamps are microseconds; keep sub-µs precision as a
    // fraction so short phases don't collapse to zero-width slices.
    Json::Float(ns as f64 / 1000.0)
}

fn metadata(name: &'static str, value: &str) -> Json {
    Json::obj(vec![
        ("name", Json::Str(name.to_string())),
        ("ph", Json::Str("M".to_string())),
        ("ts", Json::Int(0)),
        ("pid", Json::Int(PID)),
        ("tid", Json::Int(TID)),
        (
            "args",
            Json::obj(vec![("name", Json::Str(value.to_string()))]),
        ),
    ])
}

fn complete_event(sp: &SpanRec) -> Json {
    let mut args = vec![("span_id", Json::Int(sp.id as i64))];
    if !sp.scope.is_empty() {
        args.push(("scope", Json::Str(sp.scope.clone())));
    }
    if let Some(p) = sp.parent_id {
        args.push(("parent_id", Json::Int(p as i64)));
    }
    Json::obj(vec![
        ("name", Json::Str(sp.name.to_string())),
        (
            "cat",
            Json::Str(if sp.scope.is_empty() {
                "module".to_string()
            } else {
                "function".to_string()
            }),
        ),
        ("ph", Json::Str("X".to_string())),
        ("ts", micros(sp.start_ns)),
        ("dur", micros(sp.dur_ns)),
        ("pid", Json::Int(PID)),
        ("tid", Json::Int(TID)),
        ("args", Json::obj(args)),
    ])
}

/// Builds a `{"traceEvents": [...]}` document from a trace's spans.
///
/// `process_name` labels the single exported process (callers typically
/// pass the compile configuration name). Every event carries the keys the
/// format requires — `name`, `ph`, `ts`, `pid`, `tid` — and `"X"` events
/// additionally carry `dur`; span scope and tree structure ride along in
/// `args`.
pub fn export(trace: &Trace, process_name: &str) -> Json {
    let mut events = Vec::with_capacity(trace.spans.len() + 8);
    events.push(metadata(
        "process_name",
        &format!("mini-cc ({process_name})"),
    ));
    events.push(metadata("thread_name", "compile"));

    // Spans are recorded in completion order; export in start order so the
    // document reads chronologically (viewers do not require it, humans
    // paging through the JSON do).
    let mut spans: Vec<&SpanRec> = trace.spans.iter().collect();
    spans.sort_by_key(|s| (s.start_ns, s.id));
    events.extend(spans.into_iter().map(complete_event));

    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ns".to_string())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        id: u64,
        parent: Option<u64>,
        start: u64,
        dur: u64,
        scope: &str,
    ) -> SpanRec {
        SpanRec {
            scope: scope.to_string(),
            name,
            id,
            parent_id: parent,
            start_ns: start,
            dur_ns: dur,
        }
    }

    #[test]
    fn every_event_has_the_required_keys() {
        let trace = Trace {
            spans: vec![
                span("compile", 0, None, 0, 5000, ""),
                span("color", 1, Some(0), 500, 1500, "f1"),
                span("lower", 2, Some(0), 2500, 1000, "f2"),
            ],
            ..Trace::default()
        };
        let doc = export(&trace, "C");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(!events.is_empty());
        for ev in events {
            for key in ["name", "ph", "ts", "pid", "tid"] {
                assert!(
                    ev.get(key).is_some(),
                    "event missing `{key}`: {}",
                    ev.render()
                );
            }
            let ph = ev.get("ph").unwrap().as_str().unwrap();
            match ph {
                "X" => assert!(ev.get("dur").is_some(), "complete event needs dur"),
                "M" => assert!(ev.get("args").unwrap().get("name").is_some()),
                other => panic!("unexpected phase `{other}`"),
            }
        }
    }

    #[test]
    fn all_spans_share_one_thread() {
        let trace = Trace {
            spans: vec![
                span("compile", 0, None, 0, 5000, ""),
                span("color", 1, None, 0, 100, "f3"),
            ],
            ..Trace::default()
        };
        let doc = export(&trace, "C");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let thread_names = events
            .iter()
            .filter(|e| e.get("name").unwrap().as_str() == Some("thread_name"))
            .count();
        assert_eq!(thread_names, 1);
        for ev in events {
            assert_eq!(ev.get("tid").unwrap().as_i64(), Some(0), "{}", ev.render());
        }
    }

    #[test]
    fn timestamps_are_microseconds() {
        let trace = Trace {
            spans: vec![span("phase", 0, None, 2500, 1500, "")],
            ..Trace::default()
        };
        let doc = export(&trace, "C");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let ev = events.last().unwrap();
        assert_eq!(ev.get("ts").unwrap().as_f64(), Some(2.5));
        assert_eq!(ev.get("dur").unwrap().as_f64(), Some(1.5));
    }
}
