//! The harness's own span recorder, used only in the traced run.
//!
//! Spans are kept in a thread-local `Vec` and written out once, when the
//! benchmark ends. Every span carries the id of the request it belongs to
//! and its parent, taken from a thread-local stack of open spans: at the
//! default config the lakehouse does all its work on the calling thread, so
//! the stack is the call tree. Spans the program already emits (the
//! `SpanTree` of `Lakehouse::profile` and `RunReport::trace`) are imported
//! under the request span that was open when they were returned.

use lakehouse_obs::SpanTree;
use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub req: u64,
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    on: bool,
    epoch: Instant,
    next_id: u64,
    next_req: u64,
    /// Open spans, innermost last: (span id, request id).
    stack: Vec<(u64, u64)>,
    spans: Vec<Span>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        epoch: Instant::now(),
        next_id: 1,
        next_req: 1,
        stack: Vec::new(),
        spans: Vec::new(),
    });
}

/// Turn recording on or off for this thread.
pub fn set_enabled(on: bool) {
    REC.with(|r| r.borrow_mut().on = on);
}

fn now_ns(r: &Recorder) -> u64 {
    r.epoch.elapsed().as_nanos() as u64
}

/// An open span; it is recorded when dropped.
pub struct Guard {
    open: Option<Span>,
}

fn open(name: &str, new_request: bool) -> Guard {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return Guard { open: None };
        }
        let id = r.next_id;
        r.next_id += 1;
        let (req, parent) = match r.stack.last() {
            Some(&(parent, req)) if !new_request => (req, Some(parent)),
            _ => {
                let req = r.next_req;
                r.next_req += 1;
                (req, None)
            }
        };
        r.stack.push((id, req));
        let start_ns = now_ns(&r);
        Guard {
            open: Some(Span {
                req,
                id,
                parent,
                name: name.to_string(),
                start_ns,
                end_ns: start_ns,
            }),
        }
    })
}

/// Open the root span of a new request.
pub fn request(name: &str) -> Guard {
    open(name, true)
}

/// Open a span under the innermost open span (a new request if none is
/// open).
pub fn span(name: &str) -> Guard {
    open(name, false)
}

impl Guard {
    /// Import a span tree the program emitted during this span, as children
    /// of this span. The program's clock starts when its trace starts, which
    /// is just after this span opened, so its times are offset by this
    /// span's start.
    pub fn import(&self, tree: &SpanTree) {
        let Some(me) = &self.open else { return };
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let ids: std::collections::HashMap<u64, u64> = tree
                .spans
                .iter()
                .enumerate()
                .map(|(i, s)| (s.id, r.next_id + i as u64))
                .collect();
            r.next_id += tree.spans.len() as u64;
            for s in &tree.spans {
                let parent = s.parent.and_then(|p| ids.get(&p).copied()).or(Some(me.id));
                r.spans.push(Span {
                    req: me.req,
                    id: ids[&s.id],
                    parent,
                    name: s.name.clone(),
                    start_ns: me.start_ns + s.wall_start_ns,
                    end_ns: me.start_ns + s.wall_end_ns,
                });
            }
        });
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(mut span) = self.open.take() {
            REC.with(|r| {
                let mut r = r.borrow_mut();
                span.end_ns = now_ns(&r);
                if let Some(pos) = r.stack.iter().rposition(|&(id, _)| id == span.id) {
                    r.stack.truncate(pos);
                }
                r.spans.push(span);
            });
        }
    }
}

/// A span tree the program emitted, in this module's form (request 0, the
/// program's own ids and clock).
pub fn from_tree(tree: &SpanTree) -> Vec<Span> {
    tree.spans
        .iter()
        .map(|s| Span {
            req: 0,
            id: s.id,
            parent: s.parent,
            name: s.name.clone(),
            start_ns: s.wall_start_ns,
            end_ns: s.wall_end_ns,
        })
        .collect()
}

/// Take every span recorded on this thread so far.
pub fn take() -> Vec<Span> {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Self time of each span: its duration minus the part of it that its
/// children cover (overlapping children are counted once). Indexed like
/// `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: std::collections::HashMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&pi) = s.parent.and_then(|p| index.get(&p)) {
            children[pi].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Write spans as JSON lines, one span per line.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"req\":{},\"id\":{},\"parent\":{},\"name\":{:?},\"start_ns\":{},\"end_ns\":{}}}",
            s.req, s.id, parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let mk = |id, parent, start_ns, end_ns| Span {
            req: 1,
            id,
            parent,
            name: String::new(),
            start_ns,
            end_ns,
        };
        let spans = vec![
            mk(1, None, 0, 100),
            mk(2, Some(1), 10, 40),
            mk(3, Some(1), 30, 60),
            mk(4, Some(3), 35, 45),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 20, 10]);
    }

    #[test]
    fn nested_guards_share_request_and_link_parents() {
        set_enabled(true);
        {
            let _r = request("q");
            let _s = span("store.get");
        }
        {
            let _r = request("q2");
        }
        set_enabled(false);
        let spans = take();
        let get = spans.iter().find(|s| s.name == "store.get").unwrap();
        let q = spans.iter().find(|s| s.name == "q").unwrap();
        let q2 = spans.iter().find(|s| s.name == "q2").unwrap();
        assert_eq!(get.parent, Some(q.id));
        assert_eq!(get.req, q.req);
        assert_ne!(q2.req, q.req);
        assert_eq!(q2.parent, None);
    }
}
