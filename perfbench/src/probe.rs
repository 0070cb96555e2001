//! A timing wrapper around the backend the harness hands to
//! `Lakehouse::with_store`. It sits below the lakehouse's own simulated-S3
//! accounting, so it sees every call that reaches the real backend and its
//! wall time. In the traced run each call is also a span.

use crate::trace;
use bytes::Bytes;
use lakehouse_store::{ObjectPath, ObjectStore, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Data files of the columnar format end in this extension; every other
/// object (catalog refs and commits, table metadata, manifests) is metadata.
const DATA_EXT: &str = ".lkh";

#[derive(Default)]
struct Counters {
    read_calls: AtomicU64,
    read_bytes: AtomicU64,
    read_ns: AtomicU64,
    data_read_calls: AtomicU64,
    data_read_ns: AtomicU64,
    meta_read_bytes: AtomicU64,
    write_calls: AtomicU64,
    write_ns: AtomicU64,
    cas_ns: AtomicU64,
    list_calls: AtomicU64,
    list_ns: AtomicU64,
}

/// A point-in-time copy of the probe's counters; subtract two to get the
/// calls one operation made.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub read_calls: u64,
    pub read_bytes: u64,
    pub read_ns: u64,
    /// Reads of data files only, and their wall time.
    pub data_read_calls: u64,
    pub data_read_ns: u64,
    pub meta_read_bytes: u64,
    pub write_calls: u64,
    pub write_ns: u64,
    pub cas_ns: u64,
    pub list_calls: u64,
    pub list_ns: u64,
}

impl std::ops::Sub for Counts {
    type Output = Counts;
    fn sub(self, o: Counts) -> Counts {
        Counts {
            read_calls: self.read_calls - o.read_calls,
            read_bytes: self.read_bytes - o.read_bytes,
            read_ns: self.read_ns - o.read_ns,
            data_read_calls: self.data_read_calls - o.data_read_calls,
            data_read_ns: self.data_read_ns - o.data_read_ns,
            meta_read_bytes: self.meta_read_bytes - o.meta_read_bytes,
            write_calls: self.write_calls - o.write_calls,
            write_ns: self.write_ns - o.write_ns,
            cas_ns: self.cas_ns - o.cas_ns,
            list_calls: self.list_calls - o.list_calls,
            list_ns: self.list_ns - o.list_ns,
        }
    }
}

impl std::ops::AddAssign for Counts {
    fn add_assign(&mut self, o: Counts) {
        self.read_calls += o.read_calls;
        self.read_bytes += o.read_bytes;
        self.read_ns += o.read_ns;
        self.data_read_calls += o.data_read_calls;
        self.data_read_ns += o.data_read_ns;
        self.meta_read_bytes += o.meta_read_bytes;
        self.write_calls += o.write_calls;
        self.write_ns += o.write_ns;
        self.cas_ns += o.cas_ns;
        self.list_calls += o.list_calls;
        self.list_ns += o.list_ns;
    }
}

/// The wrapped backend plus shared counters.
pub struct Probe {
    inner: Arc<dyn ObjectStore>,
    counters: Arc<Counters>,
}

/// A handle on a probe's counters that outlives handing the probe itself to
/// the lakehouse.
#[derive(Clone)]
pub struct ProbeHandle {
    counters: Arc<Counters>,
}

impl Probe {
    pub fn wrap(inner: Arc<dyn ObjectStore>) -> (Arc<dyn ObjectStore>, ProbeHandle) {
        let counters = Arc::new(Counters::default());
        let handle = ProbeHandle {
            counters: Arc::clone(&counters),
        };
        (Arc::new(Probe { inner, counters }), handle)
    }

    fn read(
        &self,
        path: &ObjectPath,
        name: &str,
        f: impl FnOnce() -> Result<Bytes>,
    ) -> Result<Bytes> {
        let _span = trace::span(name);
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        let c = &self.counters;
        c.read_calls.fetch_add(1, Ordering::Relaxed);
        c.read_ns.fetch_add(ns, Ordering::Relaxed);
        if let Ok(bytes) = &out {
            c.read_bytes
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
            if path.as_str().ends_with(DATA_EXT) {
                c.data_read_calls.fetch_add(1, Ordering::Relaxed);
                c.data_read_ns.fetch_add(ns, Ordering::Relaxed);
            } else {
                c.meta_read_bytes
                    .fetch_add(bytes.len() as u64, Ordering::Relaxed);
            }
        }
        out
    }

    fn timed<T>(
        &self,
        name: &str,
        calls: &AtomicU64,
        total: &AtomicU64,
        f: impl FnOnce() -> T,
    ) -> T {
        let _span = trace::span(name);
        let start = Instant::now();
        let out = f();
        calls.fetch_add(1, Ordering::Relaxed);
        total.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

impl ProbeHandle {
    pub fn counts(&self) -> Counts {
        let c = &self.counters;
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        Counts {
            read_calls: get(&c.read_calls),
            read_bytes: get(&c.read_bytes),
            read_ns: get(&c.read_ns),
            data_read_calls: get(&c.data_read_calls),
            data_read_ns: get(&c.data_read_ns),
            meta_read_bytes: get(&c.meta_read_bytes),
            write_calls: get(&c.write_calls),
            write_ns: get(&c.write_ns),
            cas_ns: get(&c.cas_ns),
            list_calls: get(&c.list_calls),
            list_ns: get(&c.list_ns),
        }
    }
}

impl ObjectStore for Probe {
    fn put(&self, path: &ObjectPath, data: Bytes) -> Result<()> {
        let c = &self.counters;
        self.timed("store.put", &c.write_calls, &c.write_ns, || {
            self.inner.put(path, data)
        })
    }

    fn get(&self, path: &ObjectPath) -> Result<Bytes> {
        self.read(path, "store.get", || self.inner.get(path))
    }

    fn get_range(&self, path: &ObjectPath, start: usize, end: usize) -> Result<Bytes> {
        self.read(path, "store.get_range", || {
            self.inner.get_range(path, start, end)
        })
    }

    fn head(&self, path: &ObjectPath) -> Result<usize> {
        let c = &self.counters;
        self.timed("store.head", &c.list_calls, &c.list_ns, || {
            self.inner.head(path)
        })
    }

    fn list(&self, prefix: &str) -> Result<Vec<ObjectPath>> {
        let c = &self.counters;
        self.timed("store.list", &c.list_calls, &c.list_ns, || {
            self.inner.list(prefix)
        })
    }

    fn delete(&self, path: &ObjectPath) -> Result<()> {
        let c = &self.counters;
        self.timed("store.delete", &c.write_calls, &c.write_ns, || {
            self.inner.delete(path)
        })
    }

    fn exists(&self, path: &ObjectPath) -> bool {
        let c = &self.counters;
        self.timed("store.exists", &c.list_calls, &c.list_ns, || {
            self.inner.exists(path)
        })
    }

    fn put_if_matches(
        &self,
        path: &ObjectPath,
        expected: Option<&[u8]>,
        data: Bytes,
    ) -> Result<()> {
        let c = &self.counters;
        self.timed("store.put_if_matches", &c.write_calls, &c.cas_ns, || {
            self.inner.put_if_matches(path, expected, data)
        })
    }
}
