//! Spans for the traced run: an in-memory buffer, a timing wrapper for
//! the store's devices, and a boot path that installs the wrapper.
//!
//! Spans stay in memory and are written once, when the run ends.
//! Request ids do not cross the store boundary, so device spans carry
//! the name of the calling thread (a `clamd-batcher-N` shard) instead.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bufferhash::{Clam, ClamConfig, RecoveryReport, StripedClam};
use clamd::server::{BootError, ServerConfig};
use flashsim::{
    CompletionRing, Device, DeviceProfile, FileDevice, Geometry, IoCompletion, IoRequest, IoStats,
    IoTicket, QueueCapabilities, RingCompletion, RingRequest, SharedDevice, SimDuration,
};

use crate::workload::Phase;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Run phase the span belongs to (see `workload::Phase`).
    pub phase: u8,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index into [`Tracer::threads`].
    pub thread: u32,
    /// Client request id where known, else 0.
    pub req: u64,
    /// Device requests carried (reads + writes) for device spans.
    pub reqs: u32,
    /// Read requests among `reqs`.
    pub reads: u32,
    /// TRIM requests among `reqs` (FIFO eviction reclaims each evicted
    /// incarnation's slot with one).
    pub trims: u32,
    /// Bytes written.
    pub write_bytes: u64,
}

impl Span {
    /// A client-side span (no thread, no device requests).
    pub fn client(name: &'static str, phase: Phase, start_ns: u64, end_ns: u64, req: u64) -> Span {
        Span {
            name,
            phase: phase as u8,
            start_ns,
            end_ns,
            thread: u32::MAX,
            req,
            reqs: 0,
            reads: 0,
            trims: 0,
            write_bytes: 0,
        }
    }

    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span buffer shared by everything the traced run records.
pub struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    phase: AtomicU8,
    spans: Mutex<Vec<Span>>,
    threads: Mutex<Vec<String>>,
}

thread_local! {
    static THREAD_ID: std::cell::Cell<Option<u32>> = const { std::cell::Cell::new(None) };
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            phase: AtomicU8::new(0),
            spans: Mutex::new(Vec::new()),
            threads: Mutex::new(Vec::new()),
        })
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts recording spans tagged with `phase`.
    pub fn enable(&self, phase: Phase) {
        self.phase.store(phase as u8, Ordering::SeqCst);
        self.enabled.store(true, Ordering::SeqCst);
    }

    pub fn disable(&self) {
        self.enabled.store(false, Ordering::SeqCst);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn phase(&self) -> u8 {
        self.phase.load(Ordering::Relaxed)
    }

    /// Small id of the calling thread, registering its name on first use.
    pub fn thread_id(&self) -> u32 {
        THREAD_ID.with(|cell| {
            if let Some(id) = cell.get() {
                return id;
            }
            let mut threads = self.threads.lock().expect("tracer threads lock");
            let name = std::thread::current().name().unwrap_or("unnamed").to_string();
            threads.push(name);
            let id = threads.len() as u32 - 1;
            cell.set(Some(id));
            id
        })
    }

    pub fn record(&self, span: Span) {
        self.spans.lock().expect("tracer span lock").push(span);
    }

    pub fn extend(&self, spans: impl IntoIterator<Item = Span>) {
        self.spans.lock().expect("tracer span lock").extend(spans);
    }

    /// Takes every span recorded so far out of the buffer.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("tracer span lock"))
    }

    /// Writes `spans` as one tab-separated line each.
    pub fn write_tsv(&self, spans: &[Span], path: &Path) -> std::io::Result<()> {
        let threads = self.threads.lock().expect("tracer threads lock");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "name\tphase\tstart_ns\tend_ns\tthread\treq\treqs\treads\ttrims\twrite_bytes"
        )?;
        for s in spans.iter() {
            let thread = threads.get(s.thread as usize).map_or("client", String::as_str);
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.name,
                s.phase,
                s.start_ns,
                s.end_ns,
                thread,
                s.req,
                s.reqs,
                s.reads,
                s.trims,
                s.write_bytes
            )?;
        }
        out.flush()
    }
}

/// A device wrapper that forwards every call to `inner`, recording a
/// span around each one while its tracer is enabled.
pub struct TracedDevice<D: Device> {
    inner: D,
    tracer: Arc<Tracer>,
}

impl<D: Device> TracedDevice<D> {
    pub fn new(inner: D, tracer: Arc<Tracer>) -> Self {
        TracedDevice { inner, tracer }
    }

    fn timed<R>(&mut self, name: &'static str, shape: Shape, f: impl FnOnce(&mut D) -> R) -> R {
        if !self.tracer.enabled() {
            return f(&mut self.inner);
        }
        let start_ns = self.tracer.now_ns();
        let out = f(&mut self.inner);
        let end_ns = self.tracer.now_ns();
        self.tracer.record(Span {
            name,
            phase: self.tracer.phase(),
            start_ns,
            end_ns,
            thread: self.tracer.thread_id(),
            req: 0,
            reqs: shape.reqs,
            reads: shape.reads,
            trims: shape.trims,
            write_bytes: shape.write_bytes,
        });
        out
    }
}

/// What a device call carried.
#[derive(Clone, Copy, Default)]
struct Shape {
    reqs: u32,
    reads: u32,
    trims: u32,
    write_bytes: u64,
}

impl Shape {
    fn of<'a>(requests: impl Iterator<Item = &'a IoRequest>) -> Shape {
        let mut shape = Shape::default();
        for request in requests {
            shape.reqs += 1;
            match request {
                IoRequest::Read { .. } => shape.reads += 1,
                IoRequest::Write { data, .. } => shape.write_bytes += data.len() as u64,
                IoRequest::Trim { .. } => shape.trims += 1,
                IoRequest::Erase { .. } => {}
            }
        }
        shape
    }
}

impl<D: Device> Device for TracedDevice<D> {
    fn profile(&self) -> &DeviceProfile {
        self.inner.profile()
    }

    fn geometry(&self) -> Geometry {
        self.inner.geometry()
    }

    fn queue(&self) -> QueueCapabilities {
        self.inner.queue()
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> flashsim::Result<SimDuration> {
        self.timed("device.read_at", Shape { reqs: 1, reads: 1, ..Shape::default() }, |d| {
            d.read_at(offset, buf)
        })
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> flashsim::Result<SimDuration> {
        let shape = Shape { reqs: 1, write_bytes: data.len() as u64, ..Shape::default() };
        self.timed("device.write_at", shape, |d| d.write_at(offset, data))
    }

    fn erase_block(&mut self, block: u64) -> flashsim::Result<SimDuration> {
        self.timed("device.erase_block", Shape { reqs: 1, ..Shape::default() }, |d| {
            d.erase_block(block)
        })
    }

    fn trim(&mut self, offset: u64, len: u64) -> flashsim::Result<SimDuration> {
        self.timed("device.trim", Shape { reqs: 1, trims: 1, ..Shape::default() }, |d| {
            d.trim(offset, len)
        })
    }

    fn submit(&mut self, requests: &mut [IoRequest]) -> flashsim::Result<Vec<IoCompletion>> {
        let shape = Shape::of(requests.iter());
        self.timed("device.submit", shape, |d| d.submit(requests))
    }

    fn submit_nowait(
        &mut self,
        requests: Vec<RingRequest>,
        ring: &mut CompletionRing,
    ) -> flashsim::Result<Vec<IoTicket>> {
        let shape = Shape::of(requests.iter().map(|r| &r.request));
        self.timed("device.submit_nowait", shape, |d| d.submit_nowait(requests, ring))
    }

    fn reap(
        &mut self,
        ring: &mut CompletionRing,
        min: usize,
    ) -> flashsim::Result<Vec<RingCompletion>> {
        self.timed("device.reap", Shape::default(), |d| d.reap(ring, min))
    }

    fn on_idle(&mut self, idle: SimDuration) {
        self.inner.on_idle(idle)
    }

    fn stats(&self) -> IoStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// The traced store's device type.
pub type TracedFile = TracedDevice<SharedDevice<FileDevice>>;

/// Mirrors `clamd::server::boot_file` with a [`TracedDevice`] around
/// every stripe partition: a missing file is created and booted empty,
/// an existing one is recovered in place. The per-stripe configuration
/// is derived from the totals the same way the server derives it.
pub fn boot_traced(
    path: &Path,
    config: &ServerConfig,
    queue_depth: usize,
    tracer: &Arc<Tracer>,
) -> Result<(StripedClam<TracedFile>, Vec<RecoveryReport>), BootError> {
    let stripes = config.stripes as u64;
    let stripe_config =
        ClamConfig::small_test(config.flash_bytes / stripes, config.dram_bytes / stripes)?;
    let wrap = |p| TracedDevice::new(p, Arc::clone(tracer));
    if path.exists() {
        let device = SharedDevice::new(FileDevice::open_existing(path, queue_depth)?);
        let pairs = device
            .split(config.stripes)?
            .into_iter()
            .map(|partition| (wrap(partition), stripe_config.clone()))
            .collect();
        Ok(StripedClam::recover(pairs)?)
    } else {
        let device =
            SharedDevice::new(FileDevice::with_queue_depth(path, config.flash_bytes, queue_depth)?);
        let mut clams = Vec::with_capacity(config.stripes);
        for partition in device.split(config.stripes)? {
            clams.push(Clam::new(wrap(partition), stripe_config.clone())?);
        }
        Ok((StripedClam::new(clams), Vec::new()))
    }
}
