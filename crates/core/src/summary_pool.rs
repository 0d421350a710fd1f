//! Local summaries built off the event loop.
//!
//! In the modelled system every peer builds its own local summary
//! (SaintEtiQ incorporation, §4.2.1) while the rest of the network runs
//! on. A [`SummaryPool`] gives the simulation the same shape: the event
//! loop draws a peer's database ([`PeerGenerator::draw`], every RNG draw
//! and the ground-truth check) and queues the rows; a summary worker
//! thread turns queued rows into summaries ([`Summarizer::summarize`])
//! while the event loop handles the next events. A finished summary
//! waits in its peer's ready slot until a read settles that peer
//! ([`SummaryPool::settle`], which installs that peer's summary and no
//! other), so the event loop waits only for the summaries it reads;
//! [`SummaryPool::settle_all`] is for where every peer may be read.
//!
//! The pool works one way on every host. The queue is bounded at
//! [`SUMMARY_QUEUE_DEPTH`] jobs, and the worker is a second consumer of
//! it: the calling thread summarizes a queued job itself when a settle
//! needs it or the queue is full. With one available CPU, or when the
//! worker thread cannot be spawned, the calling thread is the only
//! consumer. A summary superseded before anyone started it is never
//! built.
//!
//! Summarization draws nothing and reads no state it shares with the
//! event loop — its input is the rows and the peer id, and the worker
//! owns its own engine — so a summary is the same bytes and flat form
//! whichever thread built it and whenever it did. Thread timing decides
//! only *when* a summary is built, never *what* it is nor when it is
//! installed: [`SummaryPool::is_pending`] names the peers whose summary
//! is still to be installed, on every host, so a caller can give them a
//! placeholder that no read should ever see. The worker encodes and
//! flattens into at most `SUMMARY_QUEUE_DEPTH + 1` output buffers it
//! reuses; the calling thread copies each result out, so the summaries
//! peers keep are allocated by the event loop's thread, not the worker's.
//!
//! A panic on the worker is caught there and raised again on the calling
//! thread at its next call that collects results, so a failed summary
//! never leaves the event loop waiting for it.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, JoinHandle};

use rand::Rng;

use crate::error::P2pError;
use crate::workload::{PeerGenerator, PeerSummary, Rows, Summarizer, SummaryBuf};

/// Jobs the summary queue holds before the submitting thread summarizes
/// queued jobs itself: deep enough that the worker rarely runs dry
/// between the event loop's reads.
pub const SUMMARY_QUEUE_DEPTH: usize = 16;

/// One queued summary: the peer's rows, under the ticket that names it.
#[derive(Debug)]
struct Job {
    ticket: u64,
    peer: u32,
    rows: Rows,
}

/// A summary the worker finished, in its output buffers.
#[derive(Debug)]
struct Done {
    ticket: u64,
    peer: u32,
    rows: Rows,
    out: SummaryBuf,
}

/// What the calling thread and the worker share, under one lock.
#[derive(Debug, Default)]
struct Queue {
    jobs: VecDeque<Job>,
    done: Vec<Done>,
    /// Output buffers copied out, for the worker to reuse.
    spare: Vec<SummaryBuf>,
    /// The message of a panic the worker caught.
    panic: Option<String>,
    closed: bool,
}

#[derive(Debug, Default)]
struct Shared {
    queue: Mutex<Queue>,
    /// Signalled when a job is queued or the pool closes.
    work: Condvar,
    /// Signalled when a job is done or the worker panicked.
    done: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        // Nothing panics while holding the lock: a poisoned lock still
        // guards consistent data.
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The summary worker: summarizes queued jobs until the pool closes or
/// a summary panics.
fn work(shared: &Shared, mut summarizer: Summarizer) {
    loop {
        let (job, out) = {
            let mut q = shared.lock();
            loop {
                if q.closed {
                    return;
                }
                if let Some(job) = q.jobs.pop_front() {
                    break (job, q.spare.pop());
                }
                q = shared.work.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let mut out = out.unwrap_or_else(|| summarizer.buffer());
        let run = panic::catch_unwind(AssertUnwindSafe(|| {
            summarizer.summarize(job.peer, &job.rows, &mut out)
        }));
        let mut q = shared.lock();
        match run {
            Ok(()) => q.done.push(Done {
                ticket: job.ticket,
                peer: job.peer,
                rows: job.rows,
                out,
            }),
            Err(payload) => {
                q.panic = Some(panic_message(payload.as_ref()));
                shared.done.notify_all();
                return;
            }
        }
        shared.done.notify_all();
    }
}

/// The text of a caught panic's payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-text panic payload".into())
}

/// One peer's outstanding ticket (0 for none) and, once built, its
/// summary.
#[derive(Debug, Default)]
struct Slot {
    ticket: u64,
    ready: Option<PeerSummary>,
}

/// Peer generation with summaries built off the calling thread: a
/// [`PeerGenerator`] for the draws and the calling thread's summaries,
/// one job queue, and one summary worker when the host has a second CPU.
///
/// A submitted summary stays outstanding until [`SummaryPool::settle`]
/// or [`SummaryPool::settle_all`], the only methods that install, call
/// their `install` callback with `(peer, summary)` for it. A summary
/// whose peer has been submitted again or cancelled since is dropped
/// instead; the current one is installed exactly once.
#[derive(Debug)]
pub struct SummaryPool {
    generator: PeerGenerator,
    shared: Arc<Shared>,
    worker: Option<JoinHandle<()>>,
    next_ticket: u64,
    /// Indexed by peer id.
    slots: Vec<Slot>,
    /// Peers with an outstanding ticket.
    outstanding: usize,
}

impl SummaryPool {
    /// A pool over `generator`, with a summary worker when
    /// [`std::thread::available_parallelism`] reports two CPUs or more.
    pub fn new(generator: PeerGenerator) -> Self {
        // Asked once per process: the answer reads the CPU affinity
        // mask and the cgroup quota files.
        static CPUS: OnceLock<usize> = OnceLock::new();
        let cpus = *CPUS.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()));
        Self::with_worker(generator, cpus >= 2)
    }

    /// A pool over `generator`, with a summary worker when `worker` is
    /// set. A worker thread that cannot be spawned leaves the pool
    /// without one: the calling thread then drains the queue alone, with
    /// the same results.
    pub fn with_worker(generator: PeerGenerator, worker: bool) -> Self {
        let shared = Arc::new(Shared::default());
        let worker = worker
            .then(|| {
                let theirs = Arc::clone(&shared);
                let summarizer = generator.summarizer().clone();
                thread::Builder::new()
                    .name("summary-worker".into())
                    .spawn(move || work(&theirs, summarizer))
                    .ok()
            })
            .flatten();
        Self {
            generator,
            shared,
            worker,
            next_ticket: 1,
            slots: Vec::new(),
            outstanding: 0,
        }
    }

    /// True when a worker thread summarizes queued jobs.
    pub fn has_worker(&self) -> bool {
        self.worker.is_some()
    }

    /// The generator that draws peers' databases.
    pub fn generator(&self) -> &PeerGenerator {
        &self.generator
    }

    /// Jobs queued and not yet started.
    pub fn queued(&self) -> usize {
        self.shared.lock().jobs.len()
    }

    /// True when no submitted summary is still to be installed.
    pub fn is_settled(&self) -> bool {
        self.outstanding == 0
    }

    /// True when `peer` has a submitted summary still to be installed.
    pub fn is_pending(&self, peer: u32) -> bool {
        self.ticket(peer) != 0
    }

    /// Draws `peer`'s database with the generator (see
    /// [`PeerGenerator::draw`]) and submits its rows; returns the match
    /// bits. A draw error submits nothing.
    pub fn regenerate<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        peer: u32,
        match_fraction: f64,
        records: usize,
    ) -> Result<u32, P2pError> {
        let mut rows = self.generator.take_rows();
        match self.generator.draw(rng, match_fraction, records, &mut rows) {
            Ok(bits) => {
                self.submit(peer, rows);
                Ok(bits)
            }
            Err(e) => {
                self.generator.recycle_rows(rows);
                Err(e)
            }
        }
    }

    /// Queues `rows` as `peer`'s next local summary, outstanding until a
    /// settle installs it. Supersedes any summary still outstanding for
    /// `peer`. When the queue is full, the calling thread summarizes the
    /// oldest queued job first.
    ///
    /// # Panics
    /// When the worker panicked; or, summarizing on this thread, when a
    /// row is shorter than the patient schema.
    pub fn submit(&mut self, peer: u32, rows: Rows) {
        self.cancel(peer);
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.set_ticket(peer, ticket);
        let shared = Arc::clone(&self.shared);
        let mut q = shared.lock();
        self.collect(&mut q);
        let full = (q.jobs.len() >= SUMMARY_QUEUE_DEPTH)
            .then(|| q.jobs.pop_front())
            .flatten();
        q.jobs.push_back(Job { ticket, peer, rows });
        drop(q);
        shared.work.notify_one();
        if let Some(job) = full {
            self.run_here(job);
        }
    }

    /// Installs `peer`'s outstanding summary, if it has one, and no
    /// other peer's: takes it from its ready slot, or collects what the
    /// worker finished, summarizes the peer's job here if it is still
    /// queued, or waits for the worker to finish it. A peer with nothing
    /// outstanding, or with its summary already built, returns without
    /// taking the lock.
    ///
    /// # Panics
    /// When the worker panicked.
    pub fn settle(&mut self, peer: u32, mut install: impl FnMut(u32, PeerSummary)) {
        let ticket = self.ticket(peer);
        if ticket == 0 {
            return;
        }
        if self.slots[peer as usize].ready.is_none() {
            let shared = Arc::clone(&self.shared);
            let mut q = shared.lock();
            loop {
                self.collect(&mut q);
                if self.slots[peer as usize].ready.is_some() {
                    break;
                }
                if let Some(i) = q.jobs.iter().position(|j| j.ticket == ticket) {
                    let job = q.jobs.remove(i).expect("position found");
                    drop(q);
                    self.run_here(job);
                    break;
                }
                q = shared.done.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
        }
        let summary = self.take_ready(peer).expect("built above");
        install(peer, summary);
    }

    /// Installs every outstanding summary, settling peers from the
    /// highest id down: while the worker finishes the oldest jobs, the
    /// calling thread summarizes the others, newest first when the peers
    /// were submitted in id order.
    ///
    /// # Panics
    /// When the worker panicked.
    pub fn settle_all(&mut self, mut install: impl FnMut(u32, PeerSummary)) {
        for peer in (0..self.slots.len() as u32).rev() {
            if self.outstanding == 0 {
                return;
            }
            self.settle(peer, &mut install);
        }
    }

    /// Drops `peer`'s outstanding summary, if any: it will not be
    /// installed.
    pub fn cancel(&mut self, peer: u32) {
        let ticket = self.ticket(peer);
        if ticket == 0 {
            return;
        }
        self.set_ticket(peer, 0);
        let mut q = self.shared.lock();
        if let Some(i) = q.jobs.iter().position(|j| j.ticket == ticket) {
            let job = q.jobs.remove(i).expect("position found");
            drop(q);
            self.generator.recycle_rows(job.rows);
        }
    }

    fn ticket(&self, peer: u32) -> u64 {
        self.slots.get(peer as usize).map_or(0, |s| s.ticket)
    }

    /// Sets `peer`'s outstanding ticket (0 clears it), dropping any
    /// summary built for the old one, and keeps the count.
    fn set_ticket(&mut self, peer: u32, ticket: u64) {
        let i = peer as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, Slot::default);
        }
        self.slots[i].ready = None;
        let old = std::mem::replace(&mut self.slots[i].ticket, ticket);
        match (old != 0, ticket != 0) {
            (false, true) => self.outstanding += 1,
            (true, false) => self.outstanding -= 1,
            _ => {}
        }
    }

    /// Takes `peer`'s built summary, if any, which ends its ticket.
    fn take_ready(&mut self, peer: u32) -> Option<PeerSummary> {
        let summary = self.slots.get_mut(peer as usize)?.ready.take()?;
        self.set_ticket(peer, 0);
        Some(summary)
    }

    /// Moves every result the worker finished into its peer's ready slot
    /// (or drops it, when superseded) and hands its buffers back. Raises
    /// a worker panic.
    fn collect(&mut self, q: &mut Queue) {
        if let Some(msg) = &q.panic {
            panic!("summary worker panicked: {msg}");
        }
        for done in q.done.drain(..) {
            if self.ticket(done.peer) == done.ticket {
                self.slots[done.peer as usize].ready = Some(done.out.to_summary());
            }
            self.generator.recycle_rows(done.rows);
            q.spare.push(done.out);
        }
    }

    /// Summarizes a queued job on the calling thread into its peer's
    /// ready slot, unless it was superseded.
    fn run_here(&mut self, job: Job) {
        if self.ticket(job.peer) == job.ticket {
            self.slots[job.peer as usize].ready =
                Some(self.generator.summarize(job.peer, &job.rows));
        }
        self.generator.recycle_rows(job.rows);
    }
}

impl Drop for SummaryPool {
    fn drop(&mut self) {
        self.shared.lock().closed = true;
        self.shared.work.notify_all();
        if let Some(handle) = self.worker.take() {
            // A worker panic was already raised on the calling thread.
            let _ = handle.join();
        }
    }
}
