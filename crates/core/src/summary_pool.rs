//! Local summaries built off the event loop.
//!
//! In the modelled system every peer builds its own local summary
//! (SaintEtiQ incorporation, §4.2.1) while the rest of the network runs
//! on. A [`SummaryPool`] gives the simulation the same shape: the event
//! loop draws a peer's database ([`PeerGenerator::draw`], every RNG draw
//! and the ground-truth check) and submits the rows; one summary worker
//! thread turns queued rows into summaries ([`Summarizer::summarize`])
//! while the event loop handles the next events. Each read of a peer's
//! summary settles that peer first ([`SummaryPool::settle`]), so the
//! event loop waits only for the summaries it reads;
//! [`SummaryPool::settle_all`] is for where every peer may be read.
//!
//! Summarization draws nothing and reads no state it shares with the
//! event loop — its input is the rows and the peer id, and the worker
//! owns its own engine — so a summary is the same bytes and flat form
//! whichever thread built it and whenever it did. Thread timing decides
//! only *when* a result is ready, never *what* it is, and every read of
//! a summary waits for its result. [`SummaryPool::is_pending`] names the
//! peers whose result is still outstanding, so a caller can give them a
//! placeholder that no read should ever see.
//!
//! The queue is bounded at [`SUMMARY_QUEUE_DEPTH`] jobs. When it is full,
//! or when a result is needed that no one has started, the calling
//! thread summarizes queued jobs itself. A pool on a host with one
//! available CPU spawns no worker and summarizes every job as it is
//! submitted. The worker encodes and flattens into at most
//! `SUMMARY_QUEUE_DEPTH + 1` output buffers it reuses; the calling
//! thread copies each result out, so the summaries peers keep are
//! allocated by the event loop's thread, not the worker's.
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

/// The summary worker thread.
#[derive(Debug)]
struct Worker {
    shared: Arc<Shared>,
    handle: Option<JoinHandle<()>>,
}

impl Worker {
    fn spawn(mut summarizer: Summarizer) -> Self {
        let shared = Arc::new(Shared::default());
        let theirs = Arc::clone(&shared);
        let handle = thread::Builder::new()
            .name("summary-worker".into())
            .spawn(move || loop {
                let (job, out) = {
                    let mut q = theirs.lock();
                    loop {
                        if q.closed {
                            return;
                        }
                        if let Some(job) = q.jobs.pop_front() {
                            break (job, q.spare.pop());
                        }
                        q = theirs.work.wait(q).unwrap_or_else(PoisonError::into_inner);
                    }
                };
                let mut out = out.unwrap_or_else(|| summarizer.buffer());
                let run = panic::catch_unwind(AssertUnwindSafe(|| {
                    summarizer.summarize(job.peer, &job.rows, &mut out)
                }));
                let mut q = theirs.lock();
                match run {
                    Ok(()) => q.done.push(Done {
                        ticket: job.ticket,
                        peer: job.peer,
                        rows: job.rows,
                        out,
                    }),
                    Err(payload) => {
                        q.panic = Some(panic_message(payload.as_ref()));
                        theirs.done.notify_all();
                        return;
                    }
                }
                theirs.done.notify_all();
            })
            .expect("spawn the summary worker");
        Self {
            shared,
            handle: Some(handle),
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.shared.lock().closed = true;
        self.shared.work.notify_all();
        if let Some(handle) = self.handle.take() {
            // A worker panic was already raised on the calling thread.
            let _ = handle.join();
        }
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

/// Peer generation with summaries built off the calling thread: a
/// [`PeerGenerator`] for the draws and the calling thread's summaries,
/// plus one summary worker when the host has a second CPU.
///
/// Every method that may finish a summary takes an `install` callback
/// and calls it with `(peer, summary)` for each current result it
/// collects, in no particular order; a result whose peer has been
/// submitted again or cancelled since is dropped instead. A peer's
/// result is installed exactly once, and only ever before
/// [`SummaryPool::settle`] or [`SummaryPool::settle_all`] returns.
#[derive(Debug)]
pub struct SummaryPool {
    generator: PeerGenerator,
    worker: Option<Worker>,
    next_ticket: u64,
    /// Each peer's outstanding ticket, indexed by peer id; 0 for none.
    tickets: Vec<u64>,
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
    /// set; without one every job is summarized as it is submitted.
    pub fn with_worker(generator: PeerGenerator, worker: bool) -> Self {
        let worker = worker.then(|| Worker::spawn(generator.summarizer().clone()));
        Self {
            generator,
            worker,
            next_ticket: 1,
            tickets: Vec::new(),
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

    /// The generator, for draws and calling-thread generation.
    pub fn generator_mut(&mut self) -> &mut PeerGenerator {
        &mut self.generator
    }

    /// Jobs queued and not yet started.
    pub fn queued(&self) -> usize {
        self.worker
            .as_ref()
            .map_or(0, |w| w.shared.lock().jobs.len())
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
        install: impl FnMut(u32, PeerSummary),
    ) -> Result<u32, P2pError> {
        let mut rows = self.generator.take_rows();
        match self.generator.draw(rng, match_fraction, records, &mut rows) {
            Ok(bits) => {
                self.submit(peer, rows, install);
                Ok(bits)
            }
            Err(e) => {
                self.generator.recycle_rows(rows);
                Err(e)
            }
        }
    }

    /// Submits `rows` as `peer`'s next local summary. Supersedes any
    /// summary still outstanding for `peer`. Without a worker the
    /// summary is built and installed before this returns.
    ///
    /// # Panics
    /// When the worker panicked; or, summarizing on this thread, when a
    /// row is shorter than the patient schema.
    pub fn submit(&mut self, peer: u32, rows: Rows, mut install: impl FnMut(u32, PeerSummary)) {
        self.cancel(peer);
        let Some(worker) = &self.worker else {
            install(peer, self.generator.summarize(peer, &rows));
            self.generator.recycle_rows(rows);
            return;
        };
        let shared = Arc::clone(&worker.shared);
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.set_ticket(peer, ticket);
        let mut q = shared.lock();
        self.collect(&mut q, &mut install);
        let full = (q.jobs.len() >= SUMMARY_QUEUE_DEPTH)
            .then(|| q.jobs.pop_front())
            .flatten();
        q.jobs.push_back(Job { ticket, peer, rows });
        drop(q);
        shared.work.notify_one();
        if let Some(job) = full {
            self.run_here(job, &mut install);
        }
    }

    /// Installs `peer`'s outstanding summary, if it has one: collects
    /// what the worker finished, summarizes the peer's job here if it is
    /// still queued, or waits for the worker to finish it. A peer with
    /// nothing outstanding returns at once, without taking the lock.
    ///
    /// # Panics
    /// When the worker panicked.
    pub fn settle(&mut self, peer: u32, mut install: impl FnMut(u32, PeerSummary)) {
        if !self.is_pending(peer) {
            return;
        }
        let Some(worker) = &self.worker else {
            return;
        };
        let shared = Arc::clone(&worker.shared);
        let mut q = shared.lock();
        loop {
            self.collect(&mut q, &mut install);
            let ticket = self.ticket(peer);
            if ticket == 0 {
                return;
            }
            if let Some(i) = q.jobs.iter().position(|j| j.ticket == ticket) {
                let job = q.jobs.remove(i).expect("position found");
                drop(q);
                self.run_here(job, &mut install);
                return;
            }
            q = shared.done.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Installs every outstanding summary: the calling thread summarizes
    /// queued jobs, newest first, while the worker finishes the oldest.
    ///
    /// # Panics
    /// When the worker panicked.
    pub fn settle_all(&mut self, mut install: impl FnMut(u32, PeerSummary)) {
        if self.outstanding == 0 {
            return;
        }
        let Some(worker) = &self.worker else {
            return;
        };
        let shared = Arc::clone(&worker.shared);
        let mut q = shared.lock();
        loop {
            self.collect(&mut q, &mut install);
            if self.outstanding == 0 {
                return;
            }
            if let Some(job) = q.jobs.pop_back() {
                drop(q);
                self.run_here(job, &mut install);
                q = shared.lock();
            } else {
                q = shared.done.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
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
        if let Some(worker) = &self.worker {
            let mut q = worker.shared.lock();
            if let Some(i) = q.jobs.iter().position(|j| j.ticket == ticket) {
                let job = q.jobs.remove(i).expect("position found");
                drop(q);
                self.generator.recycle_rows(job.rows);
            }
        }
    }

    fn ticket(&self, peer: u32) -> u64 {
        self.tickets.get(peer as usize).copied().unwrap_or(0)
    }

    /// Sets `peer`'s outstanding ticket (0 clears it), keeping the count.
    fn set_ticket(&mut self, peer: u32, ticket: u64) {
        let i = peer as usize;
        if i >= self.tickets.len() {
            self.tickets.resize(i + 1, 0);
        }
        let old = std::mem::replace(&mut self.tickets[i], ticket);
        match (old != 0, ticket != 0) {
            (false, true) => self.outstanding += 1,
            (true, false) => self.outstanding -= 1,
            _ => {}
        }
    }

    /// Installs (or drops, when superseded) every result the worker
    /// finished and hands its buffers back. Raises a worker panic.
    fn collect(&mut self, q: &mut Queue, install: &mut impl FnMut(u32, PeerSummary)) {
        if let Some(msg) = &q.panic {
            panic!("summary worker panicked: {msg}");
        }
        for done in q.done.drain(..) {
            if self.ticket(done.peer) == done.ticket {
                self.set_ticket(done.peer, 0);
                install(done.peer, done.out.to_summary());
            }
            self.generator.recycle_rows(done.rows);
            q.spare.push(done.out);
        }
    }

    /// Summarizes a queued job on the calling thread and installs it,
    /// unless it was superseded.
    fn run_here(&mut self, job: Job, install: &mut impl FnMut(u32, PeerSummary)) {
        if self.ticket(job.peer) == job.ticket {
            self.set_ticket(job.peer, 0);
            install(job.peer, self.generator.summarize(job.peer, &job.rows));
        }
        self.generator.recycle_rows(job.rows);
    }
}
