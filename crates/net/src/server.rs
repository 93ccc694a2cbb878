//! The serving loop: acceptor, pipelined connections, sharded
//! coalescing executors.
//!
//! ```text
//!                 ┌────────────┐   accept   ┌─────────────────────────────┐
//!  TCP clients ──▶│  acceptor  │──────────▶│ connection (two threads)     │
//!                 └────────────┘            │  reader: decode → enqueue   │
//!                                           │  writer: mpsc → encode →    │
//!                                           │          write (completion  │
//!                                           │          order, id-tagged)  │
//!                                           └──────────────┬──────────────┘
//!                                        Job (template, A's, id, writer)
//!                                                          ▼
//!                                    hash(template_id) % N shard queues
//!                                           ┌──────┐ ┌──────┐ ┌──────┐
//!                                           │shard0│ │shard1│ │  …   │
//!                                           └──┬───┘ └──┬───┘ └──┬───┘
//!                 each shard: pop, coalesce by template, one
//!                 par_solve_batch over the merged instances, split
//!                 results back per job, reply to each job's writer
//! ```
//!
//! * **Pipelining.** Each connection is split into a reader thread
//!   (frame → decode → enqueue, never blocking on results) and a writer
//!   thread fed by an mpsc channel of `(request id, Response)` pairs.
//!   A client may therefore keep many requests in flight; responses go
//!   out in completion order and are matched by the correlation id the
//!   client chose (protocol v2). A v1-versioned frame is answered with
//!   a **v1-framed** `UnsupportedVersion` error the old peer can
//!   decode, then the connection closes — typed refusal, no desync.
//! * **Sharding.** Solve jobs are routed to one of
//!   [`ServerConfig::executor_shards`] executor threads by template-id
//!   hash. Each shard owns its queue, coalescing window, and per-shard
//!   depth/batch counters (visible in `Status`), so concurrent traffic
//!   against different templates no longer serializes behind one loop.
//!   Same-template jobs always share a shard, which is what lets the
//!   coalescer keep merging them.
//! * **Pooled buffers.** The reader reuses one payload buffer and the
//!   writer one encode-scratch buffer across every frame on the
//!   connection ([`crate::pool`]); at steady state a solve round-trip
//!   allocates no frame buffers on the server at all (experiment E19
//!   gates this via the pool's growth counter).
//! * **Admission control.** A reader admits a solve job only while
//!   fewer than `max_queue_depth` jobs are outstanding (admitted and
//!   not yet answered) across all shards; beyond that it answers
//!   [`ErrorCode::Overloaded`] immediately instead of queueing without
//!   bound. Requests may also carry a deadline: a job that waited in
//!   the queue past its `deadline_ms` is answered
//!   [`ErrorCode::DeadlineExceeded`] instead of being solved late.
//! * **Coalescing.** Each shard drains whatever is queued (waiting up
//!   to [`ServerConfig::coalesce_window`] for stragglers once a first
//!   job arrives), groups jobs by template id, and runs each group as
//!   **one** [`Session::par_solve_batch`] call over the concatenated
//!   instances. With pipelining this now also merges one client's
//!   depth-k window, not just concurrent clients. Batch output is
//!   pinned bit-identical to per-instance solves (PR 5's E15 gate), so
//!   coalescing is invisible in the responses.
//! * **Idle connections sleep.** A reader waiting for the *first* byte
//!   of a frame polls at the wide [`ServerConfig::idle_poll_interval`];
//!   only once a frame has started does it tighten to
//!   [`ServerConfig::poll_interval`] so the shutdown drain grace keeps
//!   its PR 8 bound. Pure idle wakeups are counted
//!   (`StatusInfo::idle_wakeups`) and pinned low by a test.
//! * **Graceful shutdown.** [`Server::shutdown`] stops the acceptor,
//!   lets every reader finish the frame it started (bounded by
//!   [`ServerConfig::shutdown_drain_grace`]), waits for the shards to
//!   drain every admitted job — writers flush those replies — and only
//!   then returns. No admitted request is ever dropped with a dead
//!   socket.
//! * **Self-healing.** Each coalesced solve batch runs under
//!   `catch_unwind`: a panicking job costs its batch a typed
//!   [`ErrorCode::Internal`] reply, never the shard. If an executor
//!   thread dies anyway, a supervisor respawns it and **re-queues** the
//!   admitted jobs it was holding (exactly once per job — a job that
//!   kills its executor twice is answered `Internal`), until shutdown
//!   has drained every connection. Accept errors
//!   are split transient/fatal, and the whole failure ledger — panics
//!   caught, shards respawned, accept faults, client retries — is
//!   visible in `Status`. See ARCHITECTURE.md's "Failure model".
//!   Deterministic chaos (fault-injected connections, accept-time
//!   resets, scheduled panics/crashes) is switched by
//!   [`ServerConfig::chaos`] and exercised by experiment E20.
//!
//! Registration, containment, and status requests are handled inline on
//! the reader thread. Registration pre-builds the template's support
//! index and propagation program **before** taking the registry lock
//! ([`CompiledTemplate::warm`]), so the heavy lowering happens off the
//! serving path: the first solve against a fresh template pays a hash
//! probe, not a compile.

use crate::codec::{
    legacy_error_frame, parse_header, parse_header_prefix, DecodeError, ErrorCode, Request,
    Response, ShardStatus, StatusInfo, HEADER_LEN, LEGACY_HEADER_LEN, PROTOCOL_VERSION,
    RETRY_ID_BIT,
};
use crate::pool;
use crate::registry::TemplateRegistry;
use crate::transport::{FaultConfig, FaultStream, Transport};
use cqcs_core::{CompiledTemplate, Session, Solution};
use cqcs_cq::{contained_in, parse_query};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Deterministic fault injection for chaos runs, carried by
/// [`ServerConfig::chaos`]. `None`/zeroed fields are the production
/// path; every knob is driven by the seed so a chaos run replays
/// bit-identically.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Master seed. The acceptor derives per-connection
    /// [`FaultConfig`] seeds and its own accept-reset schedule from it.
    pub seed: u64,
    /// Per-operation fault probability for the [`FaultStream`] wrapped
    /// around every accepted connection (0 = do not wrap).
    pub fault_rate: f64,
    /// Probability an accepted connection is reset on the spot before
    /// any byte is served (counted in `StatusInfo::accept_faults`).
    pub accept_reset_rate: f64,
    /// Every Nth executor solve batch panics **inside** the per-job
    /// `catch_unwind` (0 = never): exercises panic containment — the
    /// batch's requests get typed `Internal` errors, the shard lives.
    pub panic_every: u64,
    /// Every Nth executor batch panics **outside** the containment
    /// boundary (0 = never), killing the shard thread: exercises
    /// supervision — the supervisor respawns the executor and re-queues
    /// the admitted jobs it was holding.
    pub crash_every: u64,
}

impl ChaosConfig {
    /// A chaos config where every probabilistic knob runs at
    /// `fault_rate` faults per op, resets at a quarter of that, and
    /// deterministic panic/crash injection stays off.
    pub fn new(seed: u64, fault_rate: f64) -> ChaosConfig {
        ChaosConfig {
            seed,
            fault_rate,
            accept_reset_rate: fault_rate / 4.0,
            panic_every: 0,
            crash_every: 0,
        }
    }
}

/// Tunables for [`Server::bind`]. `Default` is sized for tests and
/// small deployments; the serve binary exposes each knob.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum templates resident in the registry (LRU beyond this).
    pub registry_capacity: usize,
    /// Maximum outstanding solve jobs (admitted, not yet answered,
    /// summed over all shards); beyond this new solves are refused with
    /// `Overloaded`.
    pub max_queue_depth: usize,
    /// Worker threads for each coalesced `par_solve_batch` call.
    pub batch_threads: usize,
    /// Executor shards: solve jobs are routed by template-id hash to
    /// one of this many independent coalescing executor threads.
    pub executor_shards: usize,
    /// How long a shard waits for more jobs to coalesce after the
    /// first one arrives. Zero (the default) batches only what is
    /// already queued — lowest latency; a positive window trades
    /// first-request latency for bigger shared batches.
    pub coalesce_window: Duration,
    /// Granularity at which blocked reads re-check the shutdown flag
    /// once a frame has started arriving.
    pub poll_interval: Duration,
    /// Granularity at which a connection waiting for the *first* byte
    /// of a frame re-checks the shutdown flag. Much wider than
    /// [`ServerConfig::poll_interval`]: an idle connection has nothing
    /// to drain, so waking it 40×/s is pure overhead. The cost is
    /// shutdown noticing idle connections this much later, never
    /// correctness.
    pub idle_poll_interval: Duration,
    /// How long, once shutdown begins, a connection keeps waiting for
    /// the rest of a frame it already started reading. A well-behaved
    /// client finishes within the grace; a stalled one (partial header
    /// or payload, then silence) is cut off so [`Server::shutdown`]
    /// cannot block on it forever.
    pub shutdown_drain_grace: Duration,
    /// Deterministic fault injection; `None` (the default) is the
    /// production path with no chaos machinery on any hot path.
    pub chaos: Option<ChaosConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            registry_capacity: 64,
            max_queue_depth: 1024,
            batch_threads: 1,
            executor_shards: 2,
            coalesce_window: Duration::ZERO,
            poll_interval: Duration::from_millis(25),
            idle_poll_interval: Duration::from_millis(500),
            shutdown_drain_grace: Duration::from_millis(1000),
            chaos: None,
        }
    }
}

/// Locks a mutex, shrugging off poisoning: an executor that panicked
/// while touching shard state must not take the supervisor (or
/// shutdown) down with it — the protected data is counters and job
/// vectors, all valid at every step.
fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Upper bound on jobs merged into one executor pass, whatever the
/// window says — bounds reply latency under a flood.
const MAX_COALESCE_JOBS: usize = 256;

/// Writer batching bound: a writer drains at most this many queued
/// bytes into one `write_all` before flushing, so one syscall can carry
/// a pipelined window's worth of responses without unbounded buffering.
const MAX_WRITE_BATCH: usize = 1 << 20;

/// How a queued job wants its solutions wrapped.
enum JobKind {
    /// A `Solve` request: exactly one instance, answered `Solved`.
    Single,
    /// A `SolveBatch` request: answered `BatchSolved` in order.
    Batch,
}

/// What a connection's writer thread writes: either a response to
/// encode under its correlation id, or pre-framed bytes (the v1-framed
/// refusal sent to old-protocol peers).
enum WriteItem {
    Reply(u64, Response),
    Raw(Vec<u8>),
}

struct Job {
    template_id: u64,
    template: Arc<CompiledTemplate>,
    instances: Vec<cqcs_structures::Structure>,
    kind: JobKind,
    enqueued: Instant,
    deadline_ms: u32,
    /// The correlation id the reply must echo.
    request_id: u64,
    /// The owning connection's writer channel.
    reply: Sender<WriteItem>,
    /// Set when the supervisor re-queues this job after an executor
    /// crash. A job that kills its executor **twice** is answered with
    /// a typed `Internal` error instead of a third chance — re-queueing
    /// must never loop a poison job forever.
    requeued: bool,
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    solves: AtomicU64,
    batches: AtomicU64,
    coalesced_jobs: AtomicU64,
    max_coalesced_jobs: AtomicU64,
    overloaded: AtomicU64,
    deadline_expired: AtomicU64,
    idle_wakeups: AtomicU64,
    panics_caught: AtomicU64,
    shards_respawned: AtomicU64,
    accept_faults: AtomicU64,
    accept_transient_errors: AtomicU64,
    accept_fatal_errors: AtomicU64,
    client_retries: AtomicU64,
    /// Sequence numbers for deterministic chaos injection
    /// (`ChaosConfig::panic_every` / `crash_every`).
    chaos_solve_seq: AtomicU64,
    chaos_batch_seq: AtomicU64,
}

/// One executor shard: its queue's two halves (the producer is taken on
/// shutdown; the consumer is shared so a respawned executor resumes the
/// same queue), the jobs the current executor has swept but not yet
/// answered (re-queued by the supervisor if the executor dies), and the
/// shard's public counters.
struct Shard {
    sender: Mutex<Option<Sender<Job>>>,
    /// The consumer half, shared between the live executor thread and
    /// any respawned successor. Uncontended in steady state — exactly
    /// one executor per shard is ever alive.
    receiver: Arc<Mutex<Receiver<Job>>>,
    /// Jobs swept off the queue by the executor and not yet answered.
    /// The executor parks each sweep here before solving and drains it
    /// group by group; if the thread dies, whatever is left is exactly
    /// the set of admitted jobs that would otherwise be lost, and the
    /// supervisor re-queues them.
    processing: Mutex<Vec<Job>>,
    /// Jobs admitted to this shard and not yet answered.
    depth: AtomicUsize,
    batches: AtomicU64,
    max_coalesced: AtomicU64,
}

struct Shared {
    cfg: ServerConfig,
    registry: Mutex<TemplateRegistry>,
    shards: Vec<Shard>,
    /// Admitted-but-unanswered solve jobs across all shards (admission
    /// control bound).
    outstanding: AtomicUsize,
    /// Cleared when shutdown begins: acceptor stops accepting and
    /// readers stop reading *new* requests.
    accepting: AtomicBool,
    /// Cleared by shutdown only once every connection has drained: until
    /// then the supervisor keeps respawning crashed executors, whose
    /// swept jobs hold replies the connection writers are waiting for.
    supervising: AtomicBool,
    counters: Counters,
}

/// Routes a template id to an executor shard. Registry ids are
/// sequential, so a multiplicative (Fibonacci) hash spreads them; the
/// function is pure so every request for a template lands on the same
/// shard — the invariant coalescing relies on.
fn shard_index(template_id: u64, shards: usize) -> usize {
    (template_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17) as usize % shards
}

/// A running server. Bind with [`Server::bind`], stop with
/// [`Server::shutdown`] (which drains in-flight work) — dropping the
/// handle shuts down the same way.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    /// One slot per shard; `None` while a crashed executor awaits
    /// respawn. Shared with the supervisor, which swaps in fresh
    /// handles.
    executors: Arc<Mutex<Vec<Option<JoinHandle<()>>>>>,
    supervisor: Option<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds a listener (use port 0 for an ephemeral port) and starts
    /// the acceptor and executor-shard threads.
    pub fn bind(addr: impl ToSocketAddrs, cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let nshards = cfg.executor_shards.max(1);
        let mut shards = Vec::with_capacity(nshards);
        for _ in 0..nshards {
            let (tx, rx) = mpsc::channel::<Job>();
            shards.push(Shard {
                sender: Mutex::new(Some(tx)),
                receiver: Arc::new(Mutex::new(rx)),
                processing: Mutex::new(Vec::new()),
                depth: AtomicUsize::new(0),
                batches: AtomicU64::new(0),
                max_coalesced: AtomicU64::new(0),
            });
        }
        let shared = Arc::new(Shared {
            registry: Mutex::new(TemplateRegistry::new(cfg.registry_capacity)),
            shards,
            outstanding: AtomicUsize::new(0),
            accepting: AtomicBool::new(true),
            supervising: AtomicBool::new(true),
            counters: Counters::default(),
            cfg,
        });
        let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let executors: Arc<Mutex<Vec<Option<JoinHandle<()>>>>> = Arc::new(Mutex::new(
            (0..nshards)
                .map(|i| Some(spawn_executor(&shared, i)))
                .collect(),
        ));
        let supervisor = {
            let shared = Arc::clone(&shared);
            let executors = Arc::clone(&executors);
            std::thread::spawn(move || supervisor_loop(&shared, &executors))
        };
        let acceptor = {
            let shared = Arc::clone(&shared);
            let connections = Arc::clone(&connections);
            std::thread::spawn(move || acceptor_loop(&listener, &shared, &connections))
        };
        Ok(Server {
            addr,
            shared,
            acceptor: Some(acceptor),
            executors,
            supervisor: Some(supervisor),
            connections,
        })
    }

    /// The bound address (resolves the actual port when bound to 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains every admitted request, joins all
    /// threads. Blocks until the last in-flight response is written.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    /// Blocks until the acceptor exits (i.e. until another thread calls
    /// nothing — effectively forever). The serve binary's main loop.
    pub fn wait(mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        // 1. Stop admitting connections and new requests.
        self.shared.accepting.store(false, Ordering::SeqCst);
        // 2. Wake the acceptor's blocking accept() with a throwaway
        //    connection and join it.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // 3. Join connection threads. Each reader finishes the frame it
        //    is reading and exits; each writer drains once the reader
        //    and every in-flight job for that connection has dropped
        //    its channel — replies still come from the shards, which
        //    are running (and respawned on a crash) until step 5.
        let conns = std::mem::take(&mut *self.connections.lock().unwrap());
        for h in conns {
            let _ = h.join();
        }
        // 4. Stop the supervisor (it re-checks the flag every
        //    poll_interval). An executor that crashed after its last
        //    pass would strand its queue (and any swept-but-unanswered
        //    jobs): give every dead shard one more recovery so the
        //    drain below really drains everything admitted.
        self.shared.supervising.store(false, Ordering::SeqCst);
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
        {
            let mut handles = lock_clean(&self.executors);
            for (i, slot) in handles.iter_mut().enumerate() {
                let crashed = match slot {
                    None => true,
                    Some(h) => h.is_finished(),
                };
                if crashed {
                    if let Some(h) = slot.take() {
                        let _ = h.join();
                    }
                    recover_shard(&self.shared, i);
                    *slot = Some(spawn_executor(&self.shared, i));
                }
            }
        }
        // 5. Drop each shard queue's producer half: the shard drains
        //    every remaining job, then sees disconnection and exits.
        for shard in &self.shared.shards {
            drop(lock_clean(&shard.sender).take());
        }
        let handles = std::mem::take(&mut *lock_clean(&self.executors));
        for h in handles.into_iter().flatten() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.acceptor.is_some() || !lock_clean(&self.executors).is_empty() {
            self.shutdown_inner();
        }
    }
}

/// Starts (or restarts) the executor thread for one shard, resuming the
/// shard's shared queue receiver.
fn spawn_executor(shared: &Arc<Shared>, shard_ix: usize) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::spawn(move || executor_loop(&shared, shard_ix))
}

/// Salvages the jobs a dead executor had swept but not answered:
/// first-time casualties go back on the shard's queue (marked
/// `requeued`); a job that already crashed an executor once is answered
/// with a typed `Internal` error instead — exactly-once re-queueing, no
/// poison-job loop. Called only while the shard has no live executor.
fn recover_shard(shared: &Arc<Shared>, shard_ix: usize) {
    let shard = &shared.shards[shard_ix];
    let orphans: Vec<Job> = lock_clean(&shard.processing).drain(..).collect();
    for mut job in orphans {
        if job.requeued {
            finish_job(shared, shard_ix);
            let _ = job.reply.send(WriteItem::Reply(
                job.request_id,
                error_response(
                    ErrorCode::Internal,
                    "executor crashed twice while running this job",
                ),
            ));
            continue;
        }
        job.requeued = true;
        let sent = {
            let sender = lock_clean(&shard.sender);
            match sender.as_ref() {
                Some(tx) => tx.send(job).is_ok(),
                None => false,
            }
        };
        if !sent {
            // Shutdown already took the sender; the writer channels are
            // about to drain, so account the job as finished.
            finish_job(shared, shard_ix);
        }
    }
}

/// Watches the executor threads and respawns any that die, re-queueing
/// the admitted jobs the casualty was holding. Polls at
/// `poll_interval`; exits when shutdown clears `supervising` (after
/// which `shutdown_inner` does one final recovery pass itself).
fn supervisor_loop(shared: &Arc<Shared>, executors: &Arc<Mutex<Vec<Option<JoinHandle<()>>>>>) {
    while shared.supervising.load(Ordering::SeqCst) {
        std::thread::sleep(shared.cfg.poll_interval);
        let nshards = shared.shards.len();
        for i in 0..nshards {
            let finished = {
                let handles = lock_clean(executors);
                handles[i].as_ref().is_some_and(JoinHandle::is_finished)
            };
            if !finished {
                continue;
            }
            // is_finished guarantees this join cannot block.
            let handle = lock_clean(executors)[i].take();
            if let Some(h) = handle {
                let _ = h.join();
            }
            if !shared.supervising.load(Ordering::SeqCst) {
                // Shutdown owns recovery from here.
                return;
            }
            shared
                .counters
                .shards_respawned
                .fetch_add(1, Ordering::Relaxed);
            recover_shard(shared, i);
            lock_clean(executors)[i] = Some(spawn_executor(shared, i));
        }
    }
}

/// Accept errors that name a moment, not a broken listener: the peer
/// aborted its half-open connection, a signal landed, or a nonblocking
/// accept had nothing ready. Retrying after `poll_interval` is correct.
/// Anything else (EMFILE, EBADF, ...) is counted as fatal — the
/// acceptor still only backs off and retries (a file-descriptor squeeze
/// can pass), but the two classes are tallied separately in `Status` so
/// an operator can tell bad weather from breakage.
fn accept_error_is_transient(kind: ErrorKind) -> bool {
    matches!(
        kind,
        ErrorKind::WouldBlock
            | ErrorKind::TimedOut
            | ErrorKind::ConnectionAborted
            | ErrorKind::ConnectionReset
            | ErrorKind::Interrupted
    )
}

fn acceptor_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    connections: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    // The accept-time chaos schedule: one reset draw per accepted
    // connection, plus a derived per-connection fault seed. Seeded off
    // the master chaos seed so the whole acceptor replays exactly.
    let mut chaos_rng = shared
        .cfg
        .chaos
        .as_ref()
        .map(|c| StdRng::seed_from_u64(c.seed ^ 0xACCE_9705));
    let mut accepted: u64 = 0;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) => {
                // Either class must back off, never busy-spin.
                if !shared.accepting.load(Ordering::SeqCst) {
                    return;
                }
                let counter = if accept_error_is_transient(e.kind()) {
                    &shared.counters.accept_transient_errors
                } else {
                    &shared.counters.accept_fatal_errors
                };
                counter.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(shared.cfg.poll_interval);
                continue;
            }
        };
        if !shared.accepting.load(Ordering::SeqCst) {
            // The wake-up poke (or a straggler): refuse politely.
            return;
        }
        accepted += 1;
        let transport: Box<dyn Transport> = match (&shared.cfg.chaos, &mut chaos_rng) {
            (Some(chaos), Some(rng)) => {
                if chaos.accept_reset_rate > 0.0 && rng.gen_bool(chaos.accept_reset_rate) {
                    // Injected accept-time reset: the client sees the
                    // connection die before its first byte is served.
                    shared
                        .counters
                        .accept_faults
                        .fetch_add(1, Ordering::Relaxed);
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                    continue;
                }
                if chaos.fault_rate > 0.0 {
                    let seed = chaos
                        .seed
                        .wrapping_add(accepted.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    Box::new(FaultStream::new(
                        stream,
                        FaultConfig::new(seed, chaos.fault_rate),
                    ))
                } else {
                    Box::new(stream)
                }
            }
            _ => Box::new(stream),
        };
        let shared = Arc::clone(shared);
        let handle = std::thread::spawn(move || connection_loop(&shared, transport));
        let mut conns = connections.lock().unwrap();
        // Reap threads whose connections already ended so a long-running
        // server does not accumulate one handle per connection ever made.
        conns.retain(|h| !h.is_finished());
        conns.push(handle);
    }
}

/// Reads exactly `buf.len()` bytes **mid-frame**: the caller has
/// already committed to a frame, so EOF is an error, the stream polls
/// at the tight `poll_interval`, and once shutdown begins the read is
/// drained only for [`ServerConfig::shutdown_drain_grace`] — a peer
/// that stalls mid-frame must not pin the connection thread (and so
/// [`Server::shutdown`], which joins it) forever. The caller is
/// responsible for the stream's read timeout being `poll_interval`.
fn read_exact_polled(
    stream: &mut dyn Transport,
    buf: &mut [u8],
    shared: &Shared,
) -> std::io::Result<()> {
    let mut filled = 0usize;
    let mut drain_deadline: Option<Instant> = None;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if shared.accepting.load(Ordering::SeqCst) {
                    continue;
                }
                let deadline = *drain_deadline
                    .get_or_insert_with(|| Instant::now() + shared.cfg.shutdown_drain_grace);
                if Instant::now() >= deadline {
                    return Err(std::io::Error::new(
                        ErrorKind::TimedOut,
                        "peer stalled mid-frame during shutdown",
                    ));
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// How much a connection reads per syscall: one chunk usually carries a
/// pipelined window's worth of small frames, so the steady-state cost
/// is ~one read per window instead of three per frame.
const READ_CHUNK: usize = 64 * 1024;

/// Which read timeout is currently installed on the socket — tracked so
/// mode changes (one `setsockopt`) happen only at idle/busy
/// transitions, not per frame.
#[derive(PartialEq, Clone, Copy)]
enum TimeoutMode {
    Unset,
    Idle,
    Poll,
}

/// Buffered frame input over one connection. Owns the read half plus a
/// fixed chunk buffer allocated once per connection; frames are parsed
/// out of the buffer and only payload bytes beyond the chunk fall back
/// to direct reads. The idle/poll timeout split lives here: waiting
/// for a frame's *first* byte uses the wide
/// [`ServerConfig::idle_poll_interval`] (wakeups counted), anything
/// mid-frame the tight [`ServerConfig::poll_interval`] so the shutdown
/// drain grace keeps its bound.
struct FrameReader {
    stream: Box<dyn Transport>,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    mode: TimeoutMode,
}

impl FrameReader {
    fn new(stream: Box<dyn Transport>) -> FrameReader {
        FrameReader {
            stream,
            buf: vec![0u8; READ_CHUNK],
            start: 0,
            end: 0,
            mode: TimeoutMode::Unset,
        }
    }

    fn available(&self) -> usize {
        self.end - self.start
    }

    /// The next `n` buffered bytes, without consuming them.
    fn peek(&self, n: usize) -> &[u8] {
        &self.buf[self.start..self.start + n]
    }

    /// Consumes and returns the next `n` buffered bytes.
    fn take(&mut self, n: usize) -> &[u8] {
        let s = &self.buf[self.start..self.start + n];
        self.start += n;
        s
    }

    fn set_mode(&mut self, shared: &Shared, mode: TimeoutMode) {
        if self.mode != mode {
            let t = match mode {
                TimeoutMode::Idle => shared.cfg.idle_poll_interval,
                _ => shared.cfg.poll_interval,
            };
            let _ = self.stream.set_read_timeout(Some(t));
            self.mode = mode;
        }
    }

    /// Ensures at least `need` contiguous buffered bytes, reading as
    /// much as the socket offers per syscall. `at_boundary` marks the
    /// wait for a frame's first byte: there EOF and shutdown end the
    /// connection cleanly (`Ok(false)`) and timeouts tick the
    /// idle-wakeup counter; once any byte of a frame exists, EOF is an
    /// error and shutdown grants only the drain grace.
    fn fill(&mut self, shared: &Shared, need: usize, at_boundary: bool) -> std::io::Result<bool> {
        debug_assert!(need <= self.buf.len());
        if self.available() >= need {
            return Ok(true);
        }
        if self.start + need > self.buf.len() {
            // Compact so the frame head fits contiguously.
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        let mut awaiting_first = at_boundary && self.available() == 0;
        let mut drain_deadline: Option<Instant> = None;
        self.set_mode(
            shared,
            if awaiting_first {
                TimeoutMode::Idle
            } else {
                TimeoutMode::Poll
            },
        );
        loop {
            let dst_from = self.end;
            match self.stream.read(&mut self.buf[dst_from..]) {
                Ok(0) => {
                    return if awaiting_first {
                        Ok(false)
                    } else {
                        Err(std::io::Error::new(
                            ErrorKind::UnexpectedEof,
                            "connection closed mid-frame",
                        ))
                    };
                }
                Ok(n) => {
                    self.end += n;
                    if awaiting_first {
                        awaiting_first = false;
                        self.set_mode(shared, TimeoutMode::Poll);
                    }
                    if self.available() >= need {
                        return Ok(true);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    if shared.accepting.load(Ordering::SeqCst) {
                        if awaiting_first {
                            shared.counters.idle_wakeups.fetch_add(1, Ordering::Relaxed);
                        }
                        continue;
                    }
                    if awaiting_first {
                        // An idle wait gives up immediately at shutdown.
                        return Ok(false);
                    }
                    let deadline = *drain_deadline
                        .get_or_insert_with(|| Instant::now() + shared.cfg.shutdown_drain_grace);
                    if Instant::now() >= deadline {
                        return Err(std::io::Error::new(
                            ErrorKind::TimedOut,
                            "peer stalled mid-frame during shutdown",
                        ));
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Reads a `len`-byte payload into `payload` (pooled): whatever is
    /// already buffered is copied out, and only an overflow beyond the
    /// chunk size falls back to direct polled reads.
    fn read_payload(
        &mut self,
        shared: &Shared,
        payload: &mut Vec<u8>,
        len: usize,
    ) -> std::io::Result<()> {
        pool::reserve_payload(payload, len);
        let buffered = len.min(self.available());
        payload[..buffered].copy_from_slice(self.peek(buffered));
        self.start += buffered;
        if buffered < len {
            self.set_mode(shared, TimeoutMode::Poll);
            read_exact_polled(&mut *self.stream, &mut payload[buffered..], shared)?;
        }
        Ok(())
    }
}

fn error_response(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error {
        code,
        message: message.into(),
    }
}

/// Appends one writer item to the batching buffer, encoding responses
/// in place. An oversized response is substituted with a small
/// structured error under the same id rather than desynchronizing the
/// stream; `encode_into` truncates its partial frame on failure, so the
/// buffer never carries half a frame.
fn append_write_item(buf: &mut Vec<u8>, item: WriteItem) {
    pool::track_growth(buf, |out| match item {
        WriteItem::Reply(id, resp) => {
            if let Err(e) = resp.encode_into(id, out) {
                error_response(ErrorCode::Internal, e.to_string())
                    .encode_into(id, out)
                    .expect("error frames are small");
            }
        }
        WriteItem::Raw(bytes) => out.extend_from_slice(&bytes),
    });
}

/// The connection's writer half: drains the reply channel in completion
/// order, batching whatever is already queued into one write. Exits
/// when every sender (the reader plus each in-flight job) is gone, or
/// on a write error (peer hung up — in-flight replies are discarded by
/// the channel senders failing silently).
fn writer_loop(mut stream: Box<dyn Transport>, rx: &Receiver<WriteItem>) {
    // Sized up front so batch-size jitter cannot trigger mid-run
    // growth: a window of small replies fits the initial reservation
    // and the pool's growth counter stays flat in steady state.
    let mut buf: Vec<u8> = Vec::with_capacity(READ_CHUNK);
    while let Ok(first) = rx.recv() {
        buf.clear();
        append_write_item(&mut buf, first);
        // As in `executor_loop`: give the executor that woke us its
        // quantum back, so a coalesced batch's replies land in one
        // write instead of one write per reply.
        std::thread::yield_now();
        while buf.len() < MAX_WRITE_BATCH {
            match rx.try_recv() {
                Ok(item) => append_write_item(&mut buf, item),
                Err(_) => break,
            }
        }
        if stream
            .write_all(&buf)
            .and_then(|()| stream.flush())
            .is_err()
        {
            return;
        }
    }
}

fn connection_loop(shared: &Arc<Shared>, stream: Box<dyn Transport>) {
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone_box() else {
        return;
    };
    let (reply_tx, reply_rx) = mpsc::channel::<WriteItem>();
    let writer = std::thread::spawn(move || writer_loop(write_half, &reply_rx));
    reader_loop(shared, stream, &reply_tx);
    // The reader is done admitting work; once the shards answer every
    // job this connection still has in flight, the writer's channel
    // disconnects and it exits with all replies flushed.
    drop(reply_tx);
    let _ = writer.join();
}

fn reader_loop(shared: &Arc<Shared>, stream: Box<dyn Transport>, reply: &Sender<WriteItem>) {
    let mut rd = FrameReader::new(stream);
    // Reused across every frame on this connection: steady state reads
    // allocate no frame buffers (see `crate::pool`).
    let mut payload: Vec<u8> = Vec::new();
    loop {
        // The 8-byte prefix v1 and v2 headers share: enough to vet
        // magic and version before committing to the v2 header length.
        match rd.fill(shared, LEGACY_HEADER_LEN, true) {
            Ok(true) => {}
            Ok(false) | Err(_) => return,
        }
        if let Err(e) = parse_header_prefix(
            rd.peek(LEGACY_HEADER_LEN)
                .try_into()
                .expect("peek returns the requested length"),
        ) {
            // A v1 peer (or garbage). We cannot answer in v2 framing —
            // the peer would not recognize it — so the typed refusal
            // goes out in the legacy framing both speak, then hang up.
            let code = match e {
                DecodeError::UnsupportedVersion(_) => ErrorCode::UnsupportedVersion,
                _ => ErrorCode::Malformed,
            };
            let _ = reply.send(WriteItem::Raw(legacy_error_frame(code, &e.to_string())));
            return;
        }
        match rd.fill(shared, HEADER_LEN, false) {
            Ok(true) => {}
            Ok(false) | Err(_) => return,
        }
        let header: [u8; HEADER_LEN] = rd
            .take(HEADER_LEN)
            .try_into()
            .expect("take returns the requested length");
        let (kind, id, len) = match parse_header(&header) {
            Ok(v) => v,
            Err(e) => {
                // Magic and version already passed, so this is an
                // oversized length claim: framing cannot be trusted
                // past this point. The id bytes are still well-defined,
                // so the refusal can at least name the request.
                let id = u64::from_le_bytes(header[4..12].try_into().expect("8 bytes"));
                let _ = reply.send(WriteItem::Reply(
                    id,
                    error_response(ErrorCode::Malformed, e.to_string()),
                ));
                return;
            }
        };
        if rd.read_payload(shared, &mut payload, len as usize).is_err() {
            return;
        }
        shared.counters.requests.fetch_add(1, Ordering::Relaxed);
        if id & RETRY_ID_BIT != 0 {
            // The id is echoed verbatim either way; the flag only
            // makes client-side retry pressure visible in Status.
            shared
                .counters
                .client_retries
                .fetch_add(1, Ordering::Relaxed);
        }
        let request = match Request::decode_payload(kind, &payload) {
            Ok(r) => r,
            Err(e) => {
                // Framing held, so the stream is still in sync: answer
                // the error and keep serving this connection.
                if reply
                    .send(WriteItem::Reply(
                        id,
                        error_response(ErrorCode::Malformed, e.to_string()),
                    ))
                    .is_err()
                {
                    return;
                }
                continue;
            }
        };
        let inline = match request {
            Request::Solve {
                template_id,
                deadline_ms,
                instance,
            } => enqueue_solve(
                shared,
                id,
                template_id,
                deadline_ms,
                vec![instance],
                JobKind::Single,
                reply,
            ),
            Request::SolveBatch {
                template_id,
                deadline_ms,
                instances,
            } => enqueue_solve(
                shared,
                id,
                template_id,
                deadline_ms,
                instances,
                JobKind::Batch,
                reply,
            ),
            other => Some(handle_inline(shared, other)),
        };
        if let Some(resp) = inline {
            if reply.send(WriteItem::Reply(id, resp)).is_err() {
                return;
            }
        }
    }
}

/// Handles the request kinds answered on the reader thread (no solver
/// work): registration, containment, status.
fn handle_inline(shared: &Arc<Shared>, request: Request) -> Response {
    match request {
        Request::RegisterTemplate { template } => {
            // Compile AND pre-build the serving-path state (support
            // index, propagation program) before taking the registry
            // lock: the heavy lowering happens here, off the solve
            // path, and other connections never block on it.
            let compiled = Arc::new(CompiledTemplate::compile(&template));
            compiled.warm();
            let id = shared.registry.lock().unwrap().insert(compiled);
            Response::TemplateRegistered { id }
        }
        Request::Containment { q1, q2 } => {
            let parsed = parse_query(&q1).and_then(|p1| Ok((p1, parse_query(&q2)?)));
            match parsed.and_then(|(p1, p2)| contained_in(&p1, &p2)) {
                Ok(contained) => Response::Containment { contained },
                Err(e) => error_response(ErrorCode::InvalidQuery, e.to_string()),
            }
        }
        Request::Status => {
            let (templates, capacity, evictions) = {
                let reg = shared.registry.lock().unwrap();
                (reg.len() as u32, reg.capacity() as u32, reg.evictions())
            };
            let c = &shared.counters;
            Response::Status(StatusInfo {
                protocol_version: PROTOCOL_VERSION,
                templates,
                registry_capacity: capacity,
                evictions,
                queue_depth: shared.outstanding.load(Ordering::SeqCst) as u32,
                max_queue_depth: shared.cfg.max_queue_depth as u32,
                requests: c.requests.load(Ordering::Relaxed),
                solves: c.solves.load(Ordering::Relaxed),
                batches: c.batches.load(Ordering::Relaxed),
                coalesced_jobs: c.coalesced_jobs.load(Ordering::Relaxed),
                max_coalesced_jobs: c.max_coalesced_jobs.load(Ordering::Relaxed) as u32,
                overloaded: c.overloaded.load(Ordering::Relaxed),
                deadline_expired: c.deadline_expired.load(Ordering::Relaxed),
                idle_wakeups: c.idle_wakeups.load(Ordering::Relaxed),
                panics_caught: c.panics_caught.load(Ordering::Relaxed),
                shards_respawned: c.shards_respawned.load(Ordering::Relaxed),
                accept_faults: c.accept_faults.load(Ordering::Relaxed),
                accept_transient_errors: c.accept_transient_errors.load(Ordering::Relaxed),
                accept_fatal_errors: c.accept_fatal_errors.load(Ordering::Relaxed),
                client_retries: c.client_retries.load(Ordering::Relaxed),
                shards: shared
                    .shards
                    .iter()
                    .map(|s| ShardStatus {
                        queue_depth: s.depth.load(Ordering::SeqCst) as u32,
                        batches: s.batches.load(Ordering::Relaxed),
                        max_coalesced: s.max_coalesced.load(Ordering::Relaxed) as u32,
                    })
                    .collect(),
            })
        }
        Request::Solve { .. } | Request::SolveBatch { .. } => {
            unreachable!("solve kinds are enqueued, not handled inline")
        }
    }
}

/// Validates and admits a solve job onto its template's shard. Returns
/// `Some(response)` if the request was answered here (an error, or an
/// empty batch); `None` once the job is enqueued — the shard replies
/// through the connection's writer, tagged with `request_id`.
fn enqueue_solve(
    shared: &Arc<Shared>,
    request_id: u64,
    template_id: u64,
    deadline_ms: u32,
    instances: Vec<cqcs_structures::Structure>,
    kind: JobKind,
    reply: &Sender<WriteItem>,
) -> Option<Response> {
    let Some(template) = shared.registry.lock().unwrap().get(template_id) else {
        return Some(error_response(
            ErrorCode::UnknownTemplate,
            format!("template {template_id} is not registered (evicted or never known)"),
        ));
    };
    // The executor must never panic on a bad instance: vocabulary
    // compatibility is the reader thread's problem.
    for a in &instances {
        if !a.same_vocabulary(template.template()) {
            return Some(error_response(
                ErrorCode::VocabularyMismatch,
                "instance vocabulary differs from the template's",
            ));
        }
    }
    if instances.is_empty() {
        return Some(match kind {
            JobKind::Single => error_response(ErrorCode::Malformed, "solve without an instance"),
            JobKind::Batch => Response::BatchSolved(Vec::new()),
        });
    }
    // Admission control: bound the outstanding jobs across all shards.
    let prev = shared.outstanding.fetch_add(1, Ordering::SeqCst);
    if prev >= shared.cfg.max_queue_depth {
        shared.outstanding.fetch_sub(1, Ordering::SeqCst);
        shared.counters.overloaded.fetch_add(1, Ordering::Relaxed);
        return Some(error_response(
            ErrorCode::Overloaded,
            format!(
                "admission queue full ({} outstanding)",
                shared.cfg.max_queue_depth
            ),
        ));
    }
    let shard_ix = shard_index(template_id, shared.shards.len());
    let shard = &shared.shards[shard_ix];
    let job = Job {
        template_id,
        template,
        instances,
        kind,
        enqueued: Instant::now(),
        deadline_ms,
        request_id,
        reply: reply.clone(),
        requeued: false,
    };
    shard.depth.fetch_add(1, Ordering::SeqCst);
    let sent = {
        let sender = shard.sender.lock().unwrap();
        match sender.as_ref() {
            Some(tx) => tx.send(job).is_ok(),
            None => false,
        }
    };
    if !sent {
        shard.depth.fetch_sub(1, Ordering::SeqCst);
        shared.outstanding.fetch_sub(1, Ordering::SeqCst);
        return Some(error_response(
            ErrorCode::Internal,
            "server is shutting down",
        ));
    }
    None
}

fn executor_loop(shared: &Arc<Shared>, shard_ix: usize) {
    let shard = &shared.shards[shard_ix];
    loop {
        let mut jobs = {
            // Hold the shared receiver for the whole sweep: exactly one
            // executor per shard is alive, so the lock is uncontended;
            // a respawned successor resumes the same queue through it.
            let rx = lock_clean(&shard.receiver);
            // Block for the first job; disconnection (shutdown dropping
            // the shard's sender) wakes the recv immediately, so no
            // timeout poll — an idle shard sleeps.
            let Ok(first) = rx.recv() else {
                return;
            };
            let mut jobs = vec![first];
            // Coalesce: wait out the window (if any) for concurrent
            // clients, then sweep whatever else is already queued.
            let window_end = Instant::now() + shared.cfg.coalesce_window;
            if !shared.cfg.coalesce_window.is_zero() {
                while jobs.len() < MAX_COALESCE_JOBS {
                    let now = Instant::now();
                    let Some(left) = window_end
                        .checked_duration_since(now)
                        .filter(|d| !d.is_zero())
                    else {
                        break;
                    };
                    match rx.recv_timeout(left) {
                        Ok(job) => jobs.push(job),
                        Err(RecvTimeoutError::Timeout) => break,
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
            }
            // One scheduling quantum for the reader that woke us: on a
            // loaded single-CPU box the wake lands mid-window — the
            // reader has parsed one frame of a pipelined burst and is
            // still draining the rest. Yielding lets it finish
            // enqueueing the burst so the sweep below coalesces the
            // whole window instead of fragmenting it into single-job
            // batches.
            std::thread::yield_now();
            while jobs.len() < MAX_COALESCE_JOBS {
                match rx.try_recv() {
                    Ok(job) => jobs.push(job),
                    Err(_) => break,
                }
            }
            jobs
        };
        // Park the sweep where the supervisor can see it: if this
        // thread dies from here on, `processing` is exactly the set of
        // admitted jobs that would otherwise be dropped, and
        // `recover_shard` re-queues them.
        lock_clean(&shard.processing).append(&mut jobs);
        if let Some(chaos) = &shared.cfg.chaos {
            if chaos.crash_every > 0 {
                let n = shared
                    .counters
                    .chaos_batch_seq
                    .fetch_add(1, Ordering::Relaxed)
                    + 1;
                if n.is_multiple_of(chaos.crash_every) {
                    // Deliberately OUTSIDE any catch_unwind: this kills
                    // the executor thread to exercise supervision.
                    panic!("injected executor crash (chaos.crash_every)");
                }
            }
        }
        execute_processing(shared, shard_ix);
    }
}

/// Drains the shard's `processing` set group by group: each pass pulls
/// every parked job sharing the oldest job's template (preserving
/// arrival order — the hash is many-to-one, so different templates can
/// share a shard) and runs the group as one batch. Jobs leave
/// `processing` only at the moment their group executes, so a crash
/// between groups strands nothing.
fn execute_processing(shared: &Arc<Shared>, shard_ix: usize) {
    let shard = &shared.shards[shard_ix];
    loop {
        let group: Vec<Job> = {
            let mut parked = lock_clean(&shard.processing);
            let Some(template_id) = parked.first().map(|j| j.template_id) else {
                return;
            };
            let mut group = Vec::new();
            let mut rest = Vec::with_capacity(parked.len());
            for job in parked.drain(..) {
                if job.template_id == template_id {
                    group.push(job);
                } else {
                    rest.push(job);
                }
            }
            *parked = rest;
            group
        };
        execute_group(shared, shard_ix, group);
    }
}

/// Marks one job answered: the admission and shard-depth counters drop
/// before the reply is sent, so a client that sees the response never
/// observes its own job still "outstanding".
fn finish_job(shared: &Arc<Shared>, shard_ix: usize) {
    shared.shards[shard_ix].depth.fetch_sub(1, Ordering::SeqCst);
    shared.outstanding.fetch_sub(1, Ordering::SeqCst);
}

fn execute_group(shared: &Arc<Shared>, shard_ix: usize, group: Vec<Job>) {
    // Expire deadlines first — a late answer is worse than an honest
    // refusal, and expired instances must not pad the batch.
    let mut live: Vec<Job> = Vec::with_capacity(group.len());
    for job in group {
        let expired = job.deadline_ms > 0
            && job.enqueued.elapsed() > Duration::from_millis(u64::from(job.deadline_ms));
        if expired {
            shared
                .counters
                .deadline_expired
                .fetch_add(1, Ordering::Relaxed);
            finish_job(shared, shard_ix);
            let _ = job.reply.send(WriteItem::Reply(
                job.request_id,
                error_response(
                    ErrorCode::DeadlineExceeded,
                    format!("deadline of {} ms expired in the queue", job.deadline_ms),
                ),
            ));
        } else {
            live.push(job);
        }
    }
    if live.is_empty() {
        return;
    }
    // One coalesced batch over the concatenated instances: the same
    // compiled template, one executor pass, per-worker scratch shared
    // across all clients' instances.
    let template = Arc::clone(&live[0].template);
    let merged: Vec<cqcs_structures::Structure> = live
        .iter()
        .flat_map(|j| j.instances.iter().cloned())
        .collect();
    // Panic containment: a panicking solve must cost its own batch a
    // typed `Internal` error, not the whole shard. The closure only
    // touches the session and the chaos counter, both dropped or
    // atomically consistent on unwind, so AssertUnwindSafe is honest.
    let solve = || {
        if let Some(chaos) = &shared.cfg.chaos {
            if chaos.panic_every > 0 {
                let n = shared
                    .counters
                    .chaos_solve_seq
                    .fetch_add(1, Ordering::Relaxed)
                    + 1;
                if n.is_multiple_of(chaos.panic_every) {
                    panic!("injected solve panic (chaos.panic_every)");
                }
            }
        }
        let session = Session::from_template(template);
        session.par_solve_batch(&merged, shared.cfg.batch_threads)
    };
    let solutions = match catch_unwind(AssertUnwindSafe(solve)) {
        Ok(solutions) => solutions,
        Err(_) => {
            shared
                .counters
                .panics_caught
                .fetch_add(1, Ordering::Relaxed);
            for job in live {
                finish_job(shared, shard_ix);
                let _ = job.reply.send(WriteItem::Reply(
                    job.request_id,
                    error_response(
                        ErrorCode::Internal,
                        "solve panicked; the request was not completed",
                    ),
                ));
            }
            return;
        }
    };

    let c = &shared.counters;
    c.batches.fetch_add(1, Ordering::Relaxed);
    c.solves.fetch_add(merged.len() as u64, Ordering::Relaxed);
    if live.len() > 1 {
        c.coalesced_jobs
            .fetch_add(live.len() as u64, Ordering::Relaxed);
    }
    c.max_coalesced_jobs
        .fetch_max(live.len() as u64, Ordering::Relaxed);
    let shard = &shared.shards[shard_ix];
    shard.batches.fetch_add(1, Ordering::Relaxed);
    shard
        .max_coalesced
        .fetch_max(live.len() as u64, Ordering::Relaxed);

    // Split the merged results back per job, in order.
    let mut cursor = solutions.into_iter();
    for job in live {
        let take = job.instances.len();
        let sols: Vec<Solution> = cursor.by_ref().take(take).collect();
        let resp = match job.kind {
            JobKind::Single => {
                debug_assert_eq!(take, 1);
                Response::Solved(sols.into_iter().next().expect("one instance per solve"))
            }
            JobKind::Batch => Response::BatchSolved(sols),
        };
        finish_job(shared, shard_ix);
        let _ = job.reply.send(WriteItem::Reply(job.request_id, resp));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_error_classes() {
        for kind in [
            ErrorKind::WouldBlock,
            ErrorKind::TimedOut,
            ErrorKind::ConnectionAborted,
            ErrorKind::ConnectionReset,
            ErrorKind::Interrupted,
        ] {
            assert!(accept_error_is_transient(kind), "{kind:?} is weather");
        }
        for kind in [
            ErrorKind::PermissionDenied,
            ErrorKind::InvalidInput,
            ErrorKind::Other,
        ] {
            assert!(!accept_error_is_transient(kind), "{kind:?} is breakage");
        }
    }

    #[test]
    fn shard_index_is_stable_and_in_range() {
        for shards in 1..8 {
            for id in 0..64u64 {
                let ix = shard_index(id, shards);
                assert!(ix < shards);
                assert_eq!(ix, shard_index(id, shards), "pure function");
            }
        }
    }
}
