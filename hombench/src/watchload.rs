//! The in-process watch workload: `WatchSession::apply` over seeded
//! G(24, 24→44) ramps. One op is one applied delta. Ramps are
//! registered with `Session::watch` ahead of use, while the clock is
//! paused, so the timed section holds applies and nothing else.

use crate::parity::ParityGate;
use crate::replay::Replay;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{self, Inputs, Ramp, Workload, RAMP_MIN_STEPS};
use crate::{Run, RunOutput, SliceClock};
use cqcs_core::{Session, Solution, WatchSession, WatchStats};
use cqcs_structures::Structure;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Ramps each set-up streams through before it counts as warm.
const WARMUP_RAMPS: u64 = 16;

/// Observations held before the clock pauses to check them: bounds
/// the benchmark's own memory whatever the throughput.
const CHECK_EVERY: usize = 4096;

/// Ramps kept registered ahead of the stream: enough for a whole check
/// interval, so the timed loop rarely has to pause to register more.
const REGISTER_AHEAD: usize = CHECK_EVERY / RAMP_MIN_STEPS;

/// Untraced runs also replay the first this-many structures they
/// check; traced runs replay every update.
const REPLAY_SAMPLE: u64 = 256;

/// One observed watch solution: after registering (`step == None`) or
/// after applying `deltas[step]`.
struct Observed {
    seq: u64,
    ramp: u64,
    step: Option<usize>,
    started: Instant,
    finished: Instant,
    solution: Solution,
}

impl Observed {
    fn latency_us(&self) -> f64 {
        (self.finished - self.started).as_secs_f64() * 1e6
    }
}

/// The stream position: which ramp is open and how far it got.
struct Stream {
    session: Session,
    watch: Option<Open>,
    /// Registered watches not yet opened, each with what registering
    /// it answered.
    ahead: VecDeque<(Open, Observed)>,
    next_ramp: u64,
    /// Counters of the watches retired so far.
    stats: WatchStats,
}

/// The watch on ramp `index`, `step` deltas in.
struct Open {
    index: u64,
    ramp: Ramp,
    step: usize,
    watch: WatchSession,
}

impl Stream {
    fn new(session: Session) -> Stream {
        Stream {
            session,
            watch: None,
            ahead: VecDeque::with_capacity(REGISTER_AHEAD),
            next_ramp: 0,
            stats: WatchStats::default(),
        }
    }

    /// Registers the next ramps until [`REGISTER_AHEAD`] wait unopened.
    fn register_ahead(&mut self, inputs: &Inputs) {
        while self.ahead.len() < REGISTER_AHEAD {
            let index = self.next_ramp;
            self.next_ramp += 1;
            let ramp = inputs.ramp(index);
            let watch = self.session.watch(&ramp.base);
            // Registration is not an op: its record carries no timing.
            let now = Instant::now();
            let registered = Observed {
                seq: u64::MAX,
                ramp: index,
                step: None,
                started: now,
                finished: now,
                solution: watch.solution().clone(),
            };
            let open = Open {
                index,
                ramp,
                step: 0,
                watch,
            };
            self.ahead.push_back((open, registered));
        }
    }

    /// Applies the next delta, opening the next registered ramp first
    /// when the open one is exhausted, and records what the watch
    /// answered (and, on opening, what registering it answered).
    /// Returns whether the delta applied, or `None` when no registered
    /// ramp is left to open.
    fn step(&mut self, seq: &mut u64, out: &mut Vec<Observed>) -> Option<bool> {
        if self
            .watch
            .as_ref()
            .is_none_or(|o| o.step == o.ramp.deltas.len())
        {
            let (open, registered) = self.ahead.pop_front()?;
            self.retire();
            out.push(registered);
            self.watch = Some(open);
        }
        let o = self.watch.as_mut().expect("a watch is open");
        let started = Instant::now();
        let applied = o.watch.apply(&o.ramp.deltas[o.step]);
        out.push(Observed {
            seq: *seq,
            ramp: o.index,
            step: Some(o.step),
            started,
            finished: Instant::now(),
            solution: o.watch.solution().clone(),
        });
        *seq += 1;
        o.step += 1;
        Some(applied.is_ok())
    }

    /// Continues the stream on a freshly set-up session: the open watch
    /// retires and the registered ones are dropped unopened.
    fn restart(mut self, session: Session) -> Stream {
        self.retire();
        Stream {
            next_ramp: self.next_ramp,
            stats: self.stats,
            ..Stream::new(session)
        }
    }

    /// Folds the open watch's counters into the totals and closes it.
    fn retire(&mut self) {
        if let Some(o) = self.watch.take() {
            let s = o.watch.stats();
            self.stats.updates += s.updates;
            self.stats.repaired_establishes += s.repaired_establishes;
            self.stats.full_establishes += s.full_establishes;
            self.stats.acyclicity_skips += s.acyclicity_skips;
            self.stats.treewidth_skips += s.treewidth_skips;
            self.stats.monotone_refutations += s.monotone_refutations;
        }
    }
}

/// Compiles and warms a session on ramps `first..first + WARMUP_RAMPS`.
fn set_up(template: &Structure, inputs: &Inputs, first: u64) -> Session {
    let session = Session::compile(template);
    session.template().warm();
    for ramp in (first..first + WARMUP_RAMPS).map(|i| inputs.ramp(i)) {
        let mut watch = session.watch(&ramp.base);
        for d in &ramp.deltas {
            let _ = watch.apply(d);
        }
    }
    session
}

/// Follows the stream's observations in order, rebuilding each watched
/// structure independently of the watch, so it can be solved fresh.
struct Checker {
    current: Option<(Ramp, Structure)>,
    checked: u64,
}

impl Checker {
    /// The structure the watch held when it made observation `o`.
    fn advance(&mut self, inputs: &Inputs, o: &Observed) -> &Structure {
        let (ramp, next) = match (o.step, self.current.take()) {
            (None, _) => {
                let ramp = inputs.ramp(o.ramp);
                let base = ramp.base.clone();
                (ramp, base)
            }
            (Some(s), Some((ramp, current))) => {
                let next = ramp.deltas[s]
                    .apply(&current)
                    .expect("ramp deltas apply in order");
                (ramp, next)
            }
            (Some(_), None) => panic!("a ramp is observed from its registration on"),
        };
        self.checked += 1;
        &self.current.insert((ramp, next)).1
    }
}

pub fn run(cfg: &Run) -> Result<RunOutput, String> {
    let template = workloads::template();
    let inputs = Inputs::new(Workload::WatchMixed, cfg.seed);
    let session = Session::compile(&template);
    let mut replay = Replay::new(Arc::clone(session.template()))?;

    let mut stream: Option<Stream> = None;
    let mut setup_s = Vec::new();

    let mut tracer = Tracer::default();
    let mut gate = ParityGate::default();
    // Fresh solves by (ramp key, step): ramps cycle, and the structure a
    // watch holds at a step of a ramp is the same on every pass, so it
    // is solved fresh once per run and that answer checks the repeats.
    let mut fresh_by_step: HashMap<(u64, Option<usize>), Solution> = HashMap::new();
    let mut checker = Checker {
        current: None,
        checked: 0,
    };
    let mut clock = SliceClock::new(cfg.seconds);
    let mut observed: Vec<Observed> = Vec::new();
    let mut seq = 0u64;
    loop {
        if clock.epoch_due(setup_s.len()) {
            // A fresh session for each epoch, warmed on ramps of its
            // own; the stream goes on from a fresh ramp.
            let first = setup_s.len() as u64 * WARMUP_RAMPS;
            let t0 = Instant::now();
            let warmed = set_up(&template, &inputs, first);
            setup_s.push(t0.elapsed().as_secs_f64());
            stream = Some(match stream.take() {
                Some(old) => old.restart(warmed),
                None => Stream::new(warmed),
            });
        }
        let stream = stream.as_mut().expect("an epoch has begun");
        stream.register_ahead(&inputs);
        let Some(deadline) = clock.resume() else {
            break;
        };
        observed.clear();
        let mut failed = 0;
        while observed.len() < CHECK_EVERY && Instant::now() < deadline {
            match stream.step(&mut seq, &mut observed) {
                Some(true) => {}
                Some(false) => failed += 1,
                None => break,
            }
        }
        let latencies: Vec<f64> = observed
            .iter()
            .filter(|o| o.step.is_some())
            .map(Observed::latency_us)
            .collect();
        clock.pause(&latencies, failed);

        // Outside the timed section: every watch answer against a fresh
        // solve of the same structure, then the replay and the traced
        // ledger.
        for o in &observed {
            let what = || format!("watch of ramp {} at step {:?}", o.ramp, o.step);
            let sample = checker.checked < REPLAY_SAMPLE;
            let a = checker.advance(&inputs, o);
            if cfg.trace && o.step.is_some() {
                tracer.record(o.seq, "watch.apply", "", o.started, o.finished);
                let fresh = tracer.span(o.seq, "session.solve", "watch.apply", || session.solve(a));
                let solve_us = tracer.last_us();
                gate.watched(&o.solution, &fresh, what);
                tracer.mark();
                let replayed = replay.solve(a, o.seq, &mut tracer);
                tracer.add("session.unattributed", solve_us - tracer.since_mark());
                gate.replayed(&replayed, &fresh, what);
                continue;
            }
            let fresh = fresh_by_step
                .entry((inputs.key(o.ramp), o.step))
                .or_insert_with(|| session.solve(a));
            gate.watched(&o.solution, fresh, what);
            if sample {
                let replayed = replay.solve(a, o.seq, &mut Tracer::default());
                gate.replayed(&replayed, fresh, what);
            }
        }
    }
    let mut stream = stream.expect("a run has at least one epoch");
    stream.retire();
    let summary = clock.finish();
    let s = stream.stats;
    tracer.count("client.attempted", summary.attempted as f64);
    tracer.count("client.failed", summary.failed as f64);
    tracer.count("watch.updates", s.updates as f64);
    tracer.count("watch.repaired_establishes", s.repaired_establishes as f64);
    tracer.count("watch.full_establishes", s.full_establishes as f64);
    tracer.count("watch.treewidth_skips", s.treewidth_skips as f64);
    tracer.count("watch.monotone_refutations", s.monotone_refutations as f64);

    Ok(RunOutput {
        correct: gate.passed(),
        summary,
        setup_s: median(&setup_s),
        tracer,
        notes: vec![
            gate.summary(),
            format!(
                "watch: {} updates, {} repaired and {} full establishes, {} treewidth skips, {} monotone refutations",
                s.updates,
                s.repaired_establishes,
                s.full_establishes,
                s.treewidth_skips,
                s.monotone_refutations
            ),
        ],
    })
}
