//! The served workloads: one in-process `Server`, one client
//! connection, a closed loop with `depth` requests in flight.

use crate::parity::ParityGate;
use crate::replay::Replay;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{self, Inputs, Workload};
use crate::{Run, RunOutput, SliceClock};
use cqcs_core::{Session, Solution};
use cqcs_net::{
    frame_buf_growths, Client, ClientError, Request, Response, Server, ServerConfig, StatusInfo,
};
use cqcs_structures::Structure;
use std::collections::HashMap;
use std::time::Instant;

/// One answered (or refused) request of the timed section.
struct Answer {
    /// Sequence number within the timed section: the span request id.
    seq: u64,
    /// The correlation id the request carried on the wire.
    wire_id: u64,
    /// Which input was sent.
    index: u64,
    submitted: Instant,
    settled: Instant,
    /// `None` when the server answered with a typed error.
    solution: Option<Solution>,
}

impl Answer {
    /// Submit to settle, in µs.
    fn latency_us(&self) -> f64 {
        (self.settled - self.submitted).as_secs_f64() * 1e6
    }
}

/// When [`drive`] stops submitting.
enum Stop {
    /// After this many requests.
    After(usize),
    /// At this instant, or once this many answers are held.
    At(Instant, usize),
}

/// Answers held before the clock pauses to check them: bounds the
/// benchmark's own memory whatever the throughput.
const CHECK_EVERY: usize = 4096;

/// Keeps up to `depth` solves in flight, sending inputs from `cursor`
/// on and numbering requests from `seq`, until `stop`; then drains.
/// Appends one [`Answer`] per request. The loop mirrors
/// `Client::solve_pipelined`: refill the window, block for one
/// response, drain whatever else has arrived.
#[allow(clippy::too_many_arguments)]
fn drive(
    client: &mut Client,
    template_id: u64,
    inputs: &Inputs,
    depth: usize,
    cursor: &mut u64,
    seq: &mut u64,
    stop: Stop,
    out: &mut Vec<Answer>,
) -> Result<(), ClientError> {
    let mut pending: HashMap<u64, (u64, u64, Instant)> = HashMap::with_capacity(depth);
    let mut sent = 0usize;
    loop {
        while pending.len() < depth {
            let more = match stop {
                Stop::After(n) => sent < n,
                Stop::At(t, cap) => out.len() < cap && Instant::now() < t,
            };
            if !more {
                break;
            }
            let index = *cursor;
            let request = Request::Solve {
                template_id,
                deadline_ms: 0,
                instance: inputs.instance(index),
            };
            let submitted = Instant::now();
            let wire_id = client.submit(&request)?;
            pending.insert(wire_id, (*seq, index, submitted));
            *seq += 1;
            sent += 1;
            *cursor += 1;
        }
        if pending.is_empty() {
            return Ok(());
        }
        let (id, resp) = client.recv()?;
        settle(&mut pending, id, resp, out)?;
        while !pending.is_empty() {
            match client.try_recv()? {
                Some((id, resp)) => settle(&mut pending, id, resp, out)?,
                None => break,
            }
        }
    }
}

/// Matches a response to its pending request and records the answer.
fn settle(
    pending: &mut HashMap<u64, (u64, u64, Instant)>,
    wire_id: u64,
    resp: Response,
    out: &mut Vec<Answer>,
) -> Result<(), ClientError> {
    let settled = Instant::now();
    let (seq, index, submitted) = pending
        .remove(&wire_id)
        .ok_or(ClientError::Unexpected("response id was never submitted"))?;
    let solution = match resp {
        Response::Solved(sol) => Some(sol),
        Response::Error { .. } => None,
        _ => return Err(ClientError::Unexpected("expected Solved")),
    };
    out.push(Answer {
        seq,
        wire_id,
        index,
        submitted,
        settled,
        solution,
    });
    Ok(())
}

/// A bound, registered and warmed server with its one client.
struct Live {
    server: Server,
    client: Client,
    template_id: u64,
}

/// Binds, registers and warms a server on inputs `first..first + warmup`.
fn set_up(
    template: &Structure,
    inputs: &Inputs,
    depth: usize,
    first: u64,
    warmup: usize,
) -> Result<Live, String> {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).map_err(|e| e.to_string())?;
    let mut client = Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
    let template_id = client
        .register_template(template)
        .map_err(|e| e.to_string())?;
    // One full window of the largest request among the warm-up inputs
    // first, so every frame buffer on both ends reaches its high-water
    // mark before the timed section, then the warm-up stream itself.
    let largest = (first..first + warmup as u64)
        .max_by_key(|&i| inputs.instance(i).universe())
        .unwrap_or(first);
    let mut warm = Vec::with_capacity(warmup + depth);
    let mut cursor = first;
    for _ in 0..depth {
        client
            .submit(&Request::Solve {
                template_id,
                deadline_ms: 0,
                instance: inputs.instance(largest),
            })
            .map_err(|e| e.to_string())?;
    }
    for _ in 0..depth {
        client.recv().map_err(|e| e.to_string())?;
    }
    drive(
        &mut client,
        template_id,
        inputs,
        depth,
        &mut cursor,
        &mut 0,
        Stop::After(warmup),
        &mut warm,
    )
    .map_err(|e| e.to_string())?;
    Ok(Live {
        server,
        client,
        template_id,
    })
}

/// Untraced runs also replay the first this-many distinct instances
/// they serve; traced runs replay every request.
const REPLAY_SAMPLE: u64 = 256;

/// Set-up work per workload: requests sent before the server counts as
/// warm. At least enough for every reusable frame buffer on both ends
/// to reach its final size.
fn warmup_requests(w: Workload) -> usize {
    match w {
        Workload::ServeWire => 4096,
        _ => 512,
    }
}

pub fn run(w: Workload, cfg: &Run) -> Result<RunOutput, String> {
    let template = workloads::template();
    let inputs = Inputs::new(w, cfg.seed);
    let depth = w.depth();
    let session = Session::compile(&template);
    let mut replay = Replay::new(std::sync::Arc::clone(session.template()))?;

    let warmup = warmup_requests(w);
    let mut live: Option<Live> = None;
    let mut setup_s = Vec::new();

    let mut tracer = Tracer::default();
    let mut gate = ParityGate::default();
    // Direct solves, by input key, made as inputs are first served.
    let mut direct: HashMap<u64, Solution> = HashMap::new();
    // Frame-buffer growths over the active intervals only: the set-ups
    // and `Status` calls between them are not the measured traffic.
    let mut growths = 0;
    let mut clock = SliceClock::new(cfg.seconds);
    let (mut cursor, mut seq) = (0u64, 0u64);
    let mut answers: Vec<Answer> = Vec::new();
    let mut wire_buf = Vec::new();
    loop {
        if clock.epoch_due(setup_s.len()) {
            // A fresh server for each epoch, warmed on inputs of its
            // own, so neither the measurement nor `setup_s` hangs on
            // one server's threads or a few inputs' cost.
            if let Some(old) = live.take() {
                drop(old.client);
                old.server.shutdown();
            }
            let first = (setup_s.len() * warmup) as u64;
            let t0 = Instant::now();
            live = Some(set_up(&template, &inputs, depth, first, warmup)?);
            setup_s.push(t0.elapsed().as_secs_f64());
        }
        let Live {
            client,
            template_id,
            ..
        } = live.as_mut().expect("an epoch has begun");
        let template_id = *template_id;
        // `Status` is read just before and just after each active
        // interval, so its deltas cover the timed traffic and none of
        // the pauses.
        let status_before = client.status().map_err(|e| e.to_string())?;
        let growths_before = frame_buf_growths();
        let Some(deadline) = clock.resume() else {
            break;
        };
        answers.clear();
        drive(
            client,
            template_id,
            &inputs,
            depth,
            &mut cursor,
            &mut seq,
            Stop::At(deadline, CHECK_EVERY),
            &mut answers,
        )
        .map_err(|e| e.to_string())?;
        let failed = answers.iter().filter(|a| a.solution.is_none()).count();
        let latencies: Vec<f64> = answers.iter().map(Answer::latency_us).collect();
        clock.pause(&latencies, failed);
        growths += frame_buf_growths() - growths_before;
        let status_after = client.status().map_err(|e| e.to_string())?;
        status_deltas(&status_before, &status_after, &mut tracer);

        // Outside the timed section: parity, replay, traced ledger.
        for a in &answers {
            if cfg.trace {
                ledger(
                    a,
                    template_id,
                    &inputs,
                    &session,
                    &mut replay,
                    &mut gate,
                    &mut wire_buf,
                    &mut tracer,
                );
                continue;
            }
            let expected = direct.entry(inputs.key(a.index)).or_insert_with(|| {
                let instance = inputs.instance(a.index);
                let solved = session.solve(&instance);
                if a.index < REPLAY_SAMPLE {
                    let replayed = replay.solve(&instance, a.seq, &mut Tracer::default());
                    gate.replayed(&replayed, &solved, || {
                        format!("replay of instance {}", a.index)
                    });
                }
                solved
            });
            if let Some(sol) = &a.solution {
                gate.served(sol, expected, || {
                    format!("served answer to instance {}", a.index)
                });
            }
        }
    }
    if let Some(last) = live {
        drop(last.client);
        last.server.shutdown();
    }

    let summary = clock.finish();
    tracer.count("client.attempted", summary.attempted as f64);
    tracer.count("client.failed", summary.failed as f64);
    tracer.count("pool.frame_buf_growths", growths as f64);

    let mut notes = vec![gate.summary()];
    let mut correct = gate.passed();
    if w == Workload::ServeWire {
        // The steady-state data plane allocates no frame buffers once
        // warm: E19's invariant, kept on its workload.
        notes.push(format!(
            "pool: {growths} frame-buffer growths after warm-up"
        ));
        correct &= growths == 0;
    }
    Ok(RunOutput {
        correct,
        summary,
        setup_s: median(&setup_s),
        tracer,
        notes,
    })
}

/// Adds the server counters that moved between two `Status` reads.
fn status_deltas(before: &StatusInfo, after: &StatusInfo, t: &mut Tracer) {
    let d = |a: u64, b: u64| b.saturating_sub(a) as f64;
    t.count("server.solves", d(before.solves, after.solves));
    t.count("server.batches", d(before.batches, after.batches));
    t.count("server.overloaded", d(before.overloaded, after.overloaded));
    t.count(
        "server.deadline_expired",
        d(before.deadline_expired, after.deadline_expired),
    );
    t.count(
        "server.idle_wakeups",
        d(before.idle_wakeups, after.idle_wakeups),
    );
}

/// The traced layers of one served request, measured after the fact on
/// the same instance and answer: codec both ways, the direct
/// in-process solve, and the replayed dispatch stages. Checks the
/// served answer and the replayed one against the direct solve.
#[allow(clippy::too_many_arguments)]
fn ledger(
    a: &Answer,
    template_id: u64,
    inputs: &Inputs,
    session: &Session,
    replay: &mut Replay,
    gate: &mut ParityGate,
    buf: &mut Vec<u8>,
    t: &mut Tracer,
) {
    let instance = &inputs.instance(a.index);
    let seq = a.seq;
    t.record(seq, "client.roundtrip", "", a.submitted, a.settled);
    t.mark();
    let request = Request::Solve {
        template_id,
        deadline_ms: 0,
        instance: instance.clone(),
    };
    buf.clear();
    t.span(seq, "codec.request_encode", "client.roundtrip", || {
        request.encode_into(a.wire_id, buf)
    })
    .expect("a generated instance encodes");
    t.add("codec.request_bytes", buf.len() as f64);
    t.span(seq, "codec.request_decode", "client.roundtrip", || {
        Request::decode(buf)
    })
    .expect("an encoded request decodes");
    let solved = t.span(seq, "session.solve", "client.roundtrip", || {
        session.solve(instance)
    });
    let solve_us = t.last_us();
    if let Some(sol) = &a.solution {
        gate.served(sol, &solved, || {
            format!("served answer to instance {}", a.index)
        });
        let response = Response::Solved(sol.clone());
        buf.clear();
        t.span(seq, "codec.response_encode", "client.roundtrip", || {
            response.encode_into(a.wire_id, buf)
        })
        .expect("a solution encodes");
        t.add("codec.response_bytes", buf.len() as f64);
        t.span(seq, "codec.response_decode", "client.roundtrip", || {
            Response::decode(buf)
        })
        .expect("an encoded response decodes");
        t.add("server.unattributed", a.latency_us() - t.since_mark());
    }
    t.mark();
    let replayed = replay.solve(instance, seq, t);
    t.add("session.unattributed", solve_us - t.since_mark());
    gate.replayed(&replayed, &solved, || {
        format!("replay of served instance {}", a.index)
    });
}
