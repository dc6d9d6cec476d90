//! The load generator: callers that send their next request only after the
//! previous reply arrived (a closed loop), alternating between the framed
//! and the HTTP transport.

use crate::daemon::CpuClock;
use crate::gen::{Plan, Req, Transport};
use crate::wire::{Conn, Endpoints, WireError};
use std::collections::HashMap;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// One caller's sender, holding one connection per transport. Session
/// handles returned by `session_create` are substituted into the requests
/// that follow.
pub struct Caller<'p> {
    plan: &'p Plan,
    ep: &'p Endpoints,
    conns: [Option<Conn>; 2],
    handle: String,
    request: Vec<u8>,
    /// The body of the last reply.
    pub reply: Vec<u8>,
}

impl<'p> Caller<'p> {
    pub fn new(plan: &'p Plan, ep: &'p Endpoints) -> Caller<'p> {
        Caller {
            plan,
            ep,
            conns: [None, None],
            handle: String::new(),
            request: Vec::with_capacity(64 << 10),
            reply: Vec::with_capacity(64 << 10),
        }
    }

    /// Sends `req` over `transport` and waits for its reply, returning the
    /// latency. With `fresh` (or after a failure) the request opens a new
    /// connection first, and the latency includes the connect.
    pub fn send(
        &mut self,
        req: Req,
        transport: Transport,
        fresh: bool,
    ) -> (Duration, Result<(), WireError>) {
        self.plan
            .encode(req, transport, &self.handle, &mut self.request);
        let started = Instant::now();
        let result = self.roundtrip(transport, fresh);
        let elapsed = started.elapsed();
        match result {
            Ok(()) => {
                if matches!(req, Req::Create { .. }) {
                    self.handle = handle_of(&self.reply).unwrap_or_default();
                }
            }
            Err(_) => self.conns[transport.index()] = None,
        }
        (elapsed, result)
    }

    fn roundtrip(&mut self, transport: Transport, fresh: bool) -> Result<(), WireError> {
        let slot = &mut self.conns[transport.index()];
        if fresh || slot.is_none() {
            *slot = Some(Conn::connect(transport, self.ep)?);
        }
        let conn = slot.as_mut().expect("connected above");
        conn.roundtrip(&self.request, &mut self.reply)
    }
}

/// The `"handle":"..."` value of a `session_create` reply.
fn handle_of(reply: &[u8]) -> Option<String> {
    const KEY: &[u8] = b"\"handle\":\"";
    let at = reply.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    let len = reply[at..].iter().position(|&b| b == b'"')?;
    String::from_utf8(reply[at..at + len].to_vec()).ok()
}

/// Reply bodies kept for the oracle. Replies whose stable part (before
/// per-request metadata: timings, cache disposition, trace id) equals an
/// earlier reply to the same request share one stored copy, so a long run
/// keeps memory small and each distinct reply is checked once.
#[derive(Default)]
pub struct ReplyStore {
    arena: Vec<u8>,
    reps: Vec<(Req, usize, usize, usize)>,
    index: HashMap<Req, Vec<u32>>,
}

/// Distinct replies remembered per request before dedup gives up (session
/// replies that embed a handle never repeat).
const REPS_PER_REQ: usize = 8;

impl ReplyStore {
    pub fn put(&mut self, req: Req, body: &[u8]) -> u32 {
        let stable = stable_len(body);
        let list = self.index.entry(req).or_default();
        for &i in list.iter() {
            let (_, off, _, rep_stable) = self.reps[i as usize];
            if rep_stable == stable && self.arena[off..off + stable] == body[..stable] {
                return i;
            }
        }
        let id = self.reps.len() as u32;
        if list.len() < REPS_PER_REQ {
            list.push(id);
        }
        self.reps.push((req, self.arena.len(), body.len(), stable));
        self.arena.extend_from_slice(body);
        id
    }

    /// Every stored reply with the request it answered.
    pub fn iter(&self) -> impl Iterator<Item = (Req, &[u8])> + '_ {
        self.reps
            .iter()
            .map(move |&(req, off, len, _)| (req, &self.arena[off..off + len]))
    }

    pub fn len(&self) -> usize {
        self.reps.len()
    }

    pub fn is_empty(&self) -> bool {
        self.reps.is_empty()
    }
}

/// Length of the part of a reply that must repeat for a repeated request.
fn stable_len(body: &[u8]) -> usize {
    let rfind = |pat: &[u8], window: usize| {
        let from = body.len().saturating_sub(window);
        body[from..]
            .windows(pat.len())
            .rposition(|w| w == pat)
            .map(|i| from + i)
    };
    rfind(b"\"meta\":{\"solve_us\"", 1024)
        .or_else(|| rfind(b"\"trace_id\":", 256))
        .unwrap_or(body.len())
}

/// How one measured request ended.
#[derive(Debug)]
pub enum Outcome {
    /// A reply, stored at this index of the caller's [`ReplyStore`].
    Reply(u32),
    /// No usable reply (transport error, timeout, non-200 status).
    Failed(String),
}

pub struct Record {
    pub req: Req,
    pub transport: Transport,
    pub latency: Duration,
    /// The server's CPU time from the caller's previous reply (or the start
    /// of the phase) to this reply, in ns; over a caller's records these
    /// sum to all the server's CPU time in the phase. With one caller it is
    /// the request's cost, but only roughly: the kernel brings a running
    /// thread's CPU time up to date at scheduler ticks and switches, so
    /// work a server thread is still doing when the clock is read (say,
    /// bookkeeping after the reply) shows in the next request's figure.
    pub cpu_ns: u64,
    pub outcome: Outcome,
}

/// Everything one caller saw in the measured phase.
pub struct CallerLog {
    pub records: Vec<Record>,
    pub store: ReplyStore,
    /// Time from each reply to the next send: the generator's own lateness.
    pub gaps: Vec<Duration>,
}

/// Runs `plan.callers` closed-loop callers for `duration`, caller `i` on
/// `callers[i]` (whose open connections it keeps). A caller stops at the
/// first end of a block (`Plan::block_len` requests) after the deadline, so
/// that every caller sends whole blocks and the measured requests are
/// exactly the workload's mix; the returned wall time spans until the last
/// one finished. `cpu` is the server's CPU clock, read after every reply.
pub fn closed_loop(
    plan: &Plan,
    callers: Vec<Caller<'_>>,
    cpu: CpuClock,
    duration: Duration,
) -> (Vec<CallerLog>, Duration) {
    assert_eq!(callers.len(), plan.callers, "one sender per caller");
    let barrier = Barrier::new(plan.callers);
    let logs: Vec<(CallerLog, Instant, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = callers
            .into_iter()
            .enumerate()
            .map(|(i, mut caller)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut log = CallerLog {
                        records: Vec::new(),
                        store: ReplyStore::default(),
                        gaps: Vec::new(),
                    };
                    barrier.wait();
                    let started = Instant::now();
                    let deadline = started + duration;
                    let mut last_reply = None;
                    let mut cpu_at = cpu.read().unwrap_or(0);
                    let block = plan.block_len(i);
                    for (j, (req, fresh, transport)) in plan.stream(i).enumerate() {
                        let now = Instant::now();
                        if j % block == 0 && now >= deadline {
                            break;
                        }
                        if let Some(at) = last_reply {
                            log.gaps.push(now - at);
                        }
                        let (latency, result) = caller.send(req, transport, fresh);
                        let cpu_now = cpu.read().unwrap_or(cpu_at);
                        let cpu_ns = cpu_now.saturating_sub(cpu_at);
                        cpu_at = cpu_now;
                        let outcome = match result {
                            Ok(()) => Outcome::Reply(log.store.put(req, &caller.reply)),
                            Err(e) => Outcome::Failed(e.to_string()),
                        };
                        let done = Instant::now();
                        log.records.push(Record {
                            req,
                            transport,
                            latency,
                            cpu_ns,
                            outcome,
                        });
                        last_reply = Some(done);
                    }
                    (log, started, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    });
    let start = logs.iter().map(|l| l.1).min().expect("at least one caller");
    let end = logs.iter().map(|l| l.2).max().expect("at least one caller");
    (logs.into_iter().map(|l| l.0).collect(), end - start)
}

/// Sends `reqs` in order over `caller`'s framed connection (the warm-up
/// prefix), storing the replies for the oracle.
pub fn sequence(
    caller: &mut Caller<'_>,
    reqs: &[Req],
    store: &mut ReplyStore,
) -> Result<(), String> {
    for &req in reqs {
        caller
            .send(req, Transport::Framed, false)
            .1
            .map_err(|e| format!("warm-up request {req:?}: {e}"))?;
        store.put(req, &caller.reply);
    }
    Ok(())
}
