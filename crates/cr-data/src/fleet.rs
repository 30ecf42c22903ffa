//! A simulated client fleet driving the `cr-server` serving layer through
//! a fault-injecting channel.
//!
//! N seeded clients issue mixed traffic (reads, user-input rounds, causal
//! correction batches, plain revision batches, snapshots) against **one
//! shared durable session**, each client behind its own tenant and its own
//! causal source. Every message crosses a lossy wire — both directions can
//! [drop](ChannelFaults::drop), [duplicate](ChannelFaults::duplicate) and
//! [delay](ChannelFaults::delay) (unequal delays reorder), and a client
//! sending a causal batch can [disconnect](ChannelFaults::disconnect)
//! mid-batch, going deaf for a while and losing any replies in flight.
//! Clients retry with exponential backoff plus jitter, **reusing the same
//! request id and idempotency key** per logical operation, and honour the
//! `retry_after` hint carried by `ServeError::Overloaded`.
//!
//! [`run_fleet`] is a self-verifying harness. At teardown it checks the
//! serving layer's exactly-once-under-retry contract:
//!
//! 1. every client finished every scripted operation (no retry budget
//!    exhausted, no fatal serve error);
//! 2. the durable log scans cleanly, and every acknowledged mutation
//!    appears in it **exactly once** — user inputs by content, causal
//!    events by `(source, hlc)` dedup key, plain revisions by content —
//!    with no unacknowledged extras;
//! 3. the final server-side session state is equivalent to a canonical
//!    single-client replay of the surviving log
//!    (`cr_store::harness::verify_recovery`).
//!
//! The fleet is fully deterministic: equal [`FleetConfig`]s replay the
//! same traffic, faults and outcome, which is what lets `serve_soak`
//! print a reproducing seed on failure.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

use cr_core::framework::DeductionMethod;
use cr_core::ingest::Revision;
use cr_core::spec::UserInput;
use cr_server::admission::AdmissionConfig;
use cr_server::proto::{decode_message, encode_message, Message, Reply, Request, ServeError};
use cr_server::server::{ServeTelemetry, Server};
use cr_store::{
    decode_log, reference_of, verify_recovery, LogRecord, MemoryBackend, RecoveryTelemetry,
    SessionId, SessionStore, StorageBackend, StoreConfig,
};
use cr_types::wire::{Envelope, IdemKey, RequestId, TenantId};
use cr_types::{AttrId, Hlc, SourceId, TupleId, Value};

use crate::gen::{causal_timeline, scenario_from_raw, CausalTimelineConfig};
use crate::gen_util::rng;

/// The single shared session every fleet client targets.
const SESSION: u64 = 0;

/// Fault probabilities of the simulated wire, applied per message in both
/// directions (except `disconnect`, which only strikes a client sending a
/// causal batch). All probabilities are independent; reordering is
/// emergent from unequal delays.
#[derive(Clone, Copy, Debug)]
pub struct ChannelFaults {
    /// Probability a message is silently lost.
    pub drop: f64,
    /// Probability a message is delivered twice (the copy arrives later).
    pub duplicate: f64,
    /// Probability a message is delayed by `1..=max_delay` extra ticks.
    pub delay: f64,
    /// Maximum extra delay in ticks (`0` disables delays entirely).
    pub max_delay: u64,
    /// Probability a client *sending a causal batch* disconnects instead:
    /// the request is lost and the client is deaf for
    /// `disconnect_ticks` — replies delivered meanwhile are gone.
    pub disconnect: f64,
    /// How long a disconnected client stays deaf, in ticks.
    pub disconnect_ticks: u64,
}

impl ChannelFaults {
    /// A perfect wire: nothing dropped, duplicated, delayed or severed.
    pub fn clean() -> Self {
        ChannelFaults {
            drop: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            max_delay: 0,
            disconnect: 0.0,
            disconnect_ticks: 0,
        }
    }

    /// The standard hostile wire used by the fleet tests and `serve_soak`:
    /// every fault mode armed at once.
    pub fn faulty() -> Self {
        ChannelFaults {
            drop: 0.08,
            duplicate: 0.08,
            delay: 0.25,
            max_delay: 6,
            disconnect: 0.06,
            disconnect_ticks: 8,
        }
    }
}

/// Knobs of one fleet run. Equal configs produce identical runs.
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    /// Seed for the scenario, the traffic scripts, the wire faults and
    /// every client's jitter.
    pub seed: u64,
    /// Number of simulated clients (each is one causal source).
    pub clients: usize,
    /// Tenants the clients are folded onto (`client % tenants`); `0`
    /// gives every client its own tenant. Folding many clients onto few
    /// tenants is how the overload profile provokes load-shedding.
    pub tenants: usize,
    /// User-input rounds scripted per client (each content-unique).
    pub inputs_per_client: usize,
    /// Read requests scripted per client (validity / deduction /
    /// true-values / suggestion, round-robin).
    pub reads_per_client: usize,
    /// Plain-revision batches scripted per client (each content-unique).
    pub batches_per_client: usize,
    /// Causally-stamped correction events generated across the whole
    /// fleet (sliced per client by source, sent in 1–3 event batches).
    pub causal_events: usize,
    /// Abort the run if it has not converged after this many ticks.
    pub max_ticks: u64,
    /// Ticks a client waits for a reply before resending.
    pub resend_timeout: u64,
    /// Attempts per operation before a client gives up (a failure).
    pub max_attempts: u32,
    /// The wire's fault profile.
    pub faults: ChannelFaults,
    /// The server's admission-control knobs.
    pub admission: AdmissionConfig,
    /// The durable store's knobs.
    pub store: StoreConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            seed: 0,
            clients: 4,
            tenants: 0,
            inputs_per_client: 3,
            reads_per_client: 4,
            batches_per_client: 2,
            causal_events: 12,
            max_ticks: 6_000,
            resend_timeout: 24,
            max_attempts: 16,
            faults: ChannelFaults::clean(),
            admission: AdmissionConfig::default(),
            store: StoreConfig {
                idempotency_cap: 1024,
                ..StoreConfig::default()
            },
        }
    }
}

/// What one fleet run did, for soak output and bench percentiles.
#[derive(Clone, Debug, Default)]
pub struct FleetReport {
    /// Ticks until the fleet converged.
    pub ticks: u64,
    /// Operations scripted across all clients.
    pub ops: u64,
    /// Operations acknowledged (equals `ops` on success).
    pub acked: u64,
    /// Mutations among the acknowledged operations.
    pub mutations_acked: u64,
    /// Client resends (timeouts, overload backoff, deadline retries).
    pub retries: u64,
    /// Messages the wire dropped.
    pub dropped: u64,
    /// Messages the wire duplicated.
    pub duplicated: u64,
    /// Messages the wire delayed beyond the base latency.
    pub delayed: u64,
    /// Mid-batch client disconnections.
    pub disconnects: u64,
    /// `Overloaded` replies clients backed off from.
    pub overloaded_replies: u64,
    /// `DeadlineExceeded` replies clients retried after.
    pub deadline_replies: u64,
    /// The server's serving telemetry at teardown.
    pub serve: ServeTelemetry,
    /// The store's recovery telemetry at teardown.
    pub recovery: RecoveryTelemetry,
    /// Submit-to-acknowledge latency of every completed operation, in
    /// ticks (first attempt to accepted reply — retries included).
    pub latencies: Vec<u64>,
}

impl std::fmt::Display for FleetReport {
    /// One human-readable row per run, for soak and bench output.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fleet: {}/{} ops acked ({} mutations) in {} ticks, {} retries, wire \
             {}/{}/{} drop/dup/delay, {} disconnects, {} overloaded, {} deadline",
            self.acked,
            self.ops,
            self.mutations_acked,
            self.ticks,
            self.retries,
            self.dropped,
            self.duplicated,
            self.delayed,
            self.disconnects,
            self.overloaded_replies,
            self.deadline_replies,
        )
    }
}

/// What an acknowledged mutation must have left in the durable log.
enum Expected {
    /// Reads leave nothing.
    Read,
    /// A content-unique user-input round → exactly one `Input` record.
    Input(UserInput),
    /// A causal batch → exactly one `Causal` record per dedup key.
    Causal(Vec<(SourceId, Hlc)>),
    /// A content-unique revision batch → exactly one `Revision` record
    /// per revision.
    Revs(Vec<Revision>),
    /// Snapshots are derived state (the store also writes its own).
    Snapshot,
}

/// One scripted client operation: its pre-encoded wire frame (identical
/// bytes on every retry — same request id, same idempotency key) plus
/// what it must leave in the log once acknowledged.
struct Op {
    bytes: Vec<u8>,
    ingest: bool,
    expect: Expected,
}

/// One simulated client: a script of operations, at most one outstanding.
struct Client {
    tenant: u32,
    ops: Vec<Op>,
    next_op: usize,
    /// Attempts spent on the current operation (1 = first send).
    attempts: u32,
    /// An outstanding request awaits a reply (or its resend timer).
    waiting: bool,
    resend_at: u64,
    ready_at: u64,
    first_sent: u64,
    offline_until: u64,
    gave_up: bool,
    rng: ChaCha8Rng,
}

impl Client {
    fn done(&self) -> bool {
        !self.waiting && self.next_op == self.ops.len()
    }

    fn jitter(&mut self) -> u64 {
        self.rng.gen_range(0..=3)
    }
}

/// Exponential backoff for the given attempt number, capped at 32 ticks.
fn backoff(attempt: u32) -> u64 {
    1u64 << attempt.min(5)
}

/// A message in flight: delivery tick, FIFO tiebreak, destination client
/// (for server→client frames) and the encoded bytes.
struct Entry {
    at: u64,
    seq: u64,
    client: usize,
    bytes: Vec<u8>,
}

/// One direction of the simulated wire.
#[derive(Default)]
struct Wire {
    queue: Vec<Entry>,
    seq: u64,
}

impl Wire {
    /// Enqueues `bytes` through the fault profile: maybe dropped, maybe
    /// delayed, maybe duplicated (the copy always lags the original).
    fn send(
        &mut self,
        r: &mut ChaCha8Rng,
        f: &ChannelFaults,
        now: u64,
        client: usize,
        bytes: Vec<u8>,
        report: &mut FleetReport,
    ) {
        if f.drop > 0.0 && r.gen_bool(f.drop) {
            report.dropped += 1;
            return;
        }
        let mut at = now + 1;
        if f.max_delay > 0 && f.delay > 0.0 && r.gen_bool(f.delay) {
            at += r.gen_range(1..=f.max_delay);
            report.delayed += 1;
        }
        self.push(at, client, bytes.clone());
        if f.duplicate > 0.0 && r.gen_bool(f.duplicate) {
            report.duplicated += 1;
            self.push(at + r.gen_range(1..=f.max_delay.max(2)), client, bytes);
        }
    }

    fn push(&mut self, at: u64, client: usize, bytes: Vec<u8>) {
        self.seq += 1;
        self.queue.push(Entry {
            at,
            seq: self.seq,
            client,
            bytes,
        });
    }

    /// Removes and returns every message due at `now`, in arrival order.
    fn take_due(&mut self, now: u64) -> Vec<Entry> {
        let mut due = Vec::new();
        self.queue.retain_mut(|e| {
            if e.at <= now {
                due.push(Entry {
                    at: e.at,
                    seq: e.seq,
                    client: e.client,
                    bytes: std::mem::take(&mut e.bytes),
                });
                false
            } else {
                true
            }
        });
        due.sort_by_key(|e| (e.at, e.seq));
        due
    }
}

/// The request id of client `c`'s operation `op`: reused verbatim on
/// every retry, and doubling as the idempotency key for mutations.
fn rid(c: usize, op: usize) -> u64 {
    ((c as u64 + 1) << 32) | op as u64
}

/// The destination client of a reply, recovered from its request id.
fn client_of(id: RequestId) -> usize {
    (id.0 >> 32) as usize - 1
}

/// Builds client `c`'s script: its causal slice (in source order, batched
/// 1–3 events), content-unique inputs and revision batches, and reads,
/// interleaved by the script RNG. Client 0 appends a snapshot request.
fn script(
    c: usize,
    tenant: u32,
    cfg: &FleetConfig,
    arity: usize,
    tuples: usize,
    causal: &[cr_core::causal::CausalRevision],
    r: &mut ChaCha8Rng,
) -> Vec<Op> {
    let reads = [
        Request::IsValid,
        Request::Deduce {
            method: DeductionMethod::UnitPropagation,
        },
        Request::TrueValues {
            method: DeductionMethod::UnitPropagation,
        },
        Request::Suggest {
            method: DeductionMethod::UnitPropagation,
        },
    ];
    // Pools drained in-order per category, interleaved at random.
    let mut pools: Vec<Vec<(Request, Expected)>> = (0..4).map(|_| Vec::new()).collect();
    let mut rest = causal;
    while !rest.is_empty() {
        let take = r.gen_range(1..=3usize.min(rest.len()));
        let (batch, tail) = rest.split_at(take);
        rest = tail;
        let keys = batch.iter().map(|ev| ev.stamp.dedup_key()).collect();
        pools[0].push((
            Request::IngestCausal {
                events: batch.to_vec(),
            },
            Expected::Causal(keys),
        ));
    }
    for k in 0..cfg.inputs_per_client {
        let mut input = UserInput::empty();
        // Attribute 0 is numeric; 1.. are strings — a per-(client, op)
        // label makes every input content-unique for the log check.
        let attr = AttrId((1 + k % (arity - 1)) as u16);
        input.values.insert(attr, Value::str(format!("f{c}_{k}")));
        pools[1].push((
            Request::ApplyInput {
                input: input.clone(),
            },
            Expected::Input(input),
        ));
    }
    for k in 0..cfg.batches_per_client {
        let rev = Revision::ReplaceValue {
            tuple: TupleId((k % tuples) as u32),
            attr: AttrId((1 + k % (arity - 1)) as u16),
            value: Value::str(format!("r{c}_{k}")),
        };
        pools[2].push((
            Request::AbsorbBatch {
                revs: vec![rev.clone()],
            },
            Expected::Revs(vec![rev]),
        ));
    }
    for k in 0..cfg.reads_per_client {
        pools[3].push((reads[k % reads.len()].clone(), Expected::Read));
    }

    let mut ops = Vec::new();
    while pools.iter().any(|p| !p.is_empty()) {
        let live: Vec<usize> = (0..pools.len()).filter(|&i| !pools[i].is_empty()).collect();
        let pool = live[r.gen_range(0..live.len())];
        let (req, expect) = pools[pool].remove(0);
        ops.push((req, expect));
    }
    if c == 0 {
        ops.push((Request::Snapshot, Expected::Snapshot));
    }

    ops.into_iter()
        .enumerate()
        .map(|(i, (req, expect))| {
            let raw = rid(c, i);
            let env = Envelope {
                request_id: RequestId(raw),
                tenant: TenantId(tenant),
                session: SESSION,
                deadline: None,
                idempotency: req.is_mutation().then_some(IdemKey(raw)),
            };
            Op {
                ingest: matches!(req, Request::IngestCausal { .. }),
                bytes: encode_message(&Message::Request { env, req }),
                expect,
            }
        })
        .collect()
}

/// Checks the exactly-once contract for one record category: every
/// acknowledged item appears in the log exactly once, and nothing extra
/// of that category was logged.
fn exactly_once<T: PartialEq + std::fmt::Debug>(
    what: &str,
    want: &[T],
    got: &[T],
) -> Result<(), String> {
    if want.len() != got.len() {
        return Err(format!(
            "{what}: {} acknowledged but {} durably logged",
            want.len(),
            got.len()
        ));
    }
    for w in want {
        let n = got.iter().filter(|g| *g == w).count();
        if n != 1 {
            return Err(format!("{what}: {w:?} logged {n} times, want exactly once"));
        }
    }
    Ok(())
}

/// Runs one simulated fleet to convergence and verifies the serving
/// layer's contract at teardown (see the module docs). `Err` carries the
/// violated invariant plus the run's telemetry rows.
pub fn run_fleet(cfg: &FleetConfig) -> Result<FleetReport, String> {
    let scenario = scenario_from_raw(cfg.seed ^ 0x5EED_F1EE, 5, 4, 55, false);
    let spec = scenario.spec;
    let arity = spec.schema().arity();
    let tuples = spec.entity().len().max(1);

    let store = SessionStore::new(MemoryBackend::new(), cfg.store)
        .map_err(|e| format!("store open failed: {e}"))?;
    let mut server = Server::new(store, cfg.admission);
    server.open(SESSION, &spec);

    // One causal source per client; client c owns SourceId(c + 1).
    let clients_n = cfg.clients.max(1);
    let timeline = causal_timeline(
        &spec,
        &CausalTimelineConfig {
            seed: cfg.seed ^ 0xF1EE_7CA5,
            sources: clients_n,
            events: cfg.causal_events,
            rounds: clients_n.max(2),
            burst: 2,
            sync_density: 0.2,
            ..CausalTimelineConfig::default()
        },
    );

    let mut script_rng = rng(cfg.seed ^ 0x5C12_19B7);
    let mut clients: Vec<Client> = (0..clients_n)
        .map(|c| {
            let tenant = if cfg.tenants == 0 {
                c as u32
            } else {
                (c % cfg.tenants) as u32
            };
            let slice: Vec<_> = timeline
                .iter()
                .filter(|(_, ev)| ev.stamp.source == SourceId(c as u32 + 1))
                .map(|(_, ev)| ev.clone())
                .collect();
            Client {
                tenant,
                ops: script(c, tenant, cfg, arity, tuples, &slice, &mut script_rng),
                next_op: 0,
                attempts: 0,
                waiting: false,
                resend_at: 0,
                ready_at: 0,
                first_sent: 0,
                offline_until: 0,
                gave_up: false,
                rng: rng(cfg.seed ^ 0xC11E_4700 ^ (c as u64)),
            }
        })
        .collect();

    let mut report = FleetReport {
        ops: clients.iter().map(|c| c.ops.len() as u64).sum(),
        ..FleetReport::default()
    };
    let mut net_rng = rng(cfg.seed ^ 0x0C4A_77E1);
    let mut up = Wire::default();
    let mut down = Wire::default();
    let telemetry_rows = |server: &Server<MemoryBackend>, report: &FleetReport| {
        format!(
            "\n  {report}\n  {}\n  {}",
            server.telemetry(),
            server.store().recovery()
        )
    };

    let mut now = 0u64;
    loop {
        // 1. Deliver client → server frames; immediate rejections (shed,
        //    unknown session) travel back as replies.
        for e in up.take_due(now) {
            let msg = decode_message(&e.bytes)
                .map_err(|err| format!("client->server frame failed to decode: {err}"))?;
            let Message::Request { env, req } = msg else {
                return Err("client->server wire carried a non-request".into());
            };
            if let Some(reply) = server.submit(now, env, req) {
                let dest = client_of(reply.request_id);
                let bytes = encode_message(&Message::Reply(reply));
                down.send(&mut net_rng, &cfg.faults, now, dest, bytes, &mut report);
            }
        }

        // 2. Dispatch queued work fairly; replies cross the faulty wire.
        for reply in server.dispatch(now) {
            let dest = client_of(reply.request_id);
            let bytes = encode_message(&Message::Reply(reply));
            down.send(&mut net_rng, &cfg.faults, now, dest, bytes, &mut report);
        }

        // 3. Deliver server → client replies (deaf clients lose theirs).
        for e in down.take_due(now) {
            let client = &mut clients[e.client];
            if client.offline_until > now {
                continue;
            }
            let msg = decode_message(&e.bytes)
                .map_err(|err| format!("server->client frame failed to decode: {err}"))?;
            let Message::Reply(reply) = msg else {
                return Err("server->client wire carried a non-reply".into());
            };
            on_reply(client, reply, now, &mut report)?;
        }

        // 4. Clients act: first sends, timeout resends, backoff wakeups.
        for c in clients.iter_mut() {
            if c.gave_up || c.offline_until > now {
                continue;
            }
            if c.waiting {
                if now >= c.resend_at {
                    if c.attempts >= cfg.max_attempts {
                        c.gave_up = true;
                        continue;
                    }
                    c.attempts += 1;
                    report.retries += 1;
                    send_current(c, cfg, now, &mut up, &mut net_rng, &mut report);
                }
            } else if c.next_op < c.ops.len() && now >= c.ready_at {
                c.attempts = 1;
                c.first_sent = now;
                c.waiting = true;
                send_current(c, cfg, now, &mut up, &mut net_rng, &mut report);
            }
        }

        if let Some(c) = clients.iter().find(|c| c.gave_up) {
            return Err(format!(
                "client of tenant {} exhausted its {} attempts on op {}{}",
                c.tenant,
                cfg.max_attempts,
                c.next_op,
                telemetry_rows(&server, &report)
            ));
        }
        if clients.iter().all(Client::done) && up.queue.is_empty() && server.queued() == 0 {
            break;
        }
        now += 1;
        if now >= cfg.max_ticks {
            let stuck: Vec<u32> = clients
                .iter()
                .filter(|c| !c.done())
                .map(|c| c.tenant)
                .collect();
            return Err(format!(
                "fleet did not converge within {} ticks (stuck tenants {stuck:?}){}",
                cfg.max_ticks,
                telemetry_rows(&server, &report)
            ));
        }
    }
    report.ticks = now;
    report.acked = report.ops;
    report.serve = server.telemetry();
    report.recovery = server.store().recovery();

    verify_teardown(&mut server, &spec, &clients, &mut report)
        .map_err(|e| format!("{e}{}", telemetry_rows(&server, &report)))?;
    Ok(report)
}

/// Routes one reply into its client's state machine.
fn on_reply(
    c: &mut Client,
    reply: Reply,
    now: u64,
    report: &mut FleetReport,
) -> Result<(), String> {
    let op_idx = (reply.request_id.0 & 0xFFFF_FFFF) as usize;
    if !c.waiting || op_idx != c.next_op {
        // A duplicate or straggler reply for an already-settled op.
        return Ok(());
    }
    match reply.outcome {
        Ok(_) => {
            report.latencies.push(now - c.first_sent + 1);
            if !matches!(c.ops[c.next_op].expect, Expected::Read) {
                report.mutations_acked += 1;
            }
            c.waiting = false;
            c.next_op += 1;
            c.ready_at = now + c.rng.gen_range(0..=1u64);
        }
        Err(ServeError::Overloaded { retry_after }) => {
            report.overloaded_replies += 1;
            c.resend_at = now + retry_after.max(backoff(c.attempts)) + c.jitter();
        }
        Err(ServeError::DeadlineExceeded { .. }) => {
            report.deadline_replies += 1;
            c.resend_at = now + backoff(c.attempts) + c.jitter();
        }
        Err(e) => {
            return Err(format!(
                "client of tenant {} got a fatal serve error: {e}",
                c.tenant
            ));
        }
    }
    Ok(())
}

/// Puts the client's current frame on the wire (or severs the connection,
/// for a causal batch under the disconnect fault) and arms the resend
/// timer with exponential backoff plus jitter.
fn send_current(
    c: &mut Client,
    cfg: &FleetConfig,
    now: u64,
    up: &mut Wire,
    net_rng: &mut ChaCha8Rng,
    report: &mut FleetReport,
) {
    let op = &c.ops[c.next_op];
    let f = &cfg.faults;
    if op.ingest && f.disconnect > 0.0 && c.rng.gen_bool(f.disconnect) {
        // Disconnect mid-batch: the request is lost with the link, and
        // the client hears nothing until it comes back.
        report.disconnects += 1;
        c.offline_until = now + f.disconnect_ticks.max(1);
    } else {
        up.send(net_rng, f, now, 0, op.bytes.clone(), report);
    }
    c.resend_at = now + cfg.resend_timeout + backoff(c.attempts) + c.jitter();
}

/// The teardown differential: a clean log scan, the exactly-once check
/// per mutation category, and state equivalence against a canonical
/// single-client replay of the surviving records.
fn verify_teardown(
    server: &mut Server<MemoryBackend>,
    spec: &cr_core::Specification,
    clients: &[Client],
    report: &mut FleetReport,
) -> Result<(), String> {
    let bytes = server
        .store()
        .backend()
        .read_log(SessionId(SESSION))
        .map_err(|e| format!("reading the durable log failed: {e}"))?;
    let (records, _, scan_err) = decode_log(&bytes);
    if let Some(e) = scan_err {
        return Err(format!("the durable log has a corrupt tail: {e}"));
    }

    let mut want_inputs = Vec::new();
    let mut want_keys = Vec::new();
    let mut want_revs = Vec::new();
    for c in clients {
        for op in &c.ops {
            match &op.expect {
                Expected::Read | Expected::Snapshot => {}
                Expected::Input(input) => want_inputs.push(input.clone()),
                Expected::Causal(keys) => want_keys.extend(keys.iter().copied()),
                Expected::Revs(revs) => want_revs.extend(revs.iter().cloned()),
            }
        }
    }
    let mut got_inputs = Vec::new();
    let mut got_keys = Vec::new();
    let mut got_revs = Vec::new();
    for r in &records {
        match r {
            LogRecord::Input(i) => got_inputs.push(i.clone()),
            LogRecord::Causal(ev) => got_keys.push(ev.stamp.dedup_key()),
            LogRecord::Revision(rev) => got_revs.push(rev.clone()),
            LogRecord::BatchMark { .. } | LogRecord::Snapshot(_) => {}
        }
    }
    exactly_once("user inputs", &want_inputs, &got_inputs)?;
    exactly_once("causal events", &want_keys, &got_keys)?;
    exactly_once("plain revisions", &want_revs, &got_revs)?;

    let store_cfg = *server.store().config();
    let mut reference = reference_of(&store_cfg.resolution, store_cfg.policy, spec, &records);
    let session = server
        .store_mut()
        .session(SessionId(SESSION))
        .map_err(|e| format!("touching the served session failed: {e}"))?;
    verify_recovery(session, &mut reference).map_err(|e| {
        format!("final state diverged from the canonical single-client replay: {e}")
    })?;
    report.recovery = server.store().recovery();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rid_roundtrips_client() {
        for c in 0..9 {
            assert_eq!(client_of(RequestId(rid(c, 7))), c);
        }
    }

    #[test]
    fn exactly_once_names_a_duplicated_or_a_changed_input() {
        let acked = ["a", "b", "c"];
        assert_eq!(exactly_once("inputs", &acked, &["c", "a", "b"]), Ok(()));
        // The logs have the acknowledged length, so only the comparison
        // can catch them: `b` logged twice (and `c` lost), and `b` logged
        // as `x`.
        assert_eq!(
            exactly_once("inputs", &acked, &["a", "b", "b"]),
            Err(r#"inputs: "b" logged 2 times, want exactly once"#.to_string())
        );
        assert_eq!(
            exactly_once("inputs", &acked, &["a", "x", "c"]),
            Err(r#"inputs: "b" logged 0 times, want exactly once"#.to_string())
        );
        assert_eq!(
            exactly_once("inputs", &acked, &["a", "b", "c", "b"]),
            Err("inputs: 3 acknowledged but 4 durably logged".to_string())
        );
    }

    #[test]
    fn fleet_runs_are_deterministic() {
        let cfg = FleetConfig {
            faults: ChannelFaults::faulty(),
            ..FleetConfig::default()
        };
        let a = run_fleet(&cfg).expect("fleet converges");
        let b = run_fleet(&cfg).expect("fleet converges");
        assert_eq!(a.ticks, b.ticks);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.latencies, b.latencies);
        assert_eq!(a.serve, b.serve);
    }
}
