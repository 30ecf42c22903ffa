//! `serve`: a resolution service under a closed loop of a few logical
//! clients on one thread. Each client sends one request, waits for its
//! reply, then sends the next — callers of a resolution service wait on
//! answers. Requests and replies cross `cr_server::proto` frames; the
//! server is `cr_server::Server` over a `cr_store::SessionStore` whose log
//! backend is `MemoryBackend`, with the store's own policy of one sync per
//! committed mutation (counted in `store.sync_calls`). The benchmark may
//! only write inside its working directory, and there, on a shared disk,
//! `FileBackend`'s per-append directory scans and file opens (and fsyncs)
//! moved the serve p99s by 20–70% between identical runs; in memory the
//! log keeps its framing, checksums, snapshots and rehydration, and only
//! the file system's share of the cost is left out.
//!
//! The traffic is the repository's own client model, `cr_data::fleet`, at
//! `FleetConfig::default()`: its clients, one tenant each, and per client
//! a script of `reads_per_client` reads (`IsValid`, `Deduce`, `TrueValues`,
//! `Suggest` in turn), `inputs_per_client` inputs, `batches_per_client`
//! one-revision `AbsorbBatch` requests and its share of `causal_events`,
//! sent as `IngestCausal` batches of 1–3 events, interleaved at random; one
//! script in `clients` ends with a `Snapshot`, as the fleet's client 0
//! does. Where the fleet aims every script at one session, here each
//! script targets one of many sessions, more than `StoreConfig::max_live`,
//! drawn with Zipf popularity (the exponent of `PowerLawConfig::default()`):
//! a hot set stays live while the tail is evicted and rehydrates from
//! snapshot plus log tail. Inputs are ground-truth answers, revisions come
//! from `gen::revision_timeline` and causal events from
//! `gen::causal_timeline`; every mutation carries an idempotency key.
//!
//! The sessions, which session each script targets and what it sends are
//! fixed, and the passes cycle through a fixed set of script orders; each
//! pass draws, from the seed and its own index, the interleaving of the
//! requests within each script. Runs under different seeds serve the same
//! work in the same orders, and a run's figures pool several orders rather
//! than hang on one.

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

use cr_core::causal::CausalRevision;
use cr_core::framework::DeductionMethod;
use cr_core::ingest::{Revision, RevisionSource};
use cr_core::spec::UserInput;
use cr_core::Specification;
use cr_data::fleet::FleetConfig;
use cr_data::gen::{
    causal_timeline, revision_timeline, scenario_from_raw, CausalTimelineConfig, PowerLawConfig,
    RevisionTimelineConfig,
};
use cr_server::admission::AdmissionConfig;
use cr_server::proto::{decode_message, encode_message, encode_request, Message, Reply, Request};
use cr_server::server::Server;
use cr_store::{
    decode_log, reference_of, verify_recovery, LogRecord, MemoryBackend, SessionId, SessionStore,
    StorageBackend, StoreConfig, StoreError,
};
use cr_types::wire::{Envelope, IdemKey, RequestId, TenantId};
use cr_types::{AttrId, Enc, Hlc, SourceId, Tuple};

use crate::drive::Latencies;
use crate::stats::{median, Samples};
use crate::trace::Tracer;
use crate::{mix, run_passes, set_user_metrics, Options, PassResult, Report, Scale};

/// Seed of the fixed session population, of the scripts' targets and of
/// their orders.
const POPULATION_SEED: u64 = 0x5E55_1045;
/// Script orders the passes cycle through. Which session is evicted and
/// rehydrated when, and so the peak memory, follows the order; a fixed
/// cycle gives every run the same orders. Odd, so that the untraced and
/// the traced passes of a traced run each go through all of them.
const ORDERS: u64 = 7;

struct Sizes {
    sessions: usize,
    max_live: usize,
    /// Client scripts per pass.
    scripts: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            sessions: 480,
            max_live: 24,
            scripts: 720,
        },
        Scale::Small => Sizes {
            sessions: 12,
            max_live: 4,
            scripts: 24,
        },
    }
}

fn store_config(max_live: usize) -> StoreConfig {
    StoreConfig {
        max_live,
        idempotency_cap: 256,
        ..StoreConfig::default()
    }
}

/// Admission never binds: the workload measures service, not shedding.
fn admission(clients: usize) -> AdmissionConfig {
    AdmissionConfig {
        refill_per_tick: 64,
        burst: 256,
        queue_cap: 2 * clients,
        max_in_flight: 2 * clients,
        default_deadline: 1 << 40,
        ..AdmissionConfig::default()
    }
}

/// The mutations one script sends to its session.
#[derive(Clone, Default)]
struct Content {
    inputs: Vec<UserInput>,
    revisions: Vec<Revision>,
    causal: Vec<CausalRevision>,
}

/// One session: its base specification and the content of each script
/// that targets it, in the order the scripts reach it.
struct Session {
    spec: Specification,
    contents: Vec<Content>,
}

/// The fixed population: sessions, and the session each script targets.
struct Population {
    sessions: Vec<Session>,
    targets: Vec<usize>,
}

/// Cumulative Zipf popularity over `n` ranks.
fn zipf_cdf(n: usize, exponent: f64) -> Vec<f64> {
    let weights: Vec<f64> = (0..n)
        .map(|k| 1.0 / ((k + 1) as f64).powf(exponent))
        .collect();
    let total: f64 = weights.iter().sum();
    weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect()
}

/// A uniform draw in `[0, 1)` from a SplitMix64 state.
fn unit(state: &mut u64) -> f64 {
    *state = mix(*state);
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

fn generate(sz: &Sizes, fleet: &FleetConfig) -> Population {
    let cdf = zipf_cdf(sz.sessions, PowerLawConfig::default().alpha);
    let mut state = POPULATION_SEED;
    let targets: Vec<usize> = (0..sz.scripts)
        .map(|_| {
            let u = unit(&mut state);
            cdf.partition_point(|&c| c < u).min(sz.sessions - 1)
        })
        .collect();
    let causal_per_script = fleet.causal_events / fleet.clients.max(1);
    let sessions = (0..sz.sessions)
        .map(|s| {
            let visits = targets.iter().filter(|&&t| t == s).count();
            let key = mix(POPULATION_SEED ^ (s as u64).wrapping_mul(0x1000_0000_01B3));
            let sc = scenario_from_raw(key, 4 + s % 7, 4, (key % 97) as u32, false);
            let revisions = revision_timeline(
                &sc.spec,
                &RevisionTimelineConfig {
                    seed: key ^ 1,
                    events: visits * fleet.batches_per_client,
                    rounds: 1,
                    ..RevisionTimelineConfig::default()
                },
            )
            .poll(0, &sc.spec);
            // The fleet's causal timeline settings, one source per client.
            let causal: Vec<CausalRevision> = causal_timeline(
                &sc.spec,
                &CausalTimelineConfig {
                    seed: key ^ 2,
                    sources: fleet.clients,
                    events: visits * causal_per_script,
                    rounds: fleet.clients.max(2),
                    burst: 2,
                    sync_density: 0.2,
                    ..CausalTimelineConfig::default()
                },
            )
            .into_iter()
            .map(|(_, e)| e)
            .collect();
            let known: Vec<AttrId> = sc
                .spec
                .schema()
                .attr_ids()
                .filter(|&a| !sc.truth.get(a).is_null())
                .collect();
            let chunk = |k: usize, per: usize| k * per..((k + 1) * per);
            let contents = (0..visits)
                .map(|k| Content {
                    inputs: chunk(k, fleet.inputs_per_client)
                        .filter(|_| !known.is_empty())
                        .map(|i| answer(&sc.truth, known[i % known.len()]))
                        .collect(),
                    revisions: slice(&revisions, chunk(k, fleet.batches_per_client)),
                    causal: slice(&causal, chunk(k, causal_per_script)),
                })
                .collect();
            Session {
                spec: sc.spec,
                contents,
            }
        })
        .collect();
    Population { sessions, targets }
}

fn answer(truth: &Tuple, attr: AttrId) -> UserInput {
    UserInput::single(attr, truth.get(attr).clone())
}

/// The items of `v` in `range`, clipped to its length.
fn slice<T: Clone>(v: &[T], range: std::ops::Range<usize>) -> Vec<T> {
    v[range.start.min(v.len())..range.end.min(v.len())].to_vec()
}

/// A client script: the session it targets and its requests in order.
struct Script {
    session: u64,
    requests: Vec<Request>,
}

const UP: DeductionMethod = DeductionMethod::UnitPropagation;

/// A pass's scripts: the population's targets in the order `order_seed`
/// draws, the k-th script to reach a session sending that session's k-th
/// content, each script's requests interleaved as `seed` draws, at random
/// as the fleet's are.
fn scripts(pop: &Population, fleet: &FleetConfig, order_seed: u64, seed: u64) -> Vec<Script> {
    let mut state = mix(order_seed ^ 0x5C12_19B7);
    let mut order: Vec<(u64, usize)> = pop
        .targets
        .iter()
        .map(|&t| {
            state = mix(state);
            (state, t)
        })
        .collect();
    let mut state = mix(seed ^ 0x5C12_19B7);
    order.sort_unstable();
    let reads = [
        Request::IsValid,
        Request::Deduce { method: UP },
        Request::TrueValues { method: UP },
        Request::Suggest { method: UP },
    ];
    let mut reached = vec![0usize; pop.sessions.len()];
    order
        .into_iter()
        .enumerate()
        .map(|(position, (_, s))| {
            let content = &pop.sessions[s].contents[reached[s]];
            reached[s] += 1;
            let mut pools: Vec<VecDeque<Request>> = vec![
                split_batch(&content.causal, &mut state)
                    .into_iter()
                    .map(|events| Request::IngestCausal { events })
                    .collect(),
                content
                    .inputs
                    .iter()
                    .map(|i| Request::ApplyInput { input: i.clone() })
                    .collect(),
                content
                    .revisions
                    .iter()
                    .map(|r| Request::AbsorbBatch {
                        revs: vec![r.clone()],
                    })
                    .collect(),
                (0..fleet.reads_per_client)
                    .map(|k| reads[k % reads.len()].clone())
                    .collect(),
            ];
            let mut requests = Vec::new();
            loop {
                let live: Vec<usize> = (0..pools.len()).filter(|&p| !pools[p].is_empty()).collect();
                if live.is_empty() {
                    break;
                }
                state = mix(state);
                let pool = live[(state % live.len() as u64) as usize];
                requests.extend(pools[pool].pop_front());
            }
            if position % fleet.clients == 0 {
                requests.push(Request::Snapshot);
            }
            Script {
                session: s as u64,
                requests,
            }
        })
        .collect()
}

/// Cuts causal events, in order, into batches of 1–3, as the fleet does.
fn split_batch(events: &[CausalRevision], state: &mut u64) -> Vec<Vec<CausalRevision>> {
    let mut out = Vec::new();
    let mut rest = events;
    while !rest.is_empty() {
        *state = mix(*state);
        let take = 1 + (*state % rest.len().min(3) as u64) as usize;
        let (batch, tail) = rest.split_at(take);
        out.push(batch.to_vec());
        rest = tail;
    }
    out
}

/// A `StorageBackend` that counts and (when tracing) spans every call into
/// the wrapped backend. `log_len` is forwarded explicitly: the trait's
/// default reads the whole log, which would change what admission costs.
pub struct TimedBackend<'t, B> {
    inner: B,
    tracer: &'t Tracer,
    pub counts: BackendCounts,
}

#[derive(Default)]
pub struct BackendCounts {
    pub append_calls: Cell<u64>,
    pub append_bytes: Cell<u64>,
    pub sync_calls: Cell<u64>,
    pub read_log_calls: Cell<u64>,
    pub read_log_bytes: Cell<u64>,
}

fn bump(c: &Cell<u64>, by: u64) {
    c.set(c.get() + by);
}

impl<B: StorageBackend> StorageBackend for TimedBackend<'_, B> {
    fn append(&mut self, id: SessionId, frame: &[u8]) -> Result<(), StoreError> {
        bump(&self.counts.append_calls, 1);
        bump(&self.counts.append_bytes, frame.len() as u64);
        self.tracer
            .span("store.append", id.0, || self.inner.append(id, frame))
    }

    fn read_log(&self, id: SessionId) -> Result<Vec<u8>, StoreError> {
        let log = self
            .tracer
            .span("store.read_log", id.0, || self.inner.read_log(id))?;
        bump(&self.counts.read_log_calls, 1);
        bump(&self.counts.read_log_bytes, log.len() as u64);
        Ok(log)
    }

    fn truncate(&mut self, id: SessionId, len: u64) -> Result<(), StoreError> {
        self.tracer
            .span("store.truncate", id.0, || self.inner.truncate(id, len))
    }

    fn sync(&mut self, id: SessionId) -> Result<(), StoreError> {
        bump(&self.counts.sync_calls, 1);
        self.tracer.span("store.sync", id.0, || self.inner.sync(id))
    }

    fn sessions(&self) -> Result<Vec<SessionId>, StoreError> {
        self.tracer
            .span("store.sessions", 0, || self.inner.sessions())
    }

    fn remove(&mut self, id: SessionId) -> Result<(), StoreError> {
        self.tracer
            .span("store.remove", id.0, || self.inner.remove(id))
    }

    fn log_len(&self, id: SessionId) -> Result<u64, StoreError> {
        self.tracer
            .span("store.log_len", id.0, || self.inner.log_len(id))
    }
}

/// A mutation as the log must hold it: inputs by content, plain revisions
/// by content, causal events by dedup key.
#[derive(Clone, Debug, PartialEq)]
enum Logged {
    Input(UserInput),
    Revision(Revision),
    Causal((SourceId, Hlc)),
}

fn logged(req: &Request) -> Vec<Logged> {
    match req {
        Request::ApplyInput { input } => vec![Logged::Input(input.clone())],
        Request::AbsorbBatch { revs } => revs.iter().cloned().map(Logged::Revision).collect(),
        Request::IngestCausal { events } => events
            .iter()
            .map(|e| Logged::Causal(e.stamp.dedup_key()))
            .collect(),
        _ => Vec::new(),
    }
}

/// A client working through scripts.
#[derive(Default)]
struct Client {
    session: u64,
    steps: VecDeque<Request>,
    /// The request in flight: its submit instant, whether it opened its
    /// script, whether its session was cold, and the request itself.
    waiting: Option<(Instant, bool, bool, Request)>,
}

/// What one pass measured.
#[derive(Default)]
struct Pass {
    setup_s: f64,
    wall_s: f64,
    lat: Latencies,
    by_kind: BTreeMap<&'static str, Samples>,
    queue_wait: Samples,
    requests: u64,
    failed: u64,
    cold: u64,
    mutations: u64,
    mutation_payload: u64,
    request_bytes: u64,
    dispatches: u64,
    dispatched: u64,
    inputs: u64,
    append_calls: u64,
    append_bytes: u64,
    sync_calls: u64,
    read_log_calls: u64,
    read_log_bytes: u64,
    log_bytes: u64,
    recovery: cr_store::RecoveryTelemetry,
    serve: cr_server::server::ServeTelemetry,
    /// Read from every session after the first pass's verification.
    sessions: SessionCounts,
}

/// Engine state of the served sessions, read from outside at the end of
/// the first pass.
#[derive(Default)]
struct SessionCounts {
    revisions: cr_core::ingest::RevisionTelemetry,
    clauses: u64,
    vars: u64,
    bytes: u64,
}

fn pass(
    pop: &Population,
    scripts: &[Script],
    sz: &Sizes,
    fleet: &FleetConfig,
    tracer: &Tracer,
    verify: bool,
    report: &mut Report,
) -> Pass {
    let mut out = Pass::default();

    // Set-up: store and server construction and the session opens.
    let t = Instant::now();
    let backend = TimedBackend {
        inner: MemoryBackend::new(),
        tracer,
        counts: BackendCounts::default(),
    };
    let store = SessionStore::new(backend, store_config(sz.max_live)).expect("store config");
    let mut server = Server::new(store, admission(fleet.clients));
    for (s, session) in pop.sessions.iter().enumerate() {
        server.open(s as u64, &session.spec);
    }
    out.setup_s = t.elapsed().as_secs_f64();
    // The pass's counters start after set-up.
    tracer.take();
    let recovery0 = server.store().recovery();

    let mut expected: Vec<Vec<Logged>> = vec![Vec::new(); pop.sessions.len()];
    let mut queue = scripts.iter();
    let mut clients: Vec<Client> = (0..fleet.clients).map(|_| Client::default()).collect();
    let mut owner: BTreeMap<u64, usize> = BTreeMap::new();
    let (mut next_id, mut now) = (1u64, 0u64);
    let began = Instant::now();
    loop {
        now += 1;
        let mut submitted_at: Vec<Instant> = Vec::new();
        let mut refused = Vec::new();
        for (c, client) in clients.iter_mut().enumerate() {
            if client.waiting.is_some() {
                continue;
            }
            let opens = client.steps.is_empty();
            if opens {
                let Some(script) = queue.next() else {
                    continue;
                };
                client.session = script.session;
                client.steps = script.requests.iter().cloned().collect();
            }
            let req = client.steps.pop_front().expect("a script has requests");
            let id = next_id;
            next_id += 1;
            owner.insert(id, c);
            let cold = !server.store().is_live(SessionId(client.session));
            let sent = Instant::now();
            let env = Envelope {
                request_id: RequestId(id),
                tenant: TenantId(c as u32),
                session: client.session,
                deadline: None,
                idempotency: req.is_mutation().then_some(IdemKey(id)),
            };
            let frame = tracer.span("proto.encode", id, || {
                encode_message(&Message::Request {
                    env,
                    req: req.clone(),
                })
            });
            out.request_bytes += frame.len() as u64;
            let Message::Request { env, req: decoded } = tracer
                .span("proto.decode", id, || decode_message(&frame))
                .expect("request frame decodes")
            else {
                panic!("a request frame decoded to a reply");
            };
            client.waiting = Some((sent, opens, cold, req));
            match tracer.span("server.submit", id, || server.submit(now, env, decoded)) {
                // Refused at admission: the reply comes straight back.
                Some(reply) => refused.push(reply),
                None => submitted_at.push(Instant::now()),
            }
        }
        for reply in refused {
            deliver(&mut clients, &owner, reply, &mut expected, &mut out);
        }
        if submitted_at.is_empty() && clients.iter().all(|c| c.waiting.is_none()) {
            break;
        }
        let dispatch_start = Instant::now();
        for at in &submitted_at {
            out.queue_wait.push(dispatch_start - *at);
        }
        let replies = tracer.span("server.dispatch", now, || server.dispatch(now));
        out.dispatches += 1;
        out.dispatched += replies.len() as u64;
        for reply in replies {
            let frame = tracer.span("proto.encode", reply.request_id.0, || {
                encode_message(&Message::Reply(reply))
            });
            let Message::Reply(reply) = tracer
                .span("proto.decode", 0, || decode_message(&frame))
                .expect("reply frame decodes")
            else {
                panic!("a reply frame decoded to a request");
            };
            deliver(&mut clients, &owner, reply, &mut expected, &mut out);
        }
    }
    out.wall_s = began.elapsed().as_secs_f64();

    // Counters of the pass, before verification touches the store.
    let counts = &server.store().backend().counts;
    out.append_calls = counts.append_calls.get();
    out.append_bytes = counts.append_bytes.get();
    out.sync_calls = counts.sync_calls.get();
    out.read_log_calls = counts.read_log_calls.get();
    out.read_log_bytes = counts.read_log_bytes.get();
    let recovery = server.store().recovery();
    out.recovery = cr_store::RecoveryTelemetry {
        rehydrations: recovery.rehydrations - recovery0.rehydrations,
        evictions: recovery.evictions - recovery0.evictions,
        events_replayed: recovery.events_replayed - recovery0.events_replayed,
        snapshots_used: recovery.snapshots_used - recovery0.snapshots_used,
        ..recovery
    };
    out.serve = server.telemetry();
    // Past the wrapper: what follows is not the pass's work.
    let log = &server.store().backend().inner;
    out.log_bytes = (0..pop.sessions.len())
        .map(|s| log.log_len(SessionId(s as u64)).expect("log length"))
        .sum();

    if verify {
        out.sessions = verify_store(&mut server, pop, &expected, report);
    }
    out
}

/// Routes a reply to its client and records its latency and the mutation
/// the log must now hold.
fn deliver(
    clients: &mut [Client],
    owner: &BTreeMap<u64, usize>,
    reply: Reply,
    expected: &mut [Vec<Logged>],
    out: &mut Pass,
) {
    let client = &mut clients[owner[&reply.request_id.0]];
    let (sent, opened, cold, req) = client
        .waiting
        .take()
        .expect("a reply answers a waiting client");
    let waited = sent.elapsed();
    out.requests += 1;
    out.by_kind.entry(req.kind()).or_default().push(waited);
    if cold {
        out.cold += 1;
    }
    if opened {
        out.lat.first_response.push(waited);
    }
    if req.is_mutation() {
        out.lat.write.push(waited);
    } else {
        out.lat.read.push(waited);
    }
    if reply.outcome.is_err() {
        out.failed += 1;
        client.steps.clear();
        return;
    }
    if let Request::ApplyInput { .. } = req {
        out.inputs += 1;
        out.lat.round.push(waited);
    }
    if req.is_mutation() {
        out.mutations += 1;
        let mut body = Enc::new();
        encode_request(&mut body, &req);
        out.mutation_payload += body.into_bytes().len() as u64;
        expected[client.session as usize].extend(logged(&req));
    }
}

/// Every served session against its log: a clean scan, each acknowledged
/// mutation exactly once and in order, and the live (or rehydrated) session
/// equivalent to a from-scratch replay of the log. Returns the sessions'
/// engine state, read on the way.
fn verify_store(
    server: &mut Server<TimedBackend<'_, MemoryBackend>>,
    pop: &Population,
    expected: &[Vec<Logged>],
    report: &mut Report,
) -> SessionCounts {
    let config = *server.store().config();
    let mut counts = SessionCounts::default();
    for (s, session) in pop.sessions.iter().enumerate() {
        let id = SessionId(s as u64);
        let bytes = match server.store().backend().read_log(id) {
            Ok(b) => b,
            Err(e) => {
                report
                    .problems
                    .push(format!("serve: session {s}: reading the log failed: {e}"));
                continue;
            }
        };
        let (records, _, scan_error) = decode_log(&bytes);
        report.check(scan_error.is_none(), || {
            format!("serve: session {s}: log scan failed: {scan_error:?}")
        });
        let got: Vec<Logged> = records
            .iter()
            .filter_map(|r| match r {
                LogRecord::Input(i) => Some(Logged::Input(i.clone())),
                LogRecord::Revision(rev) => Some(Logged::Revision(rev.clone())),
                LogRecord::Causal(ev) => Some(Logged::Causal(ev.stamp.dedup_key())),
                LogRecord::BatchMark { .. } | LogRecord::Snapshot(_) => None,
            })
            .collect();
        report.check(got == expected[s], || {
            format!(
                "serve: session {s}: log holds {} mutations, {} were acknowledged (exactly-once, in order)",
                got.len(),
                expected[s].len()
            )
        });
        let mut reference =
            reference_of(&config.resolution, config.policy, &session.spec, &records);
        match server.store_mut().session(id) {
            Ok(live) => {
                if let Err(e) = verify_recovery(live, &mut reference) {
                    report.problems.push(format!("serve: session {s}: {e}"));
                }
                let t = live.revision_telemetry();
                counts.revisions.events += t.events;
                counts.revisions.cone_union += t.cone_union;
                counts.revisions.replays_saved += t.replays_saved;
                counts.revisions.quarantined += t.quarantined;
                let encoded = live.encoded();
                counts.clauses += encoded.cnf().num_clauses() as u64;
                counts.vars += u64::from(encoded.cnf().num_vars());
                counts.bytes += encoded.approx_bytes() as u64;
            }
            Err(e) => report
                .problems
                .push(format!("serve: session {s}: touching failed: {e}")),
        }
    }
    counts
}

pub fn run(opts: &Options) -> Report {
    let sz = sizes(opts.scale);
    let fleet = FleetConfig::default();
    let pop = generate(&sz, &fleet);
    let mut report = Report::default();

    // The first pass is verified; its counts are the traced run's.
    let mut index = 0u64;
    let passes = run_passes(opts.seconds, opts.trace, |tr| {
        let order = mix(POPULATION_SEED ^ (index % ORDERS));
        let scripts = scripts(&pop, &fleet, order, mix(opts.seed ^ index));
        let p = pass(&pop, &scripts, &sz, &fleet, tr, index == 0, &mut report);
        index += 1;
        (p.wall_s, p)
    });
    let all = || passes.plain.iter().chain(&passes.traced);
    report.attempted = all().map(|p| p.requests).sum();
    report.failed = all().map(|p| p.failed).sum();

    if !opts.trace {
        report.set(
            "setup_s",
            median(&all().map(|p| p.setup_s).collect::<Vec<_>>()),
        );
        let results: Vec<PassResult> = passes
            .plain
            .iter()
            .map(|p| PassResult {
                entities_per_s: sz.scripts as f64 / p.wall_s,
                requests_per_s: p.requests as f64 / p.wall_s,
                lat: p.lat.clone(),
            })
            .collect();
        set_user_metrics(&mut report, &results, opts.scale);
        return report;
    }

    // Counts come from the first pass (so repeat exactly for a seed); busy
    // times are per traced pass.
    let f = &passes.plain[0];
    let sessions = pop.sessions.len() as f64;
    report.set(
        "encode.clauses_per_entity",
        f.sessions.clauses as f64 / sessions,
    );
    report.set("encode.vars_per_entity", f.sessions.vars as f64 / sessions);
    report.set(
        "encode.bytes_per_entity",
        f.sessions.bytes as f64 / sessions,
    );
    report.set("ingest.inputs", f.inputs as f64);
    report.set("ingest.revision_events", f.sessions.revisions.events as f64);
    report.set("ingest.cone_union", f.sessions.revisions.cone_union as f64);
    report.set(
        "ingest.replays_saved",
        f.sessions.revisions.replays_saved as f64,
    );
    report.set(
        "ingest.quarantined",
        f.sessions.revisions.quarantined as f64,
    );
    report.set("store.append_calls", f.append_calls as f64);
    report.set("store.append_bytes", f.append_bytes as f64);
    report.set("store.append_busy_ms", passes.busy_ms("store.append"));
    report.set("store.sync_calls", f.sync_calls as f64);
    report.set("store.sync_busy_ms", passes.busy_ms("store.sync"));
    report.set("store.read_log_calls", f.read_log_calls as f64);
    report.set("store.read_log_bytes", f.read_log_bytes as f64);
    report.set("store.rehydrations", f.recovery.rehydrations as f64);
    report.set("store.events_replayed", f.recovery.events_replayed as f64);
    report.set("store.snapshots_used", f.recovery.snapshots_used as f64);
    report.set("store.evictions", f.recovery.evictions as f64);
    report.set("store.cold_ratio", f.cold as f64 / f.requests.max(1) as f64);
    report.set(
        "store.write_amplification",
        f.append_bytes as f64 / f.mutation_payload.max(1) as f64,
    );
    report.set(
        "store.disk_bytes_per_mutation",
        f.log_bytes as f64 / f.mutations.max(1) as f64,
    );
    report.set("server.submit_busy_ms", passes.busy_ms("server.submit"));
    report.set("server.dispatch_busy_ms", passes.busy_ms("server.dispatch"));
    report.set(
        "server.requests_per_dispatch",
        f.dispatched as f64 / f.dispatches.max(1) as f64,
    );
    let mut queue_wait = Samples::default();
    let mut by_kind = BTreeMap::<&'static str, Samples>::new();
    for p in &passes.traced {
        queue_wait.extend(&p.queue_wait);
        for (kind, s) in &p.by_kind {
            by_kind.entry(kind).or_default().extend(s);
        }
    }
    report.set("server.queue_wait_p99_ms", queue_wait.p99());
    report.set(
        "server.shed",
        (f.serve.shed_rate + f.serve.shed_queue) as f64,
    );
    report.set(
        "server.expired",
        (f.serve.expired_in_queue + f.serve.expired_mid_request) as f64,
    );
    report.set("server.max_queue_depth", f.serve.max_queue_depth as f64);
    report.set(
        "server.error_ratio",
        f.failed as f64 / f.requests.max(1) as f64,
    );
    for (kind, name) in [
        ("is_valid", "server.is_valid_p50_ms"),
        ("deduce", "server.deduce_p50_ms"),
        ("true_values", "server.true_values_p50_ms"),
        ("suggest", "server.suggest_p50_ms"),
        ("apply_input", "server.apply_input_p50_ms"),
        ("ingest_causal", "server.ingest_causal_p50_ms"),
        ("absorb_batch", "server.absorb_batch_p50_ms"),
        ("snapshot", "server.snapshot_p50_ms"),
    ] {
        report.set(name, by_kind.get(kind).map_or(0.0, Samples::p50));
    }
    report.set("proto.encode_busy_ms", passes.busy_ms("proto.encode"));
    report.set("proto.decode_busy_ms", passes.busy_ms("proto.decode"));
    report.set(
        "proto.request_bytes_mean",
        f.request_bytes as f64 / f.requests.max(1) as f64,
    );
    passes.set_trace_metrics(&mut report, "serve");
    report
}
