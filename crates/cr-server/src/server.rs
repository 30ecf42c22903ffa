//! The serving front-end: admission, fair dispatch, deadlines, and
//! idempotent retries over a [`SessionStore`].
//!
//! [`Server`] is deterministic and single-threaded by design: the harness
//! (a simulated client fleet, a soak, a bench) advances a logical tick
//! counter and drives two entry points — [`Server::submit`] makes the
//! admission decision *now* (shedding returns an immediate reply, an
//! admitted request is queued per tenant), and [`Server::dispatch`]
//! drains the queues round-robin, one request per tenant per turn, under
//! the global in-flight budget. The request lifecycle:
//!
//! 1. **Admission** (submit tick): the tenant's token bucket must cover
//!    the request cost (cold sessions cost extra), and its bounded queue
//!    must have room — otherwise `ServeError::Overloaded { retry_after }`.
//! 2. **Cancellation** (dequeue tick): a request whose deadline passed
//!    while queued is cancelled without touching the engine.
//! 3. **Execution**: multi-phase reads thread a
//!    [`PhaseDeadline`] and can expire
//!    between phases; mutations are atomic (WAL-committed whole or not at
//!    all, per `cr-store`'s batch discipline).
//! 4. **Idempotency**: a mutating request carrying an idempotency key is
//!    looked up in the store's ledger first — a retry of an acknowledged
//!    mutation replays the recorded reply instead of re-applying; under
//!    it, the causal frontier's `(source, hlc)` dedup catches stamped
//!    events regardless.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use cr_core::deadline::PhaseDeadline;
use cr_core::spec::Specification;
use cr_store::{SessionId, SessionStore, StorageBackend, StoreError};
use cr_types::codec::{Dec, Enc};
use cr_types::wire::Envelope;

use crate::admission::{AdmissionConfig, TokenBucket};
use crate::proto::{decode_response, encode_response, Reply, Request, Response, ServeError};

/// Serving telemetry: what admission, the queues and the dispatcher did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeTelemetry {
    /// Requests submitted (admitted + shed + rejected outright).
    pub submitted: u64,
    /// Requests that passed admission and were queued.
    pub admitted: u64,
    /// Requests shed by an empty token bucket.
    pub shed_rate: u64,
    /// Requests shed by a full tenant queue.
    pub shed_queue: u64,
    /// Requests cancelled at dequeue because their deadline had passed.
    pub expired_in_queue: u64,
    /// Requests that expired between phases mid-execution.
    pub expired_mid_request: u64,
    /// Requests answered with a successful [`Response`].
    pub served: u64,
    /// Requests answered with a non-deadline [`ServeError`].
    pub failed: u64,
    /// Mutation retries answered from the idempotency ledger (no
    /// re-apply).
    pub idem_hits: u64,
    /// High-water mark of any single tenant queue.
    pub max_queue_depth: u64,
}

impl fmt::Display for ServeTelemetry {
    /// One human-readable row per server, for soak and bench output.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "serve: {} submitted, {} admitted, {} served, {} failed, shed {}+{} \
             (rate+queue), expired {}+{} (queue+mid), {} idempotent replays, \
             queue depth ≤ {}",
            self.submitted,
            self.admitted,
            self.served,
            self.failed,
            self.shed_rate,
            self.shed_queue,
            self.expired_in_queue,
            self.expired_mid_request,
            self.idem_hits,
            self.max_queue_depth,
        )
    }
}

struct Queued {
    env: Envelope,
    req: Request,
    /// Absolute deadline tick (the envelope's, or the stamped default).
    deadline: u64,
}

struct Tenant {
    bucket: TokenBucket,
    queue: VecDeque<Queued>,
}

/// A deterministic, tick-driven serving front-end over a
/// [`SessionStore`].
pub struct Server<B: StorageBackend> {
    store: SessionStore<B>,
    cfg: AdmissionConfig,
    tenants: BTreeMap<u32, Tenant>,
    /// Rotates the round-robin starting tenant across dispatch calls so
    /// a budget smaller than the tenant count still divides fairly.
    rr_cursor: u64,
    telemetry: ServeTelemetry,
}

impl<B: StorageBackend> Server<B> {
    /// A server over `store` with the given admission knobs.
    pub fn new(store: SessionStore<B>, cfg: AdmissionConfig) -> Self {
        Server {
            store,
            cfg,
            tenants: BTreeMap::new(),
            rr_cursor: 0,
            telemetry: ServeTelemetry::default(),
        }
    }

    /// Registers a session with its base specification (cheap; see
    /// [`SessionStore::open`]).
    pub fn open(&mut self, session: u64, base: &Specification) {
        self.store.open(SessionId(session), base);
    }

    /// The serving telemetry so far.
    pub fn telemetry(&self) -> ServeTelemetry {
        self.telemetry
    }

    /// The admission configuration.
    pub fn admission(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// Immutable access to the underlying store (differential harnesses
    /// read recovery telemetry and logs through this).
    pub fn store(&self) -> &SessionStore<B> {
        &self.store
    }

    /// Mutable access to the underlying store (tests force evictions and
    /// reach fault-injecting backends through this).
    pub fn store_mut(&mut self) -> &mut SessionStore<B> {
        &mut self.store
    }

    /// Total requests currently queued across all tenants.
    pub fn queued(&self) -> usize {
        self.tenants.values().map(|t| t.queue.len()).sum()
    }

    /// Submits a request at tick `now`. The admission decision is made
    /// synchronously: `Some(reply)` is an immediate rejection (shed or
    /// invalid), `None` means the request was admitted and queued for a
    /// later [`Server::dispatch`].
    pub fn submit(&mut self, now: u64, env: Envelope, req: Request) -> Option<Reply> {
        self.telemetry.submitted += 1;
        let request_id = env.request_id;
        let reject = |outcome: ServeError| {
            Some(Reply {
                request_id,
                outcome: Err(outcome),
            })
        };

        // Probe without touching: a shed request must not bump the LRU
        // clock or trigger a rehydration.
        let probe = match self.store.admission_probe(SessionId(env.session)) {
            Ok(p) => p,
            Err(StoreError::UnknownSession(id)) => {
                return reject(ServeError::UnknownSession { session: id.0 });
            }
            Err(e) => {
                return reject(ServeError::Store {
                    message: e.to_string(),
                })
            }
        };
        let cost = self.cfg.cost + if probe.live { 0 } else { self.cfg.cold_cost };

        let cfg = self.cfg;
        let tenant = self.tenants.entry(env.tenant.0).or_insert_with(|| Tenant {
            bucket: TokenBucket::full(&cfg, now),
            queue: VecDeque::new(),
        });
        if let Err(retry_after) = tenant.bucket.try_spend(&cfg, now, cost) {
            self.telemetry.shed_rate += 1;
            return reject(ServeError::Overloaded { retry_after });
        }
        if tenant.queue.len() >= cfg.queue_cap {
            // Honest drain estimate: the queue empties at most
            // max_in_flight per dispatch tick even if this tenant gets
            // the whole budget.
            let retry_after = 1 + (tenant.queue.len() / cfg.max_in_flight.max(1)) as u64;
            self.telemetry.shed_queue += 1;
            return reject(ServeError::Overloaded { retry_after });
        }
        let deadline = env
            .deadline
            .unwrap_or_else(|| now.saturating_add(cfg.default_deadline));
        tenant.queue.push_back(Queued { env, req, deadline });
        self.telemetry.admitted += 1;
        self.telemetry.max_queue_depth = self
            .telemetry
            .max_queue_depth
            .max(tenant.queue.len() as u64);
        None
    }

    /// Drains queued requests at tick `now`: round-robin across tenants
    /// (one request per tenant per turn) until every queue is empty or
    /// the global in-flight budget (`max_in_flight`) is spent. Returns
    /// the replies in dispatch order.
    pub fn dispatch(&mut self, now: u64) -> Vec<Reply> {
        let mut replies = Vec::new();
        let mut budget = self.cfg.max_in_flight;
        let order: Vec<u32> = self
            .tenants
            .iter()
            .filter(|(_, t)| !t.queue.is_empty())
            .map(|(&id, _)| id)
            .collect();
        if order.is_empty() || budget == 0 {
            return replies;
        }
        // Rotate the starting tenant so a budget smaller than the tenant
        // count doesn't always favour the lowest id.
        let start = (self.rr_cursor % order.len() as u64) as usize;
        self.rr_cursor = self.rr_cursor.wrapping_add(1);
        let mut progressed = true;
        while budget > 0 && progressed {
            progressed = false;
            for i in 0..order.len() {
                if budget == 0 {
                    break;
                }
                let id = order[(start + i) % order.len()];
                let Some(queued) = self.tenants.get_mut(&id).and_then(|t| t.queue.pop_front())
                else {
                    continue;
                };
                budget -= 1;
                progressed = true;
                replies.push(self.execute(now, queued));
            }
        }
        replies
    }

    /// Executes one dequeued request at tick `now`.
    fn execute(&mut self, now: u64, queued: Queued) -> Reply {
        let Queued { env, req, deadline } = queued;
        let request_id = env.request_id;
        // Cancellation at dequeue time: a request that overstayed its
        // deadline in the queue never touches the engine.
        if now > deadline {
            self.telemetry.expired_in_queue += 1;
            return Reply {
                request_id,
                outcome: Err(ServeError::DeadlineExceeded {
                    deadline,
                    now,
                    queued: true,
                }),
            };
        }
        let id = SessionId(env.session);

        // Idempotent retry: an acknowledged mutation replays its recorded
        // reply instead of re-applying.
        if req.is_mutation() {
            if let Some(key) = env.idempotency {
                if let Some(bytes) = self.store.idempotent_reply(id, key.0) {
                    // The ledger holds what this server encoded, but its
                    // bytes are the store's: a reply that no longer decodes
                    // is a store error, not a panic.
                    let outcome = decode_response(&mut Dec::new(bytes))
                        .map_err(|e| store_err(StoreError::Codec(e)));
                    if outcome.is_ok() {
                        self.telemetry.idem_hits += 1;
                        self.telemetry.served += 1;
                    } else {
                        self.telemetry.failed += 1;
                    }
                    return Reply {
                        request_id,
                        outcome,
                    };
                }
            }
        }

        let mut pd = PhaseDeadline::new(now, deadline, self.cfg.cost_per_phase);
        let outcome = self.run(id, &req, &mut pd);
        match &outcome {
            Ok(resp) => {
                if req.is_mutation() {
                    if let Some(key) = env.idempotency {
                        let mut e = Enc::new();
                        encode_response(&mut e, resp);
                        let _ = self.store.record_reply(id, key.0, e.into_bytes());
                    }
                }
                self.telemetry.served += 1;
            }
            Err(ServeError::DeadlineExceeded { .. }) => {
                self.telemetry.expired_mid_request += 1;
            }
            Err(_) => self.telemetry.failed += 1,
        }
        Reply {
            request_id,
            outcome,
        }
    }

    /// Runs the request against the store/engine under the phase budget.
    fn run(
        &mut self,
        id: SessionId,
        req: &Request,
        pd: &mut PhaseDeadline,
    ) -> Result<Response, ServeError> {
        match req {
            Request::IsValid => {
                let session = self.store.session(id).map_err(store_err)?;
                pd.enter_phase().map_err(deadline_err)?;
                Ok(Response::Valid(session.is_valid()))
            }
            Request::Deduce { method } => {
                let session = self.store.session(id).map_err(store_err)?;
                pd.enter_phase().map_err(deadline_err)?;
                let od = session.deduce(*method);
                Ok(Response::Deduced {
                    found: od.is_some(),
                    order_pairs: od.map_or(0, |od| od.size() as u64),
                })
            }
            Request::TrueValues { method } => {
                let session = self.store.session(id).map_err(store_err)?;
                pd.enter_phase().map_err(deadline_err)?;
                if !session.is_valid() {
                    return Ok(Response::TrueValues { values: Vec::new() });
                }
                pd.enter_phase().map_err(deadline_err)?;
                // Cannot fire: `is_valid` just returned true on this same
                // session, and unit propagation or the solver probes only
                // fail on an invalid specification.
                let od = session
                    .deduce(*method)
                    .expect("valid specifications always deduce");
                pd.enter_phase().map_err(deadline_err)?;
                let tv = session.true_values(&od);
                Ok(Response::TrueValues {
                    values: tv.as_slice().to_vec(),
                })
            }
            Request::Suggest { method } => {
                let session = self.store.session(id).map_err(store_err)?;
                pd.enter_phase().map_err(deadline_err)?;
                if !session.is_valid() {
                    return Ok(Response::Suggest {
                        ask: Vec::new(),
                        derived: Vec::new(),
                    });
                }
                pd.enter_phase().map_err(deadline_err)?;
                // Cannot fire: `is_valid` just returned true on this same
                // session, and unit propagation or the solver probes only
                // fail on an invalid specification.
                let od = session
                    .deduce(*method)
                    .expect("valid specifications always deduce");
                pd.enter_phase().map_err(deadline_err)?;
                let tv = session.true_values(&od);
                pd.enter_phase().map_err(deadline_err)?;
                let sug = session.suggest(&od, &tv);
                Ok(Response::Suggest {
                    ask: sug.ask.into_iter().collect(),
                    derived: sug.derived,
                })
            }
            Request::ApplyInput { input } => {
                pd.check().map_err(deadline_err)?;
                let added = self.store.apply_input(id, input).map_err(store_err)?;
                Ok(Response::Applied {
                    added: added as u64,
                })
            }
            Request::IngestCausal { events } => {
                pd.check().map_err(deadline_err)?;
                let effective = self
                    .store
                    .ingest_causal(id, events.clone())
                    .map_err(store_err)?;
                let epoch = self.store.session(id).map_err(store_err)?.epoch().0;
                Ok(Response::Ingested {
                    effective: effective.len() as u64,
                    epoch,
                })
            }
            Request::AbsorbBatch { revs } => {
                pd.check().map_err(deadline_err)?;
                let (report, applied) = self
                    .store
                    .absorb_revision_batch(id, revs)
                    .map_err(store_err)?;
                Ok(Response::Absorbed {
                    epoch: report.epoch.0,
                    applied,
                })
            }
            Request::Snapshot => {
                pd.check().map_err(deadline_err)?;
                self.store.snapshot(id).map_err(store_err)?;
                let log_bytes = self.store.log_len(id).map_err(store_err)?;
                Ok(Response::Snapshotted { log_bytes })
            }
        }
    }
}

fn store_err(e: StoreError) -> ServeError {
    match e {
        StoreError::UnknownSession(id) => ServeError::UnknownSession { session: id.0 },
        other => ServeError::Store {
            message: other.to_string(),
        },
    }
}

fn deadline_err(e: cr_core::deadline::DeadlineExceeded) -> ServeError {
    ServeError::DeadlineExceeded {
        deadline: e.deadline,
        now: e.now,
        queued: false,
    }
}
