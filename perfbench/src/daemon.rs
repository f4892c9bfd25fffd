//! `daemon-mixed`: a closed loop of requests over several socketpair
//! sessions into one in-process compile service with its default
//! configuration.

use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use ipra_driver::service::{roundtrip, CompileRequest, RequestSource, Service, ServiceConfig};
use ipra_obs::json::Json;

use crate::check::{self, Counts, Ledger, Problems};
use crate::gen::{self, Program};
use crate::layers::{trace_op, Layers};
use crate::measure::Stamp;
use crate::oneshot::{with_references, Refd};
use crate::{Measured, Workload};

/// Sessions the requests are spread over, one request in flight at a
/// time.
const SESSIONS: usize = 2;

/// Fresh programs in the after-window check sample.
const FRESH_SAMPLE: usize = 13;

/// One program of the check sample: pool index, and the expected output
/// for the corpus-derived programs, which are also simulated.
struct Sample {
    item: usize,
    expected: Option<Vec<i64>>,
}

pub struct DaemonMixed {
    corpus: Vec<Refd>,
    /// Every pool program in request order: corpus, edits, fresh.
    pool: Vec<Program>,
    requests: Vec<Json>,
    n_edits: usize,
    sample: Vec<Sample>,
    service: Service,
    seed: u64,
    setup_layers: Layers,
}

impl DaemonMixed {
    pub fn new(seed: u64) -> Result<DaemonMixed, String> {
        let mut setup_layers = Layers::default();
        let corpus = with_references(gen::corpus(), &mut setup_layers)?;
        let plain: Vec<Program> = corpus.iter().map(|r| r.prog.clone()).collect();
        let per_program = gen::DAEMON_EDITS.div_ceil(plain.len());
        let mut edits = gen::edits(&plain, per_program, seed, 400);
        edits.truncate(gen::DAEMON_EDITS);
        let fresh = gen::shaped_pool(seed, gen::DAEMON_FRESH);

        let n = plain.len();
        let mut sample: Vec<Sample> = (0..n)
            .map(|i| Sample {
                item: i,
                expected: Some(corpus[i].reference.output.clone()),
            })
            .collect();
        // The first edit of each program, which has the same shape for
        // every seed (edits are ordered round-robin over the programs).
        for (p, orig) in corpus.iter().enumerate() {
            debug_assert_eq!(edits[p].0, p);
            sample.push(Sample {
                item: n + p,
                expected: Some(orig.reference.output.clone()),
            });
        }
        // Fresh programs are checked by their assembly only: their run
        // times and cycle counts vary too much between seeds for the
        // bounded metrics.
        let mut order: Vec<usize> = (0..fresh.len()).collect();
        gen::shuffle(&mut order, &mut gen::rng(seed, 401));
        sample.extend(order.into_iter().take(FRESH_SAMPLE).map(|f| Sample {
            item: n + edits.len() + f,
            expected: None,
        }));

        let n_edits = edits.len();
        let pool: Vec<Program> = plain
            .into_iter()
            .chain(edits.into_iter().map(|(_, e)| e))
            .chain(fresh)
            .collect();
        let requests: Vec<Json> = pool
            .iter()
            .enumerate()
            .map(|(i, p)| {
                CompileRequest::new(i as i64, RequestSource::Source(p.source.clone())).to_json()
            })
            .collect();

        // Priming: every pool program once, so the window measures the
        // service's steady state.
        let service = Service::new(ServiceConfig::default());
        for (req, p) in requests.iter().zip(&pool) {
            let (resp, _) = service.dispatch(req);
            if resp.get("status").and_then(Json::as_str) != Some("ok") {
                return Err(format!(
                    "{}: priming request failed: {}",
                    p.name,
                    resp.render()
                ));
            }
        }
        Ok(DaemonMixed {
            corpus,
            pool,
            requests,
            n_edits,
            sample,
            service,
            seed,
            setup_layers,
        })
    }

    /// The pool item sent as the `k`-th request of session `c`. The split is
    /// `service_bench`'s: every third request is cold, the others are
    /// warm replays of the corpus. The cold requests alternate between an
    /// edited corpus program and a fresh program, so replay, edit and
    /// fresh come 4 : 1 : 1. Each kind is walked in a seeded order from a
    /// per-session offset.
    fn schedule(&self, perms: &[Vec<usize>; 3], c: usize, k: usize) -> usize {
        // `(kind, ordinal of this request among the session's requests of
        // that kind)`; kinds are replay 0, edit 1, fresh 2.
        let (kind, ordinal) = if k.is_multiple_of(3) {
            (1 + (k / 3) % 2, k / 6)
        } else {
            (0, k - k / 3 - 1)
        };
        let perm = &perms[kind];
        let j = (ordinal + c * perm.len() / SESSIONS) % perm.len();
        let base = [0, self.corpus.len(), self.corpus.len() + self.n_edits][kind];
        base + perm[j]
    }

    fn perms(&self) -> [Vec<usize>; 3] {
        let n_fresh = self.pool.len() - self.corpus.len() - self.n_edits;
        let mut r = gen::rng(self.seed, 402);
        [self.corpus.len(), self.n_edits, n_fresh].map(|len| {
            let mut v: Vec<usize> = (0..len).collect();
            gen::shuffle(&mut v, &mut r);
            v
        })
    }

    /// `(summed µs, count)` of the compile requests the service has timed
    /// in `Service::dispatch` so far.
    fn dispatch_micros(&self) -> (u64, u64) {
        let m = self.service.metrics_snapshot();
        m.histogram("service.request_micros", &[("cmd", "compile")])
            .map_or((0, 0), |h| (h.sum, h.count))
    }

    /// Closed-loop traffic until `deadline`: one generator thread sends
    /// request `i` on session `i % SESSIONS` and waits for its answer, so
    /// exactly one request is in flight and the process CPU time around a
    /// round trip is that request's own. Each session is served by the
    /// service's own `serve_session` on its own thread. Returns `(round
    /// trips of the ok requests as (pool item, CPU ms, wall ms), the
    /// requests' ledger, window seconds)`.
    fn traffic(
        &self,
        deadline: Instant,
        layers: Option<&mut Layers>,
    ) -> (Vec<(usize, f64, f64)>, Ledger, f64) {
        let perms = self.perms();
        let traced = layers.is_some();
        let before = self.dispatch_micros();
        let start = Instant::now();
        let mut rts = Vec::new();
        let mut ledger = Ledger::default();
        let mut responses = Vec::new();
        std::thread::scope(|s| {
            let mut clients = Vec::new();
            let mut servers = Vec::new();
            for _ in 0..SESSIONS {
                let (client, server) = UnixStream::pair().expect("socketpair");
                let service = &self.service;
                servers.push(s.spawn(move || {
                    let r = server.try_clone().expect("clone socket");
                    let _ = service.serve_session(r, server);
                }));
                clients.push(client);
            }
            let mut i = 0;
            while Instant::now() < deadline {
                let c = i % SESSIONS;
                let item = self.schedule(&perms, c, i / SESSIONS);
                i += 1;
                let t = Stamp::now();
                let resp = roundtrip(&mut clients[c], &self.requests[item]);
                let (cpu, wall) = (t.cpu_ms(), t.wall_ms());
                let problem = match &resp {
                    Ok(r)
                        if r.get("status").and_then(Json::as_str) == Some("ok")
                            && r.get("asm")
                                .and_then(Json::as_str)
                                .is_some_and(|a| !a.is_empty()) =>
                    {
                        rts.push((item, cpu, wall));
                        None
                    }
                    Ok(r) => Some(format!(
                        "{}: response {}",
                        self.pool[item].name,
                        status_of(r)
                    )),
                    Err(e) => Some(format!("{}: transport: {e}", self.pool[item].name)),
                };
                if traced {
                    if let Ok(r) = &resp {
                        responses.push((status_only(r), wall));
                    }
                }
                ledger.record(problem);
            }
            drop(clients);
            for srv in servers {
                srv.join().expect("session thread");
            }
        });
        let window_s = start.elapsed().as_secs_f64();
        if let Some(l) = layers {
            for (resp, rt) in &responses {
                l.record_response(resp, *rt);
            }
            let after = self.dispatch_micros();
            l.dispatch_ms += (after.0 - before.0) as f64 / 1e3;
            l.dispatches += after.1 - before.1;
        }
        (rts, ledger, window_s)
    }
}

fn status_of(r: &Json) -> String {
    let status = r.get("status").and_then(Json::as_str).unwrap_or("?");
    let err = r.get("error").and_then(Json::as_str).unwrap_or("");
    format!("{status} {err}")
}

/// The response without its assembly text, for the traced counters.
fn status_only(r: &Json) -> Json {
    let keep = ["status", "warm", "analysis"];
    match r {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| keep.contains(&k.as_str()))
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    }
}

impl Workload for DaemonMixed {
    fn inputs_digest(&self) -> u64 {
        let mut all = String::new();
        for p in &self.pool {
            all.push_str(&p.source);
            all.push('\0');
        }
        crate::measure::fnv(all.as_bytes())
    }

    fn params(&self) -> Vec<(&'static str, Json)> {
        let c = ServiceConfig::default();
        vec![
            ("sessions", Json::Int(SESSIONS as i64)),
            (
                "mix",
                Json::Str(
                    "every 3rd request cold (edit and fresh alternating), the rest warm replays"
                        .into(),
                ),
            ),
            ("pool_replay", Json::Int(self.corpus.len() as i64)),
            ("pool_edit", Json::Int(self.n_edits as i64)),
            (
                "pool_fresh",
                Json::Int((self.pool.len() - self.corpus.len() - self.n_edits) as i64),
            ),
            ("pool_total", Json::Int(self.pool.len() as i64)),
            ("prepared_cap", Json::Int(c.prepared_cap as i64)),
            (
                "pool_exceeds_prepared_cap",
                Json::Bool(self.pool.len() > c.prepared_cap),
            ),
            ("primed", Json::Bool(true)),
            ("check_sample", Json::Int(self.sample.len() as i64)),
        ]
    }

    fn run(&mut self, seconds: f64, trace: bool) -> Measured {
        let mut m = Measured::default();
        let mut layers = std::mem::take(&mut self.setup_layers);
        let start = Instant::now();
        let total = Duration::from_secs_f64(seconds);
        // Traced: half the window is traffic, half the layer passes over
        // the check sample.
        let traffic_end = start + if trace { total / 2 } else { total };
        let (rts, ledger, window_s) = self.traffic(traffic_end, trace.then_some(&mut layers));
        m.ledger = ledger;
        m.busy_s = window_s;
        for (item, cpu, wall) in rts {
            m.note_op(item, cpu, cpu, wall);
        }

        let config = check::config();
        if trace {
            let deadline = start + total;
            loop {
                for s in &self.sample {
                    let mut p = Problems::default();
                    let prog = &self.pool[s.item];
                    if let Err(e) = trace_op(&prog.source, &config, &mut layers, &mut || {}) {
                        p.require(false, || format!("{}: {e}", prog.name));
                    }
                    m.ledger.record(p.into_option());
                }
                if Instant::now() >= deadline {
                    break;
                }
            }
            let (prepared, entries) = self.service.pipeline().memo_sizes();
            layers.memo_prepared = prepared as u64;
            layers.memo_entries = entries as u64;
        }

        // The check sample: the service's answer must equal a local
        // one-shot compile, whose simulation (corpus-derived programs)
        // must match the interpreter.
        let (mut client, server) = UnixStream::pair().expect("socketpair");
        let mut counts = Counts::default();
        std::thread::scope(|s| {
            let service = &self.service;
            let srv = s.spawn(move || {
                let r = server.try_clone().expect("clone socket");
                service.serve_session(r, server)
            });
            for smp in &self.sample {
                let prog = &self.pool[smp.item];
                let mut p = Problems::default();
                let remote = roundtrip(&mut client, &self.requests[smp.item]);
                match check::compile_source(&prog.source, &config) {
                    Ok(local) => {
                        let same = matches!(&remote, Ok(r)
                            if r.get("asm").and_then(Json::as_str) == Some(check::asm(&local, &config).as_str()));
                        p.require(same, || {
                            format!("{}: service asm differs from local compile", prog.name)
                        });
                        if let Some(expected) = &smp.expected {
                            let name = &prog.name;
                            check::run_and_check(
                                &local,
                                &config,
                                expected,
                                &mut counts,
                                &mut p,
                                name,
                            );
                        }
                    }
                    Err(e) => p.require(false, || format!("{}: {e}", prog.name)),
                }
                m.ledger.record(p.into_option());
            }
            drop(client);
            let _ = srv.join().expect("session thread");
        });
        m.check_counts(counts);
        m.layers = trace.then_some(layers);
        m
    }
}
