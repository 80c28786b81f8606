//! The closed-loop wire load generator shared by `grid-short` and
//! `cold-submit`: a loopback server with a two-worker pool, and client
//! threads that each own one connection (or one per operation) and wait for
//! every reply before sending the next request.

use crate::spans::Tracer;
use crate::util::{ms, Rng};
use crate::{E2e, CLIENTS, MAX_WINDOW, MIN_OPS, SERVER_WORKERS};
use cassandra_core::eval::AnalysisStore;
use cassandra_server::{serve, Client, EvalService, Request, Response, ServerHandle};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// A loopback server under test, shut down and joined on drop.
pub struct Server {
    handle: Option<ServerHandle>,
    pub addr: SocketAddr,
    pub store: Arc<AnalysisStore>,
}

impl Server {
    pub fn start() -> std::io::Result<Server> {
        let service = EvalService::new();
        let store = Arc::clone(service.store());
        let handle = serve("127.0.0.1:0", service, SERVER_WORKERS)?;
        Ok(Server {
            addr: handle.addr(),
            handle: Some(handle),
            store,
        })
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
            handle.join();
        }
    }
}

/// Sends `request` and collects its reply stream up to the terminal line.
pub fn call(
    client: &mut Client,
    id: &str,
    request: &Request,
    tracer: Option<(&Tracer, &crate::spans::Open)>,
) -> std::io::Result<Vec<Response>> {
    client.send_tagged(id, request)?;
    let mut replies = Vec::new();
    loop {
        let (_, response) = match tracer {
            Some((t, parent)) => t.span("client.recv", Some(parent), parent.request, |_| {
                client.recv_tagged()
            })?,
            None => client.recv_tagged()?,
        };
        let terminal = response.is_terminal();
        replies.push(response);
        if terminal {
            return Ok(replies);
        }
    }
}

/// What one client saw.
#[derive(Default)]
pub struct Tally {
    pub latencies_ms: Vec<f64>,
    pub cells: u64,
    pub instrs: u64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// One operation: the requests a client sends back to back. `check`
/// inspects each request's reply stream and returns false if the
/// operation failed.
pub trait Ops: Sync {
    fn next_op(&self, client: usize, n: usize, rng: &mut Rng) -> Option<Vec<Request>>;
    fn check(
        &self,
        client: usize,
        request: &Request,
        replies: &[Response],
        tally: &mut Tally,
    ) -> bool;
    /// True if every operation opens its own connection.
    fn connection_per_op(&self) -> bool {
        false
    }
}

/// Drives `CLIENTS` closed-loop clients against `addr` until `seconds`
/// have passed and at least `MIN_OPS` operations completed (or the
/// workload runs out of operations).
pub fn drive(
    addr: SocketAddr,
    workload: &dyn Ops,
    seed: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> (E2e, Tally) {
    let done = AtomicUsize::new(0);
    let barrier = Barrier::new(CLIENTS + 1);
    let totals = Mutex::new(Tally::default());
    let mut window = Duration::ZERO;
    std::thread::scope(|scope| {
        let mut clients = Vec::with_capacity(CLIENTS);
        for c in 0..CLIENTS {
            let (done, barrier, totals) = (&done, &barrier, &totals);
            clients.push(scope.spawn(move || {
                let mut tally = Tally::default();
                let mut rng = Rng::new(seed, 1 + c as u64);
                let client = Client::connect(addr);
                barrier.wait();
                let start = Instant::now();
                let mut client = match client {
                    Ok(client) => client,
                    Err(e) => {
                        tally.errors.push(format!("client {c} connect: {e}"));
                        lock(totals).merge(tally);
                        return;
                    }
                };
                let mut n = 0;
                while (start.elapsed().as_secs_f64() < seconds
                    || done.load(Ordering::Relaxed) < MIN_OPS)
                    && start.elapsed() < MAX_WINDOW
                {
                    let Some(requests) = workload.next_op(c, n, &mut rng) else {
                        break;
                    };
                    let op = (c * 1_000_000 + n) as u64;
                    // Latency covers the connection (if the op opens one)
                    // and the calls, not the checks between them.
                    let mut busy = Duration::ZERO;
                    if workload.connection_per_op() {
                        let t = Instant::now();
                        match Client::connect(addr) {
                            Ok(fresh) => client = fresh,
                            Err(e) => {
                                tally.errors.push(format!("client {c} connect: {e}"));
                                break;
                            }
                        }
                        busy += t.elapsed();
                    }
                    let span = tracer.map(|tr| tr.open("client.op", None, op));
                    let mut ok = true;
                    for (j, request) in requests.iter().enumerate() {
                        let id = format!("c{c}-{n}-{j}");
                        let traced = tracer.zip(span.as_ref());
                        let t = Instant::now();
                        let replies = call(&mut client, &id, request, traced);
                        busy += t.elapsed();
                        match replies {
                            Ok(replies) => ok &= workload.check(c, request, &replies, &mut tally),
                            Err(e) => {
                                tally.errors.push(format!("client {c} request {id}: {e}"));
                                ok = false;
                            }
                        }
                        if !ok {
                            break;
                        }
                    }
                    if let (Some(tr), Some(span)) = (tracer, span) {
                        tr.close(span);
                    }
                    tally.attempted += 1;
                    if ok {
                        tally.latencies_ms.push(ms(busy));
                    } else {
                        tally.failed += 1;
                    }
                    n += 1;
                    done.fetch_add(1, Ordering::Relaxed);
                }
                lock(totals).merge(tally);
            }));
        }
        barrier.wait();
        let start = Instant::now();
        for client in clients {
            let _ = client.join();
        }
        window = start.elapsed();
    });
    let tally = totals
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let e2e = E2e {
        cells: tally.cells,
        instrs: tally.instrs,
        wall_s: window.as_secs_f64(),
        latencies_ms: tally.latencies_ms.clone(),
        ..E2e::default()
    };
    (e2e, tally)
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.latencies_ms.extend(other.latencies_ms);
        self.cells += other.cells;
        self.instrs += other.instrs;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
    }
}
