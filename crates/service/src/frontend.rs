//! The TCP front end the daemon and the cluster coordinator share: one
//! accept loop, one shutdown wake-up and one connection loop.
//!
//! The connection loop reads a line (an oversized or non-UTF-8 line gets
//! a named `err` frame, then the connection closes), skips blank lines,
//! parses and validates through [`verbs::validate`], answers `hello`,
//! gates admission, times the request, records metrics, writes the frame
//! and handles `shutdown`. A front end supplies only what differs: its
//! dispatch, its admission gate and its `watch` takeover.

use crate::admission::ANON_CLIENT;
use crate::metrics::Metrics;
use crate::protocol::{self, LineRead, Request};
use crate::verbs::{self, Front, Kind, Params, Verb};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a connection read blocks before re-checking shutdown: idle
/// keep-alive connections cannot stall a drain by more than this.
const READ_TIMEOUT: Duration = Duration::from_millis(200);

/// One validated request, as a front end's dispatch sees it.
#[derive(Debug)]
pub struct Call<'c> {
    /// The verb's table row.
    pub verb: &'static Verb,
    /// The parsed request (for forwarding and text-valued keys).
    pub req: &'c Request<'c>,
    /// The typed parameters.
    pub params: Params,
    /// The connection's `hello` identity.
    pub client: &'c str,
    /// When the line was read; deadlines are anchored here.
    pub received: Instant,
}

/// What a daemon or coordinator plugs into the shared loops.
pub trait Frontend: Send + Sync + Sized + 'static {
    /// Which verb set this front end serves.
    const FRONT: Front;

    /// The request counters and latency histogram `stats` reports.
    fn metrics(&self) -> &Metrics;

    /// The discretization budget in total cells (`0` = none).
    fn max_cells(&self) -> usize;

    /// Admission for a gated verb: `Err(retry_after_ms)` sheds it.
    fn admit(&self, _client: &str) -> Result<(), u64> {
        Ok(())
    }

    /// Answers one validated request (never `hello` or `watch`).
    ///
    /// # Errors
    ///
    /// The `err` frame text.
    fn dispatch(self: &Arc<Self>, call: &Call<'_>) -> Result<String, String>;

    /// Takes the connection over for a `watch`; `stopping` is the
    /// listener's shutdown flag and `subscribed` runs once the baseline
    /// frame is out. `Ok` retires the connection loop.
    ///
    /// # Errors
    ///
    /// The `err` frame text of a rejected subscription; the connection
    /// keeps serving.
    fn watch(
        &self,
        call: &Call<'_>,
        stream: &TcpStream,
        stopping: &AtomicBool,
        subscribed: &dyn Fn(),
    ) -> Result<(), String>;

    /// Runs once every connection has finished.
    fn drained(&self) {}
}

/// A listener's stop flag plus the address that wakes its acceptor.
#[derive(Debug)]
struct Lifecycle {
    addr: SocketAddr,
    stopping: AtomicBool,
}

impl Lifecycle {
    fn is_stopping(&self) -> bool {
        self.stopping.load(Ordering::SeqCst)
    }

    /// Begins shutdown (idempotent) and wakes the blocking accept.
    fn stop(&self) {
        if !self.stopping.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect(self.addr);
        }
    }
}

/// A front end whose acceptor is running. Dropping it shuts down and
/// waits, like [`Running::wait`].
#[derive(Debug)]
pub struct Running {
    life: Arc<Lifecycle>,
    acceptor: Option<JoinHandle<()>>,
}

impl Running {
    /// Spawns the acceptor serving `front` on `listener`.
    ///
    /// # Errors
    ///
    /// The listener's address cannot be read.
    pub fn spawn<F: Frontend>(listener: TcpListener, front: Arc<F>) -> io::Result<Self> {
        let life = Arc::new(Lifecycle {
            addr: listener.local_addr()?,
            stopping: AtomicBool::new(false),
        });
        let acceptor_life = Arc::clone(&life);
        let acceptor = std::thread::spawn(move || accept_loop(&listener, &front, &acceptor_life));
        Ok(Running {
            life,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.life.addr
    }

    /// Begins shutdown without waiting.
    pub fn shutdown(&self) {
        self.life.stop();
    }

    /// Blocks until the acceptor and every connection have finished.
    pub fn wait(mut self) {
        self.join();
    }

    fn join(&mut self) {
        if let Some(handle) = self.acceptor.take() {
            handle.join().expect("acceptor thread panicked");
        }
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        self.life.stop();
        self.join();
    }
}

fn accept_loop<F: Frontend>(listener: &TcpListener, front: &Arc<F>, life: &Arc<Lifecycle>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    for conn in listener.incoming() {
        if life.is_stopping() {
            break;
        }
        if let Ok(stream) = conn {
            let (front, life) = (Arc::clone(front), Arc::clone(life));
            handlers.push(std::thread::spawn(move || serve(&front, &life, &stream)));
        }
    }
    // Graceful drain: handlers notice the flag within one read timeout.
    for handle in handlers {
        handle.join().expect("connection handler panicked");
    }
    front.drained();
}

/// Writes one answer and counts it; `false` when the connection broke.
fn reply(
    metrics: &Metrics,
    stream: &TcpStream,
    verb: &str,
    received: Instant,
    answer: Result<String, String>,
) -> bool {
    let mut writer = stream;
    match answer {
        Ok(payload) => {
            metrics.record(verb, received.elapsed().as_secs_f64() * 1e3);
            protocol::write_ok(&mut writer, &payload).is_ok()
        }
        Err(message) => {
            metrics.record_rejected();
            protocol::write_err(&mut writer, &message).is_ok()
        }
    }
}

fn serve<F: Frontend>(front: &Arc<F>, life: &Lifecycle, stream: &TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let metrics = front.metrics();
    let mut carry: Vec<u8> = Vec::new();
    // `hello client=NAME` names the connection; everything before (or
    // without) a hello shares the anonymous identity.
    let mut client = ANON_CLIENT.to_string();
    loop {
        let line = match protocol::read_request_line_checked(stream, &mut carry, &life.stopping) {
            LineRead::Line(line) => line,
            LineRead::Closed => return,
            bad => {
                // The framing is lost: say why, then drop the connection.
                let message = protocol::line_read_error(&bad).expect("oversized or invalid");
                let _ = reply(metrics, stream, "", Instant::now(), Err(message));
                return;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let received = Instant::now();
        let validated = Request::parse(&line).and_then(|req| {
            let (verb, params) = verbs::validate(&req, F::FRONT, front.max_cells())?;
            Ok((req, verb, params))
        });
        let (req, verb, params) = match validated {
            Ok(validated) => validated,
            Err(message) => {
                if !reply(metrics, stream, "", received, Err(message)) {
                    return;
                }
                continue;
            }
        };
        let call = Call {
            verb,
            req: &req,
            params,
            client: &client,
            received,
        };
        let answer = match verb.kind {
            Kind::Hello => {
                client = verbs::client_of(&req).to_string();
                Ok(format!("hello {client}\n"))
            }
            Kind::Watch => {
                let subscribed =
                    || metrics.record(verb.name, received.elapsed().as_secs_f64() * 1e3);
                match front.watch(&call, stream, &life.stopping, &subscribed) {
                    Ok(()) => return,
                    Err(message) => Err(message),
                }
            }
            _ if verb.gated => match front.admit(&client) {
                Ok(()) => front.dispatch(&call),
                Err(retry_ms) => {
                    metrics.record_busy();
                    let busy = format!("busy retry_after={retry_ms}");
                    if protocol::write_err(&mut &*stream, &busy).is_err() {
                        return;
                    }
                    continue;
                }
            },
            _ => front.dispatch(&call),
        };
        let stop = answer.is_ok() && verb.kind == Kind::Shutdown;
        if !reply(metrics, stream, verb.name, received, answer) {
            return;
        }
        if stop {
            life.stop();
        }
        if life.is_stopping() {
            return;
        }
    }
}
