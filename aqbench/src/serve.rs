//! serve-zipf: `aqks-server` on loopback, driven by an in-process load
//! generator with one connection per CPU (at most two).
//!
//! The open-loop phase sends a seeded Poisson schedule at a fixed
//! offered rate, pipelining requests per connection: a sender thread
//! waits for each scheduled arrival by yielding the processor (see
//! [`wait_until`]), and a reader thread blocks on the connection. It
//! times each request from its *scheduled* send time to the last line
//! of its response, so a generator that falls behind shows up as
//! latency (and in `loadgen.late_p99_ms`) instead of silently lowering
//! the load. A short closed-loop phase then saturates the server for
//! `throughput_qps`. Every response is checked against the local
//! single-threaded reference answer.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use aqks_core::{Engine, Interpretation};
use aqks_server::protocol::{parse_err_line, parse_ok_header, unescape};
use aqks_server::{Answer, Request, Server, ServerConfig, WireError, WireInterp};

use crate::expected::same_wire_answer;
use crate::out::Out;
use crate::rng::{poisson_schedule, Arrival, Rng, Zipf, DRAWS};
use crate::stats;
use crate::workload::Instance;

/// Offered open-loop rate: about half the closed-loop capacity this
/// workload measured on a 2-CPU host.
pub const OFFERED_QPS: f64 = 400.0;
/// Server worker threads.
pub const WORKERS: usize = 2;
/// Zipf exponent of query popularity.
pub const ZIPF_S: f64 = 1.0;
/// Share of the run spent in the closed-loop saturation phase.
const SATURATION_SHARE: f64 = 0.2;
/// Requests in flight per connection during saturation.
const IN_FLIGHT: usize = 2;
/// Longest wait for a response before a connection gives up.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Load-generator connections (and threads): one per CPU, at most two.
pub fn connections() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).clamp(1, 2)
}

/// The server policy the workload runs under.
pub fn config() -> ServerConfig {
    ServerConfig { workers: WORKERS, ..ServerConfig::default() }
}

/// Set-up: `Engine::new` plus `Server::start`, `reps` times on fresh
/// copies of the data. Returns per-repetition total and server-start
/// times and the last repetition's running server.
pub fn setup(inst: &Instance, reps: usize) -> Result<(Vec<f64>, Vec<f64>, Server), String> {
    let (mut total, mut start) = (Vec::new(), Vec::new());
    let mut server: Option<Server> = None;
    for _ in 0..reps.max(1) {
        if let Some(s) = server.take() {
            s.shutdown();
        }
        let db = inst.db.clone();
        let t = Instant::now();
        let engine = Engine::new(db).map_err(|e| format!("engine: {e}"))?;
        let ts = Instant::now();
        let s = Server::start(Arc::new(engine), config()).map_err(|e| format!("server: {e}"))?;
        start.push(ts.elapsed().as_secs_f64());
        total.push(t.elapsed().as_secs_f64());
        server = Some(s);
    }
    Ok((total, start, server.expect("at least one set-up repetition")))
}

/// `Err` when a request failed, degraded, or mismatched its reference.
type Verdict = Result<(), String>;

/// One request's outcome.
#[derive(Debug, Clone)]
pub struct Done {
    /// From the scheduled send time to the last response line (ms).
    pub latency_ms: f64,
    /// From the actual send to the last response line, minus the
    /// server's own execution time (`OK … us=`), in µs.
    pub wire_us: f64,
    /// How far behind schedule the request was sent (ms).
    pub late_ms: f64,
    /// Scheduled send time from the start of the run (s).
    pub at_s: f64,
    /// Whether the answer was correct.
    pub verdict: Verdict,
}

/// A complete response frame.
enum Reply {
    Ok(Answer),
    Err(WireError),
}

/// Incremental parser of response frames from raw socket bytes.
#[derive(Default)]
struct Replies {
    buf: Vec<u8>,
    header: Option<Answer>,
    current: Option<WireInterp>,
}

impl Replies {
    /// Appends bytes and returns every response they complete.
    fn feed(&mut self, bytes: &[u8]) -> Result<Vec<Reply>, String> {
        self.buf.extend_from_slice(bytes);
        let mut out = Vec::new();
        while let Some(nl) = self.buf.iter().position(|&b| b == b'\n') {
            let raw: Vec<u8> = self.buf.drain(..=nl).collect();
            let line = String::from_utf8_lossy(&raw);
            if let Some(reply) = self.line(line.trim_end_matches(['\n', '\r']))? {
                out.push(reply);
            }
        }
        Ok(out)
    }

    fn line(&mut self, line: &str) -> Result<Option<Reply>, String> {
        let Some(answer) = self.header.as_mut() else {
            if let Some(rest) = line.strip_prefix("ERR ") {
                return parse_err_line(rest).map(|e| Some(Reply::Err(e)));
            }
            let rest = line.strip_prefix("OK").ok_or_else(|| format!("unexpected `{line}`"))?;
            self.header = Some(parse_ok_header(rest.trim_start())?);
            return Ok(None);
        };
        if line == "." {
            answer.interpretations.extend(self.current.take());
            return Ok(self.header.take().map(Reply::Ok));
        }
        let fields = |s: &str| s.split('\t').map(unescape).collect::<Vec<_>>();
        if let Some(sql) = line.strip_prefix("S ") {
            answer.interpretations.extend(self.current.take());
            self.current =
                Some(WireInterp { sql: unescape(sql), columns: Vec::new(), rows: Vec::new() });
        } else if let (Some(cols), Some(cur)) = (line.strip_prefix("C "), self.current.as_mut()) {
            cur.columns = fields(cols);
        } else if let (Some(row), Some(cur)) = (line.strip_prefix("R "), self.current.as_mut()) {
            cur.rows.push(fields(row));
        } else {
            return Err(format!("unexpected body line `{line}`"));
        }
        Ok(None)
    }
}

/// Judges one reply against the reference answer of its query.
fn judge(reply: Reply, reference: &[Interpretation]) -> (Verdict, u64) {
    match reply {
        Reply::Err(e) => (Err(format!("ERR {e}")), 0),
        Reply::Ok(a) => {
            let verdict = match &a.degraded {
                Some(d) => Err(format!("degraded={d}")),
                None => same_wire_answer(reference, &a.interpretations),
            };
            (verdict, a.server_us)
        }
    }
}

/// The request line of each query.
fn request_lines(texts: &[&str]) -> Vec<String> {
    texts.iter().map(|t| format!("{}\n", Request::new(*t).render())).collect()
}

/// Waits until `due` by yielding the processor in a loop rather than
/// sleeping. With one sender per CPU, no CPU halts between arrivals. On
/// a virtual machine, waking a halted virtual CPU waits for the host to
/// schedule it again, and that delay follows the other tenants' load,
/// not the server. On a shared 2-CPU virtual machine, sleeping senders
/// saw 5–30% steal and a `latency_p50_ms` of 1.5–2.8 ms; yielding
/// senders, interleaved with them on the same seeds, saw under 1% steal
/// and about 1.1 ms. A runnable server or reader thread takes the
/// processor at the next yield, and the server's own execution time
/// did not grow.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// Drives one connection through its share of the open-loop schedule:
/// this thread waits for each scheduled arrival and sends it, while a
/// reader thread blocks on the socket and times each response.
fn open_loop_conn(
    addr: SocketAddr,
    arrivals: &[Arrival],
    start: Instant,
    lines: &[String],
    refs: &[Vec<Interpretation>],
) -> Result<Vec<Done>, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let reader = stream.try_clone().map_err(|e| e.to_string())?;
    reader.set_read_timeout(Some(READ_TIMEOUT)).map_err(|e| e.to_string())?;
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|s| {
        let receiving = s.spawn(|| receive(reader, rx, arrivals.len(), start, refs));
        let mut sent = Ok(());
        for a in arrivals {
            let due = start + a.at;
            wait_until(due);
            // Announce the request before sending it, so the reader
            // always knows what a response answers.
            let _ = tx.send((due, Instant::now(), a.query));
            sent = stream.write_all(lines[a.query].as_bytes()).map_err(|e| format!("send: {e}"));
            if sent.is_err() {
                let _ = stream.shutdown(Shutdown::Both);
                break;
            }
        }
        drop(tx);
        let received = receiving.join().map_err(|_| "reader thread panicked".to_string())?;
        sent.and(received)
    })
}

/// Reads `n` responses on one connection, pairing each with the
/// announced (scheduled, sent, query) of its request.
fn receive(
    mut stream: TcpStream,
    announced: mpsc::Receiver<(Instant, Instant, usize)>,
    n: usize,
    start: Instant,
    refs: &[Vec<Interpretation>],
) -> Result<Vec<Done>, String> {
    let mut replies = Replies::default();
    let mut done = Vec::with_capacity(n);
    let mut chunk = [0u8; 16 * 1024];
    while done.len() < n {
        let got = match stream.read(&mut chunk) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(got) => got,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(format!("receive: {e}")),
        };
        let end = Instant::now();
        for reply in replies.feed(&chunk[..got])? {
            let (scheduled, sent, q) =
                announced.recv().map_err(|_| "response without a request".to_string())?;
            let (verdict, server_us) = judge(reply, &refs[q]);
            done.push(Done {
                latency_ms: (end - scheduled).as_secs_f64() * 1e3,
                wire_us: (end - sent).as_secs_f64() * 1e6 - server_us as f64,
                late_ms: (sent - scheduled).as_secs_f64() * 1e3,
                at_s: (scheduled - start).as_secs_f64(),
                verdict,
            });
        }
    }
    Ok(done)
}

/// Drives one connection closed-loop with [`IN_FLIGHT`] requests in
/// flight until `until`; returns each completion's time (seconds from
/// `start`) and verdict.
fn saturate_conn(
    addr: SocketAddr,
    start: Instant,
    until: Instant,
    zipf: &Zipf,
    mut draws: Rng,
    lines: &[String],
    refs: &[Vec<Interpretation>],
) -> Result<Vec<(f64, Verdict)>, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream.set_read_timeout(Some(READ_TIMEOUT)).map_err(|e| e.to_string())?;
    let mut replies = Replies::default();
    let mut pending = VecDeque::new();
    let mut verdicts = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut send = |stream: &mut TcpStream, pending: &mut VecDeque<usize>| {
        let q = zipf.draw(&mut draws);
        pending.push_back(q);
        stream.write_all(lines[q].as_bytes()).map_err(|e| format!("send: {e}"))
    };
    for _ in 0..IN_FLIGHT {
        send(&mut stream, &mut pending)?;
    }
    while !pending.is_empty() {
        let n = stream.read(&mut chunk).map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        for reply in replies.feed(&chunk[..n])? {
            let q = pending.pop_front().ok_or("response without a request")?;
            verdicts.push((start.elapsed().as_secs_f64(), judge(reply, &refs[q]).0));
            if Instant::now() < until {
                send(&mut stream, &mut pending)?;
            }
        }
    }
    Ok(verdicts)
}

/// What the load phases measured.
pub struct Load {
    /// Open-loop request outcomes, in scheduled order.
    pub open: Vec<Done>,
    /// Saturation-phase completion times (s) and verdicts, in completion
    /// order.
    pub saturation: Vec<(f64, Verdict)>,
}

/// Runs the open-loop phase for the first part of `seconds`, then the
/// closed-loop saturation phase.
pub fn drive(
    addr: SocketAddr,
    texts: &[&str],
    refs: &[Vec<Interpretation>],
    seed: u64,
    seconds: f64,
    out: &mut Out,
) -> Result<Load, String> {
    let conns = connections();
    let lines = request_lines(texts);
    let zipf = Zipf::new(texts.len(), ZIPF_S);
    let open_span = Duration::from_secs_f64(seconds * (1.0 - SATURATION_SHARE));
    let schedule = poisson_schedule(seed, OFFERED_QPS, open_span, &zipf);
    out.note(format!(
        "server workers={WORKERS} load connections={conns} offered_qps={OFFERED_QPS} \
         zipf_s={ZIPF_S} scheduled={}",
        schedule.len()
    ));
    out.note(format!("zipf popularity: {}", texts.join(" > ")));
    let shares: Vec<Vec<Arrival>> =
        (0..conns).map(|c| schedule.iter().skip(c).step_by(conns).copied().collect()).collect();
    let start = Instant::now() + Duration::from_millis(20);
    let mut open = std::thread::scope(|s| {
        let handles: Vec<_> = shares
            .iter()
            .map(|share| s.spawn(|| open_loop_conn(addr, share, start, &lines, refs)))
            .collect();
        collect(handles)
    })?;
    open.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
    let sat_span = Duration::from_secs_f64(seconds * SATURATION_SHARE);
    let t = Instant::now();
    let until = t + sat_span;
    let mut saturation = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                // Each saturating connection draws from its own stream.
                let draws = Rng::new(seed, DRAWS + 16 + c as u64);
                let (zipf, lines) = (&zipf, &lines);
                s.spawn(move || saturate_conn(addr, t, until, zipf, draws, lines, refs))
            })
            .collect();
        collect(handles)
    })?;
    saturation.sort_by(|a, b| a.0.total_cmp(&b.0));
    Ok(Load { open, saturation })
}

fn collect<T>(
    handles: Vec<std::thread::ScopedJoinHandle<'_, Result<Vec<T>, String>>>,
) -> Result<Vec<T>, String> {
    let mut all = Vec::new();
    for h in handles {
        all.extend(h.join().map_err(|_| "load thread panicked".to_string())??);
    }
    Ok(all)
}

/// Counts a load run's requests and failures and records how late the
/// generator sent.
pub fn tally(load: &Load, out: &mut Out) {
    for v in load.open.iter().map(|d| &d.verdict).chain(load.saturation.iter().map(|s| &s.1)) {
        out.attempted += 1;
        if let Err(e) = v {
            out.failed += 1;
            out.problem(e.clone());
        }
    }
    let late = stats::sorted(load.open.iter().map(|d| d.late_ms).collect());
    out.percentile("loadgen.late_p99_ms", &late, 0.99, "ms");
}

/// Folds a load run into the end-to-end metrics: open-loop latency,
/// saturation throughput, and the tally.
pub fn record(load: &Load, out: &mut Out) {
    tally(load, out);
    let latency: Vec<f64> = load.open.iter().map(|d| d.latency_ms).collect();
    out.latencies(&latency, 1);
    let done_at: Vec<f64> = load.saturation.iter().map(|s| s.0).collect();
    out.throughput(&done_at, stats::WINDOW);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_reassemble_frames_split_across_reads() {
        let mut r = Replies::default();
        let wire = b"OK n=1 rows=2 us=17\nS SELECT 1\nC a\tb\nR 1\t\nR 2\tx\\ty\n.\nERR code=overloaded retryable=true msg=full\n";
        let mut got = Vec::new();
        for piece in wire.chunks(7) {
            got.extend(r.feed(piece).unwrap());
        }
        assert_eq!(got.len(), 2);
        let Reply::Ok(a) = &got[0] else { panic!("first reply is OK") };
        assert_eq!(a.server_us, 17);
        assert_eq!(a.interpretations[0].columns, ["a", "b"]);
        assert_eq!(a.interpretations[0].rows, [vec!["1", ""], vec!["2", "x\ty"]]);
        assert!(matches!(&got[1], Reply::Err(e) if e.message == "full"));
    }
}
