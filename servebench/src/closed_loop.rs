//! A closed loop of clients around an in-process line server.
//!
//! The server reads requests from a [`LoopInput`] and writes results to a
//! [`LoopOutput`], exactly as `bsmp-repro serve` does with stdin/stdout but
//! without the CLI's `BufWriter`, which would hold results back in 8 KiB
//! chunks.  Each client sends its next request only once its previous
//! result line has been written, so no more than one request per client is
//! ever in flight.  A job's latency runs from the moment the server's
//! reader takes its line to the moment its result line reaches the writer.

use std::io::{self, BufRead, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::time::{Duration, Instant};

/// Latency slot of a job that got no answer.
pub const UNANSWERED: u64 = u64::MAX;

/// What one closed-loop run observed.
pub struct LoopStats {
    /// Per job id: latency in ns, or [`UNANSWERED`].
    pub latency_ns: Vec<u64>,
    /// Result lines matched to a sent job.
    pub answered: usize,
    /// Result lines with no, an unknown or an already answered id.
    pub stray: usize,
    /// Most requests in flight at once.
    pub max_inflight: usize,
    /// From the start of the run to the last result line.
    pub wall: Duration,
}

/// The server's request stream: blocks until a client sends, ends (EOF)
/// once every client is done.
pub struct LoopInput<'a> {
    rx: Receiver<(u64, &'a str)>,
    buf: Vec<u8>,
    pos: usize,
    t0: Instant,
    sent_ns: &'a [AtomicU64],
}

impl Read for LoopInput<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let avail = self.fill_buf()?;
        let k = avail.len().min(out.len());
        out[..k].copy_from_slice(&avail[..k]);
        self.consume(k);
        Ok(k)
    }
}

impl BufRead for LoopInput<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos == self.buf.len() {
            let Ok((id, line)) = self.rx.recv() else {
                return Ok(&[]);
            };
            self.buf.clear();
            self.buf.extend_from_slice(line.as_bytes());
            self.buf.push(b'\n');
            self.pos = 0;
            // +1 keeps 0 free to mean "not sent yet".
            let now = self.t0.elapsed().as_nanos() as u64 + 1;
            self.sent_ns[id as usize].store(now, Ordering::SeqCst);
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos = (self.pos + amt).min(self.buf.len());
    }
}

/// The server's result sink: time-stamps each result line, lets its client
/// send the next request, then hands the line to the caller's callback.
pub struct LoopOutput<'a> {
    tx: Option<Sender<(u64, &'a str)>>,
    lines: &'a [Vec<String>],
    next: Vec<usize>,
    inflight: usize,
    max_inflight: usize,
    t0: Instant,
    sent_ns: &'a [AtomicU64],
    latency_ns: Vec<u64>,
    answered: usize,
    stray: usize,
    last_ns: u64,
    buf: Vec<u8>,
    on_line: &'a mut dyn FnMut(u64, &str),
}

impl<'a> LoopOutput<'a> {
    fn send_next(&mut self, client: usize) {
        let clients = self.lines.len();
        let k = self.next[client];
        if let (Some(tx), Some(line)) = (&self.tx, self.lines[client].get(k)) {
            let id = (k * clients + client) as u64;
            if tx.send((id, line)).is_ok() {
                self.next[client] += 1;
                self.inflight += 1;
                self.max_inflight = self.max_inflight.max(self.inflight);
            }
        }
    }

    /// Once every client is done, EOF for the server's reader.
    fn close_if_idle(&mut self) {
        if self.inflight == 0 {
            self.tx = None;
        }
    }

    fn result_line(&mut self, line: &str) {
        let now = self.t0.elapsed().as_nanos() as u64 + 1;
        if line.contains("\"summary\": true") {
            return;
        }
        let id = parse_id(line).filter(|&id| {
            (id as usize) < self.latency_ns.len()
                && self.latency_ns[id as usize] == UNANSWERED
                && self.sent_ns[id as usize].load(Ordering::SeqCst) != 0
        });
        let Some(id) = id else {
            // Cannot tell whose request this answers: stop sending, so the
            // run still ends; the unanswered ids count as failures.
            self.stray += 1;
            self.tx = None;
            return;
        };
        let sent = self.sent_ns[id as usize].load(Ordering::SeqCst);
        self.latency_ns[id as usize] = now - sent;
        self.answered += 1;
        self.last_ns = now;
        self.inflight -= 1;
        self.send_next(id as usize % self.lines.len());
        self.close_if_idle();
        (self.on_line)(id, line);
    }
}

impl Write for LoopOutput<'_> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        let mut rest = data;
        while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
            self.buf.extend_from_slice(&rest[..nl]);
            let line = std::mem::take(&mut self.buf);
            let text = String::from_utf8_lossy(&line);
            self.result_line(&text);
            drop(text);
            self.buf = line;
            self.buf.clear();
            rest = &rest[nl + 1..];
        }
        self.buf.extend_from_slice(rest);
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The `"id"` of a result line (the first `"id": <digits>` in it).
pub fn parse_id(line: &str) -> Option<u64> {
    let at = line.find("\"id\": ")? + 6;
    let digits: &str = &line[at..];
    let end = digits
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(digits.len());
    digits[..end].parse().ok()
}

/// Drive `server` with one closed-loop client per entry of `lines` (client
/// `c`'s `k`-th line is job id `k · clients + c`).  `on_line` sees every
/// matched result line after its client has sent the next request.
pub fn run<T>(
    lines: &[Vec<String>],
    server: impl FnOnce(LoopInput<'_>, &mut LoopOutput<'_>) -> io::Result<T>,
    on_line: &mut dyn FnMut(u64, &str),
) -> io::Result<(LoopStats, T)> {
    let clients = lines.len();
    let total: usize = lines.iter().map(Vec::len).sum();
    let max_len = lines.iter().map(Vec::len).max().unwrap_or(0);
    let slots = max_len * clients;
    let sent_ns: Vec<AtomicU64> = (0..slots).map(|_| AtomicU64::new(0)).collect();
    let (tx, rx) = mpsc::channel();
    let t0 = Instant::now();
    let input = LoopInput {
        rx,
        buf: Vec::with_capacity(256),
        pos: 0,
        t0,
        sent_ns: &sent_ns,
    };
    let mut output = LoopOutput {
        tx: Some(tx),
        lines,
        next: vec![0; clients],
        inflight: 0,
        max_inflight: 0,
        t0,
        sent_ns: &sent_ns,
        latency_ns: vec![UNANSWERED; slots],
        answered: 0,
        stray: 0,
        last_ns: 0,
        buf: Vec::with_capacity(1 << 17),
        on_line,
    };
    for c in 0..clients {
        output.send_next(c);
    }
    output.close_if_idle();
    let served = server(input, &mut output)?;
    debug_assert!(output.answered <= total);
    Ok((
        LoopStats {
            latency_ns: output.latency_ns,
            answered: output.answered,
            stray: output.stray,
            max_inflight: output.max_inflight,
            wall: Duration::from_nanos(output.last_ns),
        },
        served,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    fn lines(clients: usize, per: usize) -> Vec<Vec<String>> {
        (0..clients)
            .map(|c| {
                (0..per)
                    .map(|k| format!("{{\"id\": {}}}", k * clients + c))
                    .collect()
            })
            .collect()
    }

    /// A stand-in for `serve`: a reader thread feeding `workers` worker
    /// threads, results written in completion order by the calling thread.
    fn fake_server<W: Write>(
        input: impl BufRead + Send,
        out: &mut W,
        workers: usize,
        duplicate: Option<u64>,
    ) -> io::Result<()> {
        let (job_tx, job_rx) = mpsc::sync_channel::<String>(0);
        let job_rx = Arc::new(Mutex::new(job_rx));
        let (res_tx, res_rx) = mpsc::channel::<String>();
        std::thread::scope(|s| {
            for _ in 0..workers {
                let rx = Arc::clone(&job_rx);
                let tx = res_tx.clone();
                s.spawn(move || loop {
                    let job = rx.lock().expect("job queue").recv();
                    let Ok(job) = job else { break };
                    let id = parse_id(&job).expect("request id");
                    let reply = format!("{{\"id\": {id}, \"ok\": true}}");
                    if Some(id) == duplicate {
                        tx.send(reply.clone()).expect("writer alive");
                    }
                    tx.send(reply).expect("writer alive");
                });
            }
            drop(res_tx);
            s.spawn(move || {
                for line in input.lines() {
                    job_tx
                        .send(line.expect("utf-8 line"))
                        .expect("workers alive");
                }
            });
            for line in res_rx {
                // Two writes per line, as `writeln!` does.
                out.write_all(line.as_bytes())?;
                out.write_all(b"\n")?;
            }
            io::Result::Ok(())
        })?;
        out.write_all(b"{\"summary\": true}\n")
    }

    #[test]
    fn one_latency_per_id_and_at_most_one_request_per_client() {
        for (clients, per) in [(2, 500), (2, 1), (1, 50), (3, 40)] {
            let lines = lines(clients, per);
            let mut seen = Vec::new();
            let (st, ()) = run(
                &lines,
                |i, o| fake_server(i, o, clients, None),
                &mut |id, line| {
                    assert_eq!(parse_id(line), Some(id));
                    seen.push(id);
                },
            )
            .unwrap();
            assert_eq!(st.answered, clients * per);
            assert_eq!(st.stray, 0);
            assert!(st.max_inflight <= clients, "{} in flight", st.max_inflight);
            assert!(st.latency_ns.iter().all(|&l| l != UNANSWERED && l > 0));
            seen.sort_unstable();
            assert_eq!(seen, (0..(clients * per) as u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_duplicate_answer_is_stray_and_the_run_still_ends() {
        let lines = lines(2, 100);
        let (st, ()) = run(&lines, |i, o| fake_server(i, o, 2, Some(7)), &mut |_, _| {}).unwrap();
        assert_eq!(st.stray, 1);
        // Sending stopped at the stray line; everything sent was answered.
        assert!(st.answered >= 4 && st.answered < 200);
        let unanswered = st.latency_ns.iter().filter(|&&l| l == UNANSWERED).count();
        assert_eq!(st.answered + unanswered, 200);
    }

    #[test]
    fn drives_the_real_server() {
        let t = crate::traffic::generate(crate::traffic::Workload::WarmRepeat, 1, 60);
        let mut ok = 0;
        let (st, summary) = run(
            &t.lines,
            |i, o| {
                bsmp::serve_suite::serve(i, o, bsmp::serve_suite::ServeOptions { max_inflight: 2 })
            },
            &mut |_, line| ok += line.contains("\"ok\": true") as usize,
        )
        .unwrap();
        assert_eq!((st.answered, ok, st.stray), (60, 60, 0));
        assert!(st.max_inflight <= 2);
        assert_eq!((summary.jobs, summary.ok), (60, 60));
    }

    #[test]
    fn parse_id_reads_the_first_id() {
        assert_eq!(
            parse_id("{\"schema\": \"x\", \"id\": 42, \"ok\": true}"),
            Some(42)
        );
        assert_eq!(parse_id("{\"id\": 7}"), Some(7));
        assert_eq!(parse_id("{\"ok\": true}"), None);
    }
}
