//! `serve_burst`: the real `tensorkmc serve` child under two closed-loop
//! clients. Each client posts a deck, follows the job's stream to its
//! terminal record, and only then posts the next; the loop runs for the
//! time box. Everything is observed from the client side of the socket,
//! plus the child's `/proc` status and its state directory.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tensorkmc::analysis::analyze_clusters;
use tensorkmc::driver;
use tensorkmc::input::InputDeck;
use tensorkmc::lattice::Species;
use tensorkmc_compat::http::decode_chunked;
use tensorkmc_compat::json::Json;
use tensorkmc_compat::lz;

use crate::ground::{wait_or_kill, Ground, CHILD_TIMEOUT};
use crate::host;
use crate::report::{Outcome, RunOptions};
use crate::spans::{Spans, ROOT};
use crate::stats::{median, percentile};

use super::write_spans;

/// The workload this module runs.
pub const NAME: &str = "serve_burst";
const CLIENTS: usize = 2;
const MAX_STEPS: u64 = 2_000;
const SAMPLE_EVERY: u64 = 25;
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// A running server child; killed and reaped on drop so no error path
/// leaves it behind.
struct Server {
    child: Option<Child>,
    addr: String,
    /// Held open for the child's lifetime: the server prints a few more
    /// lines (they fit the pipe buffer) and must not hit a closed pipe.
    _stdout: BufReader<std::process::ChildStdout>,
}

impl Server {
    /// Spawns `tensorkmc serve` on a fresh state dir and returns once
    /// `GET /jobs` answers 200, with the wall that took.
    fn start(ground: &Ground, state_dir: &Path) -> Result<(Self, f64), String> {
        if state_dir.exists() {
            std::fs::remove_dir_all(state_dir).map_err(|e| e.to_string())?;
        }
        let t = Instant::now();
        let mut child = Command::new(&ground.bin)
            .args([
                "serve",
                "--max-concurrent",
                "2",
                "--listen",
                "127.0.0.1:0",
                "--state-dir",
            ])
            .arg(state_dir)
            .current_dir(&ground.work)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", ground.bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Server {
            child: Some(child),
            addr: String::new(),
            _stdout: BufReader::new(stdout),
        };
        // The banner carries the bound port.
        let mut banner = String::new();
        server
            ._stdout
            .read_line(&mut banner)
            .map_err(|e| format!("cannot read the serve banner: {e}"))?;
        server.addr = banner
            .split("listening on http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or_else(|| format!("unexpected serve banner {banner:?}"))?
            .to_string();
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match http(&server.addr, "GET", "/jobs", "") {
                Ok((200, _)) => break,
                _ if Instant::now() > deadline => return Err("GET /jobs never answered 200".into()),
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        Ok((server, t.elapsed().as_secs_f64()))
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().expect("server is running").id()
    }

    /// `POST /shutdown`, then waits for the child to drain and exit.
    fn shutdown(mut self) -> Result<(), String> {
        let (code, _) = http(&self.addr, "POST", "/shutdown", "")?;
        let status = wait_or_kill(self.child.take().expect("server is running"), CHILD_TIMEOUT)?;
        if code != 202 || !status.success() {
            return Err(format!(
                "shutdown answered {code}, server exited with {status}"
            ));
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(child) = &mut self.child {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One HTTP exchange (the server speaks one request per connection);
/// chunked bodies come back decoded.
fn http(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, Vec<u8>), String> {
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    conn.set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    write!(
        conn,
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .map_err(|e| format!("{method} {path}: {e}"))?;
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw)
        .map_err(|e| format!("{method} {path}: {e}"))?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response without a head")?;
    let head = String::from_utf8_lossy(&raw[..split]).to_ascii_lowercase();
    let status = status_of(&head)?;
    let mut payload = raw[split + 4..].to_vec();
    if head.contains("transfer-encoding: chunked") {
        payload = decode_chunked(&payload)?;
    }
    Ok((status, payload))
}

fn status_of(head: &str) -> Result<u16, String> {
    head.split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))
}

/// What a client saw of one job, in seconds since its POST was sent.
#[derive(Debug, Default, Clone)]
struct JobTrace {
    index: u64,
    /// `POST /jobs` round trip.
    post_s: f64,
    /// First `started` record.
    started_s: Option<f64>,
    /// First `observable` record with `steps > 0`.
    first_frame_s: Option<f64>,
    /// Terminal record.
    done_s: f64,
    /// Terminal record type (`completed` when all is well).
    terminal: String,
    csv: String,
    steps: u64,
    sim_time_s: f64,
    stream_bytes: u64,
    /// Refused at submission (`429`/`5xx`) — counts as failed.
    refused: bool,
}

/// Submits one deck and follows its stream, record by record as the
/// chunks arrive, to the terminal record.
fn run_job(addr: &str, index: u64, deck: &str) -> Result<JobTrace, String> {
    let mut trace = JobTrace {
        index,
        ..JobTrace::default()
    };
    let t0 = Instant::now();
    let (code, body) = http(addr, "POST", "/jobs", deck)?;
    trace.post_s = t0.elapsed().as_secs_f64();
    if code != 201 {
        trace.refused = true;
        trace.terminal = format!("refused {code}");
        trace.done_s = trace.post_s;
        return Ok(trace);
    }
    let id = Json::parse(&String::from_utf8_lossy(&body))
        .ok()
        .and_then(|j| {
            j.get("id")
                .and_then(|v| v.as_str().ok().map(str::to_string))
        })
        .ok_or("POST /jobs answered without an id")?;

    let mut conn = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    conn.set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    write!(
        conn,
        "GET /jobs/{id}/stream HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n"
    )
    .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(conn);
    let mut head = String::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).map_err(|e| e.to_string())? == 0 || line == "\r\n" {
            break;
        }
        head.push_str(&line);
    }
    if status_of(&head)? != 200 {
        return Err(format!("stream of {id} answered {head:?}"));
    }
    // Chunked body: hex size line, payload, CRLF; records are JSONL and may
    // straddle chunks.
    let mut pending = Vec::new();
    'chunks: loop {
        let mut size_line = String::new();
        reader
            .read_line(&mut size_line)
            .map_err(|e| e.to_string())?;
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| format!("bad chunk size {size_line:?}"))?;
        if size == 0 {
            break;
        }
        let start = pending.len();
        pending.resize(start + size + 2, 0);
        reader
            .read_exact(&mut pending[start..])
            .map_err(|e| e.to_string())?;
        pending.truncate(start + size);
        trace.stream_bytes += size as u64;
        while let Some(nl) = pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = pending.drain(..=nl).collect();
            let now = t0.elapsed().as_secs_f64();
            let Ok(rec) = Json::parse(String::from_utf8_lossy(&line).trim()) else {
                continue;
            };
            let kind = rec.get("type").and_then(|t| t.as_str().ok()).unwrap_or("");
            let steps = || rec.get("steps").and_then(|s| s.as_u64().ok()).unwrap_or(0);
            match kind {
                "started" if trace.started_s.is_none() => trace.started_s = Some(now),
                "observable" => {
                    if steps() > 0 && trace.first_frame_s.is_none() {
                        trace.first_frame_s = Some(now);
                    }
                    trace.steps = steps();
                    trace.sim_time_s = rec
                        .get("time_s")
                        .and_then(|t| t.as_f64().ok())
                        .unwrap_or(0.0);
                }
                "result" => {
                    trace.csv = rec
                        .get("csv")
                        .and_then(|c| c.as_str().ok())
                        .unwrap_or("")
                        .to_string();
                }
                "completed" | "failed" | "cancelled" | "interrupted" => {
                    trace.done_s = now;
                    trace.terminal = kind.to_string();
                    break 'chunks;
                }
                _ => {}
            }
        }
    }
    if trace.terminal.is_empty() {
        trace.terminal = "stream ended without a terminal record".into();
        trace.done_s = t0.elapsed().as_secs_f64();
    }
    Ok(trace)
}

/// The deck of job `index`: 16^3 paper alloy on the dumped train_small
/// model, job seeds running upwards from the deck seed. The workload seed
/// does not enter: which jobs a burst completes already moves simulated
/// time per job by more than the metric's bound allows.
fn job_deck(ground: &Ground, opts: &RunOptions, index: u64) -> InputDeck {
    InputDeck {
        model: Ground::file_model(&ground.small_model_path()),
        max_steps: opts.scaled(MAX_STEPS, 40),
        sample_every: opts.scaled(SAMPLE_EVERY, 5),
        seed: opts.deck_seed + index,
        xyz_output: String::new(),
        csv_output: String::new(),
        ..InputDeck::default()
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Runs the workload.
pub fn run(ground: &Ground, opts: &RunOptions) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let state_dir = ground.work.join("serve-state");

    // Set-up: spawn -> first 200 from GET /jobs, repeated; the last server
    // stays up for the burst.
    let mut setup_walls = Vec::new();
    let mut server = None;
    for _ in 0..if opts.quick || opts.trace { 1 } else { 15 } {
        if let Some(previous) = server.take() {
            Server::shutdown(previous)?;
        }
        let (s, wall) = Server::start(ground, &state_dir)?;
        setup_walls.push(wall);
        server = Some(s);
    }
    let server = server.expect("at least one server started");

    // The closed loop.
    let spans = opts.trace.then(|| Arc::new(Spans::new()));
    let next_index = AtomicU64::new(0);
    let t0 = Instant::now();
    let per_client: Vec<(Vec<JobTrace>, f64, Option<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut traces = Vec::new();
                    let client_start = Instant::now();
                    let mut error = None;
                    while traces.is_empty() || t0.elapsed().as_secs_f64() < opts.seconds {
                        let index = next_index.fetch_add(1, Ordering::Relaxed);
                        let deck = job_deck(ground, opts, index)
                            .to_json()
                            .expect("decks serialise");
                        let span = spans.as_ref().map(|s| s.open("serve.job", ROOT));
                        match run_job(&server.addr, index, &deck) {
                            Ok(trace) => {
                                if let (Some(s), Some(id)) = (&spans, span) {
                                    s.close(id);
                                }
                                traces.push(trace);
                            }
                            Err(e) => {
                                error = Some(e);
                                break;
                            }
                        }
                    }
                    (traces, client_start.elapsed().as_secs_f64(), error)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let burst_wall = t0.elapsed().as_secs_f64();
    let server_rss = host::vm_hwm_bytes(server.pid()).unwrap_or(0) as f64;
    let state_bytes = dir_bytes(&state_dir);

    let max_steps = opts.scaled(MAX_STEPS, 40);
    let sample_every = opts.scaled(SAMPLE_EVERY, 5);
    let ok = |t: &JobTrace| t.terminal == "completed" && t.steps == max_steps;
    let mut traces: Vec<JobTrace> = Vec::new();
    let mut client_wall = 0.0;
    // Throughput is summed per client, each over its own wall, which ends
    // exactly at its last completion. Dividing all jobs by the burst wall
    // instead would count the idle tail of whichever client finished first
    // and quantise the rate by one job in ~19.
    let mut jobs_per_s = 0.0;
    for (t, wall, error) in per_client {
        jobs_per_s += t.iter().filter(|t| ok(t)).count() as f64 / wall;
        traces.extend(t);
        client_wall += wall;
        if let Some(e) = error {
            out.failed += 1;
            out.check("client loop", false, e);
        }
    }
    traces.sort_by_key(|t| t.index);
    let done: Vec<&JobTrace> = traces.iter().filter(|t| ok(t)).collect();
    out.attempted = traces.len() as u64 + out.failed;
    out.failed += (traces.len() - done.len()) as u64;
    out.check(
        "every stream ends completed at max_steps",
        done.len() == traces.len(),
        traces
            .iter()
            .find(|t| !ok(t))
            .map(|t| format!("job {}: {} at step {}", t.index, t.terminal, t.steps))
            .unwrap_or_else(|| format!("{} jobs", traces.len())),
    );
    let rows = (max_steps / sample_every + 2) as usize; // header + t=0 + samples
    out.check(
        "every result CSV has a row per sample",
        done.iter().all(|t| t.csv.lines().count() == rows),
        format!("{rows} lines each"),
    );
    if done.is_empty() {
        return Err("no job completed".into());
    }

    // Byte-equality with the CLI, on the first and the last job of the run
    // (a CLI run per job would cost more than the burst itself).
    let mut sampled = vec![done[0], done[done.len() - 1]];
    sampled.dedup_by_key(|t| t.index);
    let capture = bundle_sample(&state_dir);
    Server::shutdown(server)?;
    for t in sampled {
        let dir = ground.fresh_dir(&format!("{NAME}-cli"))?;
        let deck = InputDeck {
            csv_output: "cli.csv".into(),
            ..job_deck(ground, opts, t.index)
        };
        std::fs::write(
            dir.join("deck.json"),
            deck.to_json().map_err(|e| e.to_string())?,
        )
        .map_err(|e| e.to_string())?;
        ground.run_binary(&dir, &["-in", "deck.json"])?;
        let cli = std::fs::read_to_string(dir.join("cli.csv")).map_err(|e| e.to_string())?;
        out.check(
            &format!("job {} CSV == CLI CSV", t.index),
            cli == t.csv,
            format!("{} vs {} bytes", t.csv.len(), cli.len()),
        );
    }

    let n = done.len() as f64;
    let done_s: Vec<f64> = done.iter().map(|t| t.done_s).collect();
    let frames: Vec<f64> = done.iter().filter_map(|t| t.first_frame_s).collect();
    // Simulated time per job is heavy-tailed (one slow-rate trajectory can
    // hold a tenth of a burst's total), so which job happens to finish
    // last would move a mean by more than the metric's bound. The median
    // job does not care.
    let job_sim_s = median(&done.iter().map(|t| t.sim_time_s).collect::<Vec<_>>());
    out.set("jobs_per_s", jobs_per_s);
    out.set("first_frame_s_p50", percentile(&frames, 50.0));
    out.set("job_done_s_p50", percentile(&done_s, 50.0));
    // p75 is the highest percentile with ten samples beyond it once a run
    // completes 40 jobs; the count is in the result file.
    out.set("job_done_s_p75", percentile(&done_s, 75.0));
    out.note("jobs_completed", Json::UInt(done.len() as u64));
    out.note("burst_wall_s", Json::Num(burst_wall));
    out.note("setup_samples", Json::UInt(setup_walls.len() as u64));

    if let Some(spans) = &spans {
        let post_ms: Vec<f64> = done.iter().map(|t| t.post_s * 1e3).collect();
        let started_ms: Vec<f64> = done
            .iter()
            .filter_map(|t| t.started_s.map(|s| s * 1e3))
            .collect();
        out.set("serve.post_ms_p50", percentile(&post_ms, 50.0));
        out.set(
            "serve.post_to_started_ms_p50",
            percentile(&started_ms, 50.0),
        );
        out.set(
            "serve.stream_bytes_per_job",
            done.iter().map(|t| t.stream_bytes).sum::<u64>() as f64 / n,
        );
        out.set(
            "serve.state_bytes_per_job",
            state_bytes as f64 / traces.len() as f64,
        );
        out.set(
            "serve.refused",
            traces.iter().filter(|t| t.refused).count() as f64,
        );
        let tracked = spans.total("serve.job").seconds;
        out.set("bench.untracked_s", client_wall - tracked);
        out.check(
            "layer spans reconcile within 5%",
            (client_wall - tracked).abs() <= 0.05 * client_wall,
            format!("client walls {client_wall:.4} s, job spans {tracked:.4} s"),
        );
        in_process_twin(ground, opts, &done, spans, &mut out)?;
        if let Some(bundle) = capture {
            lz_metrics(&bundle, opts, spans, &mut out)?;
        }
        write_spans(ground, spans, NAME, &mut out)?;
    } else {
        out.set("setup_s", median(&setup_walls));
        out.set("steps_per_s", jobs_per_s * max_steps as f64);
        out.set("wall_s_per_sim_s", 1.0 / (jobs_per_s * job_sim_s));
        out.set("peak_rss_bytes", server_rss);
        // The server persists as it goes; its high-water mark before
        // shutdown already includes every checkpoint it wrote.
        out.set("checkpoint_rss_bytes", server_rss);
    }
    Ok(out)
}

/// A persisted state bundle of some job, read before the state dir goes.
fn bundle_sample(state_dir: &Path) -> Option<Vec<u8>> {
    let mut jobs: Vec<PathBuf> = std::fs::read_dir(state_dir.join("jobs"))
        .ok()?
        .flatten()
        .map(|e| e.path())
        .collect();
    jobs.sort();
    std::fs::read(jobs.first()?.join("state.tkz")).ok()
}

/// `serve.overhead_s_per_job`: the median job latency minus the median
/// wall of stepping the same decks in process with the CLI's loop — what
/// queueing, HTTP, streaming and persistence add to a job.
fn in_process_twin(
    ground: &Ground,
    opts: &RunOptions,
    done: &[&JobTrace],
    spans: &Spans,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut walls = Vec::new();
    for t in done.iter().take(if opts.quick { 1 } else { 3 }) {
        let deck = job_deck(ground, opts, t.index);
        let mut engine = driver::build_engine(&deck, None, None)?.engine;
        let twin = spans.open("serve.twin.stepping", ROOT);
        let started = Instant::now();
        while engine.stats().steps < deck.max_steps {
            engine
                .run_steps(deck.sample_every)
                .map_err(|e| e.to_string())?;
            spans.time("analysis.clusters", twin, || {
                analyze_clusters(engine.lattice(), Species::Cu, &engine.geometry().shells, 1)
            });
        }
        walls.push(started.elapsed().as_secs_f64());
        spans.close(twin);
    }
    let analysis = spans.total("analysis.clusters");
    out.set(
        "analysis.clusters_s_per_sample",
        analysis.seconds / analysis.count.max(1) as f64,
    );
    let job_done = out.get("job_done_s_p50").expect("set by the caller");
    out.set("serve.overhead_s_per_job", job_done - median(&walls));
    out.note("twin_stepping_s", Json::Num(median(&walls)));
    Ok(())
}

/// `compat.lz.*` on a bundle the server really wrote.
fn lz_metrics(
    bundle: &[u8],
    opts: &RunOptions,
    spans: &Spans,
    out: &mut Outcome,
) -> Result<(), String> {
    let raw = lz::decompress(bundle).map_err(|e| format!("captured bundle: {e}"))?;
    let rounds = if opts.quick { 2 } else { 10 };
    let started = Instant::now();
    let mut packed = 0;
    spans.time("compat.lz.compress", ROOT, || {
        for _ in 0..rounds {
            packed = std::hint::black_box(lz::compress(&raw)).len();
        }
    });
    let seconds = started.elapsed().as_secs_f64();
    out.set(
        "compat.lz.compress_mb_per_s",
        raw.len() as f64 * rounds as f64 / 1e6 / seconds,
    );
    out.set("compat.lz.ratio", raw.len() as f64 / packed as f64);
    Ok(())
}
