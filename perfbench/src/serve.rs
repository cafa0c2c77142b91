//! `serve-mixed`: the release `pase serve` binary as a separate process,
//! prewarmed for the hot keys, driven by one open-loop generator at a fixed
//! ladder of Poisson rates.
//!
//! The generator uses two connections and two threads (the sender and a
//! reader). The event front end runs at most one job per connection at a
//! time, so the hit-class traffic (cached scalar answers, inline two-tier
//! meshes, memory budgets answered from cached frontiers) rides one
//! connection and the fresh-key misses the other: a hit never queues behind
//! a search on its own connection, but it does compete with searches for
//! the two workers and the machine's cores. Only one worker at a time can
//! serve hits, so the hit throughput the ladder finds is the serial rate of
//! one connection, not the server's capacity. Every request is timed from
//! when it was due.
//!
//! No recorded request mix exists, so the mix is an assumption: the class
//! shares follow the words "mostly hits, a share of inline meshes, budget
//! variants, a trickle of misses", and requests within a class are drawn
//! evenly.

use crate::layers::{report_counts, report_span_layers, CellCounts, Stage};
use crate::report::Report;
use crate::spans::{self, Span, Spans};
use crate::stats::{
    backlog_growing, children_cpu, cpu_us, exp, geomean, lag, least_stolen, median, percentile,
    shuffle, status_bytes, steal_ticks, stolen_share, stolen_since, tail, windowed_percentile,
};
use crate::Opts;
use pase_baselines::data_parallel;
use pase_core::{Search, SearchReport, StrategyFrontier};
use pase_cost::{
    ConfigRule, CostTables, DeviceMesh, MachineSpec, PruneOptions, PrunedTables, TableOptions,
};
use pase_obs::{json, Trace};
use pase_serve::{
    strategy_cache_key, write_frontier_response_json, write_response_json, CacheEntry, Lookup,
    Request, ShardedCache,
};
use pase_sim::{speedup_over, SimOptions, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Server worker threads: fixed (and at most the 2 cores of the reference
/// machine) so that runs on different machines measure the same server.
const WORKERS: usize = 2;
/// Keys the server's own `--prewarm` fills (scalar, p = 8): graph sizes
/// from a 3-layer MLP to InceptionV3's 219 nodes.
const PREWARM: &str = "mlp,alexnet,transformer,inception:8";
/// The mix is dealt from a [`Deck`] of 300 slots: 80 % cached scalar hits,
/// 8 % inline two-tier meshes, 8 % budget variants and 4 % misses (assumed
/// shares), even within each class. Cached scalar hits: slots per model.
const HOT_SCALAR: [&str; 4] = ["mlp", "alexnet", "transformer", "inception"];
const SCALAR_SLOTS: usize = 60;
/// Models asked about on an inline two-tier mesh; slots per model.
const INLINE_MESH: [&str; 2] = ["mlp", "alexnet"];
const INLINE_SLOTS: usize = 12;
/// Models with memory-budget variants; one slot per variant.
const BUDGET_MODELS: [&str; 3] = ["mlp", "alexnet", "transformer"];
const BUDGETS_PER_MODEL: usize = 8;
/// Fresh-key misses (a new prune ε per request); slots per model.
const MISS_MODELS: [&str; 2] = ["alexnet", "transformer"];
const MISS_SLOTS: usize = 6;
/// Offered rates, requests per second. The reference rate gives the
/// latency metrics; the standard error names the highest rung that meets
/// [`HIT_P99_LIMIT_MS`] without a growing backlog. On the 2-core reference
/// machine the hit connection's serial rate tops out near 3300 rps when the
/// server has both cores to itself; both rungs sit well below that knee,
/// so the server keeps up and CPU time and memory are measured per request
/// it answers.
const LADDER_RPS: [f64; 2] = [500.0, 1000.0];
const REFERENCE_RPS: f64 = 500.0;
/// Share of the run spent at the reference rate; the other rungs split
/// the rest.
const REFERENCE_SHARE: f64 = 0.5;
/// The latency limit on the hit p99, in milliseconds (the windowed p99,
/// see [`windowed_percentile`]).
const HIT_P99_LIMIT_MS: f64 = 10.0;
/// The ladder runs this many times over, one segment per rung each time,
/// so a burst of outside load lands on a few segments of every rung rather
/// than on all of one; each rung is judged on its segments that lost the
/// least CPU time to other tenants (see [`least_stolen`]).
const CYCLES: usize = 6;
/// Server spawns timed for `setup_s`: half before the ladder (the ladder
/// runs on the last of them) and half after it, so that `setup_s`, like the
/// other metrics, samples the whole run rather than its first seconds.
const SETUP_REPEATS: usize = 12;
/// How long after the last due time answers are still awaited.
const DRAIN: Duration = Duration::from_secs(10);
/// Requests of the reference rate replayed in-process by the traced run.
const REPLAY_REQUESTS: usize = 2000;

const HIT_CONN: usize = 0;
const MISS_CONN: usize = 1;

/// What a request's answer must look like.
#[derive(Clone, Debug)]
enum Expect {
    /// A scalar answer: this cost and strategy, bit for bit.
    Scalar { cost: f64, ids: Vec<u16> },
    /// A budget answer from a cached frontier: this point, or infeasible.
    Budget {
        budget: u64,
        picked: Option<(f64, u64, Vec<u16>)>,
    },
    /// A fresh ε-pruned search: within `(1 + ε)` per cost term of the
    /// exact optimum, never below it.
    Miss {
        exact: f64,
        epsilon: f64,
        terms: usize,
    },
}

#[derive(Clone)]
struct Req {
    line: String,
    model: &'static str,
    expect: Expect,
    conn: usize,
}

impl Req {
    /// The request's class: its kind and model, as in `budget.alexnet`.
    fn class(&self) -> String {
        let kind = match self.expect {
            Expect::Scalar { .. } if self.line.contains("\"machine\"") => "inline",
            Expect::Scalar { .. } => "scalar",
            Expect::Budget { .. } => "budget",
            Expect::Miss { .. } => "miss",
        };
        format!("{kind}.{}", self.model)
    }
}

#[derive(Clone, Copy)]
struct Item {
    due: Duration,
    req: usize,
}

/// One stretch of the ladder at one rate, after it ran.
struct Segment {
    rate: f64,
    items: Vec<Item>,
    sent: Vec<Duration>,
    done: Vec<Option<Duration>>,
    /// Per item: the answer's fingerprint and `cached` flag.
    answers: Vec<Option<(u64, bool)>>,
    /// Raw answer lines whose fingerprint differs from the expected one.
    odd: Vec<(usize, String)>,
    /// Clock ticks stolen from this machine during the segment.
    steal: u64,
    /// Server CPU time during the segment, in µs.
    cpu_us: f64,
}

impl Segment {
    fn due(&self) -> Vec<Duration> {
        self.items.iter().map(|it| it.due).collect()
    }

    /// Latency from the due time of every request on `conn`, in due order;
    /// a request never answered counts as infinitely late.
    fn latencies_ms(&self, reqs: &[Req], conn: usize) -> Vec<f64> {
        self.items
            .iter()
            .zip(&self.done)
            .filter(|(it, _)| reqs[it.req].conn == conn)
            .map(|(it, done)| match done {
                Some(d) => d.saturating_sub(it.due).as_secs_f64() * 1e3,
                None => f64::INFINITY,
            })
            .collect()
    }

    fn answered(&self) -> usize {
        self.done.iter().flatten().count()
    }

    /// From the schedule start to the last answer.
    fn last_answer(&self) -> Duration {
        self.done
            .iter()
            .flatten()
            .max()
            .copied()
            .unwrap_or_default()
    }
}

/// The segments of one rate that lost the least CPU time to other
/// tenants, in the order they ran.
struct Rung<'a> {
    rate: f64,
    segments: Vec<&'a Segment>,
    /// How many segments ran at this rate.
    ran: usize,
}

impl<'a> Rung<'a> {
    fn new(rate: f64, all: &'a [Segment]) -> Self {
        let at_rate: Vec<(&Segment, u64)> = all
            .iter()
            .filter(|s| s.rate == rate)
            .map(|s| (s, s.steal))
            .collect();
        let ran = at_rate.len();
        Rung {
            rate,
            segments: least_stolen(at_rate),
            ran,
        }
    }
}

impl Rung<'_> {
    /// Latency from the due time of every answered request, by
    /// [`Req::class`].
    fn latencies_by_class(&self, reqs: &[Req]) -> BTreeMap<String, Vec<f64>> {
        let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for s in &self.segments {
            for (it, done) in s.items.iter().zip(&s.done) {
                if let Some(d) = done {
                    let ms = d.saturating_sub(it.due).as_secs_f64() * 1e3;
                    out.entry(reqs[it.req].class()).or_default().push(ms);
                }
            }
        }
        out
    }

    fn latencies_ms(&self, reqs: &[Req], conn: usize) -> Vec<f64> {
        self.segments
            .iter()
            .flat_map(|s| s.latencies_ms(reqs, conn))
            .collect()
    }

    /// Answers received per second of the rung's segments.
    fn achieved_rps(&self) -> f64 {
        let n: usize = self.segments.iter().map(|s| s.answered()).sum();
        let t: Duration = self.segments.iter().map(|s| s.last_answer()).sum();
        n as f64 / t.as_secs_f64()
    }

    /// Segments whose backlog grew.
    fn backlogged(&self) -> usize {
        self.segments
            .iter()
            .filter(|s| backlog_growing(&s.due(), &s.done))
            .count()
    }

    /// The hit p99 meets the limit, and the backlog grew in at most a
    /// minority of the rung's segments.
    fn meets_limit(&self, reqs: &[Req]) -> bool {
        windowed_percentile(&self.latencies_ms(reqs, HIT_CONN), 99.0)
            .is_some_and(|p99| p99 <= HIT_P99_LIMIT_MS)
            && 2 * self.backlogged() < self.segments.len()
    }
}

/// The two-tier mesh the inline-machine requests carry.
fn two_tier() -> DeviceMesh {
    DeviceMesh::cluster(&MachineSpec::gtx1080ti(), 2, 4)
}

/// Fingerprint of an answer line with its `"cached"` flag removed: a hit
/// must be byte-identical to the first answer for its key otherwise.
fn fingerprint(line: &str) -> (u64, Option<bool>) {
    let (cached, rest) = if let Some(i) = line.find("\"cached\": true") {
        (Some(true), (&line[..i], &line[i + 14..]))
    } else if let Some(i) = line.find("\"cached\": false") {
        (Some(false), (&line[..i], &line[i + 15..]))
    } else {
        (None, (line, ""))
    };
    let mut h = DefaultHasher::new();
    rest.0.hash(&mut h);
    rest.1.hash(&mut h);
    (h.finish(), cached)
}

fn ids_of(v: Option<&json::Value>) -> Option<Vec<u16>> {
    v?.as_array()?
        .iter()
        .map(|x| x.as_u64().and_then(|x| u16::try_from(x).ok()))
        .collect()
}

/// Check one answer line against what its request expects.
fn check_answer(line: &str, expect: &Expect) -> Result<(), String> {
    let v = json::parse(line).map_err(|e| format!("unparseable answer: {e}"))?;
    if let Some(e) = v.get("error") {
        return Err(format!("error answer: {e:?}"));
    }
    let cost = v.get("cost").and_then(|c| c.as_f64());
    let ids = ids_of(v.get("strategy"));
    match expect {
        Expect::Scalar { cost: c, ids: i } => {
            if cost.map(f64::to_bits) != Some(c.to_bits()) || ids.as_ref() != Some(i) {
                return Err(format!(
                    "answer cost {cost:?} differs from the in-process {c}"
                ));
            }
        }
        Expect::Budget { budget, picked } => {
            let infeasible = v.get("infeasible").and_then(|b| b.as_bool());
            let peak = v.get("peak_memory_bytes").and_then(|p| p.as_u64());
            match picked {
                None if infeasible == Some(true) => {}
                Some((c, m, i))
                    if infeasible == Some(false)
                        && cost.map(f64::to_bits) == Some(c.to_bits())
                        && peak == Some(*m)
                        && *m <= *budget
                        && ids.as_ref() == Some(i) => {}
                _ => {
                    return Err(format!(
                        "budget {budget}: answer ({cost:?}, {peak:?}) differs from {picked:?}"
                    ))
                }
            }
        }
        Expect::Miss {
            exact,
            epsilon,
            terms,
        } => {
            let c = cost.ok_or("miss answer has no cost")?;
            let bound = exact * (1.0 + epsilon).powi(*terms as i32) * (1.0 + 1e-12);
            if !(c >= exact * (1.0 - 1e-12) && c <= bound) {
                return Err(format!(
                    "ε = {epsilon} answer {c} outside [{exact}, {bound}]"
                ));
            }
        }
    }
    Ok(())
}

/// The server-side counters of a `{"stats": true}` answer.
#[derive(Clone, Copy, Default, Debug)]
struct Stats {
    requests: u64,
    hits: u64,
    misses: u64,
    coalesced: u64,
}

fn parse_stats(line: &str) -> Result<Stats, String> {
    let v = json::parse(line).map_err(|e| format!("stats answer: {e}"))?;
    let s = v.get("stats").ok_or("stats answer has no \"stats\"")?;
    let field = |k: &str| {
        s.get(k)
            .and_then(|x| x.as_u64())
            .ok_or_else(|| format!("stats answer lacks {k}"))
    };
    Ok(Stats {
        requests: field("requests")?,
        hits: field("cache_hits")?,
        misses: field("cache_misses")?,
        coalesced: field("coalesced")?,
    })
}

/// A running `pase serve` child and the benchmark's two connections to it.
struct Server {
    child: Child,
    conns: [TcpStream; 2],
    /// Bytes read past the last answer line on the hit connection.
    pending: Vec<u8>,
}

impl Server {
    /// Spawn the server and wait until its prewarm is done and the port
    /// answers.
    fn spawn(pase: &std::path::Path) -> Result<Self, String> {
        let mut child = Command::new(pase)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers"])
            .arg(WORKERS.to_string())
            .args(["--prewarm", PREWARM])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", pase.display()))?;
        let addr = (|| {
            let out = child.stdout.take().ok_or("no server stdout")?;
            let mut first = String::new();
            BufReader::new(out)
                .read_line(&mut first)
                .map_err(|e| format!("reading the server's address: {e}"))?;
            first
                .trim()
                .strip_prefix("listening on ")
                .and_then(|a| a.parse::<SocketAddr>().ok())
                .ok_or_else(|| format!("unexpected first server line {first:?}"))
        })();
        let addr = match addr {
            Ok(a) => a,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let connect = || -> Result<TcpStream, String> {
            let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            s.set_nodelay(true).map_err(|e| e.to_string())?;
            Ok(s)
        };
        let conns = match (connect(), connect()) {
            (Ok(a), Ok(b)) => [a, b],
            (Err(e), _) | (_, Err(e)) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let mut server = Server {
            child,
            conns,
            pending: Vec::new(),
        };
        // The listener accepts only after the prewarm, so the first stats
        // answer marks the end of set-up.
        server.stats()?;
        Ok(server)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Send one line on the hit connection and wait for its answer.
    fn ask(&mut self, line: &str) -> Result<String, String> {
        let conn = &mut self.conns[HIT_CONN];
        conn.write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        conn.set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| e.to_string())?;
        let mut buf = [0u8; 65536];
        loop {
            if let Some(i) = self.pending.iter().position(|&b| b == b'\n') {
                let rest = self.pending.split_off(i + 1);
                let mut line = std::mem::replace(&mut self.pending, rest);
                line.pop();
                return String::from_utf8(line).map_err(|e| e.to_string());
            }
            let n = conn.read(&mut buf).map_err(|e| format!("receive: {e}"))?;
            if n == 0 {
                return Err("server closed the connection".into());
            }
            self.pending.extend_from_slice(&buf[..n]);
        }
    }

    fn stats(&mut self) -> Result<Stats, String> {
        parse_stats(&self.ask("{\"stats\": true}\n")?)
    }

    /// Stop the server with SIGINT (its graceful shutdown) and wait up to
    /// five seconds for it to exit; `Drop` kills it after that.
    fn stop(mut self) {
        let pid = self.child.id() as i32;
        // SAFETY: `kill` has no memory-safety preconditions; `pid` is our
        // own child, which has not been reaped yet (we still own `Child`).
        unsafe {
            kill(pid, SIGINT);
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline && matches!(self.child.try_wait(), Ok(None)) {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Server {
    /// A server left running by an early return or a panic is killed, so
    /// the benchmark never leaves a process behind.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

const SIGINT: i32 = 2;
const POLLIN: i16 = 0x001;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout: i32) -> i32;
}

/// The hit-class request kinds with their expected answers, computed
/// in-process with the same public calls the server makes on a miss.
struct Hot {
    /// Distinct hit-class requests, each with its slots in the deck.
    reqs: Vec<(Req, usize)>,
    /// Exact scalar optimum and cost-term count per miss model.
    exact: HashMap<&'static str, (f64, usize)>,
    /// Cache entries for the in-process replay, by key.
    entries: Vec<(u64, CacheEntry)>,
}

/// Run the search the server runs on a miss for `req`.
fn search_like_server(
    req: &Request,
) -> Result<(u64, CacheEntry, Option<StrategyFrontier>), String> {
    let graph = pase_models::build_named(&req.model, req.devices, req.weak_scaling)?;
    let rule = ConfigRule::new(req.devices);
    let key = strategy_cache_key(
        &graph,
        &rule,
        &req.machine,
        req.prune.then_some(req.epsilon),
        req.wants_frontier(),
    );
    let trace = Trace::new();
    let mut search = Search::new(&graph)
        .rule(rule)
        .mesh(req.machine.clone())
        .budget(req.budget)
        .prune_gate(req.prune_gate)
        .trace(&trace);
    if req.prune {
        search = search.pruning(PruneOptions {
            epsilon: req.epsilon,
            ..PruneOptions::default()
        });
    }
    if req.wants_frontier() {
        search = search.frontier();
    }
    let run = search.run();
    let report = SearchReport::new(&req.model, req.devices, run.outcome(), Some(&trace)).to_json();
    let r = run.result().map_err(|e| format!("{}: {e}", req.model))?;
    let frontier = run.frontier().cloned();
    let entry = CacheEntry {
        model: req.model.clone(),
        devices: req.devices,
        cost: r.cost,
        config_ids: r.config_ids.clone(),
        frontier: frontier
            .as_ref()
            .map_or_else(Vec::new, |f| f.points().to_vec()),
        report_json: report,
    };
    Ok((key, entry, frontier))
}

fn parse_request(line: &str) -> Result<Request, String> {
    Request::parse(line).map_err(|e| format!("{line:?}: {e}"))
}

/// Build the hit-class mix; budgets are drawn from `rng`.
fn hot_keys(rng: &mut StdRng) -> Result<Hot, String> {
    let mut hot = Hot {
        reqs: Vec::new(),
        exact: HashMap::new(),
        entries: Vec::new(),
    };
    let inline = two_tier().to_json();
    let scalar = HOT_SCALAR
        .iter()
        .map(|&model| {
            (
                model,
                SCALAR_SLOTS,
                format!("{{\"model\": \"{model}\", \"devices\": 8}}\n"),
            )
        })
        .chain(INLINE_MESH.iter().map(|&model| {
            (
                model,
                INLINE_SLOTS,
                format!("{{\"model\": \"{model}\", \"devices\": 8, \"machine\": {inline}}}\n"),
            )
        }));
    for (model, slots, line) in scalar {
        let req = parse_request(&line)?;
        let (key, entry, _) = search_like_server(&req)?;
        if req.machine == DeviceMesh::flat(&MachineSpec::gtx1080ti()) {
            let graph = pase_models::build_named(model, 8, true)?;
            hot.exact
                .insert(model, (entry.cost, graph.len() + graph.edges().len()));
        }
        let expect = Expect::Scalar {
            cost: entry.cost,
            ids: entry.config_ids.clone(),
        };
        hot.reqs.push((
            Req {
                line,
                model,
                expect,
                conn: HIT_CONN,
            },
            slots,
        ));
        hot.entries.push((key, entry));
    }
    for model in BUDGET_MODELS {
        let probe = parse_request(&format!(
            "{{\"model\": \"{model}\", \"devices\": 8, \"frontier\": true}}"
        ))?;
        let (key, entry, frontier) = search_like_server(&probe)?;
        let f = frontier
            .as_ref()
            .ok_or("frontier search returned no frontier")?;
        let floor = f.min_memory_bytes();
        let span = (f.min_time().memory_bytes - floor) as f64;
        for _ in 0..BUDGETS_PER_MODEL {
            // Mostly inside [floor, min-time memory]; some below the floor,
            // where the answer is "infeasible".
            let budget =
                (floor as f64 - 0.1 * span + rng.gen::<f64>() * 1.2 * span).max(0.0) as u64;
            let picked = f
                .cheapest_within(budget)
                .map(|p| (p.cost, p.memory_bytes, p.config_ids.clone()));
            let line = format!(
                "{{\"model\": \"{model}\", \"devices\": 8, \"max_memory_bytes\": {budget}}}\n"
            );
            hot.reqs.push((
                Req {
                    line,
                    model,
                    expect: Expect::Budget { budget, picked },
                    conn: HIT_CONN,
                },
                1,
            ));
        }
        hot.entries.push((key, entry));
    }
    Ok(hot)
}

/// One slot of the request mix.
#[derive(Clone, Copy)]
enum Slot {
    /// The hit-class request at this index of `reqs`.
    Hit(usize),
    /// A fresh-key miss on this model.
    Miss(&'static str),
}

/// The request mix as a deck: every request kind has a fixed number of
/// slots, dealt in a seeded order and reshuffled when the deck runs out, so
/// every run and every rate sends the same mix and only the order varies.
struct Deck {
    slots: Vec<Slot>,
    next: usize,
}

impl Deck {
    fn new(hot: &[(Req, usize)]) -> Self {
        let hits = hot
            .iter()
            .enumerate()
            .flat_map(|(i, (_, n))| std::iter::repeat_n(Slot::Hit(i), *n));
        let misses = MISS_MODELS
            .iter()
            .flat_map(|&m| std::iter::repeat_n(Slot::Miss(m), MISS_SLOTS));
        let slots: Vec<Slot> = hits.chain(misses).collect();
        Deck {
            next: slots.len(),
            slots,
        }
    }

    fn deal(&mut self, rng: &mut StdRng) -> Slot {
        if self.next == self.slots.len() {
            shuffle(rng, &mut self.slots);
            self.next = 0;
        }
        self.next += 1;
        self.slots[self.next - 1]
    }
}

/// Draw a Poisson schedule at `rate` for `secs`, dealing each request from
/// `deck`. Hit-class slots index `reqs` directly; every miss is a fresh
/// request appended to `reqs`.
fn schedule(
    rng: &mut StdRng,
    deck: &mut Deck,
    rate: f64,
    secs: f64,
    exact: &HashMap<&'static str, (f64, usize)>,
    reqs: &mut Vec<Req>,
    misses: &mut u64,
) -> Vec<Item> {
    let mut items = Vec::new();
    let mut t = exp(rng, 1.0 / rate);
    while t < secs {
        let req = match deck.deal(rng) {
            Slot::Hit(i) => i,
            Slot::Miss(model) => {
                *misses += 1;
                // A new ε is a new cache key: an insert, and once the
                // 64-entry LRU is full, an eviction.
                let epsilon = *misses as f64 * 1e-9;
                let (exact, terms) = exact[model];
                reqs.push(Req {
                    line: format!(
                        "{{\"model\": \"{model}\", \"devices\": 8, \"prune\": true, \
                         \"epsilon\": {epsilon:?}}}\n"
                    ),
                    model,
                    expect: Expect::Miss {
                        exact,
                        epsilon,
                        terms,
                    },
                    conn: MISS_CONN,
                });
                reqs.len() - 1
            }
        };
        items.push(Item {
            due: Duration::from_secs_f64(t),
            req,
        });
        t += exp(rng, 1.0 / rate);
    }
    items
}

/// Send `items` open-loop — each when it is due, whatever is outstanding —
/// while the reader thread collects the answers.
fn run_segment(
    server: &mut Server,
    reqs: &[Req],
    expected: &[Option<u64>],
    rate: f64,
    items: Vec<Item>,
) -> Result<Segment, String> {
    let mut per_conn: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    for (i, it) in items.iter().enumerate() {
        per_conn[reqs[it.req].conn].push(i);
    }
    let readers = [
        server.conns[0].try_clone().map_err(|e| e.to_string())?,
        server.conns[1].try_clone().map_err(|e| e.to_string())?,
    ];
    let last_due = items.last().map_or(Duration::ZERO, |it| it.due);
    let start = Instant::now() + Duration::from_millis(5);
    let mut sent = vec![Duration::ZERO; items.len()];
    let (done, answers, odd) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            read_answers(
                readers,
                &per_conn,
                &items,
                expected,
                start,
                start + last_due + DRAIN,
            )
        });
        for (i, it) in items.iter().enumerate() {
            let due = start + it.due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            sent[i] = start.elapsed();
            let req = &reqs[it.req];
            if server.conns[req.conn]
                .write_all(req.line.as_bytes())
                .is_err()
            {
                break;
            }
        }
        reader.join().expect("reader thread panicked")
    });
    Ok(Segment {
        rate,
        items,
        sent,
        done,
        answers,
        odd,
        steal: 0,
        cpu_us: f64::NAN,
    })
}

/// Completion offsets, `(fingerprint, cached)` per answer, and the raw
/// lines whose fingerprint differs from the expected one.
type Collected = (
    Vec<Option<Duration>>,
    Vec<Option<(u64, bool)>>,
    Vec<(usize, String)>,
);

/// The reader thread: wait on both connections, timestamp every complete
/// answer line when its bytes arrive, and fingerprint it.
fn read_answers(
    mut conns: [TcpStream; 2],
    per_conn: &[Vec<usize>; 2],
    items: &[Item],
    expected: &[Option<u64>],
    start: Instant,
    deadline: Instant,
) -> Collected {
    let mut done = vec![None; items.len()];
    let mut answers = vec![None; items.len()];
    let mut odd = Vec::new();
    let mut bufs: [Vec<u8>; 2] = [Vec::new(), Vec::new()];
    let mut next = [0usize; 2];
    let mut open = [true, true];
    let mut chunk = vec![0u8; 1 << 16];
    let total: usize = per_conn.iter().map(Vec::len).sum();
    let mut received = 0;
    while received < total && (open[0] || open[1]) {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let mut fds = [0, 1].map(|c| PollFd {
            fd: conns[c].as_raw_fd(),
            events: if open[c] { POLLIN } else { 0 },
            revents: 0,
        });
        let wait_ms = (deadline - now).as_millis().min(100) as i32;
        // SAFETY: `fds` is an initialised array of two `pollfd`s that
        // outlives the call, and both descriptors are live sockets.
        if unsafe { poll(fds.as_mut_ptr(), 2, wait_ms) } <= 0 {
            continue;
        }
        for c in 0..2 {
            if fds[c].revents == 0 || !open[c] {
                continue;
            }
            let got = match conns[c].read(&mut chunk) {
                Ok(0) | Err(_) => {
                    open[c] = false;
                    continue;
                }
                Ok(k) => k,
            };
            let at = start.elapsed();
            bufs[c].extend_from_slice(&chunk[..got]);
            while let Some(pos) = bufs[c].iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = bufs[c].drain(..=pos).collect();
                let Some(&i) = per_conn[c].get(next[c]) else {
                    open[c] = false;
                    break;
                };
                next[c] += 1;
                received += 1;
                done[i] = Some(at);
                let text = String::from_utf8_lossy(&line[..line.len() - 1]);
                let (fp, cached) = fingerprint(&text);
                answers[i] = cached.map(|c| (fp, c));
                if expected[items[i].req] != Some(fp) {
                    odd.push((i, text.into_owned()));
                }
            }
        }
    }
    (done, answers, odd)
}

/// One replayed request's time per layer (traced replay only); the
/// table, prune and search stages are zero on a hit.
#[derive(Default)]
struct ReplayTimes {
    miss: bool,
    parse: Duration,
    build: Duration,
    key: Duration,
    lookup: Duration,
    tables: Duration,
    prune: Duration,
    search: Duration,
    serialize: Duration,
}

impl ReplayTimes {
    fn sum(&self) -> Duration {
        self.parse
            + self.build
            + self.key
            + self.lookup
            + self.tables
            + self.prune
            + self.search
            + self.serialize
    }
}

/// Time `f` as a span when tracing, or just run it.
fn step<T>(
    sp: &mut Option<&mut Spans>,
    name: &str,
    group: u64,
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    match sp {
        Some(s) => s.time(name, group, f),
        None => (f(), Duration::ZERO),
    }
}

/// Answer one request in-process as the server does, then check the answer
/// as the socket's answers are checked. A hit goes parse, model build,
/// cache key, sharded-cache lookup (with the entry clone), serialisation —
/// for a budget variant, after the server's own point selection, a linear
/// scan of the cached frontier points. A miss goes parse, build, key,
/// lookup, cost tables, ε-prune, search, serialisation; it also returns the
/// program's counts.
fn replay_one(
    req: &Req,
    cache: &ShardedCache,
    mut sp: Option<&mut Spans>,
    group: u64,
    out: &mut String,
) -> Result<(ReplayTimes, Option<CellCounts>), String> {
    if let Some(s) = sp.as_mut() {
        s.open("bench.request", group);
    }
    let result = replay_steps(req, cache, &mut sp, group, out);
    if let Some(s) = sp.as_mut() {
        s.close();
    }
    let done = result?;
    check_answer(out, &req.expect).map_err(|e| format!("replayed {}: {e}", req.model))?;
    Ok(done)
}

fn replay_steps(
    req: &Req,
    cache: &ShardedCache,
    sp: &mut Option<&mut Spans>,
    group: u64,
    out: &mut String,
) -> Result<(ReplayTimes, Option<CellCounts>), String> {
    let mut t = ReplayTimes::default();
    let (parsed, dt) = step(sp, "serve.parse", group, || {
        Request::parse(&req.line).map_err(|e| e.to_string())
    });
    t.parse = dt;
    let r = parsed?;
    let (graph, dt) = step(sp, "models.build", group, || {
        pase_models::build_named(&r.model, r.devices, r.weak_scaling)
    });
    t.build = dt;
    let graph = graph?;
    let rule = ConfigRule::new(r.devices);
    let (key, dt) = step(sp, "serve.key", group, || {
        strategy_cache_key(
            &graph,
            &rule,
            &r.machine,
            r.prune.then_some(r.epsilon),
            r.wants_frontier(),
        )
    });
    t.key = dt;
    let (found, dt) = step(sp, "serve.lookup", group, || match cache.lookup(key) {
        Lookup::Hit(entry) | Lookup::Coalesced(entry) => Some(entry),
        Lookup::Miss(_) => None,
    });
    t.lookup = dt;
    out.clear();
    let Some(entry) = found else {
        // A miss: plan the request the way the server's miss path does.
        t.miss = true;
        let (tables, dt) = step(sp, "cost.tables", group, || {
            CostTables::build_mesh(&graph, rule, &r.machine, &TableOptions::default(), None)
        });
        t.tables = dt;
        let (pruned, dt) = step(sp, "cost.prune", group, || {
            let opts = PruneOptions {
                epsilon: r.epsilon,
                ..PruneOptions::default()
            };
            PrunedTables::build(&graph, &tables, &opts)
        });
        t.prune = dt;
        let trace_epoch = Instant::now();
        let trace = sp.is_some().then(Trace::new);
        let (outcome, dt) = step(sp, "core.search", group, || {
            let mut search = Search::new(&graph)
                .tables(pruned.tables())
                .budget(r.budget)
                .prune_gate(r.prune_gate);
            if let Some(tr) = &trace {
                search = search.trace(tr);
            }
            search.run().into_outcome()
        });
        t.search = dt;
        if let (Some(s), Some(tr)) = (sp.as_mut(), &trace) {
            s.adopt_phases("core.search", group, tr, trace_epoch);
        }
        let found = outcome
            .found()
            .ok_or_else(|| format!("replayed {} search ended {}", req.model, outcome.tag()))?;
        let ps = pruned.stats();
        let counts = CellCounts {
            configs_before: ps.configs_before,
            configs_after: ps.configs_after,
            states_evaluated: found.stats.states_evaluated,
            peak_table_bytes: found.stats.peak_table_bytes,
        };
        let ((), dt) = step(sp, "serve.serialize", group, || {
            let report = SearchReport::new(&r.model, r.devices, &outcome, None).to_json();
            let ids = pruned.to_original_ids(&found.config_ids);
            write_response_json(out, key, false, Some(found.cost), Some(&ids), &report)
        });
        t.serialize = dt;
        return Ok((t, Some(counts)));
    };
    let ((), dt) = match r.max_memory_bytes {
        Some(b) => step(sp, "serve.serialize", group, || {
            let points = &entry.frontier;
            let picked = points.iter().find(|p| p.memory_bytes <= b);
            write_frontier_response_json(
                out,
                key,
                true,
                picked.map(|p| (p.cost, p.memory_bytes, p.config_ids.as_slice())),
                points.last().map_or(0, |p| p.memory_bytes),
                None,
                &entry.report_json,
            )
        }),
        None => step(sp, "serve.serialize", group, || {
            write_response_json(
                out,
                key,
                true,
                Some(entry.cost),
                Some(&entry.config_ids),
                &entry.report_json,
            )
        }),
    };
    t.serialize = dt;
    Ok((t, None))
}

/// Median of `f` over the replayed requests it returns `Some` for, in `scale`
/// units per second.
fn median_of(
    times: &[ReplayTimes],
    scale: f64,
    f: impl Fn(&ReplayTimes) -> Option<Duration>,
) -> f64 {
    let v: Vec<f64> = times
        .iter()
        .filter_map(&f)
        .map(|d| d.as_secs_f64() * scale)
        .collect();
    median(&v)
}

/// The server to measure, after set-up.
struct SetUp {
    server: Server,
    /// Fingerprint of the first answer for each hit-class request.
    expected: Vec<Option<u64>>,
    /// CPU seconds of each stopped server: its whole life, set-up and
    /// shutdown.
    times: Vec<f64>,
}

/// Spawn the server `repeats` times; each time wait for the prewarm and
/// get the first answer for every hit-class key, checking it against the
/// in-process answer. The last server is kept; the CPU time of the others
/// is measured once they have exited.
fn set_up(opts: &Opts, reqs: &[Req], repeats: usize, report: &mut Report) -> Result<SetUp, String> {
    let mut times = Vec::with_capacity(repeats);
    for k in 0..repeats {
        let cpu0 = children_cpu();
        let mut server = Server::spawn(opts.pase)?;
        let mut expected = Vec::with_capacity(reqs.len());
        for r in reqs {
            let answer = server.ask(&r.line)?;
            report.op(check_answer(&answer, &r.expect).map_err(|e| format!("{}: {e}", r.model)));
            expected.push(Some(fingerprint(&answer).0));
        }
        if k + 1 == repeats {
            return Ok(SetUp {
                server,
                expected,
                times,
            });
        }
        server.stop();
        let cpu = children_cpu().zip(cpu0).map(|(b, a)| b.saturating_sub(a));
        times.push(cpu.map_or(f64::NAN, |d| d.as_secs_f64()));
    }
    unreachable!("the loop returns on its last repeat")
}

/// The segments in the order they run: `(rate, seconds)`.
fn ladder_plan(opts: &Opts) -> Vec<(f64, f64)> {
    let rungs = LADDER_RPS;
    let other = (1.0 - REFERENCE_SHARE) / (rungs.len() - 1) as f64;
    (0..CYCLES)
        .flat_map(|_| rungs.iter().copied())
        .map(|rate| {
            let share = if rate == REFERENCE_RPS {
                REFERENCE_SHARE
            } else {
                other
            };
            (rate, opts.seconds * share / CYCLES as f64)
        })
        .collect()
}

/// Check every answer (one operation each), then cross-check the client's
/// cached/uncached tally against the server's counters. Returns the
/// server's (hits, misses, coalesced) over the segments.
fn check_segments(
    segments: &[Segment],
    reqs: &[Req],
    stats: Option<(Stats, Stats)>,
    report: &mut Report,
) -> Option<(u64, u64, u64)> {
    let mut tally = [0u64; 2];
    for seg in segments {
        let odd: HashMap<usize, &String> = seg.odd.iter().map(|(i, l)| (*i, l)).collect();
        for (i, it) in seg.items.iter().enumerate() {
            let req = &reqs[it.req];
            let result = match (seg.done[i], odd.get(&i)) {
                (None, _) => Err("no answer within the drain window".to_string()),
                (Some(_), Some(line)) => check_answer(line, &req.expect),
                (Some(_), None) => Ok(()),
            };
            if let Some((_, cached)) = seg.answers[i] {
                tally[usize::from(cached)] += 1;
            }
            report.op(result.map_err(|e| format!("{}: {e}", req.model)));
        }
    }
    let (before, after) = stats?;
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    let coalesced = after.coalesced - before.coalesced;
    let answered: usize = segments.iter().map(Segment::answered).sum();
    // The closing stats probe counts itself as a request.
    let requests_ok = after.requests - before.requests == answered as u64 + 1;
    report.op(if tally == [misses, hits + coalesced] && requests_ok {
        Ok(())
    } else {
        Err(format!(
            "client saw {} cached / {} uncached of {answered}, server counted {hits} hits + \
             {coalesced} coalesced / {misses} misses of {} requests",
            tally[1],
            tally[0],
            after.requests - before.requests - 1
        ))
    });
    Some((hits, misses, coalesced))
}

/// Print each rung's latencies (median and the highest percentile with
/// ten samples beyond it, with the sample count), send lag and backlog.
fn describe(rungs: &[Rung], reqs: &[Req]) {
    let summary = |v: Vec<f64>| {
        let mut v = v;
        v.sort_by(f64::total_cmp);
        match tail(&v) {
            Some(t) => format!(
                "p50 {:.3} ms, p{} {:.3} ms of {}",
                percentile(&v, 50.0),
                t.pct,
                t.value,
                t.samples
            ),
            None => format!("{} samples", v.len()),
        }
    };
    for r in rungs {
        let (due, sent): (Vec<Duration>, Vec<Duration>) = r
            .segments
            .iter()
            .flat_map(|s| s.due().into_iter().zip(s.sent.iter().copied()))
            .unzip();
        eprintln!(
            "rung {:>6} rps ({} of {} segments): achieved {:.1} rps; hits {}; misses {}; \
             send lag p99 {:.3} ms; backlog grew in {}; meets the limit {}",
            r.rate,
            r.segments.len(),
            r.ran,
            r.achieved_rps(),
            summary(r.latencies_ms(reqs, HIT_CONN)),
            summary(r.latencies_ms(reqs, MISS_CONN)),
            lag(&due, &sent).p99_ms,
            r.backlogged(),
            r.meets_limit(reqs),
        );
    }
}

/// Run `serve-mixed` for `opts.seconds`.
pub fn run(opts: &Opts, report: &mut Report) -> Result<Vec<Span>, String> {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let hot = hot_keys(&mut rng)?;
    let mut deck = Deck::new(&hot.reqs);
    let mut reqs: Vec<Req> = hot.reqs.iter().map(|(r, _)| r.clone()).collect();

    let hot_len = reqs.len();
    let before_ladder = if opts.trace { 1 } else { SETUP_REPEATS / 2 };
    let SetUp {
        mut server,
        mut expected,
        mut times,
    } = set_up(opts, &reqs, before_ladder, report)?;
    let pid = server.pid();
    let before = server.stats()?;
    let started = Instant::now();
    let steal_at_start = steal_ticks();
    let rss_start = status_bytes(pid, "VmRSS");
    let mut segments = Vec::new();
    let mut misses = 0u64;
    for (rate, secs) in ladder_plan(opts) {
        let items = schedule(
            &mut rng,
            &mut deck,
            rate,
            secs,
            &hot.exact,
            &mut reqs,
            &mut misses,
        );
        expected.resize(reqs.len(), None);
        let steal_before = steal_ticks();
        let cpu_before = cpu_us(pid);
        let mut seg = run_segment(&mut server, &reqs, &expected, rate, items)?;
        seg.steal = stolen_since(steal_before);
        seg.cpu_us = match (cpu_before, cpu_us(pid)) {
            (Some(a), Some(b)) => b - a,
            _ => f64::NAN,
        };
        let lost = seg.done.iter().any(Option::is_none);
        segments.push(seg);
        if lost {
            // Unanswered requests leave the connections out of step.
            break;
        }
    }
    let rss_end = status_bytes(pid, "VmRSS");
    let peak_rss = status_bytes(pid, "VmHWM");
    let complete = segments.iter().all(|s| s.done.iter().all(Option::is_some));
    let after = if complete {
        Some(server.stats()?)
    } else {
        None
    };
    server.stop();
    let counters = check_segments(&segments, &reqs, after.map(|a| (before, a)), report);
    if !opts.trace {
        let later = set_up(
            opts,
            &reqs[..hot_len],
            SETUP_REPEATS - before_ladder,
            report,
        )?;
        later.server.stop();
        times.extend(later.times);
        eprintln!("set-up CPU seconds, before and after the ladder: {times:?}");
        report.metric("setup_s", median(&times), "s");
    }

    let steal_pct = stolen_share(steal_at_start, started);
    eprintln!("{steal_pct:.1} % of the machine's CPU time was stolen while measuring");
    let rungs: Vec<Rung> = LADDER_RPS
        .iter()
        .map(|&rate| Rung::new(rate, &segments))
        .filter(|r| r.ran > 0)
        .collect();
    describe(&rungs, &reqs);
    let Some(reference) = rungs.iter().find(|r| r.rate == REFERENCE_RPS) else {
        // A lost answer stopped the ladder before it reached the reference
        // rate: the failures are counted, there is nothing to measure.
        report.op(Err("the ladder stopped before the reference rate".into()));
        return Ok(Vec::new());
    };
    let hit_ms = reference.latencies_ms(&reqs, HIT_CONN);
    let windowed = |v: &[f64], pct| windowed_percentile(v, pct).unwrap_or(f64::NAN);
    let max_rps = rungs
        .iter()
        .filter(|r| r.meets_limit(&reqs))
        .map(Rung::achieved_rps)
        .fold(0.0, f64::max);
    eprintln!("highest rate whose hit p99 meets {HIT_P99_LIMIT_MS} ms: {max_rps:.1} rps");
    if let Some((hits, misses, coalesced)) = counters {
        eprintln!("server counted {hits} hits, {misses} misses, {coalesced} coalesced");
    }
    let (due, sent): (Vec<Duration>, Vec<Duration>) = segments
        .iter()
        .flat_map(|s| s.due().into_iter().zip(s.sent.iter().copied()))
        .unzip();
    eprintln!("generator send lag p99 {:.3} ms", lag(&due, &sent).p99_ms);
    // Per request class, the median round trip at the reference rate.
    let per_class: Vec<f64> = reference
        .latencies_by_class(&reqs)
        .into_iter()
        .map(|(class, v)| {
            let m = median(&v);
            eprintln!("{class:>22}: median {m:8.3} ms of {:5}", v.len());
            m
        })
        .collect();
    let answer_geomean_ms = geomean(&per_class).unwrap_or(f64::NAN);
    eprintln!("geometric mean over the classes {answer_geomean_ms:.3} ms");
    let answered = segments.iter().map(Segment::answered).sum::<usize>() as f64;
    if let (Some(a), Some(b)) = (rss_start, rss_end) {
        eprintln!(
            "server resident set grew {:.1} B per request",
            (b as f64 - a as f64) / answered
        );
    }
    if !opts.trace {
        // Server CPU time per answer of each segment, both rungs, over the
        // segments that lost the least CPU time to other tenants.
        let per_segment: Vec<(f64, u64)> = segments
            .iter()
            .map(|s| (s.cpu_us / s.answered() as f64, s.steal))
            .collect();
        report.metric(
            "cpu_us_per_answer",
            median(&least_stolen(per_segment)),
            "us",
        );
        report.metric(
            "speedup_vs_dp_geomean",
            served_speedup(&reqs[..hot_len])?,
            "x",
        );
        report.metric(
            "peak_rss_mb",
            peak_rss.map_or(f64::NAN, |b| b as f64 / f64::from(1u32 << 20)),
            "MB",
        );
        return Ok(Vec::new());
    }
    report.metric("bench.answer_geomean_ms", answer_geomean_ms, "ms");
    report.metric("bench.steal_pct", steal_pct, "%");
    let sent: Vec<&Req> = reference
        .segments
        .iter()
        .flat_map(|s| s.items.iter())
        .map(|it| &reqs[it.req])
        .take(REPLAY_REQUESTS)
        .collect();
    Ok(replay(
        &sent,
        hot.entries,
        windowed(&hit_ms, 50.0) * 1e3,
        report,
    ))
}

/// Geometric mean of the simulated speedup over data parallelism of the
/// cached optima the server answers the flat-mesh scalar hits with (every
/// answer it gave them was checked equal to these). Budget answers depend
/// on the seeded budgets, inline-mesh answers are planned for another
/// machine than the simulator's, and misses answer a cached model again.
fn served_speedup(hot: &[Req]) -> Result<f64, String> {
    let mut speedups = Vec::new();
    for r in hot.iter().filter(|r| !r.line.contains("\"machine\"")) {
        let Expect::Scalar { ids, .. } = &r.expect else {
            continue;
        };
        let graph = pase_models::build_named(r.model, 8, true)?;
        let t = CostTables::build_mesh(
            &graph,
            ConfigRule::new(8),
            &DeviceMesh::flat(&MachineSpec::gtx1080ti()),
            &TableOptions::default(),
            None,
        );
        let graph = &graph;
        let topo = Topology::cluster(MachineSpec::gtx1080ti(), 8).map_err(|e| e.to_string())?;
        speedups.push(speedup_over(
            graph,
            &t.ids_to_strategy(ids),
            &data_parallel(graph, 8),
            &topo,
            &SimOptions::default(),
        ));
    }
    geomean(&speedups).ok_or_else(|| "no served answer to simulate".to_string())
}

/// The traced run's in-process replay of `sent` (the reference rate's
/// requests, hits and misses in their mix) through the server's public
/// calls, untraced and traced in turn; reports each layer's median time
/// per request (the table, prune and search stages over the misses), the
/// hit round trip's unaccounted remainder (`hit_rt_p50_us` minus the
/// replayed hit layers), the misses' counts, self times and the tracing
/// overhead.
fn replay(
    sent: &[&Req],
    entries: Vec<(u64, CacheEntry)>,
    hit_rt_p50_us: f64,
    report: &mut Report,
) -> Vec<Span> {
    let cache = ShardedCache::new(WORKERS, 64, None, true);
    for (key, entry) in entries {
        if let Lookup::Miss(guard) = cache.lookup(key) {
            if let Err(e) = guard.fulfill(entry) {
                report.op(Err(format!("filling the replay cache: {e}")));
            }
        }
    }
    let mut out = String::new();
    let mut recorder = Spans::new(true);
    let mut plain_us = Vec::new();
    let mut traced_us = Vec::new();
    let mut times = Vec::new();
    let mut batches = Vec::new();
    let mut counts: HashMap<&str, CellCounts> = HashMap::new();
    let mut group = 0u64;
    for round in 0..4 {
        let traced = round % 2 == 1;
        let mut answered = 0;
        for req in sent {
            group += 1;
            let t0 = Instant::now();
            let sp = traced.then_some(&mut recorder);
            let result = replay_one(req, &cache, sp, group, &mut out);
            let dt = t0.elapsed().as_secs_f64() * 1e6;
            report.op(result.as_ref().map(|_| ()).map_err(Clone::clone));
            let Ok((t, c)) = result else { continue };
            answered += 1;
            if let Some(c) = c {
                counts.entry(req.model).or_insert(c);
            }
            if traced {
                traced_us.push(dt);
                times.push(t);
            } else {
                plain_us.push(dt);
            }
        }
        if traced {
            batches.push((recorder.drain(), answered));
        }
    }
    let hit = |t: &ReplayTimes| !t.miss;
    let hit_sum: Vec<f64> = times
        .iter()
        .filter(|t| hit(t))
        .map(|t| t.sum().as_secs_f64() * 1e6)
        .collect();
    report.metric(
        "bench.unaccounted_us",
        hit_rt_p50_us - median(&hit_sum),
        "us",
    );
    let stages: [Stage<ReplayTimes>; 5] = [
        ("models.build_us", |t| t.build),
        ("serve.parse_us", |t| t.parse),
        ("serve.key_us", |t| t.key),
        ("serve.lookup_us", |t| t.lookup),
        ("serve.serialize_us", |t| t.serialize),
    ];
    for (name, stage) in stages {
        report.metric(name, median_of(&times, 1e6, |t| Some(stage(t))), "us");
    }
    let miss_stages: [Stage<ReplayTimes>; 3] = [
        ("cost.tables_ms", |t| t.tables),
        ("cost.prune_ms", |t| t.prune),
        ("core.search_ms", |t| t.search),
    ];
    for (name, stage) in miss_stages {
        report.metric(
            name,
            median_of(&times, 1e3, |t| t.miss.then(|| stage(t))),
            "ms",
        );
    }
    let mut counted: Vec<(&str, CellCounts)> = counts.into_iter().collect();
    counted.sort_by_key(|(m, _)| *m);
    if counted.len() != MISS_MODELS.len() {
        report.op(Err(format!(
            "replayed misses on {} of {} models",
            counted.len(),
            MISS_MODELS.len()
        )));
    }
    report_counts(
        &counted.into_iter().map(|(_, c)| c).collect::<Vec<_>>(),
        report,
    );
    let refs: Vec<(&[Span], usize)> = batches.iter().map(|(s, n)| (s.as_slice(), *n)).collect();
    report_span_layers(&refs, report);
    let plain = median(&plain_us);
    report.metric(
        "trace.overhead_pct",
        (median(&traced_us) - plain) / plain * 100.0,
        "%",
    );
    let mut all = Vec::new();
    for (s, _) in batches {
        spans::archive(&mut all, s);
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_deck_deals_the_same_mix() {
        let req = |model| Req {
            line: String::new(),
            model,
            expect: Expect::Scalar {
                cost: 0.0,
                ids: Vec::new(),
            },
            conn: HIT_CONN,
        };
        let hot = [(req("mlp"), 3), (req("alexnet"), 1)];
        let mut deck = Deck::new(&hot);
        let size = 4 + MISS_MODELS.len() * MISS_SLOTS;
        let mut rng = StdRng::seed_from_u64(1);
        let mut orders = Vec::new();
        for _ in 0..3 {
            let dealt: Vec<Slot> = (0..size).map(|_| deck.deal(&mut rng)).collect();
            let hits = |i| {
                dealt
                    .iter()
                    .filter(|s| matches!(s, Slot::Hit(j) if *j == i))
                    .count()
            };
            let misses = |m| {
                dealt
                    .iter()
                    .filter(|s| matches!(s, Slot::Miss(n) if *n == m))
                    .count()
            };
            assert_eq!((hits(0), hits(1)), (3, 1));
            assert!(MISS_MODELS.iter().all(|&m| misses(m) == MISS_SLOTS));
            orders.push(
                dealt
                    .iter()
                    .map(|s| matches!(s, Slot::Hit(_)))
                    .collect::<Vec<_>>(),
            );
        }
        assert!(orders[0] != orders[1] || orders[1] != orders[2]);
    }

    #[test]
    fn fingerprint_ignores_only_the_cached_flag() {
        let miss = "{\"schema_version\": 4, \"cached\": false, \"cost\": 1.5, \"strategy\": [0]}";
        let hit = miss.replace("false", "true");
        assert_eq!(fingerprint(miss), (fingerprint(&hit).0, Some(false)));
        assert_eq!(fingerprint(&hit).1, Some(true));
        assert_ne!(
            fingerprint(miss).0,
            fingerprint(&miss.replace("1.5", "1.25")).0
        );
    }

    #[test]
    fn answers_are_checked_against_what_their_request_expects() {
        let scalar = Expect::Scalar {
            cost: 1.5,
            ids: vec![0, 2],
        };
        assert!(check_answer("{\"cost\": 1.5, \"strategy\": [0, 2]}", &scalar).is_ok());
        assert!(check_answer("{\"cost\": 1.5, \"strategy\": [0, 1]}", &scalar).is_err());
        assert!(check_answer("{\"error\": \"boom\"}", &scalar).is_err());
        assert!(check_answer("{\"cost\": 1.5", &scalar).is_err());

        let fits = Expect::Budget {
            budget: 100,
            picked: Some((2.0, 90, vec![1])),
        };
        let answer =
            "{\"cost\": 2.0, \"strategy\": [1], \"peak_memory_bytes\": 90, \"infeasible\": false}";
        assert!(check_answer(answer, &fits).is_ok());
        let none = Expect::Budget {
            budget: 10,
            picked: None,
        };
        assert!(check_answer("{\"cost\": null, \"infeasible\": true}", &none).is_ok());
        assert!(check_answer(answer, &none).is_err());

        let miss = Expect::Miss {
            exact: 100.0,
            epsilon: 1e-3,
            terms: 2,
        };
        assert!(check_answer("{\"cost\": 100.15}", &miss).is_ok());
        assert!(check_answer("{\"cost\": 100.3}", &miss).is_err());
        assert!(check_answer("{\"cost\": 99.0}", &miss).is_err());
    }
}
