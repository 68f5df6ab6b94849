//! One benchmark for the cloud monitor as `cmcli serve` ships it.
//!
//! Topology, all in this process: load generator → monitor (loopback
//! TCP) → simulated cloud (loopback TCP). Usage:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload read_hot|write_audit --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics on an untraced topology;
//! `--trace 1` measures the per-layer ledger on a traced one, plus an
//! untraced closed loop to price the tracing. Every metric is printed by
//! name with its unit; the last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. A run that
//! found a wrong status, a lost audit record or an unbalanced ledger still
//! prints it, then exits with code 1.

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

mod alloc;
mod layers;
mod load;
mod stats;
mod sys;
mod topo;
mod trace;
mod workload;

use cm_httpkit::{ServerConfig, Transport};
use cm_obs::OverloadStats;
use load::{Pace, PhaseOut};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{Plan, Spec, Stream, Workload};

/// Stand-ups per run (the trials' and extra ones); `setup_s` is their
/// median.
const SETUP_REPS: usize = 21;
/// Trials per end-to-end run. Throughput, CPU and p50 are medians over
/// them; p99 is the lowest p99 of the one-second groups of all trials
/// (the median over groups follows the host's CPU steal, see the
/// README), printed next to every group's p99.
const TRIALS: usize = 9;
/// Requests per connection in the untimed closed-loop warm-up before the
/// measured phases: fills the identity cache and both connection pools.
/// A count, not a time, so every run does the same work before the
/// memory high-water mark is read.
const WARMUP_REQUESTS: u64 = 256;
/// Share of `--seconds` spent in the open loop; the closed loop gets the
/// rest (split in two around the traced open loop under `--trace 1`).
/// The open loop takes the larger share so that its p99 rests on at
/// least [`GROUP`] samples at the lowest offered rate.
pub const OPEN_SHARE: f64 = 2.0 / 3.0;
/// Open-loop latencies are cut, in due order, into groups of at least
/// this many requests: the fewest that leave ten samples beyond p99.
const GROUP: usize = 1000;
/// Failed requests printed in full; the rest are counted.
const MAX_REPORTED: usize = 100;
/// Where audit logs live during a run, relative to the working
/// directory (the checkout root).
const RUN_DIR: &str = ".bench_run";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let pos = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(pos + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed needs a whole number".to_string())?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds needs a number".to_string())?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err("--seconds must be between 1 and 600".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace needs 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "{e}\nusage: perfbench --workload read_hot|write_audit \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let deviations = serve_deviations();
    if !deviations.is_empty() {
        for d in &deviations {
            eprintln!("config differs from the `cmcli serve` defaults: {d}");
        }
        return ExitCode::from(3);
    }
    let spec = args.workload.spec();
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // One client connection per reactor shard (0 shards = one per core,
    // capped at 8), so every shard serves exactly one connection.
    let conns = nproc.min(8);
    print_config(&args, &spec, nproc, conns);

    let started = Instant::now();
    let plan = match workload::plan(args.workload, args.seed, conns) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("reference run failed: {e}");
            return ExitCode::from(4);
        }
    };
    println!(
        "reference       : {} requests through an in-process monitor in {:.2}s",
        plan.reference_requests,
        started.elapsed().as_secs_f64()
    );
    let mut run = Run::new(&args, spec, plan, conns);
    for violation in std::mem::take(&mut run.plan.intent_violations) {
        run.attempted += 1;
        run.failed += 1;
        run.report(format!("reference: {violation}"));
    }
    let metrics = if args.trace {
        layers::measure(&mut run)
    } else {
        end_to_end(&mut run)
    };
    let _ = std::fs::remove_dir(RUN_DIR);
    if run.finish(&metrics) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every way the composed configuration differs from what `cmcli serve`
/// runs without flags.
fn serve_deviations() -> Vec<String> {
    let monitor = topo::monitor_server_config(Arc::new(OverloadStats::new()));
    let mut out = Vec::new();
    if monitor.transport != Transport::Reactor {
        out.push(format!(
            "transport {:?}, serve runs the reactor",
            monitor.transport
        ));
    }
    if monitor.shards != 0 {
        out.push(format!(
            "{} reactor shards, serve runs one per core",
            monitor.shards
        ));
    }
    if !monitor.keep_alive {
        out.push("keep-alive off, serve keeps connections alive".into());
    }
    if monitor.overload.enabled {
        out.push("overload control on, serve runs with it off".into());
    }
    out
}

fn print_config(args: &Args, spec: &Spec, nproc: usize, conns: usize) {
    let monitor = topo::monitor_server_config(Arc::new(OverloadStats::new()));
    let cloud = ServerConfig::default();
    println!(
        "workload        : {} seed {}",
        args.workload.name(),
        args.seed
    );
    println!(
        "machine         : nproc {nproc}, {conns} generator threads, {conns} client connections"
    );
    let (open, closed) = (args.seconds * OPEN_SHARE, args.seconds * (1.0 - OPEN_SHARE));
    println!(
        "phases          : warm-up {WARMUP_REQUESTS} requests per connection; {}",
        if args.trace {
            format!(
                "untraced closed {:.2}s, traced open {open:.2}s, traced closed {:.2}s",
                closed / 2.0,
                closed / 2.0
            )
        } else {
            format!(
                "{TRIALS} trials of open {:.2}s + closed {:.2}s",
                open / TRIALS as f64,
                closed / TRIALS as f64
            )
        }
    );
    println!(
        "load            : open loop {} req/s, closed-loop window {} per connection",
        spec.open_rps, spec.window
    );
    println!(
        "cloud fixture   : {}, {} pool volumes per project",
        if spec.projects == 1 {
            "my_project".to_string()
        } else {
            format!("multi_project({})", spec.projects)
        },
        spec.pool
    );
    println!(
        "monitor         : Fig. 3 models, SnapshotPolicy::Full, speculative reads off, \
         DegradedPolicy::FailClosed, anti-entropy 0, AdminRoutes, audit log {}",
        if spec.audit {
            "on (fresh directory, fsync per group)"
        } else {
            "off"
        }
    );
    println!(
        "monitor server  : {:?}, shards {} (0 = one per core), keep-alive {}, overload {}, \
         {} requests per connection",
        monitor.transport,
        monitor.shards,
        monitor.keep_alive,
        if monitor.overload.enabled {
            "on"
        } else {
            "off"
        },
        monitor.max_requests_per_conn
    );
    println!(
        "cloud server    : {:?}, shards {}, keep-alive {}",
        cloud.transport, cloud.shards, cloud.keep_alive
    );
}

/// State shared by the phases of one run.
pub struct Run {
    /// The workload's parameters.
    pub spec: Spec,
    /// Seed of the cloud fixture.
    pub seed: u64,
    /// The measured duration, seconds.
    pub seconds: f64,
    /// The seeded streams and their expected statuses.
    pub plan: Plan,
    /// Requests attempted so far.
    pub attempted: u64,
    /// Requests failed so far (plus audit records lost).
    pub failed: u64,
    reported: usize,
    next_ids: Vec<u64>,
    stand_ups: usize,
    name: &'static str,
}

impl Run {
    fn new(args: &Args, spec: Spec, plan: Plan, conns: usize) -> Run {
        Run {
            spec,
            seed: args.seed,
            seconds: args.seconds,
            plan,
            attempted: 0,
            failed: 0,
            reported: 0,
            next_ids: (0..conns as u64).map(|t| t << 48).collect(),
            stand_ups: 0,
            name: args.workload.name(),
        }
    }

    /// Print one failure, up to [`MAX_REPORTED`].
    pub fn report(&mut self, line: String) {
        if self.reported < MAX_REPORTED {
            println!("FAILED          : {line}");
        }
        self.reported += 1;
    }

    /// Stand a topology up (timed); returns it with its set-up seconds.
    pub fn stand_up(&mut self, traced: bool) -> (topo::Topology, f64) {
        let dir = self.spec.audit.then(|| {
            let dir = PathBuf::from(RUN_DIR).join(format!(
                "{}-{}-{}",
                self.name,
                std::process::id(),
                self.stand_ups
            ));
            std::fs::create_dir_all(&dir)
                .unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
            dir
        });
        self.stand_ups += 1;
        let started = Instant::now();
        let topology = topo::stand_up(&self.spec, self.seed, traced, dir.as_deref());
        (topology, started.elapsed().as_secs_f64())
    }

    /// Fresh copies of the plan's streams, positioned at their start.
    pub fn streams(&self) -> Vec<Stream> {
        self.plan.streams.clone()
    }

    /// Run one load phase and account its requests.
    pub fn phase(
        &mut self,
        topology: &topo::Topology,
        streams: &mut [Stream],
        pace: Pace,
        samples: bool,
    ) -> PhaseOut {
        let out = load::run(
            topology.addr,
            streams,
            &topology.tokens,
            pace,
            ServerConfig::default().max_requests_per_conn,
            samples,
            &mut self.next_ids,
        );
        self.attempted += out.attempted;
        self.failed += out.failed;
        for line in &out.mismatches {
            self.report(line.clone());
        }
        out
    }

    /// The untimed warm-up.
    pub fn warm_up(&mut self, topology: &topo::Topology, streams: &mut [Stream]) {
        let pace = Pace::Closed {
            window: self.spec.window,
            deadline_ns: trace::now_ns() + 120_000_000_000,
            limit: WARMUP_REQUESTS,
        };
        self.phase(topology, streams, pace, false);
    }

    /// An open-loop phase of `seconds` at the workload's rate.
    pub fn open_loop(
        &mut self,
        topology: &topo::Topology,
        streams: &mut [Stream],
        seconds: f64,
        samples: bool,
    ) -> PhaseOut {
        let pace = Pace::Open {
            start_ns: trace::now_ns() + 1_000_000,
            rate: self.spec.open_rps,
            total: (self.spec.open_rps * seconds).round() as u64,
        };
        self.phase(topology, streams, pace, samples)
    }

    /// A closed-loop phase of `seconds`: its expected responses per
    /// second within the window, and the process CPU time per answered
    /// request in µs.
    pub fn closed_loop(
        &mut self,
        topology: &topo::Topology,
        streams: &mut [Stream],
        seconds: f64,
    ) -> Closed {
        let cpu_before = sys::process_cpu();
        let pace = Pace::Closed {
            window: self.spec.window,
            deadline_ns: trace::now_ns() + (seconds * 1e9) as u64,
            limit: u64::MAX,
        };
        let out = self.phase(topology, streams, pace, false);
        let cpu = sys::process_cpu() - cpu_before;
        let answered = (out.ok + out.failed).max(1);
        Closed {
            rps: out.ok_in_window as f64 / seconds,
            cpu_us: cpu.as_secs_f64() * 1e6 / answered as f64,
        }
    }

    /// Flush the audit log and count every record dropped or not
    /// committed as a failure. Returns the flush time and the log's
    /// `(appended, committed, dropped)` counts.
    pub fn settle_audit(&mut self, topology: &topo::Topology) -> Option<(Duration, u64, u64, u64)> {
        let flush = topology.flush_audit()?;
        let log = topology.audit.as_ref()?;
        let (appended, committed, dropped) = (log.appended(), log.committed(), log.dropped());
        let lost = dropped + appended.saturating_sub(committed);
        if lost > 0 {
            self.failed += lost;
            self.report(format!(
                "audit: {dropped} records dropped, {} appended but not committed at the final flush",
                appended.saturating_sub(committed)
            ));
        }
        Some((flush, appended, committed, dropped))
    }

    /// Print the failure tail, every metric and the JSON line; returns
    /// whether the run was correct.
    fn finish(&self, metrics: &[Metric]) -> bool {
        if self.reported > MAX_REPORTED {
            println!(
                "FAILED          : … and {} more",
                self.reported - MAX_REPORTED
            );
        }
        println!(
            "requests        : {} attempted, {} failed",
            self.attempted, self.failed
        );
        for m in metrics {
            println!("{:<34}{:>16} {}", m.name, format_value(m.value), m.unit);
        }
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        let correct = self.failed == 0 && self.reported == 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
        correct
    }
}

/// A closed-loop phase's figures.
pub struct Closed {
    /// Expected responses per second within the window.
    pub rps: f64,
    /// Process CPU µs per answered request.
    pub cpu_us: f64,
}

/// One reported metric.
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn format_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "over limit".into()
    }
}

/// A JSON number with every digit; a latency over any limit (a failed
/// request at that percentile) is the largest finite double.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}

/// The untraced run: [`TRIALS`] trials, each on a freshly stood-up
/// topology with its own warm-up, open loop and closed loop. A trial's
/// share of the time is short, but figures taken over trials do not
/// follow one unlucky topology (which shard or CPU each busy thread
/// landed on) or one burst of host interference the way a single long
/// trial does.
fn end_to_end(run: &mut Run) -> Vec<Metric> {
    let open_s = run.seconds * OPEN_SHARE / TRIALS as f64;
    let closed_s = run.seconds * (1.0 - OPEN_SHARE) / TRIALS as f64;
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let (mut rps, mut cpu_us, mut p50) = (Vec::new(), Vec::new(), Vec::new());
    let (mut p99_groups, mut late, mut pooled) = (Vec::new(), Vec::new(), Vec::new());
    let mut rss_mb = 0.0;
    for trial in 0..TRIALS {
        if trial == 0 {
            // Forget the reference run's and the plan's peak, so the
            // high-water mark read below is the served topology's.
            sys::reset_peak_rss();
        }
        let (topology, secs) = run.stand_up(false);
        setups.push(secs);
        let mut streams = run.streams();
        run.warm_up(&topology, &mut streams);
        let mut open = run.open_loop(&topology, &mut streams, open_s, false);
        if trial == 0 {
            // The peak over this trial's stand-up, warm-up and open
            // loop: a fixed amount of work (counts, not times), so the
            // monitor's retained per-request state shows without growing
            // with closed-loop throughput.
            rss_mb = sys::peak_rss_bytes() as f64 / (1024.0 * 1024.0);
        }
        let closed = run.closed_loop(&topology, &mut streams, closed_s);
        run.settle_audit(&topology);
        topology.tear_down();

        open.latency.sort_by_key(|&(due, _)| due);
        let by_due: Vec<f64> = open.latency.iter().map(|&(_, l)| l).collect();
        p99_groups.extend(stats::group_percentiles(&by_due, GROUP, 99.0));
        p50.push(stats::percentile(&stats::sorted(by_due.clone()), 50.0));
        pooled.extend(by_due);
        late.extend(open.late_us);
        rps.push(closed.rps);
        cpu_us.push(closed.cpu_us);
    }
    while setups.len() < SETUP_REPS {
        let (topology, secs) = run.stand_up(false);
        setups.push(secs);
        topology.tear_down();
    }

    let pooled = stats::sorted(pooled);
    let late = stats::sorted(late);
    let n = pooled.len();
    let p99_groups = stats::sorted(p99_groups);
    println!(
        "open loop       : {n} samples in {} groups of ≥{GROUP} (p99 {} by the ≥{} beyond rule), \
         p99_us is the lowest group p99, median group p99 {:.1} us, pooled p99 {:.1} us, \
         generator late p99 {:.1} us",
        p99_groups.len(),
        if stats::supports(n / p99_groups.len().max(1), 99.0) {
            "supported"
        } else {
            "NOT supported"
        },
        stats::MIN_BEYOND,
        stats::median(&p99_groups),
        stats::percentile(&pooled, 99.0),
        stats::percentile(&late, 99.0)
    );
    println!("open-loop p99   : per group, ascending {p99_groups:.0?} us");
    println!("open-loop p50   : per trial {p50:.1?} us");
    println!("closed loop     : {TRIALS} x {closed_s:.2}s, req/s per trial {rps:.0?}");
    let success = 1.0 - run.failed as f64 / run.attempted.max(1) as f64;
    println!(
        "error_rate      : {:.6} (failed / attempted)",
        1.0 - success
    );
    vec![
        metric("throughput_rps", stats::median(&rps), "req/s"),
        metric("p50_us", stats::median(&p50), "us"),
        metric("p99_us", stats::min(&p99_groups), "us"),
        metric("success_rate", success, "fraction"),
        metric("cpu_us_per_req", stats::median(&cpu_us), "us"),
        metric("rss_mb", rss_mb, "MB"),
        metric("setup_s", stats::median(&setups), "s"),
    ]
}
